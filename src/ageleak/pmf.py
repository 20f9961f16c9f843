"""Probability mass functions on positive integer slot counts.

These pmfs describe service times of coupled (queueing) policies and
inter-dump times of decoupled (accumulate-and-dump) policies.  A pmf is a
finite head, stored sparsely (only durations with positive mass are kept,
so a deterministic pmf at a huge duration costs O(1)), plus an optional
geometric tail g(d) = g(H) (1 - mu)^(d - H) past the head's last duration
H.  The tail is stored as its hazard mu, the constant P(D = d | D >= d)
from H on, so that 1 - (1 - mu) x is formed as (1 - x) + mu x and never
cancels.  A finite pmf has hazard 0.  Every reader answers the tail in
closed form; only :attr:`FinitePmf.entries` writes it out.
"""

import bisect
import json
import math
import operator
from dataclasses import dataclass

from .errors import (
    DuplicateDuration,
    NegativeProbability,
    NonPositiveDuration,
    PmfError,
    UnnormalizedMass,
    _as_finite,
    _as_int,
    _as_probability,
)

#: Tolerance on |sum of probabilities - 1|.  Looser would mask construction
#: bugs.
MASS_TOL = 1e-9

#: Cap on supports built by the construction helpers.  Large inter-dump
#: times are age-suboptimal anyway, so nothing of interest lives out here.
DEFAULT_D_MAX = 10_000

#: A tail is written out until less mass than this lies past it.
_DUST = 2.0 ** -53

#: Most durations a written-out pmf lists.
_LISTED_MAX = 1 << 16


@dataclass(frozen=True)
class FinitePmf:
    """Probability mass function on {1, 2, 3, ...}: a finite head and an optional geometric tail.

    ``durations`` and ``probabilities`` are parallel tuples: strictly
    increasing durations and strictly positive probabilities.  With
    ``hazard`` mu > 0 the mass continues past H = durations[-1] as
    g(H) (1 - mu)^(d - H).  The total is 1 within :data:`MASS_TOL`.
    Instances are immutable and safe to share.
    """

    durations: tuple
    probabilities: tuple
    hazard: float = 0.0

    @property
    def entries(self):
        """The (duration, probability) pairs, in increasing duration.

        A tail is written out until less than 2^-53 of the mass lies past
        it, and that rest is folded onto the last listed duration; a pmf
        that needs more than :data:`_LISTED_MAX` entries is refused.
        """
        durations, probabilities = self._listed(_LISTED_MAX, math.inf)
        if self.hazard:
            rest = self._rest(durations[-1])
            if rest >= _DUST:
                raise PmfError(f"this pmf's tail needs more than {_LISTED_MAX} entries")
            probabilities[-1] += rest
        return tuple(zip(durations, probabilities))

    @property
    def s_min(self):
        """Minimum supported duration."""
        return self.durations[0]

    @property
    def d_max(self):
        """Maximum supported duration; inf with a tail."""
        return math.inf if self.hazard else self.durations[-1]

    def prob(self, duration):
        """Mass at ``duration`` (0.0 off support)."""
        i = bisect.bisect_left(self.durations, duration)
        if i < len(self.durations):
            return self.probabilities[i] if self.durations[i] == duration else 0.0
        if not self.hazard:
            return 0.0
        return self.probabilities[-1] * (1.0 - self.hazard) ** (duration - self.durations[-1])

    def tail(self, r):
        """P(D > r): the head's mass past r plus the tail's, each exact."""
        i = bisect.bisect_right(self.durations, r)
        return math.fsum(self.probabilities[i:] + (self._rest(max(r, self.durations[-1])),))

    def _rest(self, r):
        """The tail's mass past r >= H, (g(H) / mu) (1 - mu)^(r - H + 1); 0.0 without a tail."""
        if not self.hazard:
            return 0.0
        return self.probabilities[-1] / self.hazard * (1.0 - self.hazard) ** (r - self.durations[-1] + 1)

    def _tail_sum(self, x, one_minus_x):
        """sum_{d>H} g(d) x^(d-1) = g(H) x^(H-1) (1 - mu) x / (1 - (1 - mu) x), the last
        denominator formed as ``one_minus_x`` + mu x; 0.0 without a tail."""
        if not self.hazard:
            return 0.0
        qx = (1.0 - self.hazard) * x
        return self.probabilities[-1] * x ** (self.durations[-1] - 1) * qx / (one_minus_x + self.hazard * x)

    def _listed(self, most, last):
        """The head's durations and masses as lists, then the tail's, g(H) (1 - mu)^k
        at H + k, up to duration ``last`` and ``most`` durations in all, stopping
        once less than 2^-53 of the mass lies past the last one listed."""
        durations, probabilities = list(self.durations), list(self.probabilities)
        if not self.hazard:
            return durations, probabilities
        h, g, q = durations[-1], probabilities[-1], 1.0 - self.hazard
        count, k = min(most - len(durations), last - h), 0
        while k < count and self._rest(h + k) >= _DUST:
            k += 1
        durations += range(h + 1, h + k + 1)
        probabilities += [g * q ** j for j in range(1, k + 1)]
        return durations, probabilities

    def to_json(self):
        """Serialize as ``{"entries": [[duration, probability], ...]}``.

        The emitted decimal representation round-trips bit-stably through
        :func:`make_pmf` of the parsed entries, as ``--pmf`` reads it; a
        tail is written out as :attr:`entries` lists it.
        """
        return json.dumps({"entries": [[d, p] for d, p in self.entries]})


@dataclass(frozen=True)
class Moments:
    """First two moments of a duration distribution, in slots / slots^2."""

    mean: float
    second_moment: float
    variance: float


def _pmf(durations, probabilities, hazard=0.0) -> FinitePmf:
    """The pmf of int durations and float probabilities in [0, 1], as parallel tuples,
    with a tail of ``hazard`` past the last duration.

    Every constructor ends here.  Durations must strictly increase and the
    mass, tail included, must be 1; zero-mass entries are dropped, and so is
    a tail of zero mass.
    """
    if not all(map(operator.lt, durations, durations[1:])):
        d = next(d0 for d0, d1 in zip(durations, durations[1:]) if d0 >= d1)
        raise DuplicateDuration(f"duration {d} listed twice")
    if hazard == 1.0:
        hazard = 0.0
    pmf = FinitePmf(durations, probabilities, hazard)
    total = math.fsum(probabilities + (pmf._rest(durations[-1]),))
    if not abs(total - 1.0) <= MASS_TOL:  # also NaN
        raise UnnormalizedMass(f"probabilities sum to {total!r}, not 1")
    if 0.0 in probabilities:
        hazard = hazard if probabilities[-1] else 0.0  # a tail continues the last mass
        durations, probabilities = zip(*((d, p) for d, p in zip(durations, probabilities) if p > 0.0))
        return FinitePmf(durations, probabilities, hazard)
    return pmf


def make_pmf(entries) -> FinitePmf:
    """Validate and normalize (duration, probability) pairs into a pmf.

    Entries are sorted by duration; zero-mass entries are dropped so the
    stored support is exactly the positive-mass durations.

    Raises
    ------
    NonPositiveDuration, DuplicateDuration, NegativeProbability,
    UnnormalizedMass
    """
    cleaned = []
    for d, p in entries:
        # plain int and float entries skip the rule calls
        if type(d) is not int or d < 1:
            d = _as_int(d, "duration", NonPositiveDuration, low=1)
        if type(p) is not float or not 0.0 <= p <= 1.0:
            p = _as_finite(p, "probability", NegativeProbability, low=0.0)
        cleaned.append((d, p))
    if not cleaned:
        raise UnnormalizedMass("pmf needs at least one entry")
    cleaned.sort(key=operator.itemgetter(0))
    return _pmf(*zip(*cleaned))


def pmf_moments(pmf: FinitePmf) -> Moments:
    """Exact mean, second moment and variance; :class:`PmfError` past the float range.

    A tail adds its closed forms: with s = g(H) / mu = P(D >= H) and
    q = 1 - mu, sum_{d>H} d g(d) = s q (H + 1/mu) and
    sum_{d>H} d^2 g(d) = s q (H^2 + 2H/mu + (2 - mu)/mu^2).
    """
    durations, probabilities = pmf.durations, pmf.probabilities
    tail, tail2 = [], []
    if pmf.hazard:
        h, sq, r = durations[-1], pmf._rest(durations[-1]), 1.0 / pmf.hazard
        tail, tail2 = [sq * h, sq * r], [sq * h * h, 2.0 * h * sq * r, sq * (2.0 - pmf.hazard) * r * r]
    try:
        mean = math.fsum([*map(operator.mul, durations, probabilities), *tail])
        second = math.fsum([*map(operator.mul, map(operator.mul, durations, durations), probabilities), *tail2])
    except OverflowError:
        mean = second = math.inf
    if not math.isfinite(second):
        raise PmfError("the second moment of this pmf is past the float range")
    return Moments(mean=mean, second_moment=second, variance=second - mean * mean)


def is_smp(pmf: FinitePmf) -> bool:
    """Shortest-most-probable predicate.

    True iff the mass at the minimum supported duration is >= the mass at
    every supported duration.  A tail never exceeds the head's last mass.
    """
    return max(pmf.probabilities) <= pmf.probabilities[0]


def geometric_pmf(mu) -> FinitePmf:
    """Geometric pmf with success probability ``mu``: mass (1 - mu)^(d - 1) mu at every d >= 1.

    Stored exactly, as the head mu at duration 1 and a tail of hazard mu.
    """
    mu = _as_probability(mu, "geometric parameter", NegativeProbability)
    return _pmf((1,), (mu,), mu)


def uniform_pmf(k) -> FinitePmf:
    """Uniform pmf on {1, ..., k}; mean (k+1)/2.  Widths past DEFAULT_D_MAX are refused."""
    k = _as_int(k, "uniform width", NonPositiveDuration, low=1)
    if k > DEFAULT_D_MAX:
        raise PmfError(f"uniform width {k} exceeds the {DEFAULT_D_MAX}-slot support cap")
    return _pmf(tuple(range(1, k + 1)), (1.0 / k,) * k)


def deterministic_pmf(tau) -> FinitePmf:
    """Point mass at duration ``tau``."""
    return _pmf((_as_int(tau, "duration", NonPositiveDuration, low=1),), (1.0,))
