"""Finite probability mass functions on positive integer slot counts.

These pmfs describe service times of coupled (queueing) policies and
inter-dump times of decoupled (accumulate-and-dump) policies.  Support is
stored sparsely: only durations with positive mass are kept, so a
deterministic pmf at a huge duration costs O(1).
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
    TailTooHeavy,
    UnnormalizedMass,
    _as_finite,
    _as_int,
    _as_probability,
)

#: Tolerance on |sum of probabilities - 1|.  Stricter would reject folded
#: geometric tails; looser would mask construction bugs.
MASS_TOL = 1e-9

#: Tail mass beyond which a geometric truncation is refused by default.
GEOMETRIC_TAIL_TOL = 1e-12

#: Cap on supports built by the construction helpers.  Large inter-dump
#: times are age-suboptimal anyway, so nothing of interest lives out here.
DEFAULT_D_MAX = 10_000


@dataclass(frozen=True)
class FinitePmf:
    """Probability mass function with finite support on {1, 2, 3, ...}.

    ``durations`` and ``probabilities`` are parallel tuples: strictly
    increasing durations and strictly positive probabilities summing to 1
    within :data:`MASS_TOL`.  Instances are immutable and safe to share.
    """

    durations: tuple
    probabilities: tuple

    @property
    def entries(self):
        """The (duration, probability) pairs, in increasing duration."""
        return tuple(zip(self.durations, self.probabilities))

    @property
    def s_min(self):
        """Minimum supported duration."""
        return self.durations[0]

    @property
    def d_max(self):
        """Maximum supported duration."""
        return self.durations[-1]

    def prob(self, duration):
        """Mass at ``duration`` (0.0 off support)."""
        i = bisect.bisect_left(self.durations, duration)
        return self.probabilities[i] if i < len(self.durations) and self.durations[i] == duration else 0.0

    def tail(self, r):
        """P(D > r), exact for the finite support."""
        return math.fsum(self.probabilities[bisect.bisect_right(self.durations, r) :])

    def to_json(self):
        """Serialize as ``{"entries": [[duration, probability], ...]}``.

        The emitted decimal representation round-trips bit-stably through
        :func:`make_pmf` of the parsed entries, as ``--pmf`` reads it.
        """
        return json.dumps({"entries": [[d, p] for d, p in self.entries]})


@dataclass(frozen=True)
class Moments:
    """First two moments of a duration distribution, in slots / slots^2."""

    mean: float
    second_moment: float
    variance: float


def _pmf(durations, probabilities) -> FinitePmf:
    """The pmf of int durations and float probabilities in [0, 1], as parallel tuples.

    Every constructor ends here.  Durations must strictly increase and the
    mass must be 1; zero-mass entries are dropped.
    """
    if not all(map(operator.lt, durations, durations[1:])):
        d = next(d0 for d0, d1 in zip(durations, durations[1:]) if d0 >= d1)
        raise DuplicateDuration(f"duration {d} listed twice")
    total = math.fsum(probabilities)
    if not abs(total - 1.0) <= MASS_TOL:  # also NaN
        raise UnnormalizedMass(f"probabilities sum to {total!r}, not 1")
    if 0.0 in probabilities:
        durations, probabilities = zip(*((d, p) for d, p in zip(durations, probabilities) if p > 0.0))
    return FinitePmf(durations, probabilities)


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
    """Exact mean, second moment and variance; :class:`PmfError` past the float range."""
    durations, probabilities = pmf.durations, pmf.probabilities
    try:
        mean = math.fsum(map(operator.mul, durations, probabilities))
        second = math.fsum(map(operator.mul, map(operator.mul, durations, durations), probabilities))
    except OverflowError:
        raise PmfError("the second moment of this pmf is past the float range") from None
    return Moments(mean=mean, second_moment=second, variance=second - mean * mean)


def is_smp(pmf: FinitePmf) -> bool:
    """Shortest-most-probable predicate.

    True iff the mass at the minimum supported duration is >= the mass at
    every supported duration.
    """
    return max(pmf.probabilities) <= pmf.probabilities[0]


def geometric_pmf(mu) -> FinitePmf:
    """Truncated geometric pmf with success probability ``mu``.

    Mass is (1-mu)^(d-1) * mu for d < d_max; the remaining tail is folded
    onto d_max so the total is exactly 1 while the mass at duration 1 (which
    drives the leakage rate) is preserved exactly.  d_max is the smallest
    truncation point with tail mass <= 1e-12, capped at :data:`DEFAULT_D_MAX`.

    Raises :class:`TailTooHeavy` if the cap would fold more than 1e-12 of mass.
    """
    mu = _as_probability(mu, "geometric parameter", NegativeProbability)
    if mu == 1.0:
        return _pmf((1,), (1.0,))
    ln_q = math.log(1.0 - mu)  # 0.0 once mu is below half an ulp of 1
    d_max = min(math.ceil(math.log(GEOMETRIC_TAIL_TOL) / ln_q), DEFAULT_D_MAX) if ln_q else DEFAULT_D_MAX
    if (1.0 - mu) ** d_max > GEOMETRIC_TAIL_TOL and d_max < DEFAULT_D_MAX:
        d_max += 1  # the float power rounded above the log bound, as at mu = 0.99
    tail = (1.0 - mu) ** d_max
    if tail > GEOMETRIC_TAIL_TOL:
        raise TailTooHeavy(
            f"tail mass {tail:.3e} beyond d_max={d_max} exceeds {GEOMETRIC_TAIL_TOL}"
        )
    probabilities = [(1.0 - mu) ** (d - 1) * mu for d in range(1, d_max)]
    probabilities.append((1.0 - mu) ** (d_max - 1))  # folded tail
    return _pmf(tuple(range(1, d_max + 1)), tuple(probabilities))


def uniform_pmf(k) -> FinitePmf:
    """Uniform pmf on {1, ..., k}; mean (k+1)/2.  Widths past DEFAULT_D_MAX are refused."""
    k = _as_int(k, "uniform width", NonPositiveDuration, low=1)
    if k > DEFAULT_D_MAX:
        raise PmfError(f"uniform width {k} exceeds the {DEFAULT_D_MAX}-slot support cap")
    return _pmf(tuple(range(1, k + 1)), (1.0 / k,) * k)


def deterministic_pmf(tau) -> FinitePmf:
    """Point mass at duration ``tau``."""
    return _pmf((_as_int(tau, "duration", NonPositiveDuration, low=1),), (1.0,))
