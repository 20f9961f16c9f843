"""Optimal-policy construction.

Coupled class: for a leakage budget beta = g(1), the age-minimizing SMP
service pmf is the greedy one that packs mass beta onto the shortest
durations.  Decoupled class: for a target leakage rate r, the
age-minimizing dump schedule dithers between the two consecutive integer
periods i = floor(1/r) and j = i + 1 that bracket the reciprocal rate.

The dither's optimality is proved here, so no code checks it at run time.
The age of a dump pmf g rises
with E[D^2]/E[D], and by Dinkelbach's lemma (Management Sci. 1967) no pmf
at rate r has a smaller ratio than the dither's gamma* = E[D^2]/E[D] iff
sum g(d)(d^2 - gamma* d) >= 0 for each of them.  Let x_d = 2^(-r d), so
that a pmf at rate r has sum g(d) x_d = 1/2, and set
b = (i + j - gamma*) / (x_j - x_i) and a = i^2 - gamma* i - b x_i.  Then
h(d) = d^2 - gamma* d - a - b x_d vanishes at i and at j.  The dither puts
gamma* between i and j, so gamma* < i + j and b < 0, which makes h convex:
it vanishes at two adjacent integers, so h(d) >= 0 at every integer
d >= 1.  Hence sum g(d)(d^2 - gamma* d) >= a + b/2 = 0 for every dump pmf
at rate r, geometric tails included, the dither's own sum being 0.  A pure
deterministic schedule (1/r an integer) is the same argument with
j = i + 1 and p_j = 0.  The acceptance gate's exhaustive vertex search is
the executable cross-check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .age import AgeResult, _fcfs_ages, _fcfs_table
from .errors import InvalidBeta, InvalidLambda, InvalidRate, NoFeasibleAlpha, _as_probability
from .leakage import _LN2
from .pmf import DEFAULT_D_MAX, FinitePmf, _pmf

#: 1/rate within this distance of an integer collapses to a pure DAD policy
#: instead of emitting a near-zero dither weight.
_INTEGER_TOL = 1e-9

#: Constraint residual allowed on the dither weights.
_CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class DitherPolicy:
    """Two-point dump schedule on consecutive periods i and j = i + 1.

    Weights satisfy p_i 2^(-i rate) + p_j 2^(-j rate) = 1/2, which pins the
    asymptotic leakage rate to ``target_rate`` exactly.  A pure
    deterministic schedule is the degenerate case p_i = 1.
    """

    i: int
    j: int
    p_i: float
    p_j: float
    target_rate: float

    def __post_init__(self):
        if self.j != self.i + 1:
            raise InvalidRate(f"support {self.i}, {self.j} is not consecutive")
        if not 0.0 < self.p_i <= 1.0 or self.p_j < 0.0:
            raise InvalidRate(f"dither weights ({self.p_i!r}, {self.p_j!r}) invalid")
        # 2^(-d rate) rounds once; z0^-d would carry z0's rounding d times over
        residual = abs(
            self.p_i * 2.0 ** (-self.i * self.target_rate) + self.p_j * 2.0 ** (-self.j * self.target_rate) - 0.5
        )
        if residual > _CONSTRAINT_TOL:
            raise InvalidRate(f"leakage-constraint residual {residual:.3e}")

    def to_pmf(self) -> FinitePmf:
        if self.p_j <= 0.0:
            return _pmf((self.i,), (1.0,))
        return _pmf((self.i, self.j), (self.p_i, self.p_j))

    @property
    def mean(self):
        return self.i * self.p_i + self.j * self.p_j

    @property
    def z0(self):
        """The root z0 = 2^rate of p_i z0^-i + p_j z0^-j = 1/2."""
        return 2.0 ** self.target_rate


def greedy_smp_pmf(beta) -> FinitePmf:
    """Age-optimal SMP service pmf for leakage budget ``beta`` = g(1).

    Mass beta on each duration 1..k with k = floor(1/beta); the remainder
    1 - k*beta sits at k + 1 and is dropped when 1/beta is an integer.  A
    budget whose support would pass DEFAULT_D_MAX slots is refused.
    """
    beta = _as_probability(beta, "leakage budget", InvalidBeta)
    if beta * DEFAULT_D_MAX < 1.0:
        raise InvalidBeta(f"leakage budget {beta!r} spreads past the {DEFAULT_D_MAX}-slot support cap")
    k = int(1.0 / beta + _INTEGER_TOL)
    remainder = 1.0 - k * beta
    if remainder > 1e-12:
        return _pmf(tuple(range(1, k + 2)), (beta,) * k + (remainder,))
    return _pmf(tuple(range(1, k + 1)), (beta,) * k)


def ddad_policy(target_rate) -> DitherPolicy:
    """Age-optimal dump schedule achieving leakage rate ``target_rate``.

    The support is i = floor(1/rate), j = i + 1 and the weights solve
    p_i 2^(-i rate) + p_j 2^(-j rate) = 1/2 with p_i + p_j = 1.  When 1/rate
    is an integer (within 1e-9) the schedule collapses to the deterministic
    dump policy with period 1/rate.

    With delta = j rate - 1 and eps = 1 - i rate, both taken from the exact
    ratio of the float rate and rounded once, the weights are
    p_i = (2^delta - 1) / (2^rate - 1) and p_j = 2^delta (2^eps - 1) / (2^rate - 1),
    each through expm1: nothing cancels, so both keep full relative
    precision at any rate, where differences of powers of 2^rate lose the
    digits of 1/rate.
    """
    target_rate = _as_probability(target_rate, "target leakage rate", InvalidRate)
    if 2.0 ** target_rate == 1.0:
        raise InvalidRate(f"target leakage rate {target_rate!r} is below the resolution of 2^rate")
    inv = 1.0 / target_rate
    nearest = round(inv)
    if abs(inv - nearest) <= _INTEGER_TOL:
        i = int(nearest)
        return DitherPolicy(i=i, j=i + 1, p_i=1.0, p_j=0.0, target_rate=target_rate)
    i = math.floor(inv)
    j = i + 1
    num, den = target_rate.as_integer_ratio()
    delta, eps = (j * num - den) / den, (den - i * num) / den
    step = math.expm1(target_rate * _LN2)
    p_i = math.expm1(delta * _LN2) / step
    p_j = 2.0 ** delta * math.expm1(eps * _LN2) / step
    return DitherPolicy(i=i, j=j, p_i=p_i, p_j=p_j, target_rate=target_rate)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Width of the admission-probability bracket at which the search stops.
_ALPHA_TOL = 1e-6


def optimal_alpha_for_fcfs(lam, service_pmf: FinitePmf):
    """Admission probability minimizing the thinned FCFS age, and that age.

    Golden-section search over the stability interval
    (eps, min(1, (1 - eps) / (lam E[S]))] until the bracket is at most
    1e-6 wide; the right endpoint is also evaluated so an age monotone in
    alpha returns alpha = 1 exactly.

    This is the lockstep search of many pmfs run on one: each of its 30 or
    so steps pays numpy's per-call cost, about 2 ms in all on an Intel
    Xeon core.  Many pmfs are best searched in one call, as
    :func:`~ageleak.tradeoff.sweep` does.
    """
    return _alpha_searches(lam, [service_pmf])[0]


def _alpha_searches(lam, service_pmfs):
    """:func:`optimal_alpha_for_fcfs` for each service pmf, the golden
    sections run in lockstep: each step moves every open bracket at once and
    evaluates the ages at all their new points in one call; a bracket at
    most _ALPHA_TOL wide stays as it is."""
    lam = _as_probability(lam, "arrival rate", InvalidLambda)
    table = _fcfs_table(service_pmfs)
    eps = 1e-9
    hi = np.minimum(1.0, (1.0 - eps) / (lam * table.mean))
    if np.any(hi <= eps):  # so at the largest load
        raise NoFeasibleAlpha(f"no stable admission probability at load {float(np.max(lam * table.mean))!r}")

    def cost(alpha):  # alpha <= hi, so rho <= 1 - eps
        return _fcfs_ages(alpha * lam, table)

    a, b = eps, hi
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = cost(c), cost(d)
    live = b - a > _ALPHA_TOL
    while live.any():
        # left: b, d, fd = d, c, fc and c is new; right: a, c, fc = c, d, fd and d is new
        left, right = live & (fc < fd), live & ~(fc < fd)
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, d, fc, fd = np.where(right, d, c), np.where(left, c, d), np.where(right, fd, fc), np.where(left, fc, fd)
        new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f = cost(new)
        c, fc, d, fd = np.where(left, new, c), np.where(left, f, fc), np.where(right, new, d), np.where(right, f, fd)
        live = b - a > _ALPHA_TOL
    alpha = 0.5 * (a + b)
    best, edge = cost(alpha), cost(hi)
    alpha, best = np.where(edge <= best, hi, alpha), np.where(edge <= best, edge, best)
    return [(x, AgeResult(delta)) for x, delta in zip(alpha.tolist(), best.tolist())]
