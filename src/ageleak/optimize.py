"""Optimal-policy construction and optimality certificates.

Coupled class: for a leakage budget beta = g(1), the age-minimizing SMP
service pmf is the greedy one that packs mass beta onto the shortest
durations.  Decoupled class: for a target leakage rate, the age-minimizing
dump schedule dithers between the two consecutive integer periods
bracketing the reciprocal rate; its optimality certificate comes from a
fractional-programming transform whose optimal parameter gamma* equals
E[D^2]/E[D] and must land strictly between the two support points.
"""

import math
from dataclasses import dataclass

import numpy as np

from .age import AgeResult, _fcfs_ages, _fcfs_table
from .errors import (
    InvalidBeta, InvalidConfig, InvalidLambda, InvalidRate, NoFeasibleAlpha, _as_int,
    _as_probability,
)
from .pmf import DEFAULT_D_MAX, FinitePmf, _pmf, pmf_moments

#: 1/rate within this distance of an integer collapses to a pure DAD policy
#: instead of emitting a near-zero dither weight.
_INTEGER_TOL = 1e-9

#: Constraint residual allowed on the dither weights.
_CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class DitherPolicy:
    """Two-point dump schedule on consecutive periods i and j = i + 1.

    Weights satisfy p_i * z0^-i + p_j * z0^-j = 1/2 with z0 = 2^rate, which
    pins the asymptotic leakage rate to ``target_rate`` exactly.  A pure
    deterministic schedule is the degenerate case p_i = 1.
    """

    i: int
    j: int
    p_i: float
    p_j: float
    z0: float
    target_rate: float

    def __post_init__(self):
        if self.j != self.i + 1:
            raise InvalidRate(f"support {self.i}, {self.j} is not consecutive")
        if not 0.0 < self.p_i <= 1.0 or self.p_j < 0.0:
            raise InvalidRate(f"dither weights ({self.p_i!r}, {self.p_j!r}) invalid")
        residual = abs(
            self.p_i * self.z0 ** -self.i + self.p_j * self.z0 ** -self.j - 0.5
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


@dataclass(frozen=True)
class DinkelbachCertificate:
    """Optimality certificate for a dither policy.

    ``gamma_star`` is the optimal fractional-program parameter E[D^2]/E[D];
    ``residual`` is |E[D^2] - gamma* E[D]|, zero up to rounding by
    construction; ``sandwich_ok`` records i < gamma* < j (gamma* = i for the
    degenerate deterministic case); ``convexity_ok`` records the cost-curve
    convexity bound gamma* < 2 + 2/log2(z0).
    """

    gamma_star: float
    residual: float
    sandwich_ok: bool
    convexity_ok: bool


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

    With z0 = 2^rate, the support is i = floor(1/rate), j = i + 1 and the
    weight solves p_i z0^-i + (1 - p_i) z0^-j = 1/2.  When 1/rate is an
    integer (within 1e-9) the schedule collapses to the deterministic dump
    policy with period 1/rate.
    """
    target_rate = _as_probability(target_rate, "target leakage rate", InvalidRate)
    z0 = 2.0 ** target_rate
    if z0 == 1.0:
        raise InvalidRate(f"target leakage rate {target_rate!r} is below the resolution of 2^rate")
    inv = 1.0 / target_rate
    nearest = round(inv)
    if abs(inv - nearest) <= _INTEGER_TOL:
        i = int(nearest)
        return DitherPolicy(i=i, j=i + 1, p_i=1.0, p_j=0.0, z0=z0, target_rate=target_rate)
    i = math.floor(inv)
    j = i + 1
    x_i = z0 ** -i
    x_j = z0 ** -j
    p_i = (0.5 - x_j) / (x_i - x_j)
    return DitherPolicy(i=i, j=j, p_i=p_i, p_j=1.0 - p_i, z0=z0, target_rate=target_rate)


def dinkelbach_certify(policy: DitherPolicy) -> DinkelbachCertificate:
    """Certify a dither policy against the fractional-program optimum."""
    m = pmf_moments(policy.to_pmf())
    gamma_star = m.second_moment / m.mean
    residual = abs(m.second_moment - gamma_star * m.mean)
    if policy.p_j > 0.0:
        sandwich_ok = policy.i < gamma_star < policy.j
    else:
        sandwich_ok = abs(gamma_star - policy.i) <= 1e-9
    convexity_ok = gamma_star < 2.0 + 2.0 / math.log2(policy.z0)
    return DinkelbachCertificate(
        gamma_star=gamma_star,
        residual=residual,
        sandwich_ok=sandwich_ok,
        convexity_ok=convexity_ok,
    )


def _vertex_candidates(z0, d_max, feas_tol=1e-6):
    """All feasible one- and two-point dump pmfs on {1..d_max}.

    The leakage constraint sum g(d) z0^-d = 1/2 plus normalization pin the
    weights of any support pair exactly; a vertex is feasible when both
    weights are non-negative (to ``feas_tol``).
    """
    xs = {d: z0 ** -d for d in range(1, d_max + 1)}
    out = []
    for d, x in xs.items():
        if abs(x - 0.5) <= feas_tol:
            out.append(((d, 1.0),))
    for i in range(1, d_max + 1):
        for k in range(i + 1, d_max + 1):
            x_i, x_k = xs[i], xs[k]
            denom = x_i - x_k
            g_i = (0.5 - x_k) / denom
            g_k = (x_i - 0.5) / denom
            if g_i < -feas_tol or g_k < -feas_tol:
                continue
            g_i = min(max(g_i, 0.0), 1.0)
            g_k = 1.0 - g_i
            # rounding-dust weights duplicate a single-point vertex
            if g_i <= 1e-9 or g_k <= 1e-9:
                continue
            out.append(((i, g_i), (k, g_k)))
    return out


def _ratio(entries):
    mean = sum(d * p for d, p in entries)
    second = sum(d * d * p for d, p in entries)
    return second / mean


def verify_two_point_optimality(target_rate, search_d_max) -> bool:
    """Exhaustively confirm the consecutive-two-point schedule is optimal.

    Enumerates every feasible one- and two-point dump pmf on
    {1..search_d_max} meeting the leakage constraint (to 1e-6) and checks
    that the one with the least moment ratio E[D^2]/E[D] has the dither
    schedule's support and ratio (to 1e-9).
    """
    search_d_max = _as_int(search_d_max, "search_d_max", InvalidConfig, low=1)
    if search_d_max > 12:
        raise InvalidConfig(f"search_d_max {search_d_max} too large for exhaustive check")
    policy = ddad_policy(target_rate)
    candidates = _vertex_candidates(policy.z0, search_d_max)
    if not candidates:
        return False
    dither = policy.to_pmf()
    best = min(candidates, key=_ratio)
    support = tuple(d for d, _ in best)
    return support == dither.durations and abs(_ratio(best) - _ratio(dither.entries)) <= 1e-9


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
    so steps pays numpy's per-call cost, about 1 ms in all on an Intel
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
    return [(x, AgeResult(delta)) for x, delta in zip(np.ravel(alpha).tolist(), np.ravel(best).tolist())]
