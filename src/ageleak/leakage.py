"""Finite-horizon maximal leakage and asymptotic leakage rates.

Both leakage families leak log2 x(n) bits over n slots, where
x(t) = sum_d c_d x(t-d) + f(t), x(0) = 1, has nonnegative terms:
coupled (FCFS / preemptive LCFS) servers with shortest-most-probable
service pmfs take c_1 = 1, c_s1 += beta, f = 0; decoupled
accumulate-and-dump servers take c_d = 2 g(d), f(t) = P(D > t).

One kernel evaluates x in blocks (after Fiduccia, SIAM J. Comput. 1985):
a correlation carries the last d_max values into a block and a convolution
with the series of 1/(1 - c(z)) resolves the block itself.  Nothing
subtracts, so nothing cancels, and an exact power-of-two rescale before
each block keeps horizons of 10^6 slots finite.  Both rates are log2 z0
with sum_d c_d z0^-d = 1, found by Newton's method on w = ln z.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure, InvalidBeta, InvalidConfig, InvalidTau, NonHalfIntegerTau, ZeroRate,
    _as_finite, _as_int, _as_probability,
)
from .pmf import FinitePmf

_LN2 = math.log(2.0)
_log = logging.getLogger(__name__)

#: Newton budget and target residual on |sum_d (c_d / 2) z0^-d - 1/2|.
ROOT_MAX_ITER = 100
ROOT_RESIDUAL = 1e-12

#: Slots per block of the recurrence kernel.  The in-block series grows by
#: at most 2 per slot (sum_d c_d <= 2), so 2^256 stays far from overflow.
_BLOCK = 256


@dataclass(frozen=True)
class LeakageResult:
    """Maximal leakage over an n-slot horizon, in bits.

    At most one bit leaks per slot (outputs are binary), so bits <= n.
    """

    bits: float
    n: int

    def __post_init__(self):
        if not -1e-9 <= self.bits <= self.n + 1e-6:
            raise InvalidConfig(f"leakage {self.bits!r} bits outside [0, n={self.n}]")


def _log2_recurrence(c, f, n):
    """log2 x(n) for x(t) = sum_d c[d] x(t-d) + f[t], x(0) = 1, x(t < 0) = 0.

    ``c`` holds c_0 = 0, c_1, ..., c_dmax and ``f`` holds f(0), f(1), ...,
    all >= 0, with f(t) = 0 past its end.  A block of r slots from t0 gets
    rhs(i) = sum_{d>i} c_d x(t0+i-d) + f(t0+i), then x(t0+i) =
    sum_j g_j rhs(i-j) with g = 1/(1 - c(z)).  Stored values are x * 2^-shed.
    """
    d_max = len(c) - 1
    m = min(_BLOCK, max(n, 1))  # no block is longer than the horizon
    c_pad = np.concatenate((c, np.zeros(m)))
    # g = (1 + c)(1 + c^2)(1 + c^4)... to m terms: c^(2^j) starts at
    # degree 2^j, so log2(m) factors suffice, all nonnegative.
    g, q = np.zeros(m), c_pad[:m].copy()
    g[0] = 1.0
    while q.any():
        g += np.convolve(g, q)[:m]
        q = np.convolve(q, q)[:m]
    hist = np.zeros(d_max)  # x(t0 - d_max), ..., x(t0 - 1)
    hist[-1] = 1.0
    shed = blocks = rescales = 0
    t0 = 1
    while t0 <= n:
        r = min(m, n + 1 - t0)
        exp = math.frexp(hist.max())[1]
        if exp:
            hist *= math.ldexp(1.0, -exp)
            shed += exp
            rescales += 1
        k = min(d_max, r)  # the history reaches the first d_max slots only
        rhs = np.correlate(c_pad[1 : d_max + k], hist[::-1], "valid")
        if t0 < len(f):
            rhs = np.concatenate((rhs, np.zeros(r - k)))
            force = f[t0 : t0 + r]
            rhs[: len(force)] += force * math.ldexp(1.0, -shed)
        x = np.convolve(g[:r], rhs)[:r]
        hist = x[r - d_max :] if r >= d_max else np.concatenate((hist[r:], x))
        t0 += r
        blocks += 1
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("recurrence n=%d d_max=%d: %d blocks, %d rescales", n, d_max, blocks, rescales)
    return math.log2(hist[-1]) + shed


def _smp_terms(s1, beta):
    """Lags and weights of the nonzero c_d of a coupled server whose SMP
    service pmf has minimum s1 with mass beta: c_1 = 1, c_s1 += beta."""
    if s1 == 1:
        return np.array([1]), np.array([1.0 + beta])
    return np.array([1, s1]), np.array([1.0, beta])


def _rad_terms(dump_pmf: FinitePmf):
    """Lags and weights of the nonzero c_d = 2 g(d) of a dump schedule."""
    return np.array(dump_pmf.durations), 2.0 * np.array(dump_pmf.probabilities)


def _coefficients(lags, weights, n):
    """Dense c_0, ..., c_top for x(1..n): lags past n never reach x(n).

    ``top`` is min(largest lag, n), and at least 1 so the history is never
    empty.
    """
    c = np.zeros(min(int(lags[-1]), max(n, 1)) + 1)
    keep = lags < len(c)
    c[lags[keep]] = weights[keep]
    return c


def _rad_forcing(dump_pmf: FinitePmf, n):
    """f(t) = P(D > t) for t = 0 .. min(d_max - 1, n).

    The tail is summed from the top, and the mass past the kept lags enters
    that sum first in the same order, so every kept value equals the one a
    support-long array gives.
    """
    durations, probs = np.array(dump_pmf.durations), np.array(dump_pmf.probabilities)
    top = min(dump_pmf.d_max, max(n, 1))
    mass = np.zeros(top + 1)
    inside = durations <= top
    mass[durations[inside]] = probs[inside]
    beyond = np.cumsum(probs[~inside][::-1])[-1:]  # P(D > top), if the support goes past it
    tail = np.cumsum(np.concatenate((beyond, mass[::-1])))[::-1]  # P(D >= t)
    return tail[1:]


def _root(lags, weights):
    """log2 z0 for the root z0 >= 1 of sum_d c_d z0^-d = 1, with sum_d c_d <= 2.

    The nonzero c_d are given as increasing ``lags`` d with their
    ``weights``.  A single one gives z0^d = c_d exactly.  Otherwise, on
    w = ln z, phi(w) = sum_d (c_d / 2) exp(-d w) - 1/2 is convex and strictly
    decreasing, with phi(0) >= 0 and phi(ln 2) <= 0 (every d >= 1).  Newton
    steps from w = 0 therefore rise monotonically to the root without
    passing it; the iterate is clamped to ln 2 against rounding.
    """
    if len(lags) == 1:
        return float(math.log2(weights[0]) / lags[0])
    d, p = lags, weights / 2.0
    w = 0.0
    for step in range(1, ROOT_MAX_ITER + 1):
        terms = p * np.exp(-d * w)
        phi = terms.sum() - 0.5
        w = min(w + phi / (d * terms).sum(), _LN2)
        if abs(phi) <= ROOT_RESIDUAL:  # and the step just taken squares it
            if _log.isEnabledFor(logging.DEBUG):
                final = (p * np.exp(-d * w)).sum() - 0.5
                _log.debug("rate root: %d Newton steps, final residual %.3g", step, final)
            return float(w / _LN2)
    raise ConvergenceFailure(
        f"root of sum c_d z^-d = 1 not located to {ROOT_RESIDUAL} in {ROOT_MAX_ITER} Newton steps"
    )


def smp_leakage_bits(n, s1, beta) -> LeakageResult:
    """Finite-horizon leakage of a coupled server with an SMP service pmf.

    ``s1`` is the minimum service time and ``beta`` the mass it carries.
    Counts the output sequences whose transmissions are at least s1 slots
    apart, each transmission weighted by beta:
    a(n) = a(n-1) + beta * a(n-s1) = sum_k C(n - k(s1-1), k) beta^k.
    For s1 = 1 this collapses to n*log2(1 + beta).
    """
    n = _as_int(n, "horizon", InvalidConfig)
    s1 = _as_int(s1, "minimum service time", InvalidConfig, low=1)
    beta = _as_probability(beta, "top service probability", InvalidBeta)
    return LeakageResult(_log2_recurrence(_coefficients(*_smp_terms(s1, beta), n), np.zeros(0), n), n)


def rad_leakage_bits(n, dump_pmf: FinitePmf) -> LeakageResult:
    """Finite-horizon leakage of a random accumulate-and-dump policy.

    Evaluates log2 m(n) where m(n) counts, in expectation over the dump
    timer, the weighted achievable outputs:

        m(n) = 2 * sum_{d=1}^{n} g(d) m(n-d) + P(D > n),   m(0) = 1.
    """
    n = _as_int(n, "horizon", InvalidConfig)
    c = _coefficients(*_rad_terms(dump_pmf), n)
    return LeakageResult(_log2_recurrence(c, _rad_forcing(dump_pmf, n), n), n)


def rad_rate(dump_pmf: FinitePmf) -> float:
    """Asymptotic leakage rate log2(z0) of a dump schedule, E[z0^-D] = 1/2."""
    return _root(*_rad_terms(dump_pmf))


def _uniform_width(tau):
    """Support width 2*tau - 1 of the uniform pmf on {1, 2, ...} with mean ``tau``."""
    tau = _as_finite(tau, "mean inter-dump time", InvalidTau, low=1.0)
    k = 2.0 * tau - 1.0
    if not math.isfinite(k) or abs(k - round(k)) > 1e-9:
        raise NonHalfIntegerTau(f"2*tau-1 = {k!r} is not a positive integer")
    return round(k)


def leakage_time(rate) -> float:
    """Average slots per leaked bit: the reciprocal rate."""
    rate = _as_finite(rate, "leakage rate", ZeroRate, low=0.0)
    if rate == 0.0:
        raise ZeroRate("leakage rate 0.0 is not positive")
    return 1.0 / rate

