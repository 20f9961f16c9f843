"""Finite-horizon maximal leakage and asymptotic leakage rates.

Both leakage families leak log2 x(n) bits over n slots, where
x(t) = sum_d c_d x(t-d), x(0) = 1, x(t < 0) = fill, has nonnegative terms:
coupled (FCFS / preemptive LCFS) servers with shortest-most-probable
service pmfs take c_1 = 1, c_s1 += beta, fill 0; decoupled
accumulate-and-dump servers take c_d = 2 g(d), fill 1/2, whose history
term sum_{d>t} c_d / 2 is the timer's P(D > t).

One kernel evaluates x in blocks (after Fiduccia, SIAM J. Comput. 1985):
a correlation carries the last d_max values into a block and a convolution
with the series of 1/(1 - c(z)) resolves the block itself.  A dump pmf
with a geometric tail of hazard mu past its last head duration H has
c_(H+e) = c_H (1 - mu)^e at every e >= 1; the kernel carries the last H
values and one more, a geometric mean of all older ones, so the order is
H + 1 at any horizon.  Nothing subtracts, so nothing cancels, and an
exact power-of-two rescale before each block keeps horizons of 10^6 slots
finite.  Both rates are log2 z0 with sum_d c_d z0^-d = 1, found by
Newton's method on w = ln z, a tail entering in closed form.
"""

import bisect
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure, InvalidBeta, InvalidConfig, PmfError, ZeroRate, _as_finite, _as_int, _as_probability,
)
from .pmf import FinitePmf

_LN2 = math.log(2.0)
_log = logging.getLogger(__name__)

#: Newton budget, and the last step's largest share of w = ln z0.
ROOT_MAX_ITER = 100
ROOT_STEP = 1e-12

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


def _log2_recurrence(c, hazard, fill, n):
    """log2 x(n) for x(t) = sum_d c[d] x(t-d), x(0) = 1, x(t < 0) = fill.

    ``c`` holds c_0 = 0, c_1, ..., c_H, all >= 0; with ``hazard`` mu > 0 the
    coefficients go on as c_(H+e) = c_H q^e, q = 1 - mu.  A block of r slots
    from t0 gets rhs(i) = sum_{d>i} c_d x(t0+i-d), then x(t0+i) =
    sum_j g_j rhs(i-j) with g = 1/(1 - c(z)), tail included.  The head's
    share of rhs reads the last H values; the tail's share reads them and
    one more state, T = mu sum_{e>=1} q^(e-1) x(t0-H-e), a weighted mean
    of all older values (fill at the start), so the order is H + 1 at any n.
    Stored values are x * 2^-shed.
    """
    d_max = len(c) - 1
    m = min(_BLOCK, max(n, 1))  # no block is longer than the horizon
    c_pad = np.concatenate((c, np.zeros(m)))
    dense = c_pad[:m].copy()
    if hazard:
        # q^0 .. q^m from ln q = log1p(-mu): a rounded 1 - mu would be off by
        # up to 2^-53 / mu relative in mu, and so in the tail's total weight
        powers = np.exp(np.arange(m + 1.0) * math.log1p(-hazard))
        dense[d_max + 1 :] = c[-1] * powers[1 : m - d_max]
        scale = c[-1] / hazard * powers[1]  # c_(H+1) / mu, at most 2 P(D > H)
    # g = (1 + c)(1 + c^2)(1 + c^4)... to m terms: c^(2^j) starts at
    # degree 2^j, so log2(m) factors suffice, all nonnegative.
    g, p = np.zeros(m), dense
    g[0] = 1.0
    while p.any():
        g += np.convolve(g, p)[:m]
        p = np.convolve(p, p)[:m]
    hist = np.full(d_max, fill)  # x(t0 - d_max), ..., x(t0 - 1)
    hist[-1] = 1.0
    mean = fill if hazard else 0.0  # T, the tail's mean of the values older than the history
    shed = blocks = rescales = 0
    t0 = 1
    while t0 <= n:
        r = min(m, n + 1 - t0)
        exp = math.frexp(hist.max() + mean)[1]  # mean <= max(x), so the sum is within a factor 2
        if exp:
            down = math.ldexp(1.0, -exp)
            hist *= down
            mean *= down
            shed += exp
            rescales += 1
        k = min(d_max, r)  # the head's history reaches the first d_max slots only
        rhs = np.correlate(c_pad[1 : d_max + k], hist[::-1], "valid")
        if hazard:
            # tail share: (c_(H+1) / mu) (q^i T + mu sum_{j<min(i,H)} q^(i-1-j) hist_j)
            older = np.concatenate(([mean], hazard * hist[: r - 1]))
            rhs = np.concatenate((rhs, np.zeros(r - k))) + scale * np.convolve(older, powers[:r])[:r]
        x = np.convolve(g[:r], rhs)[:r]
        if hazard:  # T moves r slots on: q^r T + mu sum_j q^(r-1-j) x(t0 - H + j)
            moved = np.concatenate((hist, x))[:r]
            mean = powers[r] * mean + hazard * float(np.dot(powers[r - 1 :: -1], moved))
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
        return (1,), np.array([1.0 + beta])
    return (1, s1), np.array([1.0, beta])


def _rad_terms(dump_pmf: FinitePmf):
    """Lags and weights of the nonzero head c_d = 2 g(d) of a dump schedule, and its tail's hazard."""
    return dump_pmf.durations, 2.0 * np.array(dump_pmf.probabilities), dump_pmf.hazard


def _coefficients(n, lags, weights, hazard=0.0):
    """Dense c_0, ..., c_top for x(1..n), with top = min(largest lag, n + 1),
    and the hazard of the tail past the largest lag that stays.

    For t <= n, x(t - d) is the fill at every lag d past n, so those lags
    and a tail past them are lumped at lag n + 1, before they become int64
    indices, which a lag of 2^63 or more would not fit.
    """
    keep = bisect.bisect_right(lags, n)
    c = np.zeros((lags[-1] if keep == len(lags) else n + 1) + 1)
    c[np.array(lags[:keep], dtype=np.int64)] = weights[:keep]
    if keep == len(lags):
        return c, hazard
    c[n + 1] = weights[keep:].sum() + (weights[-1] / hazard * (1.0 - hazard) if hazard else 0.0)
    return c, 0.0


def _root(lags, weights, hazard=0.0):
    """log2 z0 for the root z0 >= 1 of sum_d c_d z0^-d = 1, with sum_d c_d <= 2.

    The nonzero c_d are given as increasing ``lags`` d with their
    ``weights``, and with ``hazard`` mu > 0 a tail c_(H+e) = c_H (1-mu)^e
    past the last lag H.  A single lag gives z0^d = c_d exactly.  Otherwise,
    on w = ln z, phi(w) = sum_d (c_d / 2) exp(-d w) - 1/2 is convex and
    strictly decreasing.  Newton steps start from Jensen's lower bound
    ln(sum_d c_d) / (sum_d d c_d / sum_d c_d), where phi >= 0, and so rise
    monotonically to the root without passing it; the iterate is clamped
    to ln 2 against rounding.  They stop once a step is at most ROOT_STEP
    of w, that step having squared the error.

    A term with d w <= 1 enters as (c_d / 2) expm1(-d w), its c_d / 2 summed
    exactly with the -1/2, so a root far below 1 / d_max keeps its digits
    instead of drowning in the rounding of terms near c_d / 2.  The tail
    enters in closed form, (c_H / 2) e^(-Hw) (1-mu) e^-w / a with
    a = -expm1(-w) + mu e^-w, whose slope is that times H + 1 + (1-mu) e^-w / a.

    phi = N + F splits into any set of terms F and the rest N, and
    ln(F / -N) is convex and decreasing with the same root while N < 0.
    Each step is Newton's on it for F the far terms with the tail, or for
    F all terms (N = -1/2; never shorter than the step on phi), whichever
    goes further; a far lag D carrying the root then takes a few steps,
    not ln D.
    """
    if len(lags) == 1 and not hazard:
        return float(math.log2(weights[0]) / lags[0])
    try:
        d, p = np.array(lags, dtype=float), weights / 2.0
    except OverflowError:
        raise PmfError("a duration of this pmf is past the float range") from None
    dp = d * p
    h, last, q = float(d[-1]), float(p[-1]), 1.0 - hazard
    mass, first = float(p.sum()), float(dp.sum())
    if hazard:  # the tail's mass and first moment: s q and s q (H + 1/mu), s = c_H / (2 mu)
        sq = last / hazard * q
        mass, first = mass + sq, first + sq * h + sq / hazard
    w = mass * math.log(2.0 * mass) / first
    k = near = None  # lags with d w <= 1, and their halves of c_d less 1/2
    for step in range(1, ROOT_MAX_ITER + 1):
        x = d * -w
        decay = np.exp(x)
        j = bisect.bisect_right(lags, 1.0 / w) if w else len(lags)
        if j != k:
            k, near = j, math.fsum(p[:j].tolist() + [-0.5])
        inner = near + float((p[:k] * np.expm1(x[:k])).sum())
        slope = float((dp * decay).sum())
        far = far_slope = 0.0
        if k < len(lags):
            far, far_slope = float((p[k:] * decay[k:]).sum()), float((dp[k:] * decay[k:]).sum())
        if hazard:
            e = math.exp(-w)
            qa = q * e / (hazard * e - math.expm1(-w))
            tail = last * float(decay[-1]) * qa
            tail_slope = tail * (h + 1.0 + qa)
            slope, far, far_slope = slope + tail_slope, far + tail, far_slope + tail_slope
        phi = inner + far
        rise = math.log1p(2.0 * phi) * (phi + 0.5) / slope
        if far > 0.0 and inner < 0.0:
            rise = max(rise, math.log(far / -inner) / (far_slope / far + (slope - far_slope) / -inner))
        w = min(w + rise, _LN2)
        if abs(rise) <= ROOT_STEP * w:
            if _log.isEnabledFor(logging.DEBUG):
                _log.debug("rate root: %d Newton steps, final residual %.3g before a step of %.3g", step, phi, rise)
            return w / _LN2
    raise ConvergenceFailure(
        f"root of sum c_d z^-d = 1 not located to {ROOT_STEP} of ln z in {ROOT_MAX_ITER} Newton steps"
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
    return LeakageResult(_log2_recurrence(*_coefficients(n, *_smp_terms(s1, beta)), 0.0, n), n)


def rad_leakage_bits(n, dump_pmf: FinitePmf) -> LeakageResult:
    """Finite-horizon leakage of a random accumulate-and-dump policy.

    Evaluates log2 m(n) where m(n) counts, in expectation over the dump
    timer, the weighted achievable outputs:

        m(n) = 2 * sum_{d>=1} g(d) m(n-d),   m(0) = 1,   m(t < 0) = 1/2,

    whose terms with d > n add up to the timer's P(D > n).
    """
    n = _as_int(n, "horizon", InvalidConfig)
    return LeakageResult(_log2_recurrence(*_coefficients(n, *_rad_terms(dump_pmf)), 0.5, n), n)


def rad_rate(dump_pmf: FinitePmf) -> float:
    """Asymptotic leakage rate log2(z0) of a dump schedule, E[z0^-D] = 1/2."""
    return _root(*_rad_terms(dump_pmf))


def leakage_time(rate) -> float:
    """Average slots per leaked bit: the reciprocal rate."""
    rate = _as_finite(rate, "leakage rate", ZeroRate, low=0.0)
    if rate == 0.0:
        raise ZeroRate("leakage rate 0.0 is not positive")
    return 1.0 / rate

