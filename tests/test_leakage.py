import logging
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ageleak import (
    Policy,
    deterministic_pmf,
    geometric_pmf,
    greedy_smp_pmf,
    leakage_time,
    make_pmf,
    policy_from_config,
    rad_leakage_bits,
    rad_rate,
    smp_leakage_bits,
    uniform_pmf,
)
from ageleak import leakage
from ageleak.errors import ConvergenceFailure, InvalidBeta, InvalidConfig, NonHalfIntegerTau, ZeroRate
from ageleak.pmf import _pmf

#: Horizons on either side of the recurrence kernel's block edges.
BLOCK_EDGES = (leakage._BLOCK - 1, leakage._BLOCK, leakage._BLOCK + 1, 2 * leakage._BLOCK + 1)


def exact_smp_bits(n, s1, beta):
    """Independent oracle: the weighted sequence count via exact binomials."""
    total = math.fsum(
        math.comb(n - k * (s1 - 1), k) * beta ** k for k in range(n // s1 + 1)
    )
    return math.log2(total)


def exact_rad_bits(entries, n):
    """Independent oracle: the renewal recursion in exact rational arithmetic."""
    probs = {d: Fraction(p).limit_denominator(10 ** 12) for d, p in entries}
    scale = sum(probs.values())
    probs = {d: p / scale for d, p in probs.items()}
    m = [Fraction(1)]
    for t in range(1, n + 1):
        tail = max(Fraction(0), 1 - sum(p for d, p in probs.items() if d <= t))
        m.append(2 * sum(p * m[t - d] for d, p in probs.items() if d <= t) + tail)
    return math.log2(m[n])


def smp_rate_bounds(s1, beta):
    """Independent bracket (1/s1) log2(1+beta) <= coupled rate <= log2(1+beta)."""
    upper = math.log2(1.0 + beta)
    return upper / s1, upper


def dad_bits(n, tau):
    """Deterministic dumps reveal one full bit per dump: floor(n / tau)."""
    return float(n // tau)


def shifted_greedy(s1, beta):
    """An SMP service pmf whose shortest, most probable duration is s1."""
    return make_pmf([(d + s1 - 1, p) for d, p in greedy_smp_pmf(beta).entries])


def family_rate(kind, **params):
    return policy_from_config({"kind": kind, **params}).rate()


def test_smp_leakage_fibonacci_value():
    assert smp_leakage_bits(5, 2, 1.0).bits == pytest.approx(3.0, abs=1e-12)


def test_smp_leakage_zero_horizon():
    assert smp_leakage_bits(0, 3, 0.7).bits == 0.0


def test_smp_leakage_s1_equal_one_closed_form():
    for n in (1, 7, 100, 10_000):
        for beta in (0.1, 0.5, 1.0):
            got = smp_leakage_bits(n, 1, beta).bits
            assert abs(got / n - math.log2(1.0 + beta)) <= 1e-9


def test_smp_leakage_matches_exact_binomial_sum():
    for n in (1, 5, 12, 30):
        for s1 in (1, 2, 3):
            for beta in (0.3, 0.5, 1.0):
                got = smp_leakage_bits(n, s1, beta).bits
                assert got == pytest.approx(exact_smp_bits(n, s1, beta), abs=1e-11)


def test_smp_leakage_invalid_beta():
    with pytest.raises(InvalidBeta):
        smp_leakage_bits(5, 1, 0.0)
    with pytest.raises(InvalidBeta):
        smp_leakage_bits(5, 1, 1.5)


def test_fibonacci_counts_and_rate():
    counts = [round(2.0 ** smp_leakage_bits(n, 2, 1.0).bits) for n in range(1, 31)]
    assert counts[0] == 1 and counts[1] == 2
    for n in range(2, 30):
        assert counts[n] == counts[n - 1] + counts[n - 2]
    rate = smp_leakage_bits(10_000, 2, 1.0).bits / 10_000
    assert rate == pytest.approx(math.log2((1 + math.sqrt(5)) / 2), abs=1e-3)


def test_smp_rate_bounds():
    lower, upper = smp_rate_bounds(1, 0.5)
    assert lower == upper == Policy.lcfs(greedy_smp_pmf(0.5)).rate() == math.log2(1.5)
    # the exact deterministic-two-slot rate log2(golden ratio) lies strictly inside
    lower, upper = smp_rate_bounds(2, 1.0)
    rate = Policy.lcfs(deterministic_pmf(2)).rate()
    assert lower < rate < upper
    assert rate == pytest.approx(math.log2((1.0 + math.sqrt(5.0)) / 2.0), abs=1e-12)
    ratio = smp_leakage_bits(10_000, 2, 1.0).bits / 10_000
    assert ratio == pytest.approx(rate, abs=1e-4)


def test_finite_horizon_ratio_within_bounds():
    n = 1000
    for s1 in (1, 2, 3, 5):
        for beta in (0.2, 0.5, 0.9, 1.0):
            lower, upper = smp_rate_bounds(s1, beta)
            ratio = smp_leakage_bits(n, s1, beta).bits / n
            # 1e-9 slack on the lower side: at s1 = 1 the ratio equals the
            # bound exactly and only rounding separates them
            assert lower - 1e-9 <= ratio <= upper + 1e-6
            rate = Policy.fcfs(shifted_greedy(s1, beta)).rate()
            assert lower - 1e-15 <= rate <= upper + 1e-15


def test_coupled_rate_is_the_root_of_the_smp_recurrence():
    for s1 in (2, 3, 5):
        for beta in (0.2, 0.5, 1.0):
            rate = Policy.lcfs(shifted_greedy(s1, beta)).rate()
            z0 = 2.0 ** rate  # z0^-1 + beta z0^-s1 = 1, half-scaled
            assert abs(0.5 * (z0 ** -1 + beta * z0 ** -s1) - 0.5) <= 1e-12
            # the finite-horizon leakage grows at that rate
            n = 20_000
            slope = smp_leakage_bits(n, s1, beta).bits - smp_leakage_bits(n // 2, s1, beta).bits
            assert slope / (n - n // 2) == pytest.approx(rate, abs=1e-9)


def test_rate_single_coefficient_is_exact():
    for tau in range(1, 60):
        assert Policy.dad(tau).rate() == 1.0 / tau
    for beta in (0.1, 0.37, 0.5, 1.0):
        assert Policy.lcfs(greedy_smp_pmf(beta)).rate() == math.log2(1.0 + beta)
    assert Policy.rad(deterministic_pmf(1)).rate() == 1.0
    assert Policy.lcfs(deterministic_pmf(1)).rate() == 1.0


def test_dad_leakage():
    for n, tau, bits in ((10, 3, 3.0), (7, 7, 1.0), (10, 1, 10.0), (0, 4, 0.0)):
        assert dad_bits(n, tau) == bits
        assert Policy.dad(tau).leakage_bits(n).bits == bits


def test_rad_leakage_geometric_closed_form():
    pmf = geometric_pmf(0.5)
    for n in (0, 1, 5, 10, 25):
        assert rad_leakage_bits(n, pmf).bits == pytest.approx(n * math.log2(1.5), abs=1e-9)


def test_rad_leakage_deterministic_matches_dad():
    for tau in (1, 2, 3, 7):
        pmf = deterministic_pmf(tau)
        for n in (0, 1, 5, 23, 100):
            assert rad_leakage_bits(n, pmf).bits == pytest.approx(dad_bits(n, tau), abs=1e-12)


def test_rad_leakage_matches_exact_rational_recursion():
    cases = [
        uniform_pmf(3).entries,
        ((1, 0.25), (3, 0.5), (4, 0.25)),
        tuple((d, 0.5 ** (d - 1) * 0.5) for d in range(1, 45)) + ((45, 0.5 ** 44),),
    ]
    for entries in cases:
        pmf = make_pmf(entries)
        for n in (1, 7, 30, 60):
            assert rad_leakage_bits(n, pmf).bits == pytest.approx(
                exact_rad_bits(entries, n), abs=1e-9
            )


def test_rad_leakage_survives_long_horizons():
    # growth ~ 2^(n/3); raw floats overflow near n = 3000 without rescaling
    pmf = deterministic_pmf(3)
    got = rad_leakage_bits(300_000, pmf)
    assert got.bits == pytest.approx(100_000.0, abs=1e-6)


def test_rad_rate_deterministic_and_geometric():
    assert rad_rate(deterministic_pmf(5)) == pytest.approx(0.2, abs=1e-12)
    assert rad_rate(geometric_pmf(0.5)) == pytest.approx(math.log2(1.5), abs=1e-11)
    assert rad_rate(deterministic_pmf(1)) == 1.0


def test_rad_rate_uniform_against_polynomial_root():
    # E[z^-D] = 1/2 for uniform {1,2,3}  <=>  3 z^3 - 2 z^2 - 2 z - 2 = 0
    roots = np.roots([3.0, -2.0, -2.0, -2.0])
    z0 = max(r.real for r in roots if abs(r.imag) < 1e-12)
    assert rad_rate(uniform_pmf(3)) == pytest.approx(math.log2(z0), abs=1e-9)


def _bisect_decreasing(f, lo, hi):
    """Root of a decreasing function on [lo, hi], halved to the last bit."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)


@pytest.mark.parametrize("lag", [3, 10**3, 10**6, 10**15, 10**20, 10**40, 10**60, 10**300])
def test_rate_with_a_far_lag_matches_bisection(lag, caplog):
    # dumps after 1 or D slots, each with mass 1/2: e^-w + e^-Dw = 1 on w = ln z,
    # i.e. e^-Dw + expm1(-w) = 0, whose root falls like ln(D) / D; stepping on
    # ln of the far term finds it in a few steps, not in ln D
    w = _bisect_decreasing(lambda w: math.exp(-lag * w) + math.expm1(-w), 0.0, math.log(2.0))
    want = w / math.log(2.0)
    with caplog.at_level(logging.DEBUG, logger="ageleak.leakage"):
        rate = rad_rate(make_pmf([(1, 0.5), (lag, 0.5)]))
    assert abs(rate - want) <= 1e-12 * want
    steps = int(re.search(r"(\d+) Newton steps", caplog.text).group(1))
    assert steps <= 12


def test_rad_rate_residual_tolerance():
    for pmf in (deterministic_pmf(17), uniform_pmf(9), geometric_pmf(0.3)):
        rate = rad_rate(pmf)
        z0 = 2.0 ** rate
        assert abs(math.fsum(p * z0 ** -d for d, p in pmf.entries) - 0.5) <= 1e-12


def test_rad_finite_ratio_converges_to_rate():
    z0 = 2.0 ** 0.4
    p_i = (0.5 - z0 ** -3) / (z0 ** -2 - z0 ** -3)
    pmfs = [
        geometric_pmf(0.25),
        uniform_pmf(5),
        deterministic_pmf(4),
        make_pmf([(2, p_i), (3, 1.0 - p_i)]),
    ]
    for pmf in pmfs:
        ratio = rad_leakage_bits(5000, pmf).bits / 5000
        assert abs(ratio - rad_rate(pmf)) <= 1e-3


def test_rate_ordering_at_fixed_mean():
    for tau in (2, 3, 5):
        geo = family_rate("rad-geo", tau=tau)
        unif = family_rate("rad-uniform", tau=tau)
        det = family_rate("dad", tau=tau)
        assert geo > unif > det


def test_closed_form_rates():
    for tau in (1, 2, 4, 10, 37):
        geometric = math.log2(1.0 + 1.0 / tau)
        assert family_rate("rad-geo", tau=tau) == pytest.approx(geometric, abs=1e-15)
        assert family_rate("lcfs-geo", tau=tau) == geometric
    assert family_rate("rad-uniform", tau=1) == 1.0
    assert family_rate("rad-uniform", tau=2.5) == pytest.approx(rad_rate(uniform_pmf(4)), abs=1e-12)
    with pytest.raises(NonHalfIntegerTau):
        family_rate("rad-uniform", tau=1.25)


def test_leakage_time():
    assert leakage_time(0.2) == 5.0
    for rate in (0.0, math.nan):
        with pytest.raises(ZeroRate):
            leakage_time(rate)


#: Lags of sparse supports: short ones, ones around the block length, and
#: far ones, which every horizon below sees only through the fill 1/2.
SPARSE_LAGS = st.one_of(
    st.integers(1, 6), st.integers(leakage._BLOCK - 3, 2 * leakage._BLOCK + 3), st.sampled_from((10**6, 10**20))
)


@settings(max_examples=60, deadline=None)
@given(
    weights=st.one_of(
        st.lists(st.integers(0, 20), min_size=1, max_size=6).filter(any).map(lambda w: dict(enumerate(w, start=1))),
        st.dictionaries(SPARSE_LAGS, st.integers(1, 20), min_size=1, max_size=5),
    ),
    n=st.one_of(st.integers(0, 60), st.integers(leakage._BLOCK - 2, 2 * leakage._BLOCK + 2)),
)
@example(weights={300: 1}, n=300)  # x(0) read from a history carried over a block edge
@example(weights={1: 1, 10**20: 1}, n=256)
@example(weights={256: 1, 10**6: 1}, n=257)
@example(weights={255: 2, 257: 1, 515: 3}, n=514)  # a lag at n + 1, where the far ones are lumped
def test_kernel_rad_matches_exact_rational_recursion(weights, n):
    total = sum(weights.values())
    entries = [(d, w / total) for d, w in sorted(weights.items()) if w]
    got = rad_leakage_bits(n, make_pmf(entries)).bits
    assert got == pytest.approx(exact_rad_bits(entries, n), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 600), s1=st.integers(1, 4), beta=st.floats(0.01, 1.0))
def test_kernel_smp_matches_exact_binomial_sum(n, s1, beta):
    got = smp_leakage_bits(n, s1, beta).bits
    assert got == pytest.approx(exact_smp_bits(n, s1, beta), abs=1e-11)


def exact_uniform_bits(k, n):
    """log2 m(n) for dumps uniform on {1..k}, in exact rationals:
    m(t) = (2/k) sum_{j=max(0,t-k)}^{t-1} m(j) + max(0, k - t)/k, the sum kept as a running window."""
    m, window = [Fraction(1)], Fraction(1)
    for t in range(1, n + 1):
        m.append(Fraction(2, k) * window + Fraction(max(0, k - t), k))
        window += m[t] - (m[t - k] if t >= k else 0)
    return math.log2(m[n])


def exact_tailed_bits(pmf, n):
    """log2 m(t) for t = 0..n of the dump recursion of a head-plus-tail pmf, in exact rationals.

    m(t) = sum_{d<=H} 2 g(d) m(t-d) + 2 g(H) V(t), m(t < 0) = 1/2, where
    V(t) = sum_{e>=1} q^e m(t-H-e), q = 1 - mu, steps as V(t+1) = q (V(t) + m(t-H)).
    """
    head = {d: Fraction(p) for d, p in zip(pmf.durations, pmf.probabilities)}
    h, mu = pmf.durations[-1], Fraction(pmf.hazard)
    m = {t: Fraction(1, 2) for t in range(-h, 0)}
    m[0], v = Fraction(1), (1 - mu) / (2 * mu)
    for t in range(1, n + 1):
        m[t] = 2 * sum(p * m[t - d] for d, p in head.items()) + 2 * head[h] * v
        v = (1 - mu) * (v + m[t - h])
    return [math.log2(m[t]) for t in range(n + 1)]


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_kernel_block_edges(n):
    geo = geometric_pmf(0.01)
    assert rad_leakage_bits(n, geo).bits == pytest.approx(n * math.log2(1.01), abs=1e-9)
    entries = uniform_pmf(3).entries
    assert rad_leakage_bits(n, uniform_pmf(3)).bits == pytest.approx(
        exact_rad_bits(entries, n), abs=1e-9
    )
    # a history of 600 slots spans blocks
    assert rad_leakage_bits(n, uniform_pmf(600)).bits == pytest.approx(exact_uniform_bits(600, n), abs=1e-9)


@pytest.mark.parametrize("pmf", [
    _pmf((1, 3, 4), (0.25, 0.125, 5 / 32), 0.25),  # a 3-entry head with a tail from H = 4, all dyadic
    _pmf((1, 2, 5), (0.3, 0.2, 0.1), 0.2),  # a hazard whose 1 - mu rounds
    geometric_pmf(0.01),
])
def test_kernel_tail_matches_exact_rational_recursion(pmf):
    """Every horizon to 300, across the block edges at 256, within 1e-12 relative."""
    exact = exact_tailed_bits(pmf, 300)
    for n in range(301):
        assert rad_leakage_bits(n, pmf).bits == pytest.approx(exact[n], rel=1e-12, abs=1e-15)


def test_exact_tailed_recursion_matches_the_direct_sum():
    """The reference's tail state against the infinite sum written out, on the dyadic pmf."""
    pmf = _pmf((1, 3, 4), (0.25, 0.125, 5 / 32), 0.25)
    g = [Fraction(pmf.prob(d)) for d in range(61)]
    m = [Fraction(1)]
    for t in range(1, 61):
        beyond = 1 - sum(g[1 : t + 1])  # the timer's P(D > t), each x(t - d < 0) being 1/2
        m.append(2 * sum(g[d] * m[t - d] for d in range(1, t + 1)) + beyond)
    assert exact_tailed_bits(pmf, 60) == [math.log2(x) for x in m]


def test_kernel_is_exact_on_powers_of_two():
    assert rad_leakage_bits(10**6, deterministic_pmf(5)).bits == 200000.0


def test_invalid_horizon_and_service_time_are_typed():
    with pytest.raises(InvalidConfig):
        smp_leakage_bits(-1, 1, 0.5)
    with pytest.raises(InvalidConfig):
        rad_leakage_bits(-1, uniform_pmf(2))
    with pytest.raises(InvalidConfig):
        Policy.dad(3).leakage_bits(-1)
    with pytest.raises(InvalidConfig):
        smp_leakage_bits(5, 0, 0.5)


def test_rad_rate_newton_iteration_cap(monkeypatch):
    monkeypatch.setattr(leakage, "ROOT_MAX_ITER", 2)
    with pytest.raises(ConvergenceFailure):
        rad_rate(geometric_pmf(0.003))


def test_kernel_and_root_report_counters_at_debug(caplog):
    with caplog.at_level(logging.DEBUG, logger="ageleak.leakage"):
        rad_rate(geometric_pmf(0.003))
        rad_leakage_bits(2 * leakage._BLOCK + 1, uniform_pmf(3))
    assert "Newton steps, final residual" in caplog.text
    assert "3 blocks, 3 rescales" in caplog.text


def test_durations_past_the_horizon_leak_as_at_n_plus_one():
    n = 10
    for far in (10 ** 20, 10 ** 300):
        assert rad_leakage_bits(n, deterministic_pmf(far)) == rad_leakage_bits(n, deterministic_pmf(n + 1))
        mixed = make_pmf([(2, 0.5), (far, 0.5)])
        assert rad_leakage_bits(n, mixed) == rad_leakage_bits(n, make_pmf([(2, 0.5), (n + 1, 0.5)]))
