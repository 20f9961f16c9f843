import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ageleak import (
    DitherPolicy,
    ddad_policy,
    deterministic_pmf,
    fcfs_age,
    geometric_pmf,
    greedy_smp_pmf,
    is_smp,
    lcfs_age,
    make_pmf,
    optimal_alpha_for_fcfs,
    pmf_moments,
    rad_rate,
)
from ageleak.checks import _two_point_is_optimal
from ageleak.errors import InvalidBeta, InvalidRate, NoFeasibleAlpha
from ageleak.optimize import _alpha_searches


def test_greedy_pmf_values():
    assert greedy_smp_pmf(1.0).entries == ((1, 1.0),)
    assert greedy_smp_pmf(0.4).durations == (1, 2, 3)
    assert greedy_smp_pmf(0.4).prob(3) == pytest.approx(0.2, abs=1e-12)
    assert greedy_smp_pmf(0.5).entries == ((1, 0.5), (2, 0.5))


def test_greedy_pmf_drops_zero_tail():
    # 1/beta integral: no dust entry at k+1
    assert greedy_smp_pmf(0.25).durations == (1, 2, 3, 4)
    assert greedy_smp_pmf(1.0 / 3.0).durations == (1, 2, 3)


def test_greedy_pmf_keeps_a_remainder_below_the_mass_tolerance():
    # a remainder of 1e-8 dropped would unbalance the mass past its 1e-9
    # tolerance; one of 5e-10 would vanish silently
    for beta, remainder in ((0.25 - 2.5e-9, 1e-8), (0.25 - 1.25e-10, 5e-10)):
        pmf = greedy_smp_pmf(beta)
        assert pmf.durations == (1, 2, 3, 4, 5)
        assert pmf.prob(5) == pytest.approx(remainder, rel=1e-6)


def test_greedy_pmf_invalid():
    with pytest.raises(InvalidBeta):
        greedy_smp_pmf(0.0)
    with pytest.raises(InvalidBeta):
        greedy_smp_pmf(1.0001)


def test_greedy_pmf_is_smp_with_top_mass_beta():
    rng = np.random.default_rng(19)
    for beta in rng.uniform(0.001, 1.0, size=1000):
        pmf = greedy_smp_pmf(float(beta))
        assert is_smp(pmf) and pmf.s_min == 1
        assert pmf.prob(1) == pytest.approx(float(beta), abs=1e-12)


def test_ddad_policy_integer_rate_collapses_to_dad():
    policy = ddad_policy(0.5)
    assert (policy.i, policy.p_i, policy.p_j) == (2, 1.0, 0.0)
    assert policy.to_pmf() == deterministic_pmf(2)
    unit = ddad_policy(1.0)
    assert (unit.i, unit.p_i) == (1, 1.0)


def test_ddad_policy_dither_at_rate_point_four():
    policy = ddad_policy(0.4)
    assert (policy.i, policy.j) == (2, 3)
    assert policy.p_i == pytest.approx(0.4653980386192361, abs=1e-12)
    residual = abs(policy.p_i * policy.z0 ** -2 + policy.p_j * policy.z0 ** -3 - 0.5)
    assert residual <= 1e-15


def test_dither_policy_derives_z0_from_its_rate():
    policy = ddad_policy(0.4)
    assert policy.z0 == 2.0 ** 0.4
    with pytest.raises(TypeError):  # z0 is no field, so it cannot disagree with the rate
        DitherPolicy(i=2, j=3, p_i=policy.p_i, p_j=policy.p_j, z0=3.0, target_rate=0.4)


def test_ddad_policy_invalid_rate():
    with pytest.raises(InvalidRate):
        ddad_policy(0.0)
    with pytest.raises(InvalidRate):
        ddad_policy(1.2)


def test_ddad_achieves_target_rate():
    rng = np.random.default_rng(23)
    rates = np.concatenate((rng.uniform(0.02, 1.0, size=40), [0.4, 0.5, 1.0, 1.0 / 3.0]))
    for rate in rates:
        achieved = rad_rate(ddad_policy(float(rate)).to_pmf())
        assert abs(achieved - float(rate)) <= 1e-9


def reference_dither_weights(rate, i):
    """p_i and p_j solving p_i 2^(-i rate) + p_j 2^(-(i + 1) rate) = 1/2, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(rate)
        x_i, x_j = Decimal(2) ** (-r * i), Decimal(2) ** (-r * (i + 1))
        p_i = (Decimal("0.5") - x_j) / (x_i - x_j)
        return p_i, 1 - p_i


def test_dither_weights_match_a_decimal_reference():
    # rates spread over twelve decades, and rates whose 1/rate lies within
    # 1e-8 of an integer, where differences of powers of 2^rate cancel most
    rng = np.random.default_rng(43)
    rates = [float(r) for r in 10.0 ** rng.uniform(-12.0, 0.0, size=600)]
    rates += [1.0 / (n + off) for n in (2, 7, 100, 12_345, 10**6, 10**9) for off in (-1e-8, 1e-8, 3e-7, 0.5)]
    for rate in rates:
        policy = ddad_policy(rate)
        assert policy.p_j > 0.0, rate  # none collapses to a pure DAD
        ref_i, ref_j = reference_dither_weights(rate, policy.i)
        assert abs(Decimal(policy.p_i) - ref_i) <= Decimal("1e-15") * ref_i, rate
        assert abs(Decimal(policy.p_j) - ref_j) <= Decimal("1e-15") * ref_j, rate


def test_verify_two_point_optimality():
    assert _two_point_is_optimal(0.4, 8)
    assert _two_point_is_optimal(0.5, 8)
    assert _two_point_is_optimal(1.0, 4)
    # every dither support up to (11, 12) lies inside {1..12}
    rng = np.random.default_rng(31)
    for rate in rng.uniform(1.0 / 11.0, 1.0, size=1000):
        assert _two_point_is_optimal(float(rate), 12), rate


def test_exchange_optimality_sample():
    rng = np.random.default_rng(37)
    beta = 0.4
    greedy_delta = lcfs_age(0.5, greedy_smp_pmf(beta)).delta
    for _ in range(50):
        entries = [(1, beta)]
        remaining = 1.0 - beta
        s = 2
        while remaining > 1e-12:
            cap = min(beta, remaining)
            p = cap if cap < 0.02 else float(rng.uniform(0.25 * cap, cap))
            entries.append((s, p))
            remaining -= p
            s += 1
        assert greedy_delta <= lcfs_age(0.5, make_pmf(entries)).delta + 1e-12


def test_shift_to_one_strictly_improves():
    rng = np.random.default_rng(41)
    for _ in range(50):
        offset = int(rng.integers(2, 7))
        width = int(rng.integers(1, 6))
        raw = np.sort(rng.random(width))[::-1]
        probs = raw / raw.sum()
        high = make_pmf([(offset + i, float(p)) for i, p in enumerate(probs)])
        low = make_pmf([(1 + i, float(p)) for i, p in enumerate(probs)])
        assert lcfs_age(0.5, low).delta < lcfs_age(0.5, high).delta


def test_optimal_alpha_zero_delay_prefers_no_thinning():
    alpha, age = optimal_alpha_for_fcfs(0.5, deterministic_pmf(1))
    assert alpha == 1.0
    assert age.delta == pytest.approx(3.0, abs=1e-9)


def test_optimal_alpha_thins_heavy_service():
    pmf = geometric_pmf(0.2)
    alpha, age = optimal_alpha_for_fcfs(0.5, pmf)
    assert alpha < 0.4  # stability forces thinning below 1/(lam E[S])
    assert math.isfinite(age.delta)
    assert age.delta == pytest.approx(fcfs_age(0.5, pmf, alpha).delta, abs=1e-9)


def test_optimal_alpha_respects_stability_bound():
    alpha, _ = optimal_alpha_for_fcfs(0.5, deterministic_pmf(3))
    assert alpha < 2.0 / 3.0


def test_optimal_alpha_is_a_minimizer():
    pmf = geometric_pmf(0.25)
    alpha, age = optimal_alpha_for_fcfs(0.5, pmf)
    for trial in (alpha - 1e-3, alpha + 1e-3):
        if 0.0 < trial <= 1.0 and 0.5 * trial * pmf_moments(pmf).mean < 1.0:
            assert fcfs_age(0.5, pmf, trial).delta >= age.delta - 1e-6


@pytest.mark.parametrize("pmf", [greedy_smp_pmf(0.05), greedy_smp_pmf(0.12), greedy_smp_pmf(0.3),
                                 geometric_pmf(0.2), geometric_pmf(0.25)])
def test_optimal_alpha_is_within_its_tolerance_of_a_fine_scan(pmf):
    # the least age over the stability bracket, scanned on 1001 points and
    # then on 2001 points around the best of them, 2e-6 apart: an alpha off
    # by its last bracket width, 1e-6, costs far less than 1e-10 of the age
    lam = 0.5
    alpha, age = optimal_alpha_for_fcfs(lam, pmf)
    assert age.delta == fcfs_age(lam, pmf, alpha).delta
    hi = min(1.0, (1.0 - 1e-9) / (lam * pmf_moments(pmf).mean))

    def least(grid):
        ages = [fcfs_age(lam, pmf, float(a)).delta for a in grid]
        return grid[int(np.argmin(ages))], min(ages)

    coarse, _ = least(np.linspace(1e-9, hi, 1001))
    step = (hi - 1e-9) / 1000
    _, best = least(np.linspace(max(coarse - 2 * step, 1e-9), min(coarse + 2 * step, hi), 2001))
    assert age.delta <= best * (1.0 + 1e-10)


def test_batched_alpha_searches_equal_one_row_searches():
    # criterion 10's 300 greedy budgets and some geometric services: the
    # brackets close in lockstep, each at its own step
    pmfs = [greedy_smp_pmf(b) for b in np.geomspace(0.028, 1.0, 300)]
    pmfs += [geometric_pmf(mu) for mu in np.linspace(0.05, 1.0, 20)]
    assert _alpha_searches(0.5, pmfs) == [optimal_alpha_for_fcfs(0.5, pmf) for pmf in pmfs]


def test_no_feasible_alpha():
    with pytest.raises(NoFeasibleAlpha):
        optimal_alpha_for_fcfs(1.0, deterministic_pmf(2_000_000_000))
