import math

import numpy as np
import pytest

from ageleak import (
    dinkelbach_certify,
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
    verify_two_point_optimality,
)
from ageleak.errors import InvalidBeta, InvalidRate, NoFeasibleAlpha
from ageleak.optimize import DitherPolicy, _alpha_searches


def test_greedy_pmf_values():
    assert greedy_smp_pmf(1.0).entries == ((1, 1.0),)
    assert greedy_smp_pmf(0.4).durations == (1, 2, 3)
    assert greedy_smp_pmf(0.4).prob(3) == pytest.approx(0.2, abs=1e-12)
    assert greedy_smp_pmf(0.5).entries == ((1, 0.5), (2, 0.5))


def test_greedy_pmf_drops_zero_tail():
    # 1/beta integral: no dust entry at k+1
    assert greedy_smp_pmf(0.25).durations == (1, 2, 3, 4)
    assert greedy_smp_pmf(1.0 / 3.0).durations == (1, 2, 3)


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


def test_dinkelbach_certificate_degenerate():
    policy = DitherPolicy(i=5, j=6, p_i=1.0, p_j=0.0, z0=2.0 ** 0.2, target_rate=0.2)
    cert = dinkelbach_certify(policy)
    assert cert.gamma_star == pytest.approx(5.0, abs=1e-12)
    assert cert.residual == 0.0
    assert cert.sandwich_ok and cert.convexity_ok


def test_dinkelbach_certificate_dither():
    cert = dinkelbach_certify(ddad_policy(0.4))
    assert cert.gamma_star == pytest.approx(2.632764397952487, abs=1e-12)
    assert 2.0 < cert.gamma_star < 3.0
    assert cert.residual <= 1e-9
    assert cert.sandwich_ok and cert.convexity_ok


def test_dinkelbach_certificate_grid():
    for rate in np.arange(0.01, 1.0 + 1e-12, 0.01):
        cert = dinkelbach_certify(ddad_policy(float(rate)))
        assert cert.sandwich_ok, f"sandwich broken at rate {rate}"
        assert cert.residual <= 1e-9
        assert cert.convexity_ok


def test_verify_two_point_optimality():
    assert verify_two_point_optimality(0.4, 8)
    assert verify_two_point_optimality(0.5, 8)
    assert verify_two_point_optimality(1.0, 4)
    rng = np.random.default_rng(31)
    for rate in rng.uniform(0.15, 1.0, size=10):
        assert verify_two_point_optimality(float(rate), 10)


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
