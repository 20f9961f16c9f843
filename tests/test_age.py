import math
import warnings

import numpy as np
import pytest

from ageleak import (
    Policy,
    ddad_policy,
    deterministic_pmf,
    fcfs_age,
    geometric_pmf,
    lcfs_age,
    make_pmf,
    pmf_moments,
    policy_from_config,
    rad_age,
    uniform_pmf,
)
from ageleak.errors import InvalidLambda, InvalidRate, Unstable
from ageleak.sources import MarkovSource


# Closed forms of special cases, kept here as independent references for
# the general age formulas.

def mbt_age(alpha, mu, lam):
    """Geometric(mu) FCFS service with Bernoulli(alpha) thinning."""
    rate = alpha * lam
    return 1.0 / rate + 1.0 / mu + rate * rate * (1.0 - mu) / (mu * mu * (mu - rate))


def ddad_age(lam, tau):
    """Dithering DAD with mean period tau: 1/lam + tau/2 + p_i p_j / (2 tau) + 1/2."""
    p_j = tau - math.floor(tau)
    return 1.0 / lam + tau / 2.0 + (1.0 - p_j) * p_j / (2.0 * tau) + 0.5


def renewal_sampling_age(b_mean, b_second, d_mean, d_second):
    """Two independent renewals: E[B^2]/(2 E[B]) + E[D^2]/(2 E[D]) + 1."""
    return b_second / (2.0 * b_mean) + d_second / (2.0 * d_mean) + 1.0


def bernoulli_interarrival_moments(lam):
    """Mean 1/lam and second moment (2 - lam)/lam^2 of geometric interarrivals."""
    return 1.0 / lam, (2.0 - lam) / (lam * lam)


def markov_source_age(src):
    """Age of the freshest update at the server input: 1 + p10 / (p01 (p01 + p10)).

    Reduces to 1/lambda when the source is Bernoulli-equivalent
    (p01 = lambda, p10 = 1 - lambda).
    """
    return 1.0 + src.p10 / (src.p01 * (src.p01 + src.p10))


def markov_monitor_age(src, sampling_pmf):
    """Markov source age plus the sampling age E[D^2]/(2 E[D]) + 1/2."""
    m = pmf_moments(sampling_pmf)
    return markov_source_age(src) + m.second_moment / (2.0 * m.mean) + 0.5


def dither_age(lam, rate):
    return Policy.rad(ddad_policy(rate).to_pmf()).mean_age(lam).delta


def test_lcfs_age_geometric():
    assert lcfs_age(0.5, geometric_pmf(0.25)).delta == pytest.approx(6.0, abs=1e-9)


def test_lcfs_age_zero_delay():
    assert lcfs_age(0.5, deterministic_pmf(1)).delta == pytest.approx(3.0, abs=1e-12)


def test_lcfs_age_greedy_two_term():
    pmf = make_pmf([(1, 0.4), (2, 0.4), (3, 0.2)])
    # E[(1/2)^(S-1)] = 0.4 + 0.2 + 0.05 = 0.65
    assert lcfs_age(0.5, pmf).delta == pytest.approx(1.0 + 1.0 / (0.5 * 0.65), abs=1e-12)
    assert lcfs_age(0.5, pmf).delta == pytest.approx(4.076923076923077, abs=1e-9)


def test_lcfs_age_diverges_when_nothing_completes():
    # every-slot arrivals preempt any service longer than one slot
    assert lcfs_age(1.0, deterministic_pmf(2)).delta == math.inf


def test_lcfs_age_invalid_lambda():
    with pytest.raises(InvalidLambda):
        lcfs_age(0.0, deterministic_pmf(1))


def test_fcfs_age_zero_delay():
    assert fcfs_age(0.5, deterministic_pmf(1)).delta == pytest.approx(3.0, abs=1e-12)


def test_fcfs_age_geometric():
    assert fcfs_age(0.5, geometric_pmf(0.75)).delta == pytest.approx(34.0 / 9.0, abs=1e-9)


def test_fcfs_age_unstable():
    with pytest.raises(Unstable):
        fcfs_age(0.5, deterministic_pmf(2))


def test_fcfs_age_at_rate_one_takes_the_limit():
    """At rate 1 only a pmf one slot long within rounding is stable; lbar / M_g(lbar) takes its limit 1 / g(1)."""
    pmf = make_pmf([(1, 0.999999999999999)])
    assert fcfs_age(1.0, pmf).delta == 2.0  # an update every slot, each served in one slot
    assert fcfs_age(1.0 - 1e-9, pmf).delta == pytest.approx(2.0, abs=1e-8)


def test_fcfs_age_refuses_rates_whose_age_overflows():
    """An effective rate that underflows to 0 or is subnormal is refused; the smallest normal one answers."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam, alpha in ((1e-300, 1e-300), (1e-300, 1e-12), (5e-324, 1.0)):
            with pytest.raises(InvalidLambda, match="effective arrival rate"):
                fcfs_age(lam, deterministic_pmf(1), alpha)
        assert math.isfinite(fcfs_age(2.2250738585072014e-308, geometric_pmf(0.5)).delta)


def test_mbt_age():
    def thinned(alpha, mu, lam):
        return Policy.fcfs(geometric_pmf(mu), alpha).mean_age(lam).delta

    assert mbt_age(1.0, 1.0, 0.5) == pytest.approx(3.0, abs=1e-12)
    assert mbt_age(0.5, 0.5, 0.5) == pytest.approx(6.5, abs=1e-12)
    assert thinned(1.0, 1.0, 0.5) == pytest.approx(3.0, abs=1e-12)
    assert thinned(0.5, 0.5, 0.5) == pytest.approx(6.5, rel=1e-9)  # truncated geometric tail
    with pytest.raises(Unstable):
        thinned(1.0, 0.4, 0.5)


def test_mbt_matches_thinned_fcfs_with_geometric_service():
    for alpha, mu, lam in [(0.5, 0.5, 0.5), (0.8, 0.6, 0.4), (1.0, 0.9, 0.3)]:
        direct = mbt_age(alpha, mu, lam)
        general = policy_from_config({"kind": "mbt", "mu": mu, "alpha": alpha}).mean_age(lam).delta
        assert direct == pytest.approx(general, rel=1e-9)
        assert general == fcfs_age(lam, geometric_pmf(mu), alpha).delta


def test_rad_age():
    assert rad_age(0.5, deterministic_pmf(5)).delta == pytest.approx(5.0, abs=1e-12)
    assert rad_age(0.5, geometric_pmf(0.25)).delta == pytest.approx(6.0, abs=1e-9)
    assert rad_age(0.5, deterministic_pmf(1)).delta == pytest.approx(3.0, abs=1e-12)


def test_ddad_age_integer_reduces_to_dad():
    assert ddad_age(0.5, 5.0) == pytest.approx(rad_age(0.5, deterministic_pmf(5)).delta, abs=1e-12)
    assert dither_age(0.5, 0.2) == rad_age(0.5, deterministic_pmf(5)).delta
    assert dither_age(1.0, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_ddad_age_matches_two_point_rad_age():
    for rate in (0.4, 0.31, 0.77, 0.09):
        dither = ddad_policy(rate)
        assert ddad_age(0.5, dither.mean) == pytest.approx(dither_age(0.5, rate), abs=1e-12)


def test_ddad_age_fractional_value():
    tau = 2.5346
    p_j = tau - 2.0
    expected = 2.0 + tau / 2.0 + (1.0 - p_j) * p_j / (2.0 * tau) + 0.5
    assert ddad_age(0.5, tau) == pytest.approx(expected, abs=1e-12)
    dither = Policy.rad(make_pmf([(2, 1.0 - p_j), (3, p_j)]))
    assert dither.mean_age(0.5).delta == pytest.approx(3.81638, abs=1e-5)


def test_ddad_age_invalid_tau():
    # a mean dump period below one slot is a rate above one bit per slot
    with pytest.raises(InvalidRate):
        policy_from_config({"kind": "ddad", "rate": 1.0 / 0.7})


def test_markov_source_age():
    assert markov_source_age(MarkovSource(0.05, 0.2)) == pytest.approx(17.0, abs=1e-12)
    assert MarkovSource(0.05, 0.2).effective_rate == 0.2
    assert markov_source_age(MarkovSource(0.2, 0.05)) == pytest.approx(2.0, abs=1e-12)
    assert MarkovSource(0.2, 0.05).effective_rate == 0.8


def test_markov_source_age_bernoulli_reduction():
    for lam in (0.2, 0.5, 0.9):
        src = MarkovSource(lam, 1.0 - lam)
        assert markov_source_age(src) == pytest.approx(1.0 / lam, rel=1e-12)


def test_markov_monitor_age():
    low = MarkovSource(0.05, 0.2)
    assert markov_monitor_age(low, deterministic_pmf(5)) == pytest.approx(20.0, abs=1e-12)
    assert markov_monitor_age(low, geometric_pmf(0.2)) == pytest.approx(22.0, abs=1e-9)


def test_markov_monitor_age_consistent_with_rad_age():
    src = MarkovSource(0.5, 0.5)  # Bernoulli(0.5) equivalent
    for pmf in (deterministic_pmf(4), uniform_pmf(5)):
        assert markov_monitor_age(src, pmf) == pytest.approx(rad_age(0.5, pmf).delta, abs=1e-12)


def test_renewal_sampling_age():
    bern = bernoulli_interarrival_moments(0.5)
    assert renewal_sampling_age(*bern, 1.0, 1.0) == pytest.approx(3.0, abs=1e-12)
    assert renewal_sampling_age(*bern, 5.0, 25.0) == pytest.approx(5.0, abs=1e-12)
    assert renewal_sampling_age(1.0, 1.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_rad_age_is_renewal_sampling_age():
    bern = bernoulli_interarrival_moments(0.5)
    for pmf in (deterministic_pmf(7), uniform_pmf(4), geometric_pmf(0.3)):
        m = pmf_moments(pmf)
        assert Policy.rad(pmf).mean_age(0.5).delta == pytest.approx(
            renewal_sampling_age(*bern, m.mean, m.second_moment), abs=1e-12
        )


def test_age_floor_across_policies():
    rng = np.random.default_rng(5)
    for _ in range(100):
        lam = float(rng.uniform(0.05, 1.0))
        floor = 1.0 + 1.0 / lam
        tau = int(rng.integers(1, 30))
        assert rad_age(lam, deterministic_pmf(tau)).delta >= floor - 1e-12
        mu = float(rng.uniform(0.05, 1.0))
        assert lcfs_age(lam, geometric_pmf(mu)).delta >= floor - 1e-12
        assert dither_age(lam, 1.0 / float(rng.uniform(1.0, 40.0))) >= floor - 1e-12
    # equality only at the zero-delay configuration
    assert rad_age(0.5, deterministic_pmf(1)).delta == pytest.approx(3.0, abs=1e-12)


def test_lcfs_geometric_equals_rad_geometric():
    # coupled geometric service and decoupled geometric dumps are
    # functionally equivalent
    for mu in (0.2, 0.5, 0.8):
        pmf = geometric_pmf(mu)
        assert lcfs_age(0.5, pmf).delta == pytest.approx(rad_age(0.5, pmf).delta, rel=1e-9)


def test_decoupled_age_ordering_at_fixed_mean():
    for tau in (2, 3, 5):
        dad = rad_age(0.5, deterministic_pmf(tau)).delta
        unif = rad_age(0.5, uniform_pmf(2 * tau - 1)).delta
        geo = rad_age(0.5, geometric_pmf(1.0 / tau)).delta
        assert dad < unif < geo
        assert unif == pytest.approx(2.0 + (2.0 * tau + 1.0) / 3.0, abs=1e-9)
        assert geo == pytest.approx(2.0 + tau, abs=1e-9)
