import json
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ageleak import (
    BernoulliSource,
    MarkovSource,
    Policy,
    SimConfig,
    deterministic_pmf,
    empirical_source_age,
    geometric_pmf,
    lcfs_age,
    load_scenario,
    markov_source_age,
    optimal_alpha_for_fcfs,
    pmf_moments,
    rad_age,
    simulate,
    uniform_pmf,
)
from ageleak import sim
from ageleak.errors import InvalidConfig

BERN = BernoulliSource(0.5)


def markov_monitor_age(src, sampling_pmf):
    """Markov source age plus the sampling age E[D^2]/(2 E[D]) + 1/2."""
    m = pmf_moments(sampling_pmf)
    return markov_source_age(src).delta + m.second_moment / (2.0 * m.mean) + 0.5


def close_to(stats, expected):
    return abs(stats.mean_age - expected) <= max(3.0 * stats.ci_half_width, 0.02 * expected)


def test_reproducible_given_seed():
    cfg = SimConfig(Policy.dad(4), BERN, horizon=200_000, seed=99)
    assert simulate(cfg) == simulate(cfg)
    other = SimConfig(Policy.dad(4), BERN, horizon=200_000, seed=100)
    assert simulate(other) != simulate(cfg)


def test_zero_delay_every_slot_source_is_deterministic():
    cfg = SimConfig(Policy.lcfs(deterministic_pmf(1)), BernoulliSource(1.0), horizon=50_000, seed=1)
    stats = simulate(cfg)
    assert stats.mean_age == 2.0
    assert stats.ci_half_width == 0.0
    assert stats.output_rate == 1.0


def test_lcfs_geometric_agrees_with_closed_form():
    cfg = SimConfig(Policy.lcfs(geometric_pmf(0.25)), BERN, horizon=400_000, seed=2)
    assert close_to(simulate(cfg), 6.0)


def test_lcfs_greedy_agrees_with_closed_form():
    from ageleak import greedy_smp_pmf

    pmf = greedy_smp_pmf(0.4)
    cfg = SimConfig(Policy.lcfs(pmf), BERN, horizon=400_000, seed=17)
    assert close_to(simulate(cfg), lcfs_age(0.5, pmf).delta)  # 4.076923...


def test_dad_agrees_with_closed_form():
    cfg = SimConfig(Policy.dad(5), BERN, horizon=400_000, seed=3)
    assert close_to(simulate(cfg), 5.0)


def test_uniform_rad_agrees_with_closed_form():
    cfg = SimConfig(Policy.rad(uniform_pmf(3)), BERN, horizon=400_000, seed=4)
    assert close_to(simulate(cfg), rad_age(0.5, uniform_pmf(3)).delta)


def test_fcfs_thinned_agrees_with_closed_form():
    from ageleak import fcfs_age

    policy = Policy.fcfs(geometric_pmf(0.5), alpha=0.5)
    cfg = SimConfig(policy, BERN, horizon=400_000, seed=5)
    assert close_to(simulate(cfg), fcfs_age(0.5, geometric_pmf(0.5), 0.5).delta)


def test_fake_dump_updates_leave_age_unchanged():
    cfg = SimConfig(Policy.dad(6), BERN, horizon=300_000, seed=6)
    plain = simulate(cfg)
    fake = simulate(cfg, fake_dump_updates=True)
    assert fake.mean_age == plain.mean_age
    assert fake.ci_half_width == plain.ci_half_width
    assert fake.delivered >= plain.delivered


def test_lcfs_and_rad_geometric_statistically_indistinguishable():
    pmf = geometric_pmf(0.25)
    a = simulate(SimConfig(Policy.lcfs(pmf), BERN, horizon=600_000, seed=7))
    b = simulate(SimConfig(Policy.rad(pmf), BERN, horizon=600_000, seed=8))
    spread = 3.0 * (a.ci_half_width ** 2 + b.ci_half_width ** 2) ** 0.5
    assert abs(a.mean_age - b.mean_age) <= spread


def test_fcfs_queue_bounded_at_optimized_alpha():
    pmf = geometric_pmf(0.2)
    alpha, _ = optimal_alpha_for_fcfs(0.5, pmf)
    # independent slot-loop reference tracking the queue backlog
    rng = np.random.default_rng(9)
    horizon = 200_000
    durations = np.array(pmf.durations)
    cdf = np.cumsum(pmf.probabilities)
    queue = 0
    busy_until = 0
    backlog = np.empty(horizon, dtype=np.int64)
    for t in range(1, horizon + 1):
        if rng.random() < 0.5 and rng.random() < alpha:
            queue += 1
        if busy_until < t and queue > 0:
            queue -= 1
            s = durations[np.searchsorted(cdf, rng.random(), side="right")]
            busy_until = t + s - 1
        backlog[t - 1] = queue
    window = backlog[-horizon // 10 :]
    assert np.any(np.diff(window) < 0)  # empties repeatedly: no monotone growth
    assert window.max() <= backlog.max()


def test_markov_dad_agrees_with_closed_form():
    src = MarkovSource(0.05, 0.2)
    cfg = SimConfig(Policy.dad(5), src, horizon=600_000, seed=10)
    stats = simulate(cfg)
    assert close_to(stats, 20.0)


def test_markov_lcfs_geometric_agrees_with_closed_form():
    src = MarkovSource(0.2, 0.05)
    expected = markov_monitor_age(src, geometric_pmf(0.5))  # 2 + 2
    cfg = SimConfig(Policy.lcfs(geometric_pmf(0.5)), src, horizon=400_000, seed=11)
    assert expected == pytest.approx(4.0, abs=1e-9)
    assert close_to(simulate(cfg), expected)


def test_markov_degenerates_to_bernoulli():
    # p01 = lam, p10 = 1 - lam gives i.i.d.-equivalent statistics
    src = MarkovSource(0.5, 0.5)
    cfg = SimConfig(Policy.dad(3), src, horizon=400_000, seed=12)
    assert close_to(simulate(cfg), rad_age(0.5, deterministic_pmf(3)).delta)


def test_fcfs_under_markov_source_runs():
    # no closed form exists for this pair; the simulator is the only route
    src = MarkovSource(0.05, 0.2)
    cfg = SimConfig(Policy.fcfs(geometric_pmf(0.5), alpha=0.8), src, horizon=300_000, seed=21)
    stats = simulate(cfg)
    assert stats.mean_age >= 1.0 + 1.0 / src.effective_rate
    assert 0.0 < stats.output_rate <= src.effective_rate + 0.01


def test_empirical_source_age_bernoulli():
    cfg = SimConfig(None, BERN, horizon=400_000, seed=13)
    stats, pmf = empirical_source_age(cfg, return_pmf=True)
    assert close_to(stats, 2.0)
    assert stats.output_rate == pytest.approx(0.5, abs=0.01)
    # renewal age pmf: P(A = a) = P(B >= a)/E[B] = 0.5^a for Bernoulli(1/2)
    for a in (1, 2, 3, 4):
        assert pmf[a] == pytest.approx(0.5 ** a, abs=0.01)


def test_empirical_source_age_every_slot():
    cfg = SimConfig(None, BernoulliSource(1.0), horizon=50_000, seed=14)
    stats = empirical_source_age(cfg)
    assert stats.mean_age == 1.0


def test_empirical_source_age_markov():
    cfg = SimConfig(None, MarkovSource(0.05, 0.2), horizon=800_000, seed=15)
    stats = empirical_source_age(cfg)
    assert close_to(stats, 17.0)
    assert stats.output_rate == pytest.approx(0.2, abs=0.01)


def test_fewer_slots_than_batches_give_an_unknown_spread():
    for source in (BERN, MarkovSource(0.5, 0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            policy_run = simulate(SimConfig(Policy.dad(2), source, horizon=20, warmup=0, seed=3))
            source_run = empirical_source_age(SimConfig(None, source, horizon=20, warmup=0, seed=3))
        for stats in (policy_run, source_run):
            assert stats.ci_half_width == float("inf")
            assert stats.mean_age >= 1.0


def test_config_validation():
    with pytest.raises(InvalidConfig):
        SimConfig(Policy.dad(3), BERN, horizon=100, warmup=100)
    with pytest.raises(InvalidConfig):
        SimConfig(Policy.dad(3), BERN, horizon=100, warmup=-1)
    with pytest.raises(InvalidConfig):
        simulate(SimConfig(None, BERN, horizon=100, warmup=0))


def test_scenario_round_trip(tmp_path):
    scenario = {
        "policy": {"kind": "dad", "tau": 4},
        "source": {"kind": "bernoulli", "lambda": 0.5},
        "horizon": 60_000,
        "warmup": 2_000,
        "seed": 77,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    cfg = load_scenario(str(path))
    assert cfg.policy == Policy.dad(4)
    assert cfg.seed == 77
    stats = simulate(cfg)
    assert close_to(stats, rad_age(0.5, deterministic_pmf(4)).delta)


def test_scenario_markov_and_explicit_pmf(tmp_path):
    scenario = {
        "policy": {"kind": "rad", "pmf": {"entries": [[2, 0.5], [3, 0.5]]}},
        "source": {"kind": "markov", "p01": 0.2, "p10": 0.05},
        "horizon": 50_000,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    cfg = load_scenario(str(path))
    assert isinstance(cfg.source, MarkovSource)
    assert cfg.policy.pmf.durations == (2, 3)


def test_warmup_shields_initial_transient():
    # tiny warmup vs default: both converge to the closed form
    lcfs = Policy.lcfs(geometric_pmf(0.5))
    loose = simulate(SimConfig(lcfs, BERN, horizon=300_000, warmup=0, seed=16))
    tight = simulate(SimConfig(lcfs, BERN, horizon=300_000, warmup=10_000, seed=16))
    expected = lcfs_age(0.5, geometric_pmf(0.5)).delta
    assert close_to(tight, expected)
    assert abs(loose.mean_age - expected) <= 0.05


def test_integral_scenario_numbers_are_kept_and_negative_seeds_refused(tmp_path):
    scenario = {
        "policy": {"kind": "dad", "tau": 4},
        "source": {"kind": "bernoulli", "lambda": 1},
        "horizon": 6e4,
        "warmup": 2000.0,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    cfg = load_scenario(str(path))
    assert (cfg.horizon, cfg.warmup, cfg.seed, cfg.source.lam) == (60_000, 2_000, 0, 1.0)
    with pytest.raises(InvalidConfig):
        SimConfig(Policy.dad(3), BERN, horizon=100, warmup=0, seed=-1)


# --- the per-slot statistics the sawtooth areas replace -------------------

def per_slot_batch_means(ages):
    per_batch = len(ages) // 30
    if per_batch == 0:
        return float(ages.mean()), math.inf
    batch_means = ages[: per_batch * 30].reshape(30, per_batch).mean(axis=1)
    return float(ages.mean()), float(sim._T_29 * batch_means.std(ddof=1) / math.sqrt(30))


def per_slot_age_stats(delivery_slots, delivery_timestamps, horizon, warmup):
    slots = np.arange(warmup + 1, horizon + 1, dtype=np.int64)
    idx = np.searchsorted(delivery_slots, slots, side="left")
    timestamps = np.concatenate(([0], delivery_timestamps))
    return per_slot_batch_means((slots - timestamps[idx]).astype(np.float64))


def per_slot_source_ages(arrivals, horizon, warmup):
    slots = np.arange(warmup + 1, horizon + 1, dtype=np.int64)
    idx = np.searchsorted(arrivals, slots, side="right") - 1
    padded = np.concatenate(([0], arrivals))
    return (slots - padded[idx + 1] + 1).astype(np.float64)


@st.composite
def delivery_runs(draw):
    """(slots, timestamps, horizon, warmup): increasing slots in 1..horizon."""
    horizon = draw(st.integers(1, 400) | st.integers(1, 29))
    warmup = draw(st.just(0) | st.integers(0, horizon - 1))
    slots = set(draw(st.lists(st.integers(1, horizon), max_size=60)))
    if draw(st.booleans()):
        slots |= {max(warmup, 1), horizon}  # on the warmup and horizon slots
    slots = np.array(sorted(slots), dtype=np.int64)
    delays = draw(st.lists(st.integers(1, 50), min_size=len(slots), max_size=len(slots)))
    return slots, slots - np.array(delays, dtype=np.int64), horizon, warmup


@settings(max_examples=300, deadline=None)
@given(delivery_runs())
def test_sawtooth_statistics_equal_per_slot_ages(run):
    slots, timestamps, horizon, warmup = run
    assert sim._age_stats(slots, timestamps, horizon, warmup) == per_slot_age_stats(
        slots, timestamps, horizon, warmup
    )
    arrivals = slots[slots < horizon] + 1  # arrival a is a delivery in slot a - 1
    ages = per_slot_source_ages(arrivals, horizon, warmup)
    stamps = arrivals - 1
    assert sim._age_stats(stamps, stamps, horizon, warmup, first_timestamp=-1) == per_slot_batch_means(ages)
    counts = sim._age_counts(stamps, stamps, -1, warmup, horizon)
    values, expected = np.unique(ages.astype(np.int64), return_counts=True)
    assert np.array_equal(np.flatnonzero(counts), values)
    assert np.array_equal(counts[values], expected)


def test_sawtooth_statistics_without_deliveries():
    none = np.zeros(0, dtype=np.int64)
    for horizon, warmup in ((1, 0), (29, 0), (30, 0), (1000, 0), (1000, 999), (10_000, 37)):
        assert sim._age_stats(none, none, horizon, warmup) == per_slot_age_stats(none, none, horizon, warmup)


def path_markov_arrivals(rng, src, horizon):
    """The arrivals read off a state path expanded with np.repeat."""
    state = 1 if rng.random() < src.effective_rate else 0
    chunks = []
    total = 0
    while total < horizon:
        n_runs = max(64, int(horizon / 8))
        active = sim._geometric_lengths(rng, src.p10, n_runs)
        inactive = sim._geometric_lengths(rng, src.p01, n_runs)
        lengths = np.empty(2 * n_runs, dtype=np.int64)
        lengths[0::2], lengths[1::2] = (active, inactive) if state == 1 else (inactive, active)
        values = np.empty(2 * n_runs, dtype=np.int64)
        values[0::2] = state
        values[1::2] = 1 - state
        chunks.append(np.repeat(values, lengths))
        total += int(lengths.sum())
    path = np.concatenate(chunks)[:horizon]
    return np.flatnonzero(path) + 1


@pytest.mark.parametrize("src", [MarkovSource(0.05, 0.2), MarkovSource(0.5, 0.5),
                                 MarkovSource(1.0, 1.0), MarkovSource(0.01, 0.9)])
def test_markov_arrivals_from_run_lengths_equal_the_state_path(src):
    for seed in range(6):
        for horizon in (1, 7, 64, 513, 100_003):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            arrivals = sim._markov_arrivals(rng, src, horizon)
            assert np.array_equal(arrivals, path_markov_arrivals(reference, src, horizon))
            assert rng.random() == reference.random()  # the same draws were consumed


def test_bernoulli_arrivals_in_chunks_equal_one_draw(monkeypatch):
    monkeypatch.setattr(sim, "_CHUNK", 7)
    for horizon in (1, 6, 7, 8, 50, 1001):
        rng, reference = np.random.default_rng(horizon), np.random.default_rng(horizon)
        expected = np.flatnonzero(reference.random(horizon) < 0.3) + 1
        assert np.array_equal(sim._bernoulli_arrivals(rng, 0.3, horizon), expected)
        assert rng.random() == reference.random()


MEMORY_SLOTS = 2_000_000


@pytest.mark.parametrize("run,bytes_per_slot", [
    (lambda: simulate(SimConfig(Policy.dad(50), BernoulliSource(0.05), horizon=MEMORY_SLOTS, seed=1)), 10.0),
    (lambda: empirical_source_age(SimConfig(None, MarkovSource(0.05, 0.2), horizon=MEMORY_SLOTS, seed=1)), 25.0),
], ids=["dad50-bernoulli", "markov-source"])
def test_traced_memory_grows_with_arrivals_not_slots(run, bytes_per_slot):
    run()  # first call pays one-off allocations
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_slot * MEMORY_SLOTS


def test_runs_report_counters_at_debug(caplog):
    cfg = SimConfig(Policy.dad(4), BernoulliSource(1.0), horizon=1_000, warmup=0, seed=1)
    with caplog.at_level(logging.DEBUG, logger="ageleak.sim"):
        simulate(cfg)
        empirical_source_age(SimConfig(None, BernoulliSource(1.0), horizon=1_000, warmup=0))
    assert "sim rad horizon=1000: 1000 arrivals, 250 deliveries, 250 intervals summed" in caplog.text
    assert "sim source horizon=1000: 1000 arrivals, 1000 deliveries, 1000 intervals summed" in caplog.text
