import itertools
import json
import logging
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ageleak import (
    BernoulliSource,
    FinitePmf,
    MarkovSource,
    Policy,
    SimConfig,
    SimStats,
    deterministic_pmf,
    empirical_source_age,
    geometric_pmf,
    greedy_smp_pmf,
    lcfs_age,
    load_scenario,
    make_pmf,
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


@pytest.mark.parametrize("p01,p10,rate", [(1e-17, 0.5, 0.0), (0.5, 1e-17, 1.0), (5e-324, 0.5, 0.0)])
def test_markov_source_at_tiny_transition_probabilities(p01, p10, rate):
    """A transition too rare for 1 - p to differ from 1 still gives the source's rate."""
    src = MarkovSource(p01, p10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = empirical_source_age(SimConfig(None, src, horizon=100_000, seed=4))
    assert stats.output_rate == pytest.approx(rate, abs=1e-3)
    assert src.effective_rate == pytest.approx(rate, abs=1e-3)


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


def fed_age_stats(slots, timestamps, horizon, warmup, first_timestamp=0, pieces=1):
    ages = sim._Ages(horizon, warmup, first_timestamp)
    for part in np.array_split(np.arange(len(slots)), pieces):
        ages.feed(slots[part], timestamps[part])
    return ages.stats()


def fed_age_counts(stamps, horizon, warmup, pieces=1):
    ages = sim._Ages(horizon, warmup, -1, counts=True)
    for part in np.array_split(np.arange(len(stamps)), pieces):
        ages.feed(stamps[part], stamps[part])
    return ages.counts()


@settings(max_examples=300, deadline=None)
@given(delivery_runs(), st.integers(1, 4))
def test_sawtooth_statistics_equal_per_slot_ages(run, pieces):
    slots, timestamps, horizon, warmup = run
    assert fed_age_stats(slots, timestamps, horizon, warmup, pieces=pieces) == per_slot_age_stats(
        slots, timestamps, horizon, warmup
    )
    arrivals = slots[slots < horizon] + 1  # arrival a is a delivery in slot a - 1
    ages = per_slot_source_ages(arrivals, horizon, warmup)
    stamps = arrivals - 1
    assert fed_age_stats(stamps, stamps, horizon, warmup, -1, pieces) == per_slot_batch_means(ages)
    counts = fed_age_counts(stamps, horizon, warmup, pieces)
    values, expected = np.unique(ages.astype(np.int64), return_counts=True)
    assert np.array_equal(np.flatnonzero(counts), values)
    assert np.array_equal(counts[values], expected)


def test_sawtooth_statistics_without_deliveries():
    none = np.zeros(0, dtype=np.int64)
    for horizon, warmup in ((1, 0), (29, 0), (30, 0), (1000, 0), (1000, 999), (10_000, 37)):
        assert fed_age_stats(none, none, horizon, warmup) == per_slot_age_stats(none, none, horizon, warmup)


def role_streams(seed, *roles):
    """The generators the simulator reads for ``roles`` of a run with ``seed``."""
    return [np.random.default_rng((seed, role)) for role in roles]


def chain_idle_length(idles, p):
    """One Geometric(p) idle length on {1, 2, ...}, by inversion of one double."""
    if p >= 1.0:
        return 1
    return math.ceil(math.log(max(idles.random(), 1e-300)) / math.log1p(-p))


def chain_markov_arrivals(coins, idles, src, horizon):
    """The arrivals of the two-state chain, stepped with one scalar draw at a time.

    The state at time 0 is active when its coin is below the stationary
    active probability; after each active time, a coin below p10 sends the
    chain idle for one idle length.  Slot t receives an arrival when the
    state at time t - 1 is active.
    """
    arrivals = []
    t, active = 0, coins.random() < src.effective_rate
    while t < horizon:
        if active:
            arrivals.append(t + 1)
            t, active = t + 1, not coins.random() < src.p10
        else:
            t, active = t + chain_idle_length(idles, src.p01), True
    return np.array(arrivals, dtype=np.int64)


@pytest.mark.parametrize("src", [MarkovSource(0.05, 0.2), MarkovSource(0.5, 0.5),
                                 MarkovSource(1.0, 1.0), MarkovSource(0.01, 0.9)])
def test_markov_arrivals_equal_the_scalar_chain(src):
    for seed in range(6):
        for horizon in (1, 7, 64, 513, 100_003):
            cfg = SimConfig(None, src, horizon=horizon, warmup=0, seed=seed)
            arrivals = np.concatenate(list(sim._arrival_chunks(cfg)))
            reference = chain_markov_arrivals(*role_streams(seed, sim._ARRIVALS, sim._INACTIVE), src, horizon)
            assert np.array_equal(arrivals, reference)


def test_bernoulli_arrivals_in_chunks_equal_one_draw(monkeypatch):
    monkeypatch.setattr(sim, "_CHUNK", 7)
    for horizon in (1, 6, 7, 8, 50, 1001):
        rng, reference = np.random.default_rng(horizon), np.random.default_rng(horizon)
        expected = np.flatnonzero(reference.random(horizon) < 0.3) + 1
        assert np.array_equal(np.concatenate(list(sim._bernoulli_chunks(rng, 0.3, horizon))), expected)
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


# --- the whole-run simulator the chunked one replaces ---------------------
# A copy of the simulator that held every arrival and delivery of a run at
# once (helpers renamed whole_*, debug logging left out), reading the same
# per-role streams in its own block sizes.  The chunked simulator must
# reproduce its results exactly, whatever _CHUNK is.

WHOLE_CHUNK = 1 << 20


def whole_sample_durations(rng, pmf: FinitePmf, size):
    durations = np.array(pmf.durations, dtype=np.int64)
    cdf = np.cumsum(pmf.probabilities)
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    return durations[np.minimum(idx, len(durations) - 1)]


def whole_bernoulli_arrivals(rng, lam, horizon):
    return np.concatenate([
        np.flatnonzero(rng.random(min(WHOLE_CHUNK, horizon - start)) < lam) + (start + 1)
        for start in range(0, horizon, WHOLE_CHUNK)
    ])


def whole_geometric_lengths(rng, p, size, cap):
    if p >= 1.0:
        return np.ones(size, dtype=np.int64)
    u = np.maximum(rng.random(size), 1e-300)
    with np.errstate(over="ignore"):
        lengths = np.ceil(np.log(u) / np.log1p(-p))
    return np.minimum(lengths, cap).astype(np.int64)


def whole_markov_arrivals(coins, idles, src: MarkovSource, horizon):
    """Arrival slots of the two-state source over slots 1..horizon.

    The arrivals are a renewal process from slot 0.  One coin per gap leaves
    the active state (below p10, or for the first gap not below the
    stationary active probability), and a leave adds one Geometric(p01) idle
    length to the gap of one slot.  Every gap is at least one slot, so
    horizon - total more gaps reach past the horizon.
    """
    gaps, total = [], 0
    while total < horizon:
        size = min(WHOLE_CHUNK, horizon - total)
        u = coins.random(size)
        leave = u < src.p10
        if not gaps:
            leave[0] = u[0] >= src.effective_rate
        block = np.ones(size, dtype=np.int64)
        block[leave] += whole_geometric_lengths(idles, src.p01, int(leave.sum()), horizon + 1)
        gaps.append(block)
        total += int(block.sum())
    arrivals = np.cumsum(np.concatenate(gaps))
    return arrivals[arrivals <= horizon]


def whole_arrivals(seed, source, horizon):
    coins, idles = role_streams(seed, sim._ARRIVALS, sim._INACTIVE)
    if isinstance(source, BernoulliSource):
        return whole_bernoulli_arrivals(coins, source.lam, horizon)
    return whole_markov_arrivals(coins, idles, source, horizon)


def whole_lcfs_deliveries(rng, policy, arrivals, horizon):
    """Preemptive LCFS: an arrival replaces the in-service update.

    The update arriving in slot t with draw s departs in slot t + s - 1
    unless a later arrival lands on or before that slot.
    """
    draws = whole_sample_durations(rng, policy.pmf, len(arrivals))
    departures = arrivals + draws - 1
    next_arrival = np.append(arrivals[1:], horizon + 1)
    done = (next_arrival > departures) & (departures <= horizon)
    return departures[done], arrivals[done] - 1


def whole_fcfs_deliveries(rng, policy, arrivals, horizon):
    """FCFS of the admitted arrivals.

    Departures follow the waiting-time recursion dep_k = max(arr_k,
    dep_{k-1} + 1) + s_k - 1, unrolled into a cumulative maximum so the
    whole run evaluates vectorially.
    """
    if len(arrivals) == 0:
        return arrivals, arrivals
    draws = whole_sample_durations(rng, policy.pmf, len(arrivals))
    k = np.arange(1, len(arrivals) + 1)
    csum = np.cumsum(draws - 1)
    csum_prev = np.concatenate(([0], csum[:-1]))
    departures = np.maximum.accumulate(arrivals - k - csum_prev) + csum + k
    done = departures <= horizon
    return departures[done], arrivals[done] - 1


def whole_rad_attempts(rng, pmf, horizon):
    mean_d = sum(d * p for d, p in pmf.entries)
    block = max(64, int(horizon / mean_d * 1.1) + 16)
    attempts = np.cumsum(whole_sample_durations(rng, pmf, block))
    while attempts[-1] <= horizon:
        more = np.cumsum(whole_sample_durations(rng, pmf, block)) + attempts[-1]
        attempts = np.concatenate((attempts, more))
    return attempts[attempts <= horizon]


def whole_rad_deliveries(rng, policy, arrivals, horizon):
    """Accumulate-and-dump: the timer runs from slot 0, first attempt at D1.

    An attempt transmits the freshest update that arrived since the previous
    attempt (the buffer only ever holds the freshest update and is empty
    after every attempt); an empty-buffer attempt produces no output.
    """
    attempts = whole_rad_attempts(rng, policy.pmf, horizon)
    last_arrival_idx = np.searchsorted(arrivals, attempts, side="right") - 1
    previous_attempt = np.concatenate(([0], attempts[:-1]))
    filled = np.zeros(len(attempts), dtype=bool)
    seen = last_arrival_idx >= 0
    filled[seen] = arrivals[last_arrival_idx[seen]] > previous_attempt[seen]
    timestamps = arrivals[last_arrival_idx[filled]] - 1
    return attempts[filled], timestamps, attempts


whole_DELIVERY_FNS = {"lcfs": whole_lcfs_deliveries, "fcfs": whole_fcfs_deliveries}


def whole_teeth(delivery_slots, timestamps, first_timestamp):
    """Start slot and timestamp of every sawtooth interval.

    The age in slot t is t minus the timestamp of the last update delivered
    in a slot before t, or minus ``first_timestamp`` before the first
    delivery.  Interval k covers the slots starts[k] + 1 through the next
    delivery slot (the horizon for the last) at timestamp stamps[k].
    """
    starts = np.concatenate(([0], delivery_slots))
    stamps = np.concatenate(([first_timestamp], timestamps))
    return starts, stamps


def whole_tooth_areas(starts, lengths, stamps):
    """Sum of t - stamp over the slots start + 1 .. start + length, exactly."""
    return lengths * (2 * starts + lengths + 1) // 2 - lengths * stamps


def whole_age_sums(delivery_slots, timestamps, first_timestamp, points):
    """Sum of the age over slots 1..T for each sorted T in ``points``.

    Whole intervals come from prefix sums of their areas; the interval that
    holds T contributes its part up to T.
    """
    starts, stamps = whole_teeth(delivery_slots, timestamps, first_timestamp)
    areas = whole_tooth_areas(starts[:-1], np.diff(starts), stamps[:-1])
    whole = np.concatenate(([0], np.cumsum(areas)))
    j = np.searchsorted(delivery_slots, points, side="left")
    return whole[j] + whole_tooth_areas(starts[j], points - starts[j], stamps[j])


def whole_age_stats(delivery_slots, timestamps, horizon, warmup, first_timestamp=0):
    """Mean age and batch-means CI over the post-warmup slots.

    An artificial update with ``first_timestamp`` stands in until the first
    real delivery; the warmup absorbs it.  Batch k's sum of ages is the
    difference of the age sums at its two boundaries, so the mean and the
    batch means are those of the per-slot ages.  Fewer slots than batches
    leave the spread unknown: the half-width is inf.
    """
    measured = horizon - warmup
    per_batch = measured // sim.BATCHES
    points = np.append(warmup + per_batch * np.arange(sim.BATCHES + 1), horizon)
    sums = whole_age_sums(delivery_slots, timestamps, first_timestamp, points)
    mean = float((sums[-1] - sums[0]) / measured)
    if per_batch == 0:
        return mean, math.inf
    batch_means = np.diff(sums[:-1]) / per_batch
    return mean, float(sim._T_29 * batch_means.std(ddof=1) / math.sqrt(sim.BATCHES))


def whole_age_counts(delivery_slots, timestamps, first_timestamp, warmup, horizon):
    """Number of post-warmup slots at each age value, indexed by the age.

    Within an interval the ages run up by one per slot, so each clipped
    interval adds one to a contiguous range of age values: a difference
    array over the age values, summed once.
    """
    starts, stamps = whole_teeth(delivery_slots, timestamps, first_timestamp)
    first = np.maximum(starts, warmup) + 1
    last = np.append(np.minimum(delivery_slots, horizon), horizon)
    inside = first <= last
    low = first[inside] - stamps[inside]
    high = last[inside] - stamps[inside]
    size = int(high.max()) + 2
    steps = np.bincount(low, minlength=size) - np.bincount(high + 1, minlength=size)
    return np.cumsum(steps)


def whole_simulate(cfg: SimConfig, fake_dump_updates=False) -> SimStats:
    """Run one policy simulation; deterministic given the seed.

    ``fake_dump_updates`` only affects RAD-family policies: empty-buffer
    attempts re-send the previously dumped update, which leaves the monitor
    age unchanged but counts as a transmission.
    """
    if cfg.policy is None:
        raise InvalidConfig("simulate needs a policy; use empirical_source_age for sources")
    rng, coins = role_streams(cfg.seed, sim._SERVICE, sim._COINS)
    arrivals = whole_arrivals(cfg.seed, cfg.source, cfg.horizon)
    if cfg.policy.alpha < 1.0:  # FCFS admission thinning
        arrivals = arrivals[coins.random(len(arrivals)) < cfg.policy.alpha]
    if cfg.policy.kind == "rad":
        slots, timestamps, attempts = whole_rad_deliveries(rng, cfg.policy, arrivals, cfg.horizon)
        if fake_dump_updates and len(slots):
            delivered = int(np.count_nonzero(attempts[attempts > cfg.warmup] >= slots[0]))
        else:
            delivered = int(np.count_nonzero(slots > cfg.warmup))
    else:
        slots, timestamps = whole_DELIVERY_FNS[cfg.policy.kind](rng, cfg.policy, arrivals, cfg.horizon)
        delivered = int(np.count_nonzero(slots > cfg.warmup))
    mean, ci = whole_age_stats(slots, timestamps, cfg.horizon, cfg.warmup)
    measured = cfg.horizon - cfg.warmup
    return SimStats(mean, ci, delivered, delivered / measured)


def whole_source_age(cfg: SimConfig, return_pmf=False):
    """Age of the raw update process at the server input, no policy.

    Returns SimStats whose ``delivered`` counts generated updates and whose
    ``output_rate`` is the empirical source rate; with ``return_pmf`` also
    returns the empirical age pmf as a dict.

    The update arriving in slot a was generated in slot a - 1; it acts as a
    delivery in slot a - 1 with timestamp a - 1, so the age in slot t >= a
    is t - a + 1.  Before the first arrival the age is t + 1 (timestamp -1).
    """
    generated_at = whole_arrivals(cfg.seed, cfg.source, cfg.horizon)
    generated_at -= 1
    mean, ci = whole_age_stats(generated_at, generated_at, cfg.horizon, cfg.warmup, first_timestamp=-1)
    generated = int(np.count_nonzero(generated_at >= cfg.warmup))
    measured = cfg.horizon - cfg.warmup
    stats = SimStats(mean, ci, generated, generated / measured)
    if not return_pmf:
        return stats
    counts = whole_age_counts(generated_at, generated_at, -1, cfg.warmup, cfg.horizon)
    pmf = {int(a): float(counts[a]) / measured for a in np.flatnonzero(counts)}
    return stats, pmf


SERVICE_PMFS = (
    geometric_pmf(0.25),
    greedy_smp_pmf(0.4),
    uniform_pmf(3),
    deterministic_pmf(1),
    deterministic_pmf(5),
    make_pmf([(2, 0.3), (7, 0.7)]),
)
PROBABILITIES = st.just(1.0) | st.floats(0.01, 1.0)


@st.composite
def chunked_runs(draw):
    """(cfg, fake_dump_updates): a policy run, or a source run when cfg.policy is None."""
    pmf = draw(st.sampled_from(SERVICE_PMFS))
    policy = draw(st.sampled_from([
        None,
        Policy.lcfs(pmf),
        Policy.fcfs(pmf),
        Policy.fcfs(pmf, alpha=draw(st.floats(0.05, 0.95))),
        Policy.rad(pmf),
    ]))
    source = draw(st.builds(BernoulliSource, PROBABILITIES) | st.builds(MarkovSource, PROBABILITIES, PROBABILITIES))
    horizon = draw(st.integers(1, 2_000))
    warmup = draw(st.just(0) | st.integers(0, horizon - 1))
    cfg = SimConfig(policy, source, horizon=horizon, warmup=warmup, seed=draw(st.integers(0, 2**32 - 1)))
    return cfg, draw(st.booleans())


def chunked_and_whole(cfg, fake, chunk):
    """repr of the chunked and the whole-run result of one run."""
    with mock.patch.object(sim, "_CHUNK", chunk):
        if cfg.policy is None:
            return repr(empirical_source_age(cfg, return_pmf=True)), repr(whole_source_age(cfg, return_pmf=True))
        return repr(simulate(cfg, fake)), repr(whole_simulate(cfg, fake))


@settings(max_examples=300, deadline=None)
@given(chunked_runs(), st.sampled_from([7, 64]))
def test_chunked_simulator_equals_the_whole_run_one(run, chunk):
    chunked, whole = chunked_and_whole(*run, chunk)
    assert chunked == whole


@pytest.mark.parametrize("chunk", [7, 64])
def test_server_state_crosses_chunk_boundaries(chunk):
    """Every server, source kind and warmup edge, on a horizon no chunk divides.

    With chunks of 7 or 64 slots, LCFS departures, FCFS backlogs, RAD
    attempts (period 5 and 9), Markov runs (p01 = 1 or p10 = 1 included)
    and the warmup all reach across chunk boundaries.
    """
    greedy = greedy_smp_pmf(0.5)
    policies = [
        (Policy.lcfs(geometric_pmf(0.25)), False),
        (Policy.fcfs(geometric_pmf(0.4)), False),
        (Policy.fcfs(greedy, alpha=optimal_alpha_for_fcfs(0.5, greedy)[0]), False),
        (Policy.rad(make_pmf([(5, 0.5), (9, 0.5)])), False),
        (Policy.rad(make_pmf([(5, 0.5), (9, 0.5)])), True),
        (None, False),
    ]
    sources = [BERN, MarkovSource(0.05, 0.2), MarkovSource(1.0, 0.3), MarkovSource(0.3, 1.0)]
    for (policy, fake), source, warmup in itertools.product(policies, sources, (0, 37, 500)):
        cfg = SimConfig(policy, source, horizon=1_003, warmup=warmup, seed=chunk + warmup)
        chunked, whole = chunked_and_whole(cfg, fake, chunk)
        assert chunked == whole, (cfg, fake)


def test_random_streams_are_pinned():
    """Literal results of short runs, so that a change of the random streams shows.

    The chunked simulator and the whole-run reference share the role keys,
    so their equality cannot catch such a change.
    """
    greedy = greedy_smp_pmf(0.5)
    thinned = Policy.fcfs(greedy, alpha=optimal_alpha_for_fcfs(0.5, greedy)[0])
    runs = {
        (Policy.lcfs(geometric_pmf(0.25)), BERN): "SimStats(mean_age=5.886666666666667, "
        "ci_half_width=0.5531230483299243, delivered=177, output_rate=0.19666666666666666)",
        (thinned, BERN): "SimStats(mean_age=4.07, ci_half_width=0.23478680748168113, delivered=427, "
        "output_rate=0.47444444444444445)",
        (Policy.dad(5), MarkovSource(0.05, 0.2)): "SimStats(mean_age=25.05, "
        "ci_half_width=6.8153777856270965, delivered=59, output_rate=0.06555555555555556)",
    }
    for (policy, source), expected in runs.items():
        assert repr(simulate(SimConfig(policy, source, horizon=1_000, warmup=100, seed=1))) == expected
    cfg = SimConfig(None, MarkovSource(0.4, 0.6), horizon=1_000, warmup=100, seed=1)
    assert repr(empirical_source_age(cfg, return_pmf=True)) == (
        "(SimStats(mean_age=2.4166666666666665, ci_half_width=0.1627065129829961, delivered=363, "
        "output_rate=0.4033333333333333), {1: 0.4033333333333333, 2: 0.24444444444444444, "
        "3: 0.14333333333333334, 4: 0.08888888888888889, 5: 0.052222222222222225, 6: 0.03, "
        "7: 0.02, 8: 0.0077777777777777776, 9: 0.005555555555555556, 10: 0.0033333333333333335, "
        "11: 0.0011111111111111111})"
    )


def traced_peak(run, cfg):
    tracemalloc.start()
    try:
        run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["lcfs-geo", "thinned-fcfs", "dad5-markov", "markov-source"])
def test_traced_memory_does_not_grow_with_the_horizon(name):
    greedy = greedy_smp_pmf(0.5)
    policy, source = {
        "lcfs-geo": (Policy.lcfs(geometric_pmf(0.25)), BERN),
        "thinned-fcfs": (Policy.fcfs(greedy, alpha=optimal_alpha_for_fcfs(0.5, greedy)[0]), BERN),
        "dad5-markov": (Policy.dad(5), MarkovSource(0.05, 0.2)),
        "markov-source": (None, MarkovSource(0.05, 0.2)),
    }[name]
    run = empirical_source_age if policy is None else simulate
    short, long = (SimConfig(policy, source, horizon=h, seed=1) for h in (10**6, 8 * 10**6))
    run(short)  # the first call pays one-off allocations
    short_peak, long_peak = traced_peak(run, short), traced_peak(run, long)
    assert long_peak <= 1.25 * short_peak
    assert long_peak < 16 * 2**20
