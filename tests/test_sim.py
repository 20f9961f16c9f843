import itertools
import json
import logging
import math
import tracemalloc
import warnings
from fractions import Fraction
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
    optimal_alpha_for_fcfs,
    policy_from_config,
    rad_age,
    simulate,
    uniform_pmf,
)
from ageleak import sim
from ageleak.errors import InvalidConfig
from test_age import markov_monitor_age

BERN = BernoulliSource(0.5)


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
    durations, probabilities = zip(*pmf.entries)
    durations, cdf = np.array(durations), np.cumsum(probabilities)
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
    assert SimConfig(Policy.dad(3), BERN, horizon=2**31).horizon == 2**31
    with pytest.raises(InvalidConfig, match="above 2"):
        SimConfig(Policy.dad(3), BERN, horizon=2**31 + 1)
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


@pytest.mark.parametrize("horizon", [2**31 - 1, 2**31])
@pytest.mark.parametrize("warmup", [0, 10_000, 2**31 - 100])
@pytest.mark.parametrize("first_timestamp", [0, -1])
def test_age_sums_are_exact_at_the_horizon_cap(horizon, warmup, first_timestamp):
    """Age sums near 2^61 equal the whole-run ones in Python ints, fed at once or in up to four feeds."""
    rng = np.random.default_rng(horizon + warmup)
    sparse = np.unique(np.concatenate((rng.integers(1, horizon + 1, 40), [warmup or 1, horizon - 1, horizon])))
    delayed = sparse - rng.integers(0, sparse + 1)  # delays from 0 up to the whole slot
    delayed[:3] = 0  # the oldest timestamps held longest
    none = np.zeros(0, dtype=np.int64)
    for slots, stamps in ((none, none), (sparse, delayed)):
        for pieces in range(1, 5):
            ages = sim._Ages(horizon, warmup, first_timestamp)
            for part in np.array_split(np.arange(len(slots)), pieces):
                ages.feed(slots[part], stamps[part])
            mean = ages.stats()[0]
            exact = whole_age_sums(slots.astype(object), stamps.astype(object), first_timestamp,
                                   ages.points.astype(object))
            assert ages.sums.tolist() == exact.tolist()
            assert mean == pytest.approx(float(Fraction(exact[-1] - exact[0], horizon - warmup)), rel=1e-15)


def role_streams(seed, *roles):
    """The generators the simulator reads for ``roles`` of a run with ``seed``."""
    return [np.random.default_rng((seed, role)) for role in roles]


class ScalarCoins:
    """The coins of one role, one at a time: each reads the next byte of the role's raw words.

    A word's bytes are split off by integer shifts, the least significant
    first.  A byte below c = floor(256 p) is heads, and a byte equal to c is
    heads when the next double of the role's tie stream is below 256 p - c.
    """

    def __init__(self, seed, role):
        self.words = np.random.default_rng((seed, role)).bit_generator
        self.ties = np.random.default_rng((seed, role, 1))
        self.word = self.left = 0

    def __call__(self, p):
        if not self.left:
            self.word, self.left = int(self.words.random_raw()), 8
        byte, self.word, self.left = self.word & 0xFF, self.word >> 8, self.left - 1
        c = math.floor(256 * p)
        return byte < c or (byte == c and self.ties.random() < 256 * p - c)


def chain_idle_length(idles, p):
    """One Geometric(p) idle length on {1, 2, ...}, by inversion of one double."""
    if p >= 1.0:
        return 1
    return math.ceil(math.log(max(idles.random(), 1e-300)) / math.log1p(-p))


def chain_markov_arrivals(coin, idles, src, horizon):
    """The arrivals of the two-state chain, stepped one coin at a time.

    The state at time 0 is active when its coin at the stationary active
    probability is heads; after each active time, a coin at p10 sends the
    chain idle for one idle length.  Slot t receives an arrival when the
    state at time t - 1 is active.
    """
    arrivals = []
    t, active = 0, coin(src.effective_rate)
    while t < horizon:
        if active:
            arrivals.append(t + 1)
            t, active = t + 1, not coin(src.p10)
        else:
            t, active = t + chain_idle_length(idles, src.p01), True
    return np.array(arrivals, dtype=np.int64)


@pytest.mark.parametrize("src", [MarkovSource(0.05, 0.2), MarkovSource(0.5, 0.5),
                                 MarkovSource(1.0, 1.0), MarkovSource(0.01, 0.9)])
def test_markov_arrivals_equal_the_scalar_chain(src):
    for seed in range(6):
        for horizon in (1, 7, 64, 513, 100_003):
            cfg = SimConfig(None, src, horizon=horizon, warmup=0, seed=seed)
            arrivals = np.concatenate(list(sim._arrival_chunks(cfg, sim._coins(cfg, sim._ARRIVALS))))
            idles, = role_streams(seed, sim._INACTIVE)
            reference = chain_markov_arrivals(ScalarCoins(seed, sim._ARRIVALS), idles, src, horizon)
            assert np.array_equal(arrivals, reference)


def test_bernoulli_arrivals_in_chunks_equal_one_draw(monkeypatch):
    """Windows of 7 slots, which split the words, read the coins of one draw of the whole run.

    Afterwards both streams stand where that one draw leaves them: past
    ceil(horizon / 8) words and one tie double per tie.
    """
    monkeypatch.setattr(sim, "_CHUNK", 7)
    for horizon in (1, 6, 7, 8, 50, 1001, 20_000):
        cfg = SimConfig(None, BernoulliSource(0.3), horizon=horizon, warmup=0, seed=horizon)
        coins = sim._coins(cfg, sim._ARRIVALS)
        arrivals = np.concatenate(list(sim._bernoulli_chunks(coins, 0.3, horizon)))
        assert np.array_equal(arrivals, whole_bernoulli_arrivals(horizon, 0.3, horizon))
        words, = role_streams(horizon, sim._ARRIVALS)
        ties = np.random.default_rng((horizon, sim._ARRIVALS, 1))
        words.bit_generator.random_raw(-(-horizon // 8))
        ties.random(coins.settled)
        assert coins.drawn == horizon
        assert coins.words(1)[0] == words.bit_generator.random_raw()
        assert coins.ties.random() == ties.random()
    assert coins.settled > 0


class _CraftedWords:
    """Stands in for a bit generator: random_raw(size) packs the next 8 size bytes, the first least significant."""

    def __init__(self, coins):
        self.coins, self.at = list(coins), 0

    def random_raw(self, size):
        words = []
        for _ in range(size):
            word = self.coins[self.at : self.at + 8]
            words.append(sum(byte << (8 * i) for i, byte in enumerate(word)))
            self.at += 8
        return np.array(words, dtype=np.uint64)


@pytest.mark.parametrize("p", [0.5, 0.3, 1 / 256, 255 / 256, 1e-9, 1.0])
def test_coins_settle_bytes_and_ties_by_the_byte_rule(p):
    """Bytes below, at and above c = floor(256 p), and tie doubles on each side of 256 p - c.

    A byte below c is heads and one above is tails, with no double read; a
    tie reads one double and is heads when it is below 256 p - c.  With u
    uniform on the multiples of 2^-53, P(heads) is within 2^-61 of p.  When
    256 p is whole (p = 1/2, 1/256, 255/256 and 1) a tie is tails and the
    tie stream is never read.
    """
    c = math.floor(256 * p)
    fraction = 256 * p - c
    others = [byte for byte in (c - 1, c + 1, 0, 255) if 0 <= byte <= 255 and byte != c]
    coins = [byte for other in others for byte in (other, c) if byte <= 255]  # four ties, or none at p = 1
    below = np.nextafter(fraction, 0.0) if fraction > 0 else 0.0
    doubles = np.array([below, fraction, 0.0, np.nextafter(1.0, 0.0)])
    ties = _Crafted(doubles) if fraction else _Refusing()
    drawn = sim._Coins(_CraftedWords(coins).random_raw, ties).heads(len(coins), p)
    settled = iter(doubles)
    expected = [k for k, byte in enumerate(coins) if byte < c or (byte == c and next(settled) < fraction)]
    np.testing.assert_array_equal(drawn, expected)
    if fraction:
        assert ties.at == coins.count(c)
    heads = Fraction(c, 256) + Fraction(math.ceil(Fraction(fraction) * 2**53), 2**61)
    assert abs(heads - Fraction(p)) <= Fraction(1, 2**61)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 100), max_size=16),
       st.sampled_from([0.5, 0.3, 1 / 256, 1e-9, 1.0]) | st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_coins_in_any_split_equal_one_draw(sizes, p, seed):
    cfg = SimConfig(None, BERN, horizon=1, warmup=0, seed=seed)
    split, whole = sim._coins(cfg, sim._COINS), sim._coins(cfg, sim._COINS)
    offsets = np.cumsum([0] + sizes)
    drawn = [split.heads(size, p) + offset for size, offset in zip(sizes, offsets)]
    np.testing.assert_array_equal(np.concatenate([np.zeros(0, dtype=np.intp)] + drawn), whole.heads(sum(sizes), p))
    assert (split.drawn, split.settled) == (whole.drawn, whole.settled)
    assert split.words(1)[0] == whole.words(1)[0]


def test_coins_read_the_raw_words_little_endian():
    """At p = c / 256 no tie is heads, so coin k is heads exactly when byte k of the words is below c.

    The first two raw words of seed 7's arrival role are 0xa00641a9f1e54a8b
    and 0xe5afcdbcaf266a95; each is read from its least significant byte.
    """
    cfg = SimConfig(None, BERN, horizon=1, warmup=0, seed=7)
    coins = role_bytes(7, sim._ARRIVALS, 16)
    assert coins.tolist() == [0x8B, 0x4A, 0xE5, 0xF1, 0xA9, 0x41, 0x06, 0xA0,
                              0x95, 0x6A, 0x26, 0xAF, 0xBC, 0xCD, 0xAF, 0xE5]
    for c in range(257):
        drawn = sim._coins(cfg, sim._ARRIVALS).heads(16, c / 256)
        np.testing.assert_array_equal(drawn, np.flatnonzero(coins < c))


def test_coin_frequency_is_p():
    """4 10^6 coins at p = 0.3 land within 5 sigma of p, and about one in 256 is a tie."""
    size, p = 4_000_000, 0.3
    coins = sim._coins(SimConfig(None, BERN, horizon=1, warmup=0, seed=2026), sim._ARRIVALS)
    heads = len(coins.heads(size, p))
    assert abs(heads - size * p) <= 5 * math.sqrt(size * p * (1 - p))
    assert abs(coins.settled - size / 256) <= 5 * math.sqrt(size / 256 * (1 - 1 / 256))


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
        for policy in (Policy.lcfs(geometric_pmf(0.25)), Policy.rad(make_pmf([(1, 0.5), (2, 0.5)]))):
            simulate(SimConfig(policy, BernoulliSource(1.0), horizon=1_000, warmup=0, seed=1))
        for lam, alpha in ((0.5, 0.5), (0.3, 0.7)):
            thinned = Policy.fcfs(geometric_pmf(0.25), alpha=alpha)
            simulate(SimConfig(thinned, BernoulliSource(lam), horizon=1_000, warmup=0, seed=1))
    assert "sim rad horizon=1000: 1000 arrivals, 250 deliveries, 250 intervals summed" in caplog.text
    assert "sim source horizon=1000: 1000 arrivals, 1000 deliveries, 1000 intervals summed" in caplog.text
    lines = caplog.text.splitlines()
    # the service role's bytes and refinement doubles: none for DAD or a source; two bytes per LCFS
    # draw of geometric(0.25), whose 2^11 buckets refine where a cdf point lies inside; one byte per
    # timer gap of {1, 2}, a refill of 1000 + 1 gaps at p = 1/2, where a tie reads no double
    durations, cdf, tailed = listed_cdf(geometric_pmf(0.25), 1_000)
    raw = role_bytes(1, sim._SERVICE, 2_000).reshape(1_000, 2).astype(np.int64)
    refined = np.count_nonzero(refined_buckets(cdf, 11, tailed)[(raw[:, 0] | raw[:, 1] << 8) >> 5])
    assert guide_bits(len(durations)) == 11 and refined > 0
    assert [line.split(", ")[4:6] for line in lines[:4]] == [["0 service bytes", "0 refined"]] * 2 + [
        ["2000 service bytes", f"{refined} refined"], ["1001 service bytes", "0 refined"]]
    # one coin byte per slot; at lambda = 1 no byte ties with c = 256
    assert [line.split(", ", 6)[-1] for line in lines[:4]] == ["1000 coin bytes, 0 ties settled"] * 4
    # one coin per slot, then one per arrival; at lambda = alpha = 0.5 a byte of 128 ties but is tails
    for line, lam, alpha in zip(lines[4:], (0.5, 0.3), (0.5, 0.7)):
        arrived = int(whole_coins(1, sim._ARRIVALS, np.full(1_000, lam)).sum())
        ties = np.count_nonzero(role_bytes(1, sim._ARRIVALS, 1_000) == math.floor(256 * lam)) * (lam != 0.5)
        ties += np.count_nonzero(role_bytes(1, sim._COINS, arrived) == math.floor(256 * alpha)) * (alpha != 0.5)
        assert line.endswith(f"{1_000 + arrived} coin bytes, {ties} ties settled")
    assert ties > 0


# --- the whole-run simulator the chunked one replaces ---------------------
# A copy of the simulator that held every arrival and delivery of a run at
# once (helpers renamed whole_*, debug logging left out), reading the same
# per-role streams in its own block sizes; its coins are the whole run's
# bytes, drawn at once, with the ties settled in slot order, and so are its
# service and timer draws.  The chunked simulator must reproduce its results
# exactly, whatever _CHUNK is.


def role_bytes(seed, role, size):
    """The first ``size`` bytes of the role's raw words, split off by shifts, the least significant first."""
    words = np.random.default_rng((seed, role)).bit_generator.random_raw(-(-size // 8))
    return ((words[:, None] >> (8 * np.arange(8, dtype=np.uint64))) & 0xFF).ravel()[:size]


def whole_coins(seed, role, ps):
    """Heads of the role's coins at probabilities ``ps``, in order, all drawn at once.

    Coin k reads byte k of the role's raw words, the least significant byte
    of each word first: heads below c = floor(256 p), and a byte equal to c
    is settled, in coin order, by the role's tie stream, unless 256 p is
    whole and the tie is tails.
    """
    ps = np.asarray(ps, dtype=np.float64)
    coins = role_bytes(seed, role, len(ps))
    c = np.floor(256 * ps)
    heads = coins < c
    tie = np.flatnonzero((coins == c) & (256 * ps > c))
    heads[tie] = np.random.default_rng((seed, role, 1)).random(len(tie)) < 256 * ps[tie] - c[tie]
    return heads


def listed_cdf(pmf: FinitePmf, horizon):
    """The durations the sampler lists, clipped to horizon + 1, their cdf, and whether the tail goes on past them."""
    listed, probabilities = pmf._listed(sim._LISTED_MAX, horizon + 1)
    durations = np.minimum(np.array(listed, dtype=np.float64), horizon + 1).astype(np.int64)
    return durations, np.cumsum(probabilities), bool(pmf.hazard) and listed[-1] < horizon + 1


def guide_bits(count):
    """log2 of the guide table's buckets for ``count`` durations: 16 or more per duration, 2^6 to 2^16."""
    return min(max((16 * count - 1).bit_length(), 6), 16)


def refined_buckets(cdf, bits, tailed):
    """Which of the 2^bits buckets a draw refines: those with a cdf point strictly inside,
    and, when the tail goes on past the list, those from the list's last cdf point on."""
    m = 1 << bits
    scaled = cdf * m  # exact: m is a power of two
    refined = np.zeros(m, dtype=bool)
    refined[np.floor(scaled[(scaled < m) & (scaled != np.floor(scaled))]).astype(np.int64)] = True
    if tailed:
        refined[int(math.ceil(scaled[-1])):] = True
    return refined


def whole_durations(seed, pmf: FinitePmf, size, horizon):
    """The first ``size`` service or timer draws of a run, all at once, clipped to horizon + 1.

    One duration and no tail reads nothing.  Two durations and no tail read
    one coin each, the first duration on heads at cdf[0].  Any other pmf
    reads a bucket b of 2^bits per draw, the top bits of one byte, or of two
    bytes taken little-endian; a refined bucket reads one double v of the
    tie stream, in draw order, and u = (b + v) / m is inverted by binary
    search, past the list's cdf by the tail's survival (1 - mu)^k.  Any
    other bucket inverts its lower edge.
    """
    durations, cdf, tailed = listed_cdf(pmf, horizon)
    if not pmf.hazard and len(pmf.durations) == 1:
        return np.full(size, durations[0])
    if len(durations) == 2 and not tailed:
        return np.where(whole_coins(seed, sim._SERVICE, np.full(size, cdf[0])), durations[0], durations[1])
    bits = guide_bits(len(durations))
    width = 1 if bits <= 8 else 2
    raw = role_bytes(seed, sim._SERVICE, width * size).reshape(size, width).astype(np.int64)
    buckets = (raw[:, 0] | (raw[:, -1] << 8 if width == 2 else 0)) >> (8 * width - bits)
    refined = refined_buckets(cdf, bits, tailed)[buckets]
    u = buckets.astype(np.float64)
    u[refined] += np.random.default_rng((seed, sim._SERVICE, 1)).random(int(refined.sum()))
    u /= 1 << bits
    index = np.searchsorted(cdf, u, side="right")
    draws = durations[np.minimum(index, len(durations) - 1)]
    past = np.flatnonzero(index == len(durations)) if tailed else []
    for k in past:  # the smallest j >= 1 with P(D > last) (1 - mu)^j <= 1 - u
        last = int(durations[-1])
        j = math.ceil(math.log((1.0 - u[k]) / pmf._rest(last)) / math.log1p(-pmf.hazard))
        draws[k] = min(last + max(j, 1), horizon + 1)
    return draws


def whole_bernoulli_arrivals(seed, lam, horizon):
    return np.flatnonzero(whole_coins(seed, sim._ARRIVALS, np.full(horizon, lam))) + 1


def whole_geometric_lengths(rng, p, size, cap):
    if p >= 1.0:
        return np.ones(size, dtype=np.int64)
    u = np.maximum(rng.random(size), 1e-300)
    with np.errstate(over="ignore"):
        lengths = np.ceil(np.log(u) / np.log1p(-p))
    return np.minimum(lengths, cap).astype(np.int64)


def whole_markov_arrivals(seed, src: MarkovSource, horizon):
    """Arrival slots of the two-state source over slots 1..horizon.

    The arrivals are a renewal process from slot 0.  One coin per gap leaves
    the active state (heads at p10, or for the first gap tails at the
    stationary active probability), and a leave adds one Geometric(p01) idle
    length to the gap of one slot.  Every gap is at least one slot, so
    horizon + 1 gaps reach past the horizon.
    """
    heads = whole_coins(seed, sim._ARRIVALS, [src.effective_rate] + [src.p10] * horizon)
    heads[0] = not heads[0]
    idles, = role_streams(seed, sim._INACTIVE)
    gaps = np.ones(horizon + 1, dtype=np.int64)
    gaps[heads] += whole_geometric_lengths(idles, src.p01, int(heads.sum()), horizon + 1)
    arrivals = np.cumsum(gaps)
    return arrivals[arrivals <= horizon]


def whole_arrivals(seed, source, horizon):
    if isinstance(source, BernoulliSource):
        return whole_bernoulli_arrivals(seed, source.lam, horizon)
    return whole_markov_arrivals(seed, source, horizon)


def whole_lcfs_deliveries(seed, policy, arrivals, horizon):
    """Preemptive LCFS: an arrival replaces the in-service update.

    The update arriving in slot t with draw s departs in slot t + s - 1
    unless a later arrival lands on or before that slot.
    """
    draws = whole_durations(seed, policy.pmf, len(arrivals), horizon)
    departures = arrivals + draws - 1
    next_arrival = np.append(arrivals[1:], horizon + 1)
    done = (next_arrival > departures) & (departures <= horizon)
    return departures[done], arrivals[done] - 1


def whole_fcfs_deliveries(seed, policy, arrivals, horizon):
    """FCFS of the admitted arrivals.

    Departures follow the waiting-time recursion dep_k = max(arr_k,
    dep_{k-1} + 1) + s_k - 1, unrolled into a cumulative maximum so the
    whole run evaluates vectorially.
    """
    if len(arrivals) == 0:
        return arrivals, arrivals
    draws = whole_durations(seed, policy.pmf, len(arrivals), horizon)
    k = np.arange(1, len(arrivals) + 1)
    csum = np.cumsum(draws - 1)
    csum_prev = np.concatenate(([0], csum[:-1]))
    departures = np.maximum.accumulate(arrivals - k - csum_prev) + csum + k
    done = departures <= horizon
    return departures[done], arrivals[done] - 1


def whole_rad_attempts(seed, pmf, horizon):
    """Every gap is at least the shortest duration, so horizon // shortest + 1 gaps pass the horizon."""
    attempts = np.cumsum(whole_durations(seed, pmf, horizon // min(pmf.durations[0], horizon + 1) + 1, horizon))
    return attempts[attempts <= horizon]


def whole_rad_deliveries(seed, policy, arrivals, horizon):
    """Accumulate-and-dump: the timer runs from slot 0, first attempt at D1.

    An attempt transmits the freshest update that arrived since the previous
    attempt (the buffer only ever holds the freshest update and is empty
    after every attempt); an empty-buffer attempt produces no output.
    """
    attempts = whole_rad_attempts(seed, policy.pmf, horizon)
    last_arrival_idx = np.searchsorted(arrivals, attempts, side="right") - 1
    previous_attempt = np.concatenate(([0], attempts[:-1]))
    filled = np.zeros(len(attempts), dtype=bool)
    seen = last_arrival_idx >= 0
    filled[seen] = arrivals[last_arrival_idx[seen]] > previous_attempt[seen]
    timestamps = arrivals[last_arrival_idx[filled]] - 1
    return attempts[filled], timestamps


whole_DELIVERY_FNS = {
    "lcfs": whole_lcfs_deliveries, "fcfs": whole_fcfs_deliveries, "rad": whole_rad_deliveries,
}


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


def whole_simulate(cfg: SimConfig) -> SimStats:
    """Run one policy simulation; deterministic given the seed."""
    if cfg.policy is None:
        raise InvalidConfig("simulate needs a policy; use empirical_source_age for sources")
    arrivals = whole_arrivals(cfg.seed, cfg.source, cfg.horizon)
    if cfg.policy.alpha < 1.0:  # FCFS admission thinning
        arrivals = arrivals[whole_coins(cfg.seed, sim._COINS, np.full(len(arrivals), cfg.policy.alpha))]
    slots, timestamps = whole_DELIVERY_FNS[cfg.policy.kind](cfg.seed, cfg.policy, arrivals, cfg.horizon)
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
    geometric_pmf(0.02),  # a cdf crowding near 1 puts several boundaries in one guide bucket
    greedy_smp_pmf(0.4),
    uniform_pmf(3),
    deterministic_pmf(1),
    deterministic_pmf(5),
    make_pmf([(2, 0.3), (7, 0.7)]),
    # dump periods dense enough for RAD's scan over a window's slots, at chunks of 7 and 64
    # slots, and one period whose attempts often fall in a later chunk than their arrivals
    make_pmf([(1, 0.5), (2, 0.5)]),
    deterministic_pmf(40),
)
PROBABILITIES = st.just(1.0) | st.floats(0.01, 1.0)


@st.composite
def chunked_runs(draw):
    """A policy run, or a source run when cfg.policy is None."""
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
    return SimConfig(policy, source, horizon=horizon, warmup=warmup, seed=draw(st.integers(0, 2**32 - 1)))


def chunked_and_whole(cfg, chunk):
    """repr of the chunked and the whole-run result of one run."""
    with mock.patch.object(sim, "_CHUNK", chunk):
        if cfg.policy is None:
            return repr(empirical_source_age(cfg, return_pmf=True)), repr(whole_source_age(cfg, return_pmf=True))
        return repr(simulate(cfg)), repr(whole_simulate(cfg))


@settings(max_examples=300, deadline=None)
@given(chunked_runs(), st.sampled_from([7, 64]))
def test_chunked_simulator_equals_the_whole_run_one(run, chunk):
    chunked, whole = chunked_and_whole(run, chunk)
    assert chunked == whole


@pytest.mark.parametrize("chunk", [7, 64])
def test_server_state_crosses_chunk_boundaries(chunk):
    """Every server, source kind and warmup edge, on a horizon no chunk divides.

    With chunks of 7 or 64 slots, LCFS departures, FCFS backlogs, RAD
    attempts (periods 5 or 9, 1 or 2, 30 or 50, and DAD at 1, 2, 5, 40 and
    past the horizon), Markov runs (p01 = 1 or p10 = 1 included) and the
    warmup all reach across chunk boundaries.  RAD's dense two-point timers
    take its scan, the sparse one its binary search, and DAD its attempt
    arithmetic, whose last attempt of a chunk may fall in a later one.
    """
    greedy = greedy_smp_pmf(0.5)
    policies = [
        Policy.lcfs(geometric_pmf(0.25)),
        Policy.fcfs(geometric_pmf(0.4)),
        Policy.fcfs(greedy, alpha=optimal_alpha_for_fcfs(0.5, greedy)[0]),
        Policy.rad(make_pmf([(5, 0.5), (9, 0.5)])),
        Policy.rad(make_pmf([(1, 0.5), (2, 0.5)])),
        Policy.rad(make_pmf([(30, 0.5), (50, 0.5)])),
        *(Policy.dad(tau) for tau in (1, 2, 5, 40, 1_003 + 5)),
        None,
    ]
    sources = [BERN, MarkovSource(0.05, 0.2), MarkovSource(1.0, 0.3), MarkovSource(0.3, 1.0)]
    for policy, source, warmup in itertools.product(policies, sources, (0, 37, 500)):
        cfg = SimConfig(policy, source, horizon=1_003, warmup=warmup, seed=chunk + warmup)
        chunked, whole = chunked_and_whole(cfg, chunk)
        assert chunked == whole, cfg


def test_random_streams_are_pinned():
    """Literal results of short runs, so that a change of the random streams shows.

    The chunked simulator and the whole-run reference share the role keys,
    so their equality cannot catch such a change.
    """
    greedy = greedy_smp_pmf(0.5)
    thinned = Policy.fcfs(greedy, alpha=optimal_alpha_for_fcfs(0.5, greedy)[0])
    runs = {
        (Policy.lcfs(geometric_pmf(0.25)), BERN): "SimStats(mean_age=6.036666666666667, "
        "ci_half_width=0.6162911325946533, delivered=174, output_rate=0.19333333333333333)",
        (thinned, BERN): "SimStats(mean_age=4.278888888888889, ci_half_width=0.24986883970399432, delivered=439, "
        "output_rate=0.48777777777777775)",
        (Policy.dad(5), MarkovSource(0.05, 0.2)): "SimStats(mean_age=25.88888888888889, "
        "ci_half_width=7.351821302043738, delivered=49, output_rate=0.05444444444444444)",
        # D-DAD at mean period about 1.56: dense attempts, RAD's scan over the window's slots
        (policy_from_config({"kind": "ddad", "rate": 1 / 1.5}), BERN): "SimStats(mean_age=3.2855555555555553, "
        "ci_half_width=0.1807475620914356, delivered=379, output_rate=0.4211111111111111)",
        # an overloaded queue: 524 arrivals, 239 departures by the horizon
        (Policy.fcfs(geometric_pmf(0.25)), BERN): "SimStats(mean_age=302.22333333333336, "
        "ci_half_width=53.37044567085367, delivered=218, output_rate=0.24222222222222223)",
    }
    for (policy, source), expected in runs.items():
        assert repr(simulate(SimConfig(policy, source, horizon=1_000, warmup=100, seed=1))) == expected
    cfg = SimConfig(None, MarkovSource(0.4, 0.6), horizon=1_000, warmup=100, seed=1)
    assert repr(empirical_source_age(cfg, return_pmf=True)) == (
        "(SimStats(mean_age=2.4355555555555557, ci_half_width=0.15692978493494353, delivered=352, "
        "output_rate=0.39111111111111113), {1: 0.39111111111111113, 2: 0.2511111111111111, "
        "3: 0.14777777777777779, 4: 0.09, 5: 0.052222222222222225, 6: 0.03, "
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


GREEDY = greedy_smp_pmf(0.5)

#: One run per server route, and the source-only route: RAD's scan over the
#: window's slots (dense attempts, two-point and guide-table timers), RAD's
#: binary search (sparse attempts), DAD, LCFS with guide-table service,
#: thinned FCFS, DAD under a Markov source and the Markov source alone.
ROUTES = {
    "ddad-dense": (policy_from_config({"kind": "ddad", "rate": 1 / 1.5}), BERN),
    "rad-uniform3": (Policy.rad(uniform_pmf(3)), BERN),
    "ddad-sparse": (policy_from_config({"kind": "ddad", "rate": 1 / 11.5}), BERN),
    "dad5": (Policy.dad(5), BERN),
    "lcfs-geo": (Policy.lcfs(geometric_pmf(0.25)), BERN),
    "thinned-fcfs": (Policy.fcfs(GREEDY, alpha=optimal_alpha_for_fcfs(0.5, GREEDY)[0]), BERN),
    "dad5-markov": (Policy.dad(5), MarkovSource(0.05, 0.2)),
    "markov-source": (None, MarkovSource(0.05, 0.2)),
}


def route_run(name, horizon, return_pmf=False):
    """The run of route ``name`` and its config at ``horizon`` slots."""
    policy, source = ROUTES[name]
    run = (lambda cfg: empirical_source_age(cfg, return_pmf)) if policy is None else simulate
    return run, SimConfig(policy, source, horizon=horizon, seed=1)


@pytest.mark.parametrize("name", ROUTES)
def test_traced_memory_does_not_grow_with_the_horizon(name):
    """A run holds one window's buffers: under 2 MB traced at 10^6 slots, and no more at 8 10^6."""
    run, short = route_run(name, 10**6)
    long = SimConfig(short.policy, short.source, horizon=8 * 10**6, seed=1)
    run(short)  # the first call pays one-off allocations
    short_peak, long_peak = traced_peak(run, short), traced_peak(run, long)
    assert short_peak < 2 * 2**20
    assert long_peak <= 1.25 * short_peak
    assert long_peak < 16 * 2**20


@pytest.mark.parametrize("name", ROUTES)
def test_window_size_leaves_long_runs_as_they_are(name):
    """10^6-slot runs give the same results in the shipped windows, in windows of 2^16 slots and in odd ones."""
    run, cfg = route_run(name, 10**6, return_pmf=True)
    results = set()
    for chunk in (sim._CHUNK, 1 << 16, 4093):
        with mock.patch.object(sim, "_CHUNK", chunk):
            results.add(repr(run(cfg)))
    assert len(results) == 1


def test_dump_period_past_the_horizon_runs_as_horizon_plus_one():
    def stats(tau):
        return repr(simulate(SimConfig(Policy.dad(tau), BERN, horizon=20_000, seed=0)))

    assert stats(10 ** 20) == stats(20_001)
    assert stats(10 ** 300) == stats(20_001)


@pytest.mark.parametrize("kind", ["lcfs", "fcfs", "rad"])
def test_draws_past_the_horizon_run_as_horizon_plus_one(kind):
    def stats(far):
        pmf = make_pmf([(2, 0.5), (far, 0.5)])
        return repr(simulate(SimConfig(Policy(kind, pmf), BERN, horizon=20_000, warmup=1_000, seed=3)))

    assert stats(10 ** 20) == stats(20_001)


@pytest.mark.parametrize("kind", ["lcfs", "fcfs", "rad"])
@pytest.mark.parametrize("far_mass", [0.5, 0.01])
def test_draws_past_the_horizon_run_as_horizon_plus_one_in_small_windows(monkeypatch, kind, far_mass):
    """As above in windows of 64 slots, where draws pass the horizon in middle windows.

    LCFS tests only its last arrival's departure against the horizon: every
    earlier one that departs before the next arrival departs by the
    horizon.  The whole-run reference tests every departure.
    """
    monkeypatch.setattr(sim, "_CHUNK", 64)

    def cfg(far):
        pmf = make_pmf([(2, 1.0 - far_mass), (far, far_mass)])
        return SimConfig(Policy(kind, pmf), BERN, horizon=20_000, warmup=1_000, seed=3)

    assert repr(simulate(cfg(10 ** 20))) == repr(simulate(cfg(20_001))) == repr(whole_simulate(cfg(20_001)))


class _Refusing:
    """Stands in for a generator that must not be read."""

    def random(self, size):
        raise AssertionError(f"read {size} doubles of a stream that must not be read")

    def random_raw(self, size):
        raise AssertionError(f"read {size} words of a stream that must not be read")


@pytest.mark.parametrize("kind", ["lcfs", "fcfs", "rad"])
@pytest.mark.parametrize("source", [BERN, MarkovSource(0.05, 0.2)], ids=["bernoulli", "markov"])
@pytest.mark.parametrize("tau", [1, 2, 5, 40, 20_000 + 5])
def test_one_point_pmfs_read_no_service_draw(monkeypatch, kind, source, tau):
    """A pmf of one duration and no tail draws nothing, in windows of 64 slots and of the shipped size.

    Its service role's words and tie stream raise when read, and the run
    still equals the whole-run reference.
    """
    cfg = SimConfig(Policy(kind, deterministic_pmf(tau)), source, horizon=20_000, warmup=1_000, seed=tau)
    expected = repr(whole_simulate(cfg))
    coins = sim._coins
    refusing = sim._Coins(_Refusing().random_raw, _Refusing())
    monkeypatch.setattr(sim, "_coins", lambda cfg, role: refusing if role == sim._SERVICE else coins(cfg, role))
    assert repr(simulate(cfg)) == expected
    monkeypatch.setattr(sim, "_CHUNK", 64)
    assert repr(simulate(cfg)) == expected


class _Crafted:
    """Stands in for a generator: random(size) returns the next ``size`` of the given values."""

    def __init__(self, values):
        self.values, self.at = values, 0

    def random(self, size):
        self.at += size
        return self.values[self.at - size : self.at].copy()


def crafted_sampler(pmf, horizon, u):
    """The sampler of a run, with service coins crafted so that draw k sees u_k.

    Through a guide table of m = 2^bits buckets, draw k reads the bucket
    b = floor(u_k m) in the top bits of one byte, or of two bytes taken
    little-endian, and, where b is refined, the double u_k m - b, so that
    (b + v) / m is u_k exactly.  A coin at p = cdf[0] reads the byte
    b = floor(256 u_k), and a tie (b = floor(256 p)) the double 256 u_k - b:
    it is heads exactly when u_k < p.  One duration reads neither stream.
    Returns the sampler, its coins and which draws read a double.
    """
    durations, cdf, tailed = listed_cdf(pmf, horizon)
    if not pmf.hazard and len(pmf.durations) == 1:
        refined = np.zeros(len(u), dtype=bool)
        coins = sim._Coins(_Refusing().random_raw, _Refusing())
        return sim._sampler(SimConfig(Policy.rad(pmf), BERN, horizon=horizon, warmup=0), coins), coins, refined
    if len(durations) == 2 and not tailed:
        bits, c = 8, math.floor(256 * cdf[0])
        by_bucket = (np.arange(256) == c) & (256 * cdf[0] > c)
    else:
        bits = guide_bits(len(durations))
        by_bucket = refined_buckets(cdf, bits, tailed)
    width = 1 if bits <= 8 else 2
    scaled = np.asarray(u) * (1 << bits)
    buckets = np.floor(scaled).astype(np.int64)
    refined = by_bucket[buckets]
    raw = [(value >> (8 * i)) & 0xFF for value in (buckets << (8 * width - bits)).tolist() for i in range(width)]
    coins = sim._Coins(_CraftedWords(raw).random_raw, _Crafted((scaled - buckets)[refined]))
    return sim._sampler(SimConfig(Policy.rad(pmf), BERN, horizon=horizon, warmup=0), coins), coins, refined


@pytest.mark.parametrize("pmf, horizon", [
    (geometric_pmf(0.02), 10_000),  # about 1,820 listed durations, the cdf crowding near 1
    (uniform_pmf(10_000), 20_000),  # more buckets than the table's cap allows
    (FinitePmf((1, 2, 3), (0.5, 0.25, 0.25 - 5e-10)), 100),  # u >= cdf[-1] occurs
    (make_pmf([(2, 0.5), (10 ** 20, 0.5)]), 1_000),  # a lag past the horizon
    # two durations and no tail, drawn by one coin at cdf[0]
    (make_pmf([(3, 0.1), (8, 0.9)]), 100),
    (FinitePmf((3, 8), (0.1, 0.9 - 5e-10)), 100),  # u >= cdf[-1] occurs
    (make_pmf([(2, 0.3), (10 ** 20, 0.7)]), 50),  # the second duration is clipped to horizon + 1
    # two durations listed and a tail of under 2^-53 past them, which a coin would miss
    (FinitePmf((1, 2), (0.5, 0.5 - 5e-10), 1.0 - 2.0 ** -53), 100),
    # one duration and no tail, drawn without reading the stream
    (deterministic_pmf(5), 100),
    (deterministic_pmf(10 ** 20), 100),
    (make_pmf([(1, 0.1), (2, 0.2), (5, 0.7)]), 100),  # 64 buckets, one byte per draw
    (make_pmf([(2, 0.3), (3, 0.3), (10 ** 20, 0.4)]), 50),  # the last duration is clipped to horizon + 1
])
def test_sampler_draws_equal_searched_inversion(pmf, horizon):
    """Every draw, by whichever route the support picks, equals inversion by binary search of the u it sees.

    The search runs over the durations ``entries`` lists, each with its own
    mass: a tail's rest is not folded onto the last, so a u past their cdf
    falls in the tail beyond them.  The u values are 0, every edge of a
    table of 2^16 buckets, every cdf value with its two neighbouring
    doubles, and the largest double below 1.  A guide-table draw from a
    bucket that holds no cdf point reads no double: it sees only the bucket,
    and every u in it inverts alike.  Each other draw reads one double, and
    a coin's tie reads one only where 256 cdf[0] is not whole.
    """
    listed = [d for d, _ in pmf.entries]
    cdf = np.cumsum([pmf.prob(d) for d in listed])
    u = np.concatenate((
        [0.0, 1.0 - 2.0 ** -53],
        np.arange(1 << 16) / (1 << 16),  # every bucket edge of a table of at most 2^16 buckets
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
    ))
    u = u[(u >= 0.0) & (u < 1.0)]
    sample, coins, refined = crafted_sampler(pmf, horizon, u)
    drawn = sample(len(u))
    assert coins.settled == np.count_nonzero(refined) == getattr(coins.ties, "at", 0)
    durations = np.minimum(np.array(listed, dtype=np.float64), horizon + 1).astype(np.int64)
    expected = durations[np.minimum(np.searchsorted(cdf, u, side="right"), len(durations) - 1)]
    inside = u < cdf[-1] if pmf.hazard else np.ones(len(u), dtype=bool)
    np.testing.assert_array_equal(drawn[inside], expected[inside])
    assert np.all(drawn[~inside] > listed[-1])


@pytest.mark.parametrize("pmf", [make_pmf([(1, 0.1), (2, 0.2), (5, 0.7)]), uniform_pmf(20), geometric_pmf(0.25)],
                         ids=["64-buckets", "512-buckets", "2048-buckets"])
def test_service_bytes_pick_the_bucket_by_their_top_bits(pmf):
    """Bytes, or little-endian byte pairs, just below, at and just above each bucket edge.

    With m = 2^bits buckets a draw reads w, one byte when m <= 256 and two
    otherwise, and its bucket is w >> (8 width - bits): the low bits do not
    count.  Each refined draw reads v = 1/2 and inverts u = (b + 1/2) / m;
    any other inverts the bucket's lower edge.
    """
    horizon = 1_000
    durations, cdf, tailed = listed_cdf(pmf, horizon)
    bits = guide_bits(len(durations))
    width = 1 if bits <= 8 else 2
    shift = 8 * width - bits
    values = [w for e in range(1 << bits) for w in (e << shift) + np.array([-1, 0, 1]) if 0 <= w < 1 << 8 * width]
    buckets = np.array(values) >> shift
    refined = refined_buckets(cdf, bits, tailed)[buckets]
    raw = [(int(w) >> (8 * i)) & 0xFF for w in values for i in range(width)]
    coins = sim._Coins(_CraftedWords(raw).random_raw, _Crafted(np.full(np.count_nonzero(refined), 0.5)))
    drawn = sim._sampler(SimConfig(Policy.lcfs(pmf), BERN, horizon=horizon, warmup=0), coins)(len(values))
    u = (buckets + np.where(refined, 0.5, 0.0)) / (1 << bits)
    np.testing.assert_array_equal(drawn, durations[np.searchsorted(cdf, u, side="right")])
    assert coins.ties.at == np.count_nonzero(refined) > 0
    assert coins.drawn == len(raw)


def test_service_byte_pairs_are_little_endian():
    """uniform(32) has 512 buckets and its cdf on their edges, so no draw is refined.

    Draw k is 1 plus the top 5 bits of bytes 2k and 2k + 1 of seed 7's
    service role, the first least significant: 0xd5c6 gives 27, where the
    bytes read the other way round, 0xc6d5, would give 25.
    """
    cfg = SimConfig(Policy.lcfs(uniform_pmf(32)), BERN, horizon=100, warmup=0, seed=7)
    coins = sim._Coins(sim._stream(cfg, sim._SERVICE).bit_generator.random_raw, _Refusing())
    assert role_bytes(7, sim._SERVICE, 16).tolist() == [0xC6, 0xD5, 0x58, 0xBA, 0x89, 0xCC, 0x9B, 0xF9,
                                                        0x21, 0x62, 0xC7, 0x89, 0x9A, 0xFF, 0x72, 0xE2]
    assert sim._sampler(cfg, coins)(8).tolist() == [27, 24, 26, 32, 13, 18, 32, 29]


def rule_reach(c, bits):
    """P(u >= c) under the byte rule, exactly: the buckets above c's, and in c's the doubles
    v = i 2^-53 with float64 (b + v) / m >= c, found by bisection over i (the sum is monotone in i)."""
    m = 1 << bits
    b = math.floor(c * m)
    if b >= m:
        return Fraction(0)
    low, high = 0, 1 << 53
    while low < high:
        mid = (low + high) // 2
        if (b + mid * 2.0 ** -53) / m >= c:
            high = mid
        else:
            low = mid + 1
    return Fraction(m - 1 - b, m) + Fraction((1 << 53) - low, m << 53)


@pytest.mark.parametrize("pmf, horizon", [
    (make_pmf([(1, 0.1), (2, 0.2), (5, 0.7)]), 100),
    (uniform_pmf(20), 100),
    (geometric_pmf(0.02), 10_000),  # 2^15 buckets: the rounding of b + v is largest near 1
    (geometric_pmf(0.3), 40),  # a tail past the list
])
def test_guide_table_probabilities_are_within_the_bound(pmf, horizon):
    """Each listed duration's probability under the byte rule, in exact rationals.

    A bucket has probability 1/m and holds no cdf point unless it is
    refined, so P(u >= c) for each cdf point c settles every duration's
    probability.  v is a multiple of 2^-53 and b + v rounds by at most
    2^-54 m, so P(u < c) lies in [c - 2^-54, c + 2^-53 / m], and each step of
    the cdf (a duration's probability, or the tail's past the list) is
    matched within 2^-54 + 2^-53 / m < 2^-53.
    """
    durations, cdf, tailed = listed_cdf(pmf, horizon)
    cdf = np.minimum(cdf, 1.0)  # a cdf that rounds past 1 is reached by every u
    bits = guide_bits(len(durations))
    bound = Fraction(1, 2**54) + Fraction(1, 2**53 << bits)
    below = [1 - rule_reach(c, bits) for c in cdf.tolist()]  # P(u < c)
    for c, p in zip(cdf.tolist(), below):
        assert -Fraction(1, 2**54) <= p - Fraction(c) <= Fraction(1, 2**53 << bits)
    steps = np.diff(np.array([Fraction(0)] + [Fraction(c) for c in cdf.tolist()] + [Fraction(1)], dtype=object))
    drawn = np.diff(np.array([Fraction(0)] + below + [Fraction(1)], dtype=object))
    if not tailed:  # a u past the list's cdf takes the last duration
        steps[-2:], drawn[-2:] = [steps[-2] + steps[-1], 0], [drawn[-2] + drawn[-1], 0]
    assert max(abs(drawn - steps)) <= bound < Fraction(1, 2**53)
    assert len(durations) > 2


SPLIT_PMFS = [geometric_pmf(0.25), uniform_pmf(3), make_pmf([(2, 0.3), (7, 0.7)]), geometric_pmf(0.02)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 40) | st.just(7) | st.integers(0, 400).map(lambda k: 2 * k + 1), max_size=12),
       st.sampled_from(SPLIT_PMFS), st.integers(0, 2**32 - 1))
def test_service_draws_in_any_split_equal_one_draw(sizes, pmf, seed):
    """Sizes of 0, 7 and odd counts split the service role's words between calls; the draws,
    the bytes and doubles read, and both streams' next values are those of one call."""
    cfg = SimConfig(Policy.lcfs(pmf), BERN, horizon=10_000, warmup=0, seed=seed)
    split, whole = sim._coins(cfg, sim._SERVICE), sim._coins(cfg, sim._SERVICE)
    sample = sim._sampler(cfg, split)
    drawn = [sample(size) for size in sizes]
    np.testing.assert_array_equal(np.concatenate([np.zeros(0, dtype=np.int64)] + drawn),
                                  sim._sampler(cfg, whole)(sum(sizes)))
    assert (split.drawn, split.settled) == (whole.drawn, whole.settled)
    assert split.words(1)[0] == whole.words(1)[0]
    assert split.ties.random() == whole.ties.random()


def test_guide_table_draw_frequencies_are_the_pmf():
    """4 10^6 draws of a 3-point pmf land within 5 sigma of each probability, and the refined
    draws within 5 sigma of the refined buckets' share: 2 of 64, one per inner cdf point."""
    pmf, size = make_pmf([(1, 0.1), (4, 0.3), (9, 0.6)]), 4_000_000
    cfg = SimConfig(Policy.lcfs(pmf), BERN, horizon=100, warmup=0, seed=2026)
    coins = sim._coins(cfg, sim._SERVICE)
    counts = np.bincount(sim._sampler(cfg, coins)(size), minlength=10)
    for duration, p in pmf.entries:
        assert abs(counts[duration] - size * p) <= 5 * math.sqrt(size * p * (1 - p))
    assert counts.sum() == counts[[1, 4, 9]].sum() == size
    assert coins.drawn == size
    assert abs(coins.settled - size / 32) <= 5 * math.sqrt(size / 32 * (1 - 1 / 32))


@pytest.mark.parametrize("mu, horizon, reach", [
    (1e-4, 10 ** 7, (1 << 16) + 1),  # the list stops at 2^16 durations, with 0.14% of the mass beyond
    (1e-3, 1_000, 1_001),  # the list stops at the horizon: every draw past it is horizon + 1
    (0.5, 100, 53),  # the list stops below 2^-53 of mass
])
def test_sampler_inverts_the_tail_in_closed_form(mu, horizon, reach):
    """Each draw d for u has P(D > d) <= 1 - u < P(D > d - 1) up to rounding,
    P(D > d) = (1 - mu)^d, or is horizon + 1 where P(D > horizon) >= 1 - u."""
    u = np.concatenate((np.random.default_rng(5).random(20_000), 1.0 - 2.0 ** -np.arange(1.0, 54.0)))
    drawn = crafted_sampler(geometric_pmf(mu), horizon, u)[0](len(u))
    left, tol = 1.0 - u, 1e-9 * (1.0 - u) + 1e-12
    survival = (1.0 - mu) ** drawn.astype(np.float64)
    before = survival / (1.0 - mu)
    clipped = drawn == horizon + 1
    assert np.all(before[clipped] >= left[clipped] - tol[clipped])
    assert np.all(survival[~clipped] <= left[~clipped] + tol[~clipped])
    assert np.all(before[~clipped] >= left[~clipped] - tol[~clipped])
    assert np.all(drawn <= horizon + 1)
    assert drawn.max() >= reach


def test_fcfs_stops_serving_past_the_horizon():
    """An overloaded FCFS queue draws service only until its departures pass the horizon.

    The whole-run reference gives every arrival's departure; the windows
    served are those up to the first whose last departure is past the horizon.
    """
    cfg = SimConfig(Policy.fcfs(geometric_pmf(0.25)), BERN, horizon=1_000_000, seed=1)
    served, sampler = [], sim._sampler

    def counting(cfg, rng):
        sample = sampler(cfg, rng)
        return lambda size: served.append(size) or sample(size)

    with mock.patch.object(sim, "_sampler", counting):
        stats = simulate(cfg)
    arrivals = whole_arrivals(cfg.seed, cfg.source, cfg.horizon)
    steps = whole_durations(cfg.seed, cfg.policy.pmf, len(arrivals), cfg.horizon) - 1
    k = np.arange(1, len(arrivals) + 1)
    departures = np.maximum.accumulate(arrivals - k - (np.cumsum(steps) - steps)) + np.cumsum(steps) + k
    ends = np.minimum(np.arange(1, -(-cfg.horizon // sim._CHUNK) + 1) * sim._CHUNK, cfg.horizon)
    window_last = departures[np.searchsorted(arrivals, ends, side="right") - 1]
    first_past = int(np.argmax(window_last > cfg.horizon))
    assert window_last[first_past] > cfg.horizon
    assert len(served) == first_past + 1 < len(ends) == -(-cfg.horizon // sim._CHUNK)
    assert sum(served) == np.searchsorted(arrivals, ends[first_past], side="right")
    assert repr(stats) == repr(whole_simulate(cfg))
