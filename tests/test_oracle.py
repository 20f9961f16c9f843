import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ageleak
from ageleak import (
    FinitePmf,
    Policy,
    brute_force_maxl,
    deterministic_pmf,
    geometric_pmf,
    greedy_smp_pmf,
    is_smp,
    make_pmf,
    rad_leakage_bits,
    smp_leakage_bits,
    uniform_pmf,
)
from ageleak.errors import AgeLeakError, HorizonTooLarge, InvalidConfig, UnnormalizedMass
from ageleak.oracle import _maxl_series, _step, _walk
from ageleak.pmf import _pmf


# --- per-input channels: the depth-n rows of one walk over all 2^n inputs ---


def _word(bits):
    return sum(b << (len(bits) - t) for t, b in enumerate(bits, 1))


def _channels(policy, n):
    """(t, x, y, P(y | x)) at every depth t = 0..n of one whole-table walk
    over all 2^n inputs, as arrays."""
    root = np.zeros(1, np.int64), np.ones(1)  # the empty prefixes
    yield 0, root[0], root[0], root[1]
    step = _step(policy, n)
    for t, _, channel in _walk(step, n, root, 0):
        yield t, *channel


def _depth_rows(policy, n):
    """The depth-n rows (x, y, P(y | x)) of one whole-table walk, as three arrays."""
    *_, (_, x, y, p) = _channels(policy, n)
    return x, y, p


def _rows(policy, n):
    """Per input word x, {output word y: P(y | x)} over the positive entries."""
    rows = [{} for _ in range(1 << n)]
    for x, y, p in zip(*(a.tolist() for a in _depth_rows(policy, n))):
        if p > 0.0:
            rows[x][y] = p
    return rows


def _channel(policy, bits):
    """{output bits: P(y | x)} for the one input ``bits``."""
    n = len(bits)
    row = _rows(policy, n)[_word(bits)]
    return {tuple((y >> (n - t)) & 1 for t in range(1, n + 1)): p for y, p in row.items()}


def _ml_inputs_attain_the_maximum(policy, n):
    """Whether each n-slot output y has max_x P(y | x) at its designated input.

    That input puts the arrivals s_min - 1 slots ahead of the departures for
    coupled policies and equals y for RAD; the match is to 1e-12.
    """
    x, y, p = _depth_rows(policy, n)
    shift = policy.pmf.s_min - 1 if policy.coupled else 0
    best, designated = np.zeros(1 << n), np.zeros(1 << n)
    np.maximum.at(best, y, p)
    hit = (y << shift) == x
    designated[y[hit]] = p[hit]
    return bool(np.all(np.abs(designated - best) <= 1e-12))


def test_zero_delay_passthrough():
    policy = Policy.lcfs(deterministic_pmf(1))
    dist = _channel(policy, (1, 0, 1, 0))
    assert dist == {(1, 0, 1, 0): 1.0}


def test_lcfs_single_update_two_service_draws():
    policy = Policy.lcfs(greedy_smp_pmf(0.5))
    dist = _channel(policy, (1, 0))
    assert dist[(1, 0)] == pytest.approx(0.5)
    assert dist[(0, 1)] == pytest.approx(0.5)
    dist = _channel(policy, (1, 0, 0, 0))
    assert dist[(1, 0, 0, 0)] == pytest.approx(0.5)
    assert dist[(0, 1, 0, 0)] == pytest.approx(0.5)
    assert len(dist) == 2


def test_lcfs_preemption_discards_in_service_update():
    # second arrival preempts the first even on its departure slot
    policy = Policy.lcfs(deterministic_pmf(2))
    dist = _channel(policy, (1, 1, 0))
    assert dist == {(0, 0, 1): 1.0}


def test_fcfs_queues_all_updates():
    policy = Policy.fcfs(deterministic_pmf(1))
    dist = _channel(policy, (1, 1, 0))
    assert dist == {(1, 1, 0): 1.0}


def test_rad_empty_input_never_transmits():
    policy = Policy.rad(deterministic_pmf(2))
    dist = _channel(policy, (0, 0, 0, 0))
    assert dist == {(0, 0, 0, 0): 1.0}


def test_rad_dumps_freshest_on_schedule():
    policy = Policy.rad(deterministic_pmf(2))
    dist = _channel(policy, (1, 0, 0, 1))
    assert dist == {(0, 1, 0, 1): 1.0}


def test_channel_rows_normalize():
    policies = [
        Policy.lcfs(greedy_smp_pmf(0.3)),
        Policy.fcfs(greedy_smp_pmf(0.5)),
        Policy.rad(geometric_pmf(0.5)),
        Policy.rad(uniform_pmf(3)),
    ]
    n = 6
    for policy in policies:
        for row in _rows(policy, n):
            assert math.fsum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_brute_force_examples():
    got = brute_force_maxl(Policy.lcfs(greedy_smp_pmf(0.5)), 4)
    assert got.bits == pytest.approx(4 * math.log2(1.5), abs=1e-12)
    assert brute_force_maxl(Policy.rad(deterministic_pmf(2)), 4).bits == pytest.approx(2.0)
    assert brute_force_maxl(Policy.lcfs(deterministic_pmf(1)), 1).bits == pytest.approx(1.0)


def test_brute_force_matches_coupled_closed_form():
    for beta in (0.3, 1.0):
        pmf = greedy_smp_pmf(beta)
        for kind in ("lcfs", "fcfs"):
            series = _maxl_series(Policy(kind, pmf), 7)
            for n in range(1, 8):
                want = smp_leakage_bits(n, 1, beta).bits
                assert abs(series[n] - want) <= 1e-9


def test_brute_force_coupled_shifted_support():
    # deterministic two-slot service: counts follow the Fibonacci recurrence
    for kind in ("lcfs", "fcfs"):
        series = _maxl_series(Policy(kind, deterministic_pmf(2)), 8)
        for n in range(1, 9):
            want = smp_leakage_bits(n, 2, 1.0).bits
            assert abs(series[n] - want) <= 1e-9


def test_queue_discipline_independence():
    for beta in (0.3, 0.5):
        pmf = greedy_smp_pmf(beta)
        lcfs, fcfs = _maxl_series(Policy.lcfs(pmf), 7), _maxl_series(Policy.fcfs(pmf), 7)
        for n in range(1, 8):
            assert abs(lcfs[n] - fcfs[n]) <= 1e-11


def test_brute_force_matches_rad_recursion():
    pmfs = [deterministic_pmf(3), uniform_pmf(2), geometric_pmf(0.5)]
    for pmf in pmfs:
        series = _maxl_series(Policy.rad(pmf), 8)
        for n in range(1, 9):
            got = series[n]
            want = rad_leakage_bits(n, pmf).bits
            assert abs(got - want) <= 1e-9
            if pmf.d_max == pmf.s_min:  # deterministic: also the counting form
                assert abs(got - n // pmf.s_min) <= 1e-9


def test_verify_ml_input():
    assert _ml_inputs_attain_the_maximum(Policy.lcfs(greedy_smp_pmf(0.5)), 6)
    assert _ml_inputs_attain_the_maximum(Policy.fcfs(greedy_smp_pmf(0.3)), 6)
    assert _ml_inputs_attain_the_maximum(Policy.lcfs(deterministic_pmf(2)), 7)
    assert _ml_inputs_attain_the_maximum(Policy.rad(geometric_pmf(0.5)), 8)
    assert _ml_inputs_attain_the_maximum(Policy.rad(uniform_pmf(3)), 7)
    assert _ml_inputs_attain_the_maximum(Policy.lcfs(deterministic_pmf(1)), 5)


def test_horizon_caps():
    policy = Policy.rad(deterministic_pmf(3))
    with pytest.raises(HorizonTooLarge):
        brute_force_maxl(policy, 15)
    with pytest.raises(InvalidConfig):
        brute_force_maxl(policy, 2.5)  # not truncated to 2
    with pytest.raises(InvalidConfig):
        brute_force_maxl(policy, -1)


def test_oracle_rejects_thinned_fcfs():
    with pytest.raises(InvalidConfig):
        brute_force_maxl(Policy.fcfs(deterministic_pmf(1), alpha=0.5), 4)


def test_zero_horizon():
    assert brute_force_maxl(Policy.lcfs(deterministic_pmf(1)), 0).bits == 0.0
    for kind in ("lcfs", "fcfs", "rad"):
        assert _maxl_series(Policy(kind, geometric_pmf(0.5)), 0) == [0.0]


# --- independent route: one input at a time, every draw sequence in full ---


def _ref_coupled_row(kind, entries, n, x):
    """Output distribution of an LCFS/FCFS server for one input word.

    States are (pending departure slot, output-so-far); an LCFS arrival
    replaces any in-service update and redraws its service, an FCFS arrival
    queues.  A service started in slot t with draw s departs in slot
    t + s - 1; same-slot preemption beats the would-be departure.  Drawing
    each service whole, with its pmf weight, is the independent
    representation the oracle's clock-and-count step is checked against.
    """
    lcfs = kind == "lcfs"
    states = {(0, 0): 1.0}
    for t in range(1, n + 1):
        arrived = (x >> (n - t)) & 1
        bit = 1 << (n - t)
        arrived_count = bin(x >> (n - t)).count("1")
        nxt = {}
        for (pend, yb), pr in states.items():
            if lcfs:
                start = arrived
            else:
                start = pend == 0 and arrived_count - bin(yb).count("1") > 0
            if start:
                for s, gp in entries:
                    dep = t + s - 1
                    key = (0, yb | bit) if dep == t else (dep, yb)
                    nxt[key] = nxt.get(key, 0.0) + pr * gp
                continue
            key = (0, yb | bit) if pend == t else (pend, yb)
            nxt[key] = nxt.get(key, 0.0) + pr
        states = nxt
    row = {}
    for (_, yb), pr in states.items():
        row[yb] = row.get(yb, 0.0) + pr
    return row


def _ref_rad_arrays(pmf, n):
    """Every dump-attempt sequence within n slots as (window masks, output bits, probs).

    A sequence t_1 < ... < t_k has probability g(t_1) g(t_2 - t_1) ...
    g(t_k - t_{k-1}) * P(D > n - t_k).
    """
    tails = [pmf.tail(r) for r in range(n + 1)]
    seqs = []

    def rec(last, slots, prob):
        if tails[n - last] > 0.0:
            seqs.append((tuple(slots), prob * tails[n - last]))
        for d, p in pmf.entries:
            if last + d > n:
                break
            rec(last + d, slots + [last + d], prob * p)

    rec(0, [], 1.0)
    width = max(1, max(len(s) for s, _ in seqs))
    masks = np.zeros((len(seqs), width), dtype=np.int64)
    bits = np.zeros((len(seqs), width), dtype=np.int64)
    probs = np.array([p for _, p in seqs])
    for ui, (slots, _) in enumerate(seqs):
        prev = 0
        for ji, t in enumerate(slots):
            masks[ui, ji] = sum(1 << (n - i) for i in range(prev + 1, t + 1))
            bits[ui, ji] = 1 << (n - t)
            prev = t
    return masks, bits, probs


def _ref_rad_row(arrays, n, x):
    """An attempt transmits iff an arrival fell in its window since the last one."""
    masks, bits, probs = arrays
    ys = np.where((x & masks) != 0, bits, 0).sum(axis=1)
    vec = np.bincount(ys, weights=probs, minlength=1 << n)
    return {y: float(p) for y, p in enumerate(vec) if p > 0.0}


def _ref_rows(policy, n):
    if policy.coupled:
        return [_ref_coupled_row(policy.kind, policy.pmf.entries, n, x) for x in range(1 << n)]
    arrays = _ref_rad_arrays(policy.pmf, n)
    return [_ref_rad_row(arrays, n, x) for x in range(1 << n)]


def _pmfs(max_duration):
    """Random pmfs on at most four durations, weights kept away from 0."""
    return st.lists(
        st.tuples(st.integers(1, max_duration), st.floats(0.05, 1.0)),
        min_size=1, max_size=4, unique_by=lambda e: e[0],
    ).map(lambda e: make_pmf([(d, w / math.fsum(w for _, w in e)) for d, w in e]))


@st.composite
def _tailed_pmfs(draw, max_duration):
    """A random head on at most four durations whose last mass goes on as a
    tail of a random hazard."""
    durations = sorted(draw(st.sets(st.integers(1, max_duration), min_size=1, max_size=4)))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(durations), max_size=len(durations)))
    mu = draw(st.floats(0.05, 0.95))
    total = math.fsum(weights) + weights[-1] * (1.0 - mu) / mu
    return _pmf(tuple(durations), tuple(w / total for w in weights), mu)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["lcfs", "fcfs", "rad"]),
    pmf=st.one_of(_pmfs(6), _tailed_pmfs(6)),
    bits=st.lists(st.integers(0, 1), max_size=7),
)
def test_kernel_matches_per_input_reference(kind, pmf, bits):
    policy = Policy(kind, pmf)
    n = len(bits)
    rows = _ref_rows(policy, n)
    for got, want in zip(_rows(policy, n), rows, strict=True):
        assert got.keys() == want.keys()
        assert all(abs(got[y] - want[y]) <= 1e-12 for y in want)
    best = {}
    for row in rows:
        for y, p in row.items():
            best[y] = max(best.get(y, 0.0), p)
    assert abs(brute_force_maxl(policy, n).bits - math.log2(math.fsum(best.values()))) <= 1e-12


def test_kernel_covers_smp_and_non_smp_service():
    # the property test above draws both; pin one of each in case it does not
    for pmf in (make_pmf([(1, 0.2), (3, 0.8)]), make_pmf([(2, 0.5), (3, 0.3), (5, 0.2)])):
        for kind in ("lcfs", "fcfs"):
            policy = Policy(kind, pmf)
            for got, want in zip(_rows(policy, 6), _ref_rows(policy, 6), strict=True):
                assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["lcfs", "fcfs", "rad"]), pmf=_pmfs(6), n=st.integers(0, 8))
def test_series_entries_are_the_horizon_answers(kind, pmf, n):
    # one walk to n against a fresh walk to each t; the walk to n keeps apart
    # the states that a walk to t lumps past t, so sums may differ in rounding
    policy = Policy(kind, pmf)
    series = _maxl_series(policy, n)
    assert len(series) == n + 1 and series[0] == 0.0
    assert series[n] == brute_force_maxl(policy, n).bits
    for t in range(1, n):
        assert abs(series[t] - brute_force_maxl(policy, t).bits) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["lcfs", "fcfs", "rad"]),
    pmf=st.one_of(_pmfs(6), _tailed_pmfs(6)),
    n=st.integers(0, 8),
)
@example(kind="fcfs", pmf=make_pmf([(d, 0.1) for d in range(1, 6)] + [(6, 0.5)]), n=12)
@example(kind="fcfs", pmf=greedy_smp_pmf(0.3), n=11)
@example(kind="lcfs", pmf=greedy_smp_pmf(0.3), n=11)
def test_split_walk_equals_the_whole_table_walk(kind, pmf, n):
    # the series joins two half-walks through the server state at n // 2;
    # the whole-table walk sums the same products in another order.  Few
    # states meet at the split up to n = 8, so the fixed cases past it make
    # the matrix-product join sum over many states
    policy = Policy(kind, pmf)
    series = _maxl_series(policy, n)
    assert len(series) == n + 1
    for t, _, y, p in _channels(policy, n):
        best = np.zeros(1 << t)
        np.maximum.at(best, y, p)
        assert abs(series[t] - math.log2(math.fsum(best[best > 0]))) <= 1e-14


@pytest.mark.parametrize(
    "entries",
    [[(2, 0.5), (3, 0.3), (4, 0.2)], [(2, 0.6), (5, 0.4)], [(3, 0.4), (4, 0.4), (6, 0.2)]],
)
def test_brute_force_matches_smp_closed_form_past_one_slot(entries):
    pmf = make_pmf(entries)
    s_min = pmf.s_min
    assert is_smp(pmf) and s_min > 1
    for kind in ("lcfs", "fcfs"):
        for n in range(1, 11):
            got = brute_force_maxl(Policy(kind, pmf), n).bits
            assert abs(got - smp_leakage_bits(n, s_min, pmf.prob(s_min)).bits) <= 1e-9


def test_verify_ml_input_at_cap():
    assert _ml_inputs_attain_the_maximum(Policy.lcfs(greedy_smp_pmf(0.5)), 12)
    assert _ml_inputs_attain_the_maximum(Policy.rad(geometric_pmf(0.5)), 12)


@pytest.mark.parametrize("kind, d", [("lcfs", 1), ("fcfs", 2), ("rad", 2)])
def test_unnormalized_pmf_is_refused(kind, d):
    policy = Policy(kind, FinitePmf((d,), (0.5,)))  # bypasses make_pmf
    with pytest.raises(AgeLeakError):
        brute_force_maxl(policy, 4)
    with pytest.raises(UnnormalizedMass):
        _maxl_series(policy, 4)


@pytest.mark.parametrize("kind", ["lcfs", "fcfs", "rad"])
@pytest.mark.parametrize("short, whole", [
    (FinitePmf((1, 2), (0.5, 0.5 - 1e-6)), FinitePmf((1, 2), (0.5, 0.5))),
    # head 0.5 + g(2), and g(2) again in the tail of hazard 1/2
    (FinitePmf((1, 2), (0.5, 0.25 - 5e-7), 0.5), FinitePmf((1, 2), (0.5, 0.25), 0.5)),
], ids=["finite", "tailed"])
def test_mass_one_millionth_short_is_refused(kind, short, whole):
    """The row-sum check at its tolerance's scale; with a tail it also checks the closed-form tail."""
    with pytest.raises(UnnormalizedMass):
        _maxl_series(Policy(kind, short), 4)
    assert len(_maxl_series(Policy(kind, whole), 4)) == 5


def test_unnormalized_pmf_is_refused_under_optimisation():
    code = (
        "from ageleak import FinitePmf, Policy, brute_force_maxl\n"
        "from ageleak.errors import UnnormalizedMass\n"
        "try:\n"
        "    brute_force_maxl(Policy.lcfs(FinitePmf((1,), (0.5,))), 3)\n"
        "except UnnormalizedMass:\n"
        "    print('refused')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ageleak.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert out.stdout.strip() == "refused", out.stderr


def test_oracle_logs_one_debug_line_per_call(caplog):
    with caplog.at_level(logging.DEBUG, logger="ageleak.oracle"):
        brute_force_maxl(Policy.fcfs(greedy_smp_pmf(0.5)), 9)
        brute_force_maxl(Policy.rad(geometric_pmf(0.5)), 3)
    lines = [r.getMessage() for r in caplog.records if r.name == "ageleak.oracle"]
    assert len(lines) == 2
    pattern = (r"oracle (\w+) n=(\d+): (\d+) inputs, split at (\d+) with (\d+) states, "
               r"(\d+) \+ (\d+) rows expanded, (\d+) entries joined in (\d+) chunks")
    kind, n, inputs, split, states, pre, suf, joined, chunks = re.fullmatch(pattern, lines[0]).groups()
    assert (kind, n, inputs, split) == ("fcfs", "9", "512", "4")
    assert all(int(c) > 0 for c in (states, pre, suf, joined))
    assert int(chunks) >= 5  # at least one per depth past the split
    assert re.fullmatch(pattern, lines[1]).group(1, 2, 3, 4) == ("rad", "3", "8", "1")
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="ageleak.oracle"):
        brute_force_maxl(Policy.lcfs(geometric_pmf(0.25)), 14)
    # a memoryless service clock stays at age 0, so the split sees only idle and busy
    line, = (r.getMessage() for r in caplog.records if r.name == "ageleak.oracle")
    assert re.fullmatch(pattern, line).group(1, 2, 5) == ("lcfs", "14", "2")
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="ageleak.oracle"):
        brute_force_maxl(Policy.lcfs(greedy_smp_pmf(0.5)), 4)
    assert not caplog.records


@pytest.mark.parametrize("policy", [
    Policy.rad(geometric_pmf(0.5)), Policy.fcfs(greedy_smp_pmf(0.3)), Policy.fcfs(geometric_pmf(0.5)),
])
def test_oracle_traced_peak_stays_bounded(policy):
    """Each half walks at most 2^7 inputs and the join runs in blocks of
    fixed size, so one call at the horizon cap holds a few MB, not the
    10^7 rows of a whole-table walk."""
    for n in (12, 14):
        tracemalloc.start()
        try:
            _maxl_series(policy, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, (n, peak)
