import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ageleak import (
    FinitePmf,
    Policy,
    ddad_policy,
    deterministic_pmf,
    geometric_pmf,
    greedy_smp_pmf,
    is_smp,
    make_pmf,
    pmf_moments,
    uniform_pmf,
)
from ageleak.errors import (
    DuplicateDuration,
    NegativeProbability,
    NonPositiveDuration,
    PmfError,
    UnnormalizedMass,
)
from ageleak.leakage import rad_rate
from ageleak.pmf import _pmf


def test_make_pmf_point_mass():
    pmf = make_pmf([(1, 1.0)])
    assert pmf.entries == ((1, 1.0),)
    assert pmf.s_min == 1
    assert pmf.d_max == 1


def test_make_pmf_greedy_structure():
    pmf = make_pmf([(1, 0.4), (2, 0.4), (3, 0.2)])
    assert pmf.s_min == 1
    assert is_smp(pmf)


def test_make_pmf_sorts_and_drops_zero_mass():
    pmf = make_pmf([(3, 0.5), (1, 0.5), (2, 0.0)])
    assert pmf.durations == (1, 3)


def test_make_pmf_idempotent():
    pmf = make_pmf([(2, 0.25), (5, 0.75)])
    assert make_pmf(pmf.entries) == pmf


def test_make_pmf_errors():
    with pytest.raises(UnnormalizedMass):
        make_pmf([(1, 0.6), (2, 0.6)])
    with pytest.raises(UnnormalizedMass):
        make_pmf([])
    with pytest.raises(NegativeProbability):
        make_pmf([(1, -0.1), (2, 1.1)])
    with pytest.raises(NegativeProbability):
        make_pmf([(1, 0.5), (2, math.nan)])
    with pytest.raises(NonPositiveDuration):
        make_pmf([(0, 1.0)])
    with pytest.raises(NonPositiveDuration):
        make_pmf([(1.5, 1.0)])
    with pytest.raises(DuplicateDuration):
        make_pmf([(2, 0.5), (2, 0.5)])
    for duration in ("a", [1], math.inf):
        with pytest.raises(NonPositiveDuration):
            make_pmf([(duration, 1.0)])
    for probability in ("x", [1], None):
        with pytest.raises(NegativeProbability):
            make_pmf([(1, probability)])


def test_moments_deterministic():
    m = pmf_moments(deterministic_pmf(5))
    assert (m.mean, m.second_moment, m.variance) == (5.0, 25.0, 0.0)


def test_moments_uniform():
    m = pmf_moments(uniform_pmf(3))
    assert m.mean == pytest.approx(2.0, abs=1e-12)
    assert m.second_moment == pytest.approx(14.0 / 3.0, abs=1e-12)
    assert m.variance == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_moments_two_point_dither():
    # Two-point dump schedule achieving leakage rate 0.4 (see optimizer).
    z0 = 2.0 ** 0.4
    p_i = (0.5 - z0 ** -3) / (z0 ** -2 - z0 ** -3)
    m = pmf_moments(make_pmf([(2, p_i), (3, 1.0 - p_i)]))
    assert m.mean == pytest.approx(2.5346019613807638, abs=1e-12)


def test_deterministic_variance_zero_everywhere():
    for tau in range(1, 1001, 7):
        assert pmf_moments(deterministic_pmf(tau)).variance == 0.0


def test_is_smp():
    assert is_smp(geometric_pmf(0.5)) is True
    assert is_smp(make_pmf([(1, 0.2), (2, 0.8)])) is False
    wide = make_pmf([(3, 0.5), (4, 0.3), (7, 0.2)])
    assert is_smp(wide) is True and wide.s_min == 3


def test_smp_preserved_under_shift():
    rng = np.random.default_rng(11)
    for _ in range(100):
        width = int(rng.integers(1, 8))
        raw = rng.random(width)
        raw = np.sort(raw)[::-1]  # decreasing masses: SMP by construction
        probs = raw / raw.sum()
        base = make_pmf([(d + 1, p) for d, p in enumerate(probs)])
        assert is_smp(base)
        offset = int(rng.integers(1, 50))
        shifted = make_pmf([(d + offset, p) for d, p in base.entries])
        assert is_smp(shifted) and shifted.s_min == 1 + offset


def test_geometric_mu_one_is_deterministic():
    assert geometric_pmf(1.0) == deterministic_pmf(1)


def test_geometric_entries_fold_the_tail():
    pmf = geometric_pmf(0.5)
    assert pmf.durations == (1,) and pmf.hazard == 0.5 and pmf.d_max == math.inf
    assert pmf.prob(1) == 0.5
    assert pmf.prob(2) == 0.25
    assert pmf.prob(100) == 0.5 ** 100
    assert pmf.tail(0) == 1.0 and pmf.tail(10) == 0.5 ** 10
    entries = pmf.entries
    assert len(entries) == 54  # 0.5^54 is the first rest below 2^-53
    assert abs(math.fsum(p for _, p in entries) - 1.0) <= 1e-15
    # folded tail: mass at 54 is the plain tail P(D >= 54)
    assert entries[-1][1] == pytest.approx(0.5 ** 53, rel=1e-12)


def test_geometric_entries_past_the_cap_are_refused():
    # 0.9999^65536 ~ 1.4e-3 of the mass would lie past 2^16 listed durations
    pmf = geometric_pmf(1e-4)
    assert pmf_moments(pmf).mean == pytest.approx(1e4, rel=1e-12)
    with pytest.raises(PmfError):
        pmf.entries
    with pytest.raises(PmfError):
        pmf.to_json()
    assert len(geometric_pmf(0.003).entries) == 12_228


@settings(max_examples=300, deadline=None)
@given(st.floats(0.003, 1.0))
@example(0.99)
@example(1.0 - 2.0 ** -53)
def test_geometric_entries_stop_below_the_rounding_budget(mu):
    """The write-out ends at the least duration past which less than 2^-53 of the mass lies."""
    pmf = geometric_pmf(mu)
    last = pmf.entries[-1][0]
    assert pmf.tail(last) < 2.0 ** -53
    assert last == 1 or pmf.tail(last - 1) >= 2.0 ** -53


def test_uniform_and_deterministic():
    pmf = uniform_pmf(3)
    assert pmf.probabilities == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert pmf_moments(pmf).mean == pytest.approx(2.0)
    assert deterministic_pmf(5).entries == ((5, 1.0),)
    assert uniform_pmf(1) == deterministic_pmf(1)


def test_tail():
    pmf = make_pmf([(2, 0.5), (4, 0.5)])
    assert pmf.tail(0) == 1.0
    assert pmf.tail(2) == 0.5
    assert pmf.tail(4) == 0.0


def test_json_round_trip_is_bit_stable():
    rng = np.random.default_rng(3)
    for _ in range(50):
        width = int(rng.integers(1, 9))
        raw = rng.random(width)
        probs = raw / raw.sum()
        durations = np.cumsum(rng.integers(1, 9, size=width))
        pmf = make_pmf([(int(d), float(p)) for d, p in zip(durations, probs)])
        text = pmf.to_json()
        again = make_pmf(json.loads(text)["entries"])
        assert again == pmf
        assert again.to_json() == text


def pairwise(entries):
    """The (duration, probability) pairs as make_pmf built them from a list of pairs."""
    return tuple((d, p) for d, p in sorted(entries, key=lambda e: e[0]) if p > 0.0)


def geometric_pairs(mu, last):
    """The mass (1 - mu)^(d-1) mu at each d < last, and P(D >= last) at ``last`` as
    that mass plus the tail (1 - mu)^last past it."""
    entries = [(d, (1.0 - mu) ** (d - 1) * mu) for d in range(1, last)]
    entries.append((last, (1.0 - mu) ** (last - 1) * mu + (1.0 - mu) ** last))
    return pairwise(entries)


@pytest.mark.parametrize("mu", [0.9, 0.5, 0.25, 0.01])
def test_geometric_entries_match_the_pairwise_construction(mu):
    entries = geometric_pmf(mu).entries
    assert entries == geometric_pairs(mu, len(entries))
    assert [d for d, _ in entries] == list(range(1, len(entries) + 1))


def test_geometric_folded_tail_and_mu_one_match_the_pairwise_construction():
    assert geometric_pmf(1.0).entries == ((1, 1.0),)
    assert geometric_pmf(0.5).entries == geometric_pairs(0.5, 54)
    assert geometric_pmf(0.99).entries == geometric_pairs(0.99, 8)


@pytest.mark.parametrize("k", [1, 3, 7, 10_000])
def test_uniform_entries_match_the_pairwise_construction(k):
    assert uniform_pmf(k).entries == pairwise([(d, 1.0 / k) for d in range(1, k + 1)])


@pytest.mark.parametrize("beta", [1.0, 0.5, 0.37, 1.0 / 3.0, 0.3, 1e-3])
def test_greedy_entries_match_the_pairwise_construction(beta):
    k = int(1.0 / beta + 1e-9)
    entries = [(s, beta) for s in range(1, k + 1)]
    if 1.0 - k * beta > 1e-12:
        entries.append((k + 1, 1.0 - k * beta))
    assert greedy_smp_pmf(beta).entries == pairwise(entries)


def test_dither_and_deterministic_entries_match_the_pairwise_construction():
    two = ddad_policy(0.4)
    assert two.p_j > 0.0
    assert two.to_pmf().entries == pairwise([(two.i, two.p_i), (two.j, two.p_j)])
    one = ddad_policy(0.25)
    assert one.p_j == 0.0
    assert one.to_pmf().entries == ((4, 1.0),)
    assert deterministic_pmf(5).entries == ((5, 1.0),)
    assert deterministic_pmf(10 ** 20).entries == ((10 ** 20, 1.0),)


@st.composite
def pmfs(draw):
    durations = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=12)))
    weights = draw(st.lists(st.integers(0, 1000), min_size=len(durations), max_size=len(durations)))
    if not any(weights):
        weights[0] = 1
    return make_pmf([(d, w / sum(weights)) for d, w in zip(durations, weights)])


@given(pmfs(), st.integers(-2, 65))
def test_tail_and_prob_match_linear_scans(pmf, r):
    assert pmf.tail(r) == math.fsum(p for d, p in pmf.entries if d > r)
    assert pmf.prob(r) == next((p for d, p in pmf.entries if d == r), 0.0)


def test_make_pmf_on_shuffled_entries():
    assert make_pmf([(5, 0.0), (3, 0.5), (1, 0.0), (2, 0.5)]).entries == ((2, 0.5), (3, 0.5))
    with pytest.raises(DuplicateDuration, match="^duration 2 listed twice$"):
        make_pmf([(3, 0.25), (2, 0.25), (1, 0.25), (2, 0.25)])
    with pytest.raises(NegativeProbability):
        make_pmf([(3, math.nan), (1, 0.5), (2, 0.5)])
    with pytest.raises(UnnormalizedMass, match="^probabilities sum to 0.0, not 1$"):
        make_pmf([(3, 0.0), (1, 0.0)])


def test_core_refuses_disorder_and_nan_mass():
    with pytest.raises(DuplicateDuration, match="^duration 2 listed twice$"):
        _pmf((1, 2, 2), (0.5, 0.25, 0.25))
    with pytest.raises(DuplicateDuration):
        _pmf((3, 1), (0.5, 0.5))
    with pytest.raises(UnnormalizedMass):
        _pmf((1, 2), (0.5, math.nan))
    assert _pmf((1, 2, 3), (0.5, 0.0, 0.5)) == FinitePmf((1, 3), (0.5, 0.5))


def test_moments_past_the_float_range_are_refused():
    with pytest.raises(PmfError):
        pmf_moments(deterministic_pmf(10 ** 300))
    assert pmf_moments(deterministic_pmf(10 ** 150)).second_moment == float(10 ** 300)


@st.composite
def tailed_pmfs(draw):
    """A random head on {1..30} whose last mass goes on as a tail of a random hazard."""
    durations = sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=6)))
    weights = draw(st.lists(st.integers(1, 1000), min_size=len(durations), max_size=len(durations)))
    mu = draw(st.floats(0.02, 0.99))
    total = sum(weights) + weights[-1] * (1.0 - mu) / mu
    return _pmf(tuple(durations), tuple(w / total for w in weights), mu)


def close(got, want, rel=1e-12, floor=0.0):
    return abs(got - want) <= rel * abs(want) + floor


def explicit_rate(entries):
    """log2 z0 with sum p z0^-d = 1/2 over ``entries``, bisected on w = ln z to the last bit."""
    lo, hi = 0.0, math.log(2.0)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid / math.log(2.0)
        lo, hi = (mid, hi) if math.fsum(p * math.exp(-d * mid) for d, p in entries) > 0.5 else (lo, mid)


@settings(max_examples=60, deadline=None)
@given(tailed_pmfs(), st.floats(0.05, 0.95), st.floats(0.05, 1.0))
def test_tail_closed_forms_match_sums_over_the_entries(pmf, lam, alpha):
    """Each closed form against math.fsum over ``entries``, whose fold moves less than 2^-53 of mass.

    A tail probability or mass is a difference at the fold's scale, so it may
    also differ by 2^-52 in absolute terms.
    """
    entries = pmf.entries
    mean = math.fsum(d * p for d, p in entries)
    second = math.fsum(d * d * p for d, p in entries)
    m = pmf_moments(pmf)
    assert close(m.mean, mean) and close(m.second_moment, second)
    for r in (0, 1, pmf.durations[-1] - 1, pmf.durations[-1], pmf.durations[-1] + 7, entries[-1][0] // 2):
        assert close(pmf.tail(r), math.fsum(p for d, p in entries if d > r), floor=2.0 ** -52)
        assert close(pmf.prob(r + 1), dict(entries).get(r + 1, 0.0), floor=2.0 ** -52)
    lbar = 1.0 - lam
    assert close(Policy.lcfs(pmf).mean_age(lam).delta,
                 1.0 + 1.0 / (lam * math.fsum(p * lbar ** (d - 1) for d, p in entries)))
    assert close(Policy.rad(pmf).mean_age(lam).delta, 1.0 / lam + second / (2.0 * mean) + 0.5)
    assert close(rad_rate(pmf), explicit_rate(entries))
    rate = alpha * lam
    if rate * mean < 0.99:
        lbar = 1.0 - rate
        mg = math.fsum(p * lbar ** d for d, p in entries)
        want = 1.0 + mean + lbar * (1.0 - rate * mean) / (rate * mg) + rate * (second - mean) / (2.0 * (1.0 - rate * mean))
        assert close(Policy.fcfs(pmf, alpha).mean_age(lam).delta, want)
