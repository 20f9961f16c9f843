import io
import math
from dataclasses import replace

import numpy as np
import pytest

from ageleak import (
    SweepSpec,
    TradeoffPoint,
    optimal_alpha_for_fcfs,
    read_csv,
    policy_from_config,
    sweep,
    write_csv,
)
from ageleak.errors import (
    BaselinePoint, InvalidTau, NonHalfIntegerTau, NoOverlap, TooFewPoints, Unstable,
)
from ageleak.policy import family
from ageleak.tradeoff import asymptotic_slope, dominance_check, efficiency


def dad_point(tau, lam=0.5):
    return TradeoffPoint(
        policy_tag="dad",
        param=float(tau),
        lam=lam,
        delta=1.0 / lam + (tau + 1.0) / 2.0,
        rate_bits=1.0 / tau,
        leak_time=float(tau),
        eta=None,
    )


def test_efficiency_dad_exact():
    assert efficiency(dad_point(5), 0.5) == 2.0
    for lam in (0.1, 0.25, 0.5, 1.0):
        for tau in range(2, 101):
            assert efficiency(dad_point(tau, lam), lam) == pytest.approx(2.0, abs=1e-12)


def test_efficiency_lcfs_geometric():
    tau = 5.0
    point = TradeoffPoint(
        policy_tag="lcfs-geo",
        param=tau,
        lam=0.5,
        delta=2.0 + tau,
        rate_bits=math.log2(1.2),
        leak_time=1.0 / math.log2(1.2),
        eta=None,
    )
    assert efficiency(point, 0.5) == pytest.approx(0.7004460042309828, abs=1e-12)


def test_efficiency_baseline_error():
    with pytest.raises(BaselinePoint):
        efficiency(dad_point(1), 0.5)


def test_sweep_lcfs_greedy_leftmost_is_zero_delay():
    grid = tuple(round(0.1 * k, 10) for k in range(1, 11))
    points = sweep(SweepSpec("lcfs-greedy", grid, lam=0.5))
    assert len(points) == 10
    leftmost = min(points, key=lambda p: p.delta)
    assert leftmost.param == 1.0
    assert (leftmost.delta, leftmost.leak_time) == (3.0, 1.0)
    assert leftmost.eta is None


def test_sweep_dad_eta_exactly_two():
    points = sweep(SweepSpec("dad", tuple(range(1, 26)), lam=0.5))
    assert len(points) == 25
    assert points[0].eta is None  # tau = 1 is the baseline
    assert all(p.eta == 2.0 for p in points[1:])


def test_fractional_dump_parameters_are_refused_not_rounded():
    with pytest.raises(InvalidTau):
        sweep(SweepSpec("dad", (2.0, 2.5), lam=0.5))
    with pytest.raises(InvalidTau):
        policy_from_config({"kind": "dad", "tau": 2.5})
    with pytest.raises(NonHalfIntegerTau):
        policy_from_config({"kind": "rad-uniform", "tau": 2.3})
    assert policy_from_config({"kind": "rad-uniform", "tau": 2.5}).pmf.d_max == 4


def test_sweep_ddad_interpolates_dad_points():
    taus = range(2, 11)
    ddad = sweep(SweepSpec("ddad", tuple(1.0 / t for t in taus), lam=0.5))
    dad = sweep(SweepSpec("dad", tuple(taus), lam=0.5))
    for a, b in zip(ddad, dad):
        assert a.delta == pytest.approx(b.delta, abs=1e-12)
        assert a.leak_time == pytest.approx(b.leak_time, abs=1e-9)


def test_sweep_ddad_dense_grid_is_monotone():
    grid = tuple(1.0 / x for x in np.linspace(1.0, 20.0, 120))
    points = sweep(SweepSpec("ddad", grid, lam=0.5))
    deltas = [p.delta for p in points]
    leaks = [p.leak_time for p in points]
    assert all(d1 <= d2 + 1e-12 for d1, d2 in zip(deltas, deltas[1:]))
    assert all(t1 <= t2 + 1e-9 for t1, t2 in zip(leaks, leaks[1:]))


@pytest.mark.parametrize("kind, grid", [
    ("ddad", tuple(1.0 / x for x in np.linspace(1.0, 57.0, 400))),
    ("lcfs-greedy", tuple(np.geomspace(0.028, 1.0, 300))),
    ("fcfs-greedy-thinned", tuple(np.geomspace(0.028, 1.0, 300))),
])
def test_sweep_points_equal_one_policy_at_a_time(kind, grid):
    # the acceptance check's own grids: a sweep solves the admission searches
    # and the FCFS ages of a whole grid at once, and each point still equals
    # what its policy answers alone
    entry = family(kind)
    for point in sweep(SweepSpec(kind, grid, lam=0.5)):
        policy = policy_from_config({"kind": kind, entry.param: point.param})
        if entry.thinned:
            policy = replace(policy, alpha=optimal_alpha_for_fcfs(0.5, policy.pmf)[0])
        assert point.delta == policy.mean_age(0.5).delta
        assert point.rate_bits == policy.rate()


def test_sweep_unstable_fcfs_propagates():
    with pytest.raises(Unstable):
        sweep(SweepSpec("fcfs-greedy", (0.2,), lam=0.5))


def test_sweep_with_simulation_column():
    spec = SweepSpec("dad", (2, 5), lam=0.5, simulate=True, slots=200_000, seed=5)
    points = sweep(spec)
    for p in points:
        assert p.sim_delta is not None and p.sim_ci is not None
        assert abs(p.sim_delta - p.delta) <= max(3.0 * p.sim_ci, 0.02 * p.delta)
    again = sweep(spec)
    assert [(p.sim_delta, p.sim_ci) for p in again] == [(p.sim_delta, p.sim_ci) for p in points]


def test_dominance_self():
    series = [dad_point(t) for t in range(1, 20)]
    assert dominance_check(series, series)


def test_dominance_dad_over_geometric_dumps():
    dad = sweep(SweepSpec("dad", tuple(range(1, 40)), lam=0.5))
    geo = sweep(SweepSpec("rad-geo", tuple(float(t) for t in range(1, 40)), lam=0.5))
    assert dominance_check(dad, geo)
    assert not dominance_check(geo, dad)


def test_dominance_allows_only_rounding_slack():
    # one point of curve a dropped below curve b: a drop of 1e-6 is a
    # crossing, one of 1e-12 is rounding, within the comparison's 1e-9
    series = [dad_point(t) for t in range(1, 20)]
    for drop, dominates in ((1e-6, False), (1e-12, True)):
        lowered = list(series)
        lowered[9] = replace(series[9], leak_time=series[9].leak_time - drop)
        assert dominance_check(lowered, series) is dominates


def test_dominance_no_overlap():
    low = [dad_point(t) for t in range(1, 4)]
    high = [dad_point(t) for t in range(50, 60)]
    with pytest.raises(NoOverlap):
        dominance_check(low, high)


def test_asymptotic_slope_dad_exact():
    series = [dad_point(t) for t in range(1, 101)]
    assert asymptotic_slope(series, 0.2) == pytest.approx(2.0, abs=1e-9)


def test_asymptotic_slope_lcfs_geometric():
    series = sweep(SweepSpec("lcfs-geo", tuple(float(t) for t in range(1, 201)), lam=0.5))
    assert asymptotic_slope(series, 0.2) == pytest.approx(math.log(2.0), abs=0.02)


def test_asymptotic_slope_too_few_points():
    with pytest.raises(TooFewPoints):
        asymptotic_slope([dad_point(t) for t in range(1, 6)], 0.5)


def test_csv_round_trip_lossless(tmp_path):
    points = sweep(
        SweepSpec("dad", (1, 3, 7), lam=0.5, simulate=True, slots=60_000, seed=3)
    )
    points += sweep(SweepSpec("lcfs-greedy", (0.37, 1.0), lam=0.5))
    path = tmp_path / "curve.csv"
    write_csv(points, str(path))
    assert read_csv(str(path)) == points


def test_csv_empty_fields_for_undefined_eta():
    buffer = io.StringIO()
    write_csv([dad_point(1)], buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0].startswith("policy_tag,param,lambda,source,delta")
    row = lines[1].split(",")
    assert row[7] == "" and row[8] == "" and row[9] == ""
    assert "nan" not in buffer.getvalue().lower()
