"""Assembly of (age, leakage-time) trade-off curves across policy families.

Each sweep point pairs a policy's average age with its leakage time (the
reciprocal leakage rate) and the server efficiency eta, the slope from the
zero-delay baseline (age 1 + 1/lambda, leakage time 1).  Curves from
different families sample different age grids, so dominance comparisons
interpolate piecewise-linearly.
"""

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    BaselinePoint, InvalidConfig, InvalidLambda, NoOverlap, TooFewPoints, _as_probability, _as_seed, _is_real,
)
from .age import _fcfs_age_rows
from .leakage import leakage_time
from .optimize import _alpha_searches
from .policy import family, policy_from_config
from .sim import DEFAULT_WARMUP, SimConfig, simulate
from .sources import BernoulliSource

#: CSV column and TradeoffPoint field, in column order.  The two text
#: fields are written as they are; every other field is a float, written
#: in shortest round-trip form, or an empty cell for None.
_CSV_FIELDS = (
    ("policy_tag", "policy_tag"), ("param", "param"), ("lambda", "lam"), ("source", "source"),
    ("delta", "delta"), ("rate_bits", "rate_bits"), ("leak_time", "leak_time"), ("eta", "eta"),
    ("sim_delta", "sim_delta"), ("sim_ci", "sim_ci"),
)
_TEXT_FIELDS = ("policy_tag", "source")
CSV_COLUMNS = tuple(column for column, _ in _CSV_FIELDS)


@dataclass(frozen=True)
class TradeoffPoint:
    """One policy configuration on the age/leakage-time plane."""

    policy_tag: str
    param: float
    lam: float
    delta: float
    rate_bits: float
    leak_time: float
    eta: Optional[float]
    source: str = ""
    sim_delta: Optional[float] = None
    sim_ci: Optional[float] = None


@dataclass(frozen=True)
class SweepSpec:
    """A parameter sweep over one policy family of the registry.

    ``grid`` holds values of the family's parameter (beta for greedy
    families, mean period tau for lcfs-geo and the dump schedules, mu for
    mbt, target rate for the dithering schedule).  Families with an explicit
    pmf have no scalar parameter and cannot be swept.  With ``simulate``
    set, every point also carries an empirical age from a seeded run.
    """

    family: str
    grid: tuple
    lam: float = 0.5
    simulate: bool = False
    slots: int = 1_000_000
    warmup: int = DEFAULT_WARMUP
    seed: int = 0

    def __post_init__(self):
        # the seed reaches SeedSequence before any SimConfig sees it
        object.__setattr__(self, "seed", _as_seed(self.seed))
        if family(self.family).param == "pmf":
            raise InvalidConfig(f"family {self.family!r} has no scalar parameter to sweep")
        sequence = isinstance(self.grid, (Sequence, np.ndarray)) and not isinstance(self.grid, str)
        if not sequence or not all(_is_real(value) for value in self.grid):
            raise InvalidConfig(f"sweep grid {self.grid!r} is not a sequence of numbers")
        if len(self.grid) == 0:
            raise InvalidConfig("sweep grid is empty")


def efficiency(point: TradeoffPoint, lam) -> float:
    """Server efficiency eta = (T - 1) / (delta - delta_1), delta_1 = 1 + 1/lam."""
    baseline = 1.0 + 1.0 / _as_probability(lam, "arrival rate", InvalidLambda)
    if point.delta <= baseline + 1e-12:
        raise BaselinePoint(f"age {point.delta!r} is at the zero-delay baseline")
    return (point.leak_time - 1.0) / (point.delta - baseline)


def sweep(spec: SweepSpec):
    """Evaluate a SweepSpec into trade-off points, in grid order.

    Each point is the registry's policy at the grid value.  The grid's
    policies are built first; then the age-optimal admission probabilities
    of a thinned family and the FCFS ages of all the points are each solved
    in one batch, and the rates one policy at a time; then the points are
    assembled.  Analytic errors from infeasible grid values (for example an
    unstable unthinned FCFS load) propagate to the caller, the first of the
    earliest of these steps that fails.  Simulation seeds are split per
    point from the sweep seed, so sweeps are reproducible regardless of
    evaluation order.
    """
    entry = family(spec.family)
    source = BernoulliSource(spec.lam)
    source_tag = f"bernoulli({spec.lam!r})"
    policies = [policy_from_config({"kind": spec.family, entry.param: param}) for param in spec.grid]
    if entry.thinned:
        searches = _alpha_searches(spec.lam, [policy.pmf for policy in policies])
        policies = [replace(policy, alpha=alpha) for policy, (alpha, _) in zip(policies, searches)]
    if entry.kind == "fcfs":
        ages = _fcfs_age_rows(spec.lam, [policy.pmf for policy in policies], [policy.alpha for policy in policies])
    else:
        ages = [policy.mean_age(spec.lam) for policy in policies]
    rates = [policy.rate() for policy in policies]
    points = []
    for index, (param, policy, age, rate) in enumerate(zip(spec.grid, policies, ages, rates)):
        point = TradeoffPoint(
            policy_tag=spec.family,
            param=float(param),
            lam=spec.lam,
            delta=float(age.delta),
            rate_bits=rate,
            leak_time=leakage_time(rate),
            eta=None,
            source=source_tag,
        )
        try:
            point = replace(point, eta=efficiency(point, spec.lam))
        except BaselinePoint:
            pass
        if spec.simulate:
            child_seed = int(np.random.SeedSequence([spec.seed, index]).generate_state(1)[0])
            stats = simulate(
                SimConfig(policy, source, horizon=spec.slots, warmup=spec.warmup, seed=child_seed)
            )
            point = replace(point, sim_delta=stats.mean_age, sim_ci=stats.ci_half_width)
        points.append(point)
    return points


def dominance_check(series_a, series_b) -> bool:
    """True iff curve a lies on or above curve b over their common age range.

    Both series are interpolated piecewise-linearly onto the union of their
    age grids restricted to the overlap (the families sample different age
    grids); the comparison allows 1e-9 of slack.
    """
    if not series_a or not series_b:
        raise NoOverlap("empty series")
    a = sorted(series_a, key=lambda p: p.delta)
    b = sorted(series_b, key=lambda p: p.delta)
    lo = max(a[0].delta, b[0].delta)
    hi = min(a[-1].delta, b[-1].delta)
    if lo > hi:
        raise NoOverlap(f"age ranges [{a[0].delta}, {a[-1].delta}] and [{b[0].delta}, {b[-1].delta}] are disjoint")
    grid = np.unique(
        np.concatenate(
            [
                [p.delta for p in a if lo <= p.delta <= hi],
                [p.delta for p in b if lo <= p.delta <= hi],
                [lo, hi],
            ]
        )
    )
    ta = np.interp(grid, [p.delta for p in a], [p.leak_time for p in a])
    tb = np.interp(grid, [p.delta for p in b], [p.leak_time for p in b])
    return bool(np.all(ta >= tb - 1e-9))


def asymptotic_slope(series, tail_fraction) -> float:
    """Least-squares slope of leakage time vs. age over the high-age tail."""
    if len(series) < 10:
        raise TooFewPoints(f"need at least 10 points, got {len(series)}")
    tail_fraction = _as_probability(tail_fraction, "tail fraction", InvalidConfig)
    ordered = sorted(series, key=lambda p: p.delta)
    count = max(2, math.ceil(tail_fraction * len(ordered)))
    tail = ordered[-count:]
    slope, _ = np.polyfit([p.delta for p in tail], [p.leak_time for p in tail], 1)
    return float(slope)


def _cell(point, field):
    value = getattr(point, field)
    if field in _TEXT_FIELDS:
        return value
    return "" if value is None else repr(float(value))


def _value(text, field):
    if field in _TEXT_FIELDS:
        return text
    return float(text) if text else None


def write_csv(points, path_or_file):
    """Emit points as CSV with the fixed column order.

    Floats are written in shortest round-trip decimal form, '.' decimal
    separator; undefined eta is an empty field, never NaN text.
    """
    own = isinstance(path_or_file, str)
    fh = open(path_or_file, "w", newline="", encoding="utf-8") if own else path_or_file
    try:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for p in points:
            writer.writerow([_cell(p, field) for _, field in _CSV_FIELDS])
    finally:
        if own:
            fh.close()


def read_csv(path) -> list:
    """Reconstruct trade-off points from an emitted CSV file."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise InvalidConfig(f"unexpected CSV header {header!r}")
        points = []
        for row in reader:
            cells = zip(_CSV_FIELDS, row, strict=True)
            points.append(TradeoffPoint(**{field: _value(text, field) for (_, field), text in cells}))
    return points
