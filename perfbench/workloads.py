"""The three workloads: their inputs, their operations and the checks on
every output.

A workload object builds its inputs when it is created (that is set-up
time) and hands out one round of operations at a time.  Each operation is
timed on its own; its check runs afterwards, outside the timed region, and
compares the output with a value from ``refs``, never with a stored copy of
an earlier output.  Package functions are looked up on their modules at call
time, so a traced run sees the wrapped functions.
"""

import contextlib
import io
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from ageleak import cli, leakage, optimize, pmf, policy, sim, sources, tradeoff

import refs

LAM = 0.5


@dataclass
class Op:
    """One timed call.  ``weight`` is how many operations it counts as;
    ``check`` maps the result to a list of problems (empty when correct).
    A call with problems counts as failed: as one failed operation per
    problem, up to ``weight``."""

    name: str
    call: Callable
    check: Callable
    weight: int = 1


def _seed(seed, *path):
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _gap(label, measured, expected, tol):
    gap = refs.rel_gap(measured, expected)
    return [] if gap <= tol else [f"{label}: {measured!r} vs {expected!r} (rel gap {gap:.2e} > {tol})"]


class Check:
    """The acceptance gate as shipped: ``ageleak check``, ten criteria."""

    name = "check"

    def __init__(self, seed):
        self.argv = ["check"]

    def _run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    @staticmethod
    def _verify(result):
        """One problem per criterion whose line is missing or not PASS; a
        non-zero exit code with ten PASS lines is one problem."""
        code, text = result
        lines = text.splitlines()
        problems = []
        for n in range(1, 11):
            line = next((l for l in lines if f"criterion {n}:" in l), "no line in output")
            if not line.startswith(f"PASS criterion {n}:"):
                problems.append(f"criterion {n}: {line}")
        if code != 0 and not problems:
            problems.append(f"check exit code {code} with ten PASS lines")
        return problems

    def ops(self, round_index):
        return [Op("check", self._run, self._verify, weight=10)]


class Horizon:
    """Long-horizon leakage and rates: renewal recursion, SMP sums, roots."""

    name = "horizon"

    def __init__(self, seed):
        self.geo01 = pmf.geometric_pmf(0.01)
        self.geo003 = pmf.geometric_pmf(0.003)
        self.uni41 = pmf.uniform_pmf(41)
        self.dad5 = pmf.deterministic_pmf(5)
        self.ddad04 = optimize.ddad_policy(0.4).to_pmf()
        # Mean periods 2, 2.25, ..., 101: mostly true two-point dithers.
        self.periods = [2.0 + 0.25 * i for i in range(397)]
        self.ddads = [optimize.ddad_policy(1.0 / x).to_pmf() for x in self.periods]
        self._refs = {}

    def _ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def _rad(self, n, dump):
        return lambda: leakage.rad_leakage_bits(n, dump).bits

    def _smp(self, n, s1, beta):
        return lambda: leakage.smp_leakage_bits(n, s1, beta).bits

    def ops(self, round_index):
        ops = []
        for n in (2_000, 10_000):
            expected = n * math.log2(1.01)
            ops.append(Op(f"rad.geo0.01.n{n}", self._rad(n, self.geo01),
                          lambda r, e=expected, n=n: _gap(f"geometric(0.01) n={n}", r, e, 1e-9)))
        n = 1_000_000
        ops.append(Op("rad.dad5.n1e6", self._rad(n, self.dad5),
                      lambda r: [] if r == float(n // 5) else [f"DAD(5) bits {r!r} != {n // 5}"]))
        half = {}

        def keep_half(r):
            half["bits"] = r
            return []

        ops.append(Op("rad.ddad0.4.n5e5", self._rad(500_000, self.ddad04), keep_half))
        ops.append(Op("rad.ddad0.4.n1e6", self._rad(1_000_000, self.ddad04),
                      lambda r: _gap("D-DAD(0.4) bits(1e6) - bits(5e5)", r - half["bits"],
                                     0.4 * 500_000, 1e-9)))
        uni = [(d, Fraction(1, 41)) for d in range(1, 42)]
        ops.append(Op("rad.uniform41.n300", self._rad(300, self.uni41),
                      lambda r: _gap("uniform(41) n=300 vs exact rationals", r,
                                     self._ref("u41.exact", lambda: refs.renewal_bits_exact(300, uni)),
                                     1e-12)))
        ops.append(Op("rad.uniform41.n1e5", self._rad(100_000, self.uni41),
                      lambda r: _gap("uniform(41) n=1e5 vs renewal asymptote", r,
                                     self._ref("u41.asym", lambda: refs.renewal_asymptote_bits(
                                         100_000, [(d, 1.0 / 41) for d in range(1, 42)])),
                                     1e-9)))
        ops.append(Op("smp.s1.b0.5.n1e6", self._smp(n, 1, 0.5),
                      lambda r: _gap("SMP(1, 0.5)", r, n * math.log2(1.5), 1e-9)))
        ops.append(Op("smp.s2.b1.n1e6", self._smp(n, 2, 1.0),
                      lambda r: _gap("SMP(2, 1) vs Fibonacci", r,
                                     self._ref("fib", lambda: refs.spaced_word_bits(n)), 1e-9)))
        ops.append(Op("smp.s3.b0.4.n1e6", self._smp(n, 3, 0.4),
                      lambda r: _gap("SMP(3, 0.4) vs recurrence", r,
                                     self._ref("smp3", lambda: refs.weighted_recurrence_bits(n, 3, 0.4)),
                                     1e-9)))
        for mu, dump in ((0.01, self.geo01), (0.003, self.geo003)):
            ops.append(Op(f"rate.geo{mu}", lambda d=dump: leakage.rad_rate(d),
                          lambda r, mu=mu: [] if abs(r - math.log2(1.0 + mu)) <= 1e-10
                          else [f"rate geometric({mu}) {r!r} vs {math.log2(1.0 + mu)!r}"]))
        ops.append(Op("rate.uniform41", lambda: leakage.rad_rate(self.uni41),
                      lambda r: [] if abs(r - self._ref("u41.rate", lambda: refs.uniform_dump_rate(41))) <= 1e-10
                      else [f"rate uniform(41) {r!r} vs {self._refs['u41.rate']!r}"]))
        for x, dump in zip(self.periods, self.ddads):
            ops.append(Op(f"rate.ddad.{x}", lambda d=dump: leakage.rad_rate(d),
                          lambda r, x=x: [] if abs(r - 1.0 / x) <= 1e-9
                          else [f"rate D-DAD(1/{x}) {r!r} vs {1.0 / x!r}"]))
        return ops


class Curve:
    """Trade-off curves with simulated ages, plus three long simulations."""

    name = "curve"
    SWEEP_SLOTS = 1_000_000
    LONG_SLOTS = 10_000_000

    def __init__(self, seed):
        self.seed = seed
        self.grids = {
            "ddad": tuple(1.0 / x for x in np.linspace(1.5, 39.5, 20)),
            "lcfs-greedy": tuple(float(b) for b in np.geomspace(0.05, 1.0, 10)),
            "fcfs-greedy-thinned": tuple(float(b) for b in np.linspace(0.1, 1.0, 10)),
        }
        self.markov = sources.MarkovSource(0.05, 0.2)
        self.bernoulli = sources.BernoulliSource(LAM)
        self.dad5 = policy.Policy.dad(5)
        self.lcfs_geo = policy.Policy.lcfs(pmf.geometric_pmf(0.25))
        self.csv_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                                     f"curve-{os.getpid()}.csv")

    @property
    def points_per_round(self):
        """Simulated sweep points in one round."""
        return sum(len(g) for g in self.grids.values())

    @property
    def slots_per_round(self):
        """Horizon slots simulated in one round: the sweep points and the
        three long runs."""
        return self.points_per_round * self.SWEEP_SLOTS + 3 * self.LONG_SLOTS

    def _sweep(self, family, seed, store):
        def call():
            spec = tradeoff.SweepSpec(family, self.grids[family], lam=LAM, simulate=True,
                                      slots=self.SWEEP_SLOTS, seed=seed)
            points = tradeoff.sweep(spec)
            store.extend(points)
            return points
        return call

    def _csv_round_trip(self, points):
        def call():
            tradeoff.write_csv(points, self.csv_path)
            try:
                return tradeoff.read_csv(self.csv_path)
            finally:
                os.remove(self.csv_path)
        return call

    @staticmethod
    def _check_points(family, points):
        problems = []
        for p in points:
            if family == "ddad":
                expected = refs.dither_age(LAM, p.param)
                problems += _gap(f"ddad({p.param}) delta", p.delta, expected, 1e-9)
            elif family == "lcfs-greedy":
                expected = refs.lcfs_age(LAM, refs.greedy_entries(p.param))
                problems += _gap(f"lcfs-greedy({p.param}) delta", p.delta, expected, 1e-9)
            else:  # thinned FCFS: against the point's own analytic age
                expected = p.delta
            if p.sim_delta is None or not refs.within(p.sim_delta, expected, p.sim_ci):
                problems.append(f"{family}({p.param}) simulated age {p.sim_delta!r} "
                                f"(CI {p.sim_ci!r}) vs {expected!r}")
        if len(points) == 0:
            problems.append(f"{family} sweep returned no points")
        return problems

    @staticmethod
    def _check_age(label, stats, expected):
        if refs.within(stats.mean_age, expected, stats.ci_half_width):
            return []
        return [f"{label}: age {stats.mean_age!r} (CI {stats.ci_half_width!r}) vs {expected!r}"]

    def _check_lcfs(self, stats):
        entries = list(self.lcfs_geo.pmf.entries)
        problems = self._check_age("LCFS geometric(0.25)", stats, refs.lcfs_age(LAM, entries))
        rate = refs.lcfs_delivery_rate(LAM, entries)
        if abs(stats.output_rate - rate) > 0.02 * rate:
            problems.append(f"LCFS delivery rate {stats.output_rate!r} vs {rate!r}")
        return problems

    def ops(self, round_index):
        points = []
        ops = []
        for k, family in enumerate(self.grids):
            ops.append(Op(f"sweep.{family}", self._sweep(family, _seed(self.seed, round_index, k), points),
                          lambda r, f=family: self._check_points(f, r)))
        ops.append(Op("csv.round_trip", self._csv_round_trip(points),
                      lambda r: [] if r == points else ["CSV round trip changed the points"]))

        def config(pol, src, k):
            return sim.SimConfig(pol, src, horizon=self.LONG_SLOTS, seed=_seed(self.seed, round_index, k))

        dad_cfg = config(self.dad5, self.markov, 3)
        lcfs_cfg = config(self.lcfs_geo, self.bernoulli, 4)
        src_cfg = config(None, self.markov, 5)
        markov_age = refs.markov_source_age(self.markov.p01, self.markov.p10)
        dad_age = markov_age + (25.0 / (2.0 * 5.0) + 0.5)  # source age + E[D^2]/(2E[D]) + 1/2
        ops.append(Op("sim.dad5.markov", lambda: sim.simulate(dad_cfg),
                      lambda s: self._check_age("DAD(5) under Markov(0.05, 0.2)", s, dad_age)))
        ops.append(Op("sim.lcfs.geo0.25", lambda: sim.simulate(lcfs_cfg), self._check_lcfs))
        ops.append(Op("sim.source.markov", lambda: sim.empirical_source_age(src_cfg),
                      lambda s: self._check_age("Markov(0.05, 0.2) source age", s, markov_age)))
        return ops


WORKLOADS = {w.name: w for w in (Check, Horizon, Curve)}
