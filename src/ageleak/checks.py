"""Acceptance checks: every release gate, runnable via the CLI or pytest.

Each criterion is a self-contained function returning (passed, detail); the
tolerances are fixed here and nowhere else.  Cross-checks always pit two
independent routes against each other (closed form vs. enumeration, formula
vs. simulation, construction vs. exhaustive search).
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .age import _lcfs_age
from .errors import InvalidConfig
from .leakage import rad_rate, smp_leakage_bits
from .optimize import ddad_policy, greedy_smp_pmf
from .oracle import _maxl_series
from .pmf import deterministic_pmf, geometric_pmf, make_pmf, pmf_moments, uniform_pmf
from .policy import Policy
from .sim import SimConfig, simulate
from .sources import BernoulliSource, MarkovSource
from .tradeoff import SweepSpec, TradeoffPoint, asymptotic_slope, dominance_check, efficiency, sweep


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    description: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.criterion}: {self.description} [{self.detail}] ({self.seconds:.3f}s)"


def _oracle_gap(policy, horizon):
    """Worst gap, over the horizons 1..``horizon``, between the oracle and ``policy.leakage_bits``."""
    series = _maxl_series(policy, horizon)
    return max(abs(series[n] - policy.leakage_bits(n).bits) for n in range(1, horizon + 1))


def _criterion_1():
    """Coupled closed form vs. brute force, beta in {0.3, 0.5, 1.0}, n in [1, 10]."""
    start = time.time()
    worst = max(_oracle_gap(Policy(kind, greedy_smp_pmf(beta)), 10) for beta in (0.3, 0.5, 1.0)
                for kind in ("lcfs", "fcfs"))
    elapsed = time.time() - start
    return worst <= 1e-9 and elapsed < 60.0, f"worst gap {worst:.2e}, {elapsed:.1f}s"


def _criterion_2():
    """Decoupled recursion vs. brute force for DAD, uniform and geometric dumps."""
    pmfs = [deterministic_pmf(t) for t in (1, 2, 3)]
    pmfs += [uniform_pmf(k) for k in (2, 3)]
    pmfs.append(geometric_pmf(0.5))
    worst = max(_oracle_gap(Policy.rad(pmf), 12) for pmf in pmfs)
    return worst <= 1e-9, f"worst gap {worst:.2e}"


def _criterion_3():
    """Deterministic two-slot service counts follow the shifted Fibonacci recurrence."""
    counts = [round(2.0 ** smp_leakage_bits(n, 2, 1.0).bits) for n in range(1, 31)]
    recurrence_ok = counts[0] == 1 and counts[1] == 2 and all(
        counts[n] == counts[n - 1] + counts[n - 2] for n in range(2, 30)
    )
    rate = smp_leakage_bits(10_000, 2, 1.0).bits / 10_000
    target = math.log2((1.0 + math.sqrt(5.0)) / 2.0)
    return recurrence_ok and abs(rate - target) <= 1e-3, (
        f"recurrence {'ok' if recurrence_ok else 'broken'}, rate gap {abs(rate - target):.2e}"
    )


def _criterion_4():
    """Root-finder identities for deterministic and geometric dump schedules."""
    worst_rate = 0.0
    worst_resid = 0.0
    for tau in range(1, 101):
        det = deterministic_pmf(tau)
        rate = rad_rate(det)
        worst_rate = max(worst_rate, abs(rate - 1.0 / tau))
        worst_resid = max(worst_resid, abs(_transform(det, rate) - 0.5))
        geo = geometric_pmf(1.0 / tau)
        rate = rad_rate(geo)
        worst_rate = max(worst_rate, abs(rate - math.log2(1.0 + 1.0 / tau)))
        worst_resid = max(worst_resid, abs(_transform(geo, rate) - 0.5))
    return worst_rate <= 1e-10 and worst_resid <= 1e-12, (
        f"worst rate gap {worst_rate:.2e}, worst residual {worst_resid:.2e}"
    )


def _transform(pmf, rate):
    """E[z0^-D] at z0 = 2^rate, a tail's part in closed form."""
    z0 = 2.0 ** rate
    tail = pmf._tail_sum(1.0 / z0, -math.expm1(-rate * math.log(2.0))) / z0
    return math.fsum([*(p * z0 ** -d for d, p in zip(pmf.durations, pmf.probabilities)), tail])


_SIM_CASES = (
    ("lcfs geometric mu=0.25", Policy.lcfs(geometric_pmf(0.25)), 6.0, 11),
    ("dad tau=5", Policy.dad(5), 5.0, 12),
    ("uniform rad tau=2", Policy.rad(uniform_pmf(3)), 11.0 / 3.0, 13),
    ("mbt alpha=0.5 mu=0.5", Policy.fcfs(geometric_pmf(0.5), alpha=0.5), 6.5, 14),
    ("fcfs geometric mu=0.75", Policy.fcfs(geometric_pmf(0.75)), 34.0 / 9.0, 15),
)


def _simulated_age(policy, source, expected, seed):
    """Mean age of a seeded 10^6-slot run, and its gate about ``expected``: max(3 CI, 2% of expected)."""
    stats = simulate(SimConfig(policy, source, horizon=1_000_000, seed=seed))
    return stats.mean_age, max(3.0 * stats.ci_half_width, 0.02 * expected)


def _criterion_5():
    """Simulated ages agree with the closed forms at 10^6 slots, lambda = 0.5."""
    failures = []
    for name, policy, expected, seed in _SIM_CASES:
        age, tol = _simulated_age(policy, BernoulliSource(0.5), expected, seed)
        if abs(age - expected) > tol:
            failures.append(f"{name}: {age:.4f} vs {expected:.4f} (tol {tol:.4f})")
    return not failures, "; ".join(failures) or "all five policies within tolerance"


def _criterion_6():
    """Markov effective rates are exact; DAD age under the bursty source matches."""
    low = MarkovSource(0.05, 0.2)
    high = MarkovSource(0.2, 0.05)
    rates_ok = low.effective_rate == 0.2 and high.effective_rate == 0.8
    age, tol = _simulated_age(Policy.dad(5), low, 20.0, 16)
    return rates_ok and abs(age - 20.0) <= tol, (
        f"rates {'exact' if rates_ok else 'off'}, age {age:.4f} vs 20.0 (tol {tol:.4f})"
    )


def _random_smp_entries(rng, beta, s_min=1):
    """Random SMP pmf with mass beta at its minimum duration s_min."""
    entries = [(s_min, beta)]
    remaining = 1.0 - beta
    s = s_min + 1
    while remaining > 1e-12:
        cap = min(beta, remaining)
        p = cap if cap < 0.02 else rng.uniform(0.25 * cap, cap)
        entries.append((s, p))
        remaining -= p
        s += 1
    return entries


def _criterion_7():
    """Greedy pmf beats 200 random SMP competitors; shifting to s_min=1 helps."""
    rng = np.random.default_rng(7)
    lam = 0.5
    for beta in (0.25, 0.4):
        greedy_age = _lcfs_age(lam, greedy_smp_pmf(beta)).delta
        for _ in range(200):
            rival = make_pmf(_random_smp_entries(rng, beta))
            if greedy_age > _lcfs_age(lam, rival).delta + 1e-12:
                return False, f"greedy beaten at beta={beta}"
        for _ in range(200):
            s_min = int(rng.integers(2, 7))
            raised = _random_smp_entries(rng, beta, s_min=s_min)
            lowered = [(d - s_min + 1, p) for d, p in raised]
            if not _lcfs_age(lam, make_pmf(lowered)).delta < _lcfs_age(lam, make_pmf(raised)).delta:
                return False, f"shift to s_min=1 did not help at beta={beta}"
    return True, "exchange and shift optimality hold for 800 competitors"


def _two_point_is_optimal(rate, d_max):
    """Whether the dither at ``rate`` has the least E[D^2]/E[D] of all dump pmfs on {1..d_max}.

    The leakage constraint sum g(d) z0^-d = 1/2 and normalization pin the
    weights of every one- and two-point support, and these vertices hold the
    optimum of the linear program in g.  A vertex is feasible when both
    weights are non-negative (to 1e-6); the least-ratio one must have the
    dither's support and ratio (to 1e-9).
    """
    dither = ddad_policy(rate)
    xs = {d: dither.z0 ** -d for d in range(1, d_max + 1)}
    vertices = [((d, 1.0),) for d, x in xs.items() if abs(x - 0.5) <= 1e-6]
    for i in range(1, d_max + 1):
        for k in range(i + 1, d_max + 1):
            g_i, g_k = (0.5 - xs[k]) / (xs[i] - xs[k]), (xs[i] - 0.5) / (xs[i] - xs[k])
            if g_i < -1e-6 or g_k < -1e-6:
                continue
            g_i = min(max(g_i, 0.0), 1.0)
            if g_i > 1e-9 and 1.0 - g_i > 1e-9:  # rounding dust duplicates a one-point vertex
                vertices.append(((i, g_i), (k, 1.0 - g_i)))
    if not vertices:
        return False

    def ratio(entries):
        return sum(d * d * p for d, p in entries) / sum(d * p for d, p in entries)

    best = min(vertices, key=ratio)
    pmf = dither.to_pmf()
    return tuple(d for d, _ in best) == pmf.durations and abs(ratio(best) - ratio(pmf.entries)) <= 1e-9


def _criterion_8():
    """Dithering schedule at rate 0.4: support, constraint, rate, exhaustive check."""
    policy = ddad_policy(0.4)
    pmf = policy.to_pmf()
    support_ok = pmf.durations == (2, 3)
    constraint = abs(policy.p_i * policy.z0 ** -2 + policy.p_j * policy.z0 ** -3 - 0.5)
    achieved = rad_rate(pmf)
    m = pmf_moments(pmf)
    ok = support_ok and constraint <= 1e-9 and abs(achieved - 0.4) <= 1e-9 and _two_point_is_optimal(0.4, 8)
    return ok, (
        f"support {'ok' if support_ok else 'wrong'}, constraint {constraint:.2e}, "
        f"rate {achieved:.12f}, gamma* {m.second_moment / m.mean:.6f}"
    )


def _criterion_9():
    """DAD efficiency is exactly 2; high-age slopes match ln 2 and 0."""
    lam = 0.5
    for tau in range(2, 101):
        point = TradeoffPoint(
            policy_tag="dad",
            param=float(tau),
            lam=lam,
            delta=1.0 / lam + (tau + 1.0) / 2.0,
            rate_bits=1.0 / tau,
            leak_time=float(tau),
            eta=None,
        )
        if efficiency(point, lam) != 2.0:
            return False, f"eta != 2 at tau={tau}"
    lcfs_series = sweep(SweepSpec("lcfs-geo", tuple(float(t) for t in range(1, 201)), lam=lam))
    lcfs_slope = asymptotic_slope(lcfs_series, 0.2)
    beta_grid = tuple(1.0 / 3.0 + x for x in np.geomspace(1e-4, 2.0 / 3.0, 60))
    fcfs_series = sweep(SweepSpec("fcfs-greedy", beta_grid, lam=lam))
    fcfs_slope = asymptotic_slope(fcfs_series, 0.2)
    ok = abs(lcfs_slope - math.log(2.0)) <= 0.02 and fcfs_slope <= 0.05
    return ok, f"lcfs slope {lcfs_slope:.4f} (ln2={math.log(2.0):.4f}), fcfs slope {fcfs_slope:.4f}"


def _window(points, lo, hi):
    return [p for p in points if lo <= p.delta <= hi]


def _criterion_10():
    """Decoupled dominates coupled; LCFS dominates thinned FCFS, ages 3.1 to 30."""
    lam = 0.5
    rate_grid = tuple(1.0 / x for x in np.linspace(1.0, 57.0, 400))
    ddad_series = _window(sweep(SweepSpec("ddad", rate_grid, lam=lam)), 3.1, 30.0)
    beta_grid = tuple(np.geomspace(0.028, 1.0, 300))
    lcfs_series = _window(sweep(SweepSpec("lcfs-greedy", beta_grid, lam=lam)), 3.1, 30.0)
    fcfs_series = _window(sweep(SweepSpec("fcfs-greedy-thinned", beta_grid, lam=lam)), 3.1, 30.0)
    first = dominance_check(ddad_series, lcfs_series)
    second = dominance_check(lcfs_series, fcfs_series)
    return first and second, f"ddad>=lcfs {first}, lcfs>=thinned-fcfs {second}"


CRITERIA = (
    (1, "coupled closed form vs. brute-force oracle", _criterion_1),
    (2, "decoupled recursion vs. brute-force oracle", _criterion_2),
    (3, "Fibonacci leakage counts and golden-ratio rate", _criterion_3),
    (4, "dump-schedule rate identities and root residuals", _criterion_4),
    (5, "age formulas vs. simulation at 10^6 slots", _criterion_5),
    (6, "Markov effective rates and bursty DAD age", _criterion_6),
    (7, "greedy service pmf exchange optimality", _criterion_7),
    (8, "dithering dump schedule construction and certificate", _criterion_8),
    (9, "DAD efficiency and asymptotic slopes", _criterion_9),
    (10, "dominance of decoupled over coupled policies", _criterion_10),
)


def run_criterion(number) -> CheckResult:
    for num, description, fn in CRITERIA:
        if num == number:
            start = time.time()
            passed, detail = fn()
            return CheckResult(num, description, passed, detail, time.time() - start)
    raise InvalidConfig(f"no acceptance criterion {number}")


def run_all():
    return [run_criterion(num) for num, _, _ in CRITERIA]
