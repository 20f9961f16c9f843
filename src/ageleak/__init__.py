"""ageleak: age-of-information vs. maximal-leakage trade-offs in discrete time.

Closed forms, optimal-policy construction, brute-force leakage oracles and
slot-accurate simulation for status-updating servers (preemptive LCFS, FCFS
with thinning, and accumulate-and-dump schedules) fed by Bernoulli or
two-state Markov sources.
"""

from .age import AgeResult
from .errors import AgeLeakError
from .leakage import LeakageResult, leakage_time
from .optimize import DitherPolicy, ddad_policy, greedy_smp_pmf, optimal_alpha_for_fcfs
from .oracle import brute_force_maxl
from .pmf import FinitePmf, deterministic_pmf, geometric_pmf, is_smp, make_pmf, pmf_moments, uniform_pmf
from .policy import Policy, policy_from_config
from .sim import SimConfig, SimStats, empirical_source_age, load_scenario, simulate
from .sources import BernoulliSource, MarkovSource
from .tradeoff import SweepSpec, TradeoffPoint, read_csv, sweep, write_csv

__version__ = "0.1.0"

__all__ = [
    "AgeLeakError",
    "AgeResult",
    "BernoulliSource",
    "DitherPolicy",
    "FinitePmf",
    "LeakageResult",
    "MarkovSource",
    "Policy",
    "SimConfig",
    "SimStats",
    "SweepSpec",
    "TradeoffPoint",
    "brute_force_maxl",
    "ddad_policy",
    "deterministic_pmf",
    "empirical_source_age",
    "geometric_pmf",
    "greedy_smp_pmf",
    "is_smp",
    "leakage_time",
    "load_scenario",
    "make_pmf",
    "optimal_alpha_for_fcfs",
    "pmf_moments",
    "policy_from_config",
    "read_csv",
    "simulate",
    "sweep",
    "uniform_pmf",
    "write_csv",
]
