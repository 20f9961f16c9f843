"""The public names of the package, pinned."""

import importlib

import pytest

import ageleak

PUBLIC = [
    "AgeLeakError", "AgeResult", "BernoulliSource", "DitherPolicy", "FinitePmf", "LeakageResult",
    "MarkovSource", "Policy", "SimConfig", "SimStats", "SweepSpec", "TradeoffPoint",
    "brute_force_maxl", "ddad_policy", "deterministic_pmf", "empirical_source_age", "fcfs_age",
    "geometric_pmf", "greedy_smp_pmf", "is_smp", "lcfs_age", "leakage_time", "load_scenario",
    "make_pmf", "optimal_alpha_for_fcfs", "pmf_moments", "policy_from_config", "rad_age",
    "rad_leakage_bits", "rad_rate", "read_csv", "simulate", "smp_leakage_bits", "sweep",
    "uniform_pmf", "write_csv",
]


def test_all_lists_the_public_names_and_each_resolves():
    assert sorted(ageleak.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(ageleak, name) is not None


@pytest.mark.parametrize("module,name", [
    ("pmf", "Moments"),
    ("tradeoff", "asymptotic_slope"),
    ("tradeoff", "dominance_check"),
    ("tradeoff", "efficiency"),
])
def test_module_level_names_import_from_their_module(module, name):
    assert name not in ageleak.__all__
    assert getattr(importlib.import_module(f"ageleak.{module}"), name).__name__ == name
