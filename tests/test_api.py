"""The public names of the package, pinned."""

import importlib

import pytest

import ageleak

PUBLIC = [
    "AgeLeakError", "AgeResult", "BernoulliSource", "DitherPolicy", "FinitePmf", "LeakageResult",
    "MarkovSource", "Policy", "SimConfig", "SimStats", "SweepSpec", "TradeoffPoint",
    "brute_force_maxl", "ddad_policy", "deterministic_pmf", "empirical_source_age",
    "geometric_pmf", "greedy_smp_pmf", "is_smp", "leakage_time", "load_scenario",
    "make_pmf", "optimal_alpha_for_fcfs", "pmf_moments", "policy_from_config",
    "read_csv", "simulate", "sweep", "uniform_pmf", "write_csv",
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
    ("leakage", "rad_leakage_bits"),
    ("leakage", "smp_leakage_bits"),
    ("leakage", "rad_rate"),
])
def test_module_level_names_import_from_their_module(module, name):
    assert name not in ageleak.__all__
    assert getattr(importlib.import_module(f"ageleak.{module}"), name).__name__ == name


@pytest.mark.parametrize("name", ["lcfs_age", "fcfs_age", "rad_age"])
def test_per_kind_ages_are_reached_through_policy_only(name):
    """A policy's age has one public route, :meth:`Policy.mean_age`."""
    assert not hasattr(ageleak, name)
    assert not hasattr(importlib.import_module("ageleak.age"), name)
