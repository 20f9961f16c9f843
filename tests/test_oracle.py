import math

import pytest

from ageleak import (
    Policy,
    brute_force_maxl,
    deterministic_pmf,
    enumerate_channel,
    geometric_pmf,
    greedy_smp_pmf,
    rad_leakage_bits,
    smp_leakage_bits,
    uniform_pmf,
    verify_ml_input,
)
from ageleak.errors import HorizonTooLarge, InvalidConfig


def test_zero_delay_passthrough():
    policy = Policy.lcfs(deterministic_pmf(1))
    dist = enumerate_channel(policy, (1, 0, 1, 0))
    assert dist == {(1, 0, 1, 0): 1.0}


def test_lcfs_single_update_two_service_draws():
    policy = Policy.lcfs(greedy_smp_pmf(0.5))
    dist = enumerate_channel(policy, (1, 0))
    assert dist[(1, 0)] == pytest.approx(0.5)
    assert dist[(0, 1)] == pytest.approx(0.5)
    dist = enumerate_channel(policy, (1, 0, 0, 0))
    assert dist[(1, 0, 0, 0)] == pytest.approx(0.5)
    assert dist[(0, 1, 0, 0)] == pytest.approx(0.5)
    assert len(dist) == 2


def test_lcfs_preemption_discards_in_service_update():
    # second arrival preempts the first even on its departure slot
    policy = Policy.lcfs(deterministic_pmf(2))
    dist = enumerate_channel(policy, (1, 1, 0))
    assert dist == {(0, 0, 1): 1.0}


def test_fcfs_queues_all_updates():
    policy = Policy.fcfs(deterministic_pmf(1))
    dist = enumerate_channel(policy, (1, 1, 0))
    assert dist == {(1, 1, 0): 1.0}


def test_rad_empty_input_never_transmits():
    policy = Policy.rad(deterministic_pmf(2))
    dist = enumerate_channel(policy, (0, 0, 0, 0))
    assert dist == {(0, 0, 0, 0): 1.0}


def test_rad_dumps_freshest_on_schedule():
    policy = Policy.rad(deterministic_pmf(2))
    dist = enumerate_channel(policy, (1, 0, 0, 1))
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
        for x in range(1 << n):
            bits = tuple((x >> (n - t)) & 1 for t in range(1, n + 1))
            dist = enumerate_channel(policy, bits)
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_brute_force_examples():
    got = brute_force_maxl(Policy.lcfs(greedy_smp_pmf(0.5)), 4)
    assert got.bits == pytest.approx(4 * math.log2(1.5), abs=1e-12)
    assert brute_force_maxl(Policy.rad(deterministic_pmf(2)), 4).bits == pytest.approx(2.0)
    assert brute_force_maxl(Policy.lcfs(deterministic_pmf(1)), 1).bits == pytest.approx(1.0)


def test_brute_force_matches_coupled_closed_form():
    for beta in (0.3, 1.0):
        pmf = greedy_smp_pmf(beta)
        for kind in ("lcfs", "fcfs"):
            for n in range(1, 8):
                got = brute_force_maxl(Policy(kind, pmf), n).bits
                want = smp_leakage_bits(n, 1, beta).bits
                assert abs(got - want) <= 1e-9


def test_brute_force_coupled_shifted_support():
    # deterministic two-slot service: counts follow the Fibonacci recurrence
    for kind in ("lcfs", "fcfs"):
        for n in range(1, 9):
            got = brute_force_maxl(Policy(kind, deterministic_pmf(2)), n).bits
            want = smp_leakage_bits(n, 2, 1.0).bits
            assert abs(got - want) <= 1e-9


def test_queue_discipline_independence():
    for beta in (0.3, 0.5):
        pmf = greedy_smp_pmf(beta)
        for n in range(1, 8):
            lcfs = brute_force_maxl(Policy.lcfs(pmf), n).bits
            fcfs = brute_force_maxl(Policy.fcfs(pmf), n).bits
            assert abs(lcfs - fcfs) <= 1e-11


def test_brute_force_matches_rad_recursion():
    pmfs = [deterministic_pmf(3), uniform_pmf(2), geometric_pmf(0.5)]
    for pmf in pmfs:
        for n in range(1, 9):
            got = brute_force_maxl(Policy.rad(pmf), n).bits
            want = rad_leakage_bits(n, pmf).bits
            assert abs(got - want) <= 1e-9
            if pmf.d_max == pmf.s_min:  # deterministic: also the counting form
                assert abs(got - n // pmf.s_min) <= 1e-9


def test_verify_ml_input():
    assert verify_ml_input(Policy.lcfs(greedy_smp_pmf(0.5)), 6)
    assert verify_ml_input(Policy.fcfs(greedy_smp_pmf(0.3)), 6)
    assert verify_ml_input(Policy.lcfs(deterministic_pmf(2)), 7)
    assert verify_ml_input(Policy.rad(geometric_pmf(0.5)), 8)
    assert verify_ml_input(Policy.rad(uniform_pmf(3)), 7)
    assert verify_ml_input(Policy.lcfs(deterministic_pmf(1)), 5)


def test_horizon_caps():
    policy = Policy.rad(deterministic_pmf(3))
    with pytest.raises(HorizonTooLarge):
        brute_force_maxl(policy, 15)
    with pytest.raises(HorizonTooLarge):
        verify_ml_input(policy, 13)
    with pytest.raises(HorizonTooLarge):
        enumerate_channel(policy, (0,) * 15)


def test_oracle_rejects_thinned_fcfs():
    with pytest.raises(InvalidConfig):
        brute_force_maxl(Policy.fcfs(deterministic_pmf(1), alpha=0.5), 4)


def test_zero_horizon():
    assert brute_force_maxl(Policy.lcfs(deterministic_pmf(1)), 0).bits == 0.0
