"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``ageleak check``)
to see the lines; every criterion carries its tolerance inside
``ageleak.checks``.
"""

import pytest

from ageleak import Policy, checks
from ageleak.checks import run_criterion


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(number):
    result = run_criterion(number)
    print(result.line)
    assert result.passed, result.line


@pytest.mark.parametrize("expected,passes", [(5.0 * 0.95, False), (5.0, True), (5.0 * 1.05, False)])
def test_criterion_5_tells_a_five_percent_error(monkeypatch, expected, passes):
    # DAD(5) ages 5.0 slots at lambda = 0.5; the 2% floor of the simulation
    # tolerance must refuse an expected age 5% off, as a 20% floor would not
    monkeypatch.setattr(checks, "_SIM_CASES", (("dad tau=5", Policy.dad(5), expected, 12),))
    assert run_criterion(5).passed is passes
