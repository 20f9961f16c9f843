"""The input rules: every outside value passes one or is refused with a typed error."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ageleak import (
    AgeLeakError,
    AgeResult,
    BernoulliSource,
    LeakageResult,
    MarkovSource,
    Policy,
    SimConfig,
    SweepSpec,
    TradeoffPoint,
    ddad_policy,
    geometric_pmf,
    greedy_smp_pmf,
    lcfs_age,
    load_scenario,
    policy_from_config,
    uniform_pmf,
)
from ageleak.checks import run_criterion
from ageleak.tradeoff import efficiency
from ageleak.errors import (
    InvalidBeta,
    InvalidConfig,
    InvalidLambda,
    InvalidRate,
    NegativeProbability,
    NonHalfIntegerTau,
    NonPositiveDuration,
    PmfError,
)
from ageleak.policy import FAMILIES

#: Whatever a JSON file or a caller may hand over.
OUTSIDE = (
    st.booleans()
    | st.text()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.integers()
    | st.lists(st.integers())
)

#: A valid value for each registry parameter.
VALID = {"pmf": {"entries": [[1, 1.0]]}, "beta": 0.5, "tau": 4, "mu": 0.5, "rate": 0.4}

SCENARIO = {
    "policy": {"kind": "dad", "tau": 4},
    "source": {"kind": "bernoulli", "lambda": 0.5},
    "horizon": 60_000,
}


#: Malformed values and broken invariants, each with the typed error it raises.
REFUSED = {
    "uniform_pmf(2.5)": (lambda: uniform_pmf(2.5), NonPositiveDuration),
    "uniform_pmf(20001)": (lambda: uniform_pmf(20_001), PmfError),
    "geometric_pmf('0.5')": (lambda: geometric_pmf("0.5"), NegativeProbability),
    "geometric_pmf(1e-17).entries": (lambda: geometric_pmf(1e-17).entries, PmfError),
    "greedy_smp_pmf(1e-5)": (lambda: greedy_smp_pmf(1e-5), InvalidBeta),
    "BernoulliSource('0.5')": (lambda: BernoulliSource("0.5"), InvalidLambda),
    "MarkovSource(0.5, '0.2')": (lambda: MarkovSource(0.5, "0.2"), InvalidConfig),
    "ddad_policy('0.4')": (lambda: ddad_policy("0.4"), InvalidRate),
    "ddad_policy(5e-324)": (lambda: ddad_policy(5e-324), InvalidRate),
    "lcfs_age('0.5')": (lambda: lcfs_age("0.5", geometric_pmf(0.5)), InvalidLambda),
    "leakage_bits('5')": (lambda: Policy.dad(2).leakage_bits("5"), InvalidConfig),
    "AgeResult(0.5)": (lambda: AgeResult(0.5), InvalidConfig),
    "LeakageResult(-1, 3)": (lambda: LeakageResult(-1.0, 3), InvalidConfig),
    "run_criterion(11)": (lambda: run_criterion(11), InvalidConfig),
    "efficiency(point, 0)": (
        lambda: efficiency(TradeoffPoint("dad", 2.0, 0.5, 3.5, 0.5, 2.0, None), 0), InvalidLambda
    ),
    "SweepSpec('dad', 5)": (lambda: SweepSpec("dad", 5), InvalidConfig),
    "SweepSpec('dad', ('2',))": (lambda: SweepSpec("dad", ("2",)), InvalidConfig),
    "SweepSpec(seed=2**32)": (lambda: SweepSpec("dad", (2,), seed=2**32), InvalidConfig),
    "SimConfig(seed=2**32)": (
        lambda: SimConfig(None, BernoulliSource(0.5), horizon=100, warmup=0, seed=2**32), InvalidConfig
    ),
    "rad-uniform tau=8.98846567431158e+307": (
        lambda: policy_from_config({"kind": "rad-uniform", "tau": 8.98846567431158e307}), NonHalfIntegerTau
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_values_raise_typed_errors(case):
    build, error = REFUSED[case]
    with pytest.raises(error):
        build()


def assert_same_as_float(spec, key, value, policy):
    """The accepted policy is the one built from float(value), unless float rounds it."""
    try:
        as_float = float(value)
    except OverflowError:  # an int past the float range is kept whole
        return
    if as_float == value:
        assert policy == policy_from_config(dict(spec, **{key: as_float}))


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(value=OUTSIDE)
def test_registry_parameter_passes_a_rule_or_is_refused(name, value):
    key = FAMILIES[name].param
    spec = {"kind": name}
    try:
        policy = policy_from_config(dict(spec, **{key: value}))
    except AgeLeakError:
        return
    assert_same_as_float(spec, key, value, policy)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(value=OUTSIDE)
def test_registry_alpha_passes_a_rule_or_is_refused(name, value):
    spec = {"kind": name, FAMILIES[name].param: VALID[FAMILIES[name].param]}
    try:
        policy = policy_from_config(dict(spec, alpha=value))
    except AgeLeakError:
        return
    assert_same_as_float(spec, "alpha", value, policy)


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(["horizon", "warmup", "seed"]), value=OUTSIDE)
def test_scenario_counts_pass_a_rule_or_are_refused(tmp_path_factory, field, value):
    path = tmp_path_factory.getbasetemp() / "scenario.json"
    path.write_text(json.dumps(dict(SCENARIO, **{field: value})))
    try:
        cfg = load_scenario(str(path))
    except AgeLeakError:
        return
    count = getattr(cfg, field)
    assert type(count) is int and count == value
