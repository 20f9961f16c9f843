import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import ageleak
from ageleak import SweepSpec, optimal_alpha_for_fcfs, policy_from_config, read_csv, sweep
from ageleak.cli import main
from ageleak.policy import FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def value_of(output, key):
    for line in output.splitlines():
        if line.startswith(key + " "):
            return line.split(" ", 1)[1]
    raise AssertionError(f"no {key!r} line in {output!r}")


def test_age_lcfs_geometric(capsys):
    code, out = run(capsys, "age", "--policy", "lcfs-geo", "--tau", "4", "--lambda", "0.5")
    assert code == 0
    assert float(value_of(out, "delta")) == pytest.approx(6.0, abs=1e-9)


def test_age_ddad(capsys):
    code, out = run(capsys, "age", "--policy", "ddad", "--rate", "0.5", "--lambda", "0.5")
    assert code == 0
    assert float(value_of(out, "delta")) == pytest.approx(3.5, abs=1e-9)


def test_leakage_dad(capsys):
    code, out = run(capsys, "leakage", "--policy", "dad", "--tau", "3", "--n", "10")
    assert code == 0
    assert float(value_of(out, "bits")) == 3.0


def test_leakage_lcfs_greedy(capsys):
    code, out = run(capsys, "leakage", "--policy", "lcfs-greedy", "--beta", "0.5", "--n", "10")
    assert code == 0
    assert float(value_of(out, "bits")) == pytest.approx(10 * math.log2(1.5), abs=1e-9)


def test_rate_dad(capsys):
    code, out = run(capsys, "rate", "--policy", "dad", "--tau", "5")
    assert code == 0
    assert float(value_of(out, "rate")) == pytest.approx(0.2, abs=1e-12)
    assert float(value_of(out, "leak_time")) == pytest.approx(5.0, abs=1e-9)


def test_rate_coupled_exact_when_s1_is_one(capsys):
    code, out = run(capsys, "rate", "--policy", "lcfs-greedy", "--beta", "1.0")
    assert code == 0
    assert float(value_of(out, "rate")) == pytest.approx(1.0)


def test_rate_coupled_s1_above_one_is_exact(capsys):
    code, out = run(capsys, "rate", "--policy", "lcfs", "--pmf", '{"entries": [[2, 1.0]]}')
    assert code == 0
    rate = float(value_of(out, "rate"))
    assert rate == pytest.approx(math.log2((1.0 + math.sqrt(5.0)) / 2.0), abs=1e-12)
    assert 0.5 < rate < 1.0  # inside the bracket (1/s1) log2(1+beta) <= rate <= log2(1+beta)
    assert float(value_of(out, "leak_time")) == pytest.approx(1.0 / rate, abs=1e-12)


def test_optimize_ddad(capsys):
    code, out = run(capsys, "optimize", "--policy", "ddad", "--rate", "0.4")
    assert code == 0
    assert value_of(out, "support") == "2,3"
    assert float(value_of(out, "p_i")) == pytest.approx(0.4653980386192361, abs=1e-9)
    assert value_of(out, "sandwich_ok") == "True"


def test_optimize_fcfs_greedy(capsys):
    code, out = run(
        capsys, "optimize", "--policy", "fcfs-greedy", "--beta", "0.2", "--lambda", "0.5"
    )
    assert code == 0
    assert float(value_of(out, "alpha")) < 0.67


def test_sweep_to_csv(tmp_path, capsys):
    path = tmp_path / "dad.csv"
    code, _ = run(
        capsys, "sweep", "--policy", "dad", "--grid", "1:5:1", "--lambda", "0.5",
        "--out", str(path),
    )
    assert code == 0
    points = read_csv(str(path))
    assert len(points) == 5
    assert points[0].delta == 3.0
    assert points[4].leak_time == 5.0


def test_sweep_stdout(capsys):
    code, out = run(capsys, "sweep", "--policy", "lcfs-greedy", "--grid", "0.5,1.0")
    assert code == 0
    assert out.splitlines()[0].startswith("policy_tag,")
    assert len(out.strip().splitlines()) == 3


def test_simulate_scenario(tmp_path, capsys):
    scenario = {
        "policy": {"kind": "lcfs-geo", "tau": 2},
        "source": {"kind": "bernoulli", "lambda": 0.5},
        "horizon": 80_000,
        "warmup": 5_000,
        "seed": 4,
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code, out = run(capsys, "simulate", "--scenario", str(path))
    assert code == 0
    mean = float(value_of(out, "mean_age"))
    ci = float(value_of(out, "ci_half_width"))
    assert abs(mean - 4.0) <= max(3 * ci, 0.08)


def test_simulate_markov_flags(capsys):
    code, out = run(
        capsys, "simulate", "--policy", "dad", "--tau", "5", "--p01", "0.05", "--p10", "0.2",
        "--slots", "200000", "--seed", "8",
    )
    assert code == 0
    mean = float(value_of(out, "mean_age"))
    ci = float(value_of(out, "ci_half_width"))
    assert abs(mean - 20.0) <= max(3 * ci, 0.4)


def test_oracle_agrees_with_closed_form(capsys):
    code, out = run(capsys, "oracle", "--policy", "lcfs-greedy", "--beta", "0.5", "--n", "6")
    assert code == 0
    assert float(value_of(out, "gap")) <= 1e-9


def test_oracle_rad(capsys):
    code, out = run(capsys, "oracle", "--policy", "dad", "--tau", "2", "--n", "8")
    assert code == 0
    assert float(value_of(out, "bits")) == 4.0
    assert float(value_of(out, "gap")) <= 1e-9


def test_validation_error_exit_code(capsys):
    code = main(["age", "--policy", "lcfs-greedy", "--beta", "1.5"])
    assert code == 2


def test_unstable_fcfs_exit_code(capsys):
    code = main(["age", "--policy", "mbt", "--mu", "0.4", "--alpha", "1.0", "--lambda", "0.5"])
    assert code == 2


def test_output_file(tmp_path, capsys):
    path = tmp_path / "age.txt"
    code, _ = run(
        capsys, "age", "--policy", "dad", "--tau", "5", "--lambda", "0.5", "--out", str(path)
    )
    assert code == 0
    assert "delta 5.0" in path.read_text()


#: A valid scenario; the refused cases below each spoil one field.
SCENARIO = {
    "policy": {"kind": "dad", "tau": 4},
    "source": {"kind": "bernoulli", "lambda": 0.5},
    "horizon": 60_000,
    "seed": 1,
}


@pytest.mark.parametrize(
    "argv",
    [
        ("leakage", "--policy", "lcfs", "--pmf", '{"entries": [[1, 0.2], [2, 0.8]]}', "--n", "10"),
        ("rate", "--policy", "fcfs", "--pmf", '{"entries": [[1, 0.2], [2, 0.8]]}'),
        ("leakage", "--policy", "dad", "--tau", "5", "--n", "-1"),
        ("leakage", "--policy", "dad", "--tau", "2.5", "--n", "10"),
        ("rate", "--policy", "rad-uniform", "--tau", "2.3"),
        ("sweep", "--policy", "dad", "--grid", "2.5"),
        ("age", "--policy", "dad"),
        ("age", "--policy", "lcfs-greedy"),
        ("optimize", "--policy", "mbt"),
        ("simulate", "--policy", "dad", "--tau", "5", "--p01", "0.1"),
        ("age", "--policy", "lcfs", "--pmf", "notjson"),
        ("age", "--policy", "lcfs", "--pmf", "{}"),
        ("age", "--policy", "lcfs-geo", "--tau", "5", "--alpha", "0.5"),
        ("age", "--policy", "rad-geo", "--tau", "5", "--alpha", "0.5"),
        ("age", "--policy", "dad", "--tau", "5", "--alpha", "0.5"),
        ("age", "--policy", "rad-uniform", "--tau", "3", "--alpha", "0.5"),
        ("age", "--policy", "ddad", "--rate", "0.4", "--alpha", "0.5"),
        ("simulate", "--slots", "1000"),
        ("sweep", "--policy", "lcfs", "--grid", "1"),
        ("sweep", "--policy", "dad", "--grid", "1:5"),
        ("sweep", "--policy", "dad", "--grid", "1:5:0"),
        ("oracle", "--policy", "dad", "--tau", "2", "--n", "-1"),
        ("simulate", "--scenario", "no-such-scenario.json"),
        ("age", "--policy", "lcfs", "--pmf", '{"entries": [["a", 1]]}'),
        ("age", "--policy", "lcfs", "--pmf", '{"entries": [[1, "x"]]}'),
        ("age", "--policy", "lcfs", "--pmf", '{"entries": [[1, [1]]]}'),
        ("simulate", "--scenario", dict(SCENARIO, horizon=60000.7)),
        ("simulate", "--scenario", dict(SCENARIO, seed=1.9)),
        ("simulate", "--scenario", dict(SCENARIO, source={"kind": "bernoulli", "lambda": "x"})),
        ("simulate", "--scenario", dict(SCENARIO, horizon="abc")),
        ("simulate", "--scenario", [SCENARIO]),
        ("sweep", "--policy", "dad", "--grid", "2", "--simulate", "--slots", "20000", "--seed", "-1"),
        ("optimize", "--policy", "fcfs-greedy", "--beta", "0.5", "--lambda", "0"),
        ("age", "--policy", "dad", "--tau", "inf"),
        ("rate", "--policy", "rad-uniform", "--tau", "inf"),
        ("age", "--policy", "rad-uniform", "--tau", "8.98846567431158e+307"),
        ("simulate", "--policy", "dad", "--tau", "5", "--slots", "20000", "--seed", "4294967296"),
        ("sweep", "--policy", "dad", "--grid", "2", "--simulate", "--slots", "20000", "--seed", "4294967296"),
        ("age", "--policy", "lcfs-geo", "--tau", "1e17"),
        ("rate", "--policy", "ddad", "--rate", "5e-324"),
        ("age", "--policy", "lcfs", "--pmf", '{"entries": [[1, "1"]]}'),
        ("simulate", "--scenario", dict(SCENARIO, policy={"kind": "dad", "tau": "abc"})),
        ("simulate", "--scenario", dict(SCENARIO, policy={"kind": "dad", "tau": "5"})),
        ("simulate", "--scenario", dict(SCENARIO, policy={"kind": "mbt", "mu": 0.5, "alpha": "0.5"})),
        ("simulate", "--scenario", dict(SCENARIO, policy={"kind": "lcfs-greedy", "beta": True})),
        ("simulate", "--scenario", dict(SCENARIO, policy={"kind": ["dad"], "tau": 4})),
    ],
)
def test_refused_inputs_exit_2(capsys, tmp_path, argv):
    argv = list(argv)
    if not isinstance(argv[-1], str):  # a scenario, passed as the path of its JSON file
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(argv[-1]))
        argv[-1] = str(path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_oracle_non_smp_coupled_reports_no_closed_form(capsys):
    pmf = '{"entries": [[1, 0.2], [2, 0.8]]}'
    code, out = run(capsys, "oracle", "--policy", "lcfs", "--pmf", pmf, "--n", "10")
    assert code == 0
    assert float(value_of(out, "bits")) == pytest.approx(6.29, abs=0.01)
    assert "closed_form" not in out and "gap" not in out


#: One grid value per registry family, and the flags that give the CLI the
#: same policy; thinned families add the sweep's age-optimal alpha.
FAMILY_CASES = [
    ("lcfs-greedy", 0.37, "--beta"),
    ("fcfs-greedy", 0.8, "--beta"),
    ("fcfs-greedy-thinned", 0.3, "--beta"),
    ("lcfs-geo", 4.0, "--tau"),
    ("rad-geo", 4.0, "--tau"),
    ("mbt", 0.4, "--mu"),
    ("dad", 5.0, "--tau"),
    ("rad-uniform", 2.5, "--tau"),
    ("ddad", 0.4, "--rate"),
]


def test_family_cases_cover_the_registry():
    swept = {name for name, entry in FAMILIES.items() if entry.param != "pmf"}
    assert {name for name, _, _ in FAMILY_CASES} == swept


@pytest.mark.parametrize("family,value,flag", FAMILY_CASES)
def test_cli_and_sweep_agree_for_every_family(capsys, family, value, flag):
    point = sweep(SweepSpec(family, (value,), lam=0.3))[0]
    argv = ["--policy", family, flag, repr(value), "--lambda", "0.3"]
    if FAMILIES[family].thinned:
        pmf = policy_from_config({"kind": family, FAMILIES[family].param: value}).pmf
        argv += ["--alpha", repr(optimal_alpha_for_fcfs(0.3, pmf)[0])]
    _, out = run(capsys, "age", *argv)
    assert float(value_of(out, "delta")) == point.delta
    _, out = run(capsys, "rate", *argv)
    assert float(value_of(out, "rate")) == point.rate_bits
    assert float(value_of(out, "leak_time")) == point.leak_time


#: Address space of the child below: far under the 74.5 GiB a float64 array
#: as long as a 10^10-slot support would take.
CHILD_ADDRESS_SPACE = 2 << 30


def limited_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("argv,expected", [
    (["rate", "--policy", "dad", "--tau", "1e10"], ("rate", "1e-10")),
    (["leakage", "--policy", "lcfs", "--pmf", '{"entries": [[10000000000, 1.0]]}', "--n", "5"], ("bits", "0.0")),
])
def test_huge_supports_answer_in_bounded_memory(argv, expected):
    env = {**os.environ, "PYTHONPATH": str(Path(ageleak.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-m", "ageleak.cli", *argv], capture_output=True, text=True,
                         env=env, preexec_fn=limited_address_space, timeout=120)
    assert out.returncode == 0, out.stderr
    assert value_of(out.stdout, expected[0]) == expected[1]
