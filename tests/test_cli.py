import json
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ageleak
from ageleak import SweepSpec, ddad_policy, optimal_alpha_for_fcfs, policy_from_config, read_csv, sweep
from ageleak.cli import build_parser, main
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


def test_age_rad_geometric_near_one(capsys):
    code, out = run(capsys, "age", "--policy", "rad-geo", "--mu", "0.99", "--lambda", "0.5")
    assert code == 0
    assert float(value_of(out, "delta")) == ageleak.Policy.rad(ageleak.geometric_pmf(0.99)).mean_age(0.5).delta
    assert float(value_of(out, "delta")) == pytest.approx(2.0 + 1.0 / 0.99, rel=1e-15)


@pytest.mark.parametrize("argv, key, expected, rel", [
    # 1/lambda + tau, from a geometric pmf whose tail a truncation could not carry
    (("age", "--policy", "rad-geo", "--tau", "1000", "--lambda", "0.5"), "delta", 1002.0, 1e-15),
    (("age", "--policy", "lcfs-geo", "--tau", "1e17", "--lambda", "0.5"), "delta", 1.0 + 2.0 * (1.0 + 1e17 * 0.5), 1e-15),
    # log2(1 + 1/tau) per slot; each slot's factor 1 + 1e-6 is rounded to 2^-53, 1e-10 of its log
    (("leakage", "--policy", "rad-geo", "--tau", "1000000", "--n", "1000000"), "bits", 1e6 * math.log2(1.0 + 1e-6), 2e-10),
    (("rate", "--policy", "rad-geo", "--tau", "1e17"), "rate", math.log2(1.0 + 1e-17), 1e-12),
])
def test_geometric_tails_answer_in_closed_form(capsys, argv, key, expected, rel):
    code, out = run(capsys, *argv)
    assert code == 0
    assert float(value_of(out, key)) == pytest.approx(expected, rel=rel)


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
    assert float(value_of(out, "gamma_star")) == pytest.approx(2.632764397952487, rel=1e-15)
    # an integer period is a pure DAD schedule: one duration, no mass on a
    # second, and gamma* = E[D^2]/E[D] is the period itself
    for argv, support in ((("--policy", "dad", "--tau", "3"), "3"), (("--policy", "ddad", "--rate", "1"), "1")):
        code, out = run(capsys, "optimize", *argv)
        assert code == 0
        assert (value_of(out, "support"), value_of(out, "p_j")) == (support, "0.0")
        assert float(value_of(out, "gamma_star")) == float(support)


def test_optimize_ddad_weights_come_from_the_given_rate(capsys):
    # p_i is about delta / r with delta = 7 r - 1 = 1.4e-8 here, so it moves
    # about 1/delta times the rate's relative error: a rate recomputed by
    # root-finding moved it by 2.7e-8 relative
    rate = 1.0 / (7 - 1e-7)
    code, out = run(capsys, "optimize", "--policy", "ddad", "--rate", repr(rate))
    assert code == 0
    assert float(value_of(out, "p_i")) == ddad_policy(rate).p_i
    assert float(value_of(out, "p_j")) == ddad_policy(rate).p_j


def test_ddad_keeps_its_target_rate_at_tiny_rates(capsys):
    # 1/rate near 3.3e6 and 1e9 slots: dither weights from differences of
    # powers of 2^rate would lose the digits of the rate, or go negative
    code, out = run(capsys, "rate", "--policy", "ddad", "--rate", "3e-7")
    assert code == 0
    assert float(value_of(out, "rate")) == pytest.approx(3e-7, rel=1e-15)
    code, out = run(capsys, "optimize", "--policy", "ddad", "--rate", "1e-9")
    assert code == 0
    assert 0.0 < float(value_of(out, "p_i")) < 1.0


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


@pytest.mark.parametrize("flag, value", [("--policy", "dad"), ("--lambda", "0.5"), ("--p01", "0.1"),
                                         ("--slots", "1000000"), ("--warmup", "10000"), ("--seed", "0")])
def test_scenario_refuses_each_flag_it_sets(capsys, tmp_path, flag, value):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(SCENARIO))
    assert main(["simulate", flag, value, "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {flag} cannot be given with --scenario, which sets it\n"


@pytest.mark.parametrize("flags, err", [
    (("--p01", "0.1"), "error: a markov source needs 'p10'\n"),
    (("--p01", "0.1", "--p10", "0.2", "--lambda", "0.3"), "error: a markov source does not read 'lambda'\n"),
])
def test_simulate_reads_its_source_flags_as_a_scenario_source(capsys, flags, err):
    assert main(["simulate", "--policy", "dad", "--tau", "5", *flags]) == 2
    assert capsys.readouterr().err == err


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


def test_convergence_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(ageleak.leakage, "ROOT_MAX_ITER", 1)
    assert main(["rate", "--policy", "rad-uniform", "--tau", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: root of sum c_d z^-d = 1 not located ")


def test_unstable_fcfs_exit_code(capsys):
    code = main(["age", "--policy", "mbt", "--mu", "0.4", "--alpha", "1.0", "--lambda", "0.5"])
    assert code == 2


@pytest.mark.parametrize("argv,code,out,err", [
    (["--policy", "fcfs", "--pmf", '{"entries": [[1, 0.999999999999999]]}', "--lambda", "1"], 0, "delta 2.0\n", ""),
    (["--policy", "fcfs", "--pmf", '{"entries": [[1, 1.0]]}', "--lambda", "1e-300", "--alpha", "1e-300"], 2, "",
     "error: effective arrival rate alpha*lambda 0.0 is below 2.2250738585072014e-308: the age, about 1 / rate, "
     "would pass the float range\n"),
    (["--policy", "fcfs", "--pmf", '{"entries": [[1, 1.0]]}', "--lambda", "1e-300", "--alpha", "1e-12"], 2, "",
     "error: effective arrival rate alpha*lambda 1e-312 is below 2.2250738585072014e-308: the age, about 1 / rate, "
     "would pass the float range\n"),
    (["--policy", "dad", "--tau", "5", "--lambda", "1e-320"], 2, "",
     "error: arrival rate lambda 1e-320 is below 2.2250738585072014e-308: the age, about 1 / rate, "
     "would pass the float range\n"),
    (["--policy", "lcfs-geo", "--tau", "4", "--lambda", "1e-320"], 2, "",
     "error: completion rate lambda*E[(1-lambda)^(S-1)] 1e-320 is below 2.2250738585072014e-308: the age, "
     "about 1 / rate, would pass the float range\n"),
    (["--policy", "rad-uniform", "--tau", "2", "--lambda", "1e-310"], 2, "",
     "error: arrival rate lambda 1e-310 is below 2.2250738585072014e-308: the age, about 1 / rate, "
     "would pass the float range\n"),
    # a finite age near 10^1999, whose E[(1-lambda)^(S-1)] = 0.1^1999 underflows to 0
    (["--policy", "lcfs", "--pmf", '{"entries": [[2000, 1.0]]}', "--lambda", "0.9"], 2, "",
     "error: completion rate lambda*E[(1-lambda)^(S-1)] 0.0 is below 2.2250738585072014e-308: the age, "
     "about 1 / rate, would pass the float range\n"),
], ids=["rate-one", "rate-underflows-to-zero", "subnormal-rate", "dad-subnormal-lambda", "lcfs-geo-subnormal-lambda",
        "rad-uniform-subnormal-lambda", "lcfs-completion-underflows"])
def test_fcfs_ages_at_the_edges_under_warnings_as_errors(argv, code, out, err):
    """Ages at the input edges: a limit taken, or a typed refusal where the age would pass the float range."""
    env = {**os.environ, "PYTHONPATH": str(Path(ageleak.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-W", "error", "-m", "ageleak.cli", "age", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


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
        ("simulate", "--scenario", dict(SCENARIO, horizon=2**31 + 1)),
        ("sweep", "--policy", "dad", "--grid", "2", "--simulate", "--slots", "2147483649"),
        ("sweep", "--policy", "dad", "--grid", "2", "--simulate", "--slots", "20000", "--seed", "4294967296"),
        ("optimize", "--policy", "lcfs-geo", "--tau", "1e17"),  # its pmf line would list ~3.7e18 entries
        ("rate", "--policy", "ddad", "--rate", "5e-324"),
        ("age", "--policy", "lcfs", "--pmf", '{"entries": [[1, "1"]]}'),
        ("simulate", "--scenario", dict(SCENARIO, policy={"kind": "dad", "tau": "abc"})),
        ("simulate", "--scenario", dict(SCENARIO, policy={"kind": "dad", "tau": "5"})),
        ("simulate", "--scenario", dict(SCENARIO, policy={"kind": "mbt", "mu": 0.5, "alpha": "0.5"})),
        ("simulate", "--scenario", dict(SCENARIO, policy={"kind": "lcfs-greedy", "beta": True})),
        ("simulate", "--scenario", dict(SCENARIO, policy={"kind": ["dad"], "tau": 4})),
        ("age", "--policy", "dad", "--tau", "1e300"),
        ("rate", "--policy", "rad", "--pmf", '{"entries": [[1, 0.5], [1%s, 0.5]]}' % ("0" * 400)),
        # options that a subcommand or a family would otherwise ignore
        ("leakage", "--policy", "dad", "--tau", "5", "--lambda", "7"),
        ("rate", "--policy", "dad", "--tau", "5", "--lambda", "7"),
        ("oracle", "--policy", "dad", "--tau", "2", "--n", "4", "--lambda", "7"),
        ("optimize", "--policy", "fcfs-greedy", "--beta", "0.5", "--alpha", "0.5"),
        ("sweep", "--policy", "fcfs-greedy", "--alpha", "0.5", "--grid", "0.5"),
        ("sweep", "--policy", "dad", "--tau", "9", "--beta", "0.2", "--grid", "3"),
        ("age", "--policy", "dad", "--tau", "5", "--beta", "0.3"),
        ("age", "--policy", "dad", "--tau", "5", "--pmf", '{"entries": [[2, 1.0]]}'),
        ("age", "--policy", "lcfs-geo", "--tau", "4", "--mu", "0.3"),
        ("simulate", "--scenario", dict(SCENARIO, policy={"kind": "dad", "tau": 5, "beta": 0.3})),
        ("leakage",),
        # flags that a scenario or a Markov source would otherwise ignore
        ("simulate", "--policy", "lcfs-greedy", "--beta", "0.3", "--lambda", "0.9", "--slots", "5",
         "--scenario", SCENARIO),
        ("simulate", "--policy", "dad", "--tau", "5", "--p01", "0.1", "--p10", "0.2", "--lambda", "0.3"),
        # run flags that only a simulated sweep reads
        ("sweep", "--policy", "ddad", "--grid", "0.5", "--slots", "5", "--seed", "3", "--warmup", "7"),
        ("sweep", "--policy", "dad", "--grid", "3", "--seed", "3"),
        # a stepped grid whose stop lies before its start
        ("sweep", "--policy", "dad", "--grid", "5:1:1"),
        # scenario files that are not JSON, name an unknown source kind or lack a key
        ("simulate", "--scenario", b'{"policy": {"kind": "dad", "tau": 4},'),
        ("simulate", "--scenario", dict(SCENARIO, source={"kind": "poisson", "lambda": 0.5})),
        ("simulate", "--scenario", {key: value for key, value in SCENARIO.items() if key != "horizon"}),
        # JSON objects with a key nothing reads: a pmf's, a scenario's and a Markov source's
        ("age", "--policy", "lcfs", "--pmf", '{"entries": [[1, 1.0]], "hazard": 0.3}', "--lambda", "0.5"),
        ("simulate", "--scenario", dict(SCENARIO, warmpu=40_000)),
        ("simulate", "--scenario", dict(SCENARIO, source={"kind": "markov", "p01": 0.1, "p10": 0.2, "lambda": 0.9})),
        # an age-optimal admission search at an arrival rate below the least normal double
        ("optimize", "--policy", "fcfs-greedy", "--beta", "0.5", "--lambda", "2e-308"),
        ("optimize", "--policy", "fcfs-greedy", "--beta", "0.5", "--lambda", "1e-310"),
        ("sweep", "--policy", "fcfs-greedy-thinned", "--grid", "0.5", "--lambda", "1e-310"),
        # an empty scenario path, read as a path and not as no scenario
        ("simulate", "--policy", "dad", "--tau", "5", "--slots", "20000", "--scenario", ""),
    ],
)
def test_refused_inputs_exit_2(capsys, tmp_path, argv):
    argv = list(argv)
    if not isinstance(argv[-1], str):  # a scenario, passed as the path of its JSON file, or of its raw bytes
        path = tmp_path / "scenario.json"
        if isinstance(argv[-1], bytes):
            path.write_bytes(argv[-1])
        else:
            path.write_text(json.dumps(argv[-1]))
        argv[-1] = str(path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("slots", ["2147483649", "9223372036854775808"])
def test_horizons_past_the_cap_exit_2_at_once(slots):
    env = {**os.environ, "PYTHONPATH": str(Path(ageleak.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-m", "ageleak.cli", "simulate", "--policy", "dad", "--tau", "5",
                          "--slots", slots], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 2
    assert (out.stdout, out.stderr) == ("", f"error: horizon {slots} is above 2**31 slots\n")


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [shlex.split(line, comments=True)[1:] for line in readme.splitlines() if line.startswith("ageleak ")]
    assert len(lines) >= 10
    for argv in lines:
        build_parser().parse_args(argv)


@pytest.mark.parametrize("family, grid, values", [
    ("ddad", "0.05:1.0:0.01", [0.05 + i * 0.01 for i in range(95)] + [1.0]),  # the README's; arange passed 1
    ("dad", "1:25:1", [float(i) for i in range(1, 26)]),
    ("rad-geo", "1:2:0.3", [1.0, 1.0 + 0.3, 1.0 + 2 * 0.3, 1.0 + 3 * 0.3]),  # 0.3 does not divide the range
    ("rad-geo", "1:2:0.35", [1.0, 1.0 + 0.35, 1.0 + 2 * 0.35]),  # nor 0.35, where rounding the steps passes 2
    ("rad-geo", "2:2:1", [2.0]),
    ("dad", "5:1:-1", [5.0, 4.0, 3.0, 2.0, 1.0]),
])
def test_stepped_grids_run_from_start_to_stop(capsys, family, grid, values):
    code, out = run(capsys, "sweep", "--policy", family, "--grid", grid)
    assert code == 0
    assert [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]] == values


def test_stepped_grid_reports_plain_floats(capsys):
    assert main(["sweep", "--policy", "mbt", "--grid", "1.5:3:0.5"]) == 2
    assert capsys.readouterr().err == "error: geometric parameter 1.5 outside (0, 1]\n"


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
    argv = ["--policy", family, flag, repr(value)]
    if FAMILIES[family].thinned:
        pmf = policy_from_config({"kind": family, FAMILIES[family].param: value}).pmf
        argv += ["--alpha", repr(optimal_alpha_for_fcfs(0.3, pmf)[0])]
    _, out = run(capsys, "age", *argv, "--lambda", "0.3")
    assert float(value_of(out, "delta")) == point.delta
    _, out = run(capsys, "rate", *argv)
    assert float(value_of(out, "rate")) == point.rate_bits
    assert float(value_of(out, "leak_time")) == point.leak_time


def test_rate_with_a_lag_past_int64_answers(capsys):
    code, out = run(capsys, "rate", "--policy", "rad", "--pmf", '{"entries": [[1, 0.5], [1e20, 0.5]]}')
    assert code == 0
    assert float(value_of(out, "rate")) == ageleak.leakage.rad_rate(ageleak.make_pmf([(1, 0.5), (10**20, 0.5)]))


#: Address space of the child below: far under the 74.5 GiB a float64 array
#: as long as a 10^10-slot support would take.
CHILD_ADDRESS_SPACE = 2 << 30


def limited_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize("argv,expected", [
    (["rate", "--policy", "dad", "--tau", "1e10"], ("rate", "1e-10")),
    (["leakage", "--policy", "lcfs", "--pmf", '{"entries": [[10000000000, 1.0]]}', "--n", "5"], ("bits", "0.0")),
    (["leakage", "--policy", "dad", "--tau", "1e20", "--n", "10"], ("bits", "0.0")),
    (["simulate", "--policy", "dad", "--tau", "1e20", "--slots", "20000"], ("delivered", "0")),
])
def test_huge_supports_answer_in_bounded_memory(argv, expected):
    env = {**os.environ, "PYTHONPATH": str(Path(ageleak.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-m", "ageleak.cli", *argv], capture_output=True, text=True,
                         env=env, preexec_fn=limited_address_space, timeout=120)
    assert out.returncode == 0, out.stderr
    assert value_of(out.stdout, expected[0]) == expected[1]
