import json
import math

import pytest

from ageleak import read_csv
from ageleak.cli import main


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


def test_rate_coupled_s1_above_one_reports_bounds(capsys):
    code, out = run(
        capsys, "rate", "--policy", "lcfs", "--pmf", '{"entries": [[2, 1.0]]}', "--n", "2000"
    )
    assert code == 0
    assert float(value_of(out, "rate_lower")) == pytest.approx(0.5)
    assert float(value_of(out, "rate_upper")) == pytest.approx(1.0)
    ratio = float(value_of(out, "finite_n_ratio").split()[0])
    assert ratio == pytest.approx(0.694, abs=2e-3)


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


@pytest.mark.parametrize(
    "argv",
    [
        ("leakage", "--policy", "lcfs", "--pmf", '{"entries": [[1, 0.2], [2, 0.8]]}', "--n", "10"),
        ("rate", "--policy", "fcfs", "--pmf", '{"entries": [[1, 0.2], [2, 0.8]]}'),
        ("leakage", "--policy", "dad", "--tau", "5", "--n", "-1"),
        ("leakage", "--policy", "dad", "--tau", "2.5", "--n", "10"),
        ("rate", "--policy", "rad-uniform", "--tau", "2.3"),
        ("sweep", "--policy", "dad", "--grid", "2.5"),
    ],
)
def test_refused_inputs_exit_2(capsys, argv):
    code = main(list(argv))
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
