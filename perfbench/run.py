"""ageleak benchmark: one command for the check, horizon and curve workloads.

    python3 perfbench/run.py                      # every workload once
    python3 perfbench/run.py --repeat 10          # ten fresh runs of each, with quartiles
    python3 perfbench/run.py --workload horizon --seed 3 --seconds 20 --trace 0

With ``--workload`` it runs that workload alone and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
ones with ``--trace 1``.  Every workload runs in fresh worker processes, one
at a time, with the BLAS and OpenMP thread counts set to 1 and ``ageleak``
imported from this checkout's ``src``.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

from probe import Probe

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("check", "horizon", "curve")

#: Set-up-only processes started before the measured one, each between two
#: speed probes; set-up time is the median over them.
SETUP_RUNS = 10

#: Reference time of one speed probe (probe.py).  Timed end-to-end metrics
#: are divided by the machine's speed measured by the probe in the same run
#: and multiplied by this, so they read as seconds on a machine where one
#: probe takes PROBE_REF_S.
PROBE_REF_S = 0.06

#: A single-workload run gives up after this long, so it ends well inside
#: the three minutes a run may take.
RUN_LIMIT_S = 170.0

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(Exception):
    pass


def _worker_env():
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(cmd, deadline):
    """Run one child to its end and return its last stdout line as JSON."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_worker_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish in time") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def _worker(args, deadline):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), *args]
    return _spawn(cmd + ["--t0", repr(time.monotonic())], deadline)


def _metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(name, seed, seconds, traced):
    """One run of one workload; returns (result line, full record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    end_to_end, per_layer = _metric_units()
    base = ["--workload", name, "--seed", str(seed)]
    if not traced:
        probe = Probe()
        try:
            setups, rel_setups = [], []
            before = probe.measure()
            for _ in range(SETUP_RUNS):
                setups.append(_worker(base + ["--budget", "0", "--setup-only"], deadline)["setup_s"])
                after = probe.measure()
                rel_setups.append(setups[-1] / (0.5 * (before + after)))
                before = after
        finally:
            probe.close()
        main = _worker(base + ["--budget", str(seconds)], deadline)
        values = {"setup_s": statistics.median(rel_setups) * PROBE_REF_S,
                  "wall_s": main["rel_wall"] * PROBE_REF_S,
                  "peak_rss_mb": main["peak_rss_mb"]}
        runs, units = [main], end_to_end
        record = {"setups": setups, "setup_probes": probe.times,
                  "raw": {"setup_s": statistics.median(setups), "wall_s": main["unscaled_wall_s"]}}
    else:
        # Half the time untraced, half traced; their difference is the
        # tracing overhead.  The untraced process installs no wrappers.
        plain = _worker(base + ["--budget", str(seconds / 2)], deadline)
        spans_file = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
        traced_run = _worker(base + ["--budget", str(seconds / 2), "--trace-file", spans_file],
                             deadline)
        values = dict(traced_run["layers"])
        values.update(plain["throughput"])
        values["trace.overhead_s"] = PROBE_REF_S * (traced_run["rel_wall"] - plain["rel_wall"])
        runs, units = [plain, traced_run], per_layer
        record = {"spans_file": os.path.relpath(spans_file, ROOT)}
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"no value for {missing}")
    problems = [p for r in runs for p in r["problems"]]
    line = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }
    record.update({"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
                   "result": line, "problems": problems, "runs": runs, "env": runs[0]["env"]})
    if not traced:
        record["throughput"] = main["throughput"]
    return line, record


def _print_single(line, record):
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, metric in line["metrics"].items():
        print(f"{record['workload']} {name} = {metric['value']:.6g} {metric['unit']}")
    if not record["trace"]:
        walls = record["runs"][0]["walls"]
        print(f"{record['workload']} rounds {len(walls)}, unscaled: median round "
              f"{statistics.median(walls):.6g} s, set-up {record['raw']['setup_s']:.6g} s, "
              f"median probe {record['runs'][0]['median_probe_s']:.6g} s")
    if not record["trace"] and record["workload"] == "curve":
        for name, value in record["throughput"].items():
            print(f"curve {name} = {value:.6g} {'slots/s' if 'slots' in name else 'points/s'}")
    print(f"{record['workload']} attempted {line['attempted']} failed {line['failed']} "
          f"correct {line['correct']}")
    print("env " + json.dumps(record["env"]))
    print(json.dumps(line))


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(count, first_seed, seconds, traced):
    """Fresh single-workload runs of every workload, alternating the order."""
    rows = {name: [] for name in WORKLOADS}
    ok = True
    for rep in range(count):
        for name in (WORKLOADS if rep % 2 == 0 else WORKLOADS[::-1]):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(first_seed + rep), "--seconds", str(seconds),
                   "--trace", str(int(traced))]
            try:
                line = _spawn(cmd, time.monotonic() + RUN_LIMIT_S + 10.0)
            except BenchError as exc:
                print(f"{name} run {rep}: {exc}", file=sys.stderr)
                ok = False
                continue
            ok = ok and line["correct"]
            rows[name].append(line)
            print(f"run {rep} {name} seed {first_seed + rep}: attempted {line['attempted']} "
                  f"failed {line['failed']} correct {line['correct']}", flush=True)
    summary = {}
    for name, lines in rows.items():
        if not lines:
            continue
        summary[name] = {"runs": [{k: l[k] for k in ("correct", "attempted", "failed")} for l in lines],
                         "metrics": {}}
        for metric, first in lines[0]["metrics"].items():
            values = [l["metrics"][metric]["value"] for l in lines]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            summary[name]["metrics"][metric] = {"unit": first["unit"], "median": med, "q1": q1,
                                                "q3": q3, "spread": spread, "values": values}
            print(f"{name:8s} {metric:34s} median {med:12.6g} {first['unit']:9s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    path = os.path.join(OUT, f"repeat-{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"count": count, "first_seed": first_seed, "seconds": seconds,
                   "trace": int(traced), "workloads": summary}, fh, indent=1)
    print(f"summary written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": ok, "workloads": {n: s["runs"] for n, s in summary.items()}}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="run this workload alone")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs of each workload")
    args = parser.parse_args()
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")

    for required in ("BENCHMARK.json", os.path.join("src", "ageleak", "__init__.py")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            print(f"error: {required} is missing from {ROOT}", file=sys.stderr)
            return 2
    os.makedirs(OUT, exist_ok=True)

    if args.workload is None:
        return repeat(args.repeat, args.seed, args.seconds, bool(args.trace))

    try:
        line, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _print_single(line, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
