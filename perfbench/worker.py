"""One workload in one fresh process: set up, run whole rounds, check.

Started by run.py, never by hand.  ``--t0`` is the runner's monotonic clock
just before it started this process, so the reported set-up time covers
interpreter start, imports and input building.  Prints one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import spans
from probe import Probe


def _environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


#: Operations are grouped into segments of about this many seconds, with a
#: probe between segments.
SEGMENT_S = 0.5


def _rounds(workload, budget, tracer, probe):
    """Run whole rounds until another would overrun ``budget`` seconds.

    The operations of a round are timed in segments of about SEGMENT_S
    seconds with a probe before and after each segment; an operation's
    relative time is its time over the mean of the two probes around it.
    Returns per-round wall times (sum of the timed operations), each
    operation's times and relative times, the operations attempted and
    failed and the problems found.
    """
    walls, raw, rel, attempted, failed, problems = [], {}, {}, 0, 0, []
    spent = 0.0
    before = probe.measure()
    while True:
        start = time.perf_counter()
        r = len(walls)
        wall = segment_s = 0.0
        segment = []

        def close_segment():
            nonlocal before, segment, segment_s
            after = probe.measure()
            for name, elapsed in segment:
                raw.setdefault(name, []).append(elapsed)
                rel.setdefault(name, []).append(elapsed / (0.5 * (before + after)))
            before, segment, segment_s = after, [], 0.0

        for k, op in enumerate(workload.ops(r)):
            attempted += op.weight
            if tracer is not None:
                tracer.begin_op(f"{r}.{k}", op.name)
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += op.weight
                problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op()
                wall += elapsed
                segment.append((op.name, elapsed))
                segment_s += elapsed
            try:
                wrong = op.check(result)
            except Exception as exc:  # a malformed result is a wrong one
                wrong = [f"{op.name}: check raised {type(exc).__name__}: {exc}"]
            failed += min(len(wrong), op.weight)
            problems += wrong
            if segment_s >= SEGMENT_S:
                close_segment()
        if segment:
            close_segment()
        walls.append(wall)
        spent += time.perf_counter() - start
        if spent + spent / len(walls) > budget:
            return walls, raw, rel, attempted, failed, problems


def _throughput(workload, wall_s, op_s):
    """Simulated slots per second of ``wall_s``, and simulated sweep points
    per second inside the sweep calls (0 where none run)."""
    slots = getattr(workload, "slots_per_round", 0)
    points = getattr(workload, "points_per_round", 0)
    sweep_s = sum(t for name, t in op_s.items() if name.startswith("sweep."))
    return {
        "sim_slots_per_s": slots / wall_s,
        "curve_points_per_s": points / sweep_s if sweep_s else 0.0,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of rounds")
    parser.add_argument("--t0", type=float, required=True, help="runner's time.monotonic()")
    parser.add_argument("--trace-file", help="record spans and write them here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import ageleak

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(ageleak.__file__))) != src:
        sys.exit(f"ageleak was imported from {ageleak.__file__}, not from {src}")

    tracer = None
    if args.trace_file:
        tracer = spans.Tracer(args.workload)
        tracer.install()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    probe = Probe()
    try:
        walls, raw, rel, attempted, failed, problems = _rounds(workload, args.budget, tracer, probe)
    finally:
        probe.close()
    # The machine's speed drifts with its neighbours' load, so each
    # operation's median is taken over its times relative to the probes run
    # around it; run.py turns the sum back into seconds.
    op_s = {name: statistics.median(times) for name, times in raw.items()}
    rel_s = {name: statistics.median(times) for name, times in rel.items()}
    report = {
        "setup_s": setup_s,
        "unscaled_wall_s": sum(op_s.values()),
        "rel_wall": sum(rel_s.values()),
        "walls": walls,
        "op_s": op_s,
        "probes": probe.times,
        "median_probe_s": statistics.median(probe.times),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput": _throughput(workload, sum(op_s.values()), op_s),
        "env": _environment(),
    }
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer.spans, len(walls))
        tracer.write(args.trace_file)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
