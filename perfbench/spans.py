"""Spans around every call into ageleak's public functions, and the
per-layer metrics derived from them.

Only the traced run imports this module to install wrappers; the untraced
run leaves the package untouched.  A wrapper replaces each public function
everywhere an ``ageleak`` module binds the name (for example both
``ageleak.oracle.brute_force_maxl`` and ``ageleak.checks.brute_force_maxl``),
so calls made inside the package are caught as well as the benchmark's own.
"""

import functools
import importlib
import json
import time
import tracemalloc
import types

#: Modules whose public functions get spans.  ``sources`` and ``policy``
#: only build frozen descriptors, so their functions are left unwrapped and
#: their time counts to the caller.
LAYERS = ("pmf", "leakage", "age", "optimize", "oracle", "sim", "tradeoff", "checks", "cli")

#: Modules whose bindings are rewritten: every module that can call a layer.
BINDING_MODULES = LAYERS + ("sources", "policy")

_RATE_FNS = {"rad_rate", "uniform_rad_rate", "geometric_rad_rate", "dad_rate"}
_PMF_BUILDERS = {"make_pmf", "geometric_pmf", "uniform_pmf", "deterministic_pmf"}
_SIM_RUNS = {"simulate", "simulate_markov", "empirical_source_age"}
_LONG_RUN = 5_000_000


def _oracle_attrs(args, kwargs, result):
    policy = args[0] if args else kwargs["policy"]
    if len(args) > 1 or "n" in kwargs:
        n = int(args[1] if len(args) > 1 else kwargs["n"])
        rows = 1 << n
    else:  # enumerate_channel: one input word
        n = len(list(args[1] if len(args) > 1 else kwargs["x_seq"]))
        rows = 1
    return {"n": n, "rows": rows, "coupled": policy.kind != "rad"}


def _rad_attrs(args, kwargs, result):
    n = int(args[0] if args else kwargs["n"])
    pmf = args[1] if len(args) > 1 else kwargs["dump_pmf"]
    return {"terms": sum(n - d + 1 for d in pmf.durations if d <= n)}


def _smp_attrs(args, kwargs, result):
    return {"n": int(args[0] if args else kwargs["n"])}


def _sim_attrs(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    stats = result[0] if isinstance(result, tuple) else result
    return {
        "slots": cfg.horizon,
        "markov": type(cfg.source).__name__ == "MarkovSource",
        "delivered": stats.delivered,
    }


def _sweep_attrs(args, kwargs, result):
    return {"points": len(result)}


def _criterion_attrs(args, kwargs, result):
    return {"criterion": int(args[0] if args else kwargs["number"])}


def _pmf_attrs(args, kwargs, result):
    return {"entries": len(result.entries)}


_ATTRS = {
    "oracle.brute_force_maxl": _oracle_attrs,
    "oracle.channel_table": _oracle_attrs,
    "oracle.verify_ml_input": _oracle_attrs,
    "oracle.enumerate_channel": _oracle_attrs,
    "leakage.rad_leakage_bits": _rad_attrs,
    "leakage.smp_leakage_bits": _smp_attrs,
    "sim.simulate": _sim_attrs,
    "sim.simulate_markov": _sim_attrs,
    "sim.empirical_source_age": _sim_attrs,
    "tradeoff.sweep": _sweep_attrs,
    "checks.run_criterion": _criterion_attrs,
}
_ATTRS.update({f"pmf.{name}": _pmf_attrs for name in _PMF_BUILDERS})


class Tracer:
    """In-memory span recorder.

    A span is [id, name, start, end, parent id, workload, operation id,
    attrs].  The benchmark opens one root span per operation; wrapped
    package calls nest under it.  Spans opened while building inputs carry
    the operation id "setup".
    """

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._stack = []
        self._op = "setup"
        self._in_sim = False

    def begin_op(self, op_id, name):
        self._op = op_id
        span = [len(self.spans), "bench." + name, time.perf_counter(), 0.0, None,
                self.workload, op_id, None]
        self.spans.append(span)
        self._stack.append(span[0])

    def end_op(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def wrap(self, fn, name):
        attrs_fn = _ATTRS.get(name)
        watch_memory = name.split(".")[1] in _SIM_RUNS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_sim = watch_memory and not tracer._in_sim
            if outer_sim:
                tracer._in_sim = True
                tracemalloc.start()
            parent = tracer._stack[-1] if tracer._stack else None
            span = [len(tracer.spans), name, time.perf_counter(), 0.0, parent,
                    tracer.workload, tracer._op, None]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
                if outer_sim:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer._in_sim = False
            if attrs_fn is not None:
                span[7] = attrs_fn(args, kwargs, result)
            if outer_sim:
                span[7]["peak_bytes"] = peak
            return result

        return wrapper

    def install(self):
        """Replace every public ageleak function binding with a wrapper."""
        wrappers = {}
        modules = [importlib.import_module("ageleak")]
        modules += [importlib.import_module(f"ageleak.{m}") for m in BINDING_MODULES]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("ageleak.") or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, attr, wrappers[obj])
        return len(wrappers)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["id", "name", "start", "end", "parent", "workload", "op", "attrs"],
                    "spans": self.spans,
                },
                fh,
            )


def layer_metrics(spans, rounds):
    """Per-layer metrics for one set-up plus one round.

    Spans of the set-up count once; spans of the traced rounds count with
    weight 1/rounds, so sums read as "set-up plus an average round" and
    rates are ratios of those sums.
    """
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)
    by_id = {span[0]: span for span in spans}

    def duration(span):
        return span[3] - span[2]

    def self_time(span):
        return duration(span) - sum(duration(c) for c in children.get(span[0], ()))

    def layer(span):
        return span[1].partition(".")[0]

    def fn(span):
        return span[1].partition(".")[2]

    def outermost(span, names=None):
        """True iff no ancestor is in the same layer (and name set)."""
        parent = span[4]
        while parent is not None:
            up = by_id[parent]
            if layer(up) == layer(span) and (names is None or fn(up) in names):
                return False
            parent = up[4]
        return True

    def sim_time_within(span):
        total = 0.0
        for child in children.get(span[0], ()):
            total += duration(child) if layer(child) == "sim" else sim_time_within(child)
        return total

    acc = {}

    def add(key, value, weight):
        acc[key] = acc.get(key, 0.0) + value * weight

    peak_per_slot = 0.0
    for span in spans:
        if layer(span) == "bench":
            continue
        w = 1.0 if span[6] == "setup" else 1.0 / rounds
        lay, name, attrs = layer(span), fn(span), span[7]
        add(f"{lay}.self", self_time(span), w)
        if attrs is None and span[1] in _ATTRS:
            continue  # the call raised, so its result cannot be counted
        if lay == "oracle" and outermost(span):
            add("oracle.calls", 1, w)
            add("oracle.rows", attrs["rows"], w)
            kind = "coupled" if attrs["coupled"] else "rad"
            add(f"oracle.rows.{kind}", attrs["rows"], w)
            add(f"oracle.time.{kind}", duration(span), w)
            if attrs["n"] in (10, 12):
                add(f"oracle.s.n{attrs['n']}", duration(span), w)
        elif lay == "leakage":
            if name == "rad_leakage_bits":
                add("leakage.rad.s", self_time(span), w)
                add("leakage.rad.terms", attrs["terms"], w)
            elif name == "smp_leakage_bits":
                add("leakage.smp.s", self_time(span), w)
                add("leakage.smp.slots", attrs["n"], w)
            elif name in _RATE_FNS:
                add("leakage.rate.s", self_time(span), w)
                if outermost(span, _RATE_FNS):
                    add("leakage.rate.calls", 1, w)
        elif lay == "sim" and name in _SIM_RUNS and outermost(span, _SIM_RUNS):
            add("sim.calls", 1, w)
            slots = attrs["slots"]
            if name == "empirical_source_age":
                group = "source"
            else:
                add("sim.deliveries", attrs["delivered"], w)
                group = "markov" if attrs["markov"] else ("long" if slots >= _LONG_RUN else "short")
            add(f"sim.slots.{group}", slots, w)
            add(f"sim.time.{group}", duration(span), w)
            peak_per_slot = max(peak_per_slot, attrs["peak_bytes"] / slots)
        elif lay == "tradeoff":
            if name == "sweep":
                add("tradeoff.sweep.self_s", self_time(span), w)
                add("tradeoff.points", attrs["points"], w)
                add("tradeoff.analytic_time", duration(span) - sim_time_within(span), w)
            elif name == "dominance_check":
                add("tradeoff.dominance.s", self_time(span), w)
            elif name in ("write_csv", "read_csv"):
                add("tradeoff.csv.s", self_time(span), w)
        elif lay == "optimize" and outermost(span):
            add("optimize.calls", 1, w)
            if name == "optimal_alpha_for_fcfs":
                add("optimize.alpha_search.s", duration(span), w)
        elif lay == "age" and outermost(span):
            add("age.calls", 1, w)
        elif lay == "pmf" and name in _PMF_BUILDERS and outermost(span, _PMF_BUILDERS):
            add("pmf.entries", attrs["entries"], w)
        elif lay == "checks" and name == "run_criterion":
            add(f"checks.c{attrs['criterion']}.s", duration(span), w)

    def get(key):
        return acc.get(key, 0.0)

    def ratio(num, den):
        return get(num) / get(den) if get(den) > 0.0 else 0.0

    out = {
        "oracle.s": get("oracle.self"),
        "oracle.calls": get("oracle.calls"),
        "oracle.rows": get("oracle.rows"),
        "oracle.rows_per_s.coupled": ratio("oracle.rows.coupled", "oracle.time.coupled"),
        "oracle.rows_per_s.rad": ratio("oracle.rows.rad", "oracle.time.rad"),
        "oracle.s.n10": get("oracle.s.n10"),
        "oracle.s.n12": get("oracle.s.n12"),
        "leakage.rad.s": get("leakage.rad.s"),
        "leakage.rad.terms": get("leakage.rad.terms"),
        "leakage.rad.terms_per_s": ratio("leakage.rad.terms", "leakage.rad.s"),
        "leakage.smp.s": get("leakage.smp.s"),
        "leakage.smp.slots_per_s": ratio("leakage.smp.slots", "leakage.smp.s"),
        "leakage.rate.s": get("leakage.rate.s"),
        "leakage.rate.calls": get("leakage.rate.calls"),
        "sim.s": get("sim.self"),
        "sim.calls": get("sim.calls"),
        "sim.slots_per_s.short": ratio("sim.slots.short", "sim.time.short"),
        "sim.slots_per_s.long": ratio("sim.slots.long", "sim.time.long"),
        "sim.slots_per_s.markov": ratio("sim.slots.markov", "sim.time.markov"),
        "sim.source.slots_per_s": ratio("sim.slots.source", "sim.time.source"),
        "sim.deliveries": get("sim.deliveries"),
        "sim.traced_peak_bytes_per_slot": peak_per_slot,
        "tradeoff.sweep.self_s": get("tradeoff.sweep.self_s"),
        "tradeoff.points": get("tradeoff.points"),
        "tradeoff.analytic_points_per_s": ratio("tradeoff.points", "tradeoff.analytic_time"),
        "tradeoff.dominance.s": get("tradeoff.dominance.s"),
        "tradeoff.csv.s": get("tradeoff.csv.s"),
        "optimize.s": get("optimize.self"),
        "optimize.calls": get("optimize.calls"),
        "optimize.alpha_search.s": get("optimize.alpha_search.s"),
        "age.s": get("age.self"),
        "age.calls": get("age.calls"),
        "pmf.s": get("pmf.self"),
        "pmf.entries": get("pmf.entries"),
    }
    for number in range(1, 11):
        out[f"checks.c{number}.s"] = get(f"checks.c{number}.s")
    out["cli.self_s"] = get("cli.self")
    return out
