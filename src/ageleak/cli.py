"""Command-line front end.

Subcommands: age, leakage, rate, optimize, sweep, simulate, oracle, check.
Exit codes: 0 success, 1 a check failed, 2 validation error, 3 numerical
non-convergence.
"""

import argparse
import json
import math
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .errors import AgeLeakError, ConvergenceFailure, InvalidConfig
from .leakage import leakage_time
from .optimize import ddad_policy, optimal_alpha_for_fcfs
from .oracle import brute_force_maxl
from .pmf import is_smp, pmf_moments
from .policy import Policy, policy_from_config
from .sim import DEFAULT_WARMUP, SimConfig, _source_from_config, load_scenario, simulate
from .tradeoff import SweepSpec, sweep, write_csv


def _policy(args):
    """The registry's policy for the CLI flags."""
    spec = {"kind": args.policy}
    for key in ("beta", "tau", "rate", "mu", "alpha"):
        value = getattr(args, key, None)
        if value is not None:
            spec[key] = value
    if args.pmf is not None:
        try:
            spec["pmf"] = json.loads(args.pmf)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"--pmf is not JSON: {exc}") from None
    return policy_from_config(spec)


def _parse_grid(text):
    """Either 'start:stop:step' or a comma-separated list.

    A stepped grid holds start + i step for i = 0, 1, ... up to stop.  Where
    (stop - start) / step is a whole number to a relative 10^-9, the last
    value is stop itself: start plus that many steps can round past stop.
    """
    try:
        if ":" not in text:
            return tuple(float(x) for x in text.split(","))
        start, stop, step = (float(x) for x in text.split(":"))
        span = (stop - start) / step
        steps = round(span)
        divides = abs(span - steps) <= 1e-9 * max(1.0, abs(span))
        steps = steps if divides else math.floor(span)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise InvalidConfig(f"--grid {text!r} is neither start:stop:step nor a comma list") from None
    if steps < 0:
        raise InvalidConfig(f"--grid {text!r} holds no value: stop lies before start in the step's direction")
    values = start + np.arange(steps + 1) * step
    if divides:
        values[-1] = stop
    return tuple(values.tolist())


def _emit(args, lines):
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_age(args):
    _emit(args, [f"delta {_policy(args).mean_age(args.lam).delta!r}"])
    return 0


def _cmd_leakage(args):
    result = _policy(args).leakage_bits(args.n)
    _emit(args, [f"bits {result.bits!r}", f"per_slot {result.bits / max(result.n, 1)!r}"])
    return 0


def _cmd_rate(args):
    rate = _policy(args).rate()
    _emit(args, [f"rate {rate!r}", f"leak_time {leakage_time(rate)!r}"])
    return 0


def _cmd_optimize(args):
    """The policy with its free choice made for the least age.

    FCFS takes the age-optimal admission probability; a dump schedule is
    replaced by the age-optimal dither at the same leakage rate, with its
    moment ratio gamma* = E[D^2]/E[D]; LCFS has no free choice left.  A
    dither is rebuilt from the given rate, not from its own computed rate,
    whose rounding its weights would magnify.
    """
    policy = _policy(args)
    if policy.kind == "rad":
        dither = ddad_policy(args.rate if args.policy == "ddad" else policy.rate())
        pmf = dither.to_pmf()
        m = pmf_moments(pmf)
        _emit(
            args,
            [
                f"support {','.join(map(str, pmf.durations))}",
                f"p_i {dither.p_i!r}",
                f"p_j {dither.p_j!r}",
                f"mean_period {dither.mean!r}",
                f"delta {Policy.rad(pmf).mean_age(args.lam).delta!r}",
                f"gamma_star {m.second_moment / m.mean!r}",
            ],
        )
        return 0
    lines = [f"pmf {policy.pmf.to_json()}"]
    if policy.kind == "fcfs":
        alpha, age = optimal_alpha_for_fcfs(args.lam, policy.pmf)
        lines.append(f"alpha {alpha!r}")
    else:
        age = policy.mean_age(args.lam)
    _emit(args, lines + [f"delta {age.delta!r}"])
    return 0


#: The flags of one simulated run; only a simulating subcommand reads them.
_RUN_FLAGS = ("slots", "warmup", "seed")


def _given(args, names):
    """The flags among ``names`` that were given, by name; the parsers leave the others None."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_sweep(args):
    run = _given(args, _RUN_FLAGS)
    if run and not args.simulate:
        raise InvalidConfig(f"--{next(iter(run))} is read only with --simulate")
    spec = SweepSpec(family=args.policy, grid=_parse_grid(args.grid), lam=args.lam, simulate=args.simulate, **run)
    write_csv(sweep(spec), args.out or sys.stdout)
    return 0


def _cmd_simulate(args):
    """One run, from a scenario file or from the flags, with a source read as a scenario's is."""
    if args.scenario is not None:
        for name, value in vars(args).items():
            if value is not None and name not in ("command", "run", "scenario", "out"):
                flag = "--lambda" if name == "lam" else f"--{name}"
                raise InvalidConfig(f"{flag} cannot be given with --scenario, which sets it")
        cfg = load_scenario(args.scenario)
    else:
        markov = _given(args, ("p01", "p10"))
        spec = {"kind": "markov", **markov} if markov else {"kind": "bernoulli", "lambda": 0.5}
        if args.lam is not None:
            spec["lambda"] = args.lam
        source = _source_from_config(spec)
        horizon = 1_000_000 if args.slots is None else args.slots
        cfg = SimConfig(_policy(args), source, horizon, **_given(args, ("warmup", "seed")))
    stats = simulate(cfg)
    _emit(args, [f"{field.name} {getattr(stats, field.name)!r}" for field in fields(stats)])
    return 0


def _cmd_oracle(args):
    policy = _policy(args)
    result = brute_force_maxl(policy, args.n)
    lines = [f"bits {result.bits!r}"]
    if not policy.coupled or is_smp(policy.pmf):  # a coupled pmf that is not SMP has none
        ref = policy.leakage_bits(args.n).bits
        lines += [f"recursion {ref!r}", f"gap {abs(ref - result.bits)!r}"]
    _emit(args, lines)
    return 0


def _cmd_check(args):
    from .checks import run_all

    results = run_all()
    for result in results:
        sys.stdout.write(result.line + "\n")
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line as any other input: a typed error, exit 2."""

    def error(self, message):
        raise InvalidConfig(f"{message}\n{self.format_usage().rstrip()}")


def build_parser():
    parser = _Parser(
        prog="ageleak",
        description="Age-of-information vs. maximal-leakage laboratory for status-updating servers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, params=True, alpha=True, lam=False, n=False, sim=False, policy_required=True):
        """--policy and --out, plus only the flags the subcommand reads; ``run`` handles the subcommand."""
        p.set_defaults(run=run)
        p.add_argument("--policy", required=policy_required, help="policy family (see README)")
        if params:
            p.add_argument("--beta", type=float, help="top service probability g(1)")
            p.add_argument("--tau", type=float, help="mean service / dump period in slots")
            p.add_argument("--mu", type=float, help="geometric service rate")
            p.add_argument("--rate", type=float, help="target leakage rate, bits/slot")
            if alpha:
                p.add_argument("--alpha", type=float, help="FCFS admission probability (default 1)")
            p.add_argument("--pmf", help='explicit pmf JSON: {"entries": [[d, p], ...]}')
        if lam:
            p.add_argument("--lambda", dest="lam", type=float, default=0.5, help="source rate")
        if n:
            p.add_argument("--n", type=int, default=10_000, help="horizon in slots")
        if sim:  # None when not given; the subcommand fills in the defaults or refuses the flag
            p.add_argument("--slots", type=int, help="simulated horizon in slots (default 10^6)")
            p.add_argument("--warmup", type=int, help=f"slots left out of the statistics (default {DEFAULT_WARMUP})")
            p.add_argument("--seed", type=int, help="seed of the run's random streams (default 0)")
        p.add_argument("--out", help="write output to this file instead of stdout")

    add_common(sub.add_parser("age", help="closed-form average age"), _cmd_age, lam=True)
    add_common(sub.add_parser("leakage", help="finite-horizon leakage in bits"), _cmd_leakage, n=True)
    add_common(sub.add_parser("rate", help="asymptotic leakage rate and leakage time"), _cmd_rate)
    # optimize chooses FCFS's alpha itself
    add_common(sub.add_parser("optimize", help="optimal policy construction"), _cmd_optimize, alpha=False, lam=True)

    p_sweep = sub.add_parser("sweep", help="trade-off curve as CSV")
    add_common(p_sweep, _cmd_sweep, params=False, lam=True, sim=True)
    p_sweep.add_argument("--grid", required=True, help="start:stop:step or comma list")
    p_sweep.add_argument("--simulate", action="store_true", help="attach simulated ages")

    p_sim = sub.add_parser("simulate", help="run one slot simulation")
    add_common(p_sim, _cmd_simulate, lam=True, sim=True, policy_required=False)
    p_sim.set_defaults(lam=None)  # None unless given, as every simulate flag, for a scenario to refuse
    p_sim.add_argument("--scenario",
                       help="JSON scenario file; it sets the policy, source and run, so their flags are refused")
    p_sim.add_argument("--p01", type=float, help="Markov source: inactive-to-active probability")
    p_sim.add_argument("--p10", type=float, help="Markov source: active-to-inactive probability")

    add_common(sub.add_parser("oracle", help="brute-force maximal leakage at small n"), _cmd_oracle, n=True)

    sub.add_parser("check", help="run the acceptance suite").set_defaults(run=_cmd_check)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except ConvergenceFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (AgeLeakError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
