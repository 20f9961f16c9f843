"""Command-line front end.

Subcommands: age, leakage, rate, optimize, sweep, simulate, oracle, check.
Exit codes: 0 success, 2 validation error, 3 numerical non-convergence.
"""

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import AgeLeakError, ConvergenceFailure, InvalidConfig
from .leakage import leakage_time
from .optimize import ddad_policy, dinkelbach_certify, optimal_alpha_for_fcfs
from .oracle import brute_force_maxl
from .pmf import is_smp
from .policy import Policy, policy_from_config
from .sim import SimConfig, load_scenario, simulate
from .sources import BernoulliSource, MarkovSource
from .tradeoff import SweepSpec, sweep, write_csv


def _policy(args):
    """The registry's policy for the CLI flags."""
    spec = {"kind": args.policy, "alpha": args.alpha}
    for key in ("beta", "tau", "rate", "mu"):
        value = getattr(args, key)
        if value is not None:
            spec[key] = value
    if args.pmf is not None:
        try:
            spec["pmf"] = json.loads(args.pmf)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"--pmf is not JSON: {exc}") from None
    return policy_from_config(spec)


def _parse_grid(text):
    """Either 'start:stop:step' or a comma-separated list."""
    try:
        if ":" in text:
            start, stop, step = (float(x) for x in text.split(":"))
            return tuple(np.arange(start, stop + step / 2, step))
        return tuple(float(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise InvalidConfig(f"--grid {text!r} is neither start:stop:step nor a comma list") from None


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
    certificate; LCFS has no free choice left.
    """
    policy = _policy(args)
    if policy.kind == "rad":
        dither = ddad_policy(policy.rate())
        cert = dinkelbach_certify(dither)
        _emit(
            args,
            [
                f"support {dither.i},{dither.j}",
                f"p_i {dither.p_i!r}",
                f"p_j {dither.p_j!r}",
                f"mean_period {dither.mean!r}",
                f"delta {Policy.rad(dither.to_pmf()).mean_age(args.lam).delta!r}",
                f"gamma_star {cert.gamma_star!r}",
                f"sandwich_ok {cert.sandwich_ok}",
                f"convexity_ok {cert.convexity_ok}",
            ],
        )
        return 0
    lines = [f"pmf {policy.pmf.to_json()}"]
    if policy.kind == "fcfs":
        alpha, _ = optimal_alpha_for_fcfs(args.lam, policy.pmf)
        policy = replace(policy, alpha=alpha)
        lines.append(f"alpha {alpha!r}")
    _emit(args, lines + [f"delta {policy.mean_age(args.lam).delta!r}"])
    return 0


def _cmd_sweep(args):
    spec = SweepSpec(
        family=args.policy,
        grid=_parse_grid(args.grid),
        lam=args.lam,
        simulate=args.simulate,
        slots=args.slots,
        warmup=args.warmup,
        seed=args.seed,
    )
    write_csv(sweep(spec), args.out or sys.stdout)
    return 0


def _cmd_simulate(args):
    if args.scenario:
        cfg = load_scenario(args.scenario)
    else:
        if (args.p01 is None) != (args.p10 is None):
            raise InvalidConfig("a Markov source needs both --p01 and --p10")
        source = BernoulliSource(args.lam) if args.p01 is None else MarkovSource(args.p01, args.p10)
        cfg = SimConfig(_policy(args), source, horizon=args.slots, warmup=args.warmup, seed=args.seed)
    stats = simulate(cfg)
    _emit(
        args,
        [
            f"mean_age {stats.mean_age!r}",
            f"ci_half_width {stats.ci_half_width!r}",
            f"delivered {stats.delivered}",
            f"output_rate {stats.output_rate!r}",
        ],
    )
    return 0


def _cmd_oracle(args):
    policy = _policy(args)
    result = brute_force_maxl(policy, args.n)
    lines = [f"bits {result.bits!r}"]
    if not policy.coupled or is_smp(policy.pmf)[0]:  # a coupled pmf that is not SMP has none
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ageleak",
        description="Age-of-information vs. maximal-leakage laboratory for status-updating servers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n=False, sim=False, policy_required=True):
        p.add_argument("--policy", required=policy_required, help="policy family (see README)")
        p.add_argument("--beta", type=float, help="top service probability g(1)")
        p.add_argument("--tau", type=float, help="mean service / dump period in slots")
        p.add_argument("--mu", type=float, help="geometric service rate")
        p.add_argument("--rate", type=float, help="target leakage rate, bits/slot")
        p.add_argument("--alpha", type=float, default=1.0, help="FCFS admission probability")
        p.add_argument("--pmf", help='explicit pmf JSON: {"entries": [[d, p], ...]}')
        p.add_argument("--lambda", dest="lam", type=float, default=0.5, help="source rate")
        if n:
            p.add_argument("--n", type=int, default=10_000, help="horizon in slots")
        if sim:
            p.add_argument("--slots", type=int, default=1_000_000)
            p.add_argument("--warmup", type=int, default=10_000)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write output to this file instead of stdout")

    add_common(sub.add_parser("age", help="closed-form average age"))
    add_common(sub.add_parser("leakage", help="finite-horizon leakage in bits"), n=True)
    add_common(sub.add_parser("rate", help="asymptotic leakage rate and leakage time"))
    add_common(sub.add_parser("optimize", help="optimal policy construction"))

    p_sweep = sub.add_parser("sweep", help="trade-off curve as CSV")
    add_common(p_sweep, sim=True)
    p_sweep.add_argument("--grid", required=True, help="start:stop:step or comma list")
    p_sweep.add_argument("--simulate", action="store_true", help="attach simulated ages")

    p_sim = sub.add_parser("simulate", help="run one slot simulation")
    add_common(p_sim, sim=True, policy_required=False)
    p_sim.add_argument("--scenario", help="JSON scenario file; replaces the policy and source flags")
    p_sim.add_argument("--p01", type=float, help="Markov source: inactive-to-active probability")
    p_sim.add_argument("--p10", type=float, help="Markov source: active-to-inactive probability")

    add_common(sub.add_parser("oracle", help="brute-force maximal leakage at small n"), n=True)

    sub.add_parser("check", help="run the acceptance suite")
    return parser


_COMMANDS = {
    "age": _cmd_age,
    "leakage": _cmd_leakage,
    "rate": _cmd_rate,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConvergenceFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (AgeLeakError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
