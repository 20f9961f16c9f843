"""Command-line front end.

Subcommands: age, leakage, rate, optimize, sweep, simulate, oracle, check.
Exit codes: 0 success, 2 validation error, 3 numerical non-convergence.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__
from .age import ddad_age, fcfs_age, lcfs_age, mbt_age, rad_age
from .errors import AgeLeakError, ConvergenceFailure, InvalidConfig
from .leakage import (
    leakage_time,
    rad_leakage_bits,
    rad_rate,
    smp_leakage_bits,
    smp_rate_bounds,
)
from .optimize import ddad_policy, dinkelbach_certify, greedy_smp_pmf, optimal_alpha_for_fcfs
from .oracle import brute_force_maxl
from .pmf import is_smp
from .policy import policy_from_config
from .sim import load_scenario, simulate
from .sources import BernoulliSource, MarkovSource
from .tradeoff import SweepSpec, sweep, write_csv


def _policy_spec(args):
    """Assemble a policy config dict from CLI flags."""
    spec = {"kind": args.policy}
    for key in ("beta", "tau", "rate", "alpha", "mu"):
        value = getattr(args, key, None)
        if value is not None:
            spec[key] = value
    if getattr(args, "pmf", None) is not None:
        spec["pmf"] = json.loads(args.pmf)
    return spec


def _parse_grid(text):
    """Either 'start:stop:step' or a comma-separated list."""
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        return tuple(np.arange(start, stop + step / 2, step))
    return tuple(float(x) for x in text.split(","))


def _emit(args, lines):
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_age(args):
    policy = policy_from_config(_policy_spec(args))
    if policy.kind == "lcfs":
        delta = lcfs_age(args.lam, policy.pmf).delta
    elif policy.kind == "fcfs":
        delta = fcfs_age(args.lam, policy.pmf, policy.alpha).delta
    else:
        delta = rad_age(args.lam, policy.pmf).delta
    _emit(args, [f"delta {delta!r}"])
    return 0


def _smp_params(policy):
    """(s1, beta) of a coupled policy; the SMP forms are refused for other pmfs."""
    smp, s_min = is_smp(policy.pmf)
    if not smp:
        raise InvalidConfig("service pmf is not shortest-most-probable; the SMP form does not apply")
    return s_min, policy.pmf.prob(s_min)


def _cmd_leakage(args):
    policy = policy_from_config(_policy_spec(args))
    if policy.coupled:
        result = smp_leakage_bits(args.n, *_smp_params(policy))
    else:
        result = rad_leakage_bits(args.n, policy.pmf)
    _emit(args, [f"bits {result.bits!r}", f"per_slot {result.bits / max(result.n, 1)!r}"])
    return 0


def _cmd_rate(args):
    policy = policy_from_config(_policy_spec(args))
    if policy.coupled:
        s_min, beta = _smp_params(policy)
        bounds = smp_rate_bounds(s_min, beta)
        if s_min == 1:
            lines = [f"rate {bounds.upper!r}", f"leak_time {leakage_time(bounds.upper)!r}"]
        else:
            finite = smp_leakage_bits(args.n, s_min, beta)
            lines = [
                f"rate_lower {bounds.lower!r}",
                f"rate_upper {bounds.upper!r}",
                f"finite_n_ratio {finite.bits / finite.n!r} (n={finite.n})",
            ]
    else:
        rate = rad_rate(policy.pmf)
        lines = [f"rate {rate!r}", f"leak_time {leakage_time(rate)!r}"]
    _emit(args, lines)
    return 0


def _cmd_optimize(args):
    if args.policy == "ddad":
        dither = ddad_policy(args.rate)
        cert = dinkelbach_certify(dither)
        _emit(
            args,
            [
                f"support {dither.i},{dither.j}",
                f"p_i {dither.p_i!r}",
                f"p_j {dither.p_j!r}",
                f"mean_period {dither.mean!r}",
                f"delta {ddad_age(args.lam, dither.mean).delta!r}",
                f"gamma_star {cert.gamma_star!r}",
                f"sandwich_ok {cert.sandwich_ok}",
                f"convexity_ok {cert.convexity_ok}",
            ],
        )
        return 0
    if args.policy in ("lcfs-greedy", "fcfs-greedy"):
        pmf = greedy_smp_pmf(args.beta)
        if args.policy == "lcfs-greedy":
            _emit(args, [f"pmf {pmf.to_json()}", f"delta {lcfs_age(args.lam, pmf).delta!r}"])
            return 0
        alpha, age = optimal_alpha_for_fcfs(args.lam, pmf)
        _emit(args, [f"pmf {pmf.to_json()}", f"alpha {alpha!r}", f"delta {age.delta!r}"])
        return 0
    if args.policy == "mbt":
        pmf = policy_from_config({"kind": "mbt", "mu": args.mu}).pmf
        alpha, _ = optimal_alpha_for_fcfs(args.lam, pmf)
        _emit(args, [f"alpha {alpha!r}", f"delta {mbt_age(alpha, args.mu, args.lam).delta!r}"])
        return 0
    raise AgeLeakError(f"optimize does not handle policy {args.policy!r}")


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
    points = sweep(spec)
    if args.out:
        write_csv(points, args.out)
    else:
        write_csv(points, sys.stdout)
    return 0


def _cmd_simulate(args):
    if args.scenario:
        cfg = load_scenario(args.scenario)
    else:
        from .sim import SimConfig

        policy = policy_from_config(_policy_spec(args))
        if args.p01 is not None or args.p10 is not None:
            source = MarkovSource(args.p01, args.p10)
        else:
            source = BernoulliSource(args.lam)
        cfg = SimConfig(policy, source, horizon=args.slots, warmup=args.warmup, seed=args.seed)
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
    policy = policy_from_config(_policy_spec(args))
    result = brute_force_maxl(policy, args.n)
    lines = [f"bits {result.bits!r}"]
    ref = None
    if not policy.coupled:
        ref = ("recursion", rad_leakage_bits(args.n, policy.pmf).bits)
    elif is_smp(policy.pmf)[0]:  # a coupled pmf that is not SMP has no closed form
        ref = ("closed_form", smp_leakage_bits(args.n, *_smp_params(policy)).bits)
    if ref:
        lines += [f"{ref[0]} {ref[1]!r}", f"gap {abs(ref[1] - result.bits)!r}"]
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

    def add_common(p, n=False, sim=False):
        p.add_argument("--policy", required=True, help="policy kind (see README)")
        p.add_argument("--beta", type=float, help="top service probability g(1)")
        p.add_argument("--tau", type=float, help="mean service / dump period in slots")
        p.add_argument("--mu", type=float, help="geometric service rate")
        p.add_argument("--rate", type=float, help="target leakage rate, bits/slot")
        p.add_argument("--alpha", type=float, help="FCFS admission probability")
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
    add_common(sub.add_parser("rate", help="asymptotic leakage rate and leakage time"), n=True)

    p_opt = sub.add_parser("optimize", help="optimal policy construction")
    add_common(p_opt)

    p_sweep = sub.add_parser("sweep", help="trade-off curve as CSV")
    add_common(p_sweep, sim=True)
    p_sweep.add_argument("--grid", required=True, help="start:stop:step or comma list")
    p_sweep.add_argument("--simulate", action="store_true", help="attach simulated ages")

    p_sim = sub.add_parser("simulate", help="run one slot simulation")
    p_sim.add_argument("--scenario", help="JSON scenario file")
    p_sim.add_argument("--policy", help="policy kind when no scenario file is given")
    p_sim.add_argument("--beta", type=float)
    p_sim.add_argument("--tau", type=float)
    p_sim.add_argument("--mu", type=float)
    p_sim.add_argument("--rate", type=float)
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p_sim.add_argument("--p01", type=float)
    p_sim.add_argument("--p10", type=float)
    p_sim.add_argument("--slots", type=int, default=1_000_000)
    p_sim.add_argument("--warmup", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out")

    p_oracle = sub.add_parser("oracle", help="brute-force maximal leakage at small n")
    add_common(p_oracle, n=True)

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
    except AgeLeakError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
