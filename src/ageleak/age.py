"""Closed-form average age of information for the three server kinds.

Slot conventions: an update generated in slot t-1 arrives at the server at
the beginning of slot t; a delivery at the end of slot d of an update with
timestamp u resets the monitor age to d - u + 1 at the start of slot d + 1.
The zero-delay server therefore floors the age at 1 + 1/lambda for a
Bernoulli(lambda) source.
"""

import math
from dataclasses import dataclass

from .errors import InvalidConfig, InvalidLambda, Unstable, _as_probability
from .pmf import FinitePmf, Moments, pmf_moments


@dataclass(frozen=True)
class AgeResult:
    """Long-run average age at the monitor, in slots."""

    delta: float

    def __post_init__(self):
        if not self.delta >= 1.0:
            raise InvalidConfig(f"average age {self.delta!r} is below one slot")


def lcfs_age(lam, service_pmf: FinitePmf) -> AgeResult:
    """Preemptive LCFS Ber/G/1 age: 1 + 1 / (lam * E[(1-lam)^(S-1)]).

    The expectation runs over the service head, plus a tail's closed form.
    If it vanishes (lam = 1 with no single-slot service mass) no update ever
    completes and the age diverges.
    """
    lam = _as_probability(lam, "arrival rate", InvalidLambda)
    lbar = 1.0 - lam
    head = (p * lbar ** (s - 1) for s, p in zip(service_pmf.durations, service_pmf.probabilities))
    expectation = math.fsum([*head, service_pmf._tail_sum(lbar, lam)])
    if expectation <= 0.0:
        return AgeResult(math.inf)
    return AgeResult(1.0 + 1.0 / (lam * expectation))


def fcfs_age(lam, service_pmf: FinitePmf, alpha=1.0) -> AgeResult:
    """FCFS Ber/G/1 age with Bernoulli(alpha) admission thinning.

    Evaluates the four-term discrete-time formula with the effective rate
    alpha*lam substituted for the arrival rate throughout:

        1 + E[S] + lbar(1 - rho) / (rate * M_g(lbar)) +
        rate (E[S^2] - E[S]) / (2 (1 - rho)),

    where rate = alpha*lam, lbar = 1 - rate, rho = rate*E[S] and
    M_g(x) = sum_s g(s) x^s.  Raises :class:`Unstable` when rho >= 1.
    """
    lam = _as_probability(lam, "arrival rate", InvalidLambda)
    rate = _as_probability(alpha, "admission probability", InvalidLambda) * lam
    return AgeResult(_fcfs_delta(rate, service_pmf, pmf_moments(service_pmf)))


def _fcfs_delta(rate, service_pmf: FinitePmf, m: Moments):
    """The FCFS age at effective arrival rate ``rate`` of a service pmf with moments ``m``."""
    rho = rate * m.mean
    if rho >= 1.0:
        raise Unstable(f"effective load {rho!r} >= 1 for FCFS")
    lbar = 1.0 - rate
    head = (p * lbar ** s for s, p in zip(service_pmf.durations, service_pmf.probabilities))
    mg = math.fsum([*head, lbar * service_pmf._tail_sum(lbar, rate)])
    return (
        1.0
        + m.mean
        + lbar * (1.0 - rho) / (rate * mg)
        + rate * (m.second_moment - m.mean) / (2.0 * (1.0 - rho))
    )


def rad_age(lam, dump_pmf: FinitePmf) -> AgeResult:
    """Accumulate-and-dump age: 1/lam + E[D^2]/(2 E[D]) + 1/2."""
    lam = _as_probability(lam, "arrival rate", InvalidLambda)
    m = pmf_moments(dump_pmf)
    return AgeResult(1.0 / lam + m.second_moment / (2.0 * m.mean) + 0.5)
