"""Closed-form average age of information for the three server kinds.

Slot conventions: an update generated in slot t-1 arrives at the server at
the beginning of slot t; a delivery at the end of slot d of an update with
timestamp u resets the monitor age to d - u + 1 at the start of slot d + 1.
The zero-delay server therefore floors the age at 1 + 1/lambda for a
Bernoulli(lambda) source.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidLambda, Unstable, _as_probability
from .pmf import FinitePmf, pmf_moments


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

    This is the batched age of many pmfs taken for one, about 60 us on an
    Intel Xeon core, mostly numpy's per-call cost.
    """
    return _fcfs_age_rows(lam, [service_pmf], [alpha])[0]


#: The least effective arrival rate FCFS takes, the smallest normal double:
#: below it 1 / rate, and with it the age, overflows.
_LEAST_RATE = float(np.finfo(float).tiny)


def _fcfs_age_rows(lam, service_pmfs, alphas):
    """:func:`fcfs_age` of each service pmf at its admission probability, in one batch."""
    lam = _as_probability(lam, "arrival rate", InvalidLambda)
    rates = np.array([_as_probability(alpha, "admission probability", InvalidLambda) * lam for alpha in alphas])
    if (rates < _LEAST_RATE).any():
        raise InvalidLambda(f"effective arrival rate alpha*lambda {float(rates.min())!r} is below "
                            f"{_LEAST_RATE!r}: the age, about 1 / rate, would pass the float range")
    table = _fcfs_table(service_pmfs)
    rho = rates * table.mean
    if (rho >= 1.0).any():
        raise Unstable(f"effective load {float(rho[np.argmax(rho >= 1.0)])!r} >= 1 for FCFS")
    return [AgeResult(delta) for delta in _fcfs_ages(rates, table).tolist()]


#: One column per service pmf: its durations and masses padded to one
#: length (duration 1, mass 0), and one entry each for its tail's g(H), H
#: and mu (g(H) = 0 without a tail), its mean and its second moment.
_ServiceTable = namedtuple("_ServiceTable", "durations masses last h mu mean second")


def _fcfs_table(service_pmfs) -> _ServiceTable:
    """The columns :func:`_fcfs_ages` reads, one per service pmf."""
    # the moments first: they refuse a pmf past the float range
    moments = [(m.mean, m.second_moment) for m in map(pmf_moments, service_pmfs)]
    tails = [(pmf.probabilities[-1] if pmf.hazard else 0.0, pmf.durations[-1], pmf.hazard) for pmf in service_pmfs]
    length = max(len(pmf.durations) for pmf in service_pmfs)
    durations, masses = np.ones((length, len(service_pmfs))), np.zeros((length, len(service_pmfs)))
    for r, pmf in enumerate(service_pmfs):
        durations[: len(pmf.durations), r] = pmf.durations
        masses[: len(pmf.durations), r] = pmf.probabilities
    return _ServiceTable(durations, masses, *np.array(tails).T, *np.array(moments).T)


def _fcfs_ages(rates, table):
    """The FCFS age of each pmf of a :func:`_fcfs_table` at its effective
    arrival rate in ``rates``, each with rho < 1, by :func:`fcfs_age`'s
    formula.

    M_g adds the head's g(s) lbar^s in duration order, so that padding
    changes nothing, then the tail's lbar g(H) lbar^(H-1) (1 - mu) lbar /
    (rate + mu lbar).  At rate 1, which rho < 1 allows only for a pmf whose
    mass at one slot falls short of 1 within rounding, lbar and M_g(lbar)
    both vanish, and lbar / M_g(lbar) takes its limit 1 / g(1).
    """
    t = table
    lbar, room = 1.0 - rates, 1.0 - rates * t.mean
    tail = lbar * (t.last * lbar ** (t.h - 1.0) * ((1.0 - t.mu) * lbar) / (rates + t.mu * lbar))
    mg = np.cumsum(t.masses * lbar ** t.durations, axis=0)[-1] + tail
    edge = lbar == 0.0
    if edge.any():
        lbar, mg = np.where(edge, 1.0, lbar), np.where(edge, t.masses[0] * (t.durations[0] == 1.0), mg)
    return 1.0 + t.mean + lbar * room / (rates * mg) + rates * (t.second - t.mean) / (2.0 * room)


def rad_age(lam, dump_pmf: FinitePmf) -> AgeResult:
    """Accumulate-and-dump age: 1/lam + E[D^2]/(2 E[D]) + 1/2."""
    lam = _as_probability(lam, "arrival rate", InvalidLambda)
    m = pmf_moments(dump_pmf)
    return AgeResult(1.0 / lam + m.second_moment / (2.0 * m.mean) + 0.5)
