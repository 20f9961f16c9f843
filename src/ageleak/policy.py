"""Server policies and the one registry of named policy families.

A :class:`Policy` is a server discipline plus its duration pmf; its
average age, finite-horizon leakage and leakage rate are its three methods,
each choosing its formula from ``kind`` in one place.  Leakage and rate share
one coefficient vector c: leakage is log2 x(n) for the homogeneous
x(t) = sum_d c_d x(t-d), x(0) = 1, with x(t < 0) = 0 for the coupled kinds and
1/2 for "rad", and the rate is log2 z0 with sum_d c_d z0^-d = 1.

:data:`FAMILIES` maps every family name the CLI, the config files and the
sweeps accept to the parameter it reads and the policy it builds.
"""

import math
from dataclasses import dataclass
from typing import Callable

from .age import AgeResult, _fcfs_age_rows, _lcfs_age, _rad_age
from .errors import (
    InvalidConfig, InvalidLambda, InvalidTau, NonHalfIntegerTau, _as_dict, _as_finite, _as_int,
    _as_probability,
)
from .leakage import LeakageResult, _root, _smp_terms, rad_leakage_bits, rad_rate, smp_leakage_bits
from .optimize import ddad_policy, greedy_smp_pmf
from .pmf import FinitePmf, deterministic_pmf, geometric_pmf, is_smp, make_pmf, uniform_pmf

COUPLED_KINDS = ("lcfs", "fcfs")
KINDS = COUPLED_KINDS + ("rad",)


@dataclass(frozen=True)
class Policy:
    """A server discipline plus its duration pmf.

    ``kind`` is "lcfs" (preemptive), "fcfs" (optionally thinned by
    ``alpha``), or "rad" (accumulate-and-dump on an independent timer).
    ``pmf`` holds service times for the coupled kinds and inter-dump times
    for "rad"; DAD and dithering-DAD are "rad" with a one- or two-point pmf.
    """

    kind: str
    pmf: FinitePmf
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConfig(f"unknown policy kind {self.kind!r}")
        alpha = _as_probability(self.alpha, "admission probability", InvalidLambda)
        object.__setattr__(self, "alpha", alpha)
        if self.alpha != 1.0 and self.kind != "fcfs":
            raise InvalidConfig("thinning applies to FCFS only")

    @property
    def coupled(self):
        return self.kind in COUPLED_KINDS

    @classmethod
    def lcfs(cls, pmf):
        return cls("lcfs", pmf)

    @classmethod
    def fcfs(cls, pmf, alpha=1.0):
        return cls("fcfs", pmf, alpha)

    @classmethod
    def rad(cls, pmf):
        return cls("rad", pmf)

    @classmethod
    def dad(cls, tau):
        return cls("rad", deterministic_pmf(_as_int(tau, "dump period", InvalidTau, low=1)))

    def mean_age(self, lam) -> AgeResult:
        """Long-run average age at the monitor under a Bernoulli(lam) source."""
        if self.kind == "lcfs":
            return _lcfs_age(lam, self.pmf)
        if self.kind == "fcfs":
            return _fcfs_age_rows(lam, [self.pmf], [self.alpha])[0]
        return _rad_age(lam, self.pmf)

    def _smp(self):
        """Minimum service time s1 and its mass of a coupled kind's SMP pmf."""
        if not is_smp(self.pmf):
            raise InvalidConfig("service pmf is not shortest-most-probable; the SMP form does not apply")
        # Thinned FCFS keeps the unthinned coefficients: the admission lottery
        # is presumed invisible to the timing adversary.  The exact oracle
        # shows this is only an upper bound; ROADMAP.md item 17(d) replaces it.
        return self.pmf.s_min, self.pmf.probabilities[0]

    def leakage_bits(self, n) -> LeakageResult:
        """Maximal leakage over an n-slot horizon, in bits."""
        if self.kind == "rad":
            return rad_leakage_bits(n, self.pmf)
        return smp_leakage_bits(n, *self._smp())

    def rate(self) -> float:
        """Asymptotic leakage rate in bits per slot."""
        if self.kind == "rad":
            return rad_rate(self.pmf)
        return _root(*_smp_terms(*self._smp()))


def _explicit(spec):
    pmf = _as_dict(spec["pmf"], "an explicit pmf", ("entries",))
    try:
        entries = [(d, p) for d, p in pmf["entries"]]
    except (TypeError, ValueError):
        raise InvalidConfig('an explicit pmf is {"entries": [[duration, probability], ...]}') from None
    return make_pmf(entries)


def _greedy(spec):
    return greedy_smp_pmf(spec["beta"])


def _geometric(spec):
    if "mu" in spec:
        if "tau" in spec:
            raise InvalidConfig("a geometric pmf takes its rate mu or its mean tau, not both")
        return geometric_pmf(spec["mu"])
    return geometric_pmf(1.0 / _as_finite(spec.get("tau"), "mean service time", InvalidTau, low=1.0))


def _deterministic(spec):
    return Policy.dad(spec["tau"]).pmf


def _uniform(spec):
    """The uniform pmf on {1, ..., 2*tau - 1}, whose mean is ``tau``."""
    tau = _as_finite(spec["tau"], "mean inter-dump time", InvalidTau, low=1.0)
    k = 2.0 * tau - 1.0
    if not math.isfinite(k) or abs(k - round(k)) > 1e-9:
        raise NonHalfIntegerTau(f"2*tau-1 = {k!r} is not a positive integer")
    return uniform_pmf(round(k))


def _dither(spec):
    return ddad_policy(spec["rate"]).to_pmf()


@dataclass(frozen=True)
class Family:
    """A named policy family.

    ``param`` is the config key a sweep grid sets; ``pmf`` builds the
    duration pmf from a config dict.  A ``thinned`` family's sweep picks the
    age-optimal admission probability at each grid value.
    """

    kind: str
    param: str
    pmf: Callable
    thinned: bool = False


FAMILIES = {
    "lcfs": Family("lcfs", "pmf", _explicit),
    "fcfs": Family("fcfs", "pmf", _explicit),
    "rad": Family("rad", "pmf", _explicit),
    "lcfs-greedy": Family("lcfs", "beta", _greedy),
    "fcfs-greedy": Family("fcfs", "beta", _greedy),
    "fcfs-greedy-thinned": Family("fcfs", "beta", _greedy, thinned=True),
    "lcfs-geo": Family("lcfs", "tau", _geometric),
    "rad-geo": Family("rad", "tau", _geometric),
    "mbt": Family("fcfs", "mu", _geometric, thinned=True),
    "dad": Family("rad", "tau", _deterministic),
    "rad-uniform": Family("rad", "tau", _uniform),
    "ddad": Family("rad", "rate", _dither),
}


def family(name) -> Family:
    """The registry entry for ``name``; :class:`InvalidConfig` if there is none."""
    if not isinstance(name, str) or name not in FAMILIES:
        raise InvalidConfig(f"unknown policy kind {name!r}")
    return FAMILIES[name]


def policy_from_config(spec: dict) -> Policy:
    """Build a policy from a JSON-style dict.

    ``{"kind": name, <the family's parameter>: value, "alpha": 1.0}`` with
    ``name`` any key of :data:`FAMILIES`: "lcfs"/"fcfs"/"rad" (pmf:
    {"entries": [...]}), "lcfs-greedy"/"fcfs-greedy"/"fcfs-greedy-thinned"
    (beta), "lcfs-geo"/"rad-geo" (tau, or mu), "mbt" (mu, or tau), "dad"
    (tau), "rad-uniform" (tau), "ddad" (rate).  ``alpha`` other than 1 is
    refused for every kind but FCFS, and so is any key the family does not
    read.
    """
    if "kind" not in _as_dict(spec, "policy config"):
        raise InvalidConfig("policy config needs a 'kind'")
    entry = family(spec["kind"])
    # a geometric pmf reads its rate mu or its mean tau, and refuses both
    keys, optional = ((), ("mu", "tau")) if entry.pmf is _geometric else ((entry.param,), ())
    _as_dict(spec, f"policy {spec['kind']!r}", ("kind",) + keys, ("alpha",) + optional)
    return Policy(entry.kind, entry.pmf(spec), spec.get("alpha", 1.0))
