"""Tagged server-policy descriptors shared by the oracle, simulator and CLI."""

from dataclasses import dataclass

from .errors import InvalidConfig, InvalidLambda, InvalidTau
from .leakage import _check_int, _uniform_width
from .pmf import FinitePmf, deterministic_pmf, geometric_pmf, make_pmf, uniform_pmf

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
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidLambda(f"admission probability {self.alpha!r} outside (0, 1]")
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
        return cls("rad", deterministic_pmf(_check_int(tau, 1, "dump period", InvalidTau)))


def policy_from_config(spec: dict) -> Policy:
    """Build a policy from a JSON-style dict.

    Canonical form: {"kind": "lcfs"|"fcfs"|"rad", "pmf": {"entries": [...]},
    "alpha": 1.0}.  Convenience kinds expand to canonical policies:
    "lcfs-greedy"/"fcfs-greedy" (beta[, alpha]), "lcfs-geo"/"rad-geo"/"mbt"
    (tau or mu[, alpha]), "dad" (tau), "rad-uniform" (tau), "ddad" (rate).
    """
    if "kind" not in spec:
        raise InvalidConfig("policy config needs a 'kind'")
    kind = spec["kind"]
    alpha = float(spec.get("alpha", 1.0))

    def _tau_to_mu():
        if "mu" in spec:
            return float(spec["mu"])
        if "tau" in spec:
            return 1.0 / float(spec["tau"])
        raise InvalidConfig(f"policy {kind!r} needs 'tau' or 'mu'")

    if kind in KINDS:
        if "pmf" not in spec:
            raise InvalidConfig(f"policy {kind!r} needs a 'pmf'")
        pmf = make_pmf([(d, p) for d, p in spec["pmf"]["entries"]])
        return Policy(kind, pmf, alpha)
    if kind in ("lcfs-greedy", "fcfs-greedy"):
        from .optimize import greedy_smp_pmf

        pmf = greedy_smp_pmf(float(spec["beta"]))
        return Policy(kind.split("-")[0], pmf, alpha)
    if kind == "lcfs-geo":
        return Policy("lcfs", geometric_pmf(_tau_to_mu()))
    if kind == "mbt":
        return Policy("fcfs", geometric_pmf(_tau_to_mu()), alpha)
    if kind == "rad-geo":
        return Policy("rad", geometric_pmf(_tau_to_mu()))
    if kind == "dad":
        return Policy.dad(float(spec["tau"]))
    if kind == "rad-uniform":
        return Policy("rad", uniform_pmf(_uniform_width(float(spec["tau"]))))
    if kind == "ddad":
        from .optimize import ddad_policy

        return Policy("rad", ddad_policy(float(spec["rate"])).to_pmf())
    raise InvalidConfig(f"unknown policy kind {kind!r}")
