"""Update-generation models: Bernoulli and two-state Markov sources.

Both produce a binary arrival sequence with full support, which is all the
leakage analysis needs; the age analysis additionally uses their statistics.
"""

from dataclasses import dataclass

from .errors import InvalidConfig, InvalidLambda, _as_probability


@dataclass(frozen=True)
class BernoulliSource:
    """I.i.d. arrivals: an update is generated each slot with probability lam."""

    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", _as_probability(self.lam, "arrival rate", InvalidLambda))

    @property
    def effective_rate(self):
        return self.lam


@dataclass(frozen=True)
class MarkovSource:
    """Two-state source; the active state generates one update per slot.

    ``p01`` is the inactive-to-active transition probability, ``p10`` the
    active-to-inactive one.  The stationary probability of the active state
    is the effective arrival rate p01 / (p01 + p10).
    """

    p01: float
    p10: float

    def __post_init__(self):
        for name in ("p01", "p10"):
            p = _as_probability(getattr(self, name), f"transition probability {name}", InvalidConfig)
            object.__setattr__(self, name, p)

    @property
    def effective_rate(self):
        return self.p01 / (self.p01 + self.p10)
