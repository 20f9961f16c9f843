"""Slot-accurate stochastic simulation of source, server and monitor.

Per slot, an arrival is stored first, the policy acts, and a transmission
(if any) completes at the end of the slot.  An update generated in slot
t - 1 arrives at the server in slot t; a delivery in slot d of an update
with timestamp u resets the monitor age to d - u + 1 at the start of slot
d + 1.  The dynamics are evaluated vectorially but follow those rules
exactly, so a run is deterministic given its seed and bit-identical across
repeats.

Confidence intervals use batch means over 30 batches of the post-warmup
slots at the 95% level.  The default warmup is 10^4 slots; the age process
mixes fast at the parameters of interest, but the warmup guards low-rate
Markov runs.
"""

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidConfig
from .pmf import FinitePmf
from .policy import Policy, policy_from_config
from .sources import BernoulliSource, MarkovSource

BATCHES = 30
DEFAULT_WARMUP = 10_000

#: Student-t quantile at 97.5% with BATCHES - 1 = 29 degrees of freedom.
_T_29 = 2.0452296421327034


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: policy, source, horizon, warmup and seed.

    ``policy`` may be None for source-only measurements.
    """

    policy: Optional[Policy]
    source: Union[BernoulliSource, MarkovSource]
    horizon: int
    warmup: int = DEFAULT_WARMUP
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.horizon, int) or not isinstance(self.warmup, int):
            raise InvalidConfig("horizon and warmup must be integers")
        if not self.horizon > self.warmup >= 0:
            raise InvalidConfig(
                f"need horizon > warmup >= 0, got horizon={self.horizon}, warmup={self.warmup}"
            )
        if not isinstance(self.source, (BernoulliSource, MarkovSource)):
            raise InvalidConfig(f"unsupported source {self.source!r}")


@dataclass(frozen=True)
class SimStats:
    """Empirical results of one run."""

    mean_age: float
    ci_half_width: float
    delivered: int
    output_rate: float

    def __post_init__(self):
        if not self.mean_age >= 1.0:
            raise InvalidConfig(f"mean age {self.mean_age!r} is below one slot")
        if not 0.0 <= self.output_rate <= 1.0:
            raise InvalidConfig(f"output rate {self.output_rate!r} outside [0, 1]")


def _sample_durations(rng, pmf: FinitePmf, size):
    durations = np.array(pmf.durations, dtype=np.int64)
    cdf = np.cumsum(pmf.probabilities)
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    return durations[np.minimum(idx, len(durations) - 1)]


def _bernoulli_arrivals(rng, lam, horizon):
    return np.flatnonzero(rng.random(horizon) < lam) + 1


def _geometric_lengths(rng, p, size):
    if p >= 1.0:
        return np.ones(size, dtype=np.int64)
    u = np.maximum(rng.random(size), 1e-300)
    return np.ceil(np.log(u) / np.log(1.0 - p)).astype(np.int64).clip(min=1)


def _markov_arrivals(rng, src: MarkovSource, horizon):
    """Arrival slots of the two-state source over slots 1..horizon.

    The state path is built from alternating geometric sojourns (leave
    probabilities p10 from active, p01 from inactive), starting from the
    stationary distribution.  Slot t receives an update generated at t - 1,
    i.e. when the state at time t - 1 was active.
    """
    state = 1 if rng.random() < src.effective_rate else 0
    chunks = []
    total = 0
    while total < horizon:
        n_runs = max(64, int(horizon / 8))
        active = _geometric_lengths(rng, src.p10, n_runs)
        inactive = _geometric_lengths(rng, src.p01, n_runs)
        if state == 1:
            lengths = np.empty(2 * n_runs, dtype=np.int64)
            lengths[0::2] = active
            lengths[1::2] = inactive
        else:
            lengths = np.empty(2 * n_runs, dtype=np.int64)
            lengths[0::2] = inactive
            lengths[1::2] = active
        values = np.empty(2 * n_runs, dtype=np.int64)
        values[0::2] = state
        values[1::2] = 1 - state
        chunks.append(np.repeat(values, lengths))
        total += int(lengths.sum())
        # Parity of the number of runs consumed keeps the alternation;
        # n_runs of each state were generated, so the next chunk restarts
        # from the same leading state.
    path = np.concatenate(chunks)[:horizon]
    return np.flatnonzero(path) + 1


def _arrivals(rng, source, horizon):
    if isinstance(source, BernoulliSource):
        return _bernoulli_arrivals(rng, source.lam, horizon)
    return _markov_arrivals(rng, source, horizon)


def _lcfs_deliveries(rng, policy, arrivals, horizon):
    """Preemptive LCFS: an arrival replaces the in-service update.

    The update arriving in slot t with draw s departs in slot t + s - 1
    unless a later arrival lands on or before that slot.
    """
    draws = _sample_durations(rng, policy.pmf, len(arrivals))
    departures = arrivals + draws - 1
    next_arrival = np.append(arrivals[1:], horizon + 1)
    done = (next_arrival > departures) & (departures <= horizon)
    return departures[done], arrivals[done] - 1


def _fcfs_deliveries(rng, policy, arrivals, horizon):
    """FCFS with optional Bernoulli(alpha) admission thinning.

    Departures follow the waiting-time recursion dep_k = max(arr_k,
    dep_{k-1} + 1) + s_k - 1, unrolled into a cumulative maximum so the
    whole run evaluates vectorially.
    """
    if policy.alpha < 1.0:
        arrivals = arrivals[rng.random(len(arrivals)) < policy.alpha]
    if len(arrivals) == 0:
        return arrivals, arrivals
    draws = _sample_durations(rng, policy.pmf, len(arrivals))
    k = np.arange(1, len(arrivals) + 1)
    csum = np.cumsum(draws - 1)
    csum_prev = np.concatenate(([0], csum[:-1]))
    departures = np.maximum.accumulate(arrivals - k - csum_prev) + csum + k
    done = departures <= horizon
    return departures[done], arrivals[done] - 1


def _rad_attempts(rng, pmf, horizon):
    mean_d = sum(d * p for d, p in pmf.entries)
    block = max(64, int(horizon / mean_d * 1.1) + 16)
    attempts = np.cumsum(_sample_durations(rng, pmf, block))
    while attempts[-1] <= horizon:
        more = np.cumsum(_sample_durations(rng, pmf, block)) + attempts[-1]
        attempts = np.concatenate((attempts, more))
    return attempts[attempts <= horizon]


def _rad_deliveries(rng, policy, arrivals, horizon):
    """Accumulate-and-dump: the timer runs from slot 0, first attempt at D1.

    An attempt transmits the freshest update that arrived since the previous
    attempt (the buffer only ever holds the freshest update and is empty
    after every attempt); an empty-buffer attempt produces no output.
    """
    attempts = _rad_attempts(rng, policy.pmf, horizon)
    last_arrival_idx = np.searchsorted(arrivals, attempts, side="right") - 1
    previous_attempt = np.concatenate(([0], attempts[:-1]))
    filled = np.zeros(len(attempts), dtype=bool)
    seen = last_arrival_idx >= 0
    filled[seen] = arrivals[last_arrival_idx[seen]] > previous_attempt[seen]
    timestamps = arrivals[last_arrival_idx[filled]] - 1
    return attempts[filled], timestamps, attempts


_DELIVERY_FNS = {"lcfs": _lcfs_deliveries, "fcfs": _fcfs_deliveries}


def _age_stats(delivery_slots, delivery_timestamps, horizon, warmup):
    """Mean age and batch-means CI over the post-warmup slots.

    The monitor age in slot t is t minus the timestamp of the freshest
    update delivered before slot t (an artificial timestamp-0 update stands
    in until the first real delivery; the warmup absorbs it).
    """
    slots = np.arange(warmup + 1, horizon + 1, dtype=np.int64)
    idx = np.searchsorted(delivery_slots, slots, side="left")
    timestamps = np.concatenate(([0], delivery_timestamps))
    return _batch_means((slots - timestamps[idx]).astype(np.float64))


def _batch_means(ages):
    """Mean of per-slot ages and its 95% batch-means CI half-width.

    Fewer slots than batches leave the spread unknown: the half-width is inf.
    """
    per_batch = len(ages) // BATCHES
    if per_batch == 0:
        return float(ages.mean()), math.inf
    batch_means = ages[: per_batch * BATCHES].reshape(BATCHES, per_batch).mean(axis=1)
    return float(ages.mean()), float(_T_29 * batch_means.std(ddof=1) / math.sqrt(BATCHES))


def simulate(cfg: SimConfig, fake_dump_updates=False) -> SimStats:
    """Run one policy simulation; deterministic given the seed.

    ``fake_dump_updates`` only affects RAD-family policies: empty-buffer
    attempts re-send the previously dumped update, which leaves the monitor
    age unchanged but counts as a transmission.
    """
    if cfg.policy is None:
        raise InvalidConfig("simulate needs a policy; use empirical_source_age for sources")
    rng = np.random.default_rng(cfg.seed)
    arrivals = _arrivals(rng, cfg.source, cfg.horizon)
    if cfg.policy.kind == "rad":
        slots, timestamps, attempts = _rad_deliveries(rng, cfg.policy, arrivals, cfg.horizon)
        if fake_dump_updates and len(slots):
            delivered = int(np.count_nonzero(attempts[attempts > cfg.warmup] >= slots[0]))
        else:
            delivered = int(np.count_nonzero(slots > cfg.warmup))
    else:
        slots, timestamps = _DELIVERY_FNS[cfg.policy.kind](rng, cfg.policy, arrivals, cfg.horizon)
        delivered = int(np.count_nonzero(slots > cfg.warmup))
    mean, ci = _age_stats(slots, timestamps, cfg.horizon, cfg.warmup)
    measured = cfg.horizon - cfg.warmup
    return SimStats(mean, ci, delivered, delivered / measured)


def empirical_source_age(cfg: SimConfig, return_pmf=False):
    """Age of the raw update process at the server input, no policy.

    Returns SimStats whose ``delivered`` counts generated updates and whose
    ``output_rate`` is the empirical source rate; with ``return_pmf`` also
    returns the empirical age pmf as a dict.
    """
    rng = np.random.default_rng(cfg.seed)
    arrivals = _arrivals(rng, cfg.source, cfg.horizon)
    slots = np.arange(cfg.warmup + 1, cfg.horizon + 1, dtype=np.int64)
    idx = np.searchsorted(arrivals, slots, side="right") - 1
    padded = np.concatenate(([0], arrivals))
    ages = (slots - padded[idx + 1] + 1).astype(np.float64)
    mean, ci = _batch_means(ages)
    generated = int(np.count_nonzero(arrivals > cfg.warmup))
    stats = SimStats(mean, ci, generated, generated / (cfg.horizon - cfg.warmup))
    if not return_pmf:
        return stats
    values, counts = np.unique(ages.astype(np.int64), return_counts=True)
    pmf = {int(a): float(c) / len(ages) for a, c in zip(values, counts)}
    return stats, pmf


def _source_from_config(spec: dict):
    kind = spec.get("kind")
    if kind == "bernoulli":
        return BernoulliSource(float(spec["lambda"]))
    if kind == "markov":
        return MarkovSource(float(spec["p01"]), float(spec["p10"]))
    raise InvalidConfig(f"unknown source kind {kind!r}")


def load_scenario(path) -> SimConfig:
    """Read a SimConfig from a JSON scenario file.

    Schema: {"policy": {...}, "source": {"kind": "bernoulli", "lambda": x}
    or {"kind": "markov", "p01": x, "p10": y}, "horizon": n,
    "warmup": n, "seed": n}.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"scenario file {path!r} is not JSON: {exc}") from None
    try:
        policy = policy_from_config(spec["policy"]) if spec.get("policy") else None
        source = _source_from_config(spec["source"])
        return SimConfig(
            policy=policy,
            source=source,
            horizon=int(spec["horizon"]),
            warmup=int(spec.get("warmup", DEFAULT_WARMUP)),
            seed=int(spec.get("seed", 0)),
        )
    except KeyError as missing:
        raise InvalidConfig(f"scenario file is missing {missing}") from None
