"""Slot-accurate stochastic simulation of source, server and monitor.

Per slot, an arrival is stored first, the policy acts, and a transmission
(if any) completes at the end of the slot.  An update generated in slot
t - 1 arrives at the server in slot t; a delivery in slot d of an update
with timestamp u resets the monitor age to d - u + 1 at the start of slot
d + 1.  The dynamics are evaluated vectorially but follow those rules
exactly, so a run is deterministic given its seed and bit-identical across
repeats.

No array has one entry per slot.  Arrivals are drawn in chunks of
:data:`_CHUNK` slots (Bernoulli) or expanded from geometric run lengths
(Markov), and the age statistics are built from the sawtooth the age
traces: between two deliveries it rises by one per slot, so the sum of ages
over each inter-delivery interval has a closed form.  Prefix sums of those
areas, in exact int64 arithmetic, give the sum of ages up to any slot, and
the statistics read them at the batch boundaries only.  Memory and work are
O(arrivals + deliveries).  While the sum of ages over the horizon stays
below 2^53, every partial sum of per-slot ages is exact in float64 too, so
the mean and the batch means equal those of the per-slot ages bit for bit.

Confidence intervals use batch means over 30 batches of the post-warmup
slots at the 95% level.  The default warmup is 10^4 slots; the age process
mixes fast at the parameters of interest, but the warmup guards low-rate
Markov runs.
"""

import json
import logging
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidConfig, _as_dict, _as_int
from .pmf import FinitePmf
from .policy import Policy, policy_from_config
from .sources import BernoulliSource, MarkovSource

BATCHES = 30
DEFAULT_WARMUP = 10_000

#: Student-t quantile at 97.5% with BATCHES - 1 = 29 degrees of freedom.
_T_29 = 2.0452296421327034

#: Slots per draw of Bernoulli arrivals; consecutive draws give the same
#: stream as one draw over the whole horizon.
_CHUNK = 1 << 20

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: policy, source, horizon, warmup and seed.

    ``policy`` may be None for source-only measurements.  The three counts
    are whole numbers; an integral float such as JSON's 6e4 is kept as an int.
    """

    policy: Optional[Policy]
    source: Union[BernoulliSource, MarkovSource]
    horizon: int
    warmup: int = DEFAULT_WARMUP
    seed: int = 0

    def __post_init__(self):
        for name in ("horizon", "warmup", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, InvalidConfig))
        if not self.horizon > self.warmup:
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
    return np.concatenate([
        np.flatnonzero(rng.random(min(_CHUNK, horizon - start)) < lam) + (start + 1)
        for start in range(0, horizon, _CHUNK)
    ])


def _geometric_lengths(rng, p, size):
    if p >= 1.0:
        return np.ones(size, dtype=np.int64)
    u = np.maximum(rng.random(size), 1e-300)
    return np.ceil(np.log(u) / np.log(1.0 - p)).astype(np.int64).clip(min=1)


def _markov_arrivals(rng, src: MarkovSource, horizon):
    """Arrival slots of the two-state source over slots 1..horizon.

    The state path is made of alternating geometric sojourns (leave
    probabilities p10 from active, p01 from inactive), starting from the
    stationary distribution.  Slot t receives an update generated at t - 1,
    i.e. when the state at time t - 1 was active, so an active run starting
    at time s with length L gives the arrivals s + 1, ..., s + L.  Each chunk
    draws n_runs active then n_runs inactive lengths and pairs them, the
    leading state's run first, so every chunk starts in the same state.
    """
    state = 1 if rng.random() < src.effective_rate else 0
    run_starts, run_lengths = [], []
    total = 0
    while total < horizon:
        n_runs = max(64, int(horizon / 8))
        active = _geometric_lengths(rng, src.p10, n_runs)
        inactive = _geometric_lengths(rng, src.p01, n_runs)
        pair_ends = total + np.cumsum(active + inactive)
        starts = pair_ends - active  # the active run closes its pair ...
        if state == 1:
            starts -= inactive  # ... unless the chunk leads with it
        inside = starts < horizon
        run_starts.append(starts[inside])
        run_lengths.append(np.minimum(active[inside], horizon - starts[inside]))
        total = int(pair_ends[-1])
    return _expand_runs(np.concatenate(run_starts) + 1, np.concatenate(run_lengths))


def _expand_runs(firsts, lengths):
    """The integers firsts[k], ..., firsts[k] + lengths[k] - 1 for every k, in order.

    ``lengths`` are >= 1; the output is a cumulative sum of unit steps with
    a jump where each run begins.
    """
    out = np.ones(int(lengths.sum()), dtype=np.int64)
    if len(out) == 0:
        return out
    heads = np.cumsum(lengths) - lengths
    out[heads[1:]] = firsts[1:] - (firsts[:-1] + lengths[:-1] - 1)
    out[0] = firsts[0]
    return np.cumsum(out, out=out)


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


def _teeth(delivery_slots, timestamps, first_timestamp):
    """Start slot and timestamp of every sawtooth interval.

    The age in slot t is t minus the timestamp of the last update delivered
    in a slot before t, or minus ``first_timestamp`` before the first
    delivery.  Interval k covers the slots starts[k] + 1 through the next
    delivery slot (the horizon for the last) at timestamp stamps[k].
    """
    starts = np.concatenate(([0], delivery_slots))
    stamps = np.concatenate(([first_timestamp], timestamps))
    return starts, stamps


def _tooth_areas(starts, lengths, stamps):
    """Sum of t - stamp over the slots start + 1 .. start + length, exactly."""
    return lengths * (2 * starts + lengths + 1) // 2 - lengths * stamps


def _age_sums(delivery_slots, timestamps, first_timestamp, points):
    """Sum of the age over slots 1..T for each sorted T in ``points``.

    Whole intervals come from prefix sums of their areas; the interval that
    holds T contributes its part up to T.
    """
    starts, stamps = _teeth(delivery_slots, timestamps, first_timestamp)
    areas = _tooth_areas(starts[:-1], np.diff(starts), stamps[:-1])
    whole = np.concatenate(([0], np.cumsum(areas)))
    j = np.searchsorted(delivery_slots, points, side="left")
    return whole[j] + _tooth_areas(starts[j], points - starts[j], stamps[j])


def _age_stats(delivery_slots, timestamps, horizon, warmup, first_timestamp=0):
    """Mean age and batch-means CI over the post-warmup slots.

    An artificial update with ``first_timestamp`` stands in until the first
    real delivery; the warmup absorbs it.  Batch k's sum of ages is the
    difference of the age sums at its two boundaries, so the mean and the
    batch means are those of the per-slot ages.  Fewer slots than batches
    leave the spread unknown: the half-width is inf.
    """
    measured = horizon - warmup
    per_batch = measured // BATCHES
    points = np.append(warmup + per_batch * np.arange(BATCHES + 1), horizon)
    sums = _age_sums(delivery_slots, timestamps, first_timestamp, points)
    mean = float((sums[-1] - sums[0]) / measured)
    if per_batch == 0:
        return mean, math.inf
    batch_means = np.diff(sums[:-1]) / per_batch
    return mean, float(_T_29 * batch_means.std(ddof=1) / math.sqrt(BATCHES))


def _age_counts(delivery_slots, timestamps, first_timestamp, warmup, horizon):
    """Number of post-warmup slots at each age value, indexed by the age.

    Within an interval the ages run up by one per slot, so each clipped
    interval adds one to a contiguous range of age values: a difference
    array over the age values, summed once.
    """
    starts, stamps = _teeth(delivery_slots, timestamps, first_timestamp)
    first = np.maximum(starts, warmup) + 1
    last = np.append(np.minimum(delivery_slots, horizon), horizon)
    inside = first <= last
    low = first[inside] - stamps[inside]
    high = last[inside] - stamps[inside]
    size = int(high.max()) + 2
    steps = np.bincount(low, minlength=size) - np.bincount(high + 1, minlength=size)
    return np.cumsum(steps)


def _log_run(what, cfg, arrivals, delivery_slots):
    if _log.isEnabledFor(logging.DEBUG):
        # interval j(t) = #{deliveries before t} holds slot t
        first, last = np.searchsorted(delivery_slots, [cfg.warmup + 1, cfg.horizon], side="left")
        _log.debug("sim %s horizon=%d: %d arrivals, %d deliveries, %d intervals summed",
                   what, cfg.horizon, len(arrivals), len(delivery_slots), last - first + 1)


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
    _log_run(cfg.policy.kind, cfg, arrivals, slots)
    measured = cfg.horizon - cfg.warmup
    return SimStats(mean, ci, delivered, delivered / measured)


def empirical_source_age(cfg: SimConfig, return_pmf=False):
    """Age of the raw update process at the server input, no policy.

    Returns SimStats whose ``delivered`` counts generated updates and whose
    ``output_rate`` is the empirical source rate; with ``return_pmf`` also
    returns the empirical age pmf as a dict.

    The update arriving in slot a was generated in slot a - 1; it acts as a
    delivery in slot a - 1 with timestamp a - 1, so the age in slot t >= a
    is t - a + 1.  Before the first arrival the age is t + 1 (timestamp -1).
    """
    rng = np.random.default_rng(cfg.seed)
    generated_at = _arrivals(rng, cfg.source, cfg.horizon)
    generated_at -= 1
    mean, ci = _age_stats(generated_at, generated_at, cfg.horizon, cfg.warmup, first_timestamp=-1)
    _log_run("source", cfg, generated_at, generated_at)
    generated = int(np.count_nonzero(generated_at >= cfg.warmup))
    measured = cfg.horizon - cfg.warmup
    stats = SimStats(mean, ci, generated, generated / measured)
    if not return_pmf:
        return stats
    counts = _age_counts(generated_at, generated_at, -1, cfg.warmup, cfg.horizon)
    pmf = {int(a): float(counts[a]) / measured for a in np.flatnonzero(counts)}
    return stats, pmf


def _source_from_config(spec: dict):
    kind = _as_dict(spec, "scenario source").get("kind")
    if kind == "bernoulli":
        return BernoulliSource(spec["lambda"])
    if kind == "markov":
        return MarkovSource(spec["p01"], spec["p10"])
    raise InvalidConfig(f"unknown source kind {kind!r}")


def load_scenario(path) -> SimConfig:
    """Read a SimConfig from a JSON scenario file.

    Schema: {"policy": {...}, "source": {"kind": "bernoulli", "lambda": x}
    or {"kind": "markov", "p01": x, "p10": y}, "horizon": n,
    "warmup": n, "seed": n}.  Counts must be whole numbers and rates
    probabilities; anything else is refused with a typed error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"scenario file {path!r} is not JSON: {exc}") from None
    spec = _as_dict(spec, f"scenario file {path!r}")
    try:
        return SimConfig(
            policy=policy_from_config(spec["policy"]) if spec.get("policy") else None,
            source=_source_from_config(spec["source"]),
            horizon=spec["horizon"],
            warmup=spec.get("warmup", DEFAULT_WARMUP),
            seed=spec.get("seed", 0),
        )
    except KeyError as missing:
        raise InvalidConfig(f"scenario file is missing {missing}") from None
