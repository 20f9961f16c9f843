"""Slot-accurate stochastic simulation of source, server and monitor.

Per slot, an arrival is stored first, the policy acts, and a transmission
(if any) completes at the end of the slot.  An update generated in slot
t - 1 arrives at the server in slot t; a delivery in slot d of an update
with timestamp u resets the monitor age to d - u + 1 at the start of slot
d + 1.  The dynamics are evaluated vectorially but follow those rules
exactly, so a run is deterministic given its seed and bit-identical across
repeats.

A run streams through windows of :data:`_CHUNK` slots.  Each window draws
its arrivals, the server turns them into deliveries, and a running
accumulator adds up the sawtooth the age traces: between two deliveries it
rises by one per slot, so the sum of ages over each inter-delivery interval
has a closed form.  The running sum of those areas, in exact int64
arithmetic, is read at the batch boundaries only.  The server state crosses
window boundaries (the held-back LCFS arrival, the last FCFS departure, the
last RAD attempt and the freshest arrival), so memory is O(_CHUNK) whatever
the horizon; Markov arrivals and RAD attempts are renewal processes whose
events drawn past a window wait for it.  While the sum of ages over the
horizon stays below 2^53, every partial sum of per-slot ages is exact in
float64 too, so the mean and the batch means equal those of the per-slot
ages bit for bit.

Each random role of a run (Bernoulli arrivals or Markov stay-or-leave
coins, Markov idle lengths, FCFS admission coins, service or timer draws)
reads its own generator seeded with (seed, role), strictly in sequence.  A
run is therefore the same whatever the window size.

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

from .errors import InvalidConfig, _as_dict, _as_int, _as_seed
from .pmf import FinitePmf
from .policy import Policy, policy_from_config
from .sources import BernoulliSource, MarkovSource

BATCHES = 30
DEFAULT_WARMUP = 10_000

#: Student-t quantile at 97.5% with BATCHES - 1 = 29 degrees of freedom.
_T_29 = 2.0452296421327034

#: Slots per window of a run, and the most draws taken at once; any value
#: gives the same run.
_CHUNK = 1 << 16

#: Random roles of a run; role r draws from default_rng((seed, r)).
_ARRIVALS, _INACTIVE, _COINS, _SERVICE = range(4)

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
        for name in ("horizon", "warmup"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, InvalidConfig))
        object.__setattr__(self, "seed", _as_seed(self.seed))
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


def _stream(cfg, role):
    return np.random.default_rng((cfg.seed, role))


def _sampler(pmf: FinitePmf, rng):
    """sample(size): draws of ``pmf`` by inversion, one double of ``rng`` each.

    The pmf's arrays are built once per run, not once per chunk.
    """
    durations = np.array(pmf.durations, dtype=np.int64)
    cdf = np.cumsum(pmf.probabilities)

    def sample(size):
        idx = np.searchsorted(cdf, rng.random(size), side="right")
        return durations[np.minimum(idx, len(durations) - 1)]

    return sample


def _bernoulli_chunks(rng, lam, horizon):
    for start in range(0, horizon, _CHUNK):
        yield np.flatnonzero(rng.random(min(_CHUNK, horizon - start)) < lam) + (start + 1)


def _geometric_lengths(rng, p, size, cap):
    """``size`` Geometric(p) draws on {1, 2, ...} by inversion, each clipped to ``cap``."""
    if p >= 1.0:
        return np.ones(size, dtype=np.int64)
    u = np.maximum(rng.random(size), 1e-300)
    with np.errstate(over="ignore"):  # a p near the smallest double overflows; the cap takes inf
        lengths = np.ceil(np.log(u) / np.log1p(-p))
    return np.minimum(lengths, cap).astype(np.int64)


def _renewals(gaps, horizon):
    """Event slots of a renewal process from slot 0, per window of :data:`_CHUNK` slots.

    ``gaps(size)`` gives the next ``size`` gaps, each at least one slot; they
    are drawn :data:`_CHUNK` at a time, and the events past a window's end
    wait for the next window.
    """
    pending = np.zeros(0, dtype=np.int64)  # events drawn, not yet reached
    last = 0  # the last event drawn
    for start in range(0, horizon, _CHUNK):
        end = min(start + _CHUNK, horizon)
        while last <= end:
            pending = np.concatenate((pending, last + np.cumsum(gaps(_CHUNK))))
            last = int(pending[-1])
        reached = np.searchsorted(pending, end, side="right")
        yield pending[:reached]
        pending = pending[reached:]


def _markov_gaps(cfg: SimConfig):
    """gaps(size): the next gaps between the two-state source's arrivals.

    Slot t receives an update generated at t - 1, when the state was active.
    A gap is one slot, plus a Geometric(p01) idle stretch if the source
    leaves: the arrivals stream gives one coin per gap, leaving below p10
    (for the first gap, not below the stationary active probability), and
    the inactive stream one idle length per leave.
    """
    src, coins, idles = cfg.source, _stream(cfg, _ARRIVALS), _stream(cfg, _INACTIVE)
    first = True

    def gaps(size):
        nonlocal first
        u = coins.random(size)
        leave = u < src.p10
        if first:
            leave[0], first = u[0] >= src.effective_rate, False
        out = np.ones(size, dtype=np.int64)
        out[leave] += _geometric_lengths(idles, src.p01, int(np.count_nonzero(leave)), cfg.horizon + 1)
        return out

    return gaps


def _arrival_chunks(cfg: SimConfig):
    """Arrival slots of each window of :data:`_CHUNK` slots."""
    if isinstance(cfg.source, BernoulliSource):
        return _bernoulli_chunks(_stream(cfg, _ARRIVALS), cfg.source.lam, cfg.horizon)
    return _renewals(_markov_gaps(cfg), cfg.horizon)


def _lcfs(rng, cfg, chunks):
    """Preemptive LCFS: an arrival replaces the in-service update.

    The update arriving in slot t with draw s departs in slot t + s - 1
    unless a later arrival lands on or before that slot.  The last arrival
    of a chunk is held back until the next chunk's first arrival decides.
    """
    sample = _sampler(cfg.policy.pmf, rng)
    held = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)  # arrival, departure
    for fresh in chunks:
        arrivals = np.concatenate((held[0], fresh))
        departures = np.concatenate((held[1], fresh + sample(len(fresh)) - 1))
        done = (arrivals[1:] > departures[:-1]) & (departures[:-1] <= cfg.horizon)
        slots = departures[:-1][done]
        yield slots, arrivals[:-1][done] - 1, slots
        held = arrivals[-1:], departures[-1:]
    done = held[1] <= cfg.horizon
    yield held[1][done], held[0][done] - 1, held[1][done]


def _fcfs(rng, cfg, chunks):
    """FCFS with optional Bernoulli(alpha) admission thinning.

    Departures follow the waiting-time recursion dep_k = max(arr_k,
    dep_{k-1} + 1) + s_k - 1.  With x_k = dep_k - k - sum_{i<=k} (s_i - 1)
    it reads x_k = max(x_{k-1}, arr_k - k - sum_{i<k} (s_i - 1)), a
    cumulative maximum that a chunk starts from the last departure.  Thinning
    takes one admission draw per arrival.
    """
    alpha, sample, coins = cfg.policy.alpha, _sampler(cfg.policy.pmf, rng), _stream(cfg, _COINS)
    last = np.iinfo(np.int64).min  # departure slot of the previous update
    for arrivals in chunks:
        if alpha < 1.0:
            arrivals = arrivals[coins.random(len(arrivals)) < alpha]
        if len(arrivals) == 0:
            continue
        steps = sample(len(arrivals)) - 1
        k = np.arange(1, len(arrivals) + 1)
        csum = np.cumsum(steps)
        departures = np.maximum(np.maximum.accumulate(arrivals - k - (csum - steps)), last) + csum + k
        last = int(departures[-1])
        done = departures <= cfg.horizon
        yield departures[done], arrivals[done] - 1, departures[done]


def _rad(rng, cfg, chunks):
    """Accumulate-and-dump: the timer runs from slot 0, first attempt at D1.

    An attempt transmits the freshest update that arrived since the previous
    attempt (the buffer only ever holds the freshest update and is empty
    after every attempt); an empty-buffer attempt produces no output.  The
    attempts are a renewal process of timer draws.
    """
    previous = latest = 0  # the last attempt reached, the freshest arrival (0: none)
    for attempts, arrivals in zip(_renewals(_sampler(cfg.policy.pmf, rng), cfg.horizon), chunks):
        seen = np.concatenate(([latest], arrivals))
        freshest = seen[np.searchsorted(arrivals, attempts, side="right")]
        filled = freshest > np.concatenate(([previous], attempts[:-1]))
        yield attempts[filled], freshest[filled] - 1, attempts
        previous = int(attempts[-1]) if len(attempts) else previous
        latest = int(seen[-1])


#: Per chunk of arrivals, each server yields its delivery slots, their
#: timestamps and its transmission attempts (the deliveries, bar RAD).
_SERVERS = {"lcfs": _lcfs, "fcfs": _fcfs, "rad": _rad}


def _tooth_areas(starts, lengths, stamps):
    """Sum of t - stamp over the slots start + 1 .. start + length, exactly."""
    return lengths * (2 * starts + lengths + 1) // 2 - lengths * stamps


class _Ages:
    """Running age statistics over deliveries fed in slot order.

    The age in slot t is t minus the timestamp of the last update delivered
    in a slot before t, or minus ``first_timestamp`` before the first
    delivery.  Each delivery closes a sawtooth interval whose sum of ages
    has a closed form; the running int64 sum of those areas gives the sum of
    ages up to any slot, read at the batch boundaries.  With ``counts`` set,
    a difference array over age values counts the post-warmup slots at each
    age.  Memory is O(deliveries per feed).
    """

    def __init__(self, horizon, warmup, first_timestamp=0, counts=False):
        self.horizon, self.warmup = horizon, warmup
        self.per_batch = (horizon - warmup) // BATCHES
        self.points = np.append(warmup + self.per_batch * np.arange(BATCHES + 1), horizon)
        self.sums = np.zeros(len(self.points), dtype=np.int64)  # age sums over 1..point
        self.settled = 0  # points before it are summed
        self.start, self.stamp, self.area = 0, first_timestamp, 0  # open interval; sum to start
        self.steps = np.zeros(0, dtype=np.int64) if counts else None
        self.deliveries = self.late = 0  # all deliveries, those after the warmup

    def feed(self, slots, stamps):
        """Deliveries in ``slots`` (increasing, none before the last fed) with their timestamps."""
        if len(slots) == 0:
            return
        starts = np.concatenate(([self.start], slots[:-1]))  # interval k ends at slots[k]
        marks = np.concatenate(([self.stamp], stamps[:-1]))
        areas = _tooth_areas(starts, slots - starts, marks)
        settled = np.searchsorted(self.points, slots[-1], side="right")
        if settled > self.settled:  # points up to the last delivery lie in intervals fed here
            points = self.points[self.settled : settled]
            j = np.searchsorted(slots, points, side="left")
            whole = self.area + np.concatenate(([0], np.cumsum(areas)))
            tails = _tooth_areas(starts[j], points - starts[j], marks[j])
            self.sums[self.settled : settled] = whole[j] + tails
            self.settled = settled
        if self.steps is not None:
            self._count(starts, slots, marks)
        self.start, self.stamp, self.area = int(slots[-1]), int(stamps[-1]), self.area + int(areas.sum())
        self.deliveries += len(slots)
        self.late += len(slots) - int(np.searchsorted(slots, self.warmup, side="right"))

    def _count(self, starts, ends, marks):
        first = np.maximum(starts, self.warmup) + 1
        last = np.minimum(ends, self.horizon)
        inside = first <= last
        if not inside.any():
            return
        low = first[inside] - marks[inside]
        high = last[inside] - marks[inside]
        size = int(high.max()) + 2
        if size > len(self.steps):
            self.steps = np.pad(self.steps, (0, size - len(self.steps)))
        self.steps[:size] += np.bincount(low, minlength=size) - np.bincount(high + 1, minlength=size)

    def stats(self):
        """Mean age and batch-means CI over the post-warmup slots.

        The interval open at the horizon is summed up to it; the warmup
        absorbs the artificial first update.  Batch k's sum of ages is the
        difference of the age sums at its two boundaries, so the mean and the
        batch means are those of the per-slot ages.  Fewer slots than batches
        leave the spread unknown: the half-width is inf.
        """
        points = self.points[self.settled :]
        self.sums[self.settled :] = self.area + _tooth_areas(self.start, points - self.start, self.stamp)
        self.settled = len(self.points)
        sums, measured = self.sums, self.horizon - self.warmup
        mean = float((sums[-1] - sums[0]) / measured)
        if self.per_batch == 0:
            return mean, math.inf
        batch_means = np.diff(sums[:-1]) / self.per_batch
        return mean, float(_T_29 * batch_means.std(ddof=1) / math.sqrt(BATCHES))

    def counts(self):
        """Number of post-warmup slots at each age value, indexed by the age."""
        self._count(np.array([self.start]), np.array([self.horizon]), np.array([self.stamp]))
        return np.cumsum(self.steps)


def _log_run(what, cfg, arrivals, ages):
    if _log.isEnabledFor(logging.DEBUG):
        # the post-warmup intervals: one per late delivery before the horizon, plus the open one
        intervals = ages.late - (ages.start == cfg.horizon) + 1
        _log.debug("sim %s horizon=%d: %d arrivals, %d deliveries, %d intervals summed, %d chunks",
                   what, cfg.horizon, arrivals, ages.deliveries, intervals, -(-cfg.horizon // _CHUNK))


def simulate(cfg: SimConfig, fake_dump_updates=False) -> SimStats:
    """Run one policy simulation; deterministic given the seed.

    ``fake_dump_updates`` only affects RAD-family policies: empty-buffer
    attempts re-send the previously dumped update, which leaves the monitor
    age unchanged but counts as a transmission.
    """
    if cfg.policy is None:
        raise InvalidConfig("simulate needs a policy; use empirical_source_age for sources")
    arrived = [0]

    def chunks():
        for arrivals in _arrival_chunks(cfg):
            arrived[0] += len(arrivals)
            yield arrivals

    ages = _Ages(cfg.horizon, cfg.warmup)
    sent, first = 0, None  # with fake dumps every attempt from the first delivery on transmits
    for slots, stamps, attempts in _SERVERS[cfg.policy.kind](_stream(cfg, _SERVICE), cfg, chunks()):
        ages.feed(slots, stamps)
        if fake_dump_updates:
            first = slots[0] if first is None and len(slots) else first
            if first is not None:
                sent += int(np.count_nonzero(attempts[attempts > cfg.warmup] >= first))
    delivered = sent if fake_dump_updates else ages.late
    mean, ci = ages.stats()
    _log_run(cfg.policy.kind, cfg, arrived[0], ages)
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
    ages = _Ages(cfg.horizon, cfg.warmup, first_timestamp=-1, counts=return_pmf)
    generated = 0
    for generated_at in _arrival_chunks(cfg):
        generated_at -= 1
        ages.feed(generated_at, generated_at)
        generated += int(np.count_nonzero(generated_at >= cfg.warmup))
    mean, ci = ages.stats()
    _log_run("source", cfg, ages.deliveries, ages)
    measured = cfg.horizon - cfg.warmup
    stats = SimStats(mean, ci, generated, generated / measured)
    if not return_pmf:
        return stats
    counts = ages.counts()
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
