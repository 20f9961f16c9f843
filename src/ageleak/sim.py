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
accumulator sums the ages in closed form: the age in slot t is t minus the
timestamp in force, so the sum of ages over slots 1..p is p (p + 1) / 2
minus the sum of the timestamps in force, and each delivery's timestamp
holds until the next delivery.  One int64 pass per window takes the
products of those hold times and timestamps; their running sum, read at
the batch boundaries, gives the sum of ages there.  Horizons are capped at
2^31 slots, where every such sum stays below 2^63.  The server state
crosses window boundaries (a last-come server's held-back arrival and its
exit, the last FCFS departure, or the last RAD attempt and the freshest
arrival), so memory is O(_CHUNK) whatever the horizon: at most about 45
bytes per window slot, 1.4 MB traced in windows of 2^15 slots.  Markov
arrivals and the attempts of a RAD timer with more than one duration are
renewal processes whose events drawn past a window wait for it.  While the
sum of ages over the horizon stays below 2^53, every partial sum of
per-slot ages is exact in float64 too, so the mean and the batch means
equal those of the per-slot ages bit for bit.

The servers select a window's deliveries by index, which numpy does faster
than by boolean mask.  Service and timer draws take their route from the
pmf's support: one duration with no tail draws nothing, two durations
with no tail take one coin per draw, and any other pmf a guide-table bucket.
Preemptive LCFS and a RAD timer of one duration tau (DAD) are one
last-come server: the update arriving in slot t leaves at its exit,
t + s - 1 or ceil(t / tau) tau, unless a fresher one lands first.  Any
other timer's attempts are a renewal stream, and each attempt's freshest
arrival is found by a scan of the window's slots or a binary search, by
attempt density.

Each random role of a run (arrival coins: Bernoulli arrivals or Markov
stay-or-leave coins; Markov idle lengths; FCFS admission coins; service or
timer draws) reads its own generator seeded with (seed, role), strictly in
sequence, and no role reads another's.  A coin takes one byte of its role's
raw 64-bit words, read little-endian: heads when the byte is below
c = floor(256 p), and a byte equal to c, one coin in 256, is settled by
one double of the role's tie stream, seeded with (seed, role, 1).  So
P(heads) is within 2^-61 of p, and a slot's coin costs one byte, not a
53-bit double.  A service or timer draw reads its guide-table bucket from
one byte, or two when there are more than 256 buckets, and one tie double
only where a cdf point splits the bucket; each duration's probability is
within 2^-53 of the pmf's.  Bytes a window leaves in a word go to the next
window, so a run is the same whatever the window size, and a route that
draws fewer doubles, or none past the horizon, leaves every result as it was.

Confidence intervals use batch means over 30 batches of the post-warmup
slots at the 95% level.  The default warmup is 10^4 slots; the age process
mixes fast at the parameters of interest, but the warmup guards low-rate
Markov runs.
"""

import bisect
import json
import logging
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidConfig, _as_dict, _as_int, _as_seed
from .pmf import _LISTED_MAX
from .policy import Policy, policy_from_config
from .sources import BernoulliSource, MarkovSource

BATCHES = 30
DEFAULT_WARMUP = 10_000

#: Student-t quantile at 97.5% with BATCHES - 1 = 29 degrees of freedom.
_T_29 = 2.0452296421327034

#: Slots per window of a run, and the most draws taken at once; any value
#: gives the same run.  A window's buffers take at most about 45 bytes per
#: slot, so 2^15 slots keep its working set within one core's L2 cache
#: (1-2 MB); 2^14 slots pay more in per-window overhead than they save.
_CHUNK = 1 << 15

#: The longest horizon: its age sums, 2^61 at most, and every partial sum
#: stay exact in int64.
_MAX_HORIZON = 1 << 31

#: Random roles of a run; role r draws from default_rng((seed, r)), and the
#: ties or refinement doubles of a byte-reading role from default_rng((seed, r, 1)).
_ARRIVALS, _INACTIVE, _COINS, _SERVICE = range(4)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: policy, source, horizon, warmup and seed.

    ``policy`` may be None for source-only measurements.  The three counts
    are whole numbers; an integral float such as JSON's 6e4 is kept as an int.
    The horizon is at most 2^31 slots.
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
        if self.horizon > _MAX_HORIZON:
            raise InvalidConfig(f"horizon {self.horizon} is above 2**31 slots")
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


class _Coins:
    """Bytes and Bernoulli coins of one random role, read from its raw 64-bit words.

    The words are read as little-endian bytes, and those a call leaves unread
    go to the next call, so the bytes are the same on any host and in any
    split into calls.  A coin of probability p is heads when its byte is
    below c = floor(256 p).  A byte equal to c is settled by the next double
    u of the tie stream: heads when u < 256 p - c.  256 p, c and their
    difference are exact in float64 and u is a multiple of 2^-53, so
    P(heads) is within 2^-61 of p; when 256 p is whole a tie is tails and
    reads nothing.  ``drawn`` counts the bytes, ``settled`` the doubles.
    """

    def __init__(self, words, ties):
        self.words, self.ties = words, ties
        self.spare = np.zeros(0, dtype=np.uint8)  # the bytes of the last word not yet read
        self.drawn = self.settled = 0

    def bytes(self, size):
        """The next ``size`` bytes of the role's words."""
        fresh = self.words(-(-(size - len(self.spare)) // 8)).astype("<u8", copy=False).view(np.uint8)
        out = np.concatenate((self.spare, fresh)) if len(self.spare) else fresh
        out, self.spare = out[:size], out[size:].copy()  # a view would hold the whole buffer
        self.drawn += size
        return out

    def doubles(self, size):
        """The next ``size`` doubles of the tie stream."""
        self.settled += size
        return self.ties.random(size)

    def flips(self, size, p):
        """The next ``size`` coins, each True with probability p."""
        coins = self.bytes(size)
        scaled = 256.0 * p
        c = math.floor(scaled)
        heads = coins < c
        if scaled > c:
            ties = np.flatnonzero(coins == c)
            if len(ties):
                heads[ties[self.doubles(len(ties)) < scaled - c]] = True
        return heads

    def heads(self, size, p):
        """Indices of the heads among the next ``size`` coins, each heads with probability p."""
        return self.flips(size, p).nonzero()[0]


def _coins(cfg: SimConfig, role):
    """The coins of ``role`` in a run."""
    return _Coins(_stream(cfg, role).bit_generator.random_raw, np.random.default_rng((cfg.seed, role, 1)))


def _one_duration(cfg: SimConfig):
    """The policy pmf's only duration, clipped to horizon + 1, or None when it has more or a tail."""
    pmf = cfg.policy.pmf
    return None if pmf.hazard or len(pmf.durations) > 1 else min(pmf.durations[0], cfg.horizon + 1)


def _sampler(cfg: SimConfig, coins):
    """sample(size): draws of the policy's pmf by inversion, from the bytes of the service role's ``coins``.

    The route follows the pmf's support.  One duration and no tail: every
    draw is that duration, and nothing is read.  Two durations d0 <= d1 and
    no tail: one coin per draw, d0 on heads at p = cdf[0].

    Otherwise the pmf is listed as its head and its tail written out until
    less than 2^-53 of the mass is left, or up to 2^16 durations, or to the
    horizon, and each draw is found through a guide table (Chen & Asau
    1974; Devroye 1986, III.2.4) of m = 2^k buckets, 64 <= m <= 2^16.  The
    bucket b, of probability 1/m, is the top k bits of one byte when m <=
    256, and of two bytes taken little-endian otherwise.  A bucket with no
    cdf point inside gives its duration.  One with a cdf point inside, or
    past the list's cdf while the tail goes on, reads one double v of the
    tie stream, and the draw is at index searchsorted(cdf, u, "right") for
    u = (b + v) / m.  A u past the list's cdf falls in the tail beyond its
    last duration L, inverted in closed form: L + k with P(D > L)
    (1 - mu)^k <= 1 - u, k >= 1; without a tail it takes the last duration.
    b + v rounds by at most 2^-54 m, so P(u < c) is within 2^-54 + 2^-53 / m
    of each cdf point c, and a duration's probability within 2^-53 of its
    step of the cdf.

    The arrays are built once per run, not once per chunk.  A draw past the
    horizon never fires, so it is clipped to horizon + 1 to fit int64.
    """
    only = _one_duration(cfg)
    if only is not None:
        return lambda size: np.full(size, only, dtype=np.int64)
    pmf, cap = cfg.policy.pmf, cfg.horizon + 1
    listed, probabilities = pmf._listed(_LISTED_MAX, cap)
    keep = bisect.bisect_right(listed, cap)
    durations = np.array(listed[:keep] + [cap] * (len(listed) - keep), dtype=np.int64)
    cdf = np.cumsum(probabilities)
    beyond = len(durations) if pmf.hazard and listed[-1] < cap else -1  # the tail goes on past the list
    if len(durations) == 2 and beyond < 0:
        second, step, split = int(durations[1]), int(durations[1] - durations[0]), float(cdf[0])

        def sample_two(size):
            out = coins.flips(size, split).astype(np.int64)
            out *= -step
            out += second  # d0 on heads, d1 on tails
            return out

        return sample_two
    bits = min(max((16 * len(durations) - 1).bit_length(), 6), 16)  # >= 16 buckets per duration
    m, index_type = 1 << bits, np.dtype("<u1" if bits <= 8 else "<u2")
    edges = np.arange(m + 1) / m
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    hi = np.searchsorted(cdf, edges[1:], side="left")
    table = np.where((lo == hi) & (lo != beyond), durations.take(lo, mode="clip"), -1)  # durations are >= 1
    rest, log_q = pmf._rest(listed[-1]), math.log1p(-pmf.hazard)

    def sample(size):
        # intp, which take() wants, so that the bytes are freed here and not copied there
        buckets = coins.bytes(index_type.itemsize * size).view(index_type).astype(np.intp)
        buckets >>= 8 * index_type.itemsize - bits
        out = table.take(buckets)
        slow = np.flatnonzero(out < 0)
        if len(slow):
            u = buckets.take(slow) + coins.doubles(len(slow))
            u /= m
            index = np.searchsorted(cdf, u, side="right")
            out[slow] = durations.take(index, mode="clip")
            if index.max() == beyond:
                far = index == beyond
                with np.errstate(divide="ignore"):  # a rest that underflowed to 0 gives k = 1
                    k = np.maximum(np.ceil(np.log((1.0 - u[far]) / rest) / log_q), 1.0)
                out[slow[far]] = np.minimum(listed[-1] + k, cap).astype(np.int64)
        return out

    return sample


def _bernoulli_chunks(coins, lam, horizon):
    for start in range(0, horizon, _CHUNK):
        arrivals = coins.heads(min(_CHUNK, horizon - start), lam)
        arrivals += start + 1
        yield arrivals


def _geometric_lengths(rng, p, size, cap):
    """``size`` Geometric(p) draws on {1, 2, ...} by inversion, each clipped to ``cap``."""
    if p >= 1.0:
        return np.ones(size, dtype=np.int64)
    u = rng.random(size)
    np.maximum(u, 1e-300, out=u)
    np.log(u, out=u)
    with np.errstate(over="ignore"):  # a p near the smallest double overflows; the cap takes inf
        u /= np.log1p(-p)
    np.ceil(u, out=u)
    np.minimum(u, cap, out=u)
    return u.astype(np.int64)


def _renewals(gaps, horizon, shortest):
    """Event slots of a renewal process from slot 0, per window of :data:`_CHUNK` slots.

    ``gaps(size)`` gives the next ``size`` gaps, each at least ``shortest``
    slots.  A refill draws :data:`_CHUNK` gaps, or fewer where that many
    pass the horizon: from the last event drawn, floor((horizon - last) /
    shortest) + 1 gaps reach past it.  The events past a window's end wait
    for the next window, and a refill writes its running sums straight
    after them.
    """
    pending = np.zeros(0, dtype=np.int64)  # events drawn, not yet reached
    last = 0  # the last event drawn
    for start in range(0, horizon, _CHUNK):
        end = min(start + _CHUNK, horizon)
        while last <= end:
            events = gaps(min(_CHUNK, (horizon - last) // shortest + 1))
            events[0] += last
            drawn = np.empty(len(pending) + len(events), dtype=np.int64)
            drawn[: len(pending)] = pending
            np.cumsum(events, out=drawn[len(pending) :])
            pending, last = drawn, int(drawn[-1])
        reached = np.searchsorted(pending, end, side="right")
        yield pending[:reached]
        pending = pending[reached:]


def _markov_gaps(cfg: SimConfig, coins):
    """gaps(size): the next gaps between the two-state source's arrivals.

    Slot t receives an update generated at t - 1, when the state was active.
    A gap is one slot, plus a Geometric(p01) idle stretch if the source
    leaves: ``coins`` gives one coin per gap, leaving on heads at p10 (the
    first gap on tails at the stationary active probability), and the
    inactive stream one idle length per leave.
    """
    src, idles = cfg.source, _stream(cfg, _INACTIVE)
    first = True

    def gaps(size):
        nonlocal first
        if first:
            first, active = False, len(coins.heads(1, src.effective_rate))
            leave = coins.heads(size - 1, src.p10) + 1
            if not active:
                leave = np.concatenate(([0], leave))
        else:
            leave = coins.heads(size, src.p10)
        lengths = _geometric_lengths(idles, src.p01, len(leave), cfg.horizon + 1)
        lengths += 1
        out = np.ones(size, dtype=np.int64)
        out[leave] = lengths
        return out

    return gaps


def _arrival_chunks(cfg: SimConfig, coins):
    """Arrival slots of each window of :data:`_CHUNK` slots, from the arrival role's coins."""
    if isinstance(cfg.source, BernoulliSource):
        return _bernoulli_chunks(coins, cfg.source.lam, cfg.horizon)
    return _renewals(_markov_gaps(cfg, coins), cfg.horizon, 1)


def _one(slot, stamp):
    """A single delivery, in the form a server yields."""
    return np.array([slot], dtype=np.int64), np.array([stamp], dtype=np.int64)


def _last_come(exits, horizon, chunks):
    """A last-come server: an update leaves at its exit slot, ``exits(fresh)``
    per chunk and never before its arrival, unless a later arrival lands on
    or before it.  A chunk's last arrival is held back until the next chunk's
    first arrival decides.  An update that leaves before the next arrival
    does so by the horizon; only the last one is tested against it.
    """
    arrival = departure = 0  # the held arrival and its departure (0: none)
    for fresh in chunks:
        if len(fresh) == 0:
            continue
        if arrival and fresh[0] > departure:
            yield _one(departure, arrival - 1)
        departures = exits(fresh)
        done = (fresh[1:] > departures[:-1]).nonzero()[0]
        stamps = fresh.take(done)
        stamps -= 1
        yield departures.take(done), stamps
        arrival, departure = int(fresh[-1]), int(departures[-1])
    if arrival and departure <= horizon:
        yield _one(departure, arrival - 1)


def _lcfs(service, cfg, chunks):
    """Preemptive LCFS: an arrival replaces the update in service, so the one
    arriving in slot t with draw s is last-come with exit t + s - 1."""
    sample = _sampler(cfg, service)

    def exits(fresh):
        departures = sample(len(fresh))
        departures += fresh
        departures -= 1
        return departures

    return _last_come(exits, cfg.horizon, chunks)


def _fcfs(service, cfg, chunks):
    """FCFS of the admitted arrivals.

    Departures follow the waiting-time recursion dep_k = max(arr_k,
    dep_{k-1} + 1) + s_k - 1.  With T_k = s_1 + ... + s_k, the window's
    running service sum, and x_k = dep_k - T_k it reads x_k = max(x_{k-1},
    arr_k - 1 - T_{k-1}), a cumulative maximum that a window starts from
    x_0, the last departure.  Once the last departure is past the horizon
    every later one is too, so the windows left are only read.
    """
    sample = _sampler(cfg, service)
    last = np.iinfo(np.int64).min  # departure slot of the previous update
    for arrivals in chunks:
        if last > cfg.horizon or len(arrivals) == 0:
            continue
        total = sample(len(arrivals))
        np.cumsum(total, out=total)  # T_1 .. T_n
        departures = np.subtract(arrivals, 1)
        departures[1:] -= total[:-1]
        departures[0] = max(departures[0], last)
        np.maximum.accumulate(departures, out=departures)
        departures += total
        last = int(departures[-1])
        done = np.searchsorted(departures, cfg.horizon, side="right")  # departures increase
        yield departures[:done], arrivals[:done] - 1


def _rad(service, cfg, chunks):
    """Accumulate-and-dump: the timer runs from slot 0, first attempt at D1.

    An attempt transmits the freshest update that arrived since the previous
    attempt (the buffer only ever holds the freshest update and is empty
    after every attempt); an empty-buffer attempt produces no output.

    A timer of one duration tau (clipped to horizon + 1) draws nothing: it is
    the last-come server with exit ceil(t / tau) tau, the first attempt on
    or after t.  Any other timer's attempts are a renewal process of its
    draws, and the freshest arrival at each attempt is a running maximum
    over the window's slots where attempts are dense (more than one per 8
    slots), and a binary search over the window's arrivals where they are
    sparse; both give the last arrival on or before the attempt.
    """
    tau = _one_duration(cfg)
    if tau is not None:
        def exits(fresh):
            attempts = fresh + (tau - 1)
            attempts //= tau
            attempts *= tau
            return attempts

        yield from _last_come(exits, cfg.horizon, chunks)
        return
    previous = latest = 0  # the last attempt reached, the freshest arrival (0: none)
    shortest = min(cfg.policy.pmf.durations[0], cfg.horizon + 1)
    attempt_chunks = _renewals(_sampler(cfg, service), cfg.horizon, shortest)
    for attempts, arrivals, start in zip(attempt_chunks, chunks, range(0, cfg.horizon, _CHUNK)):
        yield _dumps(attempts, arrivals, start, min(_CHUNK, cfg.horizon - start), previous, latest)
        previous = int(attempts[-1]) if len(attempts) else previous
        latest = int(arrivals[-1]) if len(arrivals) else latest


def _dumps(attempts, arrivals, start, window, previous, latest):
    """The deliveries of a window's attempts, given the attempt and the freshest arrival before it.

    A function of its own, so that its window-length buffers are freed when it returns.
    """
    if 8 * len(attempts) > window:
        mark = np.zeros(window + 1, dtype=np.int64)  # mark[i]: freshest arrival by slot start + i
        mark[0] = latest
        mark[arrivals - start] = arrivals
        freshest = np.maximum.accumulate(mark, out=mark).take(attempts - start)
        del mark
    else:
        freshest = np.concatenate(([latest], arrivals))[np.searchsorted(arrivals, attempts, side="right")]
    filled = np.empty(len(freshest), dtype=bool)  # an attempt with an arrival since the one before
    filled[:1] = freshest[:1] > previous
    np.greater(freshest[1:], attempts[:-1], out=filled[1:])
    filled = filled.nonzero()[0]
    stamps = freshest.take(filled)
    stamps -= 1
    return attempts.take(filled), stamps


#: Per chunk of arrivals, each server yields its delivery slots and their
#: timestamps.
_SERVERS = {"lcfs": _lcfs, "fcfs": _fcfs, "rad": _rad}


def _age_sum(p, stamped, start, stamp):
    """Sum of ages over the slots 1..p: T(p) = p (p + 1) / 2 less the timestamps in force.

    ``stamped`` sums the timestamps in force over the slots 1..start, and
    ``stamp`` holds over start + 1..p.  Exact in int64 up to 2^31 slots.
    """
    return p * (p + 1) // 2 - stamped - (p - start) * stamp


class _Ages:
    """Running age statistics over deliveries fed in slot order.

    The age in slot t is t minus the timestamp of the last update delivered
    in a slot before t, or minus ``first_timestamp`` before the first
    delivery.  The sum of ages over the slots 1..p is therefore T(p) =
    p (p + 1) / 2 minus the sum of the timestamps in force over those slots,
    and between two deliveries s < s' the timestamp u of the one in s holds
    for s' - s slots.  A running total of those products (s' - s) u, one
    int64 pass per feed, gives the sum of ages up to any slot, read at the
    batch boundaries.  With ``counts`` set, a difference array over age
    values counts the post-warmup slots at each age.  Memory is
    O(deliveries per feed).
    """

    def __init__(self, horizon, warmup, first_timestamp=0, counts=False):
        self.horizon, self.warmup = horizon, warmup
        self.per_batch = (horizon - warmup) // BATCHES
        self.points = np.append(warmup + self.per_batch * np.arange(BATCHES + 1), horizon)
        self.sums = np.zeros(len(self.points), dtype=np.int64)  # age sums over 1..point
        self.settled = 0  # points before it are summed
        # the open interval: the last delivery slot and its timestamp, and the
        # sum of the timestamps in force over the slots up to that delivery
        self.start, self.stamp, self.stamped = 0, first_timestamp, 0
        self.steps = np.zeros(0, dtype=np.int64) if counts else None
        self.deliveries = self.late = 0  # all deliveries, those after the warmup

    def feed(self, slots, stamps):
        """Deliveries in ``slots`` (increasing, none before the last fed) with their timestamps."""
        if len(slots) == 0:
            return
        first, last = int(slots[0]), int(slots[-1])
        stamped = self.stamped + (first - self.start) * self.stamp  # up to slots[0]
        held = np.subtract(slots[1:], slots[:-1])
        held *= stamps[:-1]  # held[k]: the timestamp sum over slots[k] + 1 .. slots[k + 1]
        summed = 0  # the products held[:summed] are in stamped
        if self.settled < len(self.points) and self.points[self.settled] <= last:
            # points up to the last delivery lie in intervals fed here
            settled = np.searchsorted(self.points, last, side="right")
            points = self.points[self.settled : settled].tolist()
            for i, (p, j) in enumerate(zip(points, np.searchsorted(slots, points).tolist()), self.settled):
                if j == 0:  # no delivery of this feed lies before p
                    self.sums[i] = _age_sum(p, self.stamped, self.start, self.stamp)
                    continue
                stamped += int(held[summed : j - 1].sum())
                summed = j - 1
                self.sums[i] = _age_sum(p, stamped, int(slots[j - 1]), int(stamps[j - 1]))
            self.settled = settled
        if self.steps is not None:
            starts = np.concatenate(([self.start], slots[:-1]))  # interval k ends at slots[k]
            self._count(starts, slots, np.concatenate(([self.stamp], stamps[:-1])))
        self.stamped = stamped + int(held[summed:].sum())
        self.start, self.stamp = last, int(stamps[-1])
        self.deliveries += len(slots)
        self.late += len(slots)
        if first <= self.warmup:
            self.late -= int(np.searchsorted(slots, self.warmup, side="right"))

    def _count(self, starts, ends, marks):
        first = np.maximum(starts, self.warmup) + 1
        last = np.minimum(ends, self.horizon)
        inside = np.flatnonzero(first <= last)
        if len(inside) == 0:
            return
        inside_marks = marks.take(inside)
        low = first.take(inside) - inside_marks
        high = last.take(inside) - inside_marks
        size = int(high.max()) + 2
        if size > len(self.steps):
            self.steps = np.pad(self.steps, (0, size - len(self.steps)))
        self.steps[:size] += np.bincount(low, minlength=size) - np.bincount(high + 1, minlength=size)

    def stats(self):
        """Mean age and batch-means CI over the post-warmup slots.

        The points past the last delivery are summed in the same closed
        form; the warmup absorbs the artificial first update.  Batch k's sum
        of ages is the difference of the age sums at its two boundaries, so
        the mean and the batch means are those of the per-slot ages.  Fewer
        slots than batches leave the spread unknown: the half-width is inf.
        """
        points = self.points[self.settled :]
        self.sums[self.settled :] = _age_sum(points, self.stamped, self.start, self.stamp)
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


def _log_run(what, cfg, arrivals, ages, coins, service=None):
    if _log.isEnabledFor(logging.DEBUG):
        # the post-warmup intervals: one per late delivery before the horizon, plus the open one
        intervals = ages.late - (ages.start == cfg.horizon) + 1
        drawn, refined = (service.drawn, service.settled) if service else (0, 0)
        _log.debug("sim %s horizon=%d: %d arrivals, %d deliveries, %d intervals summed, %d chunks, "
                   "%d service bytes, %d refined, %d coin bytes, %d ties settled", what, cfg.horizon, arrivals,
                   ages.deliveries, intervals, -(-cfg.horizon // _CHUNK), drawn, refined,
                   sum(c.drawn for c in coins), sum(c.settled for c in coins))


def simulate(cfg: SimConfig) -> SimStats:
    """Run one policy simulation; deterministic given the seed.

    FCFS thinning admits each arrival on a coin of the admission role.
    """
    if cfg.policy is None:
        raise InvalidConfig("simulate needs a policy; use empirical_source_age for sources")
    alpha, arrived = cfg.policy.alpha, [0]
    coins = [_coins(cfg, _ARRIVALS)] + ([_coins(cfg, _COINS)] if alpha < 1.0 else [])

    def chunks():
        for arrivals in _arrival_chunks(cfg, coins[0]):
            arrived[0] += len(arrivals)
            yield arrivals.take(coins[1].heads(len(arrivals), alpha)) if alpha < 1.0 else arrivals

    ages, service = _Ages(cfg.horizon, cfg.warmup), _coins(cfg, _SERVICE)
    for slots, stamps in _SERVERS[cfg.policy.kind](service, cfg, chunks()):
        ages.feed(slots, stamps)
        del slots, stamps  # freed before the server's next window
    mean, ci = ages.stats()
    _log_run(cfg.policy.kind, cfg, arrived[0], ages, coins, service)
    return SimStats(mean, ci, ages.late, ages.late / (cfg.horizon - cfg.warmup))


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
    generated, coins = 0, _coins(cfg, _ARRIVALS)
    for generated_at in _arrival_chunks(cfg, coins):
        generated_at -= 1
        ages.feed(generated_at, generated_at)
        generated += len(generated_at) - int(np.searchsorted(generated_at, cfg.warmup))
    mean, ci = ages.stats()
    _log_run("source", cfg, ages.deliveries, ages, [coins])
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
