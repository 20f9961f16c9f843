"""Brute-force ground truth for maximal leakage at small horizons.

The channel from arrival sequences to output sequences is expanded exactly:
every service-time or inter-dump draw is branched with its pmf weight, so
the conditional output distribution is computed in full rather than
sampled.  (Maximal leakage takes a max over inputs, which no unbiased
Monte Carlo estimate survives.)

Slot semantics follow the system model: within a slot, an arrival is stored
first, then the server acts, then a transmission (if any) sets that slot's
output bit.  Sequences are keyed as n-bit machine words with slot 1 in the
most significant bit.

All inputs walk their prefix trie together: a table of numpy rows, each
one int64 key (input prefix, output prefix, server state) and a
probability, advances one slot at a time, doubling the prefixes by the
next arrival bit, branching the draws and merging equal keys, so each
state is computed once for every input that shares its prefix.  The walk
is depth-first: before each slot, a table of more than _ROW_BUDGET rows is
halved by input prefix and each half finished on its own, which bounds live
memory whatever the horizon.

The server is causal: the output up to slot t depends only on the input up
to slot t.  So at depth t the table, once its server states are summed out,
is the horizon-t channel, and one walk to n yields the maximal leakage at
every horizon 0..n.  Only the lumping of what happens past the horizon
(departures drawn beyond n, timer ages alike over the slots left) depends
on n, so an entry differs from a walk to that horizon by rounding alone.
:func:`_maxl_series` is the walk's one reader: it keeps max_x P(y | x) for
every output prefix y, which is all that maximal leakage needs.
"""

import logging
import math

import numpy as np

from .errors import HorizonTooLarge, InvalidConfig, UnnormalizedMass, _as_int
from .leakage import LeakageResult
from .policy import Policy

MAX_HORIZON = 14

_NORM_TOL = 1e-9

#: Rows a block may hold before it is halved by input prefix.  At n = 14 the
#: traced peaks are 5.6 MB for RAD geometric(0.5) and 4.5 MB for FCFS
#: greedy(0.3); larger budgets were no faster and held more.
_ROW_BUDGET = 4096

#: A server state packs two fields of _FIELD_BITS bits (values up to n + 1).
_FIELD_BITS = 5
_FIELD = (1 << _FIELD_BITS) - 1
_STATE_BITS = 2 * _FIELD_BITS
_STATE = (1 << _STATE_BITS) - 1

_log = logging.getLogger(__name__)


def _coupled_step(policy: Policy, n):
    """Slot step of an LCFS/FCFS server; state = pending departure | queue << 5.

    An LCFS arrival replaces any in-service update and redraws its service,
    an FCFS arrival queues (the queue counts arrivals minus departures).  A
    service started in slot t with draw s departs in slot t + s - 1; every
    slot past n is one "never", n + 1.  Same-slot preemption beats the
    would-be departure.
    """
    lcfs, pmf = policy.kind == "lcfs", policy.pmf
    never = n + 1
    arrival = 1 << (_STATE_BITS + n)  # the input bit of the slot
    draws = []  # per start slot t: departure slots and their weights
    for t in range(1, n + 1):
        due = [(t + s - 1, g) for s in range(1, n - t + 2) if (g := pmf.prob(s)) > 0.0]
        if pmf.d_max > n - t + 1:  # some draw departs past the horizon
            due.append((never, pmf.tail(n - t + 1)))
        draws.append(tuple(map(np.array, zip(*due))))

    def step(t, key, p):
        # each row's two children, by the slot's input bit: the rows that
        # start no service, first those of bit 0 and then of bit 1, then
        # every draw of the rows that start one, in the same order
        if lcfs:  # an arrival starts a service; without one nothing starts
            stay_key, stay_p, go_key, go_p = key, p, key | arrival, p
        else:  # an arrival joins the queue; an idle server starts a queued update
            queued = key + (arrival | (1 << _FIELD_BITS))
            idle = (key & _FIELD) == 0
            start = idle & ((key & (_FIELD << _FIELD_BITS)) > 0)
            stay_key = np.concatenate((key[~start], queued[~idle]))
            stay_p = np.concatenate((p[~start], p[~idle]))
            go_key = np.concatenate((key[start], queued[idle]))
            go_p = np.concatenate((p[start], p[idle]))
        deps, weights = draws[t - 1]
        key = np.concatenate((stay_key, np.tile(go_key & ~_FIELD, len(deps)) | np.repeat(deps, len(go_key))))
        p = np.concatenate((stay_p, np.tile(go_p, len(deps)) * np.repeat(weights, len(go_key))))
        pend = key & _FIELD
        # a departure sets the slot's output bit and frees the server
        done = (1 << (_STATE_BITS + n - t)) - t
        if lcfs:
            return key + (pend == t) * done, p
        key += (pend == t) * (done - (1 << _FIELD_BITS))
        key[pend == never] &= ~(_FIELD << _FIELD_BITS)
        return key, p

    return step


def _rad_step(policy: Policy, n):
    """Slot step of a dump timer; state = slots since the last attempt | full << 5.

    At timer age r the attempt hazard is g(r+1) / P(D > r); an attempt sends
    the buffer if it is full and empties it.  Age 0 divides by the nominal
    P(D > 0) = 1, so a pmf whose mass is not 1 shows in the row sums.  Two
    ages whose hazards agree over every remaining slot are one state.
    """
    pmf = policy.pmf
    arrival = 1 << (_STATE_BITS + n)  # the input bit of the slot
    tails = [pmf.tail(r) for r in range(n + 1)]
    hazard, survive = np.ones(n + 1), np.zeros(n + 1)
    for r in range(n):
        if tails[r] > 0.0:
            scale = tails[r] if r else 1.0
            hazard[r], survive[r] = pmf.prob(r + 1) / scale, tails[r + 1] / scale
    pairs = list(zip(hazard[:n], survive[:n]))
    canon = []  # canon[m][r]: least age with r's hazards over m remaining slots
    for m in range(n + 1):
        first = {}
        canon.append(np.array([first.setdefault(tuple(pairs[r : r + m]), r) for r in range(n + 2)]))

    def step(t, key, p):
        # each row's two children, by the slot's input bit: the attempts of
        # bit 0 and then of bit 1, then the waits of bit 0 and of bit 1
        age = key & _FIELD
        full = (key >> _FIELD_BITS) & 1  # an arrival fills the buffer
        key &= ~_STATE
        sent, aged = _STATE_BITS + n - t, canon[n - t][age + 1]
        key = np.concatenate((key | (full << sent), key | (arrival | (1 << sent)),
                              key | aged | (full << _FIELD_BITS), key | (arrival | (1 << _FIELD_BITS)) | aged))
        attempt, wait = p * hazard[age], p * survive[age]
        p = np.concatenate((attempt, attempt, wait, wait))
        live = p > 0.0
        if live.all():
            return key, p
        return key[live], p[live]

    return step


def _run_sums(keys, weights):
    """The first row of each run of equal sorted ``keys``, as a mask, and
    each run's sum of ``weights``, added in row order."""
    new = np.empty(len(keys), bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    run = new.astype(np.intp)
    np.cumsum(run, out=run)
    return new, np.bincount(run, weights=weights)[1:]


def _walk(policy: Policy, n):
    """Yield (t, x, y, P(y | x)) at every depth t = 1..n (t = 0 alone when n = 0),
    one block of inputs at a time, for all 2^n inputs.

    x and y are t-bit prefixes, slot 1 in the most significant bit.  Each
    input's row at depth n is checked to sum to 1 within :data:`_NORM_TOL`
    before it is yielded.
    """
    step = (_coupled_step if policy.coupled else _rad_step)(policy, n)
    high = _STATE_BITS + n  # a row is one key: input prefix | n-bit output | state
    expanded = peak = blocks = 0

    def advance(table, t):
        """The table at depth t, sorted by key, and its channel."""
        nonlocal expanded, peak
        key, p = table
        key = key + (key >> high << high)  # the input prefix moves up a slot
        key, p = step(t, key, p)  # with each row's two children, by the slot's input bit
        if t == n:  # the final state is not part of the output
            key &= ~_STATE
        # a stable sort keeps equal keys in row order, so each merged row sums
        # in that order
        order = np.argsort(key, kind="stable")
        key = key[order]
        new, p = _run_sums(key, p[order])
        key = key[new]
        expanded, peak = expanded + len(new), max(peak, len(key))
        xy, sums = key >> _STATE_BITS, p
        if t < n:  # each (x, y) is one run of states; its sum is P(y | x)
            new, sums = _run_sums(xy, p)
            xy = xy[new]
        return (key, p), (xy >> n, (xy & ((1 << n) - 1)) >> (n - t), sums)

    def finish(table, t, first, size):
        """Advance one block, the inputs first .. first + size - 1 at depth t, to
        depth n; a block over the row budget is halved by input prefix first."""
        nonlocal blocks
        channel = table[0], table[0], table[1]  # read as is only at n = 0: the empty prefixes
        while t < n:
            if len(table[0]) > _ROW_BUDGET and size >> (n - t) > 1:
                half = size >> 1  # rows are sorted by input prefix
                cut = np.searchsorted(table[0], (first + half) >> (n - t) << high)
                yield from finish(tuple(a[:cut] for a in table), t, first, half)
                yield from finish(tuple(a[cut:] for a in table), t, first + half, half)
                return
            t += 1
            table, channel = advance(table, t)
            if t < n:
                yield (t, *channel)
        x, y, p = channel
        sums = np.bincount(x - first, weights=p, minlength=size)
        worst = int(np.argmax(np.abs(sums - 1.0)))
        if not abs(sums[worst] - 1.0) <= _NORM_TOL:  # also NaN
            raise UnnormalizedMass(f"row of input {first + worst:0{n}b} sums to {sums[worst]!r}, not 1")
        blocks += 1
        yield n, x, y, p

    yield from finish((np.zeros(1, np.int64), np.ones(1)), 0, 0, 1 << n)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("oracle %s n=%d: %d inputs, %d states expanded, peak %d live, %d blocks",
                   policy.kind, n, 1 << n, expanded, peak, blocks)


def _maxl_series(policy: Policy, n):
    """Maximal leakage in bits at every horizon 0..n, from one walk to n.

    Per depth t and t-slot output y it keeps max_x P(y | x); the server is
    causal, so the depth-t channel of the walk is the horizon-t channel.
    Thinned FCFS and horizons past :data:`MAX_HORIZON` are refused.
    """
    if policy.kind == "fcfs" and policy.alpha != 1.0:
        raise InvalidConfig("oracle enumerates unthinned FCFS only")
    n = _as_int(n, "horizon", InvalidConfig)
    if n > MAX_HORIZON:
        raise HorizonTooLarge(f"horizon {n} exceeds enumeration cap {MAX_HORIZON}")
    best = [np.zeros(1 << t) for t in range(n + 1)]
    best[0][0] = 1.0  # the empty output, certain
    for t, _, y, p in _walk(policy, n):
        np.maximum.at(best[t], y, p)
    return [math.log2(math.fsum(b[b > 0])) for b in best]


def brute_force_maxl(policy: Policy, n) -> LeakageResult:
    """Maximal leakage by direct evaluation of its definition.

    log2 of the sum, over achievable outputs, of the best conditional
    probability any of the 2^n inputs assigns that output.
    """
    return LeakageResult(_maxl_series(policy, n)[-1], int(n))
