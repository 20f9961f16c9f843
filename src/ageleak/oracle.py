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

All inputs walk their prefix trie together: a table of numpy rows (input
prefix, server state, output prefix, probability) advances one slot at a
time, doubling the prefixes by the next arrival bit, branching the draws
and merging equal rows, so each state is computed once for every input
that shares its prefix.  Past depth n - _BLOCK_BITS each prefix's subtree
is finished on its own, which bounds live memory.
"""

import logging
import math

import numpy as np

from .errors import HorizonTooLarge, InvalidConfig, UnnormalizedMass, _as_int
from .leakage import LeakageResult
from .policy import Policy

MAX_HORIZON = 14
MAX_ML_HORIZON = 12

_NORM_TOL = 1e-9

#: Each block finishes 2^_BLOCK_BITS inputs; at n = 14 this keeps the traced
#: peak of FCFS greedy(0.3), the largest case, below 100 MB.
_BLOCK_BITS = 6

#: A server state packs two fields of _FIELD_BITS bits (values up to n + 1).
_FIELD_BITS = 5
_FIELD = (1 << _FIELD_BITS) - 1

_log = logging.getLogger(__name__)


def _check(policy: Policy, n, cap):
    """The horizon as an int, after refusing thinned FCFS and bad horizons."""
    if policy.kind == "fcfs" and policy.alpha != 1.0:
        raise InvalidConfig("oracle enumerates unthinned FCFS only")
    n = _as_int(n, "horizon", InvalidConfig)
    if n > cap:
        raise HorizonTooLarge(f"horizon {n} exceeds enumeration cap {cap}")
    return n


def _coupled_step(policy: Policy, n):
    """Slot step of an LCFS/FCFS server; state = pending departure | queue << 5.

    An LCFS arrival replaces any in-service update and redraws its service,
    an FCFS arrival queues (the queue counts arrivals minus departures).  A
    service started in slot t with draw s departs in slot t + s - 1; every
    slot past n is one "never", n + 1.  Same-slot preemption beats the
    would-be departure.
    """
    lcfs = policy.kind == "lcfs"
    never = n + 1
    draws = []  # per start slot t: departure slots and their weights
    for t in range(1, n + 1):
        due = [(t + s - 1, g) for s, g in policy.pmf.entries if t + s - 1 <= n]
        if policy.pmf.d_max > n - t + 1:  # some draw departs past the horizon
            due.append((never, policy.pmf.tail(n - t + 1)))
        draws.append(tuple(map(np.array, zip(*due))))

    def step(t, x, state, y, p):
        pend, queue = state & _FIELD, state >> _FIELD_BITS
        if lcfs:
            start = (x & 1) == 1
        else:
            queue = queue + (x & 1)
            start = (pend == 0) & (queue > 0)
        deps, weights = draws[t - 1]
        go, stay = np.flatnonzero(start), np.flatnonzero(~start)

        def spread(a):
            return np.concatenate((a[stay], np.tile(a[go], len(deps))))

        x, y = spread(x), spread(y)
        pend = np.concatenate((pend[stay], np.repeat(deps, len(go))))
        p = np.concatenate((p[stay], np.tile(p[go], len(deps)) * np.repeat(weights, len(go))))
        out = pend == t
        y |= out.astype(np.int64) << (n - t)
        pend[out] = 0
        if lcfs:
            return x, pend, y, p
        queue = spread(queue) - out
        queue[pend == never] = 0
        return x, pend | (queue << _FIELD_BITS), y, p

    return step


def _rad_step(policy: Policy, n):
    """Slot step of a dump timer; state = slots since the last attempt | full << 5.

    At timer age r the attempt hazard is g(r+1) / P(D > r); an attempt sends
    the buffer if it is full and empties it.  Age 0 divides by the nominal
    P(D > 0) = 1, so a pmf whose mass is not 1 shows in the row sums.  Two
    ages whose hazards agree over every remaining slot are one state.
    """
    pmf = policy.pmf
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

    def step(t, x, state, y, p):
        age = state & _FIELD
        full = (state >> _FIELD_BITS) | (x & 1)
        x = np.concatenate((x, x))
        y = np.concatenate((y | (full << (n - t)), y))
        p = np.concatenate((p * hazard[age], p * survive[age]))
        state = np.concatenate((np.zeros_like(age), canon[n - t][age + 1] | (full << _FIELD_BITS)))
        live = p > 0.0
        if live.all():
            return x, state, y, p
        return x[live], state[live], y[live], p[live]

    return step


def _blocks(policy: Policy, n, word=None):
    """Yield (x, y, P(y | x)) arrays, one block of inputs at a time.

    With ``word``, only that n-bit input is followed.  Each input's row is
    checked to sum to 1 within :data:`_NORM_TOL`.
    """
    step = (_coupled_step if policy.coupled else _rad_step)(policy, n)
    state_bits, expanded, peak = 2 * _FIELD_BITS, 0, 0

    def advance(table, t):
        nonlocal expanded, peak
        x, state, y, p = table
        x = x << 1
        if word is None:
            x = np.concatenate((x, x | 1))
            state, y, p = np.tile(state, 2), np.tile(y, 2), np.tile(p, 2)
        else:
            x |= (word >> (n - t)) & 1
        x, state, y, p = step(t, x, state, y, p)
        if t == n:  # the final state is not part of the output
            state = np.zeros_like(state)
        # a stable sort keeps equal keys in row order, so each merged row sums
        # in that order; after a doubling the table is two presorted halves
        keys = (((x << state_bits) | state) << n) | y
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = np.concatenate(([True], keys[1:] != keys[:-1]))
        keys = keys[new]
        expanded, peak = expanded + len(p), max(peak, len(keys))
        return (keys >> (state_bits + n), (keys >> n) & ((1 << state_bits) - 1),
                keys & ((1 << n) - 1), np.bincount(np.cumsum(new) - 1, weights=p[order]))

    shared = n if word is not None else max(n - _BLOCK_BITS, 0)
    table = (np.zeros(1, np.int64),) * 3 + (np.ones(1),)
    for t in range(1, shared + 1):
        table = advance(table, t)
    size = 1 << (n - shared)  # inputs per block
    cuts = np.flatnonzero(np.diff(table[0])) + 1  # rows are sorted by prefix
    for block in zip(*(np.split(a, cuts) for a in table)):
        first = int(block[0][0]) << (n - shared)
        for t in range(shared + 1, n + 1):
            block = advance(block, t)
        x, _, y, p = block
        sums = np.bincount(x - first, weights=p, minlength=size)
        worst = int(np.argmax(np.abs(sums - 1.0)))
        if not abs(sums[worst] - 1.0) <= _NORM_TOL:  # also NaN
            raise UnnormalizedMass(f"row of input {first + worst:0{n}b} sums to {sums[worst]!r}, not 1")
        yield x, y, p
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("oracle %s n=%d: %d inputs, %d states expanded, peak %d live, %d blocks",
                   policy.kind, n, size * (len(cuts) + 1), expanded, peak, len(cuts) + 1)


def enumerate_channel(policy: Policy, x_seq):
    """Exact distribution over output sequences for one input sequence.

    ``x_seq`` is an iterable of n bits (n <= 14); returns a dict mapping
    output bit-tuples to probabilities, positive entries only.
    """
    xs = list(x_seq)
    n = len(xs)
    _check(policy, n, MAX_HORIZON)
    if any(b not in (0, 1) for b in xs):
        raise InvalidConfig("input sequence must be binary")
    word = sum(int(b) << (n - t) for t, b in enumerate(xs, 1))
    ((_, ys, ps),) = _blocks(policy, n, word)
    return {tuple((y >> (n - t)) & 1 for t in range(1, n + 1)): p
            for y, p in zip(ys.tolist(), ps.tolist()) if p > 0.0}


def _scan(policy: Policy, n, cap):
    """Per output y: max_x P(y | x), and P(y | y << shift) of the designated input.

    The shift is s_min - 1 for coupled policies and 0 for RAD.
    """
    n = _check(policy, n, cap)
    shift = policy.pmf.s_min - 1 if policy.coupled else 0
    best, designated = np.zeros(1 << n), np.zeros(1 << n)
    for x, y, p in _blocks(policy, n):
        np.maximum.at(best, y, p)
        hit = (y << shift) == x
        designated[y[hit]] = p[hit]
    return best, designated


def brute_force_maxl(policy: Policy, n) -> LeakageResult:
    """Maximal leakage by direct evaluation of its definition.

    log2 of the sum, over achievable outputs, of the best conditional
    probability any of the 2^n inputs assigns that output.
    """
    best, _ = _scan(policy, n, MAX_HORIZON)
    return LeakageResult(math.log2(math.fsum(best[best > 0])), int(n))


def verify_ml_input(policy: Policy, n) -> bool:
    """Check the designated maximum-likelihood inputs against enumeration.

    Coupled policies: the time-shifted input (arrivals s_min - 1 slots ahead
    of each departure) must attain the per-output maximum.  RAD policies:
    the input equal to the output must.  True iff the designated input's
    probability matches the enumerated maximum to 1e-12 for every achievable
    output.
    """
    best, designated = _scan(policy, n, MAX_ML_HORIZON)
    return bool(np.all(np.abs(designated - best) <= 1e-12))
