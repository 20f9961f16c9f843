"""Brute-force ground truth for maximal leakage at small horizons.

The channel from arrival sequences to output sequences is expanded exactly,
so the conditional output distribution is computed in full rather than
sampled.  (Maximal leakage takes a max over inputs, which no unbiased
Monte Carlo estimate survives.)

Slot semantics follow the system model: within a slot, an arrival is stored
first, then the server acts, then a transmission (if any) sets that slot's
output bit.  Sequences are keyed as n-bit machine words with slot 1 in the
most significant bit.

Every server is one clock and a count of the updates it holds (:func:`_step`):
a dump timer always runs, a service clock runs while an update is held and
LCFS restarts it on an arrival, and a fire sends an update iff one is held.

A walk advances a table of numpy rows, each one int64 key (input prefix,
output prefix, server state) and a probability, one slot at a time,
doubling the prefixes by the next arrival bit, branching each row on
whether the clock fires and merging equal keys, so each state is computed
once for every input that shares its prefix.

The server is causal and Markov in its packed state, so for a split depth
k and any t > k, with x = (x_pre, x_suf) and y = (y_pre, y_suf) cut at k,

    P(y | x) = sum_s P(y_pre, state s at k | x_pre) P(y_suf | s, x_suf).

:func:`_maxl_series` splits at k = n // 2 (meet in the middle, Horowitz and
Sahni, J. ACM 1974): one walk of all 2^k input prefixes to depth k, and one
walk of all 2^(n - k) input suffixes from each of the S states reached
there, at the same absolute slots.  Each half holds at most 2^7 inputs at
n <= 14.  At every t > k the halves are joined: the sum over s is one
matrix product of the prefix table's (x_pre, y_pre) columns of S weights,
in blocks of fixed size, with the suffix table of S rows; the max over
x_suf is taken per y_suf and the max over x_pre per y_pre.  Columns that
repeat under one output reach equal maxima, so each half keeps one of
each.  Every input's mass, one more such product of its two halves'
masses, is checked to be 1 within :data:`_NORM_TOL`.

At depth t the prefix table, once its server states are summed out, is the
horizon-t channel, and so is the join at t > k: one split walk to n yields
the maximal leakage at every horizon 0..n.  Only the lumping of what happens
past the horizon (clock ages whose hazards agree over the slots left)
depends on n, so an entry differs from a walk to that horizon by
rounding alone.  Maximal leakage needs max_x P(y | x) for every output y
and nothing more, which is all the series keeps.
"""

import itertools
import logging
import math

import numpy as np

from .errors import HorizonTooLarge, InvalidConfig, UnnormalizedMass, _as_int
from .leakage import LeakageResult
from .policy import Policy

MAX_HORIZON = 14

_NORM_TOL = 1e-9

#: Cells of one block of the join; each block holds two arrays of this many floats.
_JOIN_CELLS = 1 << 15

#: A server state packs two fields of _FIELD_BITS bits (values up to n + 1).
_FIELD_BITS = 5
_FIELD = (1 << _FIELD_BITS) - 1
_STATE_BITS = 2 * _FIELD_BITS
_STATE = (1 << _STATE_BITS) - 1

_log = logging.getLogger(__name__)


def _step(policy: Policy, n):
    """Slot step of any server; state = clock age r | updates held h << 5.

    An arrival raises h, to at most 1 for LCFS and RAD, and an LCFS arrival
    resets r: it replaces any update in service and restarts its clock.  A
    dump timer always runs; a service clock runs while an update is held.
    At age r the clock fires with hazard g(r+1) / P(D > r), sends an update
    iff one is held, then drops one and restarts at age 0; otherwise it ages.
    Age 0 divides by the nominal P(D > 0) = 1, so a pmf whose mass is not 1
    shows in the row sums.  Two ages whose hazards agree over every
    remaining slot are one state, so a memoryless clock stays at age 0.
    """
    kind, pmf = policy.kind, policy.pmf
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
    # the rules, applied once to every packed state; each row looks its state up
    state = np.arange((n + 1) << _FIELD_BITS)  # h <= n
    age, held = np.minimum(state & _FIELD, n), state >> _FIELD_BITS
    run = (held > 0) | (kind == "rad")
    fire, wait = np.where(run, hazard[age], 0.0), np.where(run, survive[age], 1.0)
    raised = np.minimum(held + 1, n if kind == "fcfs" else 1) << _FIELD_BITS
    arrived = raised if kind == "lcfs" else age | raised
    sent = np.minimum(held, 1)
    # per slot t: the state after a fire, with the slot's output bit, and after a wait
    fired = [(held - sent) << _FIELD_BITS | sent << (_STATE_BITS + n - t) for t in range(n + 1)]
    aged = [np.where(run, canon[n - t][age + 1] | held << _FIELD_BITS, state) for t in range(n + 1)]

    def step(t, key, p):
        # each row's two children, by the slot's input bit: the fires of
        # bit 0 and then of bit 1, then the waits of bit 0 and of bit 1
        s = key & _STATE
        key &= ~_STATE
        s1, key1 = arrived[s], key | arrival
        key = np.concatenate((key | fired[t][s], key1 | fired[t][s1], key | aged[t][s], key1 | aged[t][s1]))
        p = np.concatenate((p * fire[s], p * fire[s1], p * wait[s], p * wait[s1]))
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


def _distinct(labels, table):
    """The distinct (label, column of ``table``) pairs, sorted by label, as
    labels and a table of those columns.

    Equal columns under one label reach equal maxima in the join, so it
    needs only one of each.
    """
    order = np.lexsort((*table, labels))
    new = _starts(labels[order])
    for row in table:
        row = row[order]
        new[1:] |= row[1:] != row[:-1]
    order = order[new]
    return labels[order], table[:, order]


def _starts(labels):
    """Whether each of the sorted ``labels`` starts a run of equal ones."""
    return np.concatenate(([True], labels[1:] != labels[:-1]))


def _walk(step, n, table, t):
    """Yield (t, table, (x, y, P(y | x))) at each depth t + 1 .. n of the walk
    from ``table``, rows (key, p) at depth t with no input bits yet.

    The table at each depth is sorted by key with equal keys merged.  x and y
    are the input bits walked from the start and the output prefix, slot 1
    in the most significant bit of y.
    """
    high = _STATE_BITS + n  # a row is one key: input prefix | n-bit output | state
    key, p = table
    while t < n:
        t += 1
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
        xy, sums = key >> _STATE_BITS, p
        if t < n:  # each (x, y) is one run of states; its sum is P(y | x)
            new, sums = _run_sums(xy, p)
            xy = xy[new]
        yield t, (key, p), (xy >> n, (xy & ((1 << n) - 1)) >> (n - t), sums)


def _maxl_series(policy: Policy, n):
    """Maximal leakage in bits at every horizon 0..n, from one walk to n
    split at k = n // 2 and joined through the server state at k.

    Per depth t and t-slot output y it keeps max_x P(y | x); the server is
    causal, so the depth-t channel of the walk is the horizon-t channel.
    Thinned FCFS and horizons past :data:`MAX_HORIZON` are refused.
    """
    if policy.kind == "fcfs" and policy.alpha != 1.0:
        raise InvalidConfig("oracle enumerates unthinned FCFS only")
    n = _as_int(n, "horizon", InvalidConfig)
    if n > MAX_HORIZON:
        raise HorizonTooLarge(f"horizon {n} exceeds enumeration cap {MAX_HORIZON}")
    if n == 0:
        return [0.0]
    step = _step(policy, n)
    best = [np.zeros(1 << t) for t in range(n + 1)]
    best[0][0] = 1.0  # the empty output, certain
    k, rows = n // 2, [0, 0]
    table = np.zeros(1, np.int64), np.ones(1)  # the empty prefixes
    for t, table, (_, y, p) in itertools.islice(_walk(step, n, table, 0), k):
        np.maximum.at(best[t], y, p)
        rows[0] += len(table[1])
    # the prefix half: a(s; x, y) = P(y, state s at k | x), a column of states
    # per (x, y), and P(state s at k | x) for the mass check
    key, p = table
    states, s = np.unique(key & _STATE, return_inverse=True)
    new, _ = _run_sums(key >> _STATE_BITS, p)
    a = np.zeros((len(states), np.count_nonzero(new)))
    a[s, np.cumsum(new) - 1] = p
    y_pre, a = _distinct((key[new] >> _STATE_BITS & ((1 << n) - 1)) >> (n - k), a)
    pre_mass = np.zeros((len(states), 1 << k))
    np.add.at(pre_mass, (s, key >> (_STATE_BITS + n)), p)
    # the suffix half: b(s; x', y') = P(y' | x', state s at k) from a walk of
    # each state, one table per depth t > k with a column per y' << m | x'
    b = [np.zeros((len(states), 1 << 2 * m)) for m in range(n - k + 1)]
    for i, state in enumerate(states.tolist()):
        for t, suffix, (x, y, p) in _walk(step, n, (np.array([state]), np.ones(1)), k):
            b[t - k][i, y << (t - k) | x] = p
            rows[1] += len(suffix[1])
    # every input's mass, the sum over s of P(state s at k | x) P(any y' | x', s)
    suf_mass = b[-1].reshape(len(states), 1 << (n - k), -1).sum(axis=1)
    mass = np.einsum("si,sj->ij", pre_mass, suf_mass)
    worst = int(np.argmax(np.abs(mass - 1.0)))
    if not abs(mass.flat[worst] - 1.0) <= _NORM_TOL:  # also NaN
        raise UnnormalizedMass(f"row of input {worst:0{n}b} sums to {mass.flat[worst]!r}, not 1")
    # the join at each t > k: max over x, x' of the sum over s of a b, per (y, y')
    joined = chunks = 0
    for m in range(1, n - k + 1):
        y_suf, b_m = _distinct(np.arange(1 << 2 * m) >> m, b[m])  # every y' has columns
        suf_first = np.flatnonzero(_starts(y_suf))
        out = best[k + m].reshape(1 << k, 1 << m)
        size = max(1, _JOIN_CELLS // len(y_suf))
        for lo in range(0, len(y_pre), size):
            v = np.einsum("si,sj->ij", a[:, lo : lo + size], b_m)  # in state order; BLAS would keep buffers resident
            joined, chunks = joined + v.size, chunks + 1
            v = np.maximum.reduceat(v, suf_first, axis=1)  # the max over x' per y'
            runs = np.flatnonzero(_starts(y_pre[lo : lo + size]))
            at = y_pre[lo + runs]
            out[at] = np.maximum(out[at], np.maximum.reduceat(v, runs, axis=0))  # and over x per y
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("oracle %s n=%d: %d inputs, split at %d with %d states, %d + %d rows expanded, "
                   "%d entries joined in %d chunks", policy.kind, n, 1 << n, k, len(states), *rows, joined, chunks)
    return [math.log2(math.fsum(b[b > 0])) for b in best]


def brute_force_maxl(policy: Policy, n) -> LeakageResult:
    """Maximal leakage by direct evaluation of its definition.

    log2 of the sum, over achievable outputs, of the best conditional
    probability any of the 2^n inputs assigns that output.
    """
    return LeakageResult(_maxl_series(policy, n)[-1], int(n))
