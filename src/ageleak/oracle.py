"""Brute-force ground truth for maximal leakage at small horizons.

The channel from arrival sequences to output sequences is expanded exactly:
per input, every service-time or inter-dump draw is branched with its pmf
weight, so the conditional output distribution is computed in full rather
than sampled.  (Maximal leakage takes a max over inputs, which no unbiased
Monte Carlo estimate survives.)

Slot semantics follow the system model: within a slot, an arrival is stored
first, then the server acts, then a transmission (if any) sets that slot's
output bit.  Sequences are keyed as n-bit machine words with slot 1 in the
most significant bit; the hard cap n <= 14 keeps the worst case (2^14
inputs, each against the full draw tree) tractable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooLarge, InvalidConfig
from .leakage import LeakageResult
from .policy import Policy

MAX_HORIZON = 14
MAX_ML_HORIZON = 12

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ChannelTable:
    """Per-output maximum-likelihood probabilities max_x P(y | x).

    ``max_likelihood`` maps each achievable n-bit output word to the largest
    conditional probability any input assigns it.
    """

    n: int
    max_likelihood: dict


def _check_policy(policy: Policy):
    if policy.kind == "fcfs" and policy.alpha != 1.0:
        raise InvalidConfig("oracle enumerates unthinned FCFS only")


def _coupled_row(kind, entries, n, x):
    """Exact output distribution of an LCFS/FCFS server for one input word.

    States are (pending departure slot, output-so-far); an LCFS arrival
    replaces any in-service update and redraws its service, an FCFS arrival
    queues.  A service started in slot t with draw s departs in slot
    t + s - 1; same-slot preemption beats the would-be departure.
    """
    lcfs = kind == "lcfs"
    states = {(0, 0): 1.0}
    for t in range(1, n + 1):
        arrived = (x >> (n - t)) & 1
        bit = 1 << (n - t)
        arrived_count = (x >> (n - t)).bit_count()
        nxt = {}
        for (pend, yb), pr in states.items():
            if lcfs:
                start = arrived
            else:
                # FCFS queue length is implied by the trajectory: arrivals
                # so far minus departures so far minus the one in service.
                start = pend == 0 and arrived_count - yb.bit_count() > 0
            if start:
                for s, gp in entries:
                    dep = t + s - 1
                    key = (0, yb | bit) if dep == t else (dep, yb)
                    nxt[key] = nxt.get(key, 0.0) + pr * gp
                continue
            if pend == t:
                key = (0, yb | bit)
            else:
                key = (pend, yb)
            nxt[key] = nxt.get(key, 0.0) + pr
        states = nxt
    row = {}
    for (_, yb), pr in states.items():
        row[yb] = row.get(yb, 0.0) + pr
    return row


def _attempt_sequences(pmf, n):
    """All dump-attempt slot sequences within n slots, with probabilities.

    A sequence t_1 < ... < t_k has probability g(t_1) g(t_2 - t_1) ...
    g(t_k - t_{k-1}) * P(D > n - t_k); the censoring tail on the last gap is
    what makes the sequence probabilities sum to one.
    """
    entries = pmf.entries
    tails = [pmf.tail(r) for r in range(n + 1)]
    seqs = []

    def rec(last, slots, prob):
        censor = tails[n - last]
        if censor > 0.0:
            seqs.append((tuple(slots), prob * censor))
        for d, p in entries:
            t = last + d
            if t > n:
                break
            slots.append(t)
            rec(t, slots, prob * p)
            slots.pop()

    rec(0, [], 1.0)
    return seqs


def _rad_arrays(pmf, n):
    """Pad attempt sequences into (window masks, output bits, probs) arrays."""
    seqs = _attempt_sequences(pmf, n)
    width = max((len(s) for s, _ in seqs), default=0)
    width = max(width, 1)
    masks = np.zeros((len(seqs), width), dtype=np.int64)
    bits = np.zeros((len(seqs), width), dtype=np.int64)
    probs = np.empty(len(seqs))
    for ui, (slots, p) in enumerate(seqs):
        probs[ui] = p
        prev = 0
        for ji, t in enumerate(slots):
            window = 0
            for i in range(prev + 1, t + 1):
                window |= 1 << (n - i)
            masks[ui, ji] = window
            bits[ui, ji] = 1 << (n - t)
            prev = t
    return masks, bits, probs


def _rad_row(masks, bits, probs, n, x):
    """Output distribution of a RAD server for one input word, as a vector.

    An attempt at slot t transmits iff some arrival fell in the window since
    the previous attempt; output bits across one attempt sequence are
    disjoint, so a sum over windows assembles the output word.
    """
    occupied = (x & masks) != 0
    ys = np.where(occupied, bits, 0).sum(axis=1)
    return np.bincount(ys, weights=probs, minlength=1 << n)


def _check_horizon(n, cap):
    if n > cap:
        raise HorizonTooLarge(f"horizon {n} exceeds enumeration cap {cap}")
    if n < 0:
        raise InvalidConfig(f"horizon {n} is negative")


def enumerate_channel(policy: Policy, x_seq):
    """Exact distribution over output sequences for one input sequence.

    ``x_seq`` is an iterable of n bits (n <= 14); returns a dict mapping
    output bit-tuples to probabilities, positive entries only.
    """
    _check_policy(policy)
    xs = [int(b) for b in x_seq]
    n = len(xs)
    _check_horizon(n, MAX_HORIZON)
    if any(b not in (0, 1) for b in xs):
        raise InvalidConfig("input sequence must be binary")
    x = 0
    for b in xs:
        x = (x << 1) | b
    if policy.coupled:
        row = _coupled_row(policy.kind, policy.pmf.entries, n, x)
    else:
        masks, bits, probs = _rad_arrays(policy.pmf, n)
        vec = _rad_row(masks, bits, probs, n, x)
        row = {int(y): float(p) for y, p in enumerate(vec) if p > 0.0}
    assert abs(math.fsum(row.values()) - 1.0) <= _NORM_TOL
    return {
        tuple((y >> (n - t)) & 1 for t in range(1, n + 1)): p
        for y, p in row.items()
        if p > 0.0
    }


def channel_table(policy: Policy, n) -> ChannelTable:
    """Max-likelihood table over all 2^n inputs."""
    _check_policy(policy)
    n = int(n)
    _check_horizon(n, MAX_HORIZON)
    if n == 0:
        return ChannelTable(0, {0: 1.0})
    best = {}
    if policy.coupled:
        entries = policy.pmf.entries
        for x in range(1 << n):
            row = _coupled_row(policy.kind, entries, n, x)
            assert abs(math.fsum(row.values()) - 1.0) <= _NORM_TOL
            for y, p in row.items():
                if p > best.get(y, 0.0):
                    best[y] = p
    else:
        masks, bits, probs = _rad_arrays(policy.pmf, n)
        vec_best = np.zeros(1 << n)
        for x in range(1 << n):
            row = _rad_row(masks, bits, probs, n, x)
            assert abs(row.sum() - 1.0) <= _NORM_TOL
            np.maximum(vec_best, row, out=vec_best)
        best = {int(y): float(p) for y, p in enumerate(vec_best) if p > 0.0}
    return ChannelTable(n, best)


def brute_force_maxl(policy: Policy, n) -> LeakageResult:
    """Maximal leakage by direct evaluation of its definition.

    log2 of the sum, over achievable outputs, of the best conditional
    probability any of the 2^n inputs assigns that output.
    """
    table = channel_table(policy, n)
    return LeakageResult(math.log2(math.fsum(table.max_likelihood.values())), int(n))


def verify_ml_input(policy: Policy, n) -> bool:
    """Check the designated maximum-likelihood inputs against enumeration.

    Coupled policies: the time-shifted input (arrivals s_min - 1 slots ahead
    of each departure) must attain the per-output maximum.  RAD policies:
    the input equal to the output must.  True iff the designated input's
    probability matches the enumerated maximum to 1e-12 for every achievable
    output.
    """
    _check_policy(policy)
    n = int(n)
    _check_horizon(n, MAX_ML_HORIZON)
    if n == 0:
        return True
    best = {}
    designated = {}
    if policy.coupled:
        shift = policy.pmf.s_min - 1
        entries = policy.pmf.entries
        low_mask = (1 << shift) - 1
        for x in range(1 << n):
            row = _coupled_row(policy.kind, entries, n, x)
            for y, p in row.items():
                if p > best.get(y, 0.0):
                    best[y] = p
            if x & low_mask == 0:
                y = x >> shift
                designated[y] = row.get(y, 0.0)
    else:
        masks, bits, probs = _rad_arrays(policy.pmf, n)
        vec_best = np.zeros(1 << n)
        diag = np.zeros(1 << n)
        for x in range(1 << n):
            row = _rad_row(masks, bits, probs, n, x)
            diag[x] = row[x]
            np.maximum(vec_best, row, out=vec_best)
        best = {y: p for y, p in enumerate(vec_best) if p > 0.0}
        designated = {y: diag[y] for y in best}
    return all(abs(designated.get(y, 0.0) - p) <= 1e-12 for y, p in best.items())
