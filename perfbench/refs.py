"""Reference values computed apart from the package under test.

Nothing here imports ``ageleak``: each value comes from a closed form, an
exact integer or rational computation, or a recursion written out again, so
a fault in the package's leakage, age or simulation code cannot hide in the
expected value it is compared with.
"""

import math
from fractions import Fraction

_LN2 = math.log(2.0)


def log2_int(x):
    """log2 of a positive Python integer of any size, to double precision."""
    shift = max(x.bit_length() - 64, 0)
    return shift + math.log2(x >> shift)


def fibonacci_pair(n):
    """(F(n), F(n+1)) with F(0) = 0, F(1) = 1, by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = fibonacci_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


def spaced_word_bits(n):
    """log2 of the number of n-slot output words whose ones are at least two
    slots apart and start no earlier than slot 2: a(n) = a(n-1) + a(n-2),
    a(0) = a(1) = 1, which is the Fibonacci number F(n+1)."""
    return log2_int(fibonacci_pair(n + 1)[0])


def weighted_recurrence_bits(n, s1, beta):
    """log2 a(n) for a(n) = a(n-1) + beta a(n-s1), a(0..s1-1) = 1.

    Values are rescaled by 2^-512 whenever they pass 2^512 and the shed
    exponent is added back at the end.
    """
    window = [1.0] * s1
    shed = 0
    for t in range(s1, n + 1):
        value = window[(t - 1) % s1] + beta * window[t % s1]
        window[t % s1] = value
        if value > 2.0 ** 512:
            window = [w * 2.0 ** -512 for w in window]
            shed += 512
    return math.log2(window[n % s1]) + shed


def renewal_bits_exact(n, entries):
    """log2 m(n) of the dump renewal m(t) = 2 sum_d g(d) m(t-d) + P(D > t),
    m(0) = 1, in exact rational arithmetic.  ``entries`` holds
    (duration, Fraction probability) pairs."""
    m = [Fraction(1)]
    for t in range(1, n + 1):
        value = sum((2 * p * m[t - d] for d, p in entries if d <= t), Fraction(0))
        value += sum((p for d, p in entries if d > t), Fraction(0))
        m.append(value)
    top = m[n]
    return log2_int(top.numerator) - log2_int(top.denominator)


def bisect_root(f, lo, hi, steps=200):
    """Root of a decreasing function on [lo, hi], bisected to the last bit."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def uniform_dump_rate(k):
    """log2 z0 for uniform dumps on {1..k}: (1 - z^-k) / (k (z - 1)) = 1/2."""
    if k == 1:
        return 1.0
    z0 = bisect_root(lambda z: (1.0 - z ** -k) / (k * (z - 1.0)) - 0.5, 1.0 + 1e-15, 2.0)
    return math.log2(z0)


def dump_rate(entries):
    """log2 z0 with sum_d g(d) z0^-d = 1/2, bisected on w = ln z."""
    w = bisect_root(
        lambda w: math.fsum(p * math.exp(-d * w) for d, p in entries) - 0.5, 0.0, _LN2
    )
    return w / _LN2


def renewal_asymptote_bits(n, entries):
    """log2 of the leading term A z0^n of the dump renewal m(n).

    With x0 = 1/z0 the generating function of m has a simple pole at x0 and
    residue A = 1 / (4 (1 - x0) sum_d d g(d) x0^d); the other poles lie
    farther out, so their share vanishes geometrically in n.
    """
    rate = dump_rate(entries)
    x0 = 2.0 ** -rate
    slope = math.fsum(d * p * x0 ** d for d, p in entries)
    return -math.log2(4.0 * (1.0 - x0) * slope) + n * rate


def dither(rate):
    """Two-point dump schedule on i = floor(1/rate) and i + 1 whose rate is
    ``rate``: returns (i, p_i, mean period)."""
    inv = 1.0 / rate
    i = math.floor(inv)
    if inv - i <= 1e-9:
        return i, 1.0, float(i)
    z = 2.0 ** rate
    p_i = (0.5 - z ** -(i + 1)) / (z ** -i - z ** -(i + 1))
    return i, p_i, i * p_i + (i + 1) * (1.0 - p_i)


def dither_age(lam, rate):
    """1/lam + tau/2 + p_i p_j / (2 tau) + 1/2 at the dither's mean tau."""
    _, p_i, tau = dither(rate)
    return 1.0 / lam + tau / 2.0 + p_i * (1.0 - p_i) / (2.0 * tau) + 0.5


def greedy_entries(beta):
    """Mass beta on 1..k, k = floor(1/beta), the remainder on k + 1."""
    k = int(1.0 / beta + 1e-9)
    entries = [(s, beta) for s in range(1, k + 1)]
    if 1.0 - k * beta > 1e-12:
        entries.append((k + 1, 1.0 - k * beta))
    return entries


def lcfs_delivery_rate(lam, entries):
    """lam E[(1 - lam)^(S - 1)]: the rate at which preemptive LCFS delivers."""
    return lam * math.fsum(p * (1.0 - lam) ** (s - 1) for s, p in entries)


def lcfs_age(lam, entries):
    """1 + 1 / (lam E[(1 - lam)^(S - 1)])."""
    return 1.0 + 1.0 / lcfs_delivery_rate(lam, entries)


def markov_source_age(p01, p10):
    """1 + p10 / (p01 (p01 + p10)): age of the freshest update at the server."""
    return 1.0 + p10 / (p01 * (p01 + p10))


def within(measured, expected, ci):
    """True iff measured lies within max(3 CI, 2%) of expected."""
    return abs(measured - expected) <= max(3.0 * ci, 0.02 * abs(expected))


def rel_gap(measured, expected):
    return abs(measured - expected) / abs(expected)
