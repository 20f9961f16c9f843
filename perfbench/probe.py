"""Speed probe: a fixed mix of plain-Python and numpy work.

Run as a script, it is the probe process: it never imports ageleak, so
nothing the package does can change its time, and for every line read from
standard input it does the work once and prints the seconds it took.
:class:`Probe` starts that process and asks it for one measurement at a time.
"""

import os
import subprocess
import sys
import time


class Probe:
    """The probe process, run on request; ``times`` keeps every result."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times = []

    def measure(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.times.append(float(self._proc.stdout.readline()))
        return self.times[-1]

    def close(self):
        self._proc.stdin.close()
        self._proc.wait(timeout=30)


def python_part():
    """Float recurrences and dict updates, like the leakage loops and the
    oracle."""
    window = [1.0] * 64
    table = {}
    for t in range(100_000):
        value = 0.5 * window[(t - 3) & 63] + 0.25 * window[(t - 7) & 63] + 1.0
        window[t & 63] = value if value < 1e6 else 1.0
        table[t & 4095] = table.get((t * 7) & 4095, 0.0) + value
    return len(table)


def numpy_part(np, rng):
    """Fresh 10^6-element arrays: random draws, cumulative sums, searches and
    masks, like the simulator."""
    draws = rng.random(1_000_000)
    slots = np.cumsum(draws < 0.5)
    idx = np.searchsorted(slots, np.arange(0, slots[-1], 3), side="left")
    return int(np.flatnonzero(np.diff(idx) > 3).size)


def main():
    import numpy as np

    rng = np.random.default_rng(12345)
    for _ in sys.stdin:
        start = time.perf_counter()
        python_part()
        numpy_part(np, rng)
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
