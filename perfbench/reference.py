"""References that track how fast this machine runs right now.

On a shared host the same pass can take 20% longer for minutes at a time,
whatever the program does, and a single loop flips between a fast and a slow
mode from one millisecond to the next.  So every timed sample is taken
between two reference measurements of the same kind and scaled by
nominal / (their mean); it then reads as seconds on this machine at its
median speed, the slow drift cancels, and the median over many samples
absorbs the fast flips.

- Work inside one process is referenced by a burst of a fixed pure-Python
  loop (float recurrences, tuples, dict stores: the instruction mix of the
  library's kernels).
- A process start (set-up, a CLI call) is referenced by a process start
  that imports numpy, ``python3 -c "import numpy"``: loading files and
  mapping libraries drift apart from pure computation, and from a bare
  interpreter start too.  On two recordings of 4 and 5 minutes this
  reference held the 20-s medians of set-up and CLI-call times within a
  1.5-3.4% spread (raw: 8.5-12%; scaled by the loop: 5-11%; by a bare
  start: 3-8%).  numpy is installed apart from the repository, so the
  reference stays put whatever qosc imports.

Neither reference touches qosc, so a change to the program moves a scaled
time exactly as it moves the raw one.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# Medians on the machine where the bounds were set (a 4-minute recording);
# they only fix the unit.
NOMINAL_LOOP_S = 0.008
NOMINAL_LAUNCH_S = 0.150
BURST = 3  # loops per burst


def _loop() -> int:
    hits = 0
    table = {}
    for i in range(5500):
        x = i * 1e-3
        p0, p1 = 1.0, x - 0.5
        for k in range(10):
            p0, p1 = p1, (x - 0.1 * k) * p1 - 0.3 * p0
        table[i & 127] = (p0, p1)
        hits += abs(p1) > 1.0
    return hits + len(table)


def loop_seconds() -> float:
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def burst(count: int = BURST) -> list:
    return [loop_seconds() for _ in range(count)]


def launch() -> list:
    """[seconds] of one process start that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return [time.perf_counter() - t0]


def scaled(seconds: float, before: list, after: list, nominal: float = NOMINAL_LOOP_S) -> float:
    """``seconds`` at nominal speed, from the references on either side of it."""
    return seconds * nominal / statistics.fmean(before + after)
