"""Host speed reference for the timed loop.

The benchmark runs on shared hosts whose speed drifts by up to 1.5x over
tens of seconds, and a call's CPU time drifts with its wall time, so
neither clock holds still on its own.  A fixed pure-Python routine that
never touches symcsp is timed right before every timed call.  Each call's
wall time is divided by the median routine time of the calls around it and
multiplied by REFERENCE_MS, the routine's time on the host the benchmark
was defined on (2 cores, Python 3.11), so a latency reads as milliseconds
on that host at its usual speed.  A change to ``src/`` cannot change the
routine.
"""

from __future__ import annotations

import statistics
import time

# median time of reference_work() on the defining host, rounded
REFERENCE_MS = 1.0
# a call is scaled by the median routine time of the calls within WINDOW of it
WINDOW = 8


def reference_work() -> int:
    """A fixed mix of what the solvers spend their time on: small-integer bit
    arithmetic, dict and set updates with tuple keys, sorting and calls."""
    table = {}
    seen = set()
    acc = 0
    for i in range(500):
        mask = (i * 40503) & 0x3FFF
        key = (mask & 0xFF, mask >> 8)
        table[key] = table.get(key, 0) + bin(mask).count("1")
        if mask & 3 == 0:
            seen.add(mask)
        acc ^= _fold(mask, i)
    return acc + len(sorted(table.items())) + len(seen)


def _fold(mask: int, i: int) -> int:
    return ((mask << (i & 7)) ^ (mask >> 3)) & 0xFFFF


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scaled_ms(sequence) -> dict:
    """{key: [latency in reference ms, one per call]} from the timed calls
    in run order, given as (key, wall_s, reference_s) triples."""
    refs = [r for _, _, r in sequence]
    out = {}
    for i, (key, wall, _) in enumerate(sequence):
        local = statistics.median(refs[max(0, i - WINDOW): i + WINDOW + 1])
        out.setdefault(key, []).append(wall / local * REFERENCE_MS)
    return out
