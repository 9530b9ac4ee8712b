"""The reference loop: the unit in which the benchmark reports run times.

On a shared host a neighbour on the same physical core can slow every
instruction by a fifth or more, for seconds or minutes at a time.  Timed
alone, the same batch of jobs then reads 20% slower or faster from one
run to the next although the program did not change.  So the benchmark
also times a fixed pure-Python loop, which does not touch thompsonf, next
to every job, and divides each job's time by the median loop time around
it.  The host's speed cancels; the program's does not.

A duration in `ref` units is seconds divided by the seconds of one
`reference()` call measured at the same moment.  The report also prints
the raw seconds and the loop's own median time, so either can be read.
"""

from __future__ import annotations

import statistics
import time

ITERATIONS = 400  # about 0.4 ms on a 2020s x86 core
WINDOW = 10  # loop samples on each side of a job in its local median


def reference() -> float:
    """Run the reference loop once; return its duration in seconds.

    It builds tuples, updates a dict, appends to a list and sorts it: the
    same kinds of work as thompsonf's normal forms and element sets, so
    that a neighbour who slows memory more than arithmetic slows both."""
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    pairs = []
    for i in range(ITERATIONS):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
        pairs.append((key, i * 3))
    pairs.sort(reverse=True)
    frozenset(key for key, _ in pairs)
    return time.perf_counter() - start


def local_medians(samples: list[float], window: int = WINDOW) -> list[float]:
    """For each position, the median of the samples within `window` of it."""
    return [
        statistics.median(samples[max(0, i - window):i + window + 1])
        for i in range(len(samples))
    ]
