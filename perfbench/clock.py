"""A machine-speed yardstick for the CPU-bound timings.

On the shared 2-core host this benchmark was tuned on, the same
Apriori+OSSM run takes 0.15 s in one stretch and 0.28 s in the next,
and the stretches last from seconds to minutes. Over 20-second windows
of identical runs, the spread (interquartile range over median) of the
windows' median time was 0.08–0.40, and of their fastest time
0.08–0.47: more than any bound on a program change could tolerate.

The slow stretches slow every CPU-bound computation in the process
alike. So each timed sample is bracketed by a fixed *reference*
computation — small numpy intersections and Python set and dict work,
the two kinds of work the mining path does, on inputs that never
change — and reported as::

    scaled = raw * REFERENCE_S / mean(reference before, reference after)

that is, in seconds at the machine speed where the reference takes
``REFERENCE_S``. Over the same windows, the median scaled time spread
0.02–0.08. A program change moves ``raw`` and leaves the reference
alone, so it moves ``scaled`` by the same share. Raw times are printed
beside the scaled ones.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable
from typing import NamedTuple, TypeVar

import numpy as np

#: About what ``reference_s`` reads on the 2-core tuning host. Scaled
#: times are in seconds at that speed; only ratios between runs
#: on one machine mean anything.
REFERENCE_S = 0.004

_T = TypeVar("_T")

_RNG = random.Random(20_020_101)
_SETS = [frozenset(_RNG.sample(range(10_000), 100)) for _ in range(120)]
_ARRAYS = [
    np.sort(np.random.default_rng(index).choice(10_000, 300, replace=False))
    for index in range(120)
]


def _python_work() -> None:
    counts = {}
    for i in range(0, 120, 4):
        for j in range(i + 1, min(120, i + 16)):
            counts[(i, j)] = len(_SETS[i] & _SETS[j])


def _numpy_work() -> None:
    for i in range(0, 120, 4):
        for j in range(i + 1, i + 12):
            np.intersect1d(_ARRAYS[i], _ARRAYS[j % 120], assume_unique=True)


def _fastest_of_two(work: Callable[[], None]) -> float:
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def reference_s() -> float:
    """One reading of the yardstick, about 4 ms on the tuning host."""
    return _fastest_of_two(_python_work) + _fastest_of_two(_numpy_work)


class Timing(NamedTuple):
    raw: float  # seconds of wall time
    scaled: float  # seconds at the reference speed
    end: float = 0.0  # perf_counter when the timed work ended


def scale(raw: float, before: float, after: float, end: float = 0.0) -> Timing:
    return Timing(raw, raw * REFERENCE_S * 2.0 / (before + after), end)


def timed(work: Callable[[], _T]) -> tuple[Timing, _T]:
    """Run *work* between two readings of the yardstick."""
    before = reference_s()
    start = time.perf_counter()
    result = work()
    end = time.perf_counter()
    return scale(end - start, before, reference_s(), end), result
