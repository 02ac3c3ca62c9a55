"""Bounded exponential backoff for pool rebuilds.

:class:`Backoff` draws its jitter from a ``random.Random`` owned by the
instance, so a seeded run retries on an identical schedule.
"""

from __future__ import annotations

import random
import time

__all__ = ["Backoff"]


class Backoff:
    """Bounded exponential backoff with seeded jitter.

    ``delay(n) = min(base * factor**n, max_delay) * (1 + U[0, jitter])``
    for the *n*-th consecutive failure (0-based). Call :meth:`reset`
    after a success so the next incident starts from ``base`` again.
    """

    def __init__(
        self,
        base: float = 0.05,
        factor: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.25,
        seed: int = 0,
    ) -> None:
        if base <= 0 or factor < 1.0 or max_delay < base:
            raise ValueError("need base > 0, factor >= 1, max_delay >= base")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._failures = 0

    @property
    def failures(self) -> int:
        return self._failures

    def reset(self) -> None:
        self._failures = 0

    def next_delay(self) -> float:
        """The delay for the current failure; advances the schedule."""
        raw = min(self.base * self.factor**self._failures, self.max_delay)
        self._failures += 1
        return raw * (1.0 + self._rng.uniform(0.0, self.jitter))

    def sleep(self) -> float:
        """Sleep :meth:`next_delay`; returns the seconds slept."""
        delay = self.next_delay()
        time.sleep(delay)
        return delay
