"""Shard plans and the ``workers=`` knob.

A *shard* is a contiguous range ``[lo, hi)``; a plan is the sorted list
of cut points ``[0, b1, ..., N]`` — the same boundary convention
:func:`repro.core.ossm.build_from_database` uses for segments,
deliberately, because the exactness argument (DESIGN.md §9) rests on
shards being a partition of the collection into contiguous runs.
Support is additive over any such partition, so per-shard counts
always sum to the exact global count. The bitmap thread path
(:class:`~repro.parallel.threads.ThreadShardPlanner`) cuts in packed
64-transaction words.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ShardPlan", "resolve_workers"]

#: Environment knob consulted when ``workers`` is not given explicitly —
#: the CI bitmap leg pins it so the thread path runs sharded.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers=`` knob to a concrete positive count.

    ``None`` consults the ``REPRO_WORKERS`` environment variable, then
    falls back to the CPU count. The result is always >= 1.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            workers = int(env)
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(workers)


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous shard boundaries over ``n_transactions`` transactions.

    ``boundaries`` are cut points ``[0, b1, ..., N]``; shard ``i`` holds
    transactions ``[boundaries[i], boundaries[i+1])``. The empty
    collection is represented by the single cut point ``(0,)`` — zero
    shards, nothing to fan out.
    """

    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.boundaries or self.boundaries[0] != 0:
            raise ValueError("boundaries must start at 0")
        if list(self.boundaries) != sorted(self.boundaries):
            raise ValueError("boundaries must be non-decreasing")

    @property
    def n_shards(self) -> int:
        """Number of shards (0 for the empty collection)."""
        return len(self.boundaries) - 1

    @property
    def n_transactions(self) -> int:
        """Total transactions covered by the plan."""
        return self.boundaries[-1]

    @property
    def sizes(self) -> tuple[int, ...]:
        """Transactions per shard."""
        return tuple(
            hi - lo for lo, hi in zip(self.boundaries, self.boundaries[1:])
        )

    def ranges(self) -> list[tuple[int, int]]:
        """The ``[lo, hi)`` transaction range of every shard."""
        return list(zip(self.boundaries, self.boundaries[1:]))
