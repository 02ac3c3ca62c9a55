"""Parallel execution: thread-sharded counting and chunk process pools.

Every parallel path here is exactly equivalent to its serial
counterpart (DESIGN.md §9), and ``tests/parallel`` holds the
differential harness that proves it on every build.

* :class:`~repro.parallel.threads.ThreadedBitmapCounter` — the
  ``workers=`` counting path: bitmap AND+popcount over word-column
  thread shards, summed in int64.
* :class:`~repro.parallel.pool.SupervisedPool` — the one process
  pool, behind DHP's chunk passes and Partition's phase 1, with
  crash/hang supervision and whole-batch retry.
* :class:`~repro.parallel.plan.ShardPlan` — contiguous cut points;
  :func:`~repro.parallel.plan.resolve_workers` — the ``workers=`` /
  ``REPRO_WORKERS`` knob.
"""

from __future__ import annotations

from .plan import ShardPlan, resolve_workers
from .pool import SupervisedPool
from .threads import ThreadedBitmapCounter, ThreadShardPlanner

__all__ = [
    "ShardPlan",
    "ThreadedBitmapCounter",
    "ThreadShardPlanner",
    "resolve_workers",
    "SupervisedPool",
]
