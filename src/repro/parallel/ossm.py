"""Chunk-parallel Equation (1) bounds for the serve pool.

Equation (1) is evaluated per candidate with no cross-candidate state,
so :func:`parallel_upper_bounds` splits the candidate table into
contiguous chunks, each worker runs the ordinary
``OSSM.upper_bounds`` over its chunk, and the parent concatenates.
Every worker executes the *same* integer arithmetic as the serial path
(including the documented-exact pair fast path), so the bound vector
is identical — and therefore exactly as sound (DESIGN.md §9). This
module is registered with the bound-soundness lint tier: all support
arithmetic here is int64, like the serial map.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from ..core.itemset_table import as_array
from ..core.ossm import OSSM
from ..obs.trace import trace
from .plan import resolve_workers
from .pool import (
    WorkerPool,
    bounds_chunk,
    init_bound_map,
    publish_int64,
    record_fanout,
)

__all__ = ["parallel_upper_bounds"]


def parallel_upper_bounds(
    ossm: OSSM,
    itemsets: Sequence[Sequence[int]],
    workers: int | None = None,
    pool: WorkerPool | None = None,
) -> np.ndarray:
    """Chunk-parallel Equation (1) bounds; identical to the serial value.

    When *pool* is given it must have been created with
    :func:`~repro.parallel.pool.init_bound_map` over this map's matrix
    (that is what the serve pool maintains); otherwise a one-shot pool
    is created and torn down inside the call.
    """
    n_candidates = len(itemsets)
    if n_candidates == 0:
        return ossm.upper_bounds(itemsets)
    candidates = as_array(itemsets)
    if candidates.shape[1] == 0:
        return ossm.upper_bounds(itemsets)
    n_workers = pool.workers if pool is not None else resolve_workers(workers)
    n_chunks = min(n_workers, n_candidates)
    if n_chunks <= 1:
        return ossm.upper_bounds(itemsets)
    chunk_cuts = [
        index * n_candidates // n_chunks for index in range(n_chunks + 1)
    ]
    k = int(candidates.shape[1])
    start = time.perf_counter()
    owned = pool is None
    segment = publish_int64(candidates)
    try:
        # Built inside the try: once the segment exists, every failure
        # path must reach the finally that unlinks it.
        payloads = [
            (index, segment.name, n_candidates, k, lo, hi)
            for index, (lo, hi) in enumerate(zip(chunk_cuts, chunk_cuts[1:]))
        ]
        with trace(
            "parallel.bounds",
            chunks=n_chunks,
            workers=n_workers,
            candidates=n_candidates,
            k=k,
        ):
            if owned:
                pool = WorkerPool(
                    n_chunks, init_bound_map, np.asarray(ossm.matrix)
                )
            assert pool is not None
            results = pool.run(bounds_chunk, payloads)
    finally:
        if owned and pool is not None:
            pool.close()
        segment.close()
        segment.unlink()
    wall = time.perf_counter() - start
    bounds = np.concatenate(
        [chunk_bounds for _index, chunk_bounds, _sec in results]
    )
    timings = [
        (index, chunk_cuts[index + 1] - chunk_cuts[index], seconds)
        for index, _bounds, seconds in results
    ]
    record_fanout("parallel.bounds", timings, wall)
    return bounds.astype(np.int64)
