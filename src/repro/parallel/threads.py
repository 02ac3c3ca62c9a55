"""Thread-sharded execution for the vertical bitmap engine.

This is the ``workers=`` counting path. A process pool would pay for
fork and for shipping the candidates to every worker; the bitmap
engine's kernels (gather, bitwise AND, popcount) are numpy ufunc loops
that *release* the GIL, so threads over one shared read-only
:class:`~repro.mining.bitmap.PackedBitmap` fan out with no
serialization, no shared-memory segments and no worker processes to
supervise.

Sharding is by *word columns*: shard ``i`` owns the packed words
``[b_i, b_{i+1})``, i.e. transactions ``[64·b_i, 64·b_{i+1})``. Word
columns partition the transaction bits, support is additive over any
partition of the transactions, and per-shard popcounts are int64 —
so the parent's elementwise sum equals the serial count bit for bit,
whatever the thread count or completion order (DESIGN.md §9; §14
spells it out for words).

A shard that raises — including an injected ``bitmap.shard_error`` —
poisons the whole fan-out: the counter abandons the batch and falls
back to the serial bitmap reduction exactly once for that call, which
is always exact. Thread shards cannot crash the interpreter the way a
SIGKILLed worker process can, so there is no rebuild/retry machinery.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..mining.bitmap import (
    WORD_BITS,
    BitmapCounter,
    PackedBitmap,
    popcount_reduce,
)
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import trace
from ..resilience import get_injector
from .plan import ShardPlan, resolve_workers
from .pool import record_fanout

__all__ = ["ThreadShardPlanner", "ThreadedBitmapCounter"]

logger = get_logger(__name__)

#: Fault-injection point fired inside every thread shard.
SHARD_ERROR_POINT = "bitmap.shard_error"

#: Words below which fanning out is pure overhead: 16 words = 1024
#: transactions per shard minimum.
_MIN_WORDS_PER_SHARD = 16


@dataclass(frozen=True)
class ThreadShardPlanner:
    """Chooses word-column shard boundaries for the thread path.

    Boundaries are in *words* (64-transaction units), so every shard is
    a whole number of packed words and the per-shard reduce needs no
    edge masks. Returns a :class:`~repro.parallel.plan.ShardPlan` —
    the segment cut-point convention, in word units.

    Parameters
    ----------
    n_shards:
        Explicit shard count; ``None`` derives it from the worker
        count.
    min_words:
        Minimum words per shard; small matrices collapse to fewer
        shards (possibly one) rather than paying fan-out overhead on
        trivial slices.
    """

    n_shards: int | None = None
    min_words: int = _MIN_WORDS_PER_SHARD

    def __post_init__(self) -> None:
        if self.n_shards is not None and self.n_shards < 1:
            raise ValueError("n_shards must be >= 1 or None")
        if self.min_words < 1:
            raise ValueError("min_words must be >= 1")

    def plan(self, n_words: int, workers: int) -> ShardPlan:
        """Cut ``n_words`` word columns into shards for *workers* threads."""
        if n_words < 0:
            raise ValueError("n_words must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if n_words == 0:
            return ShardPlan((0,))
        target = self.n_shards if self.n_shards is not None else workers
        target = min(target, max(n_words // self.min_words, 1), n_words)
        return ShardPlan(
            tuple(i * n_words // target for i in range(target + 1))
        )


def _count_shard(
    payload: tuple[PackedBitmap, np.ndarray, int, int, int]
) -> tuple[int, np.ndarray, float]:
    """One shard's AND+popcount over its word-column range.

    Returns ``(shard_index, int64 partial counts, seconds)`` — the
    shape :func:`~repro.parallel.pool.record_fanout` timings are built
    from.
    """
    packed, table, shard_index, w_lo, w_hi = payload
    start = time.perf_counter()
    injector = get_injector()
    if injector.enabled:
        injector.maybe_raise(SHARD_ERROR_POINT)
    vector = popcount_reduce(packed.words, table, w_lo, w_hi)
    return shard_index, vector, time.perf_counter() - start


class ThreadedBitmapCounter(BitmapCounter):
    """Bitmap counting fanned out over a thread pool.

    Drop-in for :class:`~repro.mining.bitmap.BitmapCounter` (and
    therefore for every :class:`~repro.mining.counting.SupportCounter`
    call site): only :meth:`_candidate_counts` changes, so the
    contract paths — empty inputs, the empty itemset, out-of-domain
    items, mixed cardinality — are literally the base class's code.

    Parameters
    ----------
    workers:
        Thread count; ``None`` consults ``REPRO_WORKERS`` then the CPU
        count (:func:`~repro.parallel.plan.resolve_workers`).
    segment_sizes:
        Forwarded to the base class; segment views
        (``count_segments``/``to_ossm``/``upper_bounds``) stay serial —
        they are one-pass already.
    planner:
        Word-shard boundary policy (default
        :class:`ThreadShardPlanner`).

    The executor is created lazily and shut down by :meth:`close`
    (context manager supported). Threads hold no state: every task
    reads the shared packed matrix and returns a fresh vector, so one
    counter instance may serve concurrent :meth:`count` calls from many
    caller threads.
    """

    def __init__(
        self,
        workers: int | None = None,
        segment_sizes: Sequence[int] | None = None,
        planner: ThreadShardPlanner | None = None,
    ) -> None:
        super().__init__(segment_sizes=segment_sizes)
        self.workers = resolve_workers(workers)
        self.planner = planner if planner is not None else ThreadShardPlanner()
        self._executor: ThreadPoolExecutor | None = None

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Shut the thread pool down (idempotent, safe on half-built
        instances — ``__del__`` reaches here even when ``__init__``
        rejected the worker count before ``_executor`` existed)."""
        executor = getattr(self, "_executor", None)
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ThreadedBitmapCounter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        # Never propagate from a finalizer (see SupervisedPool.__del__).
        try:
            self.close()
        except BaseException:
            pass

    def _ensure_executor(self) -> ThreadPoolExecutor:
        executor = self._executor
        if executor is None:
            executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-bitmap",
            )
            self._executor = executor
        return executor

    # -- sharded reduce --------------------------------------------------

    def _candidate_counts(
        self, packed: PackedBitmap, table: np.ndarray
    ) -> np.ndarray:
        plan = self.planner.plan(packed.n_words, self.workers)
        if plan.n_shards <= 1:
            return super()._candidate_counts(packed, table)
        payloads = [
            (packed, table, index, lo, hi)
            for index, (lo, hi) in enumerate(plan.ranges())
        ]
        start = time.perf_counter()
        executor = self._ensure_executor()
        with trace(
            "bitmap.count.fanout",
            shards=plan.n_shards,
            workers=self.workers,
            candidates=len(table),
        ):
            futures = [
                executor.submit(_count_shard, payload)
                for payload in payloads
            ]
            try:
                results = [future.result() for future in futures]
            except Exception as exc:
                for future in futures:
                    future.cancel()
                registry = get_registry()
                if registry.enabled:
                    registry.inc("resilience.engine.fallbacks")
                logger.warning(
                    "bitmap thread shard failed; counting serially: %s", exc
                )
                return super()._candidate_counts(packed, table)
        wall = time.perf_counter() - start
        total = np.zeros(len(table), dtype=np.int64)
        boundaries = plan.boundaries
        n = packed.n_transactions
        timings: list[tuple[int, int, float]] = []
        for shard_index, vector, seconds in results:
            total += vector
            lo = boundaries[shard_index] * WORD_BITS
            hi = min(boundaries[shard_index + 1] * WORD_BITS, n)
            timings.append((shard_index, hi - lo, seconds))
        record_fanout("bitmap.count", timings, wall)
        return total
