"""The Partition algorithm (Savasere, Omiecinski & Navathe, VLDB 1995).

Two database scans:

* **Phase 1 (local).** Split the collection into ``p`` partitions and
  mine each at the scaled-down local threshold. Any globally frequent
  itemset is locally frequent in at least one partition, so the union
  of the local results is a complete global candidate set.
* **Phase 2 (global).** One counting scan of the full collection over
  the union; keep the candidates meeting the global threshold.

Section 7 of the OSSM paper describes two enhancement points, both
implemented here:

* a per-partition OSSM prunes *local* candidates inside each phase-1
  run (``local_pruner_factory``);
* the concatenation of the per-partition OSSMs is a global OSSM, whose
  bound prunes *global* candidates — locally frequent but provably
  globally infrequent — before the phase-2 scan (``global_pruner``, or
  automatically when ``auto_ossm`` is set).
"""

from __future__ import annotations

import math
import os
import time
from collections.abc import Callable
from typing import TYPE_CHECKING

from ..core.ossm import OSSM
from ..data.transactions import TransactionDatabase
from ..obs.instrument import record_bound_gaps, record_level_stats
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import trace
from .apriori import Apriori
from .base import MiningResult, resolve_min_support
from .checkpointing import MiningCheckpointer, level_crash_point
from .counting import SupportCounter, make_counter, make_pool, resolve_engine
from .pruning import CandidatePruner, NullPruner, OSSMPruner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel.pool import SupervisedPool

__all__ = ["Partition", "partition_mine"]

logger = get_logger(__name__)

Itemset = tuple[int, ...]

#: Signature of a factory producing the local pruner for one partition.
LocalPrunerFactory = Callable[[TransactionDatabase, int], CandidatePruner]


def _mine_partition(
    payload: tuple[TransactionDatabase, CandidatePruner, int, int | None]
) -> tuple[list[Itemset], float]:
    """Worker task: one phase-1 local mining run.

    Returns the locally frequent itemsets (the parent only needs the
    keys — phase 2 recounts globally) and the worker's wall time. The
    union of local results is a set, so completion order is irrelevant.
    """
    part, pruner, local_threshold, max_level = payload
    start = time.perf_counter()
    local = Apriori(pruner=pruner, max_level=max_level).mine(
        part, local_threshold
    )
    return list(local.frequent), time.perf_counter() - start


class Partition:
    """Two-phase partitioned miner with optional OSSM enhancement.

    Parameters
    ----------
    n_partitions:
        Number of phase-1 partitions.
    local_pruner_factory:
        Called as ``factory(partition_db, index)`` to obtain the pruner
        used inside that partition's local mining run.
    global_pruner:
        Pruner applied to the union of local results before phase 2.
    auto_ossm:
        If given (a segment count), build a per-partition OSSM with that
        many segments for each partition, use it locally, and use the
        concatenation of all of them as the global pruner. Mutually
        exclusive with the two explicit arguments.
    max_level:
        Optional cardinality cap forwarded to the local miners.
    workers:
        Fan the phase-1 local mining runs out over this many worker
        processes (one task per partition; local pruners must be
        picklable) and count phase 2 under Apriori's ``workers=`` rule:
        bitmap thread shards when no ``engine`` is named, serial
        counting for any other named engine. Both phases produce
        exactly the serial result: the candidate union is
        order-independent and the thread shards sum exactly.
    engine:
        Phase-2 counting-engine name resolved through
        :func:`~repro.mining.counting.make_counter`; default subset
        (serial) or bitmap (with ``workers``).
    checkpoint_dir:
        Snapshot progress there: unit 0 is the completed phase-1
        candidate union, unit ``k`` each completed phase-2 level.
        ``None`` disables checkpointing.
    resume:
        Restart from the newest valid snapshot in ``checkpoint_dir``
        (skipping phase 1 entirely once unit 0 exists); the resumed
        run is bit-identical to an uninterrupted one.
    """

    name = "partition"

    def __init__(
        self,
        n_partitions: int = 4,
        local_pruner_factory: LocalPrunerFactory | None = None,
        global_pruner: CandidatePruner | None = None,
        auto_ossm: int | None = None,
        max_level: int | None = None,
        workers: int | None = None,
        engine: str | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        resume: bool = False,
    ) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        if auto_ossm is not None and (
            local_pruner_factory is not None or global_pruner is not None
        ):
            raise ValueError(
                "auto_ossm replaces explicit pruners; pass one or the other"
            )
        if auto_ossm is not None and auto_ossm < 1:
            raise ValueError("auto_ossm (segments per partition) must be >= 1")
        self.n_partitions = n_partitions
        self.local_pruner_factory = local_pruner_factory
        self.global_pruner = global_pruner
        self.auto_ossm = auto_ossm
        self.max_level = max_level
        self.workers = workers
        self.engine = engine
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume

    def _resolved_workers(self) -> int:
        if self.workers is None:
            return 1
        # Imported lazily: repro.parallel builds on repro.mining.
        from ..parallel.plan import resolve_workers

        return resolve_workers(self.workers)

    # -- OSSM auto-construction ------------------------------------------

    def _auto_structures(
        self, partitions: list[TransactionDatabase]
    ) -> tuple[list[CandidatePruner], CandidatePruner]:
        """Per-partition OSSM pruners plus the concatenated global pruner."""
        import numpy as np

        local_pruners: list[CandidatePruner] = []
        all_rows = []
        all_sizes: list[int] = []
        n_items = max(p.n_items for p in partitions)
        for part in partitions:
            n_segments = min(self.auto_ossm, max(len(part), 1))
            if len(part) == 0:
                rows = np.zeros((1, n_items), dtype=np.int64)
                sizes = [0]
            else:
                bounds = np.linspace(0, len(part), n_segments + 1).astype(int)
                rows = np.zeros((n_segments, n_items), dtype=np.int64)
                sizes = []
                for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                    segment = part[int(lo):int(hi)]
                    supports = segment.item_supports()
                    rows[s, : len(supports)] = supports
                    sizes.append(len(segment))
            ossm = OSSM(rows, segment_sizes=sizes)
            local_pruners.append(OSSMPruner(ossm))
            all_rows.append(rows)
            all_sizes.extend(sizes)
        global_ossm = OSSM(np.vstack(all_rows), segment_sizes=all_sizes)
        return local_pruners, OSSMPruner(global_ossm)

    # -- driver ------------------------------------------------------------

    def mine(
        self,
        database: TransactionDatabase,
        min_support: float | int,
    ) -> MiningResult:
        """Find all frequent itemsets of *database* at *min_support*."""
        threshold = resolve_min_support(database, min_support)
        relative = threshold / max(len(database), 1)
        partitions = database.split(min(self.n_partitions, max(len(database), 1)))

        if self.auto_ossm is not None:
            local_pruners, global_pruner = self._auto_structures(partitions)
        else:
            factory = self.local_pruner_factory
            local_pruners = [
                factory(part, i) if factory else NullPruner()
                for i, part in enumerate(partitions)
            ]
            global_pruner = self.global_pruner or NullPruner()

        label = global_pruner.label or (
            local_pruners[0].label if local_pruners else ""
        )
        result = MiningResult(
            frequent=None,
            min_support=threshold,
            algorithm=self.name + label,
        )
        workers = self._resolved_workers()
        start = time.perf_counter()
        metrics = get_registry()
        ckpt = MiningCheckpointer.open(
            self.checkpoint_dir, self.resume, result.algorithm, threshold,
            database, n_partitions=self.n_partitions,
            auto_ossm=self.auto_ossm, max_level=self.max_level,
        )
        restored = ckpt.restored() if ckpt is not None else None

        with trace(
            "partition.mine",
            algorithm=result.algorithm,
            min_support=threshold,
            n_partitions=len(partitions),
        ):
            # Phase 1: local mining (skipped once checkpoint unit 0 —
            # the complete candidate union — is on disk).
            candidates: set[Itemset] = set()
            done_levels: set[int] = set()
            if restored is not None:
                unit, state = restored
                candidates = set(state["candidates"])
                if unit > 0:
                    result.frequent = dict(state["frequent"])
                    MiningCheckpointer.unpack_levels(result, state["levels"])
                    done_levels = set(state["done"])
            else:
                with trace("partition.phase1", workers=workers):
                    level_crash_point()
                    tasks = []
                    for index, (part, pruner) in enumerate(
                        zip(partitions, local_pruners)
                    ):
                        if len(part) == 0:
                            continue
                        local_threshold = max(
                            1, math.ceil(relative * len(part))
                        )
                        tasks.append((index, part, pruner, local_threshold))
                    pool = make_pool(workers, len(tasks))
                    if pool is not None:
                        with pool:
                            self._phase_one_parallel(tasks, candidates, pool)
                    else:
                        for index, part, pruner, local_threshold in tasks:
                            with trace(
                                "partition.local", partition=index,
                                size=len(part),
                            ):
                                local = Apriori(
                                    pruner=pruner, max_level=self.max_level
                                ).mine(part, local_threshold)
                            candidates.update(local.frequent)
                metrics.inc("partition.global_candidates", len(candidates))
                logger.debug(
                    "phase 1: %d global candidates from %d partitions",
                    len(candidates), len(partitions),
                )
                if ckpt is not None:
                    ckpt.save_level(0, {"candidates": sorted(candidates)})

            # Phase 2: one global counting scan, level by level.
            counter = self._phase_two_counter(workers, global_pruner)
            by_size: dict[int, list[Itemset]] = {}
            for candidate in candidates:
                by_size.setdefault(len(candidate), []).append(candidate)
            with trace("partition.phase2"):
                for k in sorted(by_size):
                    if k in done_levels:
                        continue
                    with trace("partition.level", level=k):
                        level_crash_point()
                        level = result.level(k)
                        level_candidates = sorted(by_size[k])
                        level.candidates_generated = len(level_candidates)
                        survivors = global_pruner.prune(
                            level_candidates, threshold
                        )
                        level.candidates_pruned = (
                            len(level_candidates) - len(survivors)
                        )
                        level.candidates_counted = len(survivors)
                        with metrics.time("partition.count_seconds"):
                            supports = counter.supports(database, survivors)
                        record_bound_gaps(global_pruner, survivors, supports)
                        level.frequent = len(
                            result.keep_frequent(survivors, supports)
                        )
                        record_level_stats(self.name, level)
                    done_levels.add(k)
                    if ckpt is not None:
                        ckpt.save_level(
                            k,
                            {
                                "candidates": sorted(candidates),
                                "frequent": dict(result.frequent),
                                "levels": MiningCheckpointer.pack_levels(
                                    result
                                ),
                                "done": sorted(done_levels),
                            },
                        )

        closer = getattr(counter, "close", None)
        if closer is not None:
            closer()
        result.elapsed_seconds = time.perf_counter() - start
        return result

    # -- parallel plumbing -------------------------------------------------

    def _phase_one_parallel(
        self,
        tasks: list[tuple[int, TransactionDatabase, CandidatePruner, int]],
        candidates: set[Itemset],
        pool: SupervisedPool,
    ) -> None:
        """Fan the local mining runs out, one task per partition."""
        # Imported lazily: repro.parallel builds on repro.mining.
        from ..parallel.pool import record_fanout

        payloads = [
            (part, pruner, local_threshold, self.max_level)
            for _index, part, pruner, local_threshold in tasks
        ]
        start = time.perf_counter()
        results = pool.run(_mine_partition, payloads)
        wall = time.perf_counter() - start
        timings = []
        for (index, part, _pruner, _thr), (frequent, seconds) in zip(
            tasks, results
        ):
            candidates.update(frequent)
            timings.append((index, len(part), seconds))
        record_fanout("parallel.partition_local", timings, wall)

    def _phase_two_counter(
        self, workers: int, global_pruner: CandidatePruner
    ) -> SupportCounter:
        """The phase-2 counter, resolved through the engine registry
        under the ``workers=`` rule."""
        ossm = getattr(global_pruner, "ossm", None)
        sizes = ossm.segment_sizes if ossm is not None else None
        engine = resolve_engine(
            self.engine, workers if workers > 1 else None
        )
        return make_counter(
            engine,
            workers=workers if workers > 1 else None,
            segment_sizes=sizes,
        )


def partition_mine(
    database: TransactionDatabase,
    min_support: float | int,
    n_partitions: int = 4,
    **kwargs,
) -> MiningResult:
    """Functional entry point for :class:`Partition`."""
    miner = Partition(n_partitions=n_partitions, **kwargs)
    return miner.mine(database, min_support)
