"""The classical Apriori algorithm with pluggable candidate pruning.

The level-wise frequent-set miner of Agrawal & Srikant (1994), the host
algorithm of the paper's experiments. At each level ``k``:

1. generate candidates from the frequent ``(k−1)``-itemsets
   (:func:`~repro.mining.itemsets.apriori_gen`);
2. hand them to the configured
   :class:`~repro.mining.pruning.CandidatePruner` — plain Apriori uses
   the null pruner, *Apriori+OSSM* the Equation (1) bound;
3. frequency-count the survivors with the configured engine;
4. keep those meeting the threshold.

Because OSSM pruning is sound, Apriori and Apriori+OSSM return exactly
the same frequent sets; the saving is in step 3's work, which the
per-level stats expose.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence

import numpy as np

from ..core.itemset_table import ItemsetTable, as_array
from ..data.transactions import TransactionDatabase
from ..obs.instrument import record_bound_gaps, record_level_stats
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import trace
from .base import MiningResult, resolve_min_support
from .checkpointing import MiningCheckpointer, level_crash_point
from .counting import SupportCounter, make_counter, resolve_engine
from .itemsets import apriori_gen
from .pruning import CandidatePruner, NullPruner

__all__ = ["Apriori", "apriori"]

Itemset = tuple[int, ...]

logger = get_logger(__name__)


class Apriori:
    """Configurable Apriori miner.

    Parameters
    ----------
    pruner:
        Candidate pruner applied before counting (default: none).
    counter:
        Counting engine instance (default: subset enumeration).
        Mutually exclusive with ``workers`` and ``engine``.
    max_level:
        Optional cap on itemset cardinality (``None`` = run to fixpoint).
    workers:
        Fan counting out over this many threads. With no ``engine``
        this selects the bitmap engine, whose
        :class:`~repro.parallel.threads.ThreadedBitmapCounter` sums
        word-column shards exactly; a named engine other than
        ``"bitmap"`` counts serially. Results are exactly those of the
        serial counter — the knob only changes where the counting runs.
    engine:
        Counting-engine name resolved through
        :func:`~repro.mining.counting.make_counter` (``"subset"``,
        ``"tidset"``, ``"hashtree"``, ``"bitmap"``).
    checkpoint_dir:
        Snapshot the loop state there after every completed level
        (atomic, checksummed — see
        :mod:`repro.resilience.checkpoint`). ``None`` disables
        checkpointing entirely.
    resume:
        Restart from the newest valid snapshot in ``checkpoint_dir``
        instead of level 1. The resumed run is bit-identical to an
        uninterrupted one (apart from wall-clock timings); resuming
        against a different database/threshold/configuration raises
        :class:`~repro.resilience.errors.CheckpointMismatch`.
    """

    name = "apriori"

    def __init__(
        self,
        pruner: CandidatePruner | None = None,
        counter: SupportCounter | None = None,
        max_level: int | None = None,
        workers: int | None = None,
        engine: str | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        resume: bool = False,
    ) -> None:
        self.pruner = pruner if pruner is not None else NullPruner()
        if counter is not None and (workers is not None or engine is not None):
            raise ValueError(
                "pass either counter= or engine=/workers=, not both"
            )
        if counter is None:
            engine = resolve_engine(engine, workers)
            ossm = getattr(self.pruner, "ossm", None)
            sizes = ossm.segment_sizes if ossm is not None else None
            counter = make_counter(
                engine, workers=workers, segment_sizes=sizes
            )
        self.counter = counter
        if max_level is not None and max_level < 1:
            raise ValueError("max_level must be >= 1 or None")
        self.max_level = max_level
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume

    def mine(
        self,
        database: TransactionDatabase,
        min_support: float | int,
    ) -> MiningResult:
        """Find all frequent itemsets of *database* at *min_support*."""
        threshold = resolve_min_support(database, min_support)
        result = MiningResult(
            frequent=None,
            min_support=threshold,
            algorithm=self.name + self.pruner.label,
        )
        start = time.perf_counter()
        metrics = get_registry()
        ckpt = MiningCheckpointer.open(
            self.checkpoint_dir, self.resume, result.algorithm, threshold,
            database, max_level=self.max_level,
        )
        restored = ckpt.restored() if ckpt is not None else None

        with trace(
            "apriori.mine",
            algorithm=result.algorithm,
            min_support=threshold,
            n_transactions=len(database),
        ):
            if restored is not None:
                k, state = restored
                result.frequent = dict(state["frequent"])
                frequent_prev = state["frequent_prev"]
                MiningCheckpointer.unpack_levels(result, state["levels"])
            else:
                # Level 1: every singleton, counted by one bincount.
                with trace("apriori.level", level=1):
                    level_crash_point()
                    level1 = result.level(1)
                    level1.candidates_generated = database.n_items
                    singletons = ItemsetTable(
                        np.arange(database.n_items)[:, None]
                    )
                    survivors = self.pruner.prune(singletons, threshold)
                    level1.candidates_pruned = (
                        len(singletons) - len(survivors)
                    )
                    level1.candidates_counted = len(survivors)
                    supports = database.item_supports()[
                        as_array(survivors).ravel()
                    ]
                    frequent_prev = result.keep_frequent(survivors, supports)
                    level1.frequent = len(frequent_prev)
                    record_level_stats(self.name, level1)
                self._log_level(level1)
                k = 1
                if ckpt is not None:
                    ckpt.save_level(1, self._snapshot(result, frequent_prev))

            k += 1
            while frequent_prev and (
                self.max_level is None or k <= self.max_level
            ):
                with trace("apriori.level", level=k):
                    level_crash_point()
                    with metrics.time("apriori.gen_seconds"):
                        candidates = apriori_gen(frequent_prev)
                    stats = result.level(k)
                    stats.candidates_generated = len(candidates)
                    if not candidates:
                        break
                    with metrics.time("apriori.bound_seconds"):
                        survivors = self.pruner.prune(candidates, threshold)
                    stats.candidates_pruned = (
                        len(candidates) - len(survivors)
                    )
                    stats.candidates_counted = len(survivors)
                    with metrics.time("apriori.count_seconds"):
                        supports = self.counter.supports(database, survivors)
                    record_bound_gaps(self.pruner, survivors, supports)
                    frequent_prev = result.keep_frequent(survivors, supports)
                    stats.frequent = len(frequent_prev)
                    record_level_stats(self.name, stats)
                self._log_level(stats)
                if ckpt is not None:
                    ckpt.save_level(k, self._snapshot(result, frequent_prev))
                k += 1

        result.elapsed_seconds = time.perf_counter() - start
        logger.debug(
            "%s: %d frequent itemsets in %.3fs",
            result.algorithm, result.n_frequent, result.elapsed_seconds,
        )
        return result

    @staticmethod
    def _snapshot(
        result: MiningResult, frequent_prev: Sequence[Itemset]
    ) -> dict:
        """Exact loop state carried into the next level (see
        :mod:`repro.mining.checkpointing` for the bit-identity contract).
        The frequent level is immutable, so it is stored as it is."""
        return {
            "frequent": dict(result.frequent),
            "frequent_prev": frequent_prev,
            "levels": MiningCheckpointer.pack_levels(result),
        }

    @staticmethod
    def _log_level(stats) -> None:
        logger.debug(
            "level %d: generated=%d pruned=%d counted=%d frequent=%d",
            stats.level, stats.candidates_generated,
            stats.candidates_pruned, stats.candidates_counted,
            stats.frequent,
        )


def apriori(
    database: TransactionDatabase,
    min_support: float | int,
    pruner: CandidatePruner | None = None,
    counter: SupportCounter | None = None,
    max_level: int | None = None,
    workers: int | None = None,
    engine: str | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
    resume: bool = False,
) -> MiningResult:
    """Functional entry point: ``apriori(db, 0.01, pruner=OSSMPruner(ossm))``."""
    miner = Apriori(
        pruner=pruner, counter=counter, max_level=max_level,
        workers=workers, engine=engine,
        checkpoint_dir=checkpoint_dir, resume=resume,
    )
    return miner.mine(database, min_support)
