"""DHP — Direct Hashing and Pruning (Park, Chen & Yu, TKDE 1997).

The hash-based Apriori variant the paper combines with the OSSM in
Section 7. Two devices on top of Apriori:

* **Hash filtering.** While counting pass ``k−1``, every ``k``-subset of
  each (trimmed) transaction is hashed into a bucket-count table
  ``H_k``. A ``k``-candidate whose bucket count misses the threshold
  cannot be frequent and is dropped before counting. The decisive win is
  at ``k = 2`` — the well-known Apriori bottleneck.
* **Transaction trimming.** An item can belong to a frequent
  ``(k+1)``-itemset only if it lies in at least ``k`` of the
  transaction's candidate ``k``-itemsets; items (and transactions)
  failing the test are dropped from subsequent passes.

With an OSSM attached (``pruner=OSSMPruner(...)``), candidates are
bound-pruned *before* the hash filter sees them — "known infrequent
k-itemsets are not generated in the first place", and the itemsets that
pass the OSSM can still be pruned by DHP (Section 7). The Section 7
table's two rows are this class with the null pruner and with an OSSM
pruner.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from contextlib import nullcontext
from itertools import combinations

import numpy as np

from ..data.transactions import TransactionDatabase
from ..obs.instrument import record_bound_gaps, record_level_stats
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import trace
from .base import MiningResult, resolve_min_support
from .checkpointing import MiningCheckpointer, level_crash_point
from .counting import make_pool, ordered_supports
from .itemsets import apriori_gen
from .pruning import CandidatePruner, NullPruner

__all__ = ["DHP", "dhp"]

logger = get_logger(__name__)

Itemset = tuple[int, ...]

_HASH_MULTIPLIER = 131071


def _bucket(itemset: Itemset, n_buckets: int) -> int:
    value = 0
    for item in itemset:
        value = (value * _HASH_MULTIPLIER + item + 1) % n_buckets
    return value


def _pass_one_core(
    transactions: list[Itemset] | TransactionDatabase,
    n_items: int,
    n_buckets: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Singleton counts and ``H_2`` buckets for one transaction run.

    Module-level (and ``self``-free) so worker processes can run it on
    a chunk: both outputs are per-transaction sums, so chunk results
    add up to exactly the serial result.
    """
    supports = np.zeros(n_items, dtype=np.int64)
    buckets = np.zeros(n_buckets, dtype=np.int64)
    for txn in transactions:
        supports[list(txn)] += 1
        for pair in combinations(txn, 2):
            buckets[_bucket(pair, n_buckets)] += 1
    return supports, buckets


def _count_pass_core(
    transactions: list[Itemset],
    candidates: Sequence[Itemset],
    k: int,
    build_next_hash: bool,
    n_buckets: int,
    trim: bool,
) -> tuple[dict[Itemset, int], np.ndarray | None, list[Itemset]]:
    """One DHP counting pass over a transaction run.

    Every per-transaction step — candidate hits, the trimming decision,
    and the ``H_{k+1}`` bucket contribution — depends only on the
    candidate set and that single transaction, never on other
    transactions. That locality is what makes the chunked parallel pass
    exact: counts and buckets sum, trimmed runs concatenate in order.
    """
    counts: dict[Itemset, int] = {c: 0 for c in candidates}
    next_buckets = (
        np.zeros(n_buckets, dtype=np.int64) if build_next_hash else None
    )
    trimmed: list[Itemset] = []
    useful = frozenset(item for c in candidates for item in c)
    for txn in transactions:
        items = [item for item in txn if item in useful]
        hits: dict[int, int] = {}
        if len(items) >= k:
            for subset in combinations(items, k):
                if subset in counts:
                    counts[subset] += 1
                    for item in subset:
                        hits[item] = hits.get(item, 0) + 1
        if trim:
            kept = tuple(
                item for item in items if hits.get(item, 0) >= k
            )
            if len(kept) < k + 1:
                continue
            txn_next = kept
        else:
            txn_next = txn
        trimmed.append(txn_next)
        if next_buckets is not None and len(txn_next) > k:
            for subset in combinations(txn_next, k + 1):
                next_buckets[_bucket(subset, n_buckets)] += 1
    return counts, next_buckets, trimmed


def _pass_one_chunk(
    payload: tuple[list[Itemset], int, int]
) -> tuple[np.ndarray, np.ndarray, float]:
    """Worker task: :func:`_pass_one_core` over one transaction chunk."""
    transactions, n_items, n_buckets = payload
    start = time.perf_counter()
    supports, buckets = _pass_one_core(transactions, n_items, n_buckets)
    return supports, buckets, time.perf_counter() - start


def _count_chunk(
    payload: tuple[list[Itemset], Sequence[Itemset], int, bool, int, bool]
) -> tuple[np.ndarray, np.ndarray | None, list[Itemset], float]:
    """Worker task: :func:`_count_pass_core` over one transaction chunk.

    Counts come back as an int64 vector aligned with the candidate
    list, so the parent reduces with an elementwise sum.
    """
    transactions, candidates, k, build_next_hash, n_buckets, trim = payload
    start = time.perf_counter()
    counts, next_buckets, trimmed = _count_pass_core(
        transactions, candidates, k, build_next_hash, n_buckets, trim
    )
    vector = np.fromiter(
        (counts[c] for c in candidates),
        dtype=np.int64,
        count=len(candidates),
    )
    return vector, next_buckets, trimmed, time.perf_counter() - start


def _even_chunks(items: list[Itemset], n_chunks: int) -> list[list[Itemset]]:
    """Split *items* into at most *n_chunks* contiguous, ordered runs."""
    n = len(items)
    n_chunks = min(n_chunks, n)
    cuts = [i * n // n_chunks for i in range(n_chunks + 1)]
    return [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


class DHP:
    """DHP miner with pluggable candidate pruning.

    Parameters
    ----------
    n_buckets:
        Size of each hash table (the paper's Section 7 run uses 32 768).
    hash_passes:
        Highest level for which a hash table is built. The default (2)
        builds only ``H_2``, the configuration responsible for nearly
        all of DHP's benefit; raise it to also hash-filter ``C_3`` etc.
    pruner:
        Candidate pruner applied before the hash filter (OSSM here).
    max_level:
        Optional cardinality cap.
    workers:
        Fan every counting pass (including pass one) out over this
        many worker processes in contiguous transaction chunks. Counts
        and bucket tables sum and trimmed runs concatenate in order, so
        the result is exactly the serial one.
    checkpoint_dir:
        Snapshot the loop state (frequent sets, bucket table, trimmed
        transactions) there after every completed level; ``None``
        disables checkpointing.
    resume:
        Restart from the newest valid snapshot in ``checkpoint_dir``;
        the resumed run is bit-identical to an uninterrupted one.
    """

    name = "dhp"

    def __init__(
        self,
        n_buckets: int = 32768,
        hash_passes: int = 2,
        pruner: CandidatePruner | None = None,
        max_level: int | None = None,
        trim: bool = True,
        workers: int | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        resume: bool = False,
    ) -> None:
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        if hash_passes < 2:
            raise ValueError("hash_passes must be >= 2 (H2 is the point of DHP)")
        self.n_buckets = n_buckets
        self.hash_passes = hash_passes
        self.pruner = pruner if pruner is not None else NullPruner()
        self.max_level = max_level
        self.trim = trim
        self.workers = workers
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume

    # -- parallel plumbing -------------------------------------------------

    def _make_pool(self, database: TransactionDatabase):
        """Worker pool for this run, or ``None`` for the serial path.

        Routed through the engine registry's
        :func:`~repro.mining.counting.make_pool` seam — the one place
        every process fan-out (this and Partition's phase 1) gets its
        pool — instead of importing the parallel backend ad hoc.
        """
        return make_pool(self.workers, len(database))

    def _pass_one_parallel(
        self, database: TransactionDatabase, pool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chunked pass one; sums reproduce the serial tables exactly."""
        from ..parallel.pool import record_fanout

        chunks = _even_chunks(list(database), pool.workers)
        payloads = [
            (chunk, database.n_items, self.n_buckets) for chunk in chunks
        ]
        start = time.perf_counter()
        results = pool.run(_pass_one_chunk, payloads)
        wall = time.perf_counter() - start
        supports = np.zeros(database.n_items, dtype=np.int64)
        buckets = np.zeros(self.n_buckets, dtype=np.int64)
        timings = []
        for index, (chunk_supports, chunk_buckets, seconds) in enumerate(
            results
        ):
            supports += chunk_supports
            buckets += chunk_buckets
            timings.append((index, len(chunks[index]), seconds))
        record_fanout("parallel.dhp_pass1", timings, wall)
        return supports, buckets

    def _count_pass_parallel(
        self,
        transactions: list[Itemset],
        candidates: Sequence[Itemset],
        k: int,
        build_next_hash: bool,
        pool,
    ) -> tuple[dict[Itemset, int], np.ndarray | None, list[Itemset]]:
        """Chunked counting pass; exact by per-transaction locality."""
        from ..parallel.pool import record_fanout

        chunks = _even_chunks(transactions, pool.workers)
        payloads = [
            (
                chunk, candidates, k, build_next_hash,
                self.n_buckets, self.trim,
            )
            for chunk in chunks
        ]
        start = time.perf_counter()
        results = pool.run(_count_chunk, payloads)
        wall = time.perf_counter() - start
        total = np.zeros(len(candidates), dtype=np.int64)
        next_buckets = (
            np.zeros(self.n_buckets, dtype=np.int64)
            if build_next_hash
            else None
        )
        trimmed: list[Itemset] = []
        timings = []
        for index, (vector, chunk_buckets, chunk_trimmed, seconds) in (
            enumerate(results)
        ):
            total += vector
            if next_buckets is not None and chunk_buckets is not None:
                next_buckets += chunk_buckets
            trimmed.extend(chunk_trimmed)
            timings.append((index, len(chunks[index]), seconds))
        record_fanout("parallel.dhp_count", timings, wall)
        counts = {
            candidate: int(total[index])
            for index, candidate in enumerate(candidates)
        }
        return counts, next_buckets, trimmed

    # -- passes ----------------------------------------------------------

    def _pass_one(
        self, database: TransactionDatabase
    ) -> tuple[np.ndarray, np.ndarray]:
        """Count singletons and fill the ``H_2`` bucket table."""
        return _pass_one_core(database, database.n_items, self.n_buckets)

    def _hash_filter(
        self,
        candidates: Sequence[Itemset],
        buckets: np.ndarray | None,
        threshold: int,
    ) -> Sequence[Itemset]:
        if buckets is None:
            return candidates
        return [
            candidate
            for candidate in candidates
            if buckets[_bucket(candidate, self.n_buckets)] >= threshold
        ]

    def _count_pass(
        self,
        transactions: list[Itemset],
        candidates: Sequence[Itemset],
        k: int,
        build_next_hash: bool,
    ) -> tuple[dict[Itemset, int], np.ndarray | None, list[Itemset]]:
        """Count C_k; optionally build ``H_{k+1}`` and trim transactions."""
        return _count_pass_core(
            transactions, candidates, k, build_next_hash,
            self.n_buckets, self.trim,
        )

    @staticmethod
    def _snapshot(
        result: MiningResult,
        frequent_prev: Sequence[Itemset],
        buckets: np.ndarray | None,
        transactions: list[Itemset],
    ) -> dict:
        """Exact loop state carried into the next level: on top of the
        Apriori state, DHP also rolls the live hash table and the
        trimmed transaction run forward."""
        return {
            "frequent": dict(result.frequent),
            "frequent_prev": list(frequent_prev),
            "levels": MiningCheckpointer.pack_levels(result),
            "buckets": (
                None if buckets is None
                else np.array(buckets, dtype=np.int64)
            ),
            "transactions": list(transactions),
        }

    # -- driver ------------------------------------------------------------

    def mine(
        self,
        database: TransactionDatabase,
        min_support: float | int,
    ) -> MiningResult:
        """Find all frequent itemsets of *database* at *min_support*."""
        threshold = resolve_min_support(database, min_support)
        result = MiningResult(
            frequent={},
            min_support=threshold,
            algorithm=self.name + self.pruner.label,
        )
        start = time.perf_counter()
        metrics = get_registry()
        ckpt = MiningCheckpointer.open(
            self.checkpoint_dir, self.resume, result.algorithm, threshold,
            database, n_buckets=self.n_buckets,
            hash_passes=self.hash_passes, trim=self.trim,
            max_level=self.max_level,
        )
        restored = ckpt.restored() if ckpt is not None else None

        # The pool is closed on every exit, a failed run's included:
        # its worker processes must not outlive the raise.
        pool = self._make_pool(database)
        with nullcontext() if pool is None else pool, trace(
            "dhp.mine",
            algorithm=result.algorithm,
            min_support=threshold,
            n_transactions=len(database),
        ):
            if restored is not None:
                k, state = restored
                result.frequent = dict(state["frequent"])
                frequent_prev: Sequence[Itemset] = list(state["frequent_prev"])
                MiningCheckpointer.unpack_levels(result, state["levels"])
                buckets = state["buckets"]
                transactions: list[Itemset] = list(state["transactions"])
            else:
                with trace("dhp.level", level=1):
                    level_crash_point()
                    with metrics.time("dhp.pass_one_seconds"):
                        if pool is not None:
                            supports, buckets = self._pass_one_parallel(
                                database, pool
                            )
                        else:
                            supports, buckets = self._pass_one(database)
                    level1 = result.level(1)
                    level1.candidates_generated = database.n_items
                    singletons = [(int(i),) for i in range(database.n_items)]
                    survivors1 = self.pruner.prune(singletons, threshold)
                    level1.candidates_pruned = (
                        len(singletons) - len(survivors1)
                    )
                    level1.candidates_counted = len(survivors1)
                    frequent_prev = []
                    for itemset in survivors1:
                        support = int(supports[itemset[0]])
                        if support >= threshold:
                            result.frequent[itemset] = support
                            frequent_prev.append(itemset)
                    level1.frequent = len(frequent_prev)
                    record_level_stats(self.name, level1)

                transactions = list(database)
                k = 1
                if ckpt is not None:
                    ckpt.save_level(
                        1,
                        self._snapshot(
                            result, frequent_prev, buckets, transactions
                        ),
                    )

            k += 1
            while frequent_prev and (
                self.max_level is None or k <= self.max_level
            ):
                with trace("dhp.level", level=k):
                    level_crash_point()
                    raw = apriori_gen(frequent_prev)
                    stats = result.level(k)
                    stats.candidates_generated = len(raw)
                    if not raw:
                        break
                    # OSSM first (Section 7 ordering), then the DHP
                    # hash filter.
                    survivors = self.pruner.prune(raw, threshold)
                    after_bound = len(survivors)
                    survivors = self._hash_filter(
                        survivors, buckets, threshold
                    )
                    metrics.inc(
                        "dhp.hash_filtered", after_bound - len(survivors)
                    )
                    stats.candidates_pruned = len(raw) - len(survivors)
                    stats.candidates_counted = len(survivors)
                    build_next = k + 1 <= self.hash_passes
                    with metrics.time("dhp.count_seconds"):
                        if pool is not None and transactions:
                            counts, buckets, transactions = (
                                self._count_pass_parallel(
                                    transactions, survivors, k,
                                    build_next, pool,
                                )
                            )
                        else:
                            counts, buckets, transactions = self._count_pass(
                                transactions, survivors, k, build_next
                            )
                    supports = ordered_supports(counts, survivors)
                    record_bound_gaps(self.pruner, survivors, supports)
                    frequent_prev = result.keep_frequent(survivors, supports)
                    stats.frequent = len(frequent_prev)
                    record_level_stats(self.name, stats)
                logger.debug(
                    "level %d: generated=%d pruned=%d counted=%d frequent=%d",
                    k, stats.candidates_generated, stats.candidates_pruned,
                    stats.candidates_counted, stats.frequent,
                )
                if ckpt is not None:
                    ckpt.save_level(
                        k,
                        self._snapshot(
                            result, frequent_prev, buckets, transactions
                        ),
                    )
                k += 1

        result.elapsed_seconds = time.perf_counter() - start
        return result


def dhp(
    database: TransactionDatabase,
    min_support: float | int,
    n_buckets: int = 32768,
    pruner: CandidatePruner | None = None,
    **kwargs,
) -> MiningResult:
    """Functional entry point mirroring :func:`repro.mining.apriori.apriori`."""
    miner = DHP(n_buckets=n_buckets, pruner=pruner, **kwargs)
    return miner.mine(database, min_support)
