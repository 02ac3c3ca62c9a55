"""Vertical bit-matrix support counting.

The transactions×items incidence matrix, packed bitwise: for every item
the counter stores a transaction bit-vector packed into ``uint64``
words, so the support of a candidate itemset is a bitwise AND reduction
over its item rows followed by a popcount — two vectorized numpy
kernels that release the GIL. This is the Eclat/tidset vertical layout
pushed all the way down to bits (see PAPERS.md: "Mining Frequent
Itemsets from Secondary Memory" uses the same packing out of core), and
it is what makes *thread* sharding profitable: shards are word-column
ranges of one shared read-only matrix, so fanning out moves no data at
all — no pickle, no fork, no shared-memory transport (see
:mod:`repro.parallel.threads` for the thread path).

Exactness is structural:

* the packed matrix is a bijective encoding of the incidence matrix —
  bit ``t`` of item row ``x`` is set iff transaction ``t`` contains
  ``x``;
* AND of the rows of an itemset sets exactly the bits of transactions
  containing *every* item (intersection of tidsets);
* popcount of that vector is the cardinality of the intersection — the
  support, with no arithmetic that could round or overflow (popcounts
  are summed in int64).

The packing is *segment-aligned*: when the counter knows the OSSM
segment composition, it materializes one packed mask per segment, so
per-segment supports — the OSSM matrix itself, and with it every
Equation (1) upper bound — fall out of the same AND+popcount pass
(:meth:`BitmapCounter.count_segments`, :meth:`BitmapCounter.to_ossm`).

``tests/mining/test_bitmap.py`` holds the differential battery proving
the counts bit-identical to every other engine; DESIGN.md §14 spells
out the word-level exactness argument.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence

import numpy as np

from ..core.itemset_table import as_array, domain_mask
from ..core.ossm import OSSM
from ..data.transactions import TransactionDatabase
from ..obs.metrics import get_registry
from ..obs.trace import trace
from .counting import SupportCounter, register_engine

__all__ = [
    "BitmapCounter",
    "PackedBitmap",
    "WORD_BITS",
    "pack_database",
    "popcount_reduce",
]

Itemset = tuple[int, ...]

#: Bits per packed word. Shard boundaries in the thread path are word
#: boundaries, so any partition of the word columns partitions the
#: transactions — the per-shard popcount reduce is exact by additivity.
WORD_BITS = 64

#: Candidate rows gathered per vectorized AND+popcount block. Bounds the
#: transient gather at ``block × n_words × 8`` bytes while keeping the
#: per-block python overhead negligible.
_CANDIDATE_BLOCK = 256


def _range_mask(n_words: int, lo: int, hi: int) -> np.ndarray:
    """Packed word mask selecting the transactions in ``[lo, hi)``.

    Built through the same ``np.packbits`` pipeline as the item rows,
    so bit positions line up by construction regardless of platform
    byte order.
    """
    bits = np.zeros(n_words * WORD_BITS, dtype=np.uint8)
    bits[lo:hi] = 1
    return np.packbits(bits).view(np.uint64)


class PackedBitmap:
    """One database, packed: ``n_items × n_words`` uint64 bit rows.

    Immutable once built (the word matrix is marked read-only), which is
    what makes a single instance safely shareable across counting
    threads: every downstream kernel only reads.

    Parameters
    ----------
    words:
        The packed item rows; bit ``t`` of row ``x`` set iff transaction
        ``t`` contains item ``x``.
    n_transactions:
        Number of real transactions (the tail bits of the last word are
        zero padding).
    segment_bounds:
        Segment cut points ``[0, b1, ..., N]`` when the OSSM composition
        is known; ``(0, N)`` — one segment — otherwise.
    """

    def __init__(
        self,
        words: np.ndarray,
        n_transactions: int,
        segment_bounds: tuple[int, ...],
    ) -> None:
        self.words = words
        self.words.setflags(write=False)
        self.n_transactions = int(n_transactions)
        self.n_items = int(words.shape[0])
        self.n_words = int(words.shape[1])
        self.segment_bounds = segment_bounds
        self._segment_masks: np.ndarray | None = None
        self._segment_matrix: np.ndarray | None = None

    @property
    def n_segments(self) -> int:
        return len(self.segment_bounds) - 1

    @property
    def segment_sizes(self) -> tuple[int, ...]:
        return tuple(
            hi - lo
            for lo, hi in zip(self.segment_bounds, self.segment_bounds[1:])
        )

    def segment_masks(self) -> np.ndarray:
        """``n_segments × n_words`` packed masks, one per segment (lazy)."""
        if self._segment_masks is None:
            masks = np.zeros((self.n_segments, self.n_words), dtype=np.uint64)
            for index, (lo, hi) in enumerate(
                zip(self.segment_bounds, self.segment_bounds[1:])
            ):
                masks[index] = _range_mask(self.n_words, lo, hi)
            masks.setflags(write=False)
            self._segment_masks = masks
        return self._segment_masks

    def segment_matrix(self) -> np.ndarray:
        """Per-segment singleton supports — the OSSM matrix, one pass.

        Row ``s``, column ``x`` is the popcount of item row ``x`` under
        segment ``s``'s mask: exactly ``sup_s({x})``.
        """
        if self._segment_matrix is None:
            matrix = np.zeros(
                (self.n_segments, self.n_items), dtype=np.int64
            )
            masks = self.segment_masks()
            for index in range(self.n_segments):
                matrix[index] = np.bitwise_count(
                    self.words & masks[index]
                ).sum(axis=1, dtype=np.int64)
            matrix.setflags(write=False)
            self._segment_matrix = matrix
        return self._segment_matrix


def pack_database(
    database: TransactionDatabase,
    segment_sizes: Sequence[int] | None = None,
) -> PackedBitmap:
    """Pack *database* into its vertical bit matrix.

    *segment_sizes* (an OSSM segment composition) aligns the packing's
    segment masks; sizes inconsistent with the database — a map built
    from a different collection — are ignored rather than trusted.
    """
    n = len(database)
    n_words = (n + WORD_BITS - 1) // WORD_BITS
    words = np.zeros((database.n_items, n_words), dtype=np.uint64)
    if n and database.n_items:
        padded = n_words * WORD_BITS
        bits = np.zeros(padded, dtype=np.uint8)
        for item, tids in enumerate(database.vertical()):
            if len(tids) == 0:
                continue
            bits[tids] = 1
            words[item] = np.packbits(bits).view(np.uint64)
            bits[tids] = 0
    bounds: tuple[int, ...] = (0, n)
    if segment_sizes is not None and sum(segment_sizes) == n:
        cuts = [0]
        for size in segment_sizes:
            cuts.append(cuts[-1] + int(size))
        bounds = tuple(cuts)
    return PackedBitmap(words, n, bounds)


class BitmapCounter(SupportCounter):
    """Exact support counting over the packed vertical bit matrix.

    Parameters
    ----------
    segment_sizes:
        OSSM segment composition of the databases this counter will
        see. When given (and consistent), per-segment supports and
        Equation (1) bounds (:meth:`count_segments`, :meth:`to_ossm`,
        :meth:`upper_bounds`) come from the same packed matrix; when
        absent, those methods see a single segment. Counts are exact
        either way.

    The packing is paid once per database object and cached (the
    Apriori level loop counts the same database every level), guarded
    by a lock so concurrent :meth:`supports` calls from many threads pack
    once and then share the read-only matrix. The cache pins a strong
    reference to the bound database, so a recycled ``id`` can never
    alias a stale packing.
    """

    def __init__(self, segment_sizes: Sequence[int] | None = None) -> None:
        self.segment_sizes = (
            tuple(int(size) for size in segment_sizes)
            if segment_sizes is not None
            else None
        )
        self._lock = threading.Lock()
        self._database: TransactionDatabase | None = None
        self._packed: PackedBitmap | None = None

    # -- packing ---------------------------------------------------------

    def _pack(self, database: TransactionDatabase) -> PackedBitmap:
        packed = self._packed
        if packed is not None and database is self._database:
            return packed
        with self._lock:
            packed = self._packed
            if packed is not None and database is self._database:
                return packed
            registry = get_registry()
            with registry.time("bitmap.pack_seconds"):
                with trace(
                    "bitmap.pack",
                    transactions=len(database),
                    items=database.n_items,
                ):
                    packed = pack_database(database, self.segment_sizes)
            if registry.enabled:
                registry.inc("bitmap.packs")
            self._packed = packed
            self._database = database
            return packed

    # -- counting --------------------------------------------------------

    def supports(
        self,
        database: Iterable[Itemset] | TransactionDatabase,
        candidates: Sequence[Itemset],
    ) -> np.ndarray:
        with get_registry().time("counting.bitmap_seconds"):
            return self._supports(database, candidates)

    def _supports(
        self,
        database: Iterable[Itemset] | TransactionDatabase,
        candidates: Sequence[Itemset],
    ) -> np.ndarray:
        if not len(candidates):
            return np.zeros(0, dtype=np.int64)
        table = as_array(candidates)
        if not isinstance(database, TransactionDatabase):
            database = TransactionDatabase(database)
        n_transactions = len(database)
        if not table.shape[1]:
            # The empty itemset is contained in every transaction.
            return np.full(len(table), n_transactions, dtype=np.int64)
        supports = np.zeros(len(table), dtype=np.int64)
        if n_transactions:
            packed = self._pack(database)
            # Out-of-domain items occur in no transaction: those
            # candidates keep their 0 without touching the matrix.
            inside = domain_mask(table, packed.n_items)
            counted = table if inside is None else table[inside]
            if len(counted):
                with trace(
                    "bitmap.count",
                    candidates=len(counted),
                    k=table.shape[1],
                    words=packed.n_words,
                ):
                    found = self._candidate_counts(packed, counted)
                if inside is None:
                    return found
                supports[inside] = found
        return supports

    def _candidate_counts(
        self, packed: PackedBitmap, table: np.ndarray
    ) -> np.ndarray:
        """int64 support vector for an in-domain candidate table.

        The seam the thread path overrides
        (:class:`repro.parallel.threads.ThreadedBitmapCounter`): this
        serial body runs the reduction over the full word range.
        """
        return popcount_reduce(packed.words, table, 0, packed.n_words)

    # -- segment views ---------------------------------------------------

    def count_segments(
        self,
        database: Iterable[Itemset] | TransactionDatabase,
        candidates: Sequence[Itemset],
    ) -> np.ndarray:
        """Per-segment supports: ``n_segments × n_candidates`` int64.

        Column sums equal :meth:`supports` exactly (the segment masks
        partition the transaction bits). All candidates must be
        in-domain and share one cardinality ``k >= 1``.
        """
        if not isinstance(database, TransactionDatabase):
            database = TransactionDatabase(database)
        packed = self._pack(database)
        if not len(candidates):
            return np.zeros((packed.n_segments, 0), dtype=np.int64)
        table = as_array(candidates)
        if table.shape[1] == 0:
            raise ValueError("candidates must share one cardinality k >= 1")
        if table.min() < 0 or table.max() >= packed.n_items:
            raise ValueError("count_segments requires in-domain candidates")
        masks = packed.segment_masks()
        out = np.zeros((packed.n_segments, len(table)), dtype=np.int64)
        bitwise_and = np.bitwise_and
        bitwise_count = np.bitwise_count
        for lo in range(0, len(table), _CANDIDATE_BLOCK):
            block = table[lo:lo + _CANDIDATE_BLOCK]
            acc = packed.words[block[:, 0]].copy()
            for j in range(1, block.shape[1]):
                bitwise_and(acc, packed.words[block[:, j]], out=acc)
            for segment in range(packed.n_segments):
                out[segment, lo:lo + len(block)] = bitwise_count(
                    acc & masks[segment]
                ).sum(axis=1, dtype=np.int64)
        return out

    def to_ossm(self, database: Iterable[Itemset] | TransactionDatabase):
        """The OSSM of the packing's segment composition — same pass.

        Identical to ``build_from_database(db, bounds)`` row for row:
        each cell is the popcount of one item row under one segment
        mask, which *is* the per-segment singleton support.
        """
        if not isinstance(database, TransactionDatabase):
            database = TransactionDatabase(database)
        packed = self._pack(database)
        return OSSM(
            packed.segment_matrix(), segment_sizes=packed.segment_sizes
        )

    def upper_bounds(
        self,
        database: Iterable[Itemset] | TransactionDatabase,
        itemsets: Sequence[Sequence[int]],
    ) -> np.ndarray:
        """Equation (1) bounds from the packed matrix's segment view.

        Delegates the bound arithmetic to
        :meth:`repro.core.ossm.OSSM.upper_bounds`, so the values are
        byte-identical to the serial map's (including the documented
        exact pair fast path) and therefore exactly as sound.
        """
        return self.to_ossm(database).upper_bounds(itemsets)


def popcount_reduce(
    words: np.ndarray, table: np.ndarray, w_lo: int, w_hi: int
) -> np.ndarray:
    """AND-reduce + popcount of candidate rows over words ``[w_lo, w_hi)``.

    The workhorse kernel, shared by the serial path (full word range)
    and the thread shards (one word-column range each; word columns
    partition the transactions, so per-shard vectors sum to the exact
    global counts in int64). Runs in blocks of ``_CANDIDATE_BLOCK``
    candidate rows: the gather, the ANDs and the popcount are numpy
    kernels that release the GIL, which is why threads scale here.
    """
    totals = np.zeros(len(table), dtype=np.int64)
    if w_hi <= w_lo:
        return totals
    k = table.shape[1]
    bitwise_and = np.bitwise_and
    bitwise_count = np.bitwise_count
    for lo in range(0, len(table), _CANDIDATE_BLOCK):
        block = table[lo:lo + _CANDIDATE_BLOCK]
        acc = words[block[:, 0], w_lo:w_hi].copy()
        for j in range(1, k):
            bitwise_and(acc, words[block[:, j], w_lo:w_hi], out=acc)
        totals[lo:lo + len(block)] = bitwise_count(acc).sum(
            axis=1, dtype=np.int64
        )
    return totals


register_engine("bitmap", BitmapCounter)
