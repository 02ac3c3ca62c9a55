"""The Optimized Segment Support Map (OSSM) structure.

An OSSM over a collection partitioned into ``n`` segments stores the
per-segment support of every *singleton* item — an ``n × m`` integer
matrix. For an arbitrary itemset ``X`` it yields the Equation (1) upper
bound on support::

    sup_hat(X, Omega_n) = sum_i  min_{x in X} sup_i({x})

which is sound (``>=`` the true support) by monotonicity and collapses
to the classic "min of global item supports" bound at ``n = 1``. More
segments can only tighten the bound (refinement monotonicity), and at
one-transaction-per-segment it is exact.

The OSSM is *query-independent*: built once at compile time, usable at
any support threshold — unlike DHP's hash table or the FP-tree.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence

import numpy as np
from numpy.typing import DTypeLike

from ..data.pages import PagedDatabase
from ..data.transactions import TransactionDatabase
from ..resilience import CorruptArtifact, atomic_savez, verified_load_npz
from .itemset_table import ItemsetTable, as_array, select

__all__ = [
    "OSSM", "build_from_pages", "build_from_database", "check_supports",
    "sort_dtype",
]

#: Cell width (bytes) used for the paper's storage accounting. The
#: paper's sizes (0.2 MB at 100 segments x 1000 items) correspond to
#: 2-byte cells.
NOMINAL_CELL_BYTES = 2

#: Bytes of running minimum (candidates x segments x cell width) per
#: block of the gathered bound reduction, so a block stays in cache.
#: With uint16 cells, 256 KB beat 128 KB and 512 KB at ``alarms-deep``
#: levels 3-4 (EXPERIMENTS.md "Integer bound kernels").
_BOUND_BLOCK_BYTES = 256 << 10


def sort_dtype(high: int) -> DTypeLike:
    """Narrowest dtype that holds non-negative values up to *high*."""
    if high <= np.iinfo(np.uint16).max:
        return np.uint16
    if high <= np.iinfo(np.uint32).max:
        return np.uint32
    return np.int64


def check_supports(matrix: np.ndarray) -> None:
    """Supports are counts: reject negative or fractional entries."""
    if matrix.size and matrix.min() < 0:
        raise ValueError("segment supports must be non-negative")
    if not np.issubdtype(matrix.dtype, np.integer):
        if not np.all(matrix == matrix.astype(np.int64)):
            raise ValueError("segment supports must be integral")


class OSSM:
    """Segment support map: ``n_segments × n_items`` singleton supports.

    Instances are immutable; all mutating operations return new maps.
    The map is stored once, item-major, in the narrowest unsigned dtype
    that holds its largest item total (:func:`sort_dtype`). An Equation
    (1) bound is a sum of per-segment minima, so it never exceeds one
    item's total: every min and every running sum is exact in that
    dtype. Public results (``matrix``, supports, bounds) are int64.

    Parameters
    ----------
    segment_supports:
        Integer matrix; row ``i``, column ``x`` is ``sup_i({x})``, the
        support of item ``x`` inside segment ``i``.
    segment_sizes:
        Optional per-segment transaction counts. Used only for
        reporting; ``None`` if unknown.
    epoch:
        Ingestion epoch of the map (default 0). Every operation that
        grows the underlying collection — ``extend_ossm``, a
        :class:`~repro.core.incremental.StreamingOSSMBuilder` snapshot
        — produces a map with a strictly larger epoch, so downstream
        caches (the serving layer's bound cache) can detect staleness
        with a single integer comparison. Pure reshapes of the *same*
        collection (``merge_segments``, ``restrict_items``) inherit
        the epoch unchanged. The epoch never participates in
        ``__eq__``: two maps over identical data are equal regardless
        of ingestion history.
    """

    def __init__(
        self,
        segment_supports: np.ndarray,
        segment_sizes: Sequence[int] | None = None,
        epoch: int = 0,
    ) -> None:
        matrix = np.asarray(segment_supports)
        if matrix.ndim != 2:
            raise ValueError("segment_supports must be a 2-D matrix")
        check_supports(matrix)
        exact = matrix.astype(np.int64, copy=False)
        totals = exact.sum(axis=0)
        dtype = sort_dtype(int(totals.max()) if totals.size else 0)
        # Item-major rows are contiguous per item: a gather reads whole rows.
        self._by_item = exact.T.astype(dtype, order="C")
        self._by_item.setflags(write=False)
        if segment_sizes is not None:
            sizes = tuple(int(s) for s in segment_sizes)
            if len(sizes) != exact.shape[0]:
                raise ValueError("segment_sizes length must equal n_segments")
            self._sizes: tuple[int, ...] | None = sizes
        else:
            self._sizes = None
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        self._epoch = int(epoch)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_segments(cls, segments: Iterable[TransactionDatabase]) -> "OSSM":
        """Build an OSSM whose segments are the given databases."""
        segments = list(segments)
        if not segments:
            raise ValueError("need at least one segment")
        n_items = max(segment.n_items for segment in segments)
        rows = np.zeros((len(segments), n_items), dtype=np.int64)
        for i, segment in enumerate(segments):
            supports = segment.item_supports()
            rows[i, : len(supports)] = supports
        return cls(rows, segment_sizes=[len(s) for s in segments])

    @classmethod
    def single_segment(cls, database: TransactionDatabase) -> "OSSM":
        """The degenerate 1-segment OSSM (global item supports only)."""
        return cls(
            database.item_supports()[np.newaxis, :],
            segment_sizes=[len(database)],
        )

    # -- shape -------------------------------------------------------------

    @property
    def n_segments(self) -> int:
        """Number of segments (``n`` in the paper)."""
        return self._by_item.shape[1]

    @property
    def n_items(self) -> int:
        """Size of the item domain (``m`` in the paper)."""
        return self._by_item.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The ``n × m`` segment-support matrix: a read-only int64 copy
        of the stored map, built on each access."""
        matrix = self._by_item.T.astype(np.int64, order="C")
        matrix.setflags(write=False)
        return matrix

    @property
    def segment_sizes(self) -> tuple[int, ...] | None:
        """Transactions per segment, if known."""
        return self._sizes

    @property
    def epoch(self) -> int:
        """Ingestion epoch; grows whenever the collection grows."""
        return self._epoch

    def __repr__(self) -> str:
        return f"OSSM({self.n_segments} segments x {self.n_items} items)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OSSM):
            return NotImplemented
        return (
            self._by_item.shape == other._by_item.shape
            and bool(np.array_equal(self._by_item, other._by_item))
        )

    # -- storage accounting --------------------------------------------------

    def nbytes(self) -> int:
        """Actual in-memory size of the stored (narrow) support map."""
        return int(self._by_item.nbytes)

    def nominal_size_bytes(self, cell_bytes: int = NOMINAL_CELL_BYTES) -> int:
        """Size under the paper's accounting (2-byte cells by default).

        At 100 segments × 1000 items this is ~0.2 MB, matching
        Section 6.2's "the OSSM consumes only about 0.2 megabytes".
        """
        return self.n_segments * self.n_items * cell_bytes

    # -- supports and bounds -------------------------------------------------

    def item_supports(self) -> np.ndarray:
        """Global singleton supports (exact; column sums)."""
        return self._by_item.sum(axis=1, dtype=np.int64)

    def upper_bound(self, itemset: Iterable[int]) -> int:
        """Equation (1) upper bound on the support of *itemset*.

        The empty itemset is contained in every transaction; its bound
        is the total transaction count when segment sizes are known and
        otherwise the best available surrogate (sum of per-segment max
        item supports).
        """
        items = list(itemset)
        if not items:
            if self._sizes is not None:
                return int(sum(self._sizes))
            if not self.n_items:
                return 0
            return int(self._by_item.max(axis=0).sum(dtype=np.int64))
        rows = self._by_item[as_array((items,), self.n_items)[0]]
        return int(rows.min(axis=0).sum(dtype=rows.dtype))

    def upper_bounds(
        self, itemsets: Sequence[Sequence[int]] | np.ndarray
    ) -> np.ndarray:
        """Vectorized Equation (1) bounds for many same-size itemsets.

        All itemsets must have the same cardinality (the common case:
        one Apriori level), and every item id must lie in
        ``range(n_items)``. Returns an int64 vector aligned with
        *itemsets*.
        """
        if isinstance(itemsets, ItemsetTable) and itemsets.basis is not None:
            return self._triangle_bounds(itemsets.basis)
        candidates = as_array(itemsets, self.n_items)
        n, k = candidates.shape
        if not k:
            return np.full(n, self.upper_bound(()), dtype=np.int64)
        # The min runs in place over one block at a time, and reads and
        # sums in the stored dtype.
        by_item = self._by_item
        row_bytes = max(1, self.n_segments * by_item.itemsize)
        block = max(1, _BOUND_BLOCK_BYTES // row_bytes)
        bounds = np.empty(n, dtype=by_item.dtype)
        for lo in range(0, n, block):
            rows = candidates[lo:lo + block]
            acc = by_item[rows[:, 0]]
            for j in range(1, k):
                np.minimum(acc, by_item[rows[:, j]], out=acc)
            acc.sum(axis=1, dtype=by_item.dtype, out=bounds[lo:lo + len(rows)])
        return bounds.astype(np.int64)

    def _triangle_bounds(self, basis: np.ndarray) -> np.ndarray:
        """Bounds of ``ItemsetTable.pairs_of(basis)``: row ``i`` of the
        basis against every later row, in the table's condensed order."""
        as_array(basis[:, None], self.n_items)  # the item-domain check
        columns = self._by_item[basis]
        size = len(basis)
        bounds = np.empty(size * (size - 1) // 2, dtype=columns.dtype)
        start = 0
        for i in range(size - 1):
            stop = start + size - 1 - i
            np.minimum(columns[i], columns[i + 1:]).sum(
                axis=1, dtype=columns.dtype, out=bounds[start:stop]
            )
            start = stop
        return bounds.astype(np.int64)

    def prune(
        self, itemsets: Sequence[tuple[int, ...]], min_support: int
    ) -> tuple[Sequence[tuple[int, ...]], np.ndarray]:
        """Split candidates into survivors and a keep-mask by bound.

        Returns ``(survivors, mask)`` where ``mask[i]`` is True iff the
        Equation (1) bound of ``itemsets[i]`` reaches *min_support* —
        i.e. the candidate still needs real frequency counting. An
        :class:`~repro.core.itemset_table.ItemsetTable` yields a table
        of its surviving rows; any other sequence yields a list.
        """
        mask = self.upper_bounds(itemsets) >= int(min_support)
        return select(itemsets, mask), mask

    # -- reshaping -----------------------------------------------------------

    def merge_segments(self, groups: Sequence[Sequence[int]]) -> "OSSM":
        """Coarsen: sum the rows of each group into a single segment.

        *groups* must partition ``range(n_segments)``. This is the
        Lemma 1 merge operation lifted to whole groups.
        """
        seen = sorted(i for group in groups for i in group)
        if seen != list(range(self.n_segments)):
            raise ValueError("groups must partition range(n_segments)")
        by_item = self._by_item
        rows = np.vstack(
            [by_item[:, list(g)].sum(axis=1, dtype=np.int64) for g in groups]
        )
        sizes = None
        if self._sizes is not None:
            sizes = [
                sum(self._sizes[i] for i in group) for group in groups
            ]
        return OSSM(rows, segment_sizes=sizes, epoch=self._epoch)

    def restrict_items(self, items: Sequence[int]) -> "OSSM":
        """Project the map onto a subset of item columns (bubble list)."""
        return OSSM(
            self._by_item[list(items)].T,
            segment_sizes=self._sizes,
            epoch=self._epoch,
        )

    # -- persistence -----------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        """Persist the map as a compressed ``.npz`` archive.

        Written atomically (temp + fsync + rename) with an embedded
        format version and CRC32, so :meth:`load` can tell a damaged
        file from a valid one and a crash mid-save can never leave a
        torn archive at *path*. The ``n × m`` matrix is written in the
        stored (narrow) dtype.
        """
        payload: dict[str, np.ndarray] = {
            "matrix": np.ascontiguousarray(self._by_item.T)
        }
        if self._sizes is not None:
            payload["sizes"] = np.asarray(self._sizes, dtype=np.int64)
        if self._epoch:
            payload["epoch"] = np.asarray(self._epoch, dtype=np.int64)
        atomic_savez(path, payload, kind="ossm", fault_base="io.ossm")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "OSSM":
        """Load a map written by :meth:`save`.

        Raises :class:`~repro.resilience.errors.CorruptArtifact` on
        damaged bytes and
        :class:`~repro.resilience.errors.IntegrityError` on a wrong
        artifact kind or future format version; archives written before
        the integrity format, and int64 matrices, still load.
        """
        payload = verified_load_npz(path, kind="ossm")
        if "matrix" not in payload:
            raise CorruptArtifact(path, "missing 'matrix' array")
        matrix = payload["matrix"]
        sizes = payload.get("sizes")
        epoch = int(payload["epoch"]) if "epoch" in payload else 0
        return cls(matrix, segment_sizes=sizes, epoch=epoch)


def build_from_pages(
    paged: PagedDatabase, groups: Sequence[Sequence[int]]
) -> OSSM:
    """Build an OSSM from a paged database and a page partition."""
    matrix = paged.segment_supports(groups)
    lengths = paged.page_lengths()
    sizes = [int(sum(lengths[p] for p in group)) for group in groups]
    return OSSM(matrix, segment_sizes=sizes)


def build_from_database(
    database: TransactionDatabase, boundaries: Sequence[int]
) -> OSSM:
    """Build an OSSM from contiguous transaction ranges.

    *boundaries* are cut points: ``[0, b1, ..., N]``; segment ``i`` holds
    transactions ``[boundaries[i], boundaries[i+1])``.
    """
    if list(boundaries) != sorted(boundaries):
        raise ValueError("boundaries must be non-decreasing")
    if not boundaries or boundaries[0] != 0 or boundaries[-1] != len(database):
        raise ValueError("boundaries must start at 0 and end at len(database)")
    segments = [
        database[lo:hi] for lo, hi in zip(boundaries, boundaries[1:])
    ]
    return OSSM.from_segments(segments)
