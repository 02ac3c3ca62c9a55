"""Candidate itemsets as one integer table.

An Apriori level holds tens of thousands of same-size candidates. As a
list of tuples every candidate is a separate Python object, and every
numpy consumer (Equation (1) bounds, the counting kernels) rebuilds an
array from it. :class:`ItemsetTable` keeps one level as a single
read-only ``(n, k)`` int64 array that flows from
:func:`~repro.mining.itemsets.apriori_gen` through pruning into
counting, while still behaving as a ``Sequence`` of sorted tuples for
every caller that wants one.

:func:`as_array` is the one conversion seam from any sequence of
itemsets to that array; it also owns the item-domain check of the
bound API.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import chain, compress
from typing import overload

import numpy as np

__all__ = [
    "ItemsetTable",
    "as_array",
    "cardinality",
    "domain_mask",
    "lexsort_rows",
    "select",
]

Itemset = tuple[int, ...]

#: Item ids below this come from the shared lookup, which therefore
#: never holds more than ~2 * 65536 ints (a few MB). Tables with larger
#: (or negative) ids build their tuples with ``tolist``.
_LOOKUP_LIMIT = 1 << 16

#: Object array of the Python ints ``0, 1, 2, ...``, grown on demand.
#: Tuples built from a table share these ints instead of allocating
#: one per cell, which keeps a 100k-candidate level's dict keys small.
_python_ints: np.ndarray = np.array([], dtype=object)

#: Rows turned into tuples per step of an iteration.
_ITER_BLOCK = 4096


def _int_lookup(size: int) -> np.ndarray:
    global _python_ints
    if len(_python_ints) < size:
        grown = max(size, 2 * len(_python_ints), 1024)
        _python_ints = np.array(list(range(grown)), dtype=object)
    return _python_ints


def _columns(block: np.ndarray, ints: np.ndarray | None) -> list[list[int]]:
    """The columns of *block* as lists of Python ints, taken from the
    shared lookup *ints* when given."""
    if ints is None:
        return [column.tolist() for column in block.T]
    return [ints[column].tolist() for column in block.T]


class ItemsetTable(Sequence[Itemset]):
    """An immutable sequence of same-size itemsets over one int64 array.

    Row ``i`` of :attr:`array` is itemset ``i``. Indexing returns a
    tuple, slicing and :meth:`compress` return tables, iteration yields
    tuples, and a table compares equal to any sequence holding the same
    tuples in the same order.
    """

    __slots__ = ("_array", "_basis")

    def __init__(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array, dtype=np.int64)
        if array.ndim != 2:
            raise ValueError("an itemset table is a 2-D (n, k) array")
        view = array.view()
        view.setflags(write=False)
        self._array = view
        self._basis: np.ndarray | None = None

    @classmethod
    def pairs_of(cls, basis: np.ndarray) -> ItemsetTable:
        """Pairs ``i < j`` of *basis* in condensed order (row ``i`` against
        every later row): level 2 over a sorted L1. Slicing and
        :meth:`compress` drop the basis."""
        basis = np.array(basis, dtype=np.int64)
        basis.setflags(write=False)
        rows, columns = np.broadcast_arrays(basis[:, None], basis)
        upper = ~np.tri(len(basis), dtype=bool)
        table = cls(np.column_stack((rows[upper], columns[upper])))
        table._basis = basis
        return table

    def __reduce__(self) -> tuple[object, tuple[np.ndarray]]:
        # Unpickled arrays come back writable; the constructors
        # re-freeze them, and a pairs table is rebuilt from its basis.
        if self._basis is not None:
            return ItemsetTable.pairs_of, (self._basis,)
        return ItemsetTable, (self._array,)

    @property
    def array(self) -> np.ndarray:
        """The read-only C-contiguous ``(n, k)`` int64 array."""
        return self._array

    @property
    def basis(self) -> np.ndarray | None:
        """The basis of a :meth:`pairs_of` table, else ``None``."""
        return self._basis

    def __len__(self) -> int:
        return int(self._array.shape[0])

    @overload
    def __getitem__(self, index: int) -> Itemset: ...

    @overload
    def __getitem__(self, index: slice) -> ItemsetTable: ...

    def __getitem__(self, index: int | slice) -> Itemset | ItemsetTable:
        if isinstance(index, slice):
            return ItemsetTable(self._array[index])
        return tuple(self._array[index].tolist())

    def __iter__(self) -> Iterator[Itemset]:
        array = self._array
        if not array.size:
            return iter([()] * len(array))
        high = int(array.max())
        ints = (
            _int_lookup(high + 1)
            if array.min() >= 0 and high < _LOOKUP_LIMIT else None
        )
        # Blocks keep the per-column lists small while the tuples are
        # consumed, e.g. into a counter's dict.
        return chain.from_iterable(
            zip(*_columns(array[lo:lo + _ITER_BLOCK], ints))
            for lo in range(0, len(array), _ITER_BLOCK)
        )

    def compress(self, mask: np.ndarray) -> ItemsetTable:
        """The rows where boolean *mask* is true, as a new table."""
        return ItemsetTable(self._array[np.asarray(mask, dtype=bool)])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ItemsetTable):
            return bool(np.array_equal(self._array, other._array))
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(other) == len(self) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        n, k = self._array.shape
        return f"ItemsetTable({n} itemsets of size {k})"


def as_array(
    itemsets: Sequence[Sequence[int]] | np.ndarray,
    n_items: int | None = None,
) -> np.ndarray:
    """*itemsets* as one ``(n, k)`` int64 array — the conversion seam.

    A table returns its own array without a copy. Any other sequence
    must hold itemsets of one cardinality (``ValueError`` otherwise).
    With *n_items*, every item id must lie in ``range(n_items)``: a
    negative id would silently index from the end of a matrix, so both
    directions raise the same ``ValueError``.
    """
    if isinstance(itemsets, ItemsetTable):
        array = itemsets.array
    elif isinstance(itemsets, np.ndarray):
        array = itemsets.astype(np.int64, copy=False)
        if array.ndim != 2:
            raise ValueError("itemsets must all share one cardinality")
    else:
        n = len(itemsets)
        k = len(itemsets[0]) if n else 0
        if any(len(itemset) != k for itemset in itemsets):
            raise ValueError("itemsets must all share one cardinality")
        array = np.fromiter(
            chain.from_iterable(itemsets), dtype=np.int64, count=n * k
        ).reshape(n, k)
    if n_items is not None and domain_mask(array, n_items) is not None:
        bad = array[(array < 0) | (array >= n_items)][0]
        raise ValueError(
            f"item id {int(bad)} is outside the item domain "
            f"[0, {n_items})"
        )
    return array


def cardinality(itemsets: Sequence[Itemset]) -> int:
    """Size of the itemsets of one same-size level; 0 when it is empty.

    Reads a table's shape, so it builds no tuple.
    """
    if not itemsets:
        return 0
    if isinstance(itemsets, ItemsetTable):
        return int(itemsets.array.shape[1])
    return len(itemsets[0])


def domain_mask(array: np.ndarray, n_items: int) -> np.ndarray | None:
    """Rows whose items all lie in ``range(n_items)``.

    ``None`` when every row does, so callers skip the in-domain copy in
    the common case.
    """
    if not array.size or (array.min() >= 0 and array.max() < n_items):
        return None
    inside: np.ndarray = ((array >= 0) & (array < n_items)).all(axis=1)
    return inside


def lexsort_rows(array: np.ndarray) -> np.ndarray | None:
    """Permutation sorting the rows lexicographically (as tuples sort).

    ``None`` when the rows are already in that order, which is how
    :func:`~repro.mining.itemsets.apriori_gen` emits them.
    """
    if len(array) < 2 or not array.shape[1]:
        return None
    before, after = array[:-1], array[1:]
    first = (before != after).argmax(axis=1)
    rows = np.arange(len(before))
    if bool(np.all(before[rows, first] <= after[rows, first])):
        return None
    order: np.ndarray = np.lexsort(array.T[::-1])
    return order


def select(itemsets: Sequence[Itemset], mask: np.ndarray) -> Sequence[Itemset]:
    """The itemsets where *mask* is true: a table stays a table."""
    if isinstance(itemsets, ItemsetTable):
        return itemsets.compress(mask)
    return list(compress(itemsets, mask.tolist()))
