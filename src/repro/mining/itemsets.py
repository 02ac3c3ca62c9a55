"""Itemset utilities: canonical ordering and Apriori candidate generation.

The candidate generator is the classical ``apriori-gen`` of Agrawal &
Srikant (1994): join frequent ``(k−1)``-itemsets sharing a ``(k−2)``
prefix, then prune joins with an infrequent ``(k−1)``-subset. All
itemsets are sorted tuples under the canonical item enumeration, so the
prefix join is a simple tuple comparison.

:func:`join_step` and :func:`prune_step` are the paper-literal tuple
versions; :func:`apriori_gen` computes the same candidates with numpy
and returns them as one :class:`~repro.core.itemset_table.ItemsetTable`.
"""

from __future__ import annotations

from itertools import combinations
from collections.abc import Iterable, Sequence

import numpy as np

from ..core.itemset_table import ItemsetTable, as_array, lexsort_rows

__all__ = [
    "apriori_gen",
    "join_step",
    "prune_step",
    "subsets_of_size",
    "is_canonical",
]

Itemset = tuple[int, ...]


def is_canonical(itemset: Sequence[int]) -> bool:
    """True iff *itemset* is strictly increasing (sorted, no repeats)."""
    return all(a < b for a, b in zip(itemset, itemset[1:]))


def subsets_of_size(itemset: Sequence[int], k: int) -> Iterable[Itemset]:
    """All size-*k* subsets of a canonical itemset, in canonical order."""
    return combinations(itemset, k)


def join_step(frequent: Sequence[Itemset]) -> list[Itemset]:
    """Join ``(k−1)``-itemsets sharing a ``(k−2)``-prefix into ``k``-itemsets.

    *frequent* must be sorted lexicographically (canonical tuples sort
    that way naturally); the output is then sorted too.
    """
    candidates: list[Itemset] = []
    n = len(frequent)
    for i in range(n):
        head = frequent[i]
        prefix = head[:-1]
        for j in range(i + 1, n):
            other = frequent[j]
            if other[:-1] != prefix:
                break  # sorted input: no later itemset shares the prefix
            candidates.append(head + (other[-1],))
    return candidates


def prune_step(
    candidates: Iterable[Itemset], frequent_prior: frozenset[Itemset] | set[Itemset]
) -> list[Itemset]:
    """Drop candidates with an infrequent ``(k−1)``-subset (monotonicity)."""
    survivors = []
    for candidate in candidates:
        if all(
            subset in frequent_prior
            for subset in combinations(candidate, len(candidate) - 1)
        ):
            survivors.append(candidate)
    return survivors


def apriori_gen(frequent_prior: Iterable[Itemset]) -> ItemsetTable:
    """Classical apriori-gen: join then subset-prune.

    Takes the frequent ``(k−1)``-itemsets, returns the candidate
    ``k``-itemsets, sorted lexicographically — exactly
    ``prune_step(join_step(sorted(L)), frozenset(L))``, as a table.
    """
    if not isinstance(frequent_prior, Sequence):
        frequent_prior = list(frequent_prior)
    prior = as_array(frequent_prior)
    order = lexsort_rows(prior)
    if order is not None:
        prior = prior[order]
    width = prior.shape[1]
    if not width:
        return ItemsetTable(np.zeros((0, width + 1), dtype=np.int64))
    if width == 1:  # level 2: all pairs of L1 join, none is pruned
        return ItemsetTable.pairs_of(prior[:, 0])
    left, right = _join(prior)
    # Dropping either of the last two items gives back a joined row, so
    # only the subsets missing one of the first k − 2 items need a test.
    if len(left):
        keep = _subsets_frequent(prior, left, right)
        left, right = left[keep], right[keep]
    return ItemsetTable(_joined_rows(prior, left, right))


def _join(prior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs ``(i, j)``, ``i < j`` in one prefix run, in join order.

    *prior* is lexicographically sorted, so rows sharing a
    ``(k−2)``-prefix are contiguous and ``prior[i] + (prior[j][-1],)``
    comes out sorted.
    """
    n = len(prior)
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (prior[1:, :-1] != prior[:-1, :-1]).any(axis=1)
    run_ends = np.append(np.flatnonzero(new_run)[1:], n)
    partners = run_ends[np.cumsum(new_run) - 1] - np.arange(n) - 1
    left = np.repeat(np.arange(n), partners)
    firsts = np.cumsum(partners) - partners
    right = left + 1 + np.arange(len(left)) - np.repeat(firsts, partners)
    return left, right


def _joined_rows(
    prior: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """The candidates ``prior[left] + (prior[right][-1],)``."""
    width = prior.shape[1]
    joined = np.empty((len(left), width + 1), dtype=np.int64)
    joined[:, :width] = prior.take(left, axis=0)
    joined[:, width] = prior[:, -1].take(right)
    return joined


#: Largest key a mixed-radix encoding may form.
_INT64_MAX = int(np.iinfo(np.int64).max)

#: Most cells of the dense membership table (one byte each, ≤ 1 MB), and
#: the bound below which item ids are renumbered through a lookup table
#: (eight bytes an id, ≤ 8 MB).
_DENSE_CELLS = 1 << 20


def _subsets_frequent(
    prior: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Mask of the joined rows ``prior[left] + (prior[right][-1],)``
    whose subsets without one of the first ``k − 2`` items are in
    *prior*.

    The subsets' keys come from the joined columns without forming the
    subsets: dropping column ``j`` of ``prior[left]`` gives a per-row
    key of *prior*, and the last item is one more digit. Ids are first
    renumbered to dense ranks (which keeps the order), so the ``base``
    is the number of distinct items. The keys are then tested in a
    dense table when ``base ** width`` cells are few, and by
    ``searchsorted`` otherwise; when the keys could overflow int64 (or
    an id is negative), exact row ranks replace them.
    """
    width = prior.shape[1]
    digits, base = _dense_digits(prior)
    if base is None or base ** width > _INT64_MAX:
        joined = _joined_rows(prior, left, right)
        subsets = [np.delete(joined, j, axis=1) for j in range(width - 1)]
        prior_keys, *subset_keys = _rank_keys([prior, *subsets])
        return _in_sorted(prior_keys, subset_keys)
    columns = list(digits.T)
    last = columns[-1][right]
    subset_keys = []
    for j in range(width - 1):
        keys = _radix_keys(columns[:j] + columns[j + 1:], base)[left]
        keys *= base
        keys += last
        subset_keys.append(keys)
    prior_keys = _radix_keys(columns, base)
    if base ** width > _DENSE_CELLS:
        return _in_sorted(prior_keys, subset_keys)
    table = np.zeros(base ** width, dtype=bool)
    table[prior_keys] = True
    keep = table[subset_keys[0]]
    for keys in subset_keys[1:]:
        keep &= table[keys]
    return keep


def _dense_digits(prior: np.ndarray) -> tuple[np.ndarray, int | None]:
    """*prior* with ids renumbered ``0 … base − 1``, order kept.

    Ids too large for a lookup table stay as they are, with
    ``base = max_id + 1``; a negative id gives ``base = None``.
    """
    if prior.min() < 0:
        return prior, None
    base = int(prior.max()) + 1
    if base > _DENSE_CELLS:
        return prior, base
    present = np.zeros(base, dtype=bool)
    present[prior] = True
    ranks = np.cumsum(present) - 1
    return ranks[prior], int(ranks[-1]) + 1


def _radix_keys(columns: list[np.ndarray], base: int) -> np.ndarray:
    """Row keys read as digits of *base*, most significant column first:
    lexicographic row order is key order, and no two rows collide."""
    key = columns[0].astype(np.int64)
    for column in columns[1:]:
        key *= base
        key += column
    return key


def _in_sorted(
    prior_keys: np.ndarray, subset_keys: list[np.ndarray]
) -> np.ndarray:
    """Mask of the rows whose every subset key is in the sorted
    *prior_keys*."""
    keep = np.ones(len(subset_keys[0]), dtype=bool)
    for keys in subset_keys:
        at = np.searchsorted(prior_keys, keys)
        np.minimum(at, len(prior_keys) - 1, out=at)
        keep &= prior_keys[at] == keys
    return keep


def _rank_keys(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Exact int64 row keys for any ids: the dense ranks of the rows
    under one lexsort. Equal rows get equal keys, and the keys of a
    sorted array are non-decreasing. Never a hash, so no two distinct
    rows can collide."""
    rows = np.concatenate(arrays)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new_row = np.ones(len(rows), dtype=bool)
    new_row[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ranks = np.empty(len(rows), dtype=np.int64)
    ranks[order] = np.cumsum(new_row)
    return np.split(ranks, np.cumsum([len(a) for a in arrays])[:-1])
