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
    joined = _join(prior)
    # Dropping either of the last two items gives back a joined row, so
    # only the subsets missing one of the first k − 2 items need a test.
    if len(joined):
        subsets = [np.delete(joined, j, axis=1) for j in range(width - 1)]
        prior_keys, *subset_keys = _row_keys(prior, subsets)
        keep = np.ones(len(joined), dtype=bool)
        for keys in subset_keys:
            at = np.searchsorted(prior_keys, keys)
            np.minimum(at, len(prior_keys) - 1, out=at)
            keep &= prior_keys[at] == keys
        joined = joined[keep]
    return ItemsetTable(joined)


def _join(prior: np.ndarray) -> np.ndarray:
    """Rows ``prior[i] + (prior[j][-1],)`` for ``i < j`` in one prefix run.

    *prior* is lexicographically sorted, so rows sharing a
    ``(k−2)``-prefix are contiguous and the output comes out sorted.
    """
    n, width = prior.shape
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = (prior[1:, :-1] != prior[:-1, :-1]).any(axis=1)
    run_ends = np.append(np.flatnonzero(new_run)[1:], n)
    partners = run_ends[np.cumsum(new_run) - 1] - np.arange(n) - 1
    left = np.repeat(np.arange(n), partners)
    firsts = np.cumsum(partners) - partners
    right = left + 1 + np.arange(len(left)) - np.repeat(firsts, partners)
    joined = np.empty((len(left), width + 1), dtype=np.int64)
    joined[:, :width] = prior[left]
    joined[:, width] = prior[right, width - 1]
    return joined


#: Largest key :func:`_row_keys` may form by mixed-radix encoding.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _row_keys(prior: np.ndarray, others: list[np.ndarray]) -> list[np.ndarray]:
    """Exact int64 row keys: equal rows get equal keys, and the keys of
    the sorted *prior* are non-decreasing, so ``searchsorted`` on them
    is a membership test.

    Small ids are read as digits of base ``max_item + 1``; when that
    number could overflow int64 (or an id is negative), the keys are
    the dense ranks of the rows under one lexsort instead. Never a
    hash, so no two distinct rows can collide.
    """
    arrays = [prior, *others]
    base = int(prior.max()) + 1
    if prior.min() >= 0 and base ** prior.shape[1] <= _INT64_MAX:
        keys = []
        for array in arrays:
            key = array[:, 0].copy()
            for column in array.T[1:]:
                key *= base
                key += column
            keys.append(key)
        return keys
    rows = np.concatenate(arrays)
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new_row = np.ones(len(rows), dtype=bool)
    new_row[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ranks = np.empty(len(rows), dtype=np.int64)
    ranks[order] = np.cumsum(new_row)
    return np.split(ranks, np.cumsum([len(a) for a in arrays])[:-1])
