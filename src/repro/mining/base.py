"""Shared types for the mining algorithms.

Every miner returns a :class:`MiningResult`: the frequent itemsets with
their exact supports plus per-level accounting — candidates generated,
candidates pruned by the OSSM (or another pruner) *before* counting,
and candidates actually counted. The accounting is what the paper's
Figure 4(b) and the Section 7 table report.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from ..core.itemset_table import (
    ItemsetTable,
    cardinality,
    lexsort_rows,
    select,
)
from ..data.transactions import TransactionDatabase

__all__ = [
    "LevelStats",
    "MiningResult",
    "as_itemset",
    "resolve_min_count",
    "resolve_min_support",
]

Itemset = tuple[int, ...]


def resolve_min_count(total: int, min_support: float | int) -> int:
    """Normalize a support threshold to an absolute count out of *total*.

    Floats in ``(0, 1]`` are relative thresholds (the way the paper
    quotes "1 %"); ints are absolute counts. The result is at least 1:
    a pattern must occur to be frequent.
    """
    if isinstance(min_support, bool):
        raise TypeError("min_support must be a number, not bool")
    if isinstance(min_support, float):
        if not 0.0 < min_support <= 1.0:
            raise ValueError("relative min_support must lie in (0, 1]")
        import math

        return max(1, math.ceil(min_support * total))
    if min_support < 1:
        raise ValueError("absolute min_support must be >= 1")
    return int(min_support)


def resolve_min_support(
    database: TransactionDatabase, min_support: float | int
) -> int:
    """:func:`resolve_min_count` against a transaction database's size."""
    return resolve_min_count(len(database), min_support)


@dataclass
class LevelStats:
    """Candidate accounting for one level (itemset cardinality).

    ``candidates_generated`` counts the raw output of candidate
    generation; ``candidates_pruned`` how many of those a pruner (the
    OSSM, a DHP hash table, …) removed before counting;
    ``candidates_counted`` how many were actually frequency-counted
    against the data; ``frequent`` how many turned out frequent.
    """

    level: int
    candidates_generated: int = 0
    candidates_pruned: int = 0
    candidates_counted: int = 0
    frequent: int = 0


class MiningResult:
    """Frequent itemsets plus the per-level cost accounting.

    Attributes
    ----------
    frequent:
        Mapping from itemset (sorted tuple) to exact support. A
        level-wise miner that keeps its levels with
        :meth:`keep_frequent` on a result made with ``frequent=None``
        builds no tuple while it mines: the mapping is built from the
        kept levels on first read, and every later read returns that
        same dict (edits to it persist).
    min_support:
        The absolute threshold used.
    algorithm:
        Name of the miner (``"apriori"``, ``"dhp"``, …) plus any
        pruner suffix (``"apriori+ossm"``).
    elapsed_seconds:
        Wall-clock mining time (the paper's "runtime of Apriori with or
        without the OSSM").
    levels:
        Per-cardinality accounting, index 0 unused (levels start at 1).
    """

    def __init__(
        self,
        frequent: dict[Itemset, int] | None,
        min_support: int,
        algorithm: str,
        elapsed_seconds: float = 0.0,
        levels: list[LevelStats] | None = None,
    ) -> None:
        self._frequent: dict[Itemset, int] | None = frequent
        # Kept levels (itemsets, supports) not yet in a dict; only used
        # while ``_frequent`` is None.
        self._kept: list[tuple[Sequence[Itemset], np.ndarray]] = []
        self.min_support = min_support
        self.algorithm = algorithm
        self.elapsed_seconds = elapsed_seconds
        self.levels = levels if levels is not None else []

    def __repr__(self) -> str:
        return (
            f"MiningResult(algorithm={self.algorithm!r}, "
            f"min_support={self.min_support}, "
            f"n_frequent={self.n_frequent}, levels={len(self.levels)})"
        )

    @property
    def frequent(self) -> dict[Itemset, int]:
        if self._frequent is None:
            frequent: dict[Itemset, int] = {}
            for itemsets, supports in self._kept:
                frequent.update(zip(itemsets, supports.tolist()))
            self._frequent = frequent
            self._kept = []
        return self._frequent

    @frequent.setter
    def frequent(self, frequent: dict[Itemset, int]) -> None:
        self._frequent, self._kept = frequent, []

    def level(self, k: int) -> LevelStats:
        """Stats of level *k* (>= 1), creating empty levels as needed.

        Raises
        ------
        ValueError
            If ``k < 1`` — levels are 1-indexed cardinalities; an
            invalid index must not silently grow the level list.
        """
        if k < 1:
            raise ValueError(f"level must be >= 1, got {k}")
        while len(self.levels) < k:
            self.levels.append(LevelStats(level=len(self.levels) + 1))
        return self.levels[k - 1]

    def keep_frequent(
        self, counted: Sequence[Itemset], supports: np.ndarray
    ) -> Sequence[Itemset]:
        """Record the *counted* itemsets whose support reaches
        ``min_support`` and return them.

        *supports* is aligned with *counted*. A table stays a table, in
        its row order, so a lex-sorted level feeds the next
        ``apriori_gen`` as it is. Until ``frequent`` is first read the
        level is kept as it is, with its supports, and no tuple is
        built; after that it goes straight into the dict.
        """
        keep = supports >= self.min_support
        frequent = select(counted, keep)
        if self._frequent is not None:
            self._frequent.update(zip(frequent, supports[keep].tolist()))
        elif frequent:
            self._kept.append((frequent, supports[keep]))
        return frequent

    def itemsets_of_size(self, k: int) -> dict[Itemset, int]:
        """Frequent itemsets of cardinality *k* with their supports."""
        if self._frequent is None:
            return {
                itemset: support
                for itemsets, supports in self._kept
                if cardinality(itemsets) == k
                for itemset, support in zip(itemsets, supports.tolist())
            }
        return {
            itemset: support
            for itemset, support in self._frequent.items()
            if len(itemset) == k
        }

    @property
    def n_frequent(self) -> int:
        """Total number of frequent itemsets found."""
        if self._frequent is None:
            return sum(len(itemsets) for itemsets, _ in self._kept)
        return len(self._frequent)

    @property
    def max_level(self) -> int:
        """Largest cardinality with at least one frequent itemset."""
        if self._frequent is None:
            return max(
                (cardinality(itemsets) for itemsets, _ in self._kept),
                default=0,
            )
        return max((len(itemset) for itemset in self._frequent), default=0)

    def candidates_counted(self, k: int | None = None) -> int:
        """Candidates actually counted, at level *k* or in total."""
        if k is not None:
            return self.level(k).candidates_counted if k <= len(self.levels) else 0
        return sum(stats.candidates_counted for stats in self.levels)

    def candidates_generated(self, k: int | None = None) -> int:
        """Candidates generated, at level *k* or in total."""
        if k is not None:
            return self.level(k).candidates_generated if k <= len(self.levels) else 0
        return sum(stats.candidates_generated for stats in self.levels)

    def same_itemsets(self, other: "MiningResult") -> bool:
        """True iff two results found exactly the same itemsets+supports."""
        return self.frequent == other.frequent

    def sorted_itemsets(
        self, limit: int | None = None
    ) -> list[tuple[Itemset, int]]:
        """Itemsets sorted by (size, lexicographic) for stable output;
        the first *limit* of them when given.

        Kept levels of increasing size are each sorted on their own and
        concatenated, so only the returned itemsets become tuples.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        kept = self._kept
        widths = [cardinality(itemsets) for itemsets, _ in kept]
        if self._frequent is not None or widths != sorted(set(widths)):
            ordered = sorted(
                self.frequent.items(), key=lambda kv: (len(kv[0]), kv[0])
            )
            return ordered if limit is None else ordered[:limit]
        out: list[tuple[Itemset, int]] = []
        for itemsets, supports in kept:
            if limit is not None and len(out) >= limit:
                break
            end = None if limit is None else limit - len(out)
            if isinstance(itemsets, ItemsetTable):
                order = lexsort_rows(itemsets.array)
                if order is not None:
                    itemsets = ItemsetTable(itemsets.array[order])
                    supports = supports[order]
                out += zip(itemsets[:end], supports[:end].tolist())
            else:
                out += sorted(zip(itemsets, supports.tolist()))[:end]
        return out


def as_itemset(items: Iterable[int]) -> Itemset:
    """Canonical (sorted, deduplicated) itemset tuple."""
    return tuple(sorted(set(int(i) for i in items)))
