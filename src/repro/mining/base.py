"""Shared types for the mining algorithms.

Every miner returns a :class:`MiningResult`: the frequent itemsets with
their exact supports plus per-level accounting — candidates generated,
candidates pruned by the OSSM (or another pruner) *before* counting,
and candidates actually counted. The accounting is what the paper's
Figure 4(b) and the Section 7 table report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from ..core.itemset_table import select
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


@dataclass
class MiningResult:
    """Frequent itemsets plus the per-level cost accounting.

    Attributes
    ----------
    frequent:
        Mapping from itemset (sorted tuple) to exact support.
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

    frequent: dict[Itemset, int]
    min_support: int
    algorithm: str
    elapsed_seconds: float = 0.0
    levels: list[LevelStats] = field(default_factory=list)

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
        ``apriori_gen`` as it is; tuples are built once, as the
        ``frequent`` keys.
        """
        keep = supports >= self.min_support
        frequent = select(counted, keep)
        self.frequent.update(zip(frequent, supports[keep].tolist()))
        return frequent

    def itemsets_of_size(self, k: int) -> dict[Itemset, int]:
        """Frequent itemsets of cardinality *k* with their supports."""
        return {
            itemset: support
            for itemset, support in self.frequent.items()
            if len(itemset) == k
        }

    @property
    def n_frequent(self) -> int:
        """Total number of frequent itemsets found."""
        return len(self.frequent)

    @property
    def max_level(self) -> int:
        """Largest cardinality with at least one frequent itemset."""
        return max((len(itemset) for itemset in self.frequent), default=0)

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

    def sorted_itemsets(self) -> list[tuple[Itemset, int]]:
        """Itemsets sorted by (size, lexicographic) for stable output."""
        return sorted(
            self.frequent.items(), key=lambda kv: (len(kv[0]), kv[0])
        )


def as_itemset(items: Iterable[int]) -> Itemset:
    """Canonical (sorted, deduplicated) itemset tuple."""
    return tuple(sorted(set(int(i) for i in items)))
