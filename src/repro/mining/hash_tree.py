"""The Apriori hash tree (Agrawal & Srikant 1994, Section 2.1.2).

Candidates of one cardinality are stored in a tree whose interior nodes
hash an item to a child and whose leaves hold small candidate lists.
Counting a transaction walks every hash path its items can open and
subset-tests only the candidates in the reached leaves — far fewer than
the full candidate list when candidates are many and transactions short.

This engine exists for fidelity to the original algorithm (and for long
transactions, where :class:`~repro.mining.counting.SubsetCounter`'s
``C(t, k)`` enumeration explodes); both engines return identical counts.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..data.transactions import TransactionDatabase
from .counting import SupportCounter, ordered_supports, register_engine

__all__ = ["HashTree", "HashTreeCounter"]

Itemset = tuple[int, ...]


class _Node:
    __slots__ = ("children", "candidates", "is_leaf")

    def __init__(self) -> None:
        self.children: dict[int, _Node] = {}
        self.candidates: list[Itemset] = []
        self.is_leaf = True


class HashTree:
    """Hash tree over candidates of one cardinality ``k``.

    Parameters
    ----------
    k:
        Candidate cardinality.
    branch:
        Modulus of the per-level hash function.
    leaf_capacity:
        A leaf holding more candidates than this splits into an interior
        node — unless its depth already equals ``k`` (no item left to
        hash on).
    """

    def __init__(self, k: int, branch: int = 8, leaf_capacity: int = 16) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if branch < 2:
            raise ValueError("branch must be >= 2")
        if leaf_capacity < 1:
            raise ValueError("leaf_capacity must be >= 1")
        self.k = k
        self.branch = branch
        self.leaf_capacity = leaf_capacity
        self._root = _Node()
        self._size = 0
        self._leaves_by_id: dict[int, _Node] = {}

    def _hash(self, item: int) -> int:
        return item % self.branch

    def insert(self, candidate: Itemset) -> None:
        """Insert one canonical *candidate* of cardinality ``k``."""
        if len(candidate) != self.k:
            raise ValueError(
                f"candidate {candidate} has size {len(candidate)}, expected {self.k}"
            )
        node = self._root
        depth = 0
        while not node.is_leaf:
            node = node.children.setdefault(
                self._hash(candidate[depth]), _Node()
            )
            depth += 1
        node.candidates.append(candidate)
        self._size += 1
        if len(node.candidates) > self.leaf_capacity and depth < self.k:
            self._split(node, depth)

    def _split(self, node: _Node, depth: int) -> None:
        node.is_leaf = False
        stored, node.candidates = node.candidates, []
        for candidate in stored:
            child = node.children.setdefault(
                self._hash(candidate[depth]), _Node()
            )
            child.candidates.append(candidate)
        # A child may itself overflow (hash collisions); split eagerly.
        for child in node.children.values():
            if len(child.candidates) > self.leaf_capacity and depth + 1 < self.k:
                self._split(child, depth + 1)

    def __len__(self) -> int:
        return self._size

    def _reachable_leaves(
        self, txn: Sequence[int]
    ) -> set[int]:
        """ids of leaves reachable by hashing paths of *txn*'s items."""
        leaves: set[int] = set()

        def descend(node: _Node, start: int, depth: int) -> None:
            if node.is_leaf:
                node_id = id(node)
                leaves.add(node_id)
                self._leaves_by_id[node_id] = node
                return
            # Consume one item for this hash level; a candidate's item
            # at position `depth` must be one of the remaining items.
            for i in range(start, len(txn) - (self.k - depth) + 1):
                child = node.children.get(self._hash(txn[i]))
                if child is not None:
                    descend(child, i + 1, depth + 1)

        descend(self._root, 0, 0)
        return leaves

    def count_transaction(
        self, txn: Sequence[int], counts: dict[Itemset, int]
    ) -> None:
        """Add *txn*'s contribution to the candidate *counts* table."""
        if len(txn) < self.k:
            return
        issuperset = frozenset(txn).issuperset  # hot loop: bind once
        for leaf_id in self._reachable_leaves(txn):
            for candidate in self._leaves_by_id[leaf_id].candidates:
                if issuperset(candidate):
                    counts[candidate] += 1


class HashTreeCounter(SupportCounter):
    """Counting engine backed by :class:`HashTree`."""

    def __init__(self, branch: int = 8, leaf_capacity: int = 16) -> None:
        self.branch = branch
        self.leaf_capacity = leaf_capacity

    def supports(
        self,
        database: Iterable[Itemset] | TransactionDatabase,
        candidates: Sequence[Itemset],
    ) -> np.ndarray:
        counts: dict[Itemset, int] = {
            candidate: 0 for candidate in candidates
        }
        if not counts:
            return np.zeros(0, dtype=np.int64)
        k = len(candidates[0])
        if any(len(candidate) != k for candidate in candidates):
            raise ValueError("candidates must share one cardinality")
        if k == 0:
            # No tree can hash on zero items; the empty itemset is
            # contained in every transaction (the SupportCounter
            # contract), so count transactions directly.
            total = (
                len(database)
                if isinstance(database, TransactionDatabase)
                else sum(1 for _ in database)
            )
            return np.full(len(candidates), total, dtype=np.int64)
        tree = HashTree(k, branch=self.branch, leaf_capacity=self.leaf_capacity)
        # One leaf entry per distinct candidate: a repeated one would
        # be counted once per copy.
        for candidate in counts:
            tree.insert(candidate)
        for txn in database:
            tree.count_transaction(txn, counts)
        return ordered_supports(counts, candidates)


register_engine("hashtree", HashTreeCounter)
