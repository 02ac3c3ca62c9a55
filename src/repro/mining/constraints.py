"""Constrained frequent-set mining (the paper's references [11, 14, 19]).

The introduction lists *constrained frequent sets* among the pattern
classes whose support counting the OSSM serves. This module provides
the classical constraint taxonomy and a constrained Apriori that pushes
constraints into the level-wise loop:

* **anti-monotone** constraints (if an itemset violates, every superset
  violates: ``max(price) <= v``, ``|X| <= k``, ``X ⊆ S``) are pushed
  *into candidate generation* — violating candidates are dropped before
  counting, exactly like an OSSM bound miss, and the two pruners
  compose;
* **monotone** constraints (once satisfied, always satisfied for
  supersets: ``min(price) <= v``, ``X ⊇ S``, ``|X| >= k``) cannot prune
  candidates safely; they filter the *output*.

Constraints over item attributes take a vector of per-item values
(price, weight, …), mirroring the 2-variable constraint work of [11].
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence

import numpy as np

from ..data.transactions import TransactionDatabase
from .apriori import Apriori
from .base import MiningResult
from .counting import SupportCounter
from .pruning import CandidatePruner, NullPruner

__all__ = [
    "Constraint",
    "MaxSize",
    "MinSize",
    "SubsetOf",
    "SupersetOf",
    "ExcludesAll",
    "MaxAttribute",
    "MinAttributeAtMost",
    "ConstrainedApriori",
    "constrained_apriori",
]

Itemset = tuple[int, ...]


class Constraint(abc.ABC):
    """A predicate over itemsets with a declared pushing property."""

    #: True when violation by X implies violation by every superset.
    anti_monotone: bool = False
    #: True when satisfaction by X implies satisfaction by supersets.
    monotone: bool = False

    @abc.abstractmethod
    def satisfied(self, itemset: Itemset) -> bool:
        """Does *itemset* satisfy the constraint?"""


class MaxSize(Constraint):
    """``|X| <= limit`` (anti-monotone)."""

    anti_monotone = True

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = int(limit)

    def satisfied(self, itemset: Itemset) -> bool:
        return len(itemset) <= self.limit


class MinSize(Constraint):
    """``|X| >= limit`` (monotone)."""

    monotone = True

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = int(limit)

    def satisfied(self, itemset: Itemset) -> bool:
        return len(itemset) >= self.limit


class SubsetOf(Constraint):
    """``X ⊆ allowed`` (anti-monotone): only items from a whitelist."""

    anti_monotone = True

    def __init__(self, allowed: Iterable[int]) -> None:
        self.allowed = frozenset(int(i) for i in allowed)

    def satisfied(self, itemset: Itemset) -> bool:
        return self.allowed.issuperset(itemset)


class SupersetOf(Constraint):
    """``X ⊇ required`` (monotone): all the required items appear."""

    monotone = True

    def __init__(self, required: Iterable[int]) -> None:
        self.required = frozenset(int(i) for i in required)

    def satisfied(self, itemset: Itemset) -> bool:
        return self.required.issubset(itemset)


class ExcludesAll(Constraint):
    """``X ∩ banned = ∅`` (anti-monotone): a blacklist."""

    anti_monotone = True

    def __init__(self, banned: Iterable[int]) -> None:
        self.banned = frozenset(int(i) for i in banned)

    def satisfied(self, itemset: Itemset) -> bool:
        return self.banned.isdisjoint(itemset)


class MaxAttribute(Constraint):
    """``max(attribute[x] for x in X) <= bound`` (anti-monotone).

    E.g. "every item costs at most 10 euros".
    """

    anti_monotone = True

    def __init__(self, attribute: Sequence[float], bound: float) -> None:
        self.attribute = np.asarray(attribute, dtype=float)
        self.bound = float(bound)

    def satisfied(self, itemset: Itemset) -> bool:
        return all(self.attribute[item] <= self.bound for item in itemset)


class MinAttributeAtMost(Constraint):
    """``min(attribute[x] for x in X) <= bound`` (monotone).

    E.g. "the basket contains at least one item under 2 euros".
    """

    monotone = True

    def __init__(self, attribute: Sequence[float], bound: float) -> None:
        self.attribute = np.asarray(attribute, dtype=float)
        self.bound = float(bound)

    def satisfied(self, itemset: Itemset) -> bool:
        return any(self.attribute[item] <= self.bound for item in itemset)


class _ConstraintPruner(CandidatePruner):
    """Adapter: anti-monotone constraints as a candidate pruner."""

    label = "+constraints"

    def __init__(self, constraints: Sequence[Constraint]) -> None:
        self.constraints = list(constraints)

    def prune(
        self, candidates: Sequence[Itemset], min_support: int
    ) -> list[Itemset]:
        return [
            candidate
            for candidate in candidates
            if all(c.satisfied(candidate) for c in self.constraints)
        ]


class _ChainedPruner(CandidatePruner):
    """Constraints first (cheap predicate), then the support pruner."""

    def __init__(
        self, constraints: _ConstraintPruner, support: CandidatePruner
    ) -> None:
        self.constraints = constraints
        self.support = support
        self.label = support.label + constraints.label

    def prune(
        self, candidates: Sequence[Itemset], min_support: int
    ) -> Sequence[Itemset]:
        survivors = self.constraints.prune(candidates, min_support)
        if not survivors:
            return []
        return self.support.prune(survivors, min_support)

    def candidate_bounds(
        self, candidates: Sequence[Itemset]
    ) -> np.ndarray | None:
        """Bounds of the wrapped support pruner (constraints have none)."""
        return self.support.candidate_bounds(candidates)


class ConstrainedApriori:
    """Apriori with constraint pushing (and optional OSSM pruning).

    Anti-monotone constraints prune candidates (composing with the
    given support *pruner*, e.g. an OSSM); monotone constraints filter
    the result. The frequent map returned contains exactly the frequent
    itemsets satisfying *all* constraints.

    Note: anti-monotone pushing preserves completeness because a
    violating candidate can never be extended back into satisfaction;
    monotone constraints must not prune, or satisfying supersets of
    unsatisfying subsets would be lost.
    """

    name = "constrained-apriori"

    def __init__(
        self,
        constraints: Sequence[Constraint],
        pruner: CandidatePruner | None = None,
        counter: SupportCounter | None = None,
        max_level: int | None = None,
    ) -> None:
        for constraint in constraints:
            if not (constraint.anti_monotone or constraint.monotone):
                raise ValueError(
                    f"{type(constraint).__name__} declares neither "
                    "anti-monotone nor monotone; cannot be pushed or "
                    "post-filtered safely"
                )
        self.constraints = list(constraints)
        self._anti = [c for c in self.constraints if c.anti_monotone]
        self._mono = [c for c in self.constraints if c.monotone]
        self.pruner = pruner if pruner is not None else NullPruner()
        self.counter = counter
        self.max_level = max_level

    def mine(
        self,
        database: TransactionDatabase,
        min_support: float | int,
    ) -> MiningResult:
        """Frequent itemsets satisfying every constraint."""
        combined: CandidatePruner = self.pruner
        if self._anti:
            combined = _ChainedPruner(
                _ConstraintPruner(self._anti), self.pruner
            )
        inner = Apriori(
            pruner=combined, counter=self.counter, max_level=self.max_level
        )
        result = inner.mine(database, min_support)
        result.algorithm = self.name + self.pruner.label
        if self._mono:
            result.frequent = {
                itemset: support
                for itemset, support in result.frequent.items()
                if all(c.satisfied(itemset) for c in self._mono)
            }
        return result


def constrained_apriori(
    database: TransactionDatabase,
    min_support: float | int,
    constraints: Sequence[Constraint],
    pruner: CandidatePruner | None = None,
    max_level: int | None = None,
) -> MiningResult:
    """Functional entry point for :class:`ConstrainedApriori`."""
    miner = ConstrainedApriori(
        constraints, pruner=pruner, max_level=max_level
    )
    return miner.mine(database, min_support)
