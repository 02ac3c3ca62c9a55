"""Candidate pruners: the hook the OSSM plugs into.

A *pruner* sits between candidate generation and frequency counting: it
removes candidates that are provably infrequent, so the counter never
touches them. Any structure yielding a sound support upper bound fits:

* :class:`NullPruner` — prunes nothing (plain Apriori);
* :class:`OSSMPruner` — Equation (1) bounds from an
  :class:`~repro.core.ossm.OSSM`;
* :class:`GeneralizedOSSMPruner` — tighter bounds from the footnote-3
  generalized map;
* :class:`ChainPruner` — composition (e.g. OSSM *then* a DHP hash
  filter, the Section 7 combination).
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

from ..core.generalized import GeneralizedOSSM
from ..core.itemset_table import ItemsetTable, cardinality, select
from ..core.ossm import OSSM
from ..obs.metrics import get_registry

__all__ = [
    "CandidatePruner",
    "NullPruner",
    "OSSMPruner",
    "GeneralizedOSSMPruner",
    "ChainPruner",
]

Itemset = tuple[int, ...]


class CandidatePruner(abc.ABC):
    """Removes provably infrequent candidates before counting."""

    #: Suffix appended to a miner's name, e.g. ``"+ossm"``; empty for
    #: the null pruner.
    label: str = ""

    @abc.abstractmethod
    def prune(
        self, candidates: Sequence[Itemset], min_support: int
    ) -> Sequence[Itemset]:
        """Return the candidates whose bound reaches *min_support*.

        Pruners keep an :class:`~repro.core.itemset_table.ItemsetTable`
        a table, so one Apriori level stays one array into counting.
        """

    def candidate_bounds(
        self, candidates: Sequence[Itemset]
    ) -> np.ndarray | None:
        """Support upper bounds aligned with *candidates*, or ``None``.

        Pruners backed by a real bound (OSSM, generalized OSSM) return
        the bound vector so instrumentation can compare it against the
        exact supports once counting has run (the ``ossm.bound_gap``
        histogram). Pruners without one return ``None``.
        """
        return None

    def _record_prune(self, n_in: int, n_out: int) -> None:
        """Emit ``pruner.<label>.pruned/kept`` counters (no-op when off)."""
        registry = get_registry()
        if registry.enabled:
            label = self.label.lstrip("+") or "null"
            registry.inc(f"pruner.{label}.pruned", n_in - n_out)
            registry.inc(f"pruner.{label}.kept", n_out)


class NullPruner(CandidatePruner):
    """Prunes nothing; the plain-miner baseline."""

    label = ""

    def prune(
        self, candidates: Sequence[Itemset], min_support: int
    ) -> Sequence[Itemset]:
        if isinstance(candidates, ItemsetTable):
            return candidates
        return list(candidates)


class OSSMPruner(CandidatePruner):
    """Prune by the OSSM's Equation (1) upper bound.

    Sound: the bound dominates the true support, so no frequent
    candidate is ever removed — the miner's output is unchanged, only
    its counting work shrinks.

    A whole level, as a level-wise miner passes it (an
    :class:`~repro.core.itemset_table.ItemsetTable`, which is what
    ``apriori_gen`` emits to Apriori and DHP), may pass through
    unbounded. Levels 1 and 2 are always bounded. A level ``k >= 3``
    is bounded only if the last level bounded pruned at least one
    candidate; otherwise it passes through (counted in
    ``pruning.skipped_levels``). Counting is exact, so a skipped bound
    changes no answer, only that level's pruned count. The decision
    reads candidate counts, never timers, so repeated runs make the
    same decisions. Levels 1 and 2 reset it, so a reused pruner starts
    every run fresh, and a table that is not one level above the last
    is bounded and restarts it. Any other sequence (a DepthProject
    branch, a GSP or episodes shadow-size group, Partition's phase-2
    and the correlation miner's lists) is always bounded and leaves
    the decision alone.
    """

    label = "+ossm"

    def __init__(self, ossm: OSSM) -> None:
        self.ossm = ossm
        self._level = 0
        self._bounding = True

    def prune(
        self, candidates: Sequence[Itemset], min_support: int
    ) -> Sequence[Itemset]:
        level = isinstance(candidates, ItemsetTable) and len(candidates) > 0
        if level and self._skips(cardinality(candidates)):
            # Passed on unbounded: all kept, so pruned + kept still
            # adds up to the candidates generated.
            self._record_prune(len(candidates), len(candidates))
            registry = get_registry()
            if registry.enabled:
                registry.inc("pruning.skipped_levels")
            return candidates
        survivors, _mask = self.ossm.prune(candidates, min_support)
        self._record_prune(len(candidates), len(survivors))
        if level:
            self._bounding = len(survivors) < len(candidates)
        return survivors

    def _skips(self, k: int) -> bool:
        """Whether the whole level *k* passes through unbounded."""
        follows, self._level = k == self._level + 1, k
        return k > 2 and follows and not self._bounding

    def candidate_bounds(
        self, candidates: Sequence[Itemset]
    ) -> np.ndarray | None:
        if not candidates:
            return None
        return self.ossm.upper_bounds(candidates)


class GeneralizedOSSMPruner(CandidatePruner):
    """Prune by the generalized (higher-cardinality) OSSM bound."""

    label = "+gossm"

    def __init__(self, gossm: GeneralizedOSSM) -> None:
        self.gossm = gossm

    def prune(
        self, candidates: Sequence[Itemset], min_support: int
    ) -> Sequence[Itemset]:
        if not candidates:
            return []
        bounds = self.gossm.upper_bounds(candidates)
        survivors = select(candidates, bounds >= min_support)
        self._record_prune(len(candidates), len(survivors))
        return survivors

    def candidate_bounds(
        self, candidates: Sequence[Itemset]
    ) -> np.ndarray | None:
        if not candidates:
            return None
        return self.gossm.upper_bounds(candidates)


class ChainPruner(CandidatePruner):
    """Apply several pruners in sequence (intersection of survivors)."""

    def __init__(self, pruners: Sequence[CandidatePruner]) -> None:
        if not pruners:
            raise ValueError("need at least one pruner")
        self.pruners = list(pruners)
        self.label = "".join(pruner.label for pruner in self.pruners)

    def prune(
        self, candidates: Sequence[Itemset], min_support: int
    ) -> Sequence[Itemset]:
        survivors = candidates
        for pruner in self.pruners:
            if not survivors:
                break
            survivors = pruner.prune(survivors, min_support)
        return survivors

    def candidate_bounds(
        self, candidates: Sequence[Itemset]
    ) -> np.ndarray | None:
        """Tightest (elementwise minimum) bound across the chain."""
        best: np.ndarray | None = None
        for pruner in self.pruners:
            bounds = pruner.candidate_bounds(candidates)
            if bounds is None:
                continue
            best = bounds if best is None else _elementwise_min(best, bounds)
        return best


def _elementwise_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.minimum(np.asarray(a), np.asarray(b))
