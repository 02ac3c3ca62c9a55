"""Regression tests for the defects the static-analysis pass surfaced.

Each test pins the *behaviour* of a fix made in this PR so the lint
rule and the runtime stay in agreement:

* greedy hot loop: metrics are guard-gated but still recorded when a
  registry is active;
* hash tree: ``_leaves_by_id`` is initialised eagerly (the old
  ``getattr(self, "_leaves_by_id", {})`` default silently returned no
  leaves for trees built before the attribute existed);
* OSSM pair bounds: the triangle path stays in integer arithmetic
  and agrees exactly with the generic Equation (1) evaluation;
* chained constraint pruner: ``candidate_bounds`` delegates to the
  wrapped support pruner instead of inheriting the protocol's ``None``
  (which silently dropped bound-tightness telemetry).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.core.greedy import GreedySegmenter
from repro.core.ossm import OSSM
from repro.data import PagedDatabase
from repro.mining import HashTreeCounter, SubsetCounter
from repro.mining.constraints import MaxSize, _ChainedPruner, _ConstraintPruner
from repro.mining.counting import TidsetCounter
from repro.mining.itemsets import apriori_gen
from repro.mining.pruning import OSSMPruner
from repro.obs.metrics import MetricsRegistry, use_registry


class TestGreedyMetricsGuarded:
    def test_counters_recorded_when_registry_active(self, quest_db):
        registry = MetricsRegistry()
        pages = PagedDatabase(quest_db, page_size=30)
        with use_registry(registry):
            GreedySegmenter().segment(pages, 4)
        counters = registry.snapshot()["counters"]
        assert counters["segmentation.greedy.merges"] > 0
        assert counters["segmentation.greedy.heap_pushes"] > 0

    def test_result_identical_with_and_without_registry(self, quest_db):
        pages = PagedDatabase(quest_db, page_size=30)
        bare = GreedySegmenter().segment(pages, 4)
        with use_registry(MetricsRegistry()):
            observed = GreedySegmenter().segment(pages, 4)
        assert bare.ossm == observed.ossm


class TestHashTreeLeafIndex:
    def test_counts_match_subset_counter(self, tiny_db):
        candidates = list(combinations(range(tiny_db.n_items), 2))
        reference = SubsetCounter().count(tiny_db, candidates)
        tree = HashTreeCounter(branch=3, leaf_capacity=2)
        assert tree.count(tiny_db, candidates) == reference


class TestTidsetCounter:
    def test_counts_match_subset_counter(self, tiny_db):
        candidates = list(combinations(range(tiny_db.n_items), 3))
        reference = SubsetCounter().count(tiny_db, candidates)
        assert TidsetCounter().count(tiny_db, candidates) == reference


class TestPairBoundIntegerPath:
    def test_fast_path_matches_generic_and_stays_integral(self):
        rng = np.random.default_rng(5)
        matrix = rng.integers(0, 1000, size=(8, 30)).astype(np.int64)
        ossm = OSSM(matrix)
        table = apriori_gen([(item,) for item in range(30)])
        assert table.basis is not None  # the triangle path

        fast = ossm.upper_bounds(table)
        generic = matrix[:, table.array].min(axis=2).sum(axis=0)

        assert np.issubdtype(fast.dtype, np.integer)
        assert np.array_equal(fast, generic)

    def test_odd_supports_do_not_round(self):
        # p=3, q=2 in one segment: the bound is the integer min, 2.
        ossm = OSSM(np.array([[3, 2]], dtype=np.int64))
        bounds = ossm.upper_bounds([(0, 1)])
        assert bounds.tolist() == [2]


class TestChainedPrunerBounds:
    def test_bounds_delegate_to_support_pruner(self, tiny_db):
        ossm = OSSM.single_segment(tiny_db)
        support = OSSMPruner(ossm)
        chained = _ChainedPruner(_ConstraintPruner([MaxSize(2)]), support)
        candidates = [(0, 1), (1, 2), (0, 3)]
        delegated = chained.candidate_bounds(candidates)
        direct = support.candidate_bounds(candidates)
        assert delegated is not None
        assert np.array_equal(delegated, direct)

    def test_pruning_behaviour_unchanged(self, tiny_db):
        ossm = OSSM.single_segment(tiny_db)
        chained = _ChainedPruner(
            _ConstraintPruner([MaxSize(2)]), OSSMPruner(ossm)
        )
        survivors = chained.prune([(0, 1), (0, 1, 2)], 1)
        assert (0, 1) in survivors
        assert (0, 1, 2) not in survivors  # MaxSize(2) drops it
