"""End-to-end: the instrumented pipeline emits spans and counters.

The acceptance smoke of the observability layer: mining with an OSSM
attached while a registry + recorder are active must produce per-level
spans, prune/keep counters, and the Equation (1) bound-tightness
histogram — without changing any mining result.
"""

import pytest

from repro import (
    DHP,
    Apriori,
    DepthProject,
    GreedySegmenter,
    MetricsRegistry,
    OSSMPruner,
    PagedDatabase,
    Partition,
    TraceRecorder,
    generate_quest,
    use_recorder,
    use_registry,
)
from repro.mining.itemsets import apriori_gen
from repro.mining.pruning import ChainPruner, NullPruner
from repro.obs.instrument import BOUND_GAP_BUCKETS
from repro.obs.metrics import Histogram


@pytest.fixture(scope="module")
def workload():
    db = generate_quest(
        n_transactions=400, n_items=60, n_patterns=120, seed=3
    )
    ossm = GreedySegmenter().segment(
        PagedDatabase(db, page_size=20), 5
    ).ossm
    return db, ossm


def span_names(recorder):
    collected = []

    def walk(spans):
        for span in spans:
            collected.append((span.name, span.metadata))
            walk(span.children)

    walk(recorder.roots)
    return collected


class TestAprioriSmoke:
    def test_emits_levels_counters_and_bound_gaps(self, workload):
        db, ossm = workload
        registry = MetricsRegistry()
        recorder = TraceRecorder()
        with use_registry(registry), use_recorder(recorder):
            instrumented = Apriori(
                pruner=OSSMPruner(ossm), max_level=3
            ).mine(db, 0.05)
        plain = Apriori(pruner=OSSMPruner(ossm), max_level=3).mine(db, 0.05)

        # Identical mining output — instrumentation observes only.
        assert instrumented.same_itemsets(plain)

        spans = span_names(recorder)
        levels = [
            meta["level"] for name, meta in spans if name == "apriori.level"
        ]
        assert levels == sorted(levels) and levels[0] == 1 and len(levels) >= 2

        counters = registry.snapshot()["counters"]
        assert counters["pruner.ossm.kept"] > 0
        assert counters["pruner.ossm.pruned"] >= 0
        assert (
            counters["pruner.ossm.pruned"] + counters["pruner.ossm.kept"]
            == counters["mining.candidates_generated"]
        )
        assert counters["mining.candidates_counted"] == sum(
            stats.candidates_counted for stats in instrumented.levels
        )

        gap = registry.snapshot()["histograms"]["ossm.bound_gap"]
        assert gap["count"] > 0
        # Soundness: the Equation (1) bound never undershoots.
        assert gap["min"] >= 0

    def test_bound_gap_histogram_is_every_counted_gap(self, workload):
        # Oracle: replay the levels from the result and observe
        # bound − support for every survivor of Equation (1) pruning.
        db, ossm = workload
        registry = MetricsRegistry()
        with use_registry(registry):
            result = Apriori(pruner=OSSMPruner(ossm), max_level=3).mine(
                db, 0.05
            )
        expected = Histogram("ossm.bound_gap", BOUND_GAP_BUCKETS)
        for k in range(2, len(result.levels) + 1):
            prior = sorted(x for x in result.frequent if len(x) == k - 1)
            survivors, _ = ossm.prune(apriori_gen(prior), result.min_support)
            for itemset in survivors:
                expected.observe(ossm.upper_bound(itemset) - db.support(itemset))
        assert expected.count > 0
        assert (
            registry.snapshot()["histograms"]["ossm.bound_gap"]
            == expected.snapshot()
        )

    def test_timers_recorded(self, workload):
        db, ossm = workload
        registry = MetricsRegistry()
        with use_registry(registry):
            Apriori(pruner=OSSMPruner(ossm), max_level=2).mine(db, 0.05)
        timers = registry.snapshot()["timers"]
        assert timers["apriori.count_seconds"]["count"] >= 1
        assert timers["counting.subset_seconds"]["count"] >= 1

    def test_null_pruner_records_no_bound_gap(self, workload):
        db, _ = workload
        registry = MetricsRegistry()
        with use_registry(registry):
            Apriori(max_level=2).mine(db, 0.05)
        assert "ossm.bound_gap" not in registry.snapshot()["histograms"]


class TestOtherMiners:
    def test_dhp(self, workload):
        db, ossm = workload
        registry = MetricsRegistry()
        recorder = TraceRecorder()
        with use_registry(registry), use_recorder(recorder):
            DHP(pruner=OSSMPruner(ossm), max_level=2).mine(db, 0.05)
        counters = registry.snapshot()["counters"]
        assert counters["dhp.candidates_generated"] > 0
        assert "dhp.hash_filtered" in counters
        assert any(n == "dhp.level" for n, _ in span_names(recorder))

    def test_partition(self, workload):
        db, _ = workload
        registry = MetricsRegistry()
        recorder = TraceRecorder()
        with use_registry(registry), use_recorder(recorder):
            Partition(n_partitions=2, auto_ossm=3, max_level=2).mine(
                db, 0.05
            )
        counters = registry.snapshot()["counters"]
        assert counters["partition.global_candidates"] > 0
        names = [n for n, _ in span_names(recorder)]
        assert "partition.phase1" in names
        assert "partition.phase2" in names
        assert "partition.level" in names

    def test_depthproject(self, workload):
        db, ossm = workload
        registry = MetricsRegistry()
        recorder = TraceRecorder()
        with use_registry(registry), use_recorder(recorder):
            DepthProject(pruner=OSSMPruner(ossm), max_level=3).mine(
                db, 0.05
            )
        counters = registry.snapshot()["counters"]
        assert counters["depthproject.candidates_generated"] > 0
        assert any(
            n == "depthproject.mine" for n, _ in span_names(recorder)
        )


class TestSegmentation:
    def test_segmenter_emits_gauges_and_span(self, workload):
        db, _ = workload
        registry = MetricsRegistry()
        recorder = TraceRecorder()
        with use_registry(registry), use_recorder(recorder):
            GreedySegmenter().segment(PagedDatabase(db, page_size=20), 4)
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["ossm.n_segments"] == 4
        assert snapshot["gauges"]["ossm.nominal_bytes"] > 0
        assert snapshot["counters"]["segmentation.greedy.merges"] > 0
        assert snapshot["gauges"]["segmentation.loss_evaluations"] > 0
        assert any(
            n == "segment.greedy" for n, _ in span_names(recorder)
        )


class TestCandidateBounds:
    def test_null_pruner_has_no_bounds(self):
        assert NullPruner().candidate_bounds([(0, 1)]) is None

    def test_ossm_pruner_bounds_align(self, workload):
        _, ossm = workload
        pruner = OSSMPruner(ossm)
        candidates = [(0, 1), (1, 2)]
        bounds = pruner.candidate_bounds(candidates)
        assert list(bounds) == [
            ossm.upper_bound(c) for c in candidates
        ]
        assert pruner.candidate_bounds([]) is None

    def test_chain_pruner_takes_tightest(self, workload):
        _, ossm = workload
        chain = ChainPruner([NullPruner(), OSSMPruner(ossm)])
        candidates = [(0, 1)]
        assert list(chain.candidate_bounds(candidates)) == [
            ossm.upper_bound((0, 1))
        ]
        assert ChainPruner([NullPruner()]).candidate_bounds(
            candidates
        ) is None
