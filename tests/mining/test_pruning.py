"""Tests for the candidate pruners."""

import numpy as np
import pytest

from repro.core import OSSM, GeneralizedOSSM
from repro.core.itemset_table import ItemsetTable
from repro.mining import (
    ChainPruner,
    GeneralizedOSSMPruner,
    NullPruner,
    OSSMPruner,
)
from repro.mining.pruning import CandidatePruner


@pytest.fixture
def ossm(example1_matrix):
    return OSSM(example1_matrix)


class TestNullPruner:
    def test_keeps_everything(self):
        candidates = [(0, 1), (1, 2)]
        assert NullPruner().prune(candidates, 999) == candidates

    def test_label_empty(self):
        assert NullPruner().label == ""


class TestOSSMPruner:
    def test_prunes_by_bound(self, ossm):
        pruner = OSSMPruner(ossm)
        # Example 1: bound({a,b}) = 80.
        assert pruner.prune([(0, 1)], 81) == []
        assert pruner.prune([(0, 1)], 80) == [(0, 1)]

    def test_soundness_never_drops_frequent(self, ossm, tiny_db):
        segments = [tiny_db[:4], tiny_db[4:]]
        pruner = OSSMPruner(OSSM.from_segments(segments))
        from itertools import combinations

        for threshold in (1, 2, 3):
            candidates = list(combinations(range(tiny_db.n_items), 2))
            survivors = set(pruner.prune(candidates, threshold))
            for candidate in candidates:
                if tiny_db.support(candidate) >= threshold:
                    assert candidate in survivors

    def test_label(self, ossm):
        assert OSSMPruner(ossm).label == "+ossm"

    def test_empty_candidates(self, ossm):
        assert OSSMPruner(ossm).prune([], 10) == []


class TestGeneralizedPruner:
    def test_tighter_than_singleton(self, tiny_db):
        segments = [tiny_db[:4], tiny_db[4:]]
        classic = OSSMPruner(OSSM.from_segments(segments))
        general = GeneralizedOSSMPruner(
            GeneralizedOSSM.from_segments(segments, max_cardinality=2)
        )
        from itertools import combinations

        candidates = list(combinations(range(tiny_db.n_items), 3))
        for threshold in (1, 2, 3):
            kept_classic = set(classic.prune(candidates, threshold))
            kept_general = set(general.prune(candidates, threshold))
            assert kept_general <= kept_classic

    def test_label(self, tiny_db):
        gossm = GeneralizedOSSM.from_segments([tiny_db])
        assert GeneralizedOSSMPruner(gossm).label == "+gossm"


class TestChainPruner:
    def test_intersection_of_survivors(self, ossm):
        chain = ChainPruner([NullPruner(), OSSMPruner(ossm)])
        assert chain.prune([(0, 1)], 81) == []
        assert chain.prune([(0, 1)], 80) == [(0, 1)]

    def test_labels_concatenate(self, ossm):
        chain = ChainPruner([OSSMPruner(ossm), OSSMPruner(ossm)])
        assert chain.label == "+ossm+ossm"

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ChainPruner([])

    def test_short_circuits_when_empty(self, ossm):
        class Exploding(NullPruner):
            def prune(self, candidates, min_support):
                raise AssertionError("should not be reached")

        chain = ChainPruner([OSSMPruner(ossm), Exploding()])
        # Threshold so high the OSSM removes everything; the second
        # pruner must not run.
        assert chain.prune([(0, 1)], 10**9) == []


def _table(*rows):
    return ItemsetTable(np.array(rows))


class TestSkipRule:
    """OSSMPruner bounds a whole level k >= 3 only after a level it
    pruned at; whole levels come as tables."""

    def test_levels_after_a_fruitless_bound_pass_through(self):
        pruner = OSSMPruner(OSSM(np.array([[5, 5, 5, 5], [5, 5, 5, 5]])))
        assert pruner.prune(_table((0, 1)), 10) == [(0, 1)]  # prunes 0
        assert pruner.prune(_table((0, 1, 2)), 10**9) == [(0, 1, 2)]
        level4 = _table((0, 1, 2, 3))
        assert pruner.prune(level4, 10**9) is level4

    def test_level_after_a_fruitful_bound_is_bounded(self, ossm):
        pruner = OSSMPruner(ossm)
        assert pruner.prune(_table((0, 1), (1, 2)), 81) == [(1, 2)]
        assert pruner.prune(_table((0, 1, 2)), 10**9) == []

    def test_levels_one_and_two_reset_the_decision(self, ossm):
        for reset in (_table((0,)), _table((0, 1))):
            pruner = OSSMPruner(ossm)
            pruner.prune(_table((0, 1)), 80)
            assert pruner.prune(reset, 10**9) == []  # always bounded
            assert pruner.prune(_table((0, 1, 2)), 10**9) == []

    def test_a_table_off_the_next_level_is_bounded(self, ossm):
        pruner = OSSMPruner(ossm)
        pruner.prune(_table((0, 1)), 80)  # prunes nothing
        assert pruner.prune(_table((0, 1, 2)), 10**9) == [(0, 1, 2)]
        # A second level-3 table does not follow level 3: bounded, and
        # it restarts the rule.
        assert pruner.prune(_table((0, 1, 2)), 10**9) == []

    def test_lists_are_always_bounded(self, ossm):
        # Parts of a level (a DepthProject branch, a GSP or episodes
        # shadow-size group) come as lists: a size-2 group that prunes
        # nothing does not let the next size-3 group through.
        pruner = OSSMPruner(ossm)
        assert pruner.prune([(0, 1)], 80) == [(0, 1)]
        assert pruner.prune([(0, 1, 2)], 10**9) == []

    def test_lists_leave_the_decision_alone(self, ossm):
        pruner = OSSMPruner(ossm)
        pruner.prune(_table((0, 1)), 80)  # prunes nothing
        assert pruner.prune([(0, 1, 2)], 10**9) == []  # a list: bounded
        # The table that follows level 2 is still skipped.
        assert pruner.prune(_table((0, 1, 2)), 10**9) == [(0, 1, 2)]

    def test_skipped_levels_counted(self, ossm):
        from repro.obs.metrics import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            pruner = OSSMPruner(ossm)
            pruner.prune(_table((0, 1)), 80)
            pruner.prune(_table((0, 1, 2)), 10**9)
        counters = registry.snapshot()["counters"]
        assert counters["pruning.skipped_levels"] == 1
        # A skipped level passes its candidates on: kept, not pruned.
        assert counters["pruner.ossm.kept"] == 2
        assert counters["pruner.ossm.pruned"] == 0

    def test_generalized_pruner_bounds_every_level(self, tiny_db):
        from itertools import combinations

        segments = [tiny_db[:4], tiny_db[4:]]
        pruner = GeneralizedOSSMPruner(
            GeneralizedOSSM.from_segments(segments, max_cardinality=2)
        )
        pairs = list(combinations(range(tiny_db.n_items), 2))
        assert pruner.prune(pairs, 1) == pairs
        assert pruner.prune(list(combinations(range(4), 3)), 10**9) == []

    def test_chain_calls_every_member_at_every_level(self, ossm):
        seen = []

        class Recording(NullPruner):
            def prune(self, candidates, min_support):
                seen.append(len(candidates[0]))
                return [c for c in candidates if c != (0, 1, 2)]

        chain = ChainPruner([OSSMPruner(ossm), Recording()])
        assert chain.prune(_table((0, 1)), 80) == [(0, 1)]
        assert chain.prune(_table((0, 1, 2)), 10**9) == []
        assert seen == [2, 3]


@pytest.fixture(scope="module")
def alarms():
    """An alarm stream whose OSSM prunes at level 2 and at no later
    level, so the rule skips level 4."""
    from repro.core import GreedySegmenter
    from repro.data import PagedDatabase, generate_alarms

    db = generate_alarms(n_windows=1500, n_alarm_types=100, seed=5)
    ossm = GreedySegmenter().segment(PagedDatabase(db, page_size=50), 20).ossm
    return db, ossm, 0.08


def _shape(result):
    return [
        (s.level, s.candidates_generated, s.candidates_pruned,
         s.candidates_counted, s.frequent)
        for s in result.levels
    ]


class AlwaysBounding(CandidatePruner):
    """Bounds every call: what OSSMPruner did before the skip rule."""

    label = "+ossm"

    def __init__(self, ossm):
        self.ossm = ossm

    def prune(self, candidates, min_support):
        return self.ossm.prune(candidates, min_support)[0]


@pytest.fixture
def triangle():
    """Three segments, one per pair of items: every pair is frequent
    and no pair is pruned at minsup 5, but {0, 1, 2} is bounded at 0."""
    from repro.data import TransactionDatabase

    db = TransactionDatabase([(0, 1)] * 5 + [(0, 2)] * 5 + [(1, 2)] * 5)
    ossm = OSSM.from_segments([db[0:5], db[5:10], db[10:15]])
    assert ossm.upper_bound((0, 1, 2)) == 0
    return db, ossm, 5


class TestSkipRuleInApriori:
    def test_stats_repeat_and_match_an_always_bounding_pruner(self, alarms):
        from repro.mining import Apriori

        db, ossm, minsup = alarms

        def mine(pruner):
            return Apriori(pruner=pruner, max_level=4, engine="bitmap").mine(
                db, minsup
            )

        always = mine(AlwaysBounding(ossm))
        assert [s.candidates_pruned for s in always.levels][2:] == [0, 0]
        assert always.levels[1].candidates_pruned > 0
        reused = OSSMPruner(ossm)
        runs = [mine(OSSMPruner(ossm)), mine(reused), mine(reused)]
        # A run on other data in between leaves no decision behind.
        mine_other = Apriori(pruner=reused, max_level=4).mine(db[:300], 0.3)
        assert mine_other.n_frequent > 0
        runs.append(mine(reused))
        for run in runs:
            assert _shape(run) == _shape(always)
            assert run.frequent == always.frequent

    def test_constraints_are_never_skipped(self, alarms):
        from repro.mining import Apriori, ConstrainedApriori, MaxSize

        db, ossm, minsup = alarms
        result = ConstrainedApriori(
            [MaxSize(3)], pruner=OSSMPruner(ossm), max_level=4
        ).mine(db, minsup)
        plain = Apriori(max_level=3).mine(db, minsup)
        assert result.frequent == plain.frequent
        level4 = result.levels[3]
        assert level4.candidates_generated > 0
        assert level4.candidates_pruned == level4.candidates_generated

    def test_the_rule_can_skip_a_level_the_bound_would_prune(self, triangle):
        # The cost of the rule: level 2 prunes nothing, so level 3 is
        # not bounded, though its one candidate is bounded at 0.
        from repro.mining import Apriori

        db, ossm, minsup = triangle
        rule = Apriori(pruner=OSSMPruner(ossm)).mine(db, minsup)
        always = Apriori(pruner=AlwaysBounding(ossm)).mine(db, minsup)
        assert rule.frequent == always.frequent
        assert [s.candidates_pruned for s in always.levels] == [0, 0, 1]
        assert [s.candidates_pruned for s in rule.levels] == [0, 0, 0]


class TestSkipRuleScope:
    """Miners that prune parts of a level bound every call: their
    per-level counts equal an always-bounding pruner's."""

    def test_depth_project_bounds_every_branch(self, triangle):
        # Branch (0,) prunes nothing at level 2 and its first child's
        # level-3 call follows it: that call must still be bounded.
        from repro.mining import depth_project

        db, ossm, minsup = triangle
        result = depth_project(db, minsup, pruner=OSSMPruner(ossm))
        always = depth_project(db, minsup, pruner=AlwaysBounding(ossm))
        assert _shape(result) == _shape(always)
        assert result.levels[2].candidates_pruned == 1
        assert result.frequent == always.frequent

    def test_depth_project_on_quest(self, quest_db):
        from repro.core import build_from_database
        from repro.mining import depth_project

        ossm = build_from_database(
            quest_db, list(range(0, len(quest_db) + 1, 30))
        )
        result = depth_project(quest_db, 0.03, pruner=OSSMPruner(ossm))
        always = depth_project(quest_db, 0.03, pruner=AlwaysBounding(ossm))
        assert _shape(result) == _shape(always)

    def test_gsp_bounds_every_group(self, quest_db):
        from repro.data.sequences import SequenceDatabase
        from repro.mining.gsp import gsp

        seqdb = SequenceDatabase.from_transactions(quest_db[:300], 3)
        flat = seqdb.flattened()
        bounds = np.linspace(0, len(flat), 11).astype(int)
        ossm = OSSM.from_segments(
            [flat[int(a):int(b)] for a, b in zip(bounds, bounds[1:])]
        )
        result = gsp(seqdb, 8, pruner=OSSMPruner(ossm), max_size=3)
        always = gsp(seqdb, 8, pruner=AlwaysBounding(ossm), max_size=3)
        assert _shape(result) == _shape(always)
        assert result.frequent == always.frequent

    @pytest.mark.parametrize("kind", ["parallel", "serial"])
    def test_episodes_bound_every_group(self, kind):
        from repro.data import EventSequence, WindowView, generate_alarms
        from repro.mining.episodes import EpisodeMiner

        db = generate_alarms(n_windows=100, n_alarm_types=30, seed=5)
        sequence = EventSequence.from_database(db)
        windows = WindowView(sequence, 3).to_database()
        bounds = np.linspace(0, len(windows), 21).astype(int)
        ossm = OSSM.from_segments(
            [windows[int(a):int(b)] for a, b in zip(bounds, bounds[1:])]
        )

        def mine(pruner):
            return EpisodeMiner(
                3, kind=kind, pruner=pruner, max_level=3
            ).mine(sequence, 0.1)

        result, always = mine(OSSMPruner(ossm)), mine(AlwaysBounding(ossm))
        assert sum(s.candidates_pruned for s in always.levels) > 0
        assert _shape(result) == _shape(always)
        assert result.frequent == always.frequent
