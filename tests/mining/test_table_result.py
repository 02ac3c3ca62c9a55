"""Table-native :class:`MiningResult`: ``frequent`` is built on demand.

Apriori keeps each level as its itemset table plus its support vector;
the ``frequent`` dict is built from them on first read and is the same
object on every later read. The accessors that only need a count, a
level or a sorted prefix read the tables and build no dict.
"""

import numpy as np
import pytest

from repro.core import GreedySegmenter
from repro.core.itemset_table import ItemsetTable
from repro.data import PagedDatabase, generate_alarms
from repro.mining import DHP, Apriori, Eclat, FPGrowth, MiningResult, Partition
from repro.mining.counting import make_counter, registered_engines
from repro.mining.pruning import NullPruner, OSSMPruner


@pytest.fixture(scope="module")
def alarms():
    """An alarm stream whose OSSM prunes at level 2 and not after."""
    db = generate_alarms(n_windows=1500, n_alarm_types=100, seed=5)
    ossm = GreedySegmenter().segment(PagedDatabase(db, page_size=50), 20).ossm
    return db, ossm, 0.08


def _old_sort(frequent):
    return sorted(frequent.items(), key=lambda kv: (len(kv[0]), kv[0]))


def _eager_views(frequent):
    """What the accessors read off a plain frequent dict."""
    sizes = {len(itemset) for itemset in frequent}
    return (
        len(frequent),
        max(sizes, default=0),
        {
            k: {i: s for i, s in frequent.items() if len(i) == k}
            for k in sizes | {max(sizes, default=0) + 1}
        },
    )


class TestNoTuples:
    def test_ossm_run_that_never_reads_frequent_builds_no_tuple(
        self, alarms, monkeypatch
    ):
        db, ossm, minsup = alarms
        built = []
        iterate, index = ItemsetTable.__iter__, ItemsetTable.__getitem__

        def counting_iter(self):
            built.append(len(self))
            return iterate(self)

        def counting_getitem(self, key):
            if not isinstance(key, slice):
                built.append(1)
            return index(self, key)

        monkeypatch.setattr(ItemsetTable, "__iter__", counting_iter)
        monkeypatch.setattr(ItemsetTable, "__getitem__", counting_getitem)
        result = Apriori(
            pruner=OSSMPruner(ossm), engine="bitmap", max_level=4
        ).mine(db, minsup)
        assert result.max_level == 4
        assert result.n_frequent > 10_000
        assert result.itemsets_of_size(5) == {}
        assert built == []
        top = result.sorted_itemsets(3)
        assert len(top) == 3 and sum(built) == 3
        assert result.frequent  # the first read builds the dict
        assert sum(built) > result.n_frequent


class TestLazyEqualsEager:
    @pytest.mark.parametrize("engine", registered_engines())
    @pytest.mark.parametrize("bounded", [False, True], ids=["plain", "ossm"])
    def test_accessors(self, alarms, engine, bounded):
        db, ossm, minsup = alarms

        def mine():
            pruner = OSSMPruner(ossm) if bounded else NullPruner()
            return Apriori(
                pruner=pruner, counter=make_counter(engine), max_level=3
            ).mine(db, minsup)

        lazy, eager = mine(), mine()
        n, top, by_size = _eager_views(eager.frequent)
        assert lazy.n_frequent == n == eager.n_frequent
        assert lazy.max_level == top == eager.max_level
        for k, expected in by_size.items():
            assert lazy.itemsets_of_size(k) == expected
            assert eager.itemsets_of_size(k) == expected
        assert lazy.frequent == eager.frequent
        assert list(lazy.frequent) == list(eager.frequent)


class TestMutations:
    def test_edits_to_frequent_persist(self, alarms):
        db, ossm, minsup = alarms
        result = Apriori(pruner=OSSMPruner(ossm), max_level=3).mine(db, minsup)
        n = result.n_frequent
        frequent = result.frequent
        assert result.frequent is frequent
        dropped = max(frequent, key=len)
        result.frequent.pop(dropped)
        first = next(iter(result.frequent))
        support = result.frequent[first]
        result.frequent[first] += 1
        assert result.frequent is frequent
        assert dropped not in result.frequent
        assert result.frequent[first] == support + 1
        assert result.n_frequent == n - 1
        assert result.sorted_itemsets() == _old_sort(frequent)

    def test_setter_replaces_the_levels(self):
        result = MiningResult(frequent=None, min_support=2, algorithm="x")
        result.keep_frequent(
            ItemsetTable(np.array([[0], [1], [2]])), np.array([5, 1, 3])
        )
        result.frequent = {(7,): 9}
        assert result.n_frequent == 1
        assert result.itemsets_of_size(1) == {(7,): 9}
        assert result.sorted_itemsets() == [((7,), 9)]

    def test_levels_kept_after_the_first_read_join_the_dict(self):
        result = MiningResult(frequent=None, min_support=2, algorithm="x")
        result.keep_frequent(
            ItemsetTable(np.array([[0], [1], [2]])), np.array([5, 1, 3])
        )
        frequent = result.frequent
        result.keep_frequent([(0, 2)], np.array([2]))
        assert result.frequent is frequent
        assert frequent == {(0,): 5, (2,): 3, (0, 2): 2}
        assert result.max_level == 2


def _miners(ossm):
    return {
        "apriori": lambda: Apriori(),
        "apriori+ossm": lambda: Apriori(pruner=OSSMPruner(ossm)),
        "dhp": lambda: DHP(),
        "partition": lambda: Partition(n_partitions=3),
        "eclat": lambda: Eclat(),
        "fpgrowth": lambda: FPGrowth(),
    }


class TestSortedItemsets:
    @pytest.mark.parametrize(
        "name", ["apriori", "apriori+ossm", "dhp", "partition", "eclat",
                 "fpgrowth"],
    )
    def test_identical_to_the_old_sort(self, quest_db, quest_paged, name):
        ossm = GreedySegmenter().segment(quest_paged, 8).ossm
        make = _miners(ossm)[name]
        expected = _old_sort(make().mine(quest_db, 0.02).frequent)
        assert max(len(itemset) for itemset, _ in expected) >= 3
        result = make().mine(quest_db, 0.02)
        for limit in (None, 0, 1, 7, 150, len(expected), len(expected) + 5):
            wanted = expected if limit is None else expected[:limit]
            assert result.sorted_itemsets(limit) == wanted

    def test_unsorted_levels_are_sorted(self):
        result = MiningResult(frequent=None, min_support=1, algorithm="x")
        result.keep_frequent(
            ItemsetTable(np.array([[2], [0], [1]])), np.array([1, 2, 3])
        )
        result.keep_frequent([(1, 2), (0, 2)], np.array([1, 1]))
        assert result.sorted_itemsets() == [
            ((0,), 2), ((1,), 3), ((2,), 1), ((0, 2), 1), ((1, 2), 1),
        ]
        assert result.sorted_itemsets(2) == [((0,), 2), ((1,), 3)]

    def test_negative_limit_rejected(self):
        result = MiningResult(frequent={}, min_support=1, algorithm="x")
        with pytest.raises(ValueError, match="limit"):
            result.sorted_itemsets(-1)
