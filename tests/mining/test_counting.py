"""Tests for the counting engines (subset, tidset, hash tree)."""

from itertools import combinations

import numpy as np
import pytest

from repro.data import TransactionDatabase
from repro.mining import HashTreeCounter, SubsetCounter, count_supports
from repro.mining.counting import TidsetCounter

ENGINES = [SubsetCounter, TidsetCounter, lambda: HashTreeCounter(branch=3, leaf_capacity=2)]
ENGINE_IDS = ["subset", "tidset", "hashtree"]


@pytest.fixture(params=ENGINES, ids=ENGINE_IDS)
def engine(request):
    return request.param()


class TestEngineContract:
    def test_exact_counts_small(self, engine, tiny_db):
        candidates = list(combinations(range(tiny_db.n_items), 2))
        counts = engine.count(tiny_db, candidates)
        for candidate in candidates:
            assert counts[candidate] == tiny_db.support(candidate)

    def test_exact_counts_triples(self, engine, tiny_db):
        candidates = list(combinations(range(tiny_db.n_items), 3))
        counts = engine.count(tiny_db, candidates)
        for candidate in candidates:
            assert counts[candidate] == tiny_db.support(candidate)

    def test_singletons(self, engine, tiny_db):
        candidates = [(i,) for i in range(tiny_db.n_items)]
        counts = engine.count(tiny_db, candidates)
        supports = tiny_db.item_supports()
        for (item,), count in counts.items():
            assert count == supports[item]

    def test_empty_candidates(self, engine, tiny_db):
        assert engine.count(tiny_db, []) == {}

    def test_mixed_cardinality_rejected(self, engine, tiny_db):
        with pytest.raises(ValueError, match="cardinality"):
            engine.count(tiny_db, [(0,), (0, 1)])

    # The explicit empty-input contract (SupportCounter docstring):
    # every engine, serial or parallel, must agree on these.

    def test_empty_database_counts_zero(self, engine):
        empty = TransactionDatabase([], n_items=3)
        assert engine.count(empty, [(0,), (2,)]) == {(0,): 0, (2,): 0}

    def test_empty_itemset_counts_every_transaction(self, engine, tiny_db):
        assert engine.count(tiny_db, [()]) == {(): len(tiny_db)}

    def test_empty_itemset_on_empty_database(self, engine):
        empty = TransactionDatabase([], n_items=3)
        assert engine.count(empty, [()]) == {(): 0}

    def test_out_of_domain_items_count_zero(self, engine, tiny_db):
        counts = engine.count(tiny_db, [(0, 99), (0, 1)])
        assert counts[(0, 99)] == 0
        assert counts[(0, 1)] == tiny_db.support((0, 1))

    def test_engines_agree_on_random_data(self, engine, quest_db):
        candidates = list(combinations(range(0, 20), 2))
        reference = {
            candidate: quest_db.support(candidate)
            for candidate in candidates
        }
        assert engine.count(quest_db, candidates) == reference


class TestSubsetCounterSpecifics:
    def test_accepts_plain_iterable(self):
        txns = [(0, 1), (1, 2), (0, 1, 2)]
        counts = SubsetCounter().count(txns, [(0, 1), (1, 2)])
        assert counts == {(0, 1): 2, (1, 2): 2}

    def test_count_supports_wrapper(self, tiny_db):
        assert count_supports(tiny_db, [(0, 1)]) == {
            (0, 1): tiny_db.support((0, 1))
        }


class TestTidsetCounterSpecifics:
    def test_cache_reused_for_same_database(self, tiny_db):
        counter = TidsetCounter()
        counter.count(tiny_db, [(0,)])
        first = counter._tidsets
        counter.count(tiny_db, [(1,)])
        assert counter._tidsets is first

    def test_cache_invalidated_for_new_database(self, tiny_db):
        counter = TidsetCounter()
        counter.count(tiny_db, [(0,)])
        first = counter._tidsets
        other = TransactionDatabase([(0, 1)], n_items=2)
        counter.count(other, [(0,)])
        assert counter._tidsets is not first

    def test_second_database_after_the_first_is_dropped(self):
        # The layout cache must not trust a recycled id(): CPython
        # readily hands a freed database's address to the next one.
        counter = TidsetCounter()
        first = TransactionDatabase([(0, 1)] * 3, n_items=2)
        assert counter.count(first, [(0, 1)]) == {(0, 1): 3}
        first_id = id(first)
        del first
        for _ in range(200):
            second = TransactionDatabase([(0,), (1,)], n_items=2)
            if id(second) == first_id:
                break
        assert counter.count(second, [(0, 1)]) == {(0, 1): 0}

    def test_prefix_groups_count_exactly(self):
        rng = np.random.default_rng(11)
        db = TransactionDatabase(
            [rng.choice(9, rng.integers(0, 7), replace=False).tolist()
             for _ in range(120)],
            n_items=9,
        )
        for size in (2, 3, 4):
            candidates = [
                tuple(sorted(rng.choice(9, size, replace=False).tolist()))
                for _ in range(40)
            ]
            rng.shuffle(candidates)  # unsorted input
            counts = TidsetCounter().count(db, candidates)
            assert counts == {c: db.support(c) for c in candidates}

    def test_counts_zero_for_disjoint_pair(self):
        db = TransactionDatabase([(0,), (1,)], n_items=2)
        assert TidsetCounter().count(db, [(0, 1)]) == {(0, 1): 0}
