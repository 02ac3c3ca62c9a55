"""The support vector is the counting seam.

Every engine's ``supports`` returns int64 supports aligned with the
candidate rows, and ``count`` stays its dict view. A subclass that
overrides only ``count`` (a wrapper that times the engine, say) still
mines through Apriori by the base class's fallback.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core.itemset_table import ItemsetTable
from repro.core.ossm import OSSM
from repro.data import TransactionDatabase
from repro.mining import Apriori
from repro.mining.counting import (
    SupportCounter,
    make_counter,
    registered_engines,
)
from repro.mining.pruning import OSSMPruner
from repro.parallel import ThreadedBitmapCounter, ThreadShardPlanner


def _threaded():
    # Two one-word-minimum shards, so even a small database fans out.
    return ThreadedBitmapCounter(
        workers=2, planner=ThreadShardPlanner(n_shards=2, min_words=1)
    )


FACTORIES = [
    *((name, lambda name=name: make_counter(name))
      for name in registered_engines()),
    ("bitmap-threads", _threaded),
]


@pytest.fixture(params=[f for _, f in FACTORIES], ids=[n for n, _ in FACTORIES])
def counter(request):
    counter = request.param()
    yield counter
    closer = getattr(counter, "close", None)
    if closer is not None:
        closer()


def _candidate_sets(db):
    pairs = list(combinations(range(20), 2))
    triples = list(combinations(range(12), 3))
    rng = np.random.default_rng(4)
    shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
    return [pairs, triples, shuffled, ItemsetTable(np.array(triples))]


class TestSupportsMatchCount:
    def test_vector_is_the_dict_in_candidate_order(self, counter, quest_db):
        for candidates in _candidate_sets(quest_db):
            counts = counter.count(quest_db, candidates)
            vector = counter.supports(quest_db, candidates)
            assert vector.dtype == np.int64
            assert vector.tolist() == [counts[c] for c in candidates]
            assert counts == {c: quest_db.support(c) for c in candidates}


class TestSupportsContract:
    def test_no_candidates_is_an_empty_int64_vector(self, counter, tiny_db):
        vector = counter.supports(tiny_db, [])
        assert vector.dtype == np.int64 and vector.shape == (0,)

    def test_empty_itemset_counts_every_transaction(self, counter, tiny_db):
        assert counter.supports(tiny_db, [(), ()]).tolist() == [
            len(tiny_db)
        ] * 2

    def test_out_of_domain_counts_zero(self, counter, tiny_db):
        vector = counter.supports(tiny_db, [(0, 99), (0, 1), (-1, 2)])
        assert vector.tolist() == [0, tiny_db.support((0, 1)), 0]

    def test_mixed_cardinality_rejected(self, counter, tiny_db):
        with pytest.raises(ValueError, match="cardinality"):
            counter.supports(tiny_db, [(0,), (0, 1)])

    def test_repeated_candidates_stay_aligned(self, counter, tiny_db):
        candidates = [(0, 1), (1, 2), (0, 1), (0, 2), (1, 2)]
        assert counter.supports(tiny_db, candidates).tolist() == [
            tiny_db.support(c) for c in candidates
        ]
        # A repeat is one candidate, counted once, not once per copy.
        assert counter.count(tiny_db, candidates) == {
            c: tiny_db.support(c) for c in candidates
        }

    def test_empty_database_counts_zero(self, counter):
        empty = TransactionDatabase([], n_items=3)
        assert counter.supports(empty, [(0,), (2,)]).tolist() == [0, 0]


class CountOnly(SupportCounter):
    """Shaped like a timing wrapper: overrides ``count`` and nothing
    else, so ``supports`` takes the base class's fallback."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def count(self, database, candidates):
        self.calls += 1
        return self.inner.count(database, candidates)


class SupportsOnly(SupportCounter):
    def supports(self, database, candidates):
        return np.array(
            [database.support(c) for c in candidates], dtype=np.int64
        )


class TestSubclassSeams:
    def test_count_only_subclass_mines_like_its_engine(self, quest_db):
        ossm = OSSM.single_segment(quest_db)
        for engine in ("tidset", "bitmap"):
            for pruner in (None, OSSMPruner(ossm)):
                wrapped = CountOnly(make_counter(engine))
                via_count = Apriori(pruner=pruner, counter=wrapped).mine(
                    quest_db, 0.02
                )
                direct = Apriori(pruner=pruner, engine=engine).mine(
                    quest_db, 0.02
                )
                assert wrapped.calls == sum(
                    1 for s in via_count.levels[1:] if s.candidates_generated
                )
                assert via_count.levels == direct.levels
                assert list(via_count.frequent.items()) == list(
                    direct.frequent.items()
                )

    def test_count_only_fallback_aligns_repeats(self, tiny_db):
        counter = CountOnly(make_counter("subset"))
        candidates = [(0, 1), (0, 2), (0, 1)]
        assert counter.supports(tiny_db, candidates).tolist() == [
            tiny_db.support(c) for c in candidates
        ]

    def test_supports_only_subclass_gets_the_dict(self, tiny_db):
        candidates = [(0, 1), (1, 2)]
        assert SupportsOnly().count(tiny_db, candidates) == {
            c: tiny_db.support(c) for c in candidates
        }

    def test_overriding_neither_is_a_type_error(self):
        with pytest.raises(TypeError, match="supports\\(\\) or count\\(\\)"):

            class Neither(SupportCounter):
                pass

    def test_inherited_override_is_enough(self):
        class Derived(CountOnly):
            pass

        assert Derived(make_counter("subset")).supports(
            TransactionDatabase([(0, 1)], n_items=2), [(0, 1)]
        ).tolist() == [1]
