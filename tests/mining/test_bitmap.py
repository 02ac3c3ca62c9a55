"""Differential battery for the vertical bitmap engine.

The bitmap engine is the counting path every ``workers=`` run takes,
so the proof obligation is total:

* a property (hypothesis, seeded-random fallback) that
  :class:`BitmapCounter` — serial and thread-sharded — returns
  bit-identical counts to ``SubsetCounter``/``TidsetCounter``/
  ``HashTreeCounter`` on arbitrary databases;
* the pinned :class:`SupportCounter` contract (empty candidates,
  empty database, the empty itemset, out-of-domain items, mixed
  cardinalities);
* packing invariants — padding bits zero, rows bijective with
  tidsets, segment masks partition the transactions;
* segment views — ``count_segments`` columns sum to ``count``,
  ``to_ossm`` equals ``build_from_database``, ``upper_bounds`` equals
  the serial map's Equation (1) values, element for element.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core.ossm import build_from_database
from repro.data import TransactionDatabase
from repro.mining import (
    BitmapCounter,
    HashTreeCounter,
    PackedBitmap,
    SubsetCounter,
    pack_database,
)
from repro.mining.bitmap import WORD_BITS, popcount_reduce
from repro.mining.counting import TidsetCounter
from repro.parallel import ThreadedBitmapCounter

from ..parallel._support import N_ITEMS, given_database

SERIAL_ENGINES = {
    "subset": SubsetCounter,
    "tidset": TidsetCounter,
    "hashtree": lambda: HashTreeCounter(branch=3, leaf_capacity=2),
}


@pytest.fixture
def tiny_db():
    return TransactionDatabase([{0, 1}, {1, 2}, {0, 1, 2}], n_items=3)


# -- property: bit-identical to every engine ----------------------------


@given_database(max_examples=8)
def test_bitmap_counts_equal_every_engine(db):
    bitmap = BitmapCounter()
    threaded = [
        ThreadedBitmapCounter(workers=workers) for workers in (1, 2, 4)
    ]
    try:
        for k in (1, 2, 3):
            candidates = list(combinations(range(N_ITEMS), k))
            reference = {c: db.support(c) for c in candidates}
            for factory in SERIAL_ENGINES.values():
                assert factory().count(db, candidates) == reference
            assert bitmap.count(db, candidates) == reference
            for counter in threaded:
                assert counter.count(db, candidates) == reference
    finally:
        for counter in threaded:
            counter.close()


# -- pinned contract ----------------------------------------------------


@pytest.fixture(
    params=["serial", "threads-1", "threads-2", "threads-4"],
)
def bitmap_counter(request):
    if request.param == "serial":
        yield BitmapCounter()
        return
    workers = int(request.param.split("-")[1])
    with ThreadedBitmapCounter(workers=workers) as counter:
        yield counter


class TestContract:
    def test_no_candidates(self, bitmap_counter, tiny_db):
        assert bitmap_counter.count(tiny_db, []) == {}

    def test_empty_database_counts_zero(self, bitmap_counter):
        empty = TransactionDatabase([], n_items=4)
        assert bitmap_counter.count(empty, [(0,), (1,)]) == {
            (0,): 0, (1,): 0,
        }

    def test_empty_itemset_counts_every_transaction(
        self, bitmap_counter, tiny_db
    ):
        assert bitmap_counter.count(tiny_db, [()]) == {(): 3}

    def test_empty_itemset_on_empty_database(self, bitmap_counter):
        empty = TransactionDatabase([], n_items=4)
        assert bitmap_counter.count(empty, [()]) == {(): 0}

    def test_out_of_domain_items_count_zero(self, bitmap_counter, tiny_db):
        counts = bitmap_counter.count(tiny_db, [(0, 99), (1, 2)])
        assert counts == {(0, 99): 0, (1, 2): 2}

    def test_mixed_cardinality_rejected(self, bitmap_counter, tiny_db):
        with pytest.raises(ValueError, match="cardinality"):
            bitmap_counter.count(tiny_db, [(0,), (0, 1)])

    def test_plain_iterable_database(self, bitmap_counter):
        counts = bitmap_counter.count([(0, 1), (1, 2), (0,)], [(1,)])
        assert counts == {(1,): 2}


# -- packing invariants --------------------------------------------------


def test_pack_shapes_and_padding():
    db = TransactionDatabase([{0}] * 70, n_items=3)
    packed = pack_database(db)
    assert isinstance(packed, PackedBitmap)
    assert packed.words.shape == (3, 2)  # 70 txns -> 2 uint64 words
    assert packed.n_transactions == 70
    # Row 0: all 70 bits set, 58 bits of padding zero.
    assert int(np.bitwise_count(packed.words[0]).sum()) == 70
    # Rows 1/2: items occur nowhere.
    assert int(packed.words[1:].sum()) == 0


def test_pack_rows_are_tidset_bijective():
    db = TransactionDatabase(
        [(0, 2), (1,), (0, 1, 2), (), (2,)], n_items=3
    )
    packed = pack_database(db)
    for item, tids in enumerate(db.vertical()):
        row = packed.words[item]
        bits = np.unpackbits(row.view(np.uint8))[: len(db)]
        assert sorted(np.nonzero(bits)[0]) == sorted(tids)


def test_pack_empty_database():
    packed = pack_database(TransactionDatabase([], n_items=4))
    assert packed.words.shape == (4, 0)
    assert packed.n_transactions == 0
    assert packed.segment_bounds == (0, 0)


def test_pack_words_are_read_only():
    packed = pack_database(TransactionDatabase([{0}], n_items=1))
    with pytest.raises(ValueError):
        packed.words[0, 0] = 1


def test_segment_masks_partition_transactions():
    db = TransactionDatabase([{0}] * 100, n_items=2)
    packed = pack_database(db, segment_sizes=[30, 0, 45, 25])
    masks = packed.segment_masks()
    assert masks.shape == (4, packed.n_words)
    # Disjoint and exhaustive over the first 100 bit positions.
    union = np.bitwise_or.reduce(masks, axis=0)
    assert int(np.bitwise_count(union).sum()) == 100
    total = int(np.bitwise_count(masks).sum())
    assert total == 100  # no overlap: popcounts add up exactly


def test_inconsistent_segment_sizes_ignored():
    db = TransactionDatabase([{0}] * 10, n_items=1)
    packed = pack_database(db, segment_sizes=[3, 3])  # sums to 6, not 10
    assert packed.segment_bounds == (0, 10)


def test_pack_cache_reused_per_database_object():
    db = TransactionDatabase([{0, 1}, {1}], n_items=2)
    counter = BitmapCounter()
    counter.count(db, [(0,)])
    first = counter._packed
    counter.count(db, [(1,)])
    assert counter._packed is first
    other = TransactionDatabase([{0}], n_items=2)
    counter.count(other, [(0,)])
    assert counter._packed is not first


def test_popcount_reduce_word_ranges_sum_to_total():
    rng = np.random.default_rng(3)
    db = TransactionDatabase(
        [
            tuple(np.nonzero(rng.integers(0, 2, size=N_ITEMS))[0])
            for _ in range(400)
        ],
        n_items=N_ITEMS,
    )
    packed = pack_database(db)
    table = np.asarray(list(combinations(range(N_ITEMS), 2)))
    full = popcount_reduce(packed.words, table, 0, packed.n_words)
    cut = packed.n_words // 2
    left = popcount_reduce(packed.words, table, 0, cut)
    right = popcount_reduce(packed.words, table, cut, packed.n_words)
    assert np.array_equal(left + right, full)
    assert full.dtype == np.int64


# -- segment views -------------------------------------------------------


@pytest.fixture
def segmented():
    rng = np.random.default_rng(11)
    db = TransactionDatabase(
        [
            tuple(np.nonzero(rng.integers(0, 2, size=N_ITEMS))[0])
            for _ in range(130)
        ],
        n_items=N_ITEMS,
    )
    sizes = [40, 0, 63, 27]  # straddles word boundaries, empty segment
    return db, sizes, BitmapCounter(segment_sizes=sizes)


def test_count_segments_columns_sum_to_count(segmented):
    db, sizes, counter = segmented
    candidates = list(combinations(range(N_ITEMS), 2))
    matrix = counter.count_segments(db, candidates)
    assert matrix.shape == (len(sizes), len(candidates))
    totals = counter.count(db, candidates)
    assert list(matrix.sum(axis=0)) == [totals[c] for c in candidates]


def test_count_segments_matches_per_segment_serial(segmented):
    db, sizes, counter = segmented
    candidates = [(0, 1), (2, 3), (1, 4)]
    matrix = counter.count_segments(db, candidates)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    for s, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        segment = db[int(lo):int(hi)]
        for j, candidate in enumerate(candidates):
            assert matrix[s, j] == segment.support(candidate)


def test_to_ossm_equals_serial_build(segmented):
    db, sizes, counter = segmented
    bounds = [0] + list(np.cumsum(sizes))
    assert counter.to_ossm(db) == build_from_database(
        db, [int(b) for b in bounds]
    )


def test_upper_bounds_equal_serial_map(segmented):
    db, sizes, counter = segmented
    bounds = [0] + list(np.cumsum(sizes))
    reference = build_from_database(db, [int(b) for b in bounds])
    itemsets = list(combinations(range(N_ITEMS), 2))
    ours = counter.upper_bounds(db, itemsets)
    assert np.array_equal(ours, reference.upper_bounds(itemsets))
    # Soundness spot check: bound >= exact support.
    exact = counter.count(db, itemsets)
    for itemset, bound in zip(itemsets, ours):
        assert bound >= exact[itemset]


def test_threaded_counter_shares_segment_views(segmented):
    db, sizes, _ = segmented
    with ThreadedBitmapCounter(workers=2, segment_sizes=sizes) as counter:
        bounds = [0] + [int(b) for b in np.cumsum(sizes)]
        assert counter.to_ossm(db) == build_from_database(db, bounds)


def test_word_boundary_database_sizes():
    """Sizes around the 64-bit word edge — the padding-bit hazard."""
    for n in (63, 64, 65, 127, 128, 129):
        db = TransactionDatabase([{0, 1}] * n, n_items=2)
        counter = BitmapCounter()
        assert counter.count(db, [(0, 1)]) == {(0, 1): n}
