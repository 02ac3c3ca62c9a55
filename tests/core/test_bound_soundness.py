"""Equation (1) soundness over pathological segment compositions.

Soundness is the paper's core invariant — ``ŝup(X) >= sup(X)`` for
every candidate — and ``OSSM.upper_bounds`` must keep it on every
segment composition we can throw at it: empty segments,
single-transaction segments, all-ties collections, skewed splits. Each
candidate level is checked against ``TransactionDatabase.support``.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core import ossm as ossm_module
from repro.core.itemset_table import ItemsetTable
from repro.core.ossm import OSSM, build_from_database
from repro.data import TransactionDatabase
from repro.resilience import atomic_savez

from ..parallel._support import (
    N_ITEMS,
    given_database,
    pathological_compositions,
)

#: One candidate batch per cardinality — Equation (1) is evaluated per
#: Apriori level, so each batch is uniform like the real call sites.
CANDIDATE_LEVELS = (
    [(i,) for i in range(N_ITEMS)],
    list(combinations(range(N_ITEMS), 2)),
    list(combinations(range(5), 3)),
)

PAIRS = CANDIDATE_LEVELS[1]


def assert_sound(ossm, db, candidates):
    bounds = ossm.upper_bounds(candidates)
    assert bounds.shape == (len(candidates),)
    for candidate, bound in zip(candidates, bounds):
        assert int(bound) >= db.support(candidate)


# -- properties over arbitrary databases and compositions ---------------


@given_database(max_examples=6)
def test_bounds_stay_sound_over_pathological_compositions(db):
    triangle = ItemsetTable.pairs_of(np.arange(N_ITEMS))
    for cuts in pathological_compositions(len(db)):
        ossm = build_from_database(db, cuts)
        for candidates in CANDIDATE_LEVELS:
            assert_sound(ossm, db, candidates)
        # The L1-triangle kernel and the gather agree on every pair.
        assert np.array_equal(
            ossm.upper_bounds(triangle), ossm.upper_bounds(PAIRS)
        )


# -- deterministic pathological cases -----------------------------------


@pytest.fixture(scope="module")
def ties_db():
    """Every transaction identical: the all-ties composition."""
    return TransactionDatabase([(0, 2, 5)] * 24, n_items=N_ITEMS)


def test_all_ties_single_transaction_segments(ties_db):
    cuts = list(range(len(ties_db) + 1))  # one transaction per segment
    ossm = build_from_database(ties_db, cuts)
    assert_sound(ossm, ties_db, PAIRS)
    # The bound is tight here: every segment is pure.
    assert ossm.upper_bounds([(0, 2, 5)])[0] == len(ties_db)
    assert ossm.upper_bounds([(0, 1), (2, 5)])[0] == 0


def test_skewed_composition_stays_sound(quest_db):
    n = len(quest_db)
    cuts = [0, 1, 2, 3, n // 2, n // 2, n - 1, n]
    ossm = build_from_database(quest_db, cuts)
    for candidates in CANDIDATE_LEVELS:
        assert_sound(ossm, quest_db, candidates)


def test_degenerate_candidate_sets(quest_db):
    ossm = build_from_database(
        quest_db, [0, len(quest_db) // 2, len(quest_db)]
    )
    assert ossm.upper_bounds([]).shape == (0,)
    assert ossm.upper_bounds([(0, 1)])[0] == ossm.upper_bound((0, 1))


# -- dtype edges: the stored width must never wrap a bound ----------------


#: Largest item totals at the edges of the stored widths: the last
#: uint16 and uint32 values and one past each.
DTYPE_EDGES = (2**16 - 1, 2**16, 2**32 - 1, 2**32)

EDGE_ITEMS = 6


def weighted_collection(largest_total):
    """Three segments of weighted transactions (``(items, count)``)
    whose largest item total is exactly *largest_total*.

    Weights stand in for repeated transactions, so true supports stay
    exact Python integers at sizes no database could hold.
    """
    base = [
        [((0, 1, 2, 3), 3), ((4, 5), 2), ((1, 5), 1)],
        [((0, 2, 4), 2), ((3,), 5), ((1, 2, 3, 4, 5), 1)],
        [((0, 1), 1), ((2, 3, 5), 4), ((), 2)],
    ]
    item0 = sum(n for segment in base for items, n in segment if 0 in items)
    heavy = largest_total // 2
    base[0].append(((0, 1, 2), heavy))
    base[1].append(((0, 3), largest_total - heavy - item0))
    base[2].append(((1, 3, 4), largest_total // 4))
    return base


def edge_map(collection):
    matrix = np.zeros((len(collection), EDGE_ITEMS), dtype=np.int64)
    for s, segment in enumerate(collection):
        for items, n in segment:
            matrix[s, list(items)] += n
    sizes = [sum(n for _, n in segment) for segment in collection]
    return matrix, sizes


def true_support(collection, itemset):
    return sum(
        n
        for segment in collection
        for items, n in segment
        if set(itemset) <= set(items)
    )


def reference_bound(matrix, itemset):
    """Equation (1) in Python integers: the int64 reference."""
    return sum(
        min(int(matrix[s, x]) for x in itemset)
        for s in range(matrix.shape[0])
    )


@pytest.mark.parametrize("largest_total", DTYPE_EDGES)
@pytest.mark.parametrize("block_bytes", [None, 16])
def test_dtype_edges_match_the_int64_reference(
    largest_total, block_bytes, monkeypatch
):
    if block_bytes is not None:
        # Many tiny blocks: the gather's block seams are exercised too.
        monkeypatch.setattr(ossm_module, "_BOUND_BLOCK_BYTES", block_bytes)
    collection = weighted_collection(largest_total)
    matrix, sizes = edge_map(collection)
    assert int(matrix.sum(axis=0).max()) == largest_total
    ossm = OSSM(matrix, segment_sizes=sizes)
    width = 2 if largest_total < 2**16 else 4 if largest_total < 2**32 else 8
    assert ossm.nbytes() == matrix.size * width
    assert np.array_equal(ossm.matrix, matrix)
    assert ossm.item_supports().tolist() == matrix.sum(axis=0).tolist()

    basis = np.arange(EDGE_ITEMS)
    triangle = ossm.upper_bounds(ItemsetTable.pairs_of(basis))
    assert triangle.dtype == np.int64
    pairs = list(combinations(range(EDGE_ITEMS), 2))
    assert triangle.tolist() == [reference_bound(matrix, p) for p in pairs]

    for size in (1, 2, 3, 4):
        candidates = list(combinations(range(EDGE_ITEMS), size))
        reference = [reference_bound(matrix, c) for c in candidates]
        gathered = ossm.upper_bounds(candidates)
        assert gathered.dtype == np.int64
        assert gathered.tolist() == reference
        assert [ossm.upper_bound(c) for c in candidates] == reference
        for candidate, bound in zip(candidates, reference):
            assert true_support(collection, candidate) <= bound
        for threshold in (1, largest_total // 3, largest_total):
            survivors, mask = ossm.prune(candidates, threshold)
            assert mask.tolist() == [b >= threshold for b in reference]
            assert survivors == [
                c for c, b in zip(candidates, reference) if b >= threshold
            ]
    # The heaviest singleton's bound is the edge value itself.
    assert ossm.upper_bound((0,)) == largest_total
    assert ossm.upper_bound(()) == sum(sizes)


@pytest.mark.parametrize("largest_total", DTYPE_EDGES)
def test_int64_archive_loads_to_an_equal_map(largest_total, tmp_path):
    # The archive layout written before maps were stored narrow: an
    # int64 "matrix" plus int64 sizes, checksummed by atomic_savez.
    matrix, sizes = edge_map(weighted_collection(largest_total))
    path = tmp_path / "map.npz"
    atomic_savez(
        path,
        {"matrix": matrix, "sizes": np.asarray(sizes, dtype=np.int64)},
        kind="ossm",
    )
    loaded = OSSM.load(path)
    assert loaded == OSSM(matrix)
    assert loaded.segment_sizes == tuple(sizes)
    assert np.array_equal(loaded.matrix, matrix)
    pairs = list(combinations(range(EDGE_ITEMS), 2))
    assert loaded.upper_bounds(pairs).tolist() == [
        reference_bound(matrix, p) for p in pairs
    ]
    # And a map saved now round-trips to an equal map.
    loaded.save(tmp_path / "again.npz")
    assert OSSM.load(tmp_path / "again.npz") == loaded
