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

from repro.core.itemset_table import ItemsetTable
from repro.core.ossm import build_from_database
from repro.data import TransactionDatabase

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
