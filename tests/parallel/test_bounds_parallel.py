"""Chunk-parallel Equation (1) bounds (the serve pool's evaluation).

Soundness is the paper's core invariant — ``ŝup(X) >= sup(X)`` for
every candidate — and the parallel evaluation must preserve it the
strongest possible way: by returning the *same* bound vector as the
serial code, element for element, on every segment composition we can
throw at it (empty segments, single-transaction segments, all-ties
collections, skewed splits).
"""

from itertools import combinations

import numpy as np
import pytest

from repro.core.ossm import build_from_database
from repro.data import TransactionDatabase
from repro.parallel import parallel_upper_bounds

from ._support import N_ITEMS, given_database, pathological_compositions

#: One candidate batch per cardinality — Equation (1) is evaluated per
#: Apriori level, so each batch is uniform like the real call sites.
CANDIDATE_LEVELS = (
    [(i,) for i in range(N_ITEMS)],
    list(combinations(range(N_ITEMS), 2)),
    list(combinations(range(5), 3)),
)

PAIRS = CANDIDATE_LEVELS[1]


# -- properties over arbitrary databases and compositions ---------------


@given_database(max_examples=6)
def test_parallel_bounds_equal_serial_and_stay_sound(db):
    for cuts in pathological_compositions(len(db)):
        ossm = build_from_database(db, cuts)
        for candidates in CANDIDATE_LEVELS:
            serial = ossm.upper_bounds(candidates)
            parallel = parallel_upper_bounds(ossm, candidates, workers=2)
            assert np.array_equal(parallel, serial)
            for candidate, bound in zip(candidates, parallel):
                assert int(bound) >= db.support(candidate)


# -- deterministic pathological cases -----------------------------------


@pytest.fixture(scope="module")
def ties_db():
    """Every transaction identical: the all-ties composition."""
    return TransactionDatabase([(0, 2, 5)] * 24, n_items=N_ITEMS)


def test_all_ties_single_transaction_segments(ties_db):
    cuts = list(range(len(ties_db) + 1))  # one transaction per segment
    ossm = build_from_database(ties_db, cuts)
    for workers in (2, 3, 4):
        bounds = parallel_upper_bounds(ossm, PAIRS, workers=workers)
        assert np.array_equal(bounds, ossm.upper_bounds(PAIRS))
    # The bound is tight here: every segment is pure.
    assert parallel_upper_bounds(ossm, [(0, 2, 5)], workers=2)[0] == len(
        ties_db
    )
    assert parallel_upper_bounds(ossm, [(0, 1), (2, 5)], workers=2)[
        0
    ] == 0


def test_skewed_composition_matches_serial(quest_db):
    n = len(quest_db)
    cuts = [0, 1, 2, 3, n // 2, n // 2, n - 1, n]
    ossm = build_from_database(quest_db, cuts)
    for workers in (2, 3, 4):
        for candidates in CANDIDATE_LEVELS:
            assert np.array_equal(
                parallel_upper_bounds(ossm, candidates, workers=workers),
                ossm.upper_bounds(candidates),
            )


def test_degenerate_candidate_sets(quest_db):
    ossm = build_from_database(
        quest_db, [0, len(quest_db) // 2, len(quest_db)]
    )
    # Zero candidates and single candidates delegate to the serial path.
    assert parallel_upper_bounds(ossm, [], workers=4).shape == (0,)
    lone = parallel_upper_bounds(ossm, [(0, 1)], workers=4)
    assert np.array_equal(lone, ossm.upper_bounds([(0, 1)]))
