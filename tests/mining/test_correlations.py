"""Tests for chi-squared correlation mining."""

import math

import numpy as np
import pytest

from repro.core import build_from_database
from repro.data import TransactionDatabase
from repro.mining import OSSMPruner
from repro.mining.correlations import (
    ContingencyTable,
    CorrelationMiner,
    contingency_table,
    mine_correlations,
)


def correlated_db(n=400, seed=0):
    """Items 0,1 strongly positively correlated; 2 independent."""
    rng = np.random.default_rng(seed)
    txns = []
    for _ in range(n):
        txn = set()
        if rng.random() < 0.5:
            txn.update((0, 1))  # bought together
        else:
            if rng.random() < 0.15:
                txn.add(0)
            if rng.random() < 0.15:
                txn.add(1)
        if rng.random() < 0.4:
            txn.add(2)
        txns.append(tuple(sorted(txn)) or (3,))
    return TransactionDatabase(txns, n_items=4)


def independent_db(n=400, seed=1):
    rng = np.random.default_rng(seed)
    txns = []
    for _ in range(n):
        txn = tuple(
            int(i) for i in np.flatnonzero(rng.random(3) < 0.4)
        )
        txns.append(txn or (3,))
    return TransactionDatabase(txns, n_items=4)


class TestContingencyTable:
    def test_cells_partition_collection(self, tiny_db):
        table = contingency_table(tiny_db, (0, 1))
        assert sum(table.cells) == len(tiny_db)

    def test_all_present_cell_is_support(self, tiny_db):
        table = contingency_table(tiny_db, (0, 1))
        assert table.cells[0b11] == tiny_db.support((0, 1))

    def test_marginals(self, tiny_db):
        table = contingency_table(tiny_db, (0, 1))
        supports = tiny_db.item_supports()
        assert table.marginal(0) == supports[0]
        assert table.marginal(1) == supports[1]

    def test_expected_sums_to_n(self, tiny_db):
        table = contingency_table(tiny_db, (0, 1, 2))
        total = sum(table.expected(p) for p in range(8))
        assert total == pytest.approx(len(tiny_db))

    def test_chi_squared_zero_for_perfect_independence(self):
        # Constructed 2x2 with exact independence: P(0)=P(1)=1/2.
        db = TransactionDatabase(
            [(0, 1)] * 25 + [(0,)] * 25 + [(1,)] * 25 + [()] * 25,
            n_items=2,
        )
        table = contingency_table(db, (0, 1))
        assert table.chi_squared() == pytest.approx(0.0)

    def test_chi_squared_high_for_perfect_correlation(self):
        db = TransactionDatabase([(0, 1)] * 50 + [()] * 50, n_items=2)
        table = contingency_table(db, (0, 1))
        assert table.chi_squared() == pytest.approx(100.0)  # == n
        assert table.p_value() == pytest.approx(
            math.erfc(math.sqrt(50.0)), rel=1e-9
        )

    def test_p_value_is_the_one_df_closed_form(self):
        # For df = 1 the chi-squared upper tail is erfc(sqrt(x / 2)).
        db = TransactionDatabase(
            [(0, 1)] * 30 + [(0,)] * 20 + [(1,)] * 15 + [()] * 35,
            n_items=2,
        )
        table = contingency_table(db, (0, 1))
        x = table.chi_squared()
        assert 1.0 < x < 20.0  # a p-value far from both 0 and 1
        assert table.p_value() == pytest.approx(
            math.erfc(math.sqrt(x / 2)), rel=1e-12
        )


class TestMiner:
    def test_finds_planted_correlation(self):
        db = correlated_db()
        correlated = mine_correlations(db, 0.05, max_level=2)
        assert (0, 1) in correlated

    def test_independent_items_not_flagged(self):
        db = independent_db()
        correlated = mine_correlations(
            db, 0.05, significance=0.01, max_level=2
        )
        assert (0, 1) not in correlated
        assert (0, 2) not in correlated

    def test_minimality(self):
        """A superset of a reported set is never reported."""
        db = correlated_db()
        correlated = mine_correlations(db, 0.02, max_level=3)
        for found in correlated:
            for other in correlated:
                assert not set(found) < set(other)

    def test_ossm_pruning_changes_nothing(self):
        db = correlated_db()
        ossm = build_from_database(db, list(range(0, len(db) + 1, 50)))
        plain = mine_correlations(db, 0.05, max_level=3)
        fast = mine_correlations(
            db, 0.05, pruner=OSSMPruner(ossm), max_level=3
        )
        assert plain == fast

    def test_accounting(self):
        db = correlated_db()
        miner = CorrelationMiner(max_level=2)
        _, accounting = miner.mine(db, 0.05)
        assert accounting.level(2).candidates_generated > 0
        assert accounting.algorithm == "chi-squared"

    def test_validity_screen(self):
        """Tiny expected cells suppress the test instead of firing it."""
        db = TransactionDatabase([(0, 1)] * 3 + [(2,)] * 3, n_items=3)
        correlated = mine_correlations(
            db, 1, min_expected=5.0, max_level=2
        )
        assert correlated == {}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CorrelationMiner(significance=0.0)
        with pytest.raises(ValueError):
            CorrelationMiner(max_level=1)
