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
    chi2_sf,
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


#: ``scipy.stats.chi2.sf(x, df)`` from scipy 1.17.1 (numpy 2.4.6),
#: recorded as literals so the closed form is checked without scipy.
#: df = 2^k − k − 1 for k = 2…5; x = 0, moderate, a deep tail, inf.
SCIPY_CHI2_SF = [
    (1, 0.0, 1.0),
    (1, 3.0, 0.08326451666355042),
    (1, 20.0, 7.744216431044088e-06),
    (1, 750.0, 4.012375541416957e-165),
    (1, 1500.0, 0.0),
    (1, math.inf, 0.0),
    (4, 0.0, 1.0),
    (4, 3.0, 0.5578254003710748),
    (4, 20.0, 0.0004993992273873336),
    (4, 750.0, 5.185099935355477e-161),
    (4, 1500.0, 0.0),
    (4, math.inf, 0.0),
    (11, 0.0, 1.0),
    (11, 3.0, 0.9907258863657353),
    (11, 20.0, 0.04534067443406042),
    (11, 750.0, 1.021132550247984e-153),
    (11, 1500.0, 0.0),
    (11, math.inf, 0.0),
    (26, 0.0, 1.0),
    (26, 3.0, 0.9999999921967017),
    (26, 20.0, 0.7915564763948745),
    (26, 750.0, 2.2998147342445062e-141),
    (26, 1500.0, 1.278003750705087e-300),
    (26, math.inf, 0.0),
]


class TestChiSquaredTail:
    @pytest.mark.parametrize("df, x, expected", SCIPY_CHI2_SF)
    def test_matches_scipy(self, df, x, expected):
        got = chi2_sf(x, df)
        assert not math.isnan(got)
        if expected == 0.0:
            # Below the smallest normal double: 0 or a subnormal.
            assert 0.0 <= got < 1e-300
        else:
            assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 11, 26])
    def test_is_a_decreasing_tail(self, df):
        xs = [0.0, 1e-6, 0.5, 1.0, 5.0, 30.0, 200.0, 800.0, 2000.0, 1e5]
        tails = [chi2_sf(x, df) for x in xs]
        assert tails[0] == 1.0
        assert all(0.0 <= t <= 1.0 for t in tails)
        assert tails == sorted(tails, reverse=True)
        assert tails[-1] == 0.0

    def test_rejects_nonpositive_df(self):
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_p_value_uses_the_independence_df(self, k):
        rng = np.random.default_rng(k)
        txns = [
            tuple(i for i in range(k) if rng.random() < 0.3 + 0.1 * i)
            for _ in range(300)
        ]
        database = TransactionDatabase(txns, n_items=k)
        table = contingency_table(database, tuple(range(k)))
        df = 2**k - k - 1
        assert table.p_value() == chi2_sf(table.chi_squared(), df)


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
