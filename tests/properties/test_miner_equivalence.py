"""Property: every miner finds exactly the same frequent itemsets.

The strongest integration invariant available — seven independently
implemented algorithms (plus the brute-force oracle) must agree on
arbitrary databases at arbitrary thresholds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OSSM
from repro.data import TransactionDatabase, generate_quest
from repro.mining import (
    DHP,
    Apriori,
    OSSMPruner,
    Partition,
    apriori,
    depth_project,
    dhp,
    eclat,
    fpgrowth,
    partition_mine,
)
from tests.conftest import brute_force_frequent

transactions = st.lists(
    st.sets(st.integers(min_value=0, max_value=6), min_size=1, max_size=7),
    min_size=1,
    max_size=25,
)
thresholds = st.integers(min_value=1, max_value=6)


def make_db(txns) -> TransactionDatabase:
    return TransactionDatabase([tuple(t) for t in txns], n_items=7)


@settings(max_examples=40, deadline=None)
@given(transactions, thresholds)
def test_all_miners_agree_with_brute_force(txns, threshold):
    db = make_db(txns)
    expected = brute_force_frequent(db, threshold)
    assert apriori(db, threshold).frequent == expected
    assert dhp(db, threshold, n_buckets=32).frequent == expected
    assert fpgrowth(db, threshold).frequent == expected
    assert eclat(db, threshold).frequent == expected
    assert depth_project(db, threshold).frequent == expected
    assert partition_mine(db, threshold, n_partitions=3).frequent == expected


@settings(max_examples=30, deadline=None)
@given(transactions, thresholds, st.integers(min_value=1, max_value=5))
def test_ossm_pruning_never_changes_output(txns, threshold, n_segments):
    db = make_db(txns)
    n = min(n_segments, len(db))
    bounds = np.linspace(0, len(db), n + 1).astype(int)
    ossm = OSSM.from_segments(
        [db[int(lo):int(hi)] for lo, hi in zip(bounds, bounds[1:])]
    )
    pruner = OSSMPruner(ossm)
    expected = brute_force_frequent(db, threshold)
    assert apriori(db, threshold, pruner=pruner).frequent == expected
    assert (
        dhp(db, threshold, n_buckets=32, pruner=pruner).frequent == expected
    )
    assert depth_project(db, threshold, pruner=pruner).frequent == expected


@settings(max_examples=25, deadline=None)
@given(transactions, thresholds)
def test_dhp_options_never_change_output(txns, threshold):
    db = make_db(txns)
    expected = brute_force_frequent(db, threshold)
    for n_buckets in (1, 7, 64):
        for trim in (False, True):
            miner = DHP(n_buckets=n_buckets, trim=trim)
            assert miner.mine(db, threshold).frequent == expected


# -- engine axis: every registry engine, per level ----------------------


@pytest.fixture(scope="module")
def engine_workload():
    return generate_quest(
        n_transactions=250,
        n_items=12,
        avg_transaction_len=5,
        n_patterns=30,
        seed=13,
    )


@pytest.fixture(scope="module")
def engine_serial_results(engine_workload):
    return {
        "apriori": Apriori(max_level=4).mine(engine_workload, 5),
        "partition": Partition(n_partitions=3, max_level=4).mine(
            engine_workload, 5
        ),
    }


@pytest.mark.parametrize("workers", (None, 1, 2, 4))
@pytest.mark.parametrize(
    "engine", ("subset", "bitmap", "tidset", "hashtree")
)
@pytest.mark.parametrize("kind", ("apriori", "partition"))
def test_miners_identical_across_engines_and_workers(
    kind, engine, workers, engine_workload, engine_serial_results
):
    """Per-level MiningResult identity: miner × engine × workers.

    ``MiningResult`` equality covers the frequent sets with supports;
    ``levels`` pins the per-level candidate accounting too, so an
    engine that merely reached the same fixpoint differently would
    still fail.
    """
    if kind == "apriori":
        miner = Apriori(max_level=4, engine=engine, workers=workers)
    else:
        miner = Partition(
            n_partitions=3, max_level=4, engine=engine, workers=workers
        )
    serial = engine_serial_results[kind]
    result = miner.mine(engine_workload, 5)
    assert result.frequent == serial.frequent
    assert result.levels == serial.levels
