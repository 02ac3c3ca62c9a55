"""Determinism: worker count and shard order must be invisible.

The frequent-itemset output of a seeded workload must be byte-identical
— same JSON serialization, not merely equal sets — no matter how many
threads count it, how the packed words are sharded, or which engine is
named alongside ``workers=``. Integer per-shard counts are summed
(addition commutes) and results are gathered in payload order, so
nothing about scheduling can leak into the output.
"""

import json

import pytest

from repro.data import generate_skewed
from repro.mining import DHP, Apriori, Partition
from repro.parallel import ThreadedBitmapCounter, ThreadShardPlanner


def fingerprint(result) -> bytes:
    """Canonical byte serialization of everything a caller can observe."""
    return json.dumps(
        {
            "algorithm": result.algorithm,
            "min_support": result.min_support,
            "itemsets": [
                [list(itemset), support]
                for itemset, support in result.sorted_itemsets()
            ],
            "levels": [
                [
                    stats.level,
                    stats.candidates_generated,
                    stats.candidates_pruned,
                    stats.candidates_counted,
                    stats.frequent,
                ]
                for stats in result.levels
            ],
        },
        sort_keys=True,
    ).encode()


@pytest.fixture(scope="module")
def workload():
    return generate_skewed(
        n_transactions=240,
        n_items=14,
        avg_transaction_len=5,
        skew=0.7,
        seed=3,
    )


@pytest.fixture(scope="module")
def serial_fingerprint(workload):
    return fingerprint(Apriori(max_level=3).mine(workload, 5))


@pytest.mark.parametrize("workers", (1, 2, 4))
@pytest.mark.parametrize("n_shards", (2, 5, 7))
def test_apriori_output_independent_of_workers_and_shards(
    workload, serial_fingerprint, workers, n_shards
):
    counter = ThreadedBitmapCounter(
        workers=workers,
        planner=ThreadShardPlanner(n_shards=n_shards, min_words=1),
    )
    with counter:
        result = Apriori(counter=counter, max_level=3).mine(workload, 5)
    assert fingerprint(result) == serial_fingerprint


@pytest.mark.parametrize("engine", ("subset", "tidset", "hashtree"))
def test_apriori_output_independent_of_shard_engine(
    workload, serial_fingerprint, engine
):
    """A serial engine named alongside ``workers=`` counts serially."""
    result = Apriori(max_level=3, engine=engine, workers=2).mine(workload, 5)
    assert fingerprint(result) == serial_fingerprint


def test_repeated_runs_are_byte_identical(workload):
    prints = set()
    for _run in range(2):
        counter = ThreadedBitmapCounter(
            workers=4, planner=ThreadShardPlanner(n_shards=5, min_words=1)
        )
        with counter:
            result = Apriori(counter=counter, max_level=3).mine(workload, 5)
        prints.add(fingerprint(result))
    assert len(prints) == 1


@pytest.mark.parametrize("workers", (1, 2, 4))
def test_bitmap_output_byte_identical_across_thread_counts(
    workload, serial_fingerprint, workers
):
    """The bitmap engine leaves no thread-count residue.

    Per-shard popcount vectors are int64 and summed in shard order, so
    the fingerprint must equal the serial Apriori's byte for byte.
    """
    counter = ThreadedBitmapCounter(
        workers=workers, planner=ThreadShardPlanner(min_words=1, n_shards=3)
    )
    with counter:
        result = Apriori(counter=counter, max_level=3).mine(workload, 5)
    assert fingerprint(result) == serial_fingerprint


def test_bitmap_engine_flag_matches_serial(workload, serial_fingerprint):
    for workers in (None, 2):
        result = Apriori(
            max_level=3, engine="bitmap", workers=workers
        ).mine(workload, 5)
        assert fingerprint(result) == serial_fingerprint


def test_dhp_and_partition_match_their_serial_runs(workload):
    for serial, parallel in (
        (
            DHP(n_buckets=32, max_level=3),
            DHP(n_buckets=32, max_level=3, workers=3),
        ),
        (
            Partition(n_partitions=3, max_level=3),
            Partition(n_partitions=3, max_level=3, workers=3),
        ),
    ):
        assert fingerprint(parallel.mine(workload, 5)) == fingerprint(
            serial.mine(workload, 5)
        )
