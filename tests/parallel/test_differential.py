"""Differential harness: every ``workers=`` path must be *exactly* serial.

Three layers of evidence:

* a property (hypothesis, with a seeded-random fallback) that every
  counter built for a ``workers=`` request — bitmap thread shards, and
  the serial engines that ignore the request — returns bit-identical
  counts to every serial engine on arbitrary databases, for every
  worker count and a shard count that does not divide the collection
  evenly;
* per-miner differential runs — Apriori (plain and +OSSM), DHP and
  Partition produce the same :class:`MiningResult` per level whether
  they run serially or with 1/2/4 workers (bitmap threads for
  counting, worker processes for DHP's chunk passes and Partition's
  phase 1);
* explicit degenerate-input cases (empty candidate set, empty
  database, the empty itemset, out-of-domain items, mixed
  cardinalities) where every counter — serial or ``workers=`` — must
  agree.
"""

from itertools import combinations

import pytest

from repro.data import TransactionDatabase, generate_quest
from repro.mining import (
    DHP,
    Apriori,
    HashTreeCounter,
    OSSMPruner,
    Partition,
    SubsetCounter,
)
from repro.core.ossm import build_from_database
from repro.mining.counting import TidsetCounter, make_counter
from repro.parallel import ThreadedBitmapCounter, ThreadShardPlanner

from ._support import N_ITEMS, given_database

WORKER_COUNTS = (1, 2, 4)

#: (workers, engine) requests for the serial engines, which count
#: serially whatever ``workers`` says; the bitmap engine's thread
#: shards are built explicitly below so that they really split.
WORKER_ENGINES = ((1, "subset"), (2, "tidset"), (4, "hashtree"), (2, "subset"))

SERIAL_ENGINES = {
    "subset": SubsetCounter,
    "tidset": TidsetCounter,
    "hashtree": lambda: HashTreeCounter(branch=3, leaf_capacity=2),
}


def serial_reference(db, candidates):
    """Counts from the database itself — independent of every engine."""
    return {candidate: db.support(candidate) for candidate in candidates}


# -- property: counts are bit-identical ---------------------------------


@given_database(max_examples=8)
def test_parallel_counts_equal_every_serial_engine(db):
    parallel_counters = [
        make_counter(engine, workers=workers)
        for workers, engine in WORKER_ENGINES
    ] + [
        # 3 shards over whole 64-transaction words: almost never an
        # even split of the tiled database below.
        ThreadedBitmapCounter(
            workers=workers,
            planner=ThreadShardPlanner(n_shards=3, min_words=1),
        )
        for workers in (2, 4)
    ]
    # Tiled past three words so the thread shards really split it.
    tiled = TransactionDatabase(list(db) * 7, n_items=db.n_items)
    try:
        for database in (db, tiled):
            for k in (1, 2, 3):
                candidates = list(combinations(range(N_ITEMS), k))
                reference = serial_reference(database, candidates)
                for factory in SERIAL_ENGINES.values():
                    assert factory().count(database, candidates) == reference
                for counter in parallel_counters:
                    assert counter.count(database, candidates) == reference
    finally:
        for counter in parallel_counters:
            closer = getattr(counter, "close", None)
            if closer is not None:
                closer()


# -- per-miner differential runs ----------------------------------------


@pytest.fixture(scope="module")
def workload():
    return generate_quest(
        n_transactions=300,
        n_items=15,
        avg_transaction_len=5,
        n_patterns=40,
        seed=7,
    )


@pytest.fixture(scope="module")
def workload_ossm(workload):
    bounds = [0, 60, 60, 150, 151, 300]  # empty + 1-txn segments included
    return build_from_database(workload, bounds)


MINSUP = 6


def miner_for(kind, workers, ossm):
    if kind == "apriori":
        return Apriori(max_level=4, workers=workers)
    if kind == "apriori+ossm":
        return Apriori(
            pruner=OSSMPruner(ossm), max_level=4, workers=workers
        )
    if kind == "dhp":
        return DHP(n_buckets=64, max_level=4, workers=workers)
    assert kind == "partition"
    return Partition(
        n_partitions=3, auto_ossm=2, max_level=4, workers=workers
    )


@pytest.fixture(scope="module")
def serial_results(workload, workload_ossm):
    return {
        kind: miner_for(kind, None, workload_ossm).mine(workload, MINSUP)
        for kind in ("apriori", "apriori+ossm", "dhp", "partition")
    }


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize(
    "kind", ("apriori", "apriori+ossm", "dhp", "partition")
)
def test_miners_identical_per_level_under_fanout(
    kind, workers, workload, workload_ossm, serial_results
):
    serial = serial_results[kind]
    result = miner_for(kind, workers, workload_ossm).mine(workload, MINSUP)
    assert result.algorithm == serial.algorithm
    assert result.min_support == serial.min_support
    assert result.frequent == serial.frequent
    assert result.levels == serial.levels  # per-level accounting too


def test_sanity_miners_find_something(serial_results):
    for kind, result in serial_results.items():
        assert result.n_frequent > 0, kind


# -- degenerate inputs: every counter agrees ----------------------------


def all_counters():
    for name, factory in SERIAL_ENGINES.items():
        yield name, factory()
    for workers, engine in WORKER_ENGINES:
        # The id names the request (engine + workers=), not the class
        # the registry answers it with.
        yield (
            f"parallel-{engine}-w{workers}",
            make_counter(engine, workers=workers),
        )


@pytest.fixture(params=list(all_counters()), ids=lambda pair: pair[0])
def any_counter(request):
    counter = request.param[1]
    yield counter
    closer = getattr(counter, "close", None)
    if closer is not None:
        closer()


def test_no_candidates_yields_empty_dict(any_counter, tiny_db):
    assert any_counter.count(tiny_db, []) == {}


def test_empty_database_yields_zero_counts(any_counter):
    empty = TransactionDatabase([], n_items=4)
    assert any_counter.count(empty, [(0,), (1,)]) == {(0,): 0, (1,): 0}


def test_empty_itemset_counts_every_transaction(any_counter, tiny_db):
    assert any_counter.count(tiny_db, [()]) == {(): len(tiny_db)}


def test_empty_itemset_on_empty_database(any_counter):
    empty = TransactionDatabase([], n_items=4)
    assert any_counter.count(empty, [()]) == {(): 0}


def test_out_of_domain_items_count_zero(any_counter, tiny_db):
    candidates = [(0, 99), (1, 2)]
    counts = any_counter.count(tiny_db, candidates)
    assert counts[(0, 99)] == 0
    assert counts[(1, 2)] == tiny_db.support((1, 2))


def test_mixed_cardinality_rejected(any_counter, tiny_db):
    with pytest.raises(ValueError, match="cardinality"):
        any_counter.count(tiny_db, [(0,), (0, 1)])
