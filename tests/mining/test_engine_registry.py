"""Tests of the counting-engine registry (`make_counter`/`make_pool`).

The registry is the single seam through which Apriori, DHP, Partition
and the CLI select a counting engine. Two families of checks:

* resolution — every registered name yields the documented class,
  ``workers=`` fans the bitmap engine out over threads and leaves the
  other engines serial, and unknown names (``"parallel"`` included)
  fail with a message listing the registry;
* contract — every registry engine honors the pinned
  :class:`~repro.mining.counting.SupportCounter` empty-input contract.
"""

import pytest

from repro.core.ossm import build_from_database
from repro.data import TransactionDatabase
from repro.mining import (
    Apriori,
    BitmapCounter,
    HashTreeCounter,
    OSSMPruner,
    SubsetCounter,
)
from repro.mining.counting import (
    ENGINE_ENV,
    TidsetCounter,
    make_counter,
    make_pool,
    register_engine,
    registered_engines,
    resolve_engine,
)
from repro.parallel import SupervisedPool, ThreadedBitmapCounter

SERIAL_NAMES = ("subset", "tidset", "hashtree")


@pytest.fixture
def tiny_db():
    return TransactionDatabase([{0, 1}, {1, 2}, {0, 1, 2}], n_items=3)


class TestResolution:
    def test_all_engines_registered(self):
        assert set(registered_engines()) >= {
            "subset", "tidset", "hashtree", "bitmap",
        }
        assert "parallel" not in registered_engines()

    def test_serial_names_resolve(self):
        assert isinstance(make_counter("subset"), SubsetCounter)
        assert isinstance(make_counter("tidset"), TidsetCounter)
        assert isinstance(make_counter("hashtree"), HashTreeCounter)

    def test_parallel_name_rejected(self):
        with pytest.raises(ValueError, match="unknown counting engine"):
            make_counter("parallel", workers=2)

    def test_bitmap_name_resolves_serial(self):
        counter = make_counter("bitmap")
        assert isinstance(counter, BitmapCounter)
        assert not isinstance(counter, ThreadedBitmapCounter)

    def test_bitmap_with_workers_resolves_threads(self):
        with make_counter("bitmap", workers=2) as counter:
            assert isinstance(counter, ThreadedBitmapCounter)
            assert counter.workers == 2

    def test_bitmap_segment_sizes_forwarded(self):
        with make_counter(
            "bitmap", workers=2, segment_sizes=[2, 1]
        ) as counter:
            assert counter.segment_sizes == (2, 1)

    def test_resolve_engine_defaults(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine(None) == "subset"
        assert resolve_engine(None, 4) == "bitmap"
        assert resolve_engine("tidset", 4) == "tidset"

    def test_resolve_engine_env_override(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "bitmap")
        assert resolve_engine(None) == "bitmap"
        assert resolve_engine(None, 4) == "bitmap"
        # An explicit engine beats the environment.
        assert resolve_engine("subset", 4) == "subset"

    def test_serial_name_with_workers_counts_serially(self):
        assert type(make_counter("subset", workers=2)) is SubsetCounter
        assert type(make_counter("tidset", workers=2)) is TidsetCounter
        assert type(make_counter("hashtree", workers=2)) is HashTreeCounter

    def test_apriori_workers_count_on_bitmap_threads(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        with Apriori(workers=2).counter as counter:
            assert isinstance(counter, ThreadedBitmapCounter)
            assert counter.workers == 2

    def test_segment_sizes_forwarded(self, tiny_db):
        # Apriori hands its OSSM's composition to the thread counter.
        ossm = build_from_database(tiny_db, [0, 2, 3])
        miner = Apriori(pruner=OSSMPruner(ossm), engine="bitmap", workers=2)
        with miner.counter as counter:
            assert counter.segment_sizes == (2, 1)

    def test_unknown_engine_lists_registry(self):
        with pytest.raises(ValueError, match="subset"):
            make_counter("btree")

    def test_register_engine_round_trip(self):
        class FakeCounter(SubsetCounter):
            pass

        register_engine("fake-for-test", FakeCounter)
        try:
            assert "fake-for-test" in registered_engines()
            assert isinstance(make_counter("fake-for-test"), FakeCounter)
        finally:
            from repro.mining import counting

            counting._SERIAL_FACTORIES.pop("fake-for-test")

    def test_make_pool_serial_is_none(self):
        assert make_pool(None, 100) is None
        assert make_pool(1, 100) is None
        assert make_pool(4, 1) is None

    def test_make_pool_parallel(self):
        pool = make_pool(2, 100)
        assert isinstance(pool, SupervisedPool)
        with pool:
            assert pool.workers == 2


@pytest.fixture(
    params=[
        "subset", "tidset", "hashtree", "bitmap", "bitmap-threaded",
    ],
)
def registry_engine(request):
    if request.param == "bitmap-threaded":
        counter = make_counter("bitmap", workers=2)
    else:
        counter = make_counter(request.param)
    yield counter
    closer = getattr(counter, "close", None)
    if closer is not None:
        closer()


class TestRegistryEngineContract:
    """Every registry engine passes the pinned empty-input contract."""

    def test_no_candidates(self, registry_engine, tiny_db):
        assert registry_engine.count(tiny_db, []) == {}

    def test_empty_database_counts_zero(self, registry_engine):
        empty = TransactionDatabase([], n_items=3)
        assert registry_engine.count(empty, [(0,), (2,)]) == {
            (0,): 0, (2,): 0,
        }

    def test_empty_itemset_counts_every_transaction(
        self, registry_engine, tiny_db
    ):
        assert registry_engine.count(tiny_db, [()]) == {(): 3}

    def test_out_of_domain_items_count_zero(self, registry_engine, tiny_db):
        assert registry_engine.count(tiny_db, [(7,)]) == {(7,): 0}

    def test_mixed_cardinality_rejected(self, registry_engine, tiny_db):
        with pytest.raises(ValueError):
            registry_engine.count(tiny_db, [(0,), (0, 1)])

    def test_exact_counts(self, registry_engine, tiny_db):
        assert registry_engine.count(tiny_db, [(0, 1), (1, 2), (0, 2)]) == {
            (0, 1): 2, (1, 2): 2, (0, 2): 1,
        }
