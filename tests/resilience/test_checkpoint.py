"""Checkpoint store semantics and bit-identical miner resume."""

import pytest

from repro.core.itemset_table import ItemsetTable
from repro.data import generate_quest
from repro.mining import DHP, Apriori, Partition
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience import (
    CheckpointMismatch,
    CheckpointStore,
    CorruptArtifact,
    FaultPlan,
    InjectedFault,
    get_injector,
    mining_fingerprint,
    use_faults,
)


@pytest.fixture
def db():
    return generate_quest(
        n_transactions=250, n_items=50, avg_transaction_len=8,
        n_patterns=40, seed=3,
    )


class TestFingerprint:
    def test_binds_db_algorithm_threshold_and_config(self, db):
        base = mining_fingerprint("apriori", 5, db)
        other_db = generate_quest(
            n_transactions=250, n_items=50, avg_transaction_len=8,
            n_patterns=40, seed=4,
        )
        assert mining_fingerprint("apriori", 5, db) == base
        assert mining_fingerprint("apriori", 6, db) != base
        assert mining_fingerprint("dhp", 5, db) != base
        assert mining_fingerprint("apriori", 5, other_db) != base
        assert mining_fingerprint("apriori", 5, db, max_level=3) != base


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path, db):
        store = CheckpointStore(tmp_path, "fp")
        state = {"frequent": {(0,): 7}, "k": 2}
        store.save(2, state)
        level, loaded = store.load(store.path_for(2))
        assert (level, loaded) == (2, state)

    def test_latest_prefers_newest_valid(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        store.save(1, {"x": 1})
        store.save(2, {"x": 2})
        assert store.latest() == (2, {"x": 2})

    def test_latest_skips_corrupt_snapshot(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        store.save(1, {"x": 1})
        store.save(2, {"x": 2})
        path = store.path_for(2)
        path.write_bytes(path.read_bytes()[:-4])
        registry = MetricsRegistry()
        with use_registry(registry):
            assert store.latest() == (1, {"x": 1})
        assert (
            registry.counter("resilience.checkpoint.corrupt").snapshot() == 1
        )

    def test_latest_none_when_empty(self, tmp_path):
        assert CheckpointStore(tmp_path, "fp").latest() is None

    def test_fingerprint_mismatch_raises(self, tmp_path):
        CheckpointStore(tmp_path, "fp-a").save(1, {"x": 1})
        other = CheckpointStore(tmp_path, "fp-b")
        with pytest.raises(CheckpointMismatch, match="fp-b"):
            other.latest()

    def test_not_a_checkpoint_file(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        path = store.path_for(1)
        path.write_bytes(b"definitely not RPCK data")
        with pytest.raises(CorruptArtifact, match="not a checkpoint"):
            store.load(path)

    def test_clear_removes_snapshots(self, tmp_path):
        store = CheckpointStore(tmp_path, "fp")
        store.save(1, {})
        store.save(2, {})
        store.clear()
        assert store.latest() is None


def _assert_bit_identical(resumed, base):
    assert list(resumed.frequent.items()) == list(base.frequent.items())
    assert resumed.levels == base.levels
    assert resumed.algorithm == base.algorithm
    assert resumed.min_support == base.min_support


class TestMinerResume:
    """Crash a miner mid-run, resume, and demand the exact result."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda **kw: Apriori(**kw),
            lambda **kw: DHP(n_buckets=512, **kw),
        ],
        ids=["apriori", "dhp"],
    )
    def test_crash_then_resume_is_bit_identical(self, tmp_path, db, factory):
        base = factory().mine(db, 0.02)
        plan = FaultPlan.from_spec("mining.level_crash:after=2", seed=7)
        with use_faults(plan):
            with pytest.raises(InjectedFault):
                factory(checkpoint_dir=tmp_path).mine(db, 0.02)
        saved = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert saved == ["level_0001.ckpt", "level_0002.ckpt"]
        resumed = factory(checkpoint_dir=tmp_path, resume=True).mine(db, 0.02)
        _assert_bit_identical(resumed, base)

    def test_table_level_resumes_bit_identical(self, tmp_path, db):
        # The snapshot carries the frequent level as the table the loop
        # feeds to apriori_gen, and the resume starts from that table.
        base = Apriori(engine="bitmap").mine(db, 0.02)
        plan = FaultPlan.from_spec("mining.level_crash:after=2", seed=7)
        with use_faults(plan):
            with pytest.raises(InjectedFault):
                Apriori(engine="bitmap", checkpoint_dir=tmp_path).mine(
                    db, 0.02
                )
        store = CheckpointStore(
            tmp_path,
            mining_fingerprint(
                base.algorithm, base.min_support, db, max_level=None
            ),
        )
        level, state = store.latest()
        assert level == 2
        assert isinstance(state["frequent_prev"], ItemsetTable)
        assert list(state["frequent_prev"]) == sorted(
            itemset for itemset in base.frequent if len(itemset) == 2
        )
        resumed = Apriori(
            engine="bitmap", checkpoint_dir=tmp_path, resume=True
        ).mine(db, 0.02)
        _assert_bit_identical(resumed, base)

    def test_partition_resume_after_phase2_crash(self, tmp_path, db):
        def make(**kw):
            return Partition(n_partitions=3, auto_ossm=4, **kw)
        base = make().mine(db, 0.02)
        # Partition's phase-1 local Apriori runs also hit the
        # mining.level_crash point, so measure the total units first
        # and kill the very last one (the final phase-2 level).
        probe = FaultPlan.from_spec("mining.level_crash:after=10000", seed=7)
        with use_faults(probe):
            make().mine(db, 0.02)
            units = get_injector().hits("mining.level_crash")
        plan = FaultPlan.from_spec(
            f"mining.level_crash:after={units - 1}", seed=7
        )
        with use_faults(plan):
            with pytest.raises(InjectedFault):
                make(checkpoint_dir=tmp_path).mine(db, 0.02)
        assert (tmp_path / "level_0000.ckpt").exists(), (
            "the phase-1 candidate union must be checkpointed as unit 0"
        )
        resumed = make(checkpoint_dir=tmp_path, resume=True).mine(db, 0.02)
        _assert_bit_identical(resumed, base)

    def test_partition_resume_skips_phase_one(self, tmp_path, db):
        def make(**kw):
            return Partition(n_partitions=3, **kw)
        base = make().mine(db, 0.02)
        make(checkpoint_dir=tmp_path).mine(db, 0.02)
        # All units are on disk; a resume recomputes nothing but the
        # final state splice and still reports the full result.
        resumed = make(checkpoint_dir=tmp_path, resume=True).mine(db, 0.02)
        _assert_bit_identical(resumed, base)

    def test_resume_with_empty_dir_runs_fresh(self, tmp_path, db):
        base = Apriori().mine(db, 0.02)
        resumed = Apriori(checkpoint_dir=tmp_path, resume=True).mine(db, 0.02)
        _assert_bit_identical(resumed, base)

    def test_resume_requires_checkpoint_dir(self, db):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            Apriori(resume=True).mine(db, 0.02)

    def test_resume_against_other_threshold_mismatches(self, tmp_path, db):
        Apriori(checkpoint_dir=tmp_path).mine(db, 0.05)
        with pytest.raises(CheckpointMismatch):
            Apriori(checkpoint_dir=tmp_path, resume=True).mine(db, 0.1)

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path, db):
        base = Apriori().mine(db, 0.02)
        Apriori(checkpoint_dir=tmp_path).mine(db, 0.02)
        snapshots = sorted(tmp_path.glob("*.ckpt"))
        newest = snapshots[-1]
        newest.write_bytes(newest.read_bytes()[:-8])
        resumed = Apriori(checkpoint_dir=tmp_path, resume=True).mine(db, 0.02)
        _assert_bit_identical(resumed, base)

    def test_checkpoint_write_crash_leaves_resumable_state(
        self, tmp_path, db
    ):
        # The checkpoint writer itself dies before the rename: the run
        # fails, but the directory holds only complete snapshots.
        base = Apriori().mine(db, 0.02)
        plan = FaultPlan.from_spec("io.checkpoint.crash:after=1", seed=0)
        with use_faults(plan):
            with pytest.raises(InjectedFault):
                Apriori(checkpoint_dir=tmp_path).mine(db, 0.02)
        assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        resumed = Apriori(checkpoint_dir=tmp_path, resume=True).mine(db, 0.02)
        _assert_bit_identical(resumed, base)
