"""TenantStore WAL + artifact persistence and registry recovery.

The load-bearing properties:

* every control-plane transition survives a restart exactly: tenants,
  epochs, quotas, and (crucially) deletions;
* a WAL truncated at *any* byte offset inside its final record — the
  only damage a crash mid-append can produce — recovers silently to
  the longest valid prefix (hypothesis sweeps every offset);
* damage that is *not* a torn tail (a corrupted record with valid
  records after it, an artifact missing or disagreeing with the WAL)
  raises the typed ``CorruptArtifact`` instead of guessing.
"""

import asyncio
import json
from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ossm import OSSM
from repro.resilience import CorruptArtifact
from repro.serve import TenantQuota, TenantRegistry, TenantStore


def small_map(bump: int = 0, epoch: int = 0) -> OSSM:
    """A tiny deterministic OSSM; *bump* varies the bounds."""
    matrix = np.array(
        [[20, 40, 40], [10, 40, 20], [40, 10, 20]], dtype=np.int64
    ) + bump
    return OSSM(matrix, segment_sizes=(50, 50, 50), epoch=epoch)


@pytest.fixture
def store(tmp_path) -> Iterator[TenantStore]:
    with TenantStore(tmp_path / "state") as store:
        yield store


class TestWALFraming:
    def test_append_replay_round_trip(self, store):
        store.record_create("alpha", 0, "alpha/epoch_00000000.npz")
        store.record_publish("alpha", 1, "alpha/epoch_00000001.npz")
        store.record_quota("alpha", {"rate": 10.0})
        store.record_delete("alpha")
        ops = [record["op"] for record in store.replay()]
        assert ops == ["create", "publish", "quota", "delete"]

    def test_unknown_op_rejected_at_append(self, store):
        with pytest.raises(ValueError, match="unknown WAL op"):
            store.append({"op": "upgrade", "tenant": "x"})

    def test_missing_wal_is_empty(self, store):
        assert store.replay() == []
        assert store.recovered_tenants() == {}

    def test_corruption_before_valid_records_raises(self, store):
        """Damage mid-file cannot be a torn append: it must raise."""
        store.record_create("alpha", 0, "alpha/epoch_00000000.npz")
        store.record_create("beta", 0, "beta/epoch_00000000.npz")
        store.close()
        data = store.wal_path.read_bytes()
        damaged = bytearray(data)
        damaged[len(data) // 4] ^= 0xFF  # inside the first record
        store.wal_path.write_bytes(bytes(damaged))
        with pytest.raises(CorruptArtifact) as err:
            TenantStore(store.root).replay()
        assert str(store.wal_path) in str(err.value)

    def test_foreign_bytes_at_start_raise(self, store):
        store.wal_path.write_bytes(b"not a wal at all" * 4)
        with pytest.raises(CorruptArtifact, match="bad record magic"):
            store.replay()

    def test_torn_tail_truncated_so_appends_continue(self, store):
        store.record_create("alpha", 0, "alpha/epoch_00000000.npz")
        store.close()
        intact = store.wal_path.read_bytes()
        store.wal_path.write_bytes(
            intact + b"\x00\x01"  # crash wrote two bytes of magic
        )
        reopened = TenantStore(store.root)
        assert [r["op"] for r in reopened.replay()] == ["create"]
        # The tail is gone from disk: a new append must extend a log
        # that replays clean.
        reopened.record_publish("alpha", 1, "alpha/epoch_00000001.npz")
        reopened.close()
        ops = [r["op"] for r in TenantStore(store.root).replay()]
        assert ops == ["create", "publish"]


class TestRecoveredFold:
    def test_delete_then_recreate(self, store):
        store.record_create("a", 0, "a/epoch_00000000.npz")
        store.record_delete("a")
        store.record_create("a", 0, "a/epoch_00000000.npz")
        assert set(store.recovered_tenants()) == {"a"}

    def test_publish_for_unknown_tenant_is_corruption(self, store):
        store.record_publish("ghost", 1, "ghost/epoch_00000001.npz")
        with pytest.raises(CorruptArtifact, match="unknown tenant"):
            store.recovered_tenants()

    def test_epoch_regression_is_corruption(self, store):
        store.record_create("a", 0, "a/epoch_00000000.npz")
        store.record_publish("a", 2, "a/epoch_00000002.npz")
        store.record_publish("a", 1, "a/epoch_00000001.npz")
        with pytest.raises(CorruptArtifact, match="moved backwards"):
            store.recovered_tenants()

    def test_quota_record_replaces_quota(self, store):
        store.record_create(
            "a", 0, "a/epoch_00000000.npz", quota={"rate": 5.0}
        )
        store.record_quota("a", {"rate": 50.0, "burst": 10.0})
        state = store.recovered_tenants()["a"]
        assert state.quota == {"rate": 50.0, "burst": 10.0}

    def test_artifact_path_confined_to_store(self, store):
        with pytest.raises(CorruptArtifact, match="escapes the store"):
            store.artifact_path("../../etc/passwd")


class TestRegistryPersistence:
    def test_full_restore_bit_exact(self, store, tmp_path):
        """Tenants, epochs, quotas, and bounds all survive a restart."""
        async def before():
            registry = TenantRegistry(
                store=store, default_quota=TenantQuota(rate=1000.0)
            )
            registry.create("a", small_map())
            registry.create(
                "b", small_map(bump=3), quota=TenantQuota(rate=7.0)
            )
            assert registry.publish("a", small_map(bump=9)) == 1
            await registry.aclose()

        asyncio.run(before())

        async def after():
            registry = TenantRegistry.recover(TenantStore(store.root))
            assert registry.names() == ["a", "b"]
            a, b = registry.get("a"), registry.get("b")
            assert (a.epoch, b.epoch) == (1, 0)
            assert b.quota.rate == 7.0
            queries = [(0,), (1, 2), (0, 2)]
            async with registry:
                got = await a.query_batch(queries)
            oracle = small_map(bump=9)
            assert got == [oracle.upper_bound(q) for q in queries]

        asyncio.run(after())

    def test_deleted_tenant_stays_deleted(self, store):
        """Regression: a DELETE must survive the restart (tombstone)."""
        async def scenario():
            registry = TenantRegistry(store=store)
            registry.create("keep", small_map())
            registry.create("gone", small_map(bump=1))
            await registry.remove("gone")
            await registry.aclose()
            recovered = TenantRegistry.recover(TenantStore(store.root))
            assert recovered.names() == ["keep"]
            assert "gone" not in recovered
            await recovered.aclose()

        asyncio.run(scenario())

    def test_artifact_epoch_must_match_wal(self, store):
        async def scenario():
            registry = TenantRegistry(store=store)
            registry.create("a", small_map())
            await registry.aclose()

        asyncio.run(scenario())
        # Overwrite the artifact with one claiming a different epoch.
        path = store.artifact_path("a/epoch_00000000.npz")
        small_map(epoch=3).save(path)
        with pytest.raises(CorruptArtifact, match="does not match WAL"):
            TenantRegistry.recover(TenantStore(store.root))

    def test_sweep_removes_orphan_temp_files(self, store):
        orphan = store.artifacts_dir / "a"
        orphan.mkdir()
        (orphan / ".epoch_00000001.npz.123.tmp").write_bytes(b"partial")
        assert store.sweep_temp_files() == 1
        assert list(store.artifacts_dir.rglob("*.tmp")) == []

    def test_quota_overrides_applied_and_invalid_skipped(self, store):
        async def scenario():
            registry = TenantRegistry(store=store)
            registry.create("a", small_map())
            registry.create("b", small_map(bump=1))
            store.quotas_path.write_text(json.dumps({
                "a": {"rate": 3.0},
                "b": {"rate": -1.0},       # invalid: skipped with warning
                "ghost": {"rate": 2.0},    # unknown tenant: skipped
            }))
            assert registry.apply_quota_overrides() == 1
            assert registry.get("a").quota.rate == 3.0
            assert registry.get("b").quota.rate is None
            await registry.aclose()

        asyncio.run(scenario())

    def test_unparseable_overrides_raise_value_error(self, store):
        async def scenario():
            registry = TenantRegistry(store=store)
            registry.create("a", small_map())
            store.quotas_path.write_text("{nope")
            with pytest.raises(ValueError, match="unparseable"):
                registry.apply_quota_overrides()
            await registry.aclose()

        asyncio.run(scenario())

    def test_recover_applies_overrides_at_boot(self, store):
        async def scenario():
            registry = TenantRegistry(store=store)
            registry.create("a", small_map())
            await registry.aclose()
            store.quotas_path.write_text(json.dumps({"a": {"rate": 9.0}}))
            recovered = TenantRegistry.recover(TenantStore(store.root))
            assert recovered.get("a").quota.rate == 9.0
            await recovered.aclose()

        asyncio.run(scenario())


def _wal_with_publish_tail(root) -> tuple[TenantStore, bytes, int]:
    """A two-record WAL (create + publish) and its last-record offset."""
    store = TenantStore(root / "state")
    async def build():
        registry = TenantRegistry(store=store)
        registry.create("a", small_map())
        registry.publish("a", small_map(bump=9))
        await registry.aclose()
    asyncio.run(build())
    data = store.wal_path.read_bytes()
    # Frame prefix: 4 magic + 1 version + 12 header; walk to the tail.
    offset, last = 0, 0
    while offset < len(data):
        length = int.from_bytes(data[offset + 9:offset + 17], "big")
        last = offset
        offset += 17 + length
    return store, data, last


class TestTruncationProperty:
    @settings(
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_tail_truncation_recovers_longest_prefix(
        self, data, tmp_path_factory
    ):
        """Cut the WAL anywhere inside its final record: recovery must
        never raise and must restore exactly the prefix before it."""
        root = tmp_path_factory.mktemp("wal")
        store, intact, last = _wal_with_publish_tail(root)
        cut = data.draw(
            st.integers(min_value=last, max_value=len(intact) - 1)
        )
        store.wal_path.write_bytes(intact[:cut])
        recovered = TenantStore(store.root).recovered_tenants()
        assert set(recovered) == {"a"}
        assert recovered["a"].epoch == 0
        assert store.wal_path.stat().st_size == last

    def test_every_offset_exhaustively(self, tmp_path):
        """Belt and braces: the same invariant swept at every offset,
        independent of hypothesis' sampling."""
        store, intact, last = _wal_with_publish_tail(tmp_path)
        for cut in range(last, len(intact)):
            store.wal_path.write_bytes(intact[:cut])
            recovered = TenantStore(store.root).recovered_tenants()
            assert recovered["a"].epoch == 0, cut
