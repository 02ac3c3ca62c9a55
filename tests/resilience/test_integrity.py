"""Artifact integrity: atomic publish, checksums, corrupt-load paths."""

import gc
import os
import warnings

import numpy as np
import pytest

from repro.core.ossm import OSSM
from repro.data import TransactionDatabase
from repro.data.io import load_binary, save_binary
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience import (
    CorruptArtifact,
    FaultPlan,
    IntegrityError,
    InjectedFault,
    atomic_savez,
    payload_checksum,
    use_faults,
    verified_load_npz,
)

KIND = "testkind"


@pytest.fixture
def payload():
    return {
        "a": np.arange(12, dtype=np.int64).reshape(3, 4),
        "b": np.linspace(0.0, 1.0, 5),
    }


def _no_temp_files(directory):
    return not [name for name in os.listdir(directory) if ".tmp" in name]


class TestChecksum:
    def test_order_independent(self, payload):
        reordered = dict(reversed(list(payload.items())))
        assert payload_checksum(payload) == payload_checksum(reordered)

    def test_sensitive_to_name_shape_and_bytes(self, payload):
        baseline = payload_checksum(payload)
        renamed = {"z": payload["a"], "b": payload["b"]}
        reshaped = {"a": payload["a"].reshape(4, 3), "b": payload["b"]}
        edited = {"a": payload["a"] + 1, "b": payload["b"]}
        for variant in (renamed, reshaped, edited):
            assert payload_checksum(variant) != baseline


class TestRoundTrip:
    def test_savez_load_round_trip(self, tmp_path, payload):
        path = tmp_path / "artifact.npz"
        atomic_savez(path, payload, kind=KIND)
        loaded = verified_load_npz(path, kind=KIND)
        assert set(loaded) == {"a", "b"}
        for name in payload:
            assert np.array_equal(loaded[name], payload[name])

    def test_appends_npz_extension(self, tmp_path, payload):
        atomic_savez(tmp_path / "artifact", payload, kind=KIND)
        assert (tmp_path / "artifact.npz").exists()

    def test_missing_file_keeps_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            verified_load_npz(tmp_path / "nope.npz", kind=KIND)

    def test_legacy_archive_loads_unverified(self, tmp_path, payload):
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, **payload)
        loaded = verified_load_npz(path, kind=KIND)
        assert np.array_equal(loaded["a"], payload["a"])


class TestCorruptLoads:
    def test_truncated_archive(self, tmp_path, payload):
        path = tmp_path / "artifact.npz"
        atomic_savez(path, payload, kind=KIND)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptArtifact, match="unreadable archive"):
            verified_load_npz(path, kind=KIND)

    def test_truncated_archive_leaves_no_open_handle(self, tmp_path, payload):
        path = tmp_path / "artifact.npz"
        atomic_savez(path, payload, kind=KIND)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CorruptArtifact):
                verified_load_npz(path, kind=KIND)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"PK\x03\x04 nonsense")
        with pytest.raises(CorruptArtifact):
            verified_load_npz(path, kind=KIND)

    def test_checksum_mismatch(self, tmp_path, payload):
        path = tmp_path / "artifact.npz"
        np.savez_compressed(
            path,
            **payload,
            __repro_version__=np.asarray(1, dtype=np.int64),
            __repro_kind__=np.frombuffer(KIND.encode(), dtype=np.uint8),
            __repro_crc32__=np.asarray(
                payload_checksum(payload) ^ 1, dtype=np.int64
            ),
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            with pytest.raises(CorruptArtifact, match="checksum mismatch"):
                verified_load_npz(path, kind=KIND)
        assert (
            registry.counter("resilience.artifacts.corrupt").snapshot() == 1
        )

    def test_kind_mismatch(self, tmp_path, payload):
        path = tmp_path / "artifact.npz"
        atomic_savez(path, payload, kind="ossm")
        with pytest.raises(IntegrityError, match="expected"):
            verified_load_npz(path, kind="transactions")

    def test_newer_version_refused(self, tmp_path, payload):
        path = tmp_path / "artifact.npz"
        np.savez_compressed(
            path,
            **payload,
            __repro_version__=np.asarray(99, dtype=np.int64),
        )
        with pytest.raises(IntegrityError, match="version 99"):
            verified_load_npz(path, kind=KIND)


class TestInjectedDamage:
    """The seeded injector damages the temp file; loaders must notice."""

    def test_injected_truncation_is_caught(self, tmp_path, payload):
        path = tmp_path / "artifact.npz"
        plan = FaultPlan.from_spec("io.test.truncate:times=1", seed=1)
        with use_faults(plan):
            atomic_savez(path, payload, kind=KIND, fault_base="io.test")
        with pytest.raises(CorruptArtifact):
            verified_load_npz(path, kind=KIND)

    def test_injected_bitflip_is_caught(self, tmp_path, payload):
        # Seed chosen so the flip lands in verified bytes; some seeds
        # hit don't-care zip padding, which loads are free to tolerate.
        path = tmp_path / "artifact.npz"
        plan = FaultPlan.from_spec("io.test.bitflip:times=1", seed=4)
        with use_faults(plan):
            atomic_savez(path, payload, kind=KIND, fault_base="io.test")
        with pytest.raises((CorruptArtifact, IntegrityError)):
            verified_load_npz(path, kind=KIND)


class TestAtomicity:
    def test_crash_before_rename_leaves_no_partial(self, tmp_path, payload):
        path = tmp_path / "artifact.npz"
        plan = FaultPlan.from_spec("io.test.crash:times=1", seed=0)
        with use_faults(plan):
            with pytest.raises(InjectedFault):
                atomic_savez(path, payload, kind=KIND, fault_base="io.test")
            assert not path.exists()
            assert _no_temp_files(tmp_path)
            # The rule is exhausted: the retry publishes normally.
            atomic_savez(path, payload, kind=KIND, fault_base="io.test")
        loaded = verified_load_npz(path, kind=KIND)
        assert np.array_equal(loaded["a"], payload["a"])

    def test_crash_preserves_previous_artifact(self, tmp_path, payload):
        path = tmp_path / "artifact.npz"
        atomic_savez(path, payload, kind=KIND)
        before = path.read_bytes()
        newer = {"a": payload["a"] * 2, "b": payload["b"]}
        plan = FaultPlan.from_spec("io.test.crash:times=1", seed=0)
        with use_faults(plan):
            with pytest.raises(InjectedFault):
                atomic_savez(path, newer, kind=KIND, fault_base="io.test")
        assert path.read_bytes() == before, (
            "a failed publish must leave the previous artifact intact"
        )
        assert _no_temp_files(tmp_path)


class TestProductionArtifacts:
    """The OSSM and database writers ride on the same primitives."""

    def test_ossm_corrupt_artifact(self, tmp_path, example1_matrix):
        path = tmp_path / "map.npz"
        OSSM(example1_matrix).save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])
        with pytest.raises(CorruptArtifact):
            OSSM.load(path)

    def test_database_corrupt_artifact(self, tmp_path):
        db = TransactionDatabase([(0, 1), (1, 2)], n_items=3)
        path = tmp_path / "db.npz"
        save_binary(db, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(CorruptArtifact):
            load_binary(path)

    def test_database_wrong_kind(self, tmp_path, example1_matrix):
        path = tmp_path / "map.npz"
        OSSM(example1_matrix).save(path)
        with pytest.raises(IntegrityError, match="'ossm'"):
            load_binary(path)
