"""Shared-memory lifecycle regressions found by the resource-lifecycle pass.

Leak paths existed in the parallel plane, all on *exception* paths:
``publish_int64`` stranded its fresh segment if the copy into it
failed, ``attach_int64`` stranded the worker-side handle if the view
could not be built, and ``parallel_upper_bounds`` built its payload
list in the gap between acquiring the segment and entering the ``try``
that unlinks it. These tests pin the fixed behaviour: every failure
mode must leave the shared-memory namespace empty.
"""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.data import generate_quest
from repro.parallel import parallel_upper_bounds
from repro.parallel.pool import attach_int64, publish_int64
from repro.core.ossm import build_from_database
from repro.resilience import PoolFailure

WORKERS = 2


@pytest.fixture
def recording_segments(monkeypatch):
    """Route every ``SharedMemory`` through a recorder subclass.

    Records each instance created *in this process* with ``closed`` /
    ``unlinked`` flags, so tests can assert the lifecycle outcome of
    segments they never see returned.
    """
    real = shared_memory.SharedMemory
    instances: list[shared_memory.SharedMemory] = []

    class Recording(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.test_closed = False
            self.test_unlinked = False
            instances.append(self)

        def close(self):
            self.test_closed = True
            super().close()

        def unlink(self):
            self.test_unlinked = True
            super().unlink()

    monkeypatch.setattr(shared_memory, "SharedMemory", Recording)
    return instances


class TestPublishFailure:
    def test_failed_copy_closes_and_unlinks(self, monkeypatch):
        created: list[shared_memory.SharedMemory] = []
        real = shared_memory.SharedMemory

        class ExplodingBuf(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

            @property
            def buf(self):
                raise RuntimeError("mapping failed")

        monkeypatch.setattr(shared_memory, "SharedMemory", ExplodingBuf)
        with pytest.raises(RuntimeError, match="mapping failed"):
            publish_int64(np.arange(6, dtype=np.int64))
        assert len(created) == 1
        name = created[0].name
        # The segment must be gone from the OS namespace, not stranded.
        with pytest.raises(FileNotFoundError):
            real(name=name)


class TestAttachFailure:
    def test_oversized_view_closes_handle(self, recording_segments):
        table = np.arange(6, dtype=np.int64)
        segment = publish_int64(table)
        try:
            # A shape larger than the segment makes the view
            # constructor raise — the half-attached handle must close.
            with pytest.raises((TypeError, ValueError)):
                attach_int64(segment.name, (1000, 1000))
            handles = [
                seg for seg in recording_segments if seg is not segment
            ]
            assert len(handles) == 1
            assert handles[0].test_closed
            # Worker-side close only: the parent still owns the data.
            assert not handles[0].test_unlinked
            view, handle = attach_int64(segment.name, table.shape)
            assert np.array_equal(np.array(view, copy=True), table)
            handle.close()
        finally:
            segment.close()
            segment.unlink()


class _FailingPool:
    """A pool double whose run() dies after the segment is published."""

    workers = WORKERS

    def run(self, task, payloads):
        raise PoolFailure(1, "injected: pool dead")


class TestBoundsCleanup:
    def test_pool_failure_propagates_and_unlinks(self, recording_segments):
        db = generate_quest(
            n_transactions=200, n_items=20, avg_transaction_len=5,
            n_patterns=10, seed=29,
        )
        ossm = build_from_database(db, [0, len(db)])
        candidates = [(i,) for i in range(5)]
        with pytest.raises(PoolFailure, match="pool dead"):
            parallel_upper_bounds(ossm, candidates, pool=_FailingPool())
        assert len(recording_segments) == 1
        segment = recording_segments[0]
        assert segment.test_closed and segment.test_unlinked
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment.name)
