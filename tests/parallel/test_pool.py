"""Worker-pool plumbing: ordering, teardown, and fan-out telemetry."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.data import TransactionDatabase
from repro.mining import DHP
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import TraceRecorder, use_recorder
from repro.parallel import (
    SupervisedPool,
    ThreadedBitmapCounter,
    ThreadShardPlanner,
)


def _echo(payload):
    return payload * 10


class TestPool:
    def test_results_follow_payload_order(self):
        with SupervisedPool(2) as pool:
            assert pool.run(_echo, list(range(8))) == [
                i * 10 for i in range(8)
            ]

    def test_close_is_idempotent(self):
        pool = SupervisedPool(2)
        pool.run(_echo, [1])
        pool.close()
        pool.close()


class TestDefensiveTeardown:
    """close()/__del__ must be safe on half-built or closed instances."""

    def test_half_built_pool_has_safe_del(self):
        # workers is validated before the executor exists; the
        # interpreter still calls __del__ on the dead instance.
        with pytest.raises(ValueError, match="workers"):
            SupervisedPool(0)

    def test_half_built_counter_has_safe_del(self):
        with pytest.raises(ValueError, match="workers"):
            ThreadedBitmapCounter(workers=0)

    def test_explicit_del_after_close(self):
        pool = SupervisedPool(2)
        pool.close()
        pool.__del__()          # must not raise

    def test_context_manager_exit_then_close(self):
        with SupervisedPool(2) as pool:
            pass
        pool.close()            # idempotent after __exit__

    def test_count_after_close_builds_fresh_pool(self):
        # Three one-word shards, so counting really uses the executor.
        db = TransactionDatabase([{0, 1}, {1, 2}] * 96, n_items=3)
        counter = ThreadedBitmapCounter(
            workers=2, planner=ThreadShardPlanner(min_words=1)
        )
        try:
            first = counter.count(db, [(1,)])
            counter.close()
            assert counter.count(db, [(1,)]) == first == {(1,): 192}
        finally:
            counter.close()

    def test_sigkilled_pool_survives_interpreter_shutdown(self, tmp_path):
        # A pool whose workers were SIGKILLed and that is never closed
        # must not raise from __del__ during interpreter shutdown: that
        # surfaces as "Exception ignored in:" noise on stderr and a
        # broken exit under `python -W error`.
        script = textwrap.dedent("""
            import os, signal
            from repro.parallel import SupervisedPool

            pool = SupervisedPool(2)
            assert pool.run(abs, [-1, -2]) == [1, 2]
            for proc in pool._executor._processes.values():
                os.kill(proc.pid, signal.SIGKILL)
            # No close(): the dangling pool is finalized at exit.
            print("OK")
        """)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=pathlib.Path(__file__).resolve().parents[2],
        )
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout
        assert "Exception ignored" not in result.stderr, result.stderr


class TestFanoutTelemetry:
    """DHP's chunk passes on the supervised pool record one span per
    chunk and the fan-out metrics."""

    def _mine(self, db):
        recorder = TraceRecorder()
        registry = MetricsRegistry()
        with use_recorder(recorder), use_registry(registry):
            DHP(n_buckets=64, max_level=2, workers=2).mine(db, 2)
        return recorder, registry

    @pytest.fixture()
    def run(self, tiny_db):
        db = TransactionDatabase(list(tiny_db) * 4, n_items=tiny_db.n_items)
        return self._mine(db)

    def test_per_shard_spans_recorded(self, run):
        recorder, _registry = run
        spans = []

        def walk(span):
            spans.append(span)
            for child in span.children:
                walk(child)

        for root in recorder.roots:
            walk(root)
        shard_spans = [
            s for s in spans if s.name == "parallel.dhp_count.shard"
        ]
        assert len(shard_spans) >= 2  # one per chunk, >= 2 chunks
        for span in shard_spans:
            assert {"shard", "transactions"} <= set(span.metadata)

    def test_fanout_metrics_recorded(self, run):
        _recorder, registry = run
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["parallel.dhp_pass1.fanouts"] == 1
        assert counters["parallel.dhp_count.fanouts"] >= 1
        assert counters["parallel.dhp_count.shards"] >= 2
        timers = snapshot["timers"]
        assert timers["parallel.dhp_count.shard_seconds"]["count"] >= 2
        assert "parallel.dhp_count.fanout_overhead_seconds" in timers
