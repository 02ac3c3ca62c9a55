"""Pool supervision: crash rebuilds, hang detection, rebuild budgets."""

import multiprocessing
import time

import pytest

from repro.data import generate_quest
from repro.mining import DHP, Partition
from repro.mining.checkpointing import level_crash_point
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel.pool import SupervisedPool
from repro.resilience import (
    Backoff,
    FaultPlan,
    InjectedFault,
    PoolFailure,
    use_faults,
)

WORKERS = 2


def _double(x):
    return x * 2


def _long_mining_task(x):
    """About a second of work that marks a mining unit every 0.2 s."""
    for _ in range(5):
        level_crash_point()
        time.sleep(0.2)
    return x * 2


@pytest.fixture(scope="module")
def quest_db():
    return generate_quest(
        n_transactions=400, n_items=40, avg_transaction_len=8,
        n_patterns=30, seed=11,
    )


def _fast_backoff():
    return Backoff(base=0.01, factor=1.0, max_delay=0.01, jitter=0.0)


class TestSupervisedPool:
    def test_plain_run_preserves_payload_order(self):
        with SupervisedPool(WORKERS) as pool:
            assert pool.run(_double, list(range(8))) == [
                0, 2, 4, 6, 8, 10, 12, 14,
            ]

    def test_worker_crash_rebuilds_and_completes(self):
        plan = FaultPlan.from_spec("pool.worker_crash:times=1", seed=0)
        registry = MetricsRegistry()
        with use_faults(plan), use_registry(registry):
            with SupervisedPool(WORKERS, backoff=_fast_backoff()) as pool:
                assert pool.run(_double, [1, 2, 3]) == [2, 4, 6]
        assert registry.counter("resilience.pool.crashes").snapshot() == 1
        assert registry.counter("resilience.pool.rebuilds").snapshot() == 1

    def test_worker_hang_detected_and_rebuilt(self):
        # The injected hang sleeps 30s; the supervisor's 0.5s deadline
        # must declare the batch hung and rebuild long before that.
        plan = FaultPlan.from_spec(
            "pool.worker_hang:times=1,delay=30", seed=0
        )
        registry = MetricsRegistry()
        with use_faults(plan), use_registry(registry):
            with SupervisedPool(
                WORKERS, deadline=0.5, backoff=_fast_backoff()
            ) as pool:
                assert pool.run(_double, [5, 6]) == [10, 12]
        assert registry.counter("resilience.pool.hangs").snapshot() == 1
        assert registry.counter("resilience.pool.rebuilds").snapshot() == 1

    def test_per_unit_heartbeat_outlives_the_deadline(self):
        # Each task runs twice the deadline, but beats once per mining
        # unit: it is slow, not hung, and must complete on the first
        # attempt.
        registry = MetricsRegistry()
        with use_registry(registry):
            with SupervisedPool(
                WORKERS, deadline=0.5, max_rebuilds=0,
                backoff=_fast_backoff(),
            ) as pool:
                assert pool.run(_long_mining_task, [1, 2]) == [2, 4]
        assert "resilience.pool.hangs" not in registry.snapshot()["counters"]

    def test_exhausted_rebuild_budget_raises_pool_failure(self):
        plan = FaultPlan.from_spec("pool.worker_crash:times=99", seed=0)
        with use_faults(plan):
            with SupervisedPool(
                WORKERS, max_rebuilds=1, backoff=_fast_backoff()
            ) as pool:
                with pytest.raises(PoolFailure, match="2 consecutive attempts"):
                    pool.run(_double, [1, 2])

    def test_slow_start_delays_but_succeeds(self):
        plan = FaultPlan.from_spec(
            "pool.slow_start:times=1,delay=0.2", seed=0
        )
        with use_faults(plan):
            with SupervisedPool(WORKERS) as pool:
                assert pool.run(_double, [4]) == [8]

    def test_run_after_close_raises(self):
        pool = SupervisedPool(WORKERS)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(_double, [1])


class TestDHPUnderCrash:
    def test_injected_crash_is_absorbed_exactly(self, quest_db):
        """DHP's chunk passes ride a supervised pool: one worker crash
        costs a rebuild, never a wrong or missing count."""
        db = quest_db
        serial = DHP(n_buckets=64, max_level=3).mine(db, 0.02)
        plan = FaultPlan.from_spec("pool.worker_crash:times=1", seed=0)
        registry = MetricsRegistry()
        with use_faults(plan), use_registry(registry):
            result = DHP(n_buckets=64, max_level=3, workers=WORKERS).mine(
                db, 0.02
            )
        assert result.frequent == serial.frequent
        assert result.levels == serial.levels
        assert registry.counter("resilience.pool.crashes").snapshot() == 1

    def test_failed_run_leaves_no_live_workers(self, quest_db):
        """A run that dies mid-mining closes its pool on the way out:
        no worker process outlives the raise."""
        plan = FaultPlan.from_spec("mining.level_crash:after=1", seed=0)
        with use_faults(plan):
            with pytest.raises(InjectedFault) as raised:
                DHP(n_buckets=64, max_level=3, workers=WORKERS).mine(
                    quest_db, 0.02
                )
        # Checked while the exception — and so the failed run's
        # frames — is still held: a pool closed only by its finalizer
        # would still show its workers here.
        assert multiprocessing.active_children() == []
        assert raised.value.point == "mining.level_crash"


class TestPartitionUnderCrash:
    def test_injected_crash_is_absorbed_exactly(self, quest_db):
        """Partition's phase 1 rides the same supervised pool: one
        worker crash costs a rebuild, never a missing candidate."""
        serial = Partition(n_partitions=4).mine(quest_db, 0.02)
        plan = FaultPlan.from_spec("pool.worker_crash:times=1", seed=0)
        registry = MetricsRegistry()
        with use_faults(plan), use_registry(registry):
            result = Partition(n_partitions=4, workers=WORKERS).mine(
                quest_db, 0.02
            )
        assert result.frequent == serial.frequent
        assert registry.counter("resilience.pool.crashes").snapshot() == 1
