"""Pool supervision: crash rebuilds, hang detection, rebuild budgets."""

import pytest

from repro.data import generate_quest
from repro.mining import DHP
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel.pool import SupervisedPool
from repro.resilience import Backoff, FaultPlan, PoolFailure, use_faults

WORKERS = 2


def _double(x):
    return x * 2


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
    def test_injected_crash_is_absorbed_exactly(self):
        """DHP's chunk passes ride a supervised pool: one worker crash
        costs a rebuild, never a wrong or missing count."""
        db = generate_quest(
            n_transactions=400, n_items=40, avg_transaction_len=8,
            n_patterns=30, seed=11,
        )
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
