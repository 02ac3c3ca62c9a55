"""Cross-process telemetry: worker deltas survive the fan-out.

The export plane's exactness claim: mining with ``workers=N`` and an
active registry yields the same merged counters and histogram totals
as ``workers=1`` — worker-side instrument updates ride back with each
task result and fold into the parent registry, exactly once. The
vehicle is the one process pool, :class:`SupervisedPool`, behind
Partition's phase 1 (the local Apriori passes, whose ``apriori.*``
counters are recorded inside the workers) and DHP's chunk passes; its
harvest must also survive a crash retry.
"""

from __future__ import annotations

import pytest

from repro.data import generate_quest
from repro.mining import DHP, Partition
from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
from repro.parallel.pool import SupervisedPool
from repro.resilience import Backoff, FaultPlan, use_faults

#: Metric prefix of the fan-out bookkeeping, which only a run that
#: fanned out records.
FANOUT_PREFIX = "parallel."


@pytest.fixture()
def db():
    return generate_quest(
        n_transactions=300, n_items=40, n_patterns=60, seed=7
    )


def _snapshot(miner, db) -> dict:
    registry = MetricsRegistry()
    with use_registry(registry):
        result = miner.mine(db, 0.02)
    return {"result": result, "snapshot": registry.snapshot()}


def _width_independent(snapshot: dict) -> dict:
    """Counters, timer counts and histogram totals, minus fan-out
    bookkeeping: everything that must not depend on the worker count."""
    return {
        "counters": {
            name: value
            for name, value in snapshot["counters"].items()
            if not name.startswith(FANOUT_PREFIX)
        },
        "timers": {
            name: timer["count"]
            for name, timer in snapshot["timers"].items()
            if not name.startswith(FANOUT_PREFIX)
        },
        "histograms": {
            name: {k: v for k, v in hist.items() if k not in ("min", "max")}
            for name, hist in snapshot["histograms"].items()
        },
    }


def _partition(workers: int) -> Partition:
    # Engine pinned: phase 2 then counts serially at every width, so
    # only phase 1 (the process pool under test) differs.
    return Partition(
        n_partitions=4, auto_ossm=2, engine="tidset", max_level=3,
        workers=workers,
    )


def test_differential_telemetry_across_worker_counts(db):
    """Partition with workers=4 and workers=1 agree on every
    width-independent metric."""
    wide = _snapshot(_partition(4), db)
    narrow = _snapshot(_partition(1), db)
    assert wide["result"].frequent == narrow["result"].frequent
    assert _width_independent(wide["snapshot"]) == _width_independent(
        narrow["snapshot"]
    )
    # The worker-side proof: phase 1 really ran in four worker
    # processes, and the local Apriori counters recorded there reached
    # the parent exactly once.
    counters = wide["snapshot"]["counters"]
    assert counters["parallel.partition_local.shards"] == 4
    assert counters["apriori.candidates_counted"] > 0


def test_dhp_telemetry_independent_of_workers(db):
    """DHP's chunk passes leave no trace of the fan-out width."""
    wide = _snapshot(DHP(n_buckets=64, max_level=3, workers=2), db)
    narrow = _snapshot(DHP(n_buckets=64, max_level=3, workers=1), db)
    assert wide["result"].frequent == narrow["result"].frequent
    assert _width_independent(wide["snapshot"]) == _width_independent(
        narrow["snapshot"]
    )
    assert wide["snapshot"]["counters"]["parallel.dhp_count.shards"] >= 2


def _inc_worker_counters(tag: str) -> str:
    get_registry().inc("worker.tasks")
    return tag


def test_worker_deltas_merge():
    registry = MetricsRegistry()
    with use_registry(registry):
        with SupervisedPool(2) as pool:
            results = pool.run(_inc_worker_counters, ["a", "b", "c"])
    assert results == ["a", "b", "c"]
    assert registry.counter("worker.tasks").value == 3


def test_supervised_harvest_survives_a_crash_retry():
    """A batch re-run after a worker crash ships its worker deltas
    once, from the attempt that completed."""
    plan = FaultPlan.from_spec("pool.worker_crash:times=1", seed=0)
    registry = MetricsRegistry()
    backoff = Backoff(base=0.01, factor=1.0, max_delay=0.01, jitter=0.0)
    with use_faults(plan), use_registry(registry):
        with SupervisedPool(2, backoff=backoff) as pool:
            results = pool.run(_inc_worker_counters, ["a", "b", "c"])
    assert results == ["a", "b", "c"]
    assert registry.counter("resilience.pool.crashes").value == 1
    assert registry.counter("worker.tasks").value == 3


def _idle(tag: str) -> str:
    return tag


def test_no_forwarding_without_active_registry():
    assert not get_registry().enabled
    with SupervisedPool(2) as pool:
        assert pool.forwards_metrics is False
        assert pool.run(_idle, ["x"]) == ["x"]


def test_snapshot_reset_prevents_double_counting():
    """Two batches through the same pool: deltas are per-task, so the
    second batch must not re-ship the first batch's counts."""
    registry = MetricsRegistry()
    with use_registry(registry):
        with SupervisedPool(1) as pool:
            pool.run(_inc_worker_counters, ["a"])
            pool.run(_inc_worker_counters, ["b"])
    assert registry.counter("worker.tasks").value == 2
