"""Resilience benchmark: recovery latency of the supervised pool.

How much wall time does one injected worker crash add to a parallel
mining run? DHP's chunk passes run on a
:class:`~repro.parallel.pool.SupervisedPool`: it detects the dead
worker, rebuilds with backoff, and resubmits the pass's batch, so the
answer is "one pool rebuild plus one repeated pass", and the mined
itemsets must stay bit-identical to the serial reference.

The case emits a ``BENCH {json}`` line and accumulates into
``BENCH_resilience.json`` at the repo root via ``_shared.emit_bench``.
"""

from __future__ import annotations

import time

from _shared import emit_bench, report
from repro.bench import MINSUP, format_table
from repro.bench.workloads import QuestConfig, QuestGenerator, current_scale
from repro.mining import DHP
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience import FaultPlan, use_faults

MAX_LEVEL = 3
WORKERS = 2


def _workload():
    scale = current_scale()
    config = QuestConfig(
        n_transactions=scale.n_transactions,
        n_items=scale.n_items,
        avg_transaction_len=10.0,
        avg_pattern_len=4.0,
        n_patterns=scale.n_patterns,
        seed=21,
    )
    return QuestGenerator(config).generate()


def _timed_mine(db, workers=None):
    miner = DHP(max_level=MAX_LEVEL, workers=workers)
    start = time.perf_counter()
    result = miner.mine(db, MINSUP)
    return result, time.perf_counter() - start


def test_crash_recovery_latency():
    db = _workload()
    serial, _ = _timed_mine(db)

    clean, clean_seconds = _timed_mine(db, WORKERS)
    assert clean.same_itemsets(serial)

    plan = FaultPlan.from_spec("pool.worker_crash:times=1", seed=5)
    registry = MetricsRegistry()
    with use_faults(plan), use_registry(registry):
        crashed, crashed_seconds = _timed_mine(db, WORKERS)
    assert crashed.same_itemsets(serial), (
        "recovery from an injected worker crash must stay exact"
    )
    # The crash really fired and was absorbed by one rebuild.
    assert registry.counter("resilience.pool.crashes").value == 1
    assert registry.counter("resilience.pool.rebuilds").value == 1

    record = {
        "bench": "resilience",
        "case": "crash_recovery",
        "miner": "dhp",
        "workers": WORKERS,
        "n_transactions": len(db),
        "minsup": MINSUP,
        "max_level": MAX_LEVEL,
        "clean_seconds": round(clean_seconds, 4),
        "with_crash_seconds": round(crashed_seconds, 4),
        "recovery_overhead_seconds": round(
            crashed_seconds - clean_seconds, 4
        ),
        "exact": True,
    }
    emit_bench(record)
    report(
        "Resilience — one injected worker crash (DHP, supervised pool)",
        format_table(
            ["clean_s", "with_crash_s", "overhead_s"],
            [[
                round(clean_seconds, 3),
                round(crashed_seconds, 3),
                round(crashed_seconds - clean_seconds, 3),
            ]],
        ),
    )
