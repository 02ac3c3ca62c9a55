"""Parallel execution on the Figure 4 workload: three separate records.

Each record changes one thing against a named baseline, re-verifies
the mined output bit-identical before any timing is reported, and
carries ``cpu_count``:

* ``engine-speedup`` — serial bitmap vs serial tidset Apriori. This is
  an *engine* speedup (vectorized AND+popcount against per-candidate
  tidset intersection); no thread or process is involved.
* ``thread-scaling`` — :class:`ThreadedBitmapCounter` at ``k`` threads
  vs the same counter at one thread. Legs with ``k > cpu_count`` are
  skipped rather than reported: on fewer cores than threads the number
  would measure scheduling, not scaling.
* ``chunk-pool`` — DHP's chunk passes and Partition's phase 1 on two
  worker processes vs the same miner serial. Partition's phase-2
  engine is pinned to tidset on both sides, so only the pool differs.
  These records are the measured reason the process pool is kept.

Timings are medians of alternating pairs (baseline and change take
turns running first); each record also states in how many pairs the
change was faster and the baseline's quartiles. Records are emitted as
``BENCH {json}`` lines and persisted to ``BENCH_parallel_scaling.json``
via ``emit_bench``.

Scale: at ``REPRO_SCALE=paper`` the workload is the Figure 4 regular
synthetic stream grown to 100 000 transactions (the paper's m = 1000
item universe); the default tier uses the shared 10 000-transaction
workload so the module stays cheap enough for routine runs. Override
the transaction count with ``REPRO_PARALLEL_BENCH_N``.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from _shared import emit_bench, report
from repro.bench import MINSUP, format_table
from repro.bench.workloads import QuestConfig, QuestGenerator, current_scale
from repro.mining import DHP, Apriori, BitmapCounter, Partition
from repro.mining.counting import TidsetCounter
from repro.obs.trace import TraceRecorder, use_recorder
from repro.parallel import ThreadedBitmapCounter

THREAD_COUNTS = (2, 4)
POOL_WORKERS = 2
MAX_LEVEL = 3
#: Alternating baseline/change pairs per record.
PAIRS = 5


def fig4_workload():
    scale = current_scale()
    override = int(os.environ.get("REPRO_PARALLEL_BENCH_N", "0"))
    n_transactions = override or (
        100_000 if scale.name == "paper" else scale.n_transactions
    )
    config = QuestConfig(
        n_transactions=n_transactions,
        n_items=scale.n_items,
        avg_transaction_len=10.0,
        avg_pattern_len=4.0,
        n_patterns=scale.n_patterns,
        seed=42,
    )
    return QuestGenerator(config).generate()


def _timed(mine):
    start = time.perf_counter()
    result = mine()
    return result, time.perf_counter() - start


def _spans(recorder, name):
    found = []

    def walk(span):
        if span.name == name:
            found.append(span)
        for child in span.children:
            walk(child)

    for root in recorder.roots:
        walk(root)
    return found


def _compare(baseline, change, span_name):
    """Alternating pairs of two mining runs; results must match.

    Returns the timing summary plus the number of *span_name* spans one
    traced run of *change* leaves (the fan-out evidence).
    """
    reference, _ = _timed(baseline)
    base_times, change_times = [], []
    for index in range(PAIRS):
        order = (
            ((baseline, base_times), (change, change_times))
            if index % 2 == 0
            else ((change, change_times), (baseline, base_times))
        )
        for mine, times in order:
            result, seconds = _timed(mine)
            assert result.same_itemsets(reference), "outputs diverged"
            assert result.levels == reference.levels, "levels diverged"
            times.append(seconds)
    recorder = TraceRecorder()
    with use_recorder(recorder):
        change()
    quartiles = statistics.quantiles(base_times, n=4)
    base = statistics.median(base_times)
    new = statistics.median(change_times)
    return {
        "baseline_seconds": round(base, 4),
        "seconds": round(new, 4),
        "speedup": round(base / new, 3) if new else 0.0,
        "baseline_iqr_seconds": round(quartiles[2] - quartiles[0], 4),
        "faster_pairs": sum(
            1 for b, c in zip(base_times, change_times) if c < b
        ),
        "pairs": PAIRS,
        "shard_spans": len(_spans(recorder, span_name)),
        "exact": True,
    }


def scaling_sweep():
    db = fig4_workload()
    cpus = os.cpu_count() or 1
    common = {
        "bench": "parallel_scaling",
        "workload": "fig4-regular-synthetic",
        "n_transactions": len(db),
        "n_items": db.n_items,
        "minsup": MINSUP,
        "max_level": MAX_LEVEL,
        "cpu_count": cpus,
    }

    def apriori(counter):
        return lambda: Apriori(counter=counter, max_level=MAX_LEVEL).mine(
            db, MINSUP
        )

    records = []
    skipped = []

    def emit(record):
        emit_bench(record)
        records.append(record)

    emit({
        **common,
        "record": "engine-speedup",
        "engine": "bitmap",
        "baseline": "tidset serial",
        "workers": 1,
        **_compare(
            apriori(TidsetCounter()), apriori(BitmapCounter()),
            "bitmap.count.shard",
        ),
    })
    with ThreadedBitmapCounter(workers=1) as single:
        for threads in THREAD_COUNTS:
            if threads > cpus:
                skipped.append(f"thread-scaling k={threads}")
                continue
            with ThreadedBitmapCounter(workers=threads) as counter:
                emit({
                    **common,
                    "record": "thread-scaling",
                    "engine": "bitmap",
                    "baseline": "bitmap threads=1",
                    "workers": threads,
                    **_compare(
                        apriori(single), apriori(counter),
                        "bitmap.count.shard",
                    ),
                })
    if POOL_WORKERS > cpus:
        skipped.append(f"chunk-pool workers={POOL_WORKERS}")
    else:
        pools = {
            "dhp": (
                lambda workers: DHP(max_level=MAX_LEVEL, workers=workers),
                "parallel.dhp_count.shard",
            ),
            "partition": (
                lambda workers: Partition(
                    max_level=MAX_LEVEL, engine="tidset", workers=workers
                ),
                "parallel.partition_local.shard",
            ),
        }
        for miner, (build, span_name) in pools.items():
            emit({
                **common,
                "record": "chunk-pool",
                "engine": miner,
                "baseline": f"{miner} serial",
                "workers": POOL_WORKERS,
                **_compare(
                    lambda: build(None).mine(db, MINSUP),
                    lambda: build(POOL_WORKERS).mine(db, MINSUP),
                    span_name,
                ),
            })
    return {"db": db, "records": records, "skipped": skipped}


@pytest.fixture(scope="module")
def sweep(once):
    return once("parallel_scaling", scaling_sweep)


def _records(sweep, kind):
    return [r for r in sweep["records"] if r["record"] == kind]


def test_parallel_scaling_series(benchmark, sweep):
    rows = [
        [
            r["record"], r["engine"], r["baseline"], r["workers"],
            r["baseline_seconds"], r["seconds"], r["speedup"],
            f"{r['faster_pairs']}/{r['pairs']}", r["shard_spans"],
        ]
        for r in sweep["records"]
    ]
    skipped = (
        f"\nskipped (more workers than the {os.cpu_count()} CPUs): "
        + ", ".join(sweep["skipped"])
        if sweep["skipped"] else ""
    )
    report(
        "Parallel execution — engine, thread and chunk-pool records "
        f"(regular-synthetic, {len(sweep['db'])} transactions, "
        f"minsup {MINSUP:.0%}, cpu_count {os.cpu_count()})",
        format_table(
            [
                "record", "engine", "baseline", "workers", "baseline_s",
                "s", "speedup", "faster", "shard_spans",
            ],
            rows,
        ) + skipped,
    )
    db = sweep["db"]
    benchmark.pedantic(
        lambda: Apriori(engine="bitmap", max_level=MAX_LEVEL).mine(
            db, MINSUP
        ),
        rounds=1,
        iterations=1,
    )


def test_every_fanout_traced_per_shard(benchmark, sweep):
    """Each fanned-out run leaves one span per shard in the trace."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for record in sweep["records"]:
        if record["record"] == "engine-speedup":
            assert record["shard_spans"] == 0  # serial: no fan-out
        else:
            assert record["shard_spans"] >= record["workers"], record


def test_every_record_carries_cpu_count(benchmark, sweep):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cpus = os.cpu_count() or 1
    for record in sweep["records"]:
        assert record["cpu_count"] == cpus
        assert record["workers"] <= cpus


def test_bitmap_engine_speedup_asserted(benchmark, sweep):
    """The bitmap engine's ≥2× criterion over serial tidset.

    An engine comparison, so NOT gated on ``cpu_count`` — only on the
    ≥100k-transaction workload floor (small routine-tier runs assert
    exactness only).
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    (engine,) = _records(sweep, "engine-speedup")
    if len(sweep["db"]) >= 100_000:
        assert engine["speedup"] >= 2.0, engine
    else:
        assert engine["exact"]
