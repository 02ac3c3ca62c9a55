"""Ablation A1: the sort-based loss evaluator vs the paper-literal one.

DESIGN.md §2 documents the one deviation from the paper's
implementation: Equation (2) is evaluated as ``f(a+b) − f(a) − f(b)``
with the O(b log b) sort identity instead of the O(b²) pair loop. This
ablation (a) re-verifies exact numerical agreement on the real bench
workload's page rows, and (b) times both, quantifying why the naive
evaluator forces the paper's 5439-second Greedy runs. A third row
times the batched evaluator the segmentation algorithms use: one
``merge_losses`` call per left-hand row, scoring all its partners.
"""

import time

import numpy as np
import pytest

from _shared import emit_bench, report
from repro.bench import format_table, paged, regular_synthetic
from repro.core import merge_loss, merge_loss_naive, merge_losses

N_PAIRS = 60  # pairs of real page rows to compare


def _run():
    pages = paged(regular_synthetic())
    matrix = pages.page_supports()
    pairs = [
        (matrix[i], matrix[(i * 7 + 3) % matrix.shape[0]])
        for i in range(min(N_PAIRS, matrix.shape[0]))
    ]
    start = time.perf_counter()
    fast = [merge_loss(a, b) for a, b in pairs]
    fast_seconds = time.perf_counter() - start
    start = time.perf_counter()
    naive = [merge_loss_naive(a, b) for a, b in pairs]
    naive_seconds = time.perf_counter() - start
    # Batched as Greedy's seed does: one merge_losses call per left-hand
    # row, against every right-hand row. The 60 × 60 cross product holds
    # the 60 pairs above on its diagonal.
    lefts = np.array([a for a, _ in pairs])
    rights = np.array([b for _, b in pairs])
    start = time.perf_counter()
    cross = [merge_losses(a, rights).tolist() for a in lefts]
    batched_seconds = time.perf_counter() - start
    batched = [cross[i][i] for i in range(len(pairs))]
    cross_exact = cross == [[merge_loss(a, b) for b in rights] for a in lefts]
    return {
        "fast": fast,
        "naive": naive,
        "batched": batched,
        "cross_exact": cross_exact,
        "cross_pairs": len(pairs) ** 2,
        "fast_seconds": fast_seconds,
        "naive_seconds": naive_seconds,
        "batched_seconds": batched_seconds,
        "n_items": matrix.shape[1],
    }


@pytest.fixture(scope="module")
def experiment(once):
    return once("ablation_loss", _run)


def test_loss_evaluators_agree_exactly(benchmark, experiment):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert experiment["fast"] == experiment["naive"]
    assert experiment["batched"] == experiment["naive"]
    assert experiment["cross_exact"]


def test_loss_evaluator_speed(benchmark, experiment):
    rows = [
        [
            "sort O(m log m)",
            round(experiment["fast_seconds"], 4),
            round(experiment["fast_seconds"] / N_PAIRS * 1e6, 1),
        ],
        [
            "batched sort (merge_losses)",
            round(experiment["batched_seconds"], 4),
            round(
                experiment["batched_seconds"] / experiment["cross_pairs"] * 1e6,
                1,
            ),
        ],
        [
            "naive O(m^2)",
            round(experiment["naive_seconds"], 4),
            round(experiment["naive_seconds"] / N_PAIRS * 1e6, 1),
        ],
    ]
    report(
        f"Ablation A1 — Equation (2) evaluators "
        f"({N_PAIRS} page-row pairs, m={experiment['n_items']})",
        format_table(["evaluator", "total_s", "per_pair_us"], rows),
    )
    emit_bench({
        "bench": "ablation_loss",
        "fast_seconds": round(experiment["fast_seconds"], 6),
        "naive_seconds": round(experiment["naive_seconds"], 6),
        "batched_us_per_pair": round(
            experiment["batched_seconds"] / experiment["cross_pairs"] * 1e6, 3
        ),
        "speedup": round(
            experiment["naive_seconds"] / experiment["fast_seconds"], 3
        ),
    })
    pages = paged(regular_synthetic())
    matrix = pages.page_supports()
    benchmark.pedantic(
        lambda: merge_loss(matrix[0], matrix[1]), rounds=5, iterations=1
    )
    assert experiment["fast_seconds"] < experiment["naive_seconds"]
