"""Experiment harness: runs one (workload, segmenter, n_user) cell.

The unit every figure is assembled from is :func:`evaluate`:

1. segment the paged workload with the given algorithm (timed —
   Figure 5's "segmentation time");
2. mine with the host algorithm *without* the OSSM (timed once and
   shared across cells via :func:`baseline`);
3. mine *with* the OSSM pruner (timed);
4. assert both runs found identical frequent sets (soundness check —
   every cell of every figure re-verifies the core claim);
5. report speedup, candidate-2 ratio, OSSM size, and counts.

Mining uses the vertical :class:`~repro.mining.counting.TidsetCounter`,
whose work is proportional to the number of counted candidates — the
same property the paper's hash-tree C code has (see DESIGN.md §5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.ossm import OSSM
from ..core.segmentation import SegmentationResult, Segmenter
from ..data.pages import PagedDatabase
from ..data.transactions import TransactionDatabase
from ..mining.apriori import Apriori
from ..mining.base import MiningResult
from ..mining.counting import TidsetCounter
from ..mining.pruning import OSSMPruner
from ..obs.metrics import MetricsRegistry, use_registry
from .metrics import candidate_ratio, ossm_megabytes, speedup

__all__ = ["Baseline", "Cell", "baseline", "evaluate", "segment"]

#: Apriori's candidate-2 pass dominates (Section 6.2 of the paper);
#: capping the level keeps the Python suite fast without changing any
#: comparison (both sides of every ratio use the same cap).
DEFAULT_MAX_LEVEL = 3


@dataclass(frozen=True)
class Baseline:
    """One plain (no-OSSM) mining run, shared by all cells of a figure.

    ``metrics`` is the observability snapshot of the final timed repeat
    (one :meth:`~repro.obs.MetricsRegistry.snapshot` dict), so bench
    results carry counter/timer evidence alongside the wall times.
    """

    result: MiningResult
    seconds: float
    min_support: float | int
    max_level: int
    metrics: dict | None = None


@dataclass(frozen=True)
class Cell:
    """One measured point of a figure."""

    algorithm: str
    n_user: int
    segmentation_seconds: float
    loss_evaluations: int
    mining_seconds: float
    baseline_seconds: float
    speedup: float
    c2_ratio: float
    ossm_mb: float
    #: Metric snapshot of the final instrumented mining repeat
    #: (prune/keep counters, bound-gap histogram, counting timers).
    metrics: dict | None = None

    def row(self) -> tuple:
        """Values in reporting order."""
        return (
            self.algorithm,
            self.n_user,
            self.segmentation_seconds,
            self.loss_evaluations,
            self.baseline_seconds,
            self.mining_seconds,
            self.speedup,
            self.c2_ratio,
            self.ossm_mb,
        )


#: One process-wide tidset cache: verticalization is a per-database
#: cost shared identically by the baseline and every OSSM run, so it is
#: excluded from the comparison the same way the paper's shared I/O is.
_COUNTER = TidsetCounter()


def baseline(
    database: TransactionDatabase,
    min_support: float | int,
    max_level: int = DEFAULT_MAX_LEVEL,
    repeats: int = 3,
) -> Baseline:
    """Time the host miner without any OSSM (best of *repeats* runs).

    The final repeat runs with a fresh metrics registry installed, and
    its snapshot is attached to the returned :class:`Baseline`.
    """
    best = float("inf")
    result = None
    repeats = max(1, repeats)
    registry = MetricsRegistry()
    for index in range(repeats):
        miner = Apriori(counter=_COUNTER, max_level=max_level)
        start = time.perf_counter()
        if index == repeats - 1:
            with use_registry(registry):
                result = miner.mine(database, min_support)
        else:
            result = miner.mine(database, min_support)
        best = min(best, time.perf_counter() - start)
    return Baseline(
        result=result,
        seconds=best,
        min_support=min_support,
        max_level=max_level,
        metrics=registry.snapshot(),
    )


def segment(
    paged: PagedDatabase, segmenter: Segmenter, n_segments: int
) -> SegmentationResult:
    """Run one segmentation (thin wrapper, kept for symmetry)."""
    return segmenter.segment(paged, n_segments)


def evaluate(
    database: TransactionDatabase,
    ossm: OSSM,
    base: Baseline,
    segmentation: SegmentationResult | None = None,
    repeats: int = 3,
) -> Cell:
    """Mine with *ossm* attached and compare against the baseline.

    The final repeat runs instrumented; its metric snapshot (prune
    counters, bound-gap histogram, counting timers) rides on the cell.
    """
    best = float("inf")
    result = None
    repeats = max(1, repeats)
    registry = MetricsRegistry()
    for index in range(repeats):
        miner = Apriori(
            pruner=OSSMPruner(ossm),
            counter=_COUNTER,
            max_level=base.max_level,
        )
        start = time.perf_counter()
        if index == repeats - 1:
            with use_registry(registry):
                result = miner.mine(database, base.min_support)
        else:
            result = miner.mine(database, base.min_support)
        best = min(best, time.perf_counter() - start)
    if not result.same_itemsets(base.result):
        raise AssertionError(
            "OSSM pruning changed the mining output — bound unsound"
        )
    return Cell(
        algorithm=segmentation.algorithm if segmentation else "given",
        n_user=ossm.n_segments,
        segmentation_seconds=(
            segmentation.elapsed_seconds if segmentation else 0.0
        ),
        loss_evaluations=(
            segmentation.loss_evaluations if segmentation else 0
        ),
        mining_seconds=best,
        baseline_seconds=base.seconds,
        speedup=speedup(base.seconds, best),
        c2_ratio=candidate_ratio(result, base.result),
        ossm_mb=ossm_megabytes(ossm),
        metrics=registry.snapshot(),
    )
