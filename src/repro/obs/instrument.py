"""Shared instrumentation helpers for the mining/segmentation hot paths.

These keep the algorithm modules free of metric-naming boilerplate and
centralize the two conventions the report layer depends on:

* per-level candidate accounting lands under
  ``<algorithm>.candidates_{generated,pruned,counted,frequent}`` (plus
  the algorithm-agnostic ``mining.*`` totals the pruning-effectiveness
  report reads);
* the Equation (1) bound-tightness histogram ``ossm.bound_gap`` records
  ``ŝup(X) − sup(X)`` for every candidate that survived pruning and was
  then exactly counted — the empirical gap statistic the paper's
  Figure 4(b) argument rests on (0 = bound was exact).

Every helper consults ``registry.enabled`` before doing derivation
work, so with observability unconfigured each call is a cheap early
return.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .metrics import get_registry

__all__ = [
    "BOUND_GAP_BUCKETS",
    "record_level_stats",
    "record_bound_gaps",
    "record_ossm_build",
]

Itemset = tuple[int, ...]

#: Buckets for the ``ossm.bound_gap`` histogram: gap 0 means the bound
#: was exact; the power-of-two tail keeps the table small at any scale.
BOUND_GAP_BUCKETS: tuple[float, ...] = (
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)


def record_level_stats(algorithm: str, stats) -> None:
    """Mirror one level's :class:`~repro.mining.base.LevelStats` counters.

    Called once per completed level; *stats* carries cumulative values
    for that level, so the increments are the level's own totals.
    """
    registry = get_registry()
    if not registry.enabled:
        return
    for prefix in (algorithm, "mining"):
        registry.inc(
            f"{prefix}.candidates_generated", stats.candidates_generated
        )
        registry.inc(f"{prefix}.candidates_pruned", stats.candidates_pruned)
        registry.inc(f"{prefix}.candidates_counted", stats.candidates_counted)
        registry.inc(f"{prefix}.frequent", stats.frequent)


def record_bound_gaps(
    pruner,
    counted: Sequence[Itemset],
    supports: np.ndarray,
) -> None:
    """Observe ``ŝup − sup`` for candidates that were exactly counted.

    *supports* is the int64 vector aligned with *counted*, as a
    counter's ``supports`` returns it. *pruner* must expose
    ``candidate_bounds`` (the
    :class:`~repro.mining.pruning.CandidatePruner` protocol); pruners
    without a bound (e.g. the null pruner) return ``None`` and nothing
    is recorded. Recomputing the bounds costs one vectorized Equation
    (1) pass and one vector subtraction, paid only when metrics are
    enabled.
    """
    registry = get_registry()
    if not registry.enabled or not len(counted):
        return
    bounds = pruner.candidate_bounds(counted)
    if bounds is None:
        return
    histogram = registry.histogram("ossm.bound_gap", BOUND_GAP_BUCKETS)
    gaps = np.asarray(bounds, dtype=np.int64) - supports
    for gap in gaps.tolist():
        histogram.observe(gap)


def record_ossm_build(ossm, algorithm: str | None = None) -> None:
    """Gauge the shape/size of a freshly built (or loaded) OSSM."""
    registry = get_registry()
    if not registry.enabled:
        return
    registry.inc("ossm.builds")
    registry.set_gauge("ossm.n_segments", ossm.n_segments)
    registry.set_gauge("ossm.n_items", ossm.n_items)
    registry.set_gauge("ossm.nominal_bytes", ossm.nominal_size_bytes())
    if algorithm is not None:
        registry.inc(f"segmentation.{algorithm}.builds")
