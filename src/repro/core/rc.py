"""The RC (Random Closest) segmentation algorithm (Figure 3 of the paper).

Each iteration picks a *random* live segment and merges it with its
closest neighbour — the segment minimizing the Equation (2) pair loss.
Like Greedy it prefers cheap merges, but it drops the global-minimum
requirement and the priority queue: one scan of the survivors per
iteration (a single batched loss evaluation), ``O(P m²)`` each,
``O(P² m²)`` overall.
"""

from __future__ import annotations

import numpy as np

from ..obs.metrics import get_registry
from .segmentation import MergeState, Segmenter

__all__ = ["RCSegmenter"]


class RCSegmenter(Segmenter):
    """Merge a random segment with its loss-closest neighbour.

    Deterministic given *seed*; ties on loss resolve to the
    lowest-handle neighbour.
    """

    name = "rc"

    def __init__(self, seed: int = 0, items=None) -> None:
        super().__init__(items=items)
        self.seed = seed

    def _reduce(self, state: MergeState, n_user: int) -> None:
        metrics = get_registry()
        rng = np.random.default_rng(self.seed)
        while state.n_segments > n_user:
            others = state.segment_ids()
            anchor = others.pop(int(rng.integers(len(others))))
            # argmin keeps the first minimum: the lowest-handle neighbour.
            closest = others[int(np.argmin(state.losses(anchor, others)))]
            state.merge(anchor, closest)
            if metrics.enabled:
                metrics.inc("segmentation.rc.neighbour_scans", len(others))
                metrics.inc("segmentation.rc.merges")
