"""The Greedy segmentation algorithm (Figure 2 of the paper).

Seed a priority queue with the Equation (2) loss of every pair of
initial segments; repeatedly pop the minimum-loss pair, merge it, and
insert the losses of the merged segment against every survivor —
recomputation is unavoidable because a merge can produce a segment of a
*totally different* configuration (Example 3). Stops at ``n_user``
segments.

Complexity (paper, Section 5.2): ``O(P² m²)`` to seed plus
``O(P (m² + log P))`` per iteration → ``O(P² m² + P² log P)`` overall;
our sort-based loss evaluator turns each ``m²`` into ``m log m`` without
changing any merge decision (see :mod:`repro.core.loss`), and scores
one segment against all the others in one batched call. The heap uses
lazy deletion: entries referring to retired segment handles are
discarded on pop, which implements Step 5 of Figure 2 ("remove all pairs
involving S_i or S_j") without an indexed queue.
"""

from __future__ import annotations

import heapq
from itertools import repeat

from ..obs.metrics import get_registry
from .segmentation import MergeState, Segmenter

__all__ = ["GreedySegmenter"]


class GreedySegmenter(Segmenter):
    """Merge the globally cheapest pair until ``n_user`` segments remain.

    Deterministic: ties on loss are broken by (older, older) segment
    handles, matching a stable priority queue.
    """

    name = "greedy"

    def _reduce(self, state: MergeState, n_user: int) -> None:
        metrics = get_registry()
        # Seed: one batched evaluation scores each segment against every
        # newer one; entries are (loss, older, newer) as in a pair loop.
        ids = state.segment_ids()
        heap: list[tuple[int, int, int]] = []
        for i, older in enumerate(ids[:-1]):
            newer = ids[i + 1:]
            heap.extend(
                zip(state.losses(older, newer).tolist(), repeat(older), newer)
            )
        heapq.heapify(heap)
        # Hot loop: bind the per-iteration attribute lookups once.
        heappop, heappush = heapq.heappop, heapq.heappush
        losses = state.losses
        while state.n_segments > n_user:
            loss, a, b = heappop(heap)
            if not (state.alive(a) and state.alive(b)):
                if metrics.enabled:
                    metrics.inc("segmentation.greedy.stale_pops")
                continue  # stale entry: a participant was merged away
            merged = state.merge(a, b)
            # The merged segment holds the newest handle, so it sorts last.
            others = state.segment_ids()[:-1]
            for loss, other in zip(losses(merged, others).tolist(), others):
                heappush(heap, (loss, other, merged))
            if metrics.enabled:
                metrics.inc("segmentation.greedy.merges")
                metrics.inc("segmentation.greedy.heap_pushes", len(others))
