"""Online OSSM maintenance for growing collections.

The OSSM's ancestor, the plain SSM, was built for *online* mining with
Carma (the paper's references [9, 10]): transactions keep arriving and
the structure must stay current without re-running segmentation from
scratch. This module provides that operational layer:

* :class:`StreamingOSSMBuilder` — consume pages as they arrive; each
  new page either opens a segment (while under the budget) or merges
  into the existing segment that minimizes the Equation (2) loss — the
  streaming analogue of RC's "closest" rule;
* :func:`extend_ossm` — batch append: new data becomes fresh segments
  next to an existing map (loss-free; the bound can only stay sound),
  optionally re-coarsened back to the budget.

Soundness is unconditional: every operation only ever *sums* support
rows, so Equation (1) remains a valid upper bound for the grown
collection at every point.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..data.pages import PagedDatabase
from ..data.transactions import TransactionDatabase
from .greedy import GreedySegmenter
from .loss import merge_losses
from .ossm import OSSM

__all__ = ["StreamingOSSMBuilder", "extend_ossm"]


class StreamingOSSMBuilder:
    """Build and maintain an OSSM over an unbounded page stream.

    Parameters
    ----------
    n_items:
        Item-domain size (fixed up front; streams do not grow ``m``).
    max_segments:
        The segment budget (``n_user``).
    items:
        Optional bubble list restricting the loss computation.
    """

    def __init__(
        self,
        n_items: int,
        max_segments: int,
        items: Sequence[int] | None = None,
    ) -> None:
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        if max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        self.n_items = int(n_items)
        self.max_segments = int(max_segments)
        self._items = list(items) if items is not None else None
        self._rows: list[np.ndarray] = []
        self._sizes: list[int] = []
        self.pages_consumed = 0
        self.loss_evaluations = 0
        #: Ingestion epoch: bumped on every mutation of the held rows,
        #: and stamped onto every :meth:`ossm` snapshot so consumers
        #: (the serving layer's bound cache) can detect staleness.
        self.epoch = 0

    # -- ingestion ---------------------------------------------------------

    def add_page_row(self, row: np.ndarray, size: int = 0) -> int:
        """Ingest one page-support row; return the segment it joined."""
        row = np.asarray(row, dtype=np.int64)
        if row.shape != (self.n_items,):
            raise ValueError(
                f"row must have shape ({self.n_items},), got {row.shape}"
            )
        if row.size and row.min() < 0:
            raise ValueError("supports must be non-negative")
        self.pages_consumed += 1
        self.epoch += 1
        if len(self._rows) < self.max_segments:
            self._rows.append(row.copy())
            self._sizes.append(int(size))
            return len(self._rows) - 1
        # argmin keeps the first minimum: ties go to the oldest segment.
        losses = merge_losses(row, np.vstack(self._rows), items=self._items)
        self.loss_evaluations += len(self._rows)
        best = int(np.argmin(losses))
        self._rows[best] = self._rows[best] + row
        self._sizes[best] += int(size)
        return best

    def add_page(self, page: TransactionDatabase) -> int:
        """Ingest one page of transactions."""
        row = np.zeros(self.n_items, dtype=np.int64)
        supports = page.item_supports()
        row[: len(supports)] = supports
        return self.add_page_row(row, size=len(page))

    def absorb(self, database: TransactionDatabase, page_size: int = 100) -> None:
        """Ingest a whole database, page by page."""
        paged = PagedDatabase(database, page_size=page_size)
        for page in paged:
            if len(page):
                self.add_page(page)

    # -- state -------------------------------------------------------------

    @property
    def n_segments(self) -> int:
        """Segments currently held (≤ the budget)."""
        return len(self._rows)

    def ossm(self) -> OSSM:
        """Snapshot the current map (cheap; copies the rows).

        The snapshot carries the builder's current :attr:`epoch`, so
        two snapshots straddling an ingestion are distinguishable by a
        single integer comparison.
        """
        if not self._rows:
            raise ValueError("no pages ingested yet")
        return OSSM(
            np.vstack(self._rows),
            segment_sizes=self._sizes,
            epoch=self.epoch,
        )


def extend_ossm(
    ossm: OSSM,
    new_data: TransactionDatabase,
    page_size: int = 100,
    recoarsen_to: int | None = None,
) -> OSSM:
    """Append *new_data* to an existing map as fresh segments.

    Appending whole segments is loss-free (no merge happens), so the
    extended map is exactly as tight on old itemset bounds and tighter
    than any single-segment summary of the new data. When
    *recoarsen_to* is given, the grown map is merged back down to that
    many segments with the Greedy rule.

    The returned map's :attr:`~repro.core.ossm.OSSM.epoch` is the
    input's epoch plus one — the collection grew, so any bound cached
    against the old map is now potentially unsound for the grown
    collection and must be invalidated (DESIGN.md §10).
    """
    if new_data.n_items > ossm.n_items:
        raise ValueError(
            "new data introduces items beyond the map's domain"
        )
    paged = PagedDatabase(new_data, page_size=page_size)
    rows = [ossm.matrix]
    sizes = list(ossm.segment_sizes or [0] * ossm.n_segments)
    new_rows = np.zeros((paged.n_pages, ossm.n_items), dtype=np.int64)
    supports = paged.page_supports()
    new_rows[:, : supports.shape[1]] = supports
    rows.append(new_rows)
    sizes.extend(int(n) for n in paged.page_lengths())
    grown = OSSM(
        np.vstack(rows), segment_sizes=sizes, epoch=ossm.epoch + 1
    )
    if recoarsen_to is None or grown.n_segments <= recoarsen_to:
        return grown
    result = GreedySegmenter().segment(grown.matrix, recoarsen_to)
    merged = grown.merge_segments(result.groups)
    return merged
