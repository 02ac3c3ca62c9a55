"""Common machinery for the constrained segmentation algorithms.

Every algorithm in Section 5 starts from ``P`` initial segments (the
pages), repeatedly merges pairs, and stops at ``n_user`` segments. They
differ only in *which* pair they merge. This module provides:

* :class:`SegmentationResult` — groups, the realized OSSM, and cost
  accounting (wall time and the number of Equation (2) evaluations,
  which is the machine-independent cost the complexity analysis in the
  paper counts);
* :class:`Segmenter` — the abstract interface;
* :class:`MergeState` — the shared mutable workspace: live segment
  rows, the page groups behind each segment, cached ``f`` values, and
  the loss evaluator (optionally restricted to a bubble list).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..data.pages import PagedDatabase
from ..obs.instrument import record_ossm_build
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import trace
from .loss import pair_bound_sums, sort_dtype
from .ossm import OSSM, check_supports

__all__ = ["SegmentationResult", "Segmenter", "MergeState", "as_page_matrix"]

logger = get_logger(__name__)


def as_page_matrix(
    source: PagedDatabase | np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Normalize a segmentation input to ``(page_matrix, page_sizes)``.

    A raw matrix must hold non-negative integral supports, with the
    :class:`~repro.core.ossm.OSSM` messages: a fractional or negative
    entry would otherwise be truncated or wrapped silently, and the
    realized map could then undercut a true support.
    """
    if isinstance(source, PagedDatabase):
        return source.page_supports(), source.page_lengths()
    matrix = np.asarray(source)
    if matrix.ndim != 2:
        raise ValueError("page matrix must be 2-D (pages x items)")
    check_supports(matrix)
    return matrix.astype(np.int64, copy=False), None


@dataclass(frozen=True)
class SegmentationResult:
    """Outcome of one segmentation run.

    Attributes
    ----------
    groups:
        Page indices merged into each final segment.
    ossm:
        The OSSM realized by the grouping.
    algorithm:
        Human-readable algorithm name (e.g. ``"greedy"``,
        ``"random-rc"``).
    elapsed_seconds:
        Wall-clock segmentation time — the paper's "segmentation cost".
    loss_evaluations:
        Number of Equation (2) pair evaluations performed; the
        machine-independent cost counted by the paper's complexity
        analysis (0 for Random).
    """

    groups: list[list[int]]
    ossm: OSSM
    algorithm: str
    elapsed_seconds: float
    loss_evaluations: int

    @property
    def n_segments(self) -> int:
        """Number of final segments."""
        return len(self.groups)


class MergeState:
    """Live segments during a run: rows, page groups, and cached ``f``.

    Segment handles are integers; merging retires both operands and
    allocates a fresh handle, so stale priority-queue entries are
    recognizably dead (the lazy-deletion pattern the Greedy heap needs).

    The loss side is array-backed and filled on first use, so a run
    that never scores a merge (Random) never pays for it. The rows
    restricted to *items* sit in one matrix indexed by handle: ``P``
    pages merge at most ``P − 1`` times, so handles stop at ``2P − 2``.
    Its dtype is the narrowest that holds the largest column total,
    which no segment can exceed. ``f`` (``-1`` until filled) and the
    row maxima sit in handle-indexed arrays beside it.
    """

    def __init__(
        self,
        page_matrix: np.ndarray,
        items: Sequence[int] | None = None,
    ) -> None:
        page_matrix, _ = as_page_matrix(page_matrix)
        n_pages = page_matrix.shape[0]
        self._items = (
            np.asarray(items, dtype=np.int64) if items is not None else None
        )
        restricted = (
            page_matrix if self._items is None else page_matrix[:, self._items]
        )
        capacity = max(2 * n_pages - 1, 0)
        high = int(restricted.sum(axis=0).max(initial=0))
        self._loss_rows = np.zeros(
            (capacity, restricted.shape[1]), dtype=sort_dtype(high)
        )
        self._row_max = np.zeros(capacity, dtype=np.int64)
        self._f = np.full(capacity, -1, dtype=np.int64)
        self.rows: dict[int, np.ndarray] = {
            i: page_matrix[i].copy() for i in range(n_pages)
        }
        self.groups: dict[int, list[int]] = {
            i: [i] for i in range(n_pages)
        }
        self._next_id = n_pages
        self.loss_evaluations = 0

    # -- loss ------------------------------------------------------------

    def _fill(self, handles: np.ndarray) -> None:
        """Fill the loss row, row maximum and ``f`` of unseen *handles*."""
        fresh = handles[self._f[handles] < 0]
        if not fresh.size:
            return
        rows = np.vstack([self.rows[seg] for seg in fresh.tolist()])
        if self._items is not None:
            rows = rows[:, self._items]
        maxima = rows.max(axis=1, initial=0)
        self._loss_rows[fresh] = rows
        self._row_max[fresh] = maxima
        self._f[fresh] = pair_bound_sums(rows, int(maxima.max()))

    def f_value(self, seg: int) -> int:
        """Cached ``f(row)`` (sum of pair minima) for a live segment."""
        self._fill(np.array([seg]))
        return int(self._f[seg])

    def losses(self, a: int, others: Sequence[int]) -> np.ndarray:
        """Equation (2) loss of merging *a* with each of *others*.

        One batched evaluation: the merged rows are sorted in the
        narrowest dtype that holds ``max(a) + max(others)``. Counts
        ``len(others)`` loss evaluations.
        """
        handles = np.asarray(others, dtype=np.intp)
        self.loss_evaluations += len(handles)
        if not len(handles):
            return np.zeros(0, dtype=np.int64)
        self._fill(np.append(handles, a))
        high = int(self._row_max[a]) + int(self._row_max[handles].max())
        dtype = sort_dtype(high)
        merged = self._loss_rows[handles].astype(dtype, copy=False)
        merged += self._loss_rows[a].astype(dtype, copy=False)
        return (
            pair_bound_sums(merged, high) - self._f[a] - self._f[handles]
        )

    def loss(self, a: int, b: int) -> int:
        """Equation (2) loss of merging live segments *a* and *b*."""
        return int(self.losses(a, [b])[0])

    # -- merging -----------------------------------------------------------

    def merge(self, a: int, b: int) -> int:
        """Merge live segments *a* and *b*; return the new handle."""
        if a == b:
            raise ValueError("cannot merge a segment with itself")
        new = self._next_id
        self._next_id += 1
        self.rows[new] = self.rows[a] + self.rows[b]
        self.groups[new] = self.groups[a] + self.groups[b]
        for old in (a, b):
            del self.rows[old]
            del self.groups[old]
        return new

    def alive(self, seg: int) -> bool:
        """True while *seg* has not been merged away."""
        return seg in self.rows

    @property
    def n_segments(self) -> int:
        """Number of live segments."""
        return len(self.rows)

    def segment_ids(self) -> list[int]:
        """Live segment handles in creation order."""
        return sorted(self.rows)

    # -- finalization ------------------------------------------------------

    def final_groups(self) -> list[list[int]]:
        """Page groups of the live segments, pages sorted within groups."""
        return [sorted(self.groups[seg]) for seg in self.segment_ids()]

    def final_matrix(self) -> np.ndarray:
        """Segment-support rows of the live segments (full item domain)."""
        return np.vstack([self.rows[seg] for seg in self.segment_ids()])


class Segmenter(abc.ABC):
    """Interface shared by Random, RC, Greedy, and the hybrids.

    Subclasses implement :meth:`_reduce`, which merges a
    :class:`MergeState` down to ``n_user`` live segments. The public
    :meth:`segment` handles input normalization, the trivial
    ``n_user >= P`` case, timing, and OSSM realization.
    """

    #: Human-readable name used in results and reports.
    name: str = "abstract"

    def __init__(self, items: Sequence[int] | None = None) -> None:
        self.items = list(items) if items is not None else None

    @abc.abstractmethod
    def _reduce(self, state: MergeState, n_user: int) -> None:
        """Merge segments in *state* until ``state.n_segments == n_user``."""

    def segment(
        self,
        source: PagedDatabase | np.ndarray,
        n_segments: int | None = None,
        **removed: int,
    ) -> SegmentationResult:
        """Partition the pages of *source* into *n_segments* segments.

        ``n_user`` (the paper's name for the segment budget) was a
        deprecated keyword alias of ``n_segments`` through PR 8; the
        alias is now removed.
        """
        if removed:
            unknown = ", ".join(sorted(removed))
            hint = (
                " (n_user= was removed after a 5-PR deprecation cycle; "
                "pass n_segments= instead)"
                if "n_user" in removed
                else ""
            )
            raise TypeError(
                f"segment() got unexpected keyword argument(s): "
                f"{unknown}{hint}"
            )
        if n_segments is None:
            raise TypeError(
                "segment() missing required argument: 'n_segments'"
            )
        n_user = int(n_segments)
        page_matrix, page_sizes = as_page_matrix(source)
        n_pages = page_matrix.shape[0]
        if n_user < 1:
            raise ValueError("n_segments must be >= 1")
        if n_pages == 0:
            raise ValueError("cannot segment an empty collection")
        start = time.perf_counter()
        with trace(
            f"segment.{self.name}", n_pages=n_pages, n_user=n_user
        ):
            state = MergeState(page_matrix, items=self.items)
            if n_user < n_pages:
                self._reduce(state, n_user)
        elapsed = time.perf_counter() - start
        groups = state.final_groups()
        sizes = None
        if page_sizes is not None:
            sizes = [int(sum(page_sizes[p] for p in g)) for g in groups]
        ossm = OSSM(state.final_matrix(), segment_sizes=sizes)
        record_ossm_build(ossm, algorithm=self.name)
        metrics = get_registry()
        if metrics.enabled:
            metrics.set_gauge(
                "segmentation.loss_evaluations", state.loss_evaluations
            )
            metrics.timer("segmentation.seconds").observe(elapsed)
        logger.info(
            "%s: %d pages -> %d segments in %.3fs (%d loss evaluations)",
            self.name, n_pages, len(groups), elapsed,
            state.loss_evaluations,
        )
        return SegmentationResult(
            groups=groups,
            ossm=ossm,
            algorithm=self.name,
            elapsed_seconds=elapsed,
            loss_evaluations=state.loss_evaluations,
        )
