"""The cumulative accuracy loss of merging segments (Equation 2).

For a set ``S`` of segments, the paper quantifies the sub-optimality of
collapsing them into one segment as::

    cumuLoss(S) = sum over item pairs {x, y} of
        sup_hat({x,y}, Omega_1)  -  sup_hat({x,y}, Omega_|S|)

i.e. the total loosening of the pair bounds. Lemma 2: the quantity is
zero iff all segments share a configuration, positive otherwise, and
monotone under adding segments.

Two evaluators are provided:

* :func:`pair_bound_sum_naive` / the ``*_naive`` entry points — the
  paper-literal ``O(m²)`` double loop over item pairs;
* :func:`pair_bound_sum` — an ``O(m log m)`` sort identity. For a
  support vector ``u`` sorted ascending, each ``u_(k)`` is the minimum
  of exactly ``m − 1 − k`` pairs (those pairing it with a larger-ranked
  item), so ``Σ_{x<y} min(u_x, u_y) = Σ_k u_(k) · (m − 1 − k)``.

The segmentation algorithms score one segment against many at once:
:func:`pair_bound_sums` applies the sort identity to every row of a
matrix in one ``np.sort(axis=1)`` and one int64 dot, and
:func:`merge_losses` builds Equation (2) for a whole batch of merge
partners on it. A batch is sorted in the narrowest dtype that holds
its largest entry — uint16, then uint32, else int64 — because numpy
sorts 16-bit keys far faster than 64-bit ones (3× on a 199 × 1000
batch). uint8 is not used: its row sort measured 18× slower than
uint16's. The sums stay exact in every dtype.

Writing ``f(u) = Σ_{x<y} min(u_x, u_y)``, Equation (2) factorizes as
``cumuLoss(S) = f(Σ_{s∈S} s) − Σ_{s∈S} f(s)`` — the merged bound minus
the separated bounds, summed over pairs. Both evaluators implement the
same mathematical function; tests assert exact agreement, and every
algorithmic decision (which pair Greedy merges, which neighbour RC
picks) is identical under either.

All functions accept an optional *items* restriction — the bubble-list
optimization of Section 5.3 — which replaces the ``m²`` pair space by
``b²`` for a bubble list of ``b`` items.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .ossm import check_supports, sort_dtype

__all__ = [
    "pair_bound_sum",
    "pair_bound_sums",
    "pair_bound_sum_naive",
    "merge_loss",
    "merge_losses",
    "merge_loss_naive",
    "cumulative_loss",
    "cumulative_loss_naive",
    "pairwise_merge_losses",
    "sort_dtype",
]


def _restrict(u: np.ndarray, items: Sequence[int] | None) -> np.ndarray:
    u = np.asarray(u, dtype=np.int64)
    if u.ndim != 1:
        raise ValueError("support vector must be 1-D")
    if items is None:
        return u
    return u[np.asarray(items, dtype=np.int64)]


def _restrict_rows(
    rows: np.ndarray, items: Sequence[int] | None
) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D matrix (segments x items)")
    if items is None:
        return rows
    return rows[:, np.asarray(items, dtype=np.int64)]


def pair_bound_sum(
    u: np.ndarray, items: Sequence[int] | None = None
) -> int:
    """``f(u) = Σ_{x<y} min(u_x, u_y)`` via the O(m log m) sort identity."""
    u = _restrict(u, items)
    m = u.shape[0]
    if m < 2:
        return 0
    ascending = np.sort(u)
    weights = np.arange(m - 1, -1, -1, dtype=np.int64)
    return int(np.dot(ascending, weights))


def pair_bound_sums(rows: np.ndarray, high: int | None = None) -> np.ndarray:
    """``f`` of every row of a matrix of supports, as an int64 vector.

    *high* is an upper bound on the entries when the caller already
    knows one; otherwise the matrix is scanned for it. The rows are
    sorted in :func:`sort_dtype` of that bound.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D matrix (segments x items)")
    k, m = rows.shape
    if k == 0 or m < 2:
        return np.zeros(k, dtype=np.int64)
    if high is None:
        check_supports(rows)
        high = int(rows.max())
    ascending = np.sort(rows.astype(sort_dtype(high), copy=False), axis=1)
    # einsum's int64 dot measured ~20 % faster than ``@`` on uint16 rows.
    weights = np.arange(m - 1, -1, -1, dtype=np.int64)
    return np.einsum("ij,j->i", ascending, weights)


def pair_bound_sum_naive(
    u: np.ndarray, items: Sequence[int] | None = None
) -> int:
    """``f(u)`` by the paper-literal double loop (reference implementation)."""
    u = _restrict(u, items)
    total = 0
    m = u.shape[0]
    for x in range(m):
        for y in range(x + 1, m):
            total += int(min(u[x], u[y]))
    return total


def merge_loss(
    a: np.ndarray,
    b: np.ndarray,
    items: Sequence[int] | None = None,
) -> int:
    """Equation (2) loss of merging two segments: ``f(a+b) − f(a) − f(b)``.

    Zero iff ``a`` and ``b`` share a configuration on the restricted
    item set (Lemma 2a/2b); always non-negative.
    """
    a = _restrict(a, items)
    b = _restrict(b, items)
    if a.shape != b.shape:
        raise ValueError("segment rows must have equal length")
    return (
        pair_bound_sum(a + b) - pair_bound_sum(a) - pair_bound_sum(b)
    )


def merge_losses(
    a: np.ndarray,
    rows: np.ndarray,
    items: Sequence[int] | None = None,
) -> np.ndarray:
    """:func:`merge_loss` of *a* against every row of *rows*, batched.

    Returns the int64 vector ``f(a + r) − f(a) − f(r)`` over the rows
    ``r``; an empty *rows* gives an empty vector. Supports must be
    non-negative.
    """
    a = _restrict(a, items)
    rows = _restrict_rows(rows, items)
    if rows.shape[1] != a.shape[0]:
        raise ValueError("segment rows must have equal length")
    return (
        pair_bound_sums(rows + a) - pair_bound_sum(a) - pair_bound_sums(rows)
    )


def merge_loss_naive(
    a: np.ndarray,
    b: np.ndarray,
    items: Sequence[int] | None = None,
) -> int:
    """Paper-literal Equation (2) for two segments (explicit pair loop)."""
    a = _restrict(a, items)
    b = _restrict(b, items)
    if a.shape != b.shape:
        raise ValueError("segment rows must have equal length")
    total = 0
    m = a.shape[0]
    for x in range(m):
        for y in range(x + 1, m):
            merged = min(int(a[x] + b[x]), int(a[y] + b[y]))
            separated = min(int(a[x]), int(a[y])) + min(int(b[x]), int(b[y]))
            total += merged - separated
    return total


def cumulative_loss(
    rows: np.ndarray, items: Sequence[int] | None = None
) -> int:
    """``cumuLoss(S)`` for a stack of segment rows (Equation 2).

    ``rows`` is a ``k × m`` matrix whose rows are the segments of ``S``.
    """
    rows = _restrict_rows(rows, items)
    merged = pair_bound_sum(rows.sum(axis=0))
    separated = sum(pair_bound_sum(row) for row in rows)
    return int(merged - separated)


def cumulative_loss_naive(
    rows: np.ndarray, items: Sequence[int] | None = None
) -> int:
    """Paper-literal ``cumuLoss(S)``: explicit sum over item pairs."""
    rows = _restrict_rows(rows, items)
    k, m = rows.shape
    total = 0
    column_sums = rows.sum(axis=0)
    for x in range(m):
        for y in range(x + 1, m):
            merged = min(int(column_sums[x]), int(column_sums[y]))
            separated = sum(
                min(int(rows[i, x]), int(rows[i, y])) for i in range(k)
            )
            total += merged - separated
    return total


def pairwise_merge_losses(
    rows: np.ndarray, items: Sequence[int] | None = None
) -> np.ndarray:
    """Matrix of :func:`merge_loss` for every pair of rows.

    Entry ``(i, j)`` is the loss of merging segments ``i`` and ``j``;
    the diagonal is 0. One :func:`merge_losses` call per row scores it
    against every later row, so ``O(k² · b log b)`` overall for ``k``
    segments and ``b`` (bubble-restricted) items.
    """
    rows = _restrict_rows(rows, items)
    k = rows.shape[0]
    losses = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        losses[i, i + 1:] = merge_losses(rows[i], rows[i + 1:])
    return losses + losses.T
