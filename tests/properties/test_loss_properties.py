"""Property-based tests for Equation (2) (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    configuration,
    cumulative_loss,
    cumulative_loss_naive,
    merge_loss,
    merge_loss_naive,
    merge_losses,
    pair_bound_sum,
    pair_bound_sum_naive,
)

vectors = arrays(
    dtype=np.int64,
    shape=st.integers(min_value=1, max_value=12),
    elements=st.integers(min_value=0, max_value=200),
)

matrices = arrays(
    dtype=np.int64,
    shape=st.tuples(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=8),
    ),
    elements=st.integers(min_value=0, max_value=100),
)


@settings(max_examples=100, deadline=None)
@given(vectors)
def test_pair_bound_sum_fast_equals_naive(u):
    assert pair_bound_sum(u) == pair_bound_sum_naive(u)


@settings(max_examples=100, deadline=None)
@given(vectors, vectors)
def test_superadditivity(a, b):
    """f(a+b) >= f(a) + f(b): the heart of Lemma 2's non-negativity."""
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    assert pair_bound_sum(a + b) >= pair_bound_sum(a) + pair_bound_sum(b)


@settings(max_examples=100, deadline=None)
@given(vectors, vectors)
def test_merge_loss_fast_equals_naive(a, b):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    assert merge_loss(a, b) == merge_loss_naive(a, b)


@settings(max_examples=100, deadline=None)
@given(vectors, vectors)
def test_merge_loss_non_negative_and_symmetric(a, b):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    loss = merge_loss(a, b)
    assert loss >= 0
    assert loss == merge_loss(b, a)


@settings(max_examples=100, deadline=None)
@given(vectors, vectors)
def test_lemma2_zero_iff_same_configuration(a, b):
    m = min(len(a), len(b))
    a, b = a[:m], b[:m]
    loss = merge_loss(a, b)
    if configuration(a) == configuration(b):
        assert loss == 0
    # (The converse — zero loss with different syntactic configs — can
    # happen only through ties, which the canonical tie-break folds
    # into the same configuration; spot-check it.)
    if loss == 0 and m <= 6:
        merged = a + b
        assert pair_bound_sum(merged) == pair_bound_sum(a) + pair_bound_sum(b)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_cumulative_loss_fast_equals_naive(rows):
    assert cumulative_loss(rows) == cumulative_loss_naive(rows)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_lemma2c_monotone(rows):
    """cumuLoss(S) <= cumuLoss(S') for S ⊆ S'."""
    for k in range(2, rows.shape[0]):
        assert cumulative_loss(rows[:k]) <= cumulative_loss(rows[: k + 1])


@settings(max_examples=60, deadline=None)
@given(vectors, st.integers(min_value=1, max_value=8))
def test_scaling_invariance_of_configuration(u, factor):
    """Configurations are scale-free; scaled rows merge for free."""
    assert merge_loss(u, factor * u) == 0


#: One segment and a batch of partners over the same items, with
#: magnitudes up to 2³³ so every sort dtype of the batch can occur.
batches = st.integers(min_value=1, max_value=10).flatmap(
    lambda m: st.tuples(
        arrays(np.int64, m, elements=st.integers(0, 2**33)),
        arrays(
            np.int64,
            st.tuples(st.integers(min_value=0, max_value=6), st.just(m)),
            elements=st.integers(0, 2**33),
        ),
    )
)


@settings(max_examples=100, deadline=None)
@given(batches)
def test_merge_losses_equals_naive_per_row(batch):
    a, rows = batch
    assert merge_losses(a, rows).tolist() == [
        merge_loss_naive(a, r) for r in rows
    ]
