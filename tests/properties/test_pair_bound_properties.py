"""Property-based tests for the two Equation (1) pair kernels.

A level-2 ``apriori_gen`` table carries its item basis and is bounded
by a row-wise integer min-sum over the basis columns (the triangle path);
every other pair set — slices, compressed survivors, serving batches,
hand-written lists — goes through the blocked item-major gather. Both
must equal the scalar ``upper_bound`` exactly, as int64, including
supports far beyond 32 bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OSSM
from repro.mining.itemsets import apriori_gen, join_step, prune_step

MAX_ITEMS = 10

#: Small counts, or counts within 100 of 2**33 (pair sums near 2**34).
supports = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=2**33 - 100, max_value=2**33),
)


@st.composite
def maps(draw):
    n_segments = draw(st.integers(min_value=1, max_value=6))
    n_items = draw(st.integers(min_value=2, max_value=MAX_ITEMS))
    cells = draw(
        st.lists(
            supports,
            min_size=n_segments * n_items,
            max_size=n_segments * n_items,
        )
    )
    return OSSM(np.array(cells, dtype=np.int64).reshape(n_segments, n_items))


def level_one(n_items):
    """An unsorted L1 that may repeat items."""
    return st.lists(
        st.integers(min_value=0, max_value=n_items - 1), max_size=12
    )


def assert_exact(ossm, itemsets):
    bounds = ossm.upper_bounds(itemsets)
    assert isinstance(bounds, np.ndarray)
    assert bounds.dtype == np.int64 and bounds.shape == (len(itemsets),)
    assert bounds.tolist() == [ossm.upper_bound(pair) for pair in itemsets]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triangle_table_and_its_subsets_match_scalar(data):
    ossm = data.draw(maps())
    items = data.draw(level_one(ossm.n_items))
    table = apriori_gen([(item,) for item in items])
    if len(items) > 1:
        assert table.basis is not None
    assert_exact(ossm, table)

    lo = data.draw(st.integers(min_value=0, max_value=len(table)))
    hi = data.draw(st.integers(min_value=lo, max_value=len(table)))
    sliced = table[lo:hi]
    assert sliced.basis is None
    assert_exact(ossm, sliced)

    mask = np.array(
        data.draw(
            st.lists(st.booleans(), min_size=len(table), max_size=len(table))
        ),
        dtype=bool,
    )
    kept = table.compress(mask)
    assert kept.basis is None
    assert_exact(ossm, kept)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arbitrary_pair_lists_match_scalar(data):
    """Reversed ``(b, a)`` pairs, ``(a, a)`` repeats and single pairs
    all take the gather path."""
    ossm = data.draw(maps())
    item = st.integers(min_value=0, max_value=ossm.n_items - 1)
    pairs = data.draw(st.lists(st.tuples(item, item), min_size=1))
    assert_exact(ossm, pairs)
    assert_exact(ossm, pairs[:1])
    assert_exact(ossm, np.array(pairs, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=30), max_size=12))
def test_level_two_gen_is_the_literal_join_and_prune(items):
    prior = [(item,) for item in items]
    table = apriori_gen(prior)
    assert table == prune_step(join_step(sorted(prior)), frozenset(prior))
    assert table[:].basis is None
    assert table.compress(np.ones(len(table), dtype=bool)).basis is None


@pytest.mark.parametrize("outside", [-1, 5])
def test_out_of_domain_ids_raise_on_both_paths(outside):
    ossm = OSSM(np.arange(10, dtype=np.int64).reshape(2, 5))
    table = apriori_gen([(0,), (outside,), (3,)])
    assert table.basis is not None
    with pytest.raises(ValueError, match="outside the item domain"):
        ossm.upper_bounds(table)
    with pytest.raises(ValueError, match="outside the item domain"):
        ossm.upper_bounds(table[:])
    with pytest.raises(ValueError, match="outside the item domain"):
        ossm.upper_bounds([(0, outside)])
