"""Tests for candidate generation (apriori-gen)."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.itemset_table import ItemsetTable
from repro.mining import itemsets as itemsets_module
from repro.mining import (
    Apriori, apriori_gen, is_canonical, join_step, prune_step, subsets_of_size,
)


class TestCanonical:
    def test_is_canonical(self):
        assert is_canonical((1, 2, 5))
        assert not is_canonical((2, 1))
        assert not is_canonical((1, 1))
        assert is_canonical(())

    def test_subsets_of_size(self):
        assert list(subsets_of_size((1, 2, 3), 2)) == [
            (1, 2), (1, 3), (2, 3)
        ]


class TestJoin:
    def test_joins_shared_prefix(self):
        frequent = [(1, 2), (1, 3), (1, 4), (2, 3)]
        assert join_step(frequent) == [(1, 2, 3), (1, 2, 4), (1, 3, 4)]

    def test_singletons_join_into_all_pairs(self):
        assert join_step([(1,), (2,), (3,)]) == [(1, 2), (1, 3), (2, 3)]

    def test_no_shared_prefix_no_candidates(self):
        assert join_step([(1, 2), (3, 4)]) == []


class TestPrune:
    def test_removes_candidates_with_infrequent_subset(self):
        # (1,2,3) needs (2,3) frequent; it is not.
        prior = {(1, 2), (1, 3), (1, 4), (3, 4)}
        pruned = prune_step([(1, 2, 3), (1, 3, 4)], prior)
        assert pruned == [(1, 3, 4)]

    def test_keeps_fully_supported(self):
        prior = {(1, 2), (1, 3), (2, 3)}
        assert prune_step([(1, 2, 3)], prior) == [(1, 2, 3)]


class TestAprioriGen:
    def test_classic_example(self):
        """The worked example from the Apriori paper."""
        l3 = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 4)]
        assert apriori_gen(l3) == [(1, 2, 3, 4)]

    def test_level_one_skips_subset_prune(self):
        assert apriori_gen([(2,), (5,), (9,)]) == [(2, 5), (2, 9), (5, 9)]

    def test_empty_input(self):
        assert apriori_gen([]) == []

    def test_mixed_cardinality_rejected(self):
        with pytest.raises(ValueError, match="one cardinality"):
            apriori_gen([(1,), (1, 2)])

    def test_output_canonical_and_sorted(self):
        out = apriori_gen([(1, 3), (1, 5), (1, 7)])
        assert out == sorted(out)
        assert all(is_canonical(c) for c in out)

    def test_unsorted_input_tolerated(self):
        # apriori_gen sorts internally.
        assert apriori_gen([(1, 3), (1, 2)]) == apriori_gen([(1, 2), (1, 3)])

    def test_returns_a_table_equal_to_the_tuple_list(self):
        out = apriori_gen([(1, 2), (1, 3), (2, 3)])
        assert isinstance(out, ItemsetTable)
        assert out == [(1, 2, 3)]
        assert list(out) == [(1, 2, 3)]

    def test_ids_too_large_for_mixed_radix_keys(self):
        big = 2**40
        prior = list(combinations((1, big, 2 * big, 3 * big), 3))
        assert apriori_gen(prior) == [(1, big, 2 * big, 3 * big)]
        assert apriori_gen(prior[:3]) == []


def _paper_literal(prior):
    return prune_step(join_step(sorted(prior)), frozenset(prior))


def _downward_closed_prior(rng, ids, width):
    """Most of the ``width``-subsets of a few random itemsets, shuffled:
    a level whose joins mostly pass the subset test."""
    sets = set()
    for _ in range(6):
        picked = sorted(int(x) for x in rng.choice(ids, 7, replace=False))
        sets.update(combinations(picked, width))
    prior = [s for s in sorted(sets) if rng.random() < 0.85]
    return [prior[i] for i in rng.permutation(len(prior))]


#: Id pools and widths that send apriori_gen's subset test down each of
#: its three paths: a dense table over renumbered ids, ``searchsorted``
#: on mixed-radix keys (ids too large to renumber, or too many distinct
#: ids for a dense table), and exact row ranks (negative ids, or keys
#: that would overflow int64).
MEMBERSHIP_PATHS = {
    "dense": [(np.arange(30), width) for width in (2, 3, 4)]
    + [(np.arange(0, 3000, 97), 3)],
    "searchsorted": [
        (np.arange(60), 5),
        (np.arange(2**21, 2**21 + 4000, 131), 2),
    ],
    "rank": [
        (np.arange(-10, 20), 3),
        (np.arange(2**62, 2**62 + 50), 2),
        (np.arange(2**30, 2**30 + 90, 3), 3),
    ],
}


@pytest.mark.parametrize("path", sorted(MEMBERSHIP_PATHS))
def test_equals_paper_literal_on_every_subset_test_path(path, monkeypatch):
    calls = []
    for name in ("_in_sorted", "_rank_keys"):
        original = getattr(itemsets_module, name)

        def spy(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(itemsets_module, name, spy)
    expected_calls = {
        "dense": set(),
        "searchsorted": {"_in_sorted"},
        "rank": {"_in_sorted", "_rank_keys"},
    }[path]
    rng = np.random.default_rng(len(path))
    for ids, width in MEMBERSHIP_PATHS[path]:
        generated = 0
        for _ in range(10):
            prior = _downward_closed_prior(rng, ids, width)
            calls.clear()
            out = apriori_gen(prior)
            assert list(out) == _paper_literal(prior)
            assert out.array.shape[1] == width + 1
            assert set(calls) == expected_calls
            generated += len(out)
        assert generated  # the subset test kept some candidates


@st.composite
def frequent_levels(draw, max_universe=8):
    """A set of same-size itemsets in arbitrary order: a level L_{k−1}."""
    k = draw(st.integers(min_value=1, max_value=4))
    # Ids near 2**62 make (max_item + 1) ** (k − 1) overflow int64, so
    # apriori_gen must fall back from mixed-radix keys to a row match.
    ids = draw(st.sampled_from([
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2**62),
    ]))
    universe = draw(st.lists(
        ids, min_size=k, max_size=max_universe, unique=True
    ))
    every = list(combinations(sorted(universe), k))
    return draw(st.lists(st.sampled_from(every), unique=True))


def ggv_bound(n_frequent: int, size: int) -> int:
    """Geerts–Goethals–Van den Bussche bound on the candidates of size
    ``size + 1`` that ``n_frequent`` frequent ``size``-itemsets generate.

    Write ``n_frequent`` in its ``size``-canonical form
    ``C(m_k, k) + C(m_{k−1}, k−1) + … + C(m_r, r)`` with
    ``m_k > m_{k−1} > … > m_r ≥ r ≥ 1``; the bound is
    ``C(m_k, k+1) + C(m_{k−1}, k) + … + C(m_r, r+1)``.
    """
    bound, rest, k = 0, n_frequent, size
    while rest and k >= 1:
        m = k
        while comb(m + 1, k) <= rest:
            m += 1
        rest -= comb(m, k)
        bound += comb(m, k + 1)
        k -= 1
    return bound


class TestAprioriGenProperties:
    @settings(max_examples=150, deadline=None)
    @given(frequent_levels())
    def test_equals_paper_literal_join_then_prune(self, prior):
        out = apriori_gen(prior)
        assert out == _paper_literal(prior)
        assert list(out) == _paper_literal(prior)

    @settings(max_examples=150, deadline=None)
    @given(frequent_levels(max_universe=10))
    def test_candidates_within_ggv_bound(self, prior):
        if prior:
            size = len(prior[0])
            assert len(apriori_gen(prior)) <= ggv_bound(len(prior), size)

    @pytest.mark.parametrize("n_items, size", [(6, 1), (7, 2), (8, 3)])
    def test_ggv_bound_is_tight_on_a_complete_level(self, n_items, size):
        prior = list(combinations(range(n_items), size))
        assert len(apriori_gen(prior)) == comb(n_items, size + 1)
        assert ggv_bound(len(prior), size) == comb(n_items, size + 1)

    def test_every_mined_level_within_ggv_bound(self, tiny_db):
        result = Apriori().mine(tiny_db, 1)
        for stats in result.levels[1:]:
            prior = result.level(stats.level - 1).frequent
            assert stats.candidates_generated <= ggv_bound(
                prior, stats.level - 1
            )
