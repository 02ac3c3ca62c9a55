"""Tests for the candidate table and its conversion seam."""

import pickle

import numpy as np
import pytest

from repro.core.itemset_table import (
    ItemsetTable,
    as_array,
    domain_mask,
    lexsort_rows,
    select,
)

TUPLES = [(0, 3, 5), (0, 4, 5), (1, 2, 9), (2, 3, 4)]


@pytest.fixture
def table():
    return ItemsetTable(np.array(TUPLES))


class TestItemsetTable:
    def test_equals_the_tuple_list_it_replaces(self, table):
        assert table == TUPLES
        assert TUPLES == table
        assert table == tuple(TUPLES)
        assert table == ItemsetTable(np.array(TUPLES))
        assert table != TUPLES[:-1]
        assert table != [(0, 3, 5), (0, 4, 5), (1, 2, 9), (2, 3, 5)]
        assert table != [list(t) for t in TUPLES]

    def test_sequence_protocol(self, table):
        assert len(table) == 4 and table
        assert not ItemsetTable(np.zeros((0, 3), dtype=np.int64))
        assert table[1] == (0, 4, 5) and table[-1] == (2, 3, 4)
        assert isinstance(table[1:3], ItemsetTable)
        assert table[1:3] == TUPLES[1:3]
        assert table[::2] == TUPLES[::2]
        assert (1, 2, 9) in table and table.index((1, 2, 9)) == 2

    def test_iteration_yields_tuples_of_python_ints(self, table):
        rows = list(table)
        assert rows == TUPLES
        assert all(type(item) is int for row in rows for item in row)

    def test_iteration_beyond_the_shared_int_lookup(self):
        rows = [(-3, 2**40), (5, 2**62)]
        assert list(ItemsetTable(np.array(rows))) == rows

    def test_tuples_share_python_ints(self):
        table = ItemsetTable(np.array([(1000, 2000), (1000, 3000)]))
        first, second = table
        assert first[0] is second[0]

    def test_compress_keeps_a_table(self, table):
        kept = table.compress(np.array([True, False, False, True]))
        assert isinstance(kept, ItemsetTable)
        assert kept == [TUPLES[0], TUPLES[3]]

    def test_immutable(self, table):
        with pytest.raises(ValueError):
            table.array[0, 0] = 7
        with pytest.raises(TypeError):
            hash(table)

    def test_caller_array_stays_writable(self):
        source = np.array(TUPLES)
        ItemsetTable(source)
        source[0, 0] = 1
        assert source[0, 0] == 1

    def test_pickle_round_trip(self, table):
        copy = pickle.loads(pickle.dumps(table))
        assert copy == TUPLES
        assert not copy.array.flags.writeable

    def test_pickled_pairs_table_stays_read_only_and_bounds_alike(self):
        from repro.core.ossm import OSSM

        table = ItemsetTable.pairs_of(np.array([0, 2, 3, 5]))
        copy = pickle.loads(pickle.dumps(table))
        assert not copy.array.flags.writeable
        assert not copy.basis.flags.writeable
        assert copy == table and copy.basis.tolist() == [0, 2, 3, 5]
        ossm = OSSM(np.array([[3, 0, 2, 1, 0, 4], [1, 5, 0, 2, 2, 2]]))
        assert np.array_equal(
            ossm.upper_bounds(copy), ossm.upper_bounds(table)
        )
        assert ossm.upper_bounds(copy).tolist() == [
            ossm.upper_bound(pair) for pair in table
        ]

    def test_pairs_of_is_the_upper_triangle(self):
        basis = np.array([2, 5, 5, 7])
        table = ItemsetTable.pairs_of(basis)
        assert table == [(2, 5), (2, 5), (2, 7), (5, 5), (5, 7), (5, 7)]
        assert table.basis.tolist() == [2, 5, 5, 7]
        basis[0] = 9  # the table keeps its own read-only copy
        assert table.basis[0] == 2 and table[0] == (2, 5)
        with pytest.raises(ValueError):
            table.basis[0] = 9
        assert ItemsetTable.pairs_of(np.array([4])) == []
        assert ItemsetTable(table.array).basis is None
        assert table[1:].basis is None and table[:].basis is None
        assert table.compress(np.ones(6, dtype=bool)).basis is None
        assert pickle.loads(pickle.dumps(table)).basis.tolist() == [2, 5, 5, 7]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            ItemsetTable(np.arange(3))


class TestAsArray:
    def test_table_array_is_returned_without_copy(self, table):
        assert as_array(table) is table.array

    def test_sequence_of_tuples(self):
        array = as_array(TUPLES)
        assert array.dtype == np.int64 and array.shape == (4, 3)
        assert array.tolist() == [list(t) for t in TUPLES]

    def test_empty(self):
        assert as_array([]).shape == (0, 0)

    def test_mixed_cardinality_rejected(self):
        with pytest.raises(ValueError, match="one cardinality"):
            as_array([(1, 2), (3,)])

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_out_of_domain_rejected(self, bad):
        with pytest.raises(ValueError, match="outside the item domain"):
            as_array([(0, 1), (bad, 2)], n_items=10)

    def test_domain_mask(self):
        array = np.array([(0, 1), (-1, 2), (3, 4)])
        assert domain_mask(array[[0, 2]], 5) is None
        assert domain_mask(array, 5).tolist() == [True, False, True]
        assert domain_mask(array, 4).tolist() == [True, False, False]

    def test_lexsort_rows(self):
        assert lexsort_rows(np.array(TUPLES)) is None
        shuffled = np.array(TUPLES[::-1])
        order = lexsort_rows(shuffled)
        assert shuffled[order].tolist() == [list(t) for t in TUPLES]

    def test_select(self, table):
        mask = np.array([False, True, True, False])
        assert isinstance(select(table, mask), ItemsetTable)
        assert select(TUPLES, mask) == [TUPLES[1], TUPLES[2]]
        assert isinstance(select(TUPLES, mask), list)
