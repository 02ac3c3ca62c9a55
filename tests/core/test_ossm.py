"""Unit tests for the OSSM structure and the Equation (1) bound."""

import numpy as np
import pytest

from repro.core import OSSM, build_from_database, build_from_pages
from repro.core.itemset_table import ItemsetTable
from repro.data import PagedDatabase, TransactionDatabase


class TestConstruction:
    def test_requires_2d_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            OSSM(np.zeros(3))

    def test_rejects_negative_supports(self):
        with pytest.raises(ValueError, match="non-negative"):
            OSSM(np.array([[1, -1]]))

    def test_rejects_fractional_supports(self):
        with pytest.raises(ValueError, match="integral"):
            OSSM(np.array([[1.5, 2.0]]))

    def test_accepts_integral_floats(self):
        ossm = OSSM(np.array([[1.0, 2.0]]))
        assert ossm.matrix.dtype == np.int64

    def test_matrix_is_immutable(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        with pytest.raises(ValueError):
            ossm.matrix[0, 0] = 99

    def test_segment_sizes_length_checked(self, example1_matrix):
        with pytest.raises(ValueError, match="segment_sizes"):
            OSSM(example1_matrix, segment_sizes=[1, 2])

    def test_from_segments(self, tiny_db):
        halves = [tiny_db[:4], tiny_db[4:]]
        ossm = OSSM.from_segments(halves)
        assert ossm.n_segments == 2
        assert (ossm.item_supports() == tiny_db.item_supports()).all()
        assert ossm.segment_sizes == (4, 4)

    def test_from_segments_empty_rejected(self):
        with pytest.raises(ValueError):
            OSSM.from_segments([])

    def test_single_segment(self, tiny_db):
        ossm = OSSM.single_segment(tiny_db)
        assert ossm.n_segments == 1
        assert (ossm.matrix[0] == tiny_db.item_supports()).all()

    def test_equality(self, example1_matrix):
        assert OSSM(example1_matrix) == OSSM(example1_matrix.copy())
        assert OSSM(example1_matrix) != OSSM(example1_matrix + 1)


class TestPaperExample1:
    """Example 1: the OSSM bound vs the global min bound."""

    def test_pair_bound_is_80(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        assert ossm.upper_bound([0, 1]) == 80

    def test_triple_bound_is_60(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        assert ossm.upper_bound([0, 1, 2]) == 60

    def test_without_ossm_bounds_are_110_and_100(self, example1_matrix):
        single = OSSM(example1_matrix.sum(axis=0, keepdims=True))
        assert single.upper_bound([0, 1]) == 110
        assert single.upper_bound([0, 1, 2]) == 100

    def test_column_totals_match_paper(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        assert ossm.item_supports().tolist() == [110, 130, 100]


class TestBound:
    def test_singleton_bound_is_exact(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        for item in range(3):
            assert ossm.upper_bound([item]) == ossm.item_supports()[item]

    def test_empty_itemset_bound_with_sizes(self, tiny_db):
        ossm = OSSM.single_segment(tiny_db)
        assert ossm.upper_bound([]) == len(tiny_db)

    def test_bound_sound_against_true_support(self, tiny_db):
        ossm = OSSM.from_segments([tiny_db[:3], tiny_db[3:6], tiny_db[6:]])
        from itertools import combinations

        for size in (1, 2, 3):
            for itemset in combinations(range(tiny_db.n_items), size):
                assert ossm.upper_bound(itemset) >= tiny_db.support(itemset)

    def test_batch_bounds_match_scalar(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        itemsets = [(0, 1), (0, 2), (1, 2)]
        batch = ossm.upper_bounds(itemsets)
        assert batch.tolist() == [
            ossm.upper_bound(itemset) for itemset in itemsets
        ]

    def test_batch_bounds_empty(self, example1_matrix):
        assert OSSM(example1_matrix).upper_bounds([]).shape == (0,)

    def test_batch_requires_uniform_cardinality(self, example1_matrix):
        with pytest.raises(ValueError):
            OSSM(example1_matrix).upper_bounds([(0,), (0, 1)])

    def test_negative_item_rejected(self, example1_matrix):
        # A negative id used to index from the end: [-1] read item 2.
        ossm = OSSM(example1_matrix)
        with pytest.raises(ValueError, match="outside the item domain"):
            ossm.upper_bound([-1])
        with pytest.raises(ValueError, match="outside the item domain"):
            ossm.upper_bounds([[-1, 0]])
        with pytest.raises(ValueError, match="outside the item domain"):
            ossm.upper_bounds([(0, 1, -2)])

    def test_item_beyond_domain_rejected(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        with pytest.raises(ValueError, match="outside the item domain"):
            ossm.upper_bound([0, 3])
        with pytest.raises(ValueError, match="outside the item domain"):
            ossm.upper_bounds([(0, 3)])
        with pytest.raises(ValueError, match="outside the item domain"):
            ossm.prune([(3,)], 1)

    def test_blocked_bounds_match_scalar(self):
        rng = np.random.default_rng(5)
        ossm = OSSM(rng.integers(0, 30, (9, 12)).astype(np.int64))
        for size in (1, 3, 4):
            itemsets = [
                tuple(sorted(rng.choice(12, size, replace=False).tolist()))
                for _ in range(50)
            ]
            assert ossm.upper_bounds(itemsets).tolist() == [
                ossm.upper_bound(itemset) for itemset in itemsets
            ]

    def test_prune_keeps_a_table_a_table(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        pairs = [(0, 1), (0, 2), (1, 2)]
        bounds = ossm.upper_bounds(pairs)
        threshold = int(np.median(bounds))
        table = ItemsetTable(np.array(pairs))
        survivors, mask = ossm.prune(table, threshold)
        assert isinstance(survivors, ItemsetTable)
        listed, listed_mask = ossm.prune(pairs, threshold)
        assert isinstance(listed, list)
        assert survivors == listed
        assert mask.tolist() == listed_mask.tolist() == (
            bounds >= threshold
        ).tolist()

    def test_pair_fast_path_matches_scalar(self):
        """A plain pair list (the gather path) equals the direct min-sum."""
        rng = np.random.default_rng(3)
        matrix = rng.integers(0, 40, (7, 30)).astype(np.int64)
        ossm = OSSM(matrix)
        pairs = [(i, j) for i in range(30) for j in range(i + 1, 30)]
        batch = ossm.upper_bounds(pairs)
        assert batch.tolist() == [ossm.upper_bound(p) for p in pairs]

    def test_pair_wide_domain_fallback(self):
        """Sparse pairs over a 5 000-item domain take the blocked gather."""
        rng = np.random.default_rng(4)
        matrix = rng.integers(0, 5, (3, 5000)).astype(np.int64)
        ossm = OSSM(matrix)
        pairs = [(i, i + 2500) for i in range(2500)]  # 5000 unique items
        batch = ossm.upper_bounds(pairs)
        sampled = [0, 1234, 2499]
        for index in sampled:
            assert batch[index] == ossm.upper_bound(pairs[index])

    def test_prune_splits_by_threshold(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        candidates = [(0, 1), (0, 2), (1, 2)]
        survivors, mask = ossm.prune(candidates, 70)
        # bounds: ab=80, ac=min-wise..., bc computed directly
        bounds = ossm.upper_bounds(candidates)
        assert mask.tolist() == (bounds >= 70).tolist()
        assert survivors == [
            c for c, keep in zip(candidates, mask) if keep
        ]

    def test_more_segments_never_loosen_bound(self, tiny_db):
        """Refinement monotonicity: splitting a segment tightens."""
        coarse = OSSM.from_segments([tiny_db[:4], tiny_db[4:]])
        fine = OSSM.from_segments(
            [tiny_db[:2], tiny_db[2:4], tiny_db[4:6], tiny_db[6:]]
        )
        from itertools import combinations

        for size in (2, 3):
            for itemset in combinations(range(tiny_db.n_items), size):
                assert fine.upper_bound(itemset) <= coarse.upper_bound(itemset)

    def test_one_transaction_per_segment_is_exact(self, tiny_db):
        ossm = OSSM.from_segments(
            [tiny_db[i:i + 1] for i in range(len(tiny_db))]
        )
        from itertools import combinations

        for size in (1, 2, 3, 4):
            for itemset in combinations(range(tiny_db.n_items), size):
                assert ossm.upper_bound(itemset) == tiny_db.support(itemset)


class TestStorageAccounting:
    def test_paper_sizes(self):
        """Section 6.2: 100 segments x 1000 items ~ 0.2 MB; 150 ~ 0.3 MB."""
        hundred = OSSM(np.zeros((100, 1000), dtype=np.int64))
        one_fifty = OSSM(np.zeros((150, 1000), dtype=np.int64))
        assert hundred.nominal_size_bytes() == 200_000
        assert one_fifty.nominal_size_bytes() == 300_000

    @pytest.mark.parametrize(
        "largest_total, width",
        [(0, 2), (65_535, 2), (65_536, 4), (2**32 - 1, 4), (2**32, 8)],
    )
    def test_nbytes_is_the_stored_width(self, largest_total, width):
        # Cells are stored in the narrowest width that holds the
        # largest item total, whatever the input dtype.
        matrix = np.zeros((10, 20), dtype=np.int64)
        matrix[0, 3] = largest_total
        ossm = OSSM(matrix)
        assert ossm.nbytes() == 10 * 20 * width
        assert ossm.matrix.dtype == np.int64


class TestReshaping:
    def test_merge_segments(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        merged = ossm.merge_segments([[0, 1], [2, 3]])
        assert merged.n_segments == 2
        assert (
            merged.matrix[0] == example1_matrix[0] + example1_matrix[1]
        ).all()

    def test_merge_requires_partition(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        with pytest.raises(ValueError, match="partition"):
            ossm.merge_segments([[0, 1], [1, 2, 3]])

    def test_merge_preserves_sizes(self, tiny_db):
        ossm = OSSM.from_segments([tiny_db[:2], tiny_db[2:5], tiny_db[5:]])
        merged = ossm.merge_segments([[0, 2], [1]])
        assert merged.segment_sizes == (2 + 3, 3)

    def test_restrict_items(self, example1_matrix):
        ossm = OSSM(example1_matrix)
        small = ossm.restrict_items([0, 2])
        assert small.n_items == 2
        assert (small.matrix == example1_matrix[:, [0, 2]]).all()


class TestPersistence:
    def test_roundtrip(self, example1_matrix, tmp_path):
        ossm = OSSM(example1_matrix, segment_sizes=[1, 2, 3, 4])
        path = tmp_path / "map.npz"
        ossm.save(path)
        loaded = OSSM.load(path)
        assert loaded == ossm
        assert loaded.segment_sizes == (1, 2, 3, 4)

    def test_roundtrip_without_sizes(self, example1_matrix, tmp_path):
        ossm = OSSM(example1_matrix)
        path = tmp_path / "map.npz"
        ossm.save(path)
        assert OSSM.load(path).segment_sizes is None


class TestBuilders:
    def test_build_from_pages(self, tiny_db):
        paged = PagedDatabase(tiny_db, page_size=2)
        ossm = build_from_pages(paged, [[0, 1], [2, 3]])
        assert ossm.n_segments == 2
        assert ossm.segment_sizes == (4, 4)
        assert (ossm.item_supports() == tiny_db.item_supports()).all()

    def test_build_from_database_boundaries(self, tiny_db):
        ossm = build_from_database(tiny_db, [0, 3, 8])
        assert ossm.n_segments == 2
        assert ossm.segment_sizes == (3, 5)

    def test_build_from_database_validates_boundaries(self, tiny_db):
        with pytest.raises(ValueError):
            build_from_database(tiny_db, [0, 9])
        with pytest.raises(ValueError):
            build_from_database(tiny_db, [1, 8])
        with pytest.raises(ValueError):
            build_from_database(tiny_db, [0, 5, 3, 8])
