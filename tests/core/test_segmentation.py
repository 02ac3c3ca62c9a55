"""Unit tests for the shared segmentation machinery (MergeState etc.)."""

import numpy as np
import pytest

from repro.core import (
    GreedySegmenter,
    MergeState,
    RandomSegmenter,
    merge_loss,
)
from repro.core.segmentation import as_page_matrix
from repro.data import PagedDatabase, TransactionDatabase


@pytest.fixture
def matrix():
    rng = np.random.default_rng(0)
    return rng.integers(0, 10, (6, 5)).astype(np.int64)


class TestAsPageMatrix:
    def test_accepts_paged_database(self, tiny_db):
        paged = PagedDatabase(tiny_db, page_size=3)
        matrix, sizes = as_page_matrix(paged)
        assert matrix.shape == (3, 4)
        assert sizes.tolist() == [3, 3, 2]

    def test_accepts_raw_matrix(self, matrix):
        out, sizes = as_page_matrix(matrix)
        assert (out == matrix).all()
        assert sizes is None

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            as_page_matrix(np.zeros(4))

    def test_accepts_integral_floats(self):
        out, _ = as_page_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert out.dtype == np.int64
        assert out.tolist() == [[1, 2], [0, 3]]

    def test_rejects_fractional_supports(self):
        with pytest.raises(ValueError, match="integral"):
            as_page_matrix([[0.5, 1.7, 3.0], [4.2, 5, 6]])

    def test_rejects_negative_supports(self):
        with pytest.raises(ValueError, match="non-negative"):
            as_page_matrix([[1, -1, 3], [4, 5, 6]])

    @pytest.mark.parametrize(
        "pages, message",
        [
            ([[0.5, 1.7, 3.0], [4.2, 5, 6], [1, 1, 1], [2, 2, 2]], "integral"),
            ([[1, -1, 3], [4, 5, 6], [1, 1, 1], [2, 2, 2]], "non-negative"),
        ],
    )
    def test_segment_rejects_before_any_loss(self, pages, message, monkeypatch):
        def no_losses(*args, **kwargs):
            raise AssertionError("a loss was evaluated")

        monkeypatch.setattr(MergeState, "losses", no_losses)
        with pytest.raises(ValueError, match=message):
            GreedySegmenter().segment(pages, 2)


class TestMergeState:
    def test_initial_state(self, matrix):
        state = MergeState(matrix)
        assert state.n_segments == 6
        assert state.segment_ids() == list(range(6))
        assert state.final_groups() == [[i] for i in range(6)]

    def test_loss_matches_module_function(self, matrix):
        state = MergeState(matrix)
        assert state.loss(0, 1) == merge_loss(matrix[0], matrix[1])

    def test_loss_counts_evaluations(self, matrix):
        state = MergeState(matrix)
        state.loss(0, 1)
        state.loss(2, 3)
        assert state.loss_evaluations == 2

    def test_merge_sums_rows_and_groups(self, matrix):
        state = MergeState(matrix)
        new = state.merge(1, 4)
        assert (state.rows[new] == matrix[1] + matrix[4]).all()
        assert sorted(state.groups[new]) == [1, 4]
        assert not state.alive(1)
        assert not state.alive(4)
        assert state.n_segments == 5

    def test_merge_self_rejected(self, matrix):
        state = MergeState(matrix)
        with pytest.raises(ValueError):
            state.merge(2, 2)

    def test_fresh_handles_never_reused(self, matrix):
        state = MergeState(matrix)
        first = state.merge(0, 1)
        second = state.merge(first, 2)
        assert first != second
        assert first not in state.rows

    def test_item_restriction_applies_to_loss(self, matrix):
        full = MergeState(matrix)
        restricted = MergeState(matrix, items=[0, 1])
        assert restricted.loss(0, 1) == merge_loss(
            matrix[0], matrix[1], items=[0, 1]
        )
        # Restriction can only remove pairs from the summation.
        assert restricted.loss(2, 3) <= full.loss(2, 3)

    def test_final_matrix_orders_by_handle(self, matrix):
        state = MergeState(matrix)
        state.merge(0, 5)
        final = state.final_matrix()
        assert final.shape == (5, 5)
        assert (final[-1] == matrix[0] + matrix[5]).all()


class TestSegmenterContract:
    """Contract tests through the simplest concrete segmenter."""

    def test_n_user_at_least_pages_is_identity(self, matrix):
        result = RandomSegmenter(seed=0).segment(matrix, 6)
        assert result.n_segments == 6
        assert result.groups == [[i] for i in range(6)]

    def test_n_user_above_pages_is_identity(self, matrix):
        result = RandomSegmenter(seed=0).segment(matrix, 10)
        assert result.n_segments == 6

    def test_invalid_n_user(self, matrix):
        with pytest.raises(ValueError):
            RandomSegmenter().segment(matrix, 0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            RandomSegmenter().segment(np.zeros((0, 3), dtype=np.int64), 1)

    def test_result_ossm_matches_groups(self, tiny_db):
        paged = PagedDatabase(tiny_db, page_size=2)
        result = RandomSegmenter(seed=1).segment(paged, 2)
        rebuilt = paged.segment_supports(result.groups)
        assert (result.ossm.matrix == rebuilt).all()

    def test_result_sizes_from_paged_source(self, tiny_db):
        paged = PagedDatabase(tiny_db, page_size=3)
        result = RandomSegmenter(seed=1).segment(paged, 2)
        assert sum(result.ossm.segment_sizes) == len(tiny_db)

    def test_groups_partition_pages(self, matrix):
        result = RandomSegmenter(seed=2).segment(matrix, 3)
        seen = sorted(p for g in result.groups for p in g)
        assert seen == list(range(6))

    def test_elapsed_time_recorded(self, matrix):
        result = RandomSegmenter(seed=0).segment(matrix, 2)
        assert result.elapsed_seconds >= 0.0
