"""Differential tests: the batched Equation (2) evaluator vs one pair at a time.

Every segmentation algorithm scores its candidates through
``MergeState.losses``, which sorts a whole batch of merged rows in the
narrowest dtype that holds them. A reference state that calls
:func:`merge_loss` once per pair (int64, no batching) must reach the
same groups with the same number of loss evaluations, on random,
tie-heavy, and dtype-boundary inputs.
"""

from itertools import combinations

import numpy as np
import pytest

import repro.core.segmentation as segmentation
from repro.core import (
    GreedySegmenter,
    MergeState,
    RandomGreedySegmenter,
    RandomRCSegmenter,
    RCSegmenter,
    StreamingOSSMBuilder,
    merge_loss,
    merge_loss_naive,
    merge_losses,
    pair_bound_sum,
    pair_bound_sums,
)
from repro.obs.metrics import MetricsRegistry, use_registry


class PairwiseMergeState(MergeState):
    """Reference evaluator: one :func:`merge_loss` call per pair."""

    def __init__(self, page_matrix, items=None):
        super().__init__(page_matrix, items=items)
        self.items = items

    def losses(self, a, others):
        self.loss_evaluations += len(others)
        return np.array(
            [
                merge_loss(self.rows[a], self.rows[o], items=self.items)
                for o in others
            ],
            dtype=np.int64,
        )


def _random(seed):
    return np.random.default_rng(seed).integers(0, 12, (30, 25))


def _tie_heavy(seed):
    """Duplicate, proportional and empty pages: many losses are 0."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 6, (4, 20))
    picks = rng.integers(0, 4, 28)
    factors = rng.integers(1, 4, (28, 1))
    pages = base[picks] * factors
    return np.vstack([pages, np.zeros((2, 20), dtype=np.int64)])


def _straddling(seed):
    """Pair sums on both sides of 65 535 and of 2³² − 1."""
    rng = np.random.default_rng(seed)
    small = rng.integers(0, 9, (8, 16))
    near_u16 = rng.integers(20_000, 40_000, (8, 16))
    near_u32 = rng.integers(2**31 - 2**29, 2**31 + 2**29, (8, 16))
    pages = np.vstack([small, near_u16, near_u32])
    return pages[rng.permutation(len(pages))]


INPUTS = {
    "random": _random,
    "tie-heavy": _tie_heavy,
    "straddling": _straddling,
}

SEGMENTERS = {
    "greedy": lambda: GreedySegmenter(),
    "rc": lambda: RCSegmenter(seed=3),
    "random-greedy": lambda: RandomGreedySegmenter(n_mid=14, seed=1),
    "random-rc": lambda: RandomRCSegmenter(n_mid=14, seed=1),
    "bubble-greedy": lambda: GreedySegmenter(items=[1, 2, 3, 5, 8, 13]),
}


def _run(factory, matrix, state_class, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(segmentation, "MergeState", state_class)
        return factory().segment(matrix, 6)


@pytest.mark.parametrize("kind", sorted(INPUTS))
@pytest.mark.parametrize("algorithm", sorted(SEGMENTERS))
@pytest.mark.parametrize("seed", [0, 1])
def test_batched_matches_pairwise(kind, algorithm, seed, monkeypatch):
    matrix = INPUTS[kind](seed)
    factory = SEGMENTERS[algorithm]
    batched = _run(factory, matrix, MergeState, monkeypatch)
    reference = _run(factory, matrix, PairwiseMergeState, monkeypatch)
    assert batched.groups == reference.groups
    assert batched.loss_evaluations == reference.loss_evaluations
    assert batched.loss_evaluations > 0


def test_every_sort_dtype_is_exercised(monkeypatch):
    seen = set()
    real = segmentation.sort_dtype

    def recording(high):
        seen.add(real(high))
        return real(high)

    monkeypatch.setattr(segmentation, "sort_dtype", recording)
    for seed in (0, 1):
        GreedySegmenter().segment(_straddling(seed), 6)
        RCSegmenter(seed=seed).segment(_straddling(seed), 6)
    assert seen == {np.uint16, np.uint32, np.int64}


def _merge_down(matrix, n_user, choose):
    """Merge by the paper's definition; *choose* picks each pair."""
    live = {i: row for i, row in enumerate(matrix)}
    groups = {i: [i] for i in range(len(matrix))}
    while len(live) > n_user:
        a, b = choose(live)
        new = max(groups) + 1
        live[new] = live.pop(a) + live.pop(b)
        groups[new] = groups.pop(a) + groups.pop(b)
    return [sorted(groups[seg]) for seg in sorted(live)]


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_greedy_merges_the_least_pair_first(kind):
    """Ties go to the (older, newer) handles, as a stable queue would."""
    matrix = INPUTS[kind](0)

    def cheapest(live):
        _, a, b = min(
            (merge_loss(live[a], live[b]), a, b)
            for a, b in combinations(sorted(live), 2)
        )
        return a, b

    assert GreedySegmenter().segment(matrix, 6).groups == _merge_down(
        matrix, 6, cheapest
    )


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_rc_merges_with_the_lowest_closest_handle(kind):
    matrix = INPUTS[kind](0)
    rng = np.random.default_rng(5)

    def closest(live):
        ids = sorted(live)
        anchor = ids.pop(int(rng.integers(len(ids))))
        _, other = min((merge_loss(live[anchor], live[o]), o) for o in ids)
        return anchor, other

    assert RCSegmenter(seed=5).segment(matrix, 6).groups == _merge_down(
        matrix, 6, closest
    )


class TestMergeStateLosses:
    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_every_pair_matches_merge_loss(self, kind):
        matrix = INPUTS[kind](0)
        state = MergeState(matrix)
        others = list(range(1, len(matrix)))
        expected = [merge_loss(matrix[0], matrix[o]) for o in others]
        assert state.losses(0, others).tolist() == expected
        assert state.loss_evaluations == len(others)

    def test_loss_is_the_one_pair_batch(self):
        matrix = _straddling(1)
        state = MergeState(matrix)
        assert state.loss(3, 7) == state.losses(3, [7])[0]
        assert state.loss_evaluations == 2

    def test_merged_segments_are_scored_from_their_sums(self):
        matrix = _straddling(0)
        state = MergeState(matrix)
        merged = state.merge(2, 5)
        again = state.merge(merged, 9)
        expected = merge_loss(matrix[2] + matrix[5] + matrix[9], matrix[0])
        assert state.loss(again, 0) == expected
        assert state.f_value(again) == pair_bound_sum(
            matrix[2] + matrix[5] + matrix[9]
        )

    def test_empty_others(self):
        state = MergeState(_random(0))
        assert state.losses(0, []).tolist() == []
        assert state.loss_evaluations == 0

    @pytest.mark.parametrize("items", [[], [4]])
    def test_fewer_than_two_items_lose_nothing(self, items):
        state = MergeState(_random(0), items=items)
        assert state.losses(0, [1, 2, 3]).tolist() == [0, 0, 0]
        assert state.loss_evaluations == 3


class TestKernel:
    def test_merge_losses_matches_both_scalar_evaluators(self):
        matrix = _straddling(2)
        losses = merge_losses(matrix[0], matrix[1:])
        assert losses.tolist() == [merge_loss(matrix[0], r) for r in matrix[1:]]
        assert losses.tolist() == [
            merge_loss_naive(matrix[0], r) for r in matrix[1:]
        ]

    def test_item_restriction(self):
        matrix = _random(1)
        items = [0, 3, 4, 9]
        assert merge_losses(matrix[0], matrix[1:], items=items).tolist() == [
            merge_loss(matrix[0], r, items=items) for r in matrix[1:]
        ]

    def test_empty_and_short(self):
        assert merge_losses(np.arange(4), np.zeros((0, 4))).tolist() == []
        assert merge_losses([5], [[1], [2]]).tolist() == [0, 0]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            merge_losses(np.arange(3), np.zeros((2, 4)))

    def test_rejects_negative_supports(self):
        with pytest.raises(ValueError, match="non-negative"):
            merge_losses(np.array([1, -2, 3]), np.ones((2, 3)))

    @pytest.mark.parametrize(
        "rows, message",
        [([[0.5, 2.0, 3.0]], "integral"), ([[1, -1, 3]], "non-negative")],
    )
    def test_pair_bound_sums_rejects_non_counts(self, rows, message):
        with pytest.raises(ValueError, match=message):
            pair_bound_sums(np.array(rows))

    def test_pair_bound_sums_per_row(self):
        matrix = _straddling(0)
        assert pair_bound_sums(matrix).tolist() == [
            pair_bound_sum(row) for row in matrix
        ]


@pytest.mark.parametrize("items", [None, [0, 2, 5, 7]])
def test_streaming_builder_matches_pairwise_scan(items):
    rng = np.random.default_rng(4)
    pages = rng.integers(0, 9, (40, 10))
    builder = StreamingOSSMBuilder(10, max_segments=5, items=items)
    held: list[np.ndarray] = []
    evaluations = 0
    for page in pages:
        joined = builder.add_page_row(page)
        if len(held) < 5:
            held.append(page.copy())
            assert joined == len(held) - 1
            continue
        losses = [merge_loss(row, page, items=items) for row in held]
        evaluations += len(held)
        expected = losses.index(min(losses))
        assert joined == expected
        held[expected] = held[expected] + page
    assert builder.loss_evaluations == evaluations
    assert (builder.ossm().matrix == np.vstack(held)).all()


def test_rc_counts_each_scan_once_per_neighbour():
    matrix = _random(2)
    registry = MetricsRegistry()
    with use_registry(registry):
        result = RCSegmenter(seed=0).segment(matrix, 6)
    counters = registry.snapshot()["counters"]
    assert counters["segmentation.rc.merges"] == len(matrix) - 6
    assert counters["segmentation.rc.neighbour_scans"] == result.loss_evaluations
