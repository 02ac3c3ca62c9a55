"""Frequent-episode mining over event sequences (WINEPI style).

The OSSM paper's introduction lists episodes ([13], Mannila, Toivonen &
Verkamo 1997) among the pattern classes its technique serves; footnote 1
spells out the mapping ("a transaction corresponds to a sequence of
events in a sliding time window"). This module implements the WINEPI
algorithm for both episode flavours and demonstrates the OSSM hook:

* a **parallel episode** is a set of event types; a window supports it
  when every type occurs somewhere in the window — after windowing this
  *is* frequent-itemset mining, so the OSSM applies verbatim;
* a **serial episode** is a *sequence* of event types; a window
  supports it when they occur in that order. A serial episode's support
  never exceeds its parallel shadow's (drop the order), which never
  exceeds the OSSM's Equation (1) bound — so the same structure prunes
  serial candidates before the (much more expensive) order-checking
  scan.

Frequency is window-based: the number of width-``w`` sliding windows
containing the episode.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from ..data.events import EventSequence, WindowView
from .base import MiningResult, resolve_min_count
from .itemsets import apriori_gen
from .pruning import CandidatePruner, NullPruner

__all__ = ["EpisodeMiner", "mine_parallel_episodes", "mine_serial_episodes"]

Episode = tuple[int, ...]


def _window_supports_serial(
    events: Sequence[tuple[int, int]], episode: Episode
) -> bool:
    """True iff the window's (time, type) events contain the serial
    episode as a subsequence with strictly increasing times."""
    position = 0
    last_time = -1
    for when, event_type in events:
        if event_type == episode[position] and when > last_time:
            position += 1
            last_time = when
            if position == len(episode):
                return True
    return False


def _serial_candidates(frequent_prior: list[Episode]) -> list[Episode]:
    """Join serial episodes: A + B[-1] when A[1:] == B[:-1].

    Unlike itemsets, order matters and repeats are allowed across
    positions (but not adjacent duplicates at level 2, which windows
    with strictly increasing times can still support — we allow them;
    counting decides).
    """
    prior = set(frequent_prior)
    candidates = []
    for a in frequent_prior:
        for b in frequent_prior:
            if a[1:] == b[:-1]:
                candidate = a + (b[-1],)
                # Subepisode pruning: every contiguous-drop
                # subsequence of length k-1 must be frequent.
                if all(
                    candidate[:i] + candidate[i + 1:] in prior
                    for i in range(len(candidate))
                ):
                    candidates.append(candidate)
    return sorted(set(candidates))


class EpisodeMiner:
    """WINEPI miner over an :class:`~repro.data.events.EventSequence`.

    Parameters
    ----------
    width:
        Sliding-window width (time units).
    kind:
        ``"parallel"`` or ``"serial"``.
    pruner:
        Candidate pruner consulted before support counting. For serial
        episodes, candidates are pruned through their parallel shadow
        (sorted type set) — sound by the support-domination chain in
        the module docstring. Build the pruner's OSSM over
        ``WindowView(sequence, width).to_database()``.
    max_level:
        Optional cap on episode length.
    """

    def __init__(
        self,
        width: int,
        kind: str = "parallel",
        pruner: CandidatePruner | None = None,
        max_level: int | None = None,
    ) -> None:
        if kind not in ("parallel", "serial"):
            raise ValueError('kind must be "parallel" or "serial"')
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = int(width)
        self.kind = kind
        self.pruner = pruner if pruner is not None else NullPruner()
        self.max_level = max_level
        self.name = f"winepi-{kind}"

    # -- counting ----------------------------------------------------------

    def _count_parallel(
        self, windows: list[frozenset[int]], candidates: list[Episode]
    ) -> dict[Episode, int]:
        counts = {candidate: 0 for candidate in candidates}
        for window in windows:
            for candidate in candidates:
                if window.issuperset(candidate):
                    counts[candidate] += 1
        return counts

    def _count_serial(
        self,
        windows: list[list[tuple[int, int]]],
        window_sets: list[frozenset[int]],
        candidates: list[Episode],
    ) -> dict[Episode, int]:
        counts = {candidate: 0 for candidate in candidates}
        shadows = {
            candidate: frozenset(candidate) for candidate in candidates
        }
        for events, present in zip(windows, window_sets):
            for candidate in candidates:
                if not shadows[candidate].issubset(present):
                    continue
                if _window_supports_serial(events, candidate):
                    counts[candidate] += 1
        return counts

    def _prune(
        self,
        candidates: list[Episode],
        threshold: int,
        stats,
    ) -> list[Episode]:
        """Bound-prune via the parallel shadow; dedupe shadow lookups."""
        if isinstance(self.pruner, NullPruner):
            stats.candidates_counted = len(candidates)
            return candidates
        shadows = [tuple(sorted(set(candidate))) for candidate in candidates]
        # Serial episodes may repeat a type, so shadows of one level can
        # mix cardinalities; prune size class by size class.
        by_size: dict[int, list[Episode]] = {}
        for shadow in set(shadows):
            by_size.setdefault(len(shadow), []).append(shadow)
        kept_shadows: set[Episode] = set()
        for group in by_size.values():
            kept_shadows.update(self.pruner.prune(sorted(group), threshold))
        survivors = [
            candidate
            for candidate, shadow in zip(candidates, shadows)
            if shadow in kept_shadows
        ]
        stats.candidates_pruned = len(candidates) - len(survivors)
        stats.candidates_counted = len(survivors)
        return survivors

    # -- driver ------------------------------------------------------------

    def mine(
        self,
        sequence: EventSequence,
        min_support: float | int,
    ) -> MiningResult:
        """Find all frequent episodes of *sequence* at *min_support*.

        A float threshold is relative to the number of windows; an int
        is an absolute window count.
        """
        view = WindowView(sequence, self.width)
        windows = [view.window_events(i) for i in range(view.n_windows)]
        window_sets = [
            frozenset(event_type for _, event_type in events)
            for events in windows
        ]

        threshold = resolve_min_count(view.n_windows, min_support)
        result = MiningResult(
            frequent={},
            min_support=threshold,
            algorithm=self.name + self.pruner.label,
        )
        start = time.perf_counter()

        # Level 1: count singleton episodes per window.
        counts = [0] * sequence.n_types
        for present in window_sets:
            for event_type in present:
                counts[event_type] += 1
        level1 = result.level(1)
        level1.candidates_generated = sequence.n_types
        singles = [(t,) for t in range(sequence.n_types)]
        survivors = self._prune(singles, threshold, level1)
        frequent_prev = []
        for (event_type,) in survivors:
            if counts[event_type] >= threshold:
                result.frequent[(event_type,)] = counts[event_type]
                frequent_prev.append((event_type,))
        level1.frequent = len(frequent_prev)

        k = 2
        while frequent_prev and (self.max_level is None or k <= self.max_level):
            if self.kind == "parallel":
                candidates = list(apriori_gen(frequent_prev))
            else:
                candidates = _serial_candidates(frequent_prev)
            stats = result.level(k)
            stats.candidates_generated = len(candidates)
            if not candidates:
                break
            candidates = self._prune(candidates, threshold, stats)
            if self.kind == "parallel":
                counted = self._count_parallel(window_sets, candidates)
            else:
                counted = self._count_serial(
                    windows, window_sets, candidates
                )
            frequent_prev = sorted(
                episode
                for episode, support in counted.items()
                if support >= threshold
            )
            for episode in frequent_prev:
                result.frequent[episode] = counted[episode]
            stats.frequent = len(frequent_prev)
            k += 1

        result.elapsed_seconds = time.perf_counter() - start
        return result


def mine_parallel_episodes(
    sequence: EventSequence,
    width: int,
    min_support: float | int,
    pruner: CandidatePruner | None = None,
    max_level: int | None = None,
) -> MiningResult:
    """Functional entry point for parallel-episode mining."""
    miner = EpisodeMiner(
        width, kind="parallel", pruner=pruner, max_level=max_level
    )
    return miner.mine(sequence, min_support)


def mine_serial_episodes(
    sequence: EventSequence,
    width: int,
    min_support: float | int,
    pruner: CandidatePruner | None = None,
    max_level: int | None = None,
) -> MiningResult:
    """Functional entry point for serial-episode mining."""
    miner = EpisodeMiner(
        width, kind="serial", pruner=pruner, max_level=max_level
    )
    return miner.mine(sequence, min_support)
