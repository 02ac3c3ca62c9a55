"""The mining path: seeded inputs, segmentation, timed Apriori runs.

One workload mines one seeded database twice over: plain Apriori and
Apriori+OSSM, alternating so that machine noise lands on both sides
alike. Every run goes through the program's public entry points —
``GreedySegmenter.segment`` and ``Apriori(pruner=…, counter=…).mine``.
The traced variant injects wrappers around the pruner and the counting
engine and times ``apriori_gen`` at its call site in
``repro.mining.apriori``; nothing inside the program changes.
"""

from __future__ import annotations

import gc
import importlib
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.greedy import GreedySegmenter
from repro.core.ossm import OSSM
from repro.core.segmentation import SegmentationResult
from repro.data.alarms import AlarmConfig, AlarmStreamGenerator
from repro.data.pages import PagedDatabase
from repro.data.quest import QuestConfig, QuestGenerator
from repro.data.transactions import TransactionDatabase
from repro.mining.apriori import Apriori
from repro.mining.base import MiningResult, resolve_min_support
from repro.mining.counting import SupportCounter
from repro.mining.pruning import CandidatePruner, NullPruner, OSSMPruner

from clock import Timing, timed
from spans import Recorder

_APRIORI = importlib.import_module("repro.mining.apriori")

Itemset = tuple[int, ...]


@dataclass(frozen=True)
class MiningSpec:
    """What one workload mines and how."""

    data: str  # "quest" (regular-synthetic) or "alarms"
    engine: str
    n_user: int
    page_size: int
    max_level: int
    #: Fixed threshold as a fraction of the database, or ``None`` to
    #: choose the smallest threshold whose levels 2..max_level generate
    #: at most ``candidate_budget`` candidates.
    minsup: float | None
    candidate_budget: int | None = None


#: The Figure 4(a) cell: default tier (N = 10 000, m = 1 000), Greedy
#: with n_user = 160 over 200 pages of 50, minsup 1 %, tidset engine.
FIG4 = MiningSpec("quest", "tidset", 160, 50, 3, 0.01)

#: The alarm stream (5 000 windows, 200 types) over 100 pages of 50,
#: mined four levels deep. How many candidates a fixed threshold
#: yields swings several-fold with the stream's seed (14k to 106k at
#: 5 %), so the threshold is chosen per stream to fix the work instead.
ALARMS = MiningSpec("alarms", "bitmap", 50, 50, 4, None, 50_000)


@dataclass
class Inputs:
    """The generated inputs the program receives."""

    database: TransactionDatabase
    pages: PagedDatabase
    threshold: int  # absolute minimum support

    @property
    def minsup(self) -> float:
        return self.threshold / len(self.database)


class _OverBudget(Exception):
    pass


class _BudgetPruner(NullPruner):
    """Prunes nothing; aborts the run once the budget is exceeded."""

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.seen = 0

    def prune(self, candidates, min_support):
        if candidates and len(candidates[0]) > 1:
            self.seen += len(candidates)
            if self.seen > self.budget:
                raise _OverBudget()
        return list(candidates)


def _within_budget(
    spec: MiningSpec, database: TransactionDatabase, threshold: int,
    counter: SupportCounter,
) -> bool:
    miner = Apriori(
        pruner=_BudgetPruner(spec.candidate_budget),
        counter=counter, max_level=spec.max_level,
    )
    try:
        miner.mine(database, threshold)
    except _OverBudget:
        return False
    return True


def generate(spec: MiningSpec, seed: int) -> TransactionDatabase:
    if spec.data == "quest":
        config = QuestConfig(
            n_transactions=10_000, n_items=1000, avg_transaction_len=10.0,
            avg_pattern_len=4.0, n_patterns=2000, seed=seed,
        )
        return QuestGenerator(config).generate()
    if spec.data == "alarms":
        config = AlarmConfig(n_windows=5000, n_alarm_types=200, seed=seed)
        return AlarmStreamGenerator(config).generate()
    raise ValueError(f"unknown data set {spec.data!r}")


def make_inputs(
    spec: MiningSpec, seed: int, counter: SupportCounter
) -> Inputs:
    """Generate the seeded database and its threshold.

    *counter* is warmed on the database as a side effect (its
    per-database vertical layout is built here, not in a timed run).
    """
    database = generate(spec, seed)
    pages = PagedDatabase(database, page_size=spec.page_size)
    counter.count(database, [(0, 1)])
    if spec.minsup is not None:
        return Inputs(database, pages, resolve_min_support(database, spec.minsup))
    # Candidate totals only fall as the threshold rises (fewer
    # frequent sets can only join into fewer candidates), so a binary
    # search finds the smallest threshold within budget. The search
    # keeps *low* over budget and *high* within it.
    low, high = 1, len(database) // 5
    if _within_budget(spec, database, low, counter):
        return Inputs(database, pages, low)
    while high - low > 1:
        middle = (low + high) // 2
        if _within_budget(spec, database, middle, counter):
            high = middle
        else:
            low = middle
    return Inputs(database, pages, high)


def segment(spec: MiningSpec, inputs: Inputs) -> SegmentationResult:
    return GreedySegmenter().segment(inputs.pages, spec.n_user)


# -- traced wrappers ---------------------------------------------------------


class TracedPruner(CandidatePruner):
    """Times ``prune`` of the wrapped pruner as ``pruning.prune``."""

    def __init__(self, inner: CandidatePruner, recorder: Recorder) -> None:
        self.inner = inner
        self.label = inner.label
        self.recorder = recorder
        self.parent: str | None = None

    def prune(self, candidates, min_support):
        start = time.perf_counter()
        survivors = self.inner.prune(candidates, min_support)
        self.recorder.add(
            "pruning.prune", start, time.perf_counter(), parent=self.parent,
            level=len(candidates[0]) if candidates else 0,
            n_in=len(candidates), n_out=len(survivors),
        )
        return survivors

    def candidate_bounds(self, candidates):
        return self.inner.candidate_bounds(candidates)


class TracedCounter(SupportCounter):
    """Times ``count`` of the wrapped engine as ``counting.count``."""

    def __init__(self, inner: SupportCounter, recorder: Recorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.parent: str | None = None

    def count(self, database, candidates):
        start = time.perf_counter()
        counts = self.inner.count(database, candidates)
        self.recorder.add(
            "counting.count", start, time.perf_counter(), parent=self.parent,
            level=len(candidates[0]) if candidates else 0,
            n=len(candidates),
        )
        return counts


class traced_gen:
    """Context manager timing ``apriori_gen`` where Apriori calls it."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.parent: str | None = None
        self._original = _APRIORI.apriori_gen

    def _gen(self, frequent_prior):
        start = time.perf_counter()
        candidates = self._original(frequent_prior)
        self.recorder.add(
            "itemsets.apriori_gen", start, time.perf_counter(),
            parent=self.parent, level=len(frequent_prior[0]) + 1,
            n=len(candidates),
        )
        return candidates

    def __enter__(self) -> "traced_gen":
        _APRIORI.apriori_gen = self._gen
        return self

    def __exit__(self, *exc_info: object) -> None:
        _APRIORI.apriori_gen = self._original


# -- timed runs ----------------------------------------------------------------


def level_shape(result: MiningResult) -> tuple:
    return tuple(
        (s.level, s.candidates_generated, s.candidates_pruned,
         s.candidates_counted, s.frequent)
        for s in result.levels
    )


@dataclass
class Runs:
    """Timed runs of one kind (plain or +OSSM): times and outputs.

    Outputs are reduced as they arrive, so that a long run holds one
    result rather than all of them: each run's frequent itemsets are
    compared with *reference* (plain Apriori's; the first run's when
    not given) and only their per-level shape is kept. Times are kept
    raw (``seconds``) and at the reference speed (``scaled``, see
    ``clock.py``).
    """

    label: str
    reference: dict[Itemset, int] | None = None
    seconds: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    shapes: list[tuple] = field(default_factory=list)
    mismatched: list[int] = field(default_factory=list)

    def add(self, timing: Timing, result: MiningResult) -> None:
        if self.reference is None:
            self.reference = result.frequent
        elif result.frequent != self.reference:
            self.mismatched.append(len(self.seconds))
        self.seconds.append(timing.raw)
        self.scaled.append(timing.scaled)
        self.shapes.append(level_shape(result))


@dataclass
class Dataset:
    """One seeded database of a run, with its map and its runs."""

    index: int
    inputs: Inputs
    counter: SupportCounter
    ossm: OSSM
    loss_evaluations: int
    segmentations: list[Timing]
    plain: Runs = field(default_factory=lambda: Runs("apriori"))
    pruned: Runs = field(default_factory=lambda: Runs("apriori+ossm"))
    traced: Runs = field(default_factory=lambda: Runs("traced apriori+ossm"))
    #: Repeated segmentations that did not rebuild the same map.
    resegment_errors: list[str] = field(default_factory=list)

    def resegment(self, spec: MiningSpec) -> None:
        """Segment again, timed; the map must come out the same."""
        gc.collect()
        timing, result = timed(lambda: segment(spec, self.inputs))
        self.segmentations.append(timing)
        if (result.ossm != self.ossm
                or result.loss_evaluations != self.loss_evaluations):
            self.resegment_errors.append(
                f"database {self.index}: segmentation "
                f"{len(self.segmentations) - 1} built a different map"
            )

    def mine(self, spec: MiningSpec, pruner: CandidatePruner | None,
             counter: SupportCounter | None = None) -> tuple[Timing, MiningResult]:
        miner = Apriori(
            pruner=pruner, counter=counter or self.counter,
            max_level=spec.max_level,
        )
        gc.collect()
        return timed(
            lambda: miner.mine(self.inputs.database, self.inputs.threshold)
        )


def step(spec: MiningSpec, data: Dataset) -> None:
    """Samples on *data*: a segmentation, a plain run and two
    Apriori+OSSM runs (the shortest and most-watched of the three)."""
    data.resegment(spec)
    data.plain.add(*data.mine(spec, None))
    data.pruned.reference = data.plain.reference
    for _ in range(2):
        data.pruned.add(*data.mine(spec, OSSMPruner(data.ossm)))


def traced_step(
    spec: MiningSpec, data: Dataset, recorder: Recorder, gen: "traced_gen"
) -> None:
    """One traced Apriori+OSSM run on *data*: an ``apriori.mine`` root
    span whose children are the wrapped gen, prune and count calls."""
    root = recorder.next_id()
    pruner = TracedPruner(OSSMPruner(data.ossm), recorder)
    counter = TracedCounter(data.counter, recorder)
    pruner.parent = counter.parent = gen.parent = root
    data.traced.reference = data.plain.reference
    timing, result = data.mine(spec, pruner, counter)
    recorder.add(
        "apriori.mine", timing.end - timing.raw, timing.end, span_id=root,
        database=data.index,
    )
    data.traced.add(timing, result)


# -- oracle ----------------------------------------------------------------


def check(datasets: Sequence[Dataset], seed: int, n_samples: int = 64) -> list[str]:
    """Every failure of the mining oracle, as messages.

    For each database:

    * every run, plain or +OSSM, traced or not, returns the first plain
      run's frequent itemsets with the same supports;
    * sampled supports equal ``TransactionDatabase.support``;
    * runs of one kind repeat their per-level candidate counts exactly;
    * every repeated segmentation builds the same map.
    """
    errors: list[str] = []
    for data in datasets:
        errors += data.resegment_errors
        reference = data.plain.reference
        if not reference:
            errors.append(f"database {data.index}: plain Apriori found nothing")
            continue
        for kind in (data.plain, data.pruned, data.traced):
            for index in kind.mismatched:
                errors.append(
                    f"database {data.index}, {kind.label} run {index}: "
                    "frequent itemsets or supports differ from plain "
                    "Apriori's"
                )
            for index, shape in enumerate(kind.shapes):
                if shape != kind.shapes[0]:
                    errors.append(
                        f"database {data.index}, {kind.label} run {index}: "
                        f"per-level candidate counts {shape} != "
                        f"{kind.shapes[0]}"
                    )
        frequent = sorted(reference)
        rng = random.Random(seed * 1000 + data.index)
        for itemset in rng.sample(frequent, min(n_samples, len(frequent))):
            truth = data.inputs.database.support(itemset)
            if reference[itemset] != truth:
                errors.append(
                    f"database {data.index}: support of {itemset} mined "
                    f"{reference[itemset]}, database says {truth}"
                )
    return errors
