"""Correlation mining (Brin, Motwani & Silverstein, SIGMOD 1997 — [6]).

"Beyond market baskets": instead of support/confidence rules, find item
sets whose presence/absence pattern departs from independence, measured
by the chi-squared statistic over the full ``2^k`` contingency table.
Two properties make the search tractable and OSSM-friendly:

* correlation is **upward closed** — a superset of a correlated set is
  correlated — so the interesting output is the *minimal* correlated
  sets, found level-wise;
* the level-wise walk still needs candidate *support counting* (the
  contingency table's all-present cell is the itemset's support), which
  is exactly where the OSSM prunes.

Following the original, candidates must also pass a support screen
(their expected cell counts must make the chi-squared test valid).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..data.transactions import TransactionDatabase
from .base import MiningResult, resolve_min_support
from .counting import TidsetCounter
from .itemsets import apriori_gen
from .pruning import CandidatePruner, NullPruner

__all__ = [
    "ContingencyTable",
    "CorrelationMiner",
    "chi2_sf",
    "contingency_table",
    "mine_correlations",
]

Itemset = tuple[int, ...]


def chi2_sf(x: float, df: int) -> float:
    """Upper tail ``P(X > x)`` of a chi-squared variable with integer *df*.

    The tail is the regularized upper gamma ``Q(df/2, x/2)``, which has
    a finite closed form when ``df/2`` is an integer or half-integer.
    With ``y = x/2``::

        even df:  Q = sum_{j < df/2} e^-y y^j / j!
        odd df:   Q = erfc(sqrt(y))
                      + sum_{j < (df-1)/2} e^-y y^(j+1/2) / Γ(j+3/2)

    Each term is evaluated as the exp of its logarithm, so a deep tail
    underflows to 0 instead of forming ``0 * inf``.
    """
    if df < 1:
        raise ValueError("degrees of freedom must be a positive integer")
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    y = x / 2
    log_y = math.log(y)
    half = (df % 2) / 2  # odd df: half-integer powers after the erfc
    total = math.erfc(math.sqrt(y)) if half else 0.0
    for j in range(df // 2):
        power = j + half
        total += math.exp(power * log_y - y - math.lgamma(power + 1))
    return min(1.0, total)


@dataclass(frozen=True)
class ContingencyTable:
    """The ``2^k`` presence/absence table of an itemset.

    ``cells[pattern]`` counts transactions where exactly the items with
    a 1-bit in *pattern* (indexing the itemset) are present.
    """

    itemset: Itemset
    cells: tuple[int, ...]
    n_transactions: int

    @property
    def k(self) -> int:
        """Cardinality of the itemset the table describes."""
        return len(self.itemset)

    def marginal(self, position: int) -> int:
        """Transactions containing the item at *position*."""
        return sum(
            count
            for pattern, count in enumerate(self.cells)
            if pattern >> position & 1
        )

    def expected(self, pattern: int) -> float:
        """Independence-model expectation of one cell."""
        expectation = float(self.n_transactions)
        for position in range(self.k):
            marginal = self.marginal(position)
            probability = marginal / self.n_transactions
            if pattern >> position & 1:
                expectation *= probability
            else:
                expectation *= 1.0 - probability
        return expectation

    def chi_squared(self) -> float:
        """The chi-squared statistic against full independence."""
        statistic = 0.0
        for pattern, observed in enumerate(self.cells):
            expected = self.expected(pattern)
            if expected > 0:
                statistic += (observed - expected) ** 2 / expected
            elif observed:
                return float("inf")
        return statistic

    def p_value(self) -> float:
        """Upper-tail p-value (``2^k − k − 1`` degrees of freedom for
        the k-dimensional independence test; 1 df when k = 2)."""
        return chi2_sf(self.chi_squared(), max(1, 2**self.k - self.k - 1))

    def min_expected(self) -> float:
        """Smallest expected cell (the classic validity screen)."""
        return min(self.expected(p) for p in range(2**self.k))


def contingency_table(
    database: TransactionDatabase, itemset: Itemset
) -> ContingencyTable:
    """Count the full presence/absence table in one pass."""
    itemset = tuple(sorted(set(itemset)))
    index = {item: position for position, item in enumerate(itemset)}
    cells = [0] * (2 ** len(itemset))
    for txn in database:
        pattern = 0
        for item in txn:
            position = index.get(item)
            if position is not None:
                pattern |= 1 << position
        cells[pattern] += 1
    return ContingencyTable(
        itemset=itemset,
        cells=tuple(cells),
        n_transactions=len(database),
    )


class CorrelationMiner:
    """Level-wise minimal-correlated-set miner.

    Parameters
    ----------
    significance:
        Chi-squared significance level (p-value cutoff), default 0.05.
    min_expected:
        Validity screen: every cell's expected count must reach this
        (Brin et al. use the textbook 5; lower it for small data).
    pruner:
        OSSM (or other) pruner applied before support counting.
    max_level:
        Largest itemset cardinality examined.
    """

    name = "chi-squared"

    def __init__(
        self,
        significance: float = 0.05,
        min_expected: float = 5.0,
        pruner: CandidatePruner | None = None,
        max_level: int = 3,
    ) -> None:
        if not 0.0 < significance < 1.0:
            raise ValueError("significance must lie in (0, 1)")
        if max_level < 2:
            raise ValueError("max_level must be >= 2 (pairs at least)")
        self.significance = significance
        self.min_expected = min_expected
        self.pruner = pruner if pruner is not None else NullPruner()
        self.max_level = max_level

    def mine(
        self,
        database: TransactionDatabase,
        min_support: float | int,
    ) -> tuple[dict[Itemset, float], MiningResult]:
        """Return ``(minimal correlated sets -> p-value, accounting)``.

        *min_support* screens candidates by their all-present cell
        (counted with OSSM pruning first), keeping the walk and the
        statistic on sets that actually occur.
        """
        threshold = resolve_min_support(database, min_support)
        accounting = MiningResult(
            frequent=None,
            min_support=threshold,
            algorithm=self.name + self.pruner.label,
        )
        start = time.perf_counter()
        counter = TidsetCounter()
        supports = database.item_supports()
        frequent_items = [
            (int(item),)
            for item in range(database.n_items)
            if supports[item] >= threshold
        ]
        correlated: dict[Itemset, float] = {}
        frontier = frequent_items
        level = 2
        while frontier and level <= self.max_level:
            # Upward closure: a candidate containing an already-minimal
            # correlated subset is not minimal; skip it entirely.
            raw = [
                candidate
                for candidate in apriori_gen(frontier)
                if not any(
                    set(found).issubset(candidate) for found in correlated
                )
            ]
            stats = accounting.level(level)
            stats.candidates_generated = len(raw)
            survivors = self.pruner.prune(raw, threshold)
            stats.candidates_pruned = len(raw) - len(survivors)
            stats.candidates_counted = len(survivors)
            frequent = accounting.keep_frequent(
                survivors, counter.supports(database, survivors)
            )
            stats.frequent = len(frequent)
            frontier = []
            for candidate in frequent:
                table = contingency_table(database, candidate)
                if table.min_expected() < self.min_expected:
                    continue  # test invalid at this sample size
                p_value = table.p_value()
                if p_value <= self.significance:
                    correlated[candidate] = p_value
                else:
                    frontier.append(candidate)
            frontier.sort()
            level += 1
        accounting.elapsed_seconds = time.perf_counter() - start
        return correlated, accounting


def mine_correlations(
    database: TransactionDatabase,
    min_support: float | int,
    significance: float = 0.05,
    min_expected: float = 5.0,
    pruner: CandidatePruner | None = None,
    max_level: int = 3,
) -> dict[Itemset, float]:
    """Functional entry point; returns minimal correlated sets only."""
    miner = CorrelationMiner(
        significance=significance,
        min_expected=min_expected,
        pruner=pruner,
        max_level=max_level,
    )
    correlated, _accounting = miner.mine(database, min_support)
    return correlated
