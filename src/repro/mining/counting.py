"""Support-counting engines.

Counting candidate frequencies against the data is *the* bottleneck the
OSSM attacks, so the engine is pluggable:

* :class:`SubsetCounter` — the standard per-transaction scheme: trim
  each transaction to the items that occur in any candidate, enumerate
  its size-``k`` combinations, and probe a candidate hash table. Cost
  per transaction is ``C(t', k)`` dictionary probes for a trimmed
  length ``t'``.
* :class:`HashTreeCounter` (:mod:`repro.mining.hash_tree`) — the
  original Apriori hash-tree, provided for fidelity and for workloads
  with long transactions where subset enumeration explodes.

Both return exact counts and are interchangeable in every miner. Every
engine hands its counts over as an int64 vector aligned with the
candidates (:meth:`SupportCounter.supports`), so a miner keeps each
level in arrays.
"""

from __future__ import annotations

import os
from itertools import combinations
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.itemset_table import as_array, domain_mask, lexsort_rows
from ..data.transactions import TransactionDatabase
from ..obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..parallel.pool import SupervisedPool

__all__ = [
    "SupportCounter",
    "SubsetCounter",
    "TidsetCounter",
    "count_supports",
    "make_counter",
    "make_pool",
    "ordered_supports",
    "register_engine",
    "registered_engines",
    "resolve_engine",
]

Itemset = tuple[int, ...]


class SupportCounter:
    """Interface of a counting engine.

    The counting seam is :meth:`supports`: an int64 vector aligned with
    the candidate rows, so a miner keeps a whole level in arrays.
    :meth:`count` is its dict view, ``{candidate: support}``. A subclass
    overrides at least one of the two; each default is written in terms
    of the other, and a subclass that overrides neither is a
    ``TypeError`` at class creation.

    Every engine honors one edge-case contract, so engines are
    interchangeable on degenerate inputs as well as ordinary ones:

    * no candidates → an empty vector (``{}``);
    * empty database → every candidate counts 0;
    * the empty itemset ``()`` → the transaction count (it is contained
      in every transaction, matching ``TransactionDatabase.support``);
    * items outside the database's domain (negative or ≥ ``n_items``)
      → 0, never an error;
    * mixed candidate cardinalities → ``ValueError``;
    * a repeated candidate gets its support at every position.

    ``tests/mining/test_counting.py`` holds the cross-engine contract
    suite; the differential harness in ``tests/parallel`` extends it to
    every counter :func:`make_counter` builds for a ``workers=`` request.
    """

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if (
            cls.supports is SupportCounter.supports
            and cls.count is SupportCounter.count
        ):
            raise TypeError(
                f"{cls.__name__} must override supports() or count()"
            )

    def supports(
        self,
        database: Iterable[Itemset] | TransactionDatabase,
        candidates: Sequence[Itemset],
    ) -> np.ndarray:
        """Exact int64 supports aligned with *candidates* (one cardinality).

        This default reads them out of :meth:`count`, one lookup per
        position (the dict's order is the subclass's own), so repeated
        candidates stay aligned.
        """
        counts = self.count(database, candidates)
        return np.fromiter(
            map(counts.__getitem__, candidates),
            dtype=np.int64, count=len(candidates),
        )

    def count(
        self,
        database: Iterable[Itemset] | TransactionDatabase,
        candidates: Sequence[Itemset],
    ) -> dict[Itemset, int]:
        """Exact support of every candidate (all of one cardinality)."""
        return dict(
            zip(candidates, self.supports(database, candidates).tolist())
        )


def ordered_supports(
    counts: dict[Itemset, int], candidates: Sequence[Itemset]
) -> np.ndarray:
    """The support vector of a dict keyed in candidate order.

    A dict built by iterating *candidates* (``{c: 0 for c in
    candidates}``) is: without repeats its values are the vector, and
    with a repeat (fewer keys than candidates) each position is looked
    up.
    """
    if len(counts) == len(candidates):
        return np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    return np.fromiter(
        map(counts.__getitem__, candidates),
        dtype=np.int64, count=len(candidates),
    )


class SubsetCounter(SupportCounter):
    """Per-transaction subset enumeration against a candidate hash table."""

    def supports(
        self,
        database: Iterable[Itemset] | TransactionDatabase,
        candidates: Sequence[Itemset],
    ) -> np.ndarray:
        with get_registry().time("counting.subset_seconds"):
            return ordered_supports(
                self._count(database, candidates), candidates
            )

    def _count(
        self,
        database: Iterable[Itemset] | TransactionDatabase,
        candidates: Sequence[Itemset],
    ) -> dict[Itemset, int]:
        counts: dict[Itemset, int] = {
            candidate: 0 for candidate in candidates
        }
        if not counts:
            return counts
        k = len(candidates[0])
        if any(len(candidate) != k for candidate in candidates):
            raise ValueError("candidates must share one cardinality")
        useful = frozenset(
            item for candidate in candidates for item in candidate
        )
        for txn in database:
            if len(txn) < k:
                continue
            trimmed = [item for item in txn if item in useful]
            if len(trimmed) < k:
                continue
            if k == 1:
                for item in trimmed:
                    key = (item,)
                    if key in counts:
                        counts[key] += 1
                continue
            for subset in combinations(trimmed, k):
                if subset in counts:
                    counts[subset] += 1
        return counts


class TidsetCounter(SupportCounter):
    """Vertical counting: tidset intersection per shared prefix.

    Work is directly proportional to the number of candidates — the
    property the paper's hash-tree C implementation has and that the
    speedup experiments rely on (pruned candidates cost literally
    nothing). This is also how the original Partition algorithm counts.
    Candidates sharing a ``(k−1)``-prefix are counted together: the
    prefix tidset is marked once in a transaction vector, and each
    candidate's support is the number of marks its last item's tidset
    hits. Tidsets are cached per database object, so Apriori's level
    loop pays the verticalization once; the cache pins a strong
    reference to the database, so a recycled ``id`` can never alias a
    stale layout.
    """

    def __init__(self) -> None:
        self._database: TransactionDatabase | None = None
        self._tidsets: tuple[np.ndarray, np.ndarray] | None = None

    def _vertical(
        self, database: TransactionDatabase
    ) -> tuple[np.ndarray, np.ndarray]:
        """All tidsets concatenated item by item, and their offsets."""
        tidsets = self._tidsets
        if tidsets is None or database is not self._database:
            vertical = database.vertical()
            offsets = np.zeros(database.n_items + 1, dtype=np.int64)
            np.cumsum([len(tids) for tids in vertical], out=offsets[1:])
            flat = (
                np.concatenate(vertical) if vertical
                else np.zeros(0, dtype=np.int64)
            )
            tidsets = self._tidsets = (flat, offsets)
            self._database = database
        return tidsets

    def supports(
        self,
        database: Iterable[Itemset] | TransactionDatabase,
        candidates: Sequence[Itemset],
    ) -> np.ndarray:
        with get_registry().time("counting.tidset_seconds"):
            return self._supports(database, candidates)

    def _supports(
        self,
        database: Iterable[Itemset] | TransactionDatabase,
        candidates: Sequence[Itemset],
    ) -> np.ndarray:
        if not isinstance(database, TransactionDatabase):
            database = TransactionDatabase(database)
        if not len(candidates):
            return np.zeros(0, dtype=np.int64)
        table = as_array(candidates)
        if not table.shape[1]:
            # The empty itemset is contained in every transaction.
            return np.full(len(table), len(database), dtype=np.int64)
        flat, offsets = self._vertical(database)
        # Out-of-domain items occur in no transaction: those candidates
        # count 0 without touching a tidset.
        inside = domain_mask(table, database.n_items)
        if inside is None:
            return _prefix_counts(flat, offsets, table, len(database))
        supports = np.zeros(len(table), dtype=np.int64)
        supports[inside] = _prefix_counts(
            flat, offsets, table[inside], len(database)
        )
        return supports


def _prefix_counts(
    flat: np.ndarray, offsets: np.ndarray, table: np.ndarray,
    n_transactions: int,
) -> np.ndarray:
    """Exact supports of an in-domain ``(n, k)`` candidate table.

    Item ``x``'s tidset is ``flat[offsets[x]:offsets[x + 1]]``.
    """
    sizes = np.diff(offsets)
    if table.shape[1] == 1:
        return sizes[table[:, 0]]
    order = lexsort_rows(table)
    rows = table if order is None else table[order]
    new_prefix = np.ones(len(rows), dtype=bool)
    new_prefix[1:] = (rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)
    starts = np.flatnonzero(new_prefix)
    ends = np.append(starts[1:], len(rows))
    supports = np.zeros(len(rows), dtype=np.int64)
    marks = np.zeros(n_transactions, dtype=np.int8)
    intersect1d = np.intersect1d  # hot loop: bind the lookup once
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        # Intersect the prefix rarest-first so the running set shrinks
        # fastest.
        prefix = sorted(rows[lo, :-1].tolist(), key=sizes.__getitem__)
        tids = flat[offsets[prefix[0]]:offsets[prefix[0] + 1]]
        for item in prefix[1:]:
            if not len(tids):
                break
            tids = intersect1d(
                tids, flat[offsets[item]:offsets[item + 1]],
                assume_unique=True,
            )
        if not len(tids):
            continue
        # Gather the last items' tidsets back to back; the marks they
        # hit, summed per tidset, are the group's supports. An empty
        # tidset has no run to sum (reduceat would misread it), so only
        # non-empty ones are reduced; the rest keep their 0.
        last = rows[lo:hi, -1]
        lengths = sizes[last]
        firsts = np.cumsum(lengths) - lengths
        gather = np.arange(int(firsts[-1] + lengths[-1])) + np.repeat(
            offsets[last] - firsts, lengths
        )
        marks[tids] = 1
        hits = marks[flat[gather]]
        marks[tids] = 0
        present = lengths > 0
        if present.any():
            supports[lo:hi][present] = np.add.reduceat(
                hits, firsts[present], dtype=np.int64
            )
    if order is None:
        return supports
    unsorted = np.empty_like(supports)
    unsorted[order] = supports
    return unsorted


def count_supports(
    database: Iterable[Itemset] | TransactionDatabase,
    candidates: Sequence[Itemset],
) -> dict[Itemset, int]:
    """Convenience wrapper around the default :class:`SubsetCounter`."""
    return SubsetCounter().count(database, candidates)


# -- engine registry ---------------------------------------------------------
#
# Every counting engine the package ships registers itself here, and
# every miner/CLI code path that needs a counter goes through
# :func:`make_counter` — one place to resolve the engine name, the
# ``workers=`` knob, and the OSSM segment composition, instead of
# per-module ad-hoc constructor branching. Engines defined in modules
# that *depend on* this one (the hash tree, the bitmap engine) register
# at their own import time, which keeps this module free of circular
# imports.

#: Zero-argument factories of the serial engines, by public name.
_SERIAL_FACTORIES: dict[str, Callable[[], SupportCounter]] = {
    "subset": SubsetCounter,
    "tidset": TidsetCounter,
}

#: Environment knob consulted by :func:`resolve_engine` when no engine
#: is named explicitly — the CI bitmap leg pins ``REPRO_ENGINE=bitmap``
#: so the whole suite mines on the vertical bit-matrix engine.
ENGINE_ENV = "REPRO_ENGINE"


def register_engine(
    name: str, factory: Callable[[], SupportCounter]
) -> None:
    """Register a serial engine *factory* under *name*."""
    _SERIAL_FACTORIES[name] = factory


def resolve_engine(engine: str | None, workers: int | None = None) -> str:
    """Default-engine resolution: the one place the default is decided.

    An explicit *engine* name always wins; otherwise the
    ``REPRO_ENGINE`` environment variable (how the CI bitmap leg runs
    the whole suite on the vertical engine), and finally the defaults —
    ``"bitmap"`` when *workers* were requested (its thread shards are
    the only counting fan-out), the subset engine otherwise.
    """
    if engine is not None:
        return engine
    env = os.environ.get(ENGINE_ENV)
    if env:
        # Validate here so a typo in the environment fails with the
        # same listing error an explicit name gets from make_counter,
        # instead of surfacing later as a bare lookup failure.
        if env not in _SERIAL_FACTORIES:
            raise ValueError(
                f"unknown counting engine {env!r} in ${ENGINE_ENV}; "
                f"expected one of {', '.join(registered_engines())}"
            )
        return env
    return "bitmap" if workers is not None else "subset"


def registered_engines() -> tuple[str, ...]:
    """Names :func:`make_counter` accepts, sorted."""
    return tuple(sorted(_SERIAL_FACTORIES))


def make_counter(
    engine: str = "subset",
    *,
    workers: int | None = None,
    segment_sizes: Sequence[int] | None = None,
) -> SupportCounter:
    """Build a counting engine by name — the one counter-selection seam.

    ``engine`` is one of :func:`registered_engines` (``"subset"``,
    ``"tidset"``, ``"hashtree"``, ``"bitmap"``). ``workers=`` fans the
    bitmap engine out over thread shards
    (:class:`~repro.parallel.threads.ThreadedBitmapCounter`, which
    *segment_sizes* — an OSSM's segment composition — also configures).
    Every other engine counts serially whatever *workers* says: sharding
    counting over worker processes measured slower than the serial
    bitmap engine (DESIGN.md §9).
    """
    factory = _SERIAL_FACTORIES.get(engine)
    if factory is None:
        raise ValueError(
            f"unknown counting engine {engine!r}; expected one of "
            f"{', '.join(registered_engines())}"
        )
    if workers is not None and engine == "bitmap":
        # Imported on the threaded branch only: repro.parallel builds
        # on repro.mining.
        from ..parallel.threads import ThreadedBitmapCounter

        return ThreadedBitmapCounter(
            workers=workers, segment_sizes=segment_sizes
        )
    return factory()


def make_pool(workers: int | None, n_tasks: int) -> SupervisedPool | None:
    """A supervised worker pool for chunk-parallel passes, or ``None``.

    Returns ``None`` — run serially — when *workers* is ``None``, when
    the resolved worker count is 1, or when there are not enough tasks
    to split; the pool never has more workers than *n_tasks*. Every
    process fan-out goes through here: DHP's hash-building count
    passes and Partition's phase-1 local runs, neither of which is
    :class:`SupportCounter`-shaped.
    """
    if workers is not None and n_tasks > 1:
        # Imported on the parallel branch only: repro.parallel builds
        # on repro.mining, and serial runs never load it.
        from ..parallel.plan import resolve_workers
        from ..parallel.pool import SupervisedPool

        resolved = min(resolve_workers(workers), n_tasks)
        if resolved > 1:
            return SupervisedPool(resolved, name="parallel.chunks")
    return None
