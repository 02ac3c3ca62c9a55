"""Epoch-tagged bounded LRU cache for Equation (1) bounds.

The OSSM is sound only for the collection it was built from: once the
collection grows (``extend_ossm`` or a
:class:`~repro.core.incremental.StreamingOSSMBuilder` advancing), an
old bound may undercount the new data and serving it would break the
no-false-dismissal guarantee. The map therefore carries an *epoch*
(:attr:`repro.core.ossm.OSSM.epoch`) that every growth bumps, and this
cache enforces the DESIGN.md §10 invariant:

    a cached bound is served only if its tagged epoch equals the
    current map epoch.

Invalidation is wholesale — :meth:`advance_epoch` drops every entry —
because a grown collection invalidates *all* previously computed
bounds, not a subset. Entries are nevertheless individually tagged so
a racing writer (a bound computed against epoch ``e`` landing after
the cache moved to ``e+1``) is silently dropped rather than poisoning
the new epoch.

The cache itself is synchronous and obs-free; the service layer owns
metrics so this module stays cheap enough to sit on the hot query
path.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

__all__ = ["CacheStats", "EpochLRUCache"]

Itemset = tuple[int, ...]


@dataclass
class CacheStats:
    """Monotonic counters of one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    stale_drops: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 before the first lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict snapshot (JSON-friendly)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "stale_drops": self.stale_drops,
            "hit_rate": self.hit_rate,
        }


class EpochLRUCache:
    """Bounded LRU mapping canonical itemsets to epoch-tagged bounds.

    Parameters
    ----------
    maxsize:
        Entry budget; the least recently used entry is evicted when a
        put would exceed it.
    epoch:
        Epoch the cache starts at (the serving map's epoch).
    """

    def __init__(self, maxsize: int = 4096, epoch: int = 0) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        self.maxsize = int(maxsize)
        self.epoch = int(epoch)
        self.stats = CacheStats()
        self._entries: OrderedDict[Itemset, tuple[int, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def advance_epoch(self, epoch: int) -> bool:
        """Move to *epoch*, dropping every entry if it actually advanced.

        Returns True when the epoch changed (and the cache was
        invalidated wholesale). Epochs only grow — a smaller value
        means the caller is trying to serve an older map, which the
        epoch discipline exists to prevent.
        """
        if epoch == self.epoch:
            return False
        if epoch < self.epoch:
            raise ValueError(
                f"epoch must be monotonic: cache at {self.epoch}, "
                f"got {epoch}"
            )
        self.stats.invalidations += len(self._entries)
        self._entries.clear()
        self.epoch = int(epoch)
        return True

    def get(self, itemset: Itemset) -> int | None:
        """The cached bound for *itemset* at the current epoch, or None.

        An entry tagged with an older epoch is dropped on sight (the
        §10 invariant) and reported as a miss.
        """
        entry = self._entries.get(itemset)
        if entry is None:
            self.stats.misses += 1
            return None
        epoch, bound = entry
        if epoch != self.epoch:
            del self._entries[itemset]
            self.stats.stale_drops += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(itemset)
        self.stats.hits += 1
        return bound

    def put(
        self,
        itemsets: Sequence[Itemset],
        bounds: Sequence[int],
        epoch: int,
        *,
        current: bool = True,
    ) -> bool:
        """Insert *bounds*, aligned with *itemsets*, computed against map
        *epoch*; the batch becomes the most recently used entries.

        Returns False (and stores nothing) when *epoch* is stale — the
        normal outcome of a computation that raced an invalidation —
        counting one stale drop per key. *current* is False when the
        map the bounds came from was replaced at the same epoch (a
        reshape, after which the caller cleared the cache); such a put
        is stale too, though its epoch still matches.
        """
        if not current or epoch != self.epoch:
            self.stats.stale_drops += len(itemsets)
            return False
        entries = self._entries
        before = len(entries)
        entries.update(zip(itemsets, zip(repeat(epoch), bounds)))
        if len(entries) - before < len(itemsets):
            # Some keys were already cached and kept their old place:
            # move the whole batch to the recent end, in order.
            for itemset in itemsets:
                entries.move_to_end(itemset)
        excess = len(entries) - self.maxsize
        if excess > 0:
            self.stats.evictions += excess
            for _ in range(excess):
                entries.popitem(last=False)
        return True

    def clear(self) -> None:
        """Drop every entry without touching the epoch or stats."""
        self._entries.clear()
