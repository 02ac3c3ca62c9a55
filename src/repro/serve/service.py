"""Asyncio online bound-query service over a live OSSM.

:class:`BoundQueryService` answers Equation (1) upper-bound queries —
single itemsets or batches — against the map it is currently serving,
with:

* an epoch-tagged bounded LRU cache
  (:class:`~repro.serve.cache.EpochLRUCache`), invalidated wholesale
  when :meth:`BoundQueryService.update` advances the map's epoch;
* back-pressure — a bounded pending set; requests that would exceed it
  are shed with :class:`~repro.serve.errors.Overloaded`;
* per-request timeouts (:class:`~repro.serve.errors.QueryTimeout`)
  that cancel the caller's own evaluation;
* batch evaluation through ``OSSM.upper_bounds``, one call per
  itemset cardinality, retried once on failure.

Each call evaluates its own misses, once per distinct key, inline on
the event loop: a batch of at most ``max_pending`` itemsets costs
about what a thread hop did (EXPERIMENTS.md, "Batch futures and
inline evaluation"), and far less than shipping it to worker
processes would (EXPERIMENTS.md, "Serve pool"). Calls are not
coalesced with each other here: behind the gateway a tenant's
admission scheduler flushes one batch at a time, so its calls never
overlap, and merging concurrent requests is that layer's job
(:mod:`repro.serve.admission`).
"""

from __future__ import annotations

import asyncio
import operator
import time
from collections.abc import Iterable, Sequence
from typing import Any

from ..core.ossm import OSSM
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.quantiles import LATENCY_BUCKETS, SlidingQuantile
from ..obs.trace import trace
from ..resilience import get_injector
from .cache import EpochLRUCache
from .errors import Overloaded, QueryTimeout, ServiceClosed

__all__ = ["BoundQueryService", "EpochBounds", "canonical_itemset"]

logger = get_logger(__name__)

Itemset = tuple[int, ...]

_UNSET = object()


class EpochBounds(list[int]):
    """Bounds aligned with a request's itemsets, labelled with the
    ``epoch`` of the map that answered them.

    A plain ``list`` in every other respect. The label is taken in the
    same synchronous step that reads the cache and snapshots the map
    the misses are evaluated against, so a publish racing the request
    can never pair one map's bounds with another map's epoch.
    """

    __slots__ = ("epoch",)

    def __init__(self, bounds: Iterable[int], epoch: int) -> None:
        super().__init__(bounds)
        self.epoch = epoch


def canonical_itemset(
    itemset: Iterable[int], n_items: int | None = None
) -> Itemset:
    """Sorted duplicate-free tuple — the cache key.

    Equation (1) is a min over the itemset's columns, so item order and
    repetition cannot change the bound; canonicalizing lets ``(2, 1)``,
    ``(1, 2, 2)`` and ``(1, 2)`` share one cache entry and one
    evaluation within a batch. Items must be integers in
    ``range(n_items)`` (numpy integers pass); a bool or float raises
    ``ValueError``.
    """
    items = sorted({
        item if type(item) is int else _item_id(item) for item in itemset
    })
    if items and items[0] < 0:
        raise ValueError(f"item {items[0]} out of range: ids must be >= 0")
    if items and n_items is not None and items[-1] >= n_items:
        raise ValueError(
            f"item {items[-1]} out of range for a map over {n_items} items"
        )
    return tuple(items)


def _item_id(item: Any) -> int:
    """*item* as an item id, for anything but a plain ``int``."""
    try:
        if not isinstance(item, bool):
            return operator.index(item)
    except TypeError:
        pass
    raise ValueError(f"non-integer item {item!r}")


class BoundQueryService:
    """Online Equation (1) bound server with an epoch-tagged cache.

    Parameters
    ----------
    ossm:
        The map to serve. :meth:`update` swaps in a grown map (its
        ``epoch`` must not be lower than the current one).
    cache_size:
        LRU entry budget of the bound cache.
    max_pending:
        Maximum itemsets being evaluated at once; a request that would
        push past this is shed with :class:`Overloaded`.
    timeout:
        Default per-request timeout in seconds (None = wait forever);
        overridable per call.
    slo_target:
        Per-request latency objective in seconds; a request slower
        than this (or shed / timed out) consumes error budget. ``None``
        tracks latency quantiles but treats only sheds and timeouts
        as violations.
    slo_objective:
        Fraction of requests that must meet the target (the error
        budget is the remaining fraction); default 99%.
    """

    def __init__(
        self,
        ossm: OSSM,
        *,
        cache_size: int = 4096,
        max_pending: int = 1024,
        timeout: float | None = None,
        slo_target: float | None = None,
        slo_objective: float = 0.99,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive or None")
        if slo_target is not None and slo_target <= 0:
            raise ValueError("slo_target must be positive or None")
        if not 0.0 < slo_objective <= 1.0:
            raise ValueError("slo_objective must be in (0, 1]")
        self._ossm = ossm
        self._cache = EpochLRUCache(cache_size, epoch=ossm.epoch)
        self.max_pending = int(max_pending)
        self.timeout = timeout
        self._pending = 0
        self._closed = False
        self._published = {
            "hits": 0, "misses": 0, "evictions": 0,
            "invalidations": 0, "stale_drops": 0,
        }
        self.slo_target = slo_target
        self.slo_objective = float(slo_objective)
        self._latency = SlidingQuantile()
        self._slo_requests = 0
        self._slo_violations = 0

    # -- introspection ---------------------------------------------------

    @property
    def ossm(self) -> OSSM:
        """The map currently being served."""
        return self._ossm

    @property
    def epoch(self) -> int:
        """Epoch of the map currently being served."""
        return self._ossm.epoch

    @property
    def pending(self) -> int:
        """Itemsets currently being evaluated (the queue depth)."""
        return self._pending

    def stats(self) -> dict[str, Any]:
        """JSON-friendly snapshot of the service's counters."""
        latency = self._latency.snapshot()
        allowed = self._slo_requests * (1.0 - self.slo_objective)
        if allowed > 0:
            # Clamped at zero: a budget more than spent is just spent.
            budget_remaining = max(
                0.0, 1.0 - self._slo_violations / allowed
            )
        else:
            budget_remaining = 1.0 if self._slo_violations == 0 else 0.0
        return {
            "epoch": self._ossm.epoch,
            "pending": self._pending,
            "cache": self._cache.stats.as_dict(),
            "cache_entries": len(self._cache),
            "latency": {
                "window_count": latency["count"],
                "window_seconds": latency["window_seconds"],
                "p50_ms": latency["p50"] * 1e3,
                "p95_ms": latency["p95"] * 1e3,
                "p99_ms": latency["p99"] * 1e3,
            },
            "slo": {
                "target_seconds": self.slo_target,
                "objective": self.slo_objective,
                "requests": self._slo_requests,
                "violations": self._slo_violations,
                "budget_remaining": budget_remaining,
            },
        }

    # -- epoch / map management ------------------------------------------

    def update(self, ossm: OSSM) -> bool:
        """Serve *ossm* from now on; returns True if anything changed.

        Advancing the epoch invalidates the cache wholesale (DESIGN.md
        §10); a same-epoch swap (e.g. a ``merge_segments`` reshape of
        the same collection) also clears the cache, because a reshaped
        map yields different — though equally sound — bound values.
        In-flight evaluations finish against the map they started with
        and answer their own callers; their results are not cached,
        since the map they ran on is no longer the one served.
        """
        if ossm is self._ossm:
            return False
        if ossm.epoch < self._ossm.epoch:
            raise ValueError(
                f"cannot move the service backwards: serving epoch "
                f"{self._ossm.epoch}, got {ossm.epoch}"
            )
        advanced = self._cache.advance_epoch(ossm.epoch)
        if not advanced:
            self._cache.clear()
        self._ossm = ossm
        metrics = get_registry()
        if metrics.enabled:
            metrics.inc("serve.updates")
            self._flush_cache_metrics(metrics)
        logger.debug("service now at epoch %d", ossm.epoch)
        return True

    # -- querying --------------------------------------------------------

    async def query(
        self, itemset: Iterable[int], *, timeout: Any = _UNSET
    ) -> int:
        """Equation (1) upper bound for one itemset."""
        bounds = await self.query_batch([itemset], timeout=timeout)
        return bounds[0]

    async def query_batch(
        self,
        itemsets: Sequence[Iterable[int]],
        *,
        timeout: Any = _UNSET,
    ) -> EpochBounds:
        """Bounds for *itemsets*, aligned with the input order and
        labelled with the epoch of the map that answered them.

        Cache hits are answered immediately; the distinct misses are
        evaluated as one batch, and repeats of a key share its bound.
        Raises :class:`Overloaded` when the miss set would exceed
        ``max_pending`` and :class:`QueryTimeout` (cancelling the
        evaluation) when the per-request deadline passes first.

        Every request lands in the rolling latency window behind
        ``stats()``; sheds, timeouts, and (when ``slo_target`` is set)
        requests over the target consume error budget.
        """
        if self._closed:
            raise ServiceClosed()
        start = time.perf_counter()
        shed_or_timed_out = False
        try:
            return await self._query_batch(itemsets, timeout=timeout)
        except (Overloaded, QueryTimeout):
            shed_or_timed_out = True
            raise
        finally:
            elapsed = time.perf_counter() - start
            self._latency.observe(elapsed)
            self._slo_requests += 1
            violated = shed_or_timed_out or (
                self.slo_target is not None and elapsed > self.slo_target
            )
            if violated:
                self._slo_violations += 1
            metrics = get_registry()
            if metrics.enabled:
                metrics.observe(
                    "serve.latency_seconds", elapsed,
                    buckets=LATENCY_BUCKETS,
                )
                if violated:
                    metrics.inc("serve.slo.violations")

    async def _query_batch(
        self,
        itemsets: Sequence[Iterable[int]],
        *,
        timeout: Any = _UNSET,
    ) -> EpochBounds:
        wait_for = self.timeout if timeout is _UNSET else timeout
        ossm = self._ossm
        cache = self._cache
        n_items = ossm.n_items
        keys = [canonical_itemset(raw, n_items) for raw in itemsets]
        results = [0] * len(keys)
        # Each distinct miss's position in the evaluated batch, and the
        # (result index, batch position) pairs that read it back.
        fresh: dict[Itemset, int] = {}
        waiting: list[tuple[int, int]] = []
        for index, key in enumerate(keys):
            cached = cache.get(key)
            if cached is not None:
                results[index] = cached
            else:
                waiting.append((index, fresh.setdefault(key, len(fresh))))

        metrics = get_registry()
        if metrics.enabled:
            metrics.inc("serve.requests")
            metrics.inc("serve.queries", len(itemsets))
        if fresh:
            batch = list(fresh)
            if self._pending + len(batch) > self.max_pending:
                if metrics.enabled:
                    metrics.inc("serve.shed")
                raise Overloaded(
                    self._pending + len(batch), self.max_pending
                )
            self._pending += len(batch)
            if metrics.enabled:
                metrics.set_gauge("serve.queue_depth", self._pending)
            try:
                if wait_for is None:
                    bounds = await self._run_batch(ossm, batch)
                else:
                    try:
                        bounds = await asyncio.wait_for(
                            self._run_batch(ossm, batch), wait_for
                        )
                    except asyncio.TimeoutError:
                        if metrics.enabled:
                            metrics.inc("serve.timeouts")
                        raise QueryTimeout(float(wait_for)) from None
            finally:
                self._pending -= len(batch)
                if metrics.enabled:
                    metrics.set_gauge("serve.queue_depth", self._pending)
            # A same-epoch reshape while the batch evaluated keeps the
            # epoch, so the put is also keyed on the map itself.
            cache.put(batch, bounds, ossm.epoch, current=ossm is self._ossm)
            for index, position in waiting:
                results[index] = bounds[position]
        if metrics.enabled:
            self._flush_cache_metrics(metrics)
        return EpochBounds(results, ossm.epoch)

    async def _run_batch(self, ossm: OSSM, keys: list[Itemset]) -> list[int]:
        """Bounds for *keys* against *ossm*, retried once on failure."""
        metrics = get_registry()
        with trace(
            "serve.batch", size=len(keys), epoch=ossm.epoch
        ), metrics.time("serve.batch_seconds"):
            try:
                return await self._evaluate(ossm, keys)
            except Exception as exc:
                # One retry absorbs a transient evaluation failure
                # (e.g. an injected serve.eval_error); a second failure
                # reaches the caller.
                if metrics.enabled:
                    metrics.inc("resilience.serve.eval_retries")
                logger.warning(
                    "batch evaluation failed, retrying once: %r", exc
                )
                return await self._evaluate(ossm, keys)

    # -- evaluation ------------------------------------------------------

    async def _evaluate(self, ossm: OSSM, keys: list[Itemset]) -> list[int]:
        """Bounds for *keys* (mixed cardinality), grouped per level."""
        injector = get_injector()
        if injector.enabled:
            injector.maybe_raise("serve.eval_error")
            rule = injector.fire("serve.latency")
            if rule is not None:
                await asyncio.sleep(rule.delay)
        by_size: dict[int, list[Itemset]] = {}
        for key in keys:
            by_size.setdefault(len(key), []).append(key)
        bound_of: dict[Itemset, int] = {}
        for group in by_size.values():
            bound_of.update(zip(group, ossm.upper_bounds(group).tolist()))
        return [bound_of[key] for key in keys]

    # -- metrics ---------------------------------------------------------

    def _flush_cache_metrics(self, metrics: Any) -> None:
        """Publish cache-counter deltas since the last flush."""
        snapshot = self._cache.stats.as_dict()
        for name in self._published:
            delta = int(snapshot[name]) - self._published[name]
            if delta and metrics.enabled:
                metrics.inc(f"serve.cache.{name}", delta)
                self._published[name] += delta

    # -- lifecycle -------------------------------------------------------

    async def aclose(self) -> None:
        """Refuse new queries; calls already evaluating finish in their
        own tasks."""
        self._closed = True

    async def __aenter__(self) -> "BoundQueryService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
