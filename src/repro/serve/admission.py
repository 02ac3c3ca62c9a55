"""Admission control: per-tenant quota + cross-request batch coalescing.

:class:`BatchScheduler` sits between a tenant's public query surface
and its :class:`~repro.serve.service.BoundQueryService`. It does two
things the service deliberately does not:

* **quota** — each submission first passes the tenant's token bucket;
  a submission past the sustained rate is shed *before* it touches the
  service, with :class:`~repro.serve.errors.QuotaExceeded` carrying
  the bucket's exact refill time as the ``Retry-After`` hint;
* **coalescing across requests** — admitted itemsets are flushed to
  ``service.query_batch`` on the next event-loop tick; requests that
  arrive while a batch evaluates queue behind it and ride the next
  batch together (group commit, no timer). A hundred single-itemset
  HTTP requests queued behind one batch cost one cache walk and one
  Equation (1) evaluation instead of a hundred. The service then
  evaluates each distinct key of the merged batch once, behind its
  epoch-tagged cache. This is the serving plane's only cross-request
  coalescing: flushes run one at a time, so a tenant's service calls
  never overlap.

The scheduler never reorders within a request: every caller gets its
bounds aligned with its own input order, whatever batch they rode in.
"""

from __future__ import annotations

import asyncio
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, Any, NamedTuple

from ..obs.log import get_logger
from ..obs.metrics import get_registry
from .errors import QuotaExceeded, ServiceClosed
from .service import BoundQueryService, EpochBounds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .tenants import TokenBucket

__all__ = ["BatchScheduler"]

logger = get_logger(__name__)


class _Pending(NamedTuple):
    """One submitted request waiting for its flush."""

    itemsets: list[Iterable[int]]
    future: "asyncio.Future[EpochBounds]"


class BatchScheduler:
    """Quota gate + group-commit batch coalescer for one tenant.

    Parameters
    ----------
    service:
        The tenant's bound-query service; flushed batches go through
        its ``query_batch`` (back-pressure and cache included).
    max_batch:
        Largest merged batch per flush; excess requests roll into the
        next flush immediately.
    bucket:
        The tenant's quota bucket, or ``None`` for unlimited.
    tenant:
        Tenant name, used in error messages and per-tenant metrics.
    """

    def __init__(
        self,
        service: BoundQueryService,
        *,
        max_batch: int = 512,
        bucket: "TokenBucket | None" = None,
        tenant: str = "default",
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.service = service
        self.max_batch = int(max_batch)
        self.bucket = bucket
        self.tenant = tenant
        self._queue: list[_Pending] = []
        self._flusher: asyncio.Task[None] | None = None
        self._closed = False
        self._requests = 0
        self._queries = 0
        self._quota_shed = 0
        self._batches = 0
        self._flushed_queries = 0

    # -- submission ------------------------------------------------------

    async def submit(
        self, itemsets: Sequence[Iterable[int]]
    ) -> EpochBounds:
        """Bounds for *itemsets*, admission-controlled and coalesced,
        labelled with the epoch of the map that answered the batch.

        Raises :class:`QuotaExceeded` when the tenant's bucket cannot
        fund ``len(itemsets)`` queries right now (nothing is debited),
        :class:`ServiceClosed` after :meth:`aclose`, and whatever the
        underlying flush raised (``Overloaded``, ``QueryTimeout``,
        ``ValueError``) otherwise.
        """
        if self._closed:
            raise ServiceClosed("batch scheduler")
        materialized = list(itemsets)
        self._requests += 1
        self._queries += len(materialized)
        metrics = get_registry()
        if self.bucket is not None and materialized:
            delay = self.bucket.acquire(len(materialized))
            if delay > 0.0:
                self._quota_shed += 1
                if metrics.enabled:
                    metrics.inc(f"serve.tenant.{self.tenant}.quota_shed")
                raise QuotaExceeded(self.tenant, delay)
        if metrics.enabled:
            metrics.inc(f"serve.tenant.{self.tenant}.requests")
            metrics.inc(
                f"serve.tenant.{self.tenant}.queries", len(materialized)
            )
        if not materialized:
            return EpochBounds((), self.service.epoch)
        future: asyncio.Future[EpochBounds] = (
            asyncio.get_running_loop().create_future()
        )
        self._queue.append(_Pending(materialized, future))
        if self._flusher is None or self._flusher.done():
            self._flusher = asyncio.create_task(self._drain())
        return await future

    # -- flushing --------------------------------------------------------

    async def _drain(self) -> None:
        """Flush the queue batch by batch until it stays empty.

        One yield first, so same-tick submitters join the first batch;
        requests that arrive while a batch evaluates ride the next.
        """
        await asyncio.sleep(0)
        while self._queue:
            # The batch is the shortest queue prefix that reaches
            # max_batch itemsets (or the whole queue), cut as one slice.
            taken = size = 0
            for pending in self._queue:
                taken += 1
                size += len(pending.itemsets)
                if size >= self.max_batch:
                    break
            batch = self._queue[:taken]
            del self._queue[:taken]
            await self._flush(batch)

    async def _flush(self, batch: list[_Pending]) -> None:
        """Evaluate one merged batch and scatter results to waiters."""
        merged: list[Iterable[int]] = []
        for pending in batch:
            merged.extend(pending.itemsets)
        self._batches += 1
        self._flushed_queries += len(merged)
        try:
            bounds = await self.service.query_batch(merged)
        except BaseException as exc:
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
            return
        offset = 0
        for pending in batch:
            span = len(pending.itemsets)
            if not pending.future.done():
                pending.future.set_result(
                    EpochBounds(bounds[offset:offset + span], bounds.epoch)
                )
            offset += span

    # -- introspection ---------------------------------------------------

    @property
    def queued(self) -> int:
        """Requests waiting for their flush."""
        return len(self._queue)

    def stats(self) -> dict[str, Any]:
        """JSON-friendly admission counters (snake_case, units suffixed)."""
        return {
            "requests": self._requests,
            "queries": self._queries,
            "quota_shed": self._quota_shed,
            "batches": self._batches,
            "coalesced_queries_per_batch": (
                self._flushed_queries / self._batches
                if self._batches else 0.0
            ),
            "queued": len(self._queue),
            "max_batch": self.max_batch,
        }

    # -- lifecycle -------------------------------------------------------

    async def aclose(self) -> None:
        """Flush or fail everything queued; refuse new submissions."""
        self._closed = True
        if self._flusher is not None:
            await asyncio.gather(self._flusher, return_exceptions=True)
        leftovers = self._queue
        self._queue = []
        closed = ServiceClosed("batch scheduler")
        for pending in leftovers:
            if not pending.future.done():
                pending.future.set_exception(closed)

    async def __aenter__(self) -> "BatchScheduler":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
