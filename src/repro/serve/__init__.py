"""Online bound-query serving layer.

Answers Equation (1) upper-bound queries over live OSSMs as an asyncio
service plane: epoch-tagged caching, back-pressure, timeouts, batch
evaluation on the event loop — and, above the single-map service,
per-tenant admission (the one layer that merges concurrent requests)
and the multi-tenant HTTP gateway (the one HTTP server). See DESIGN.md
§10 for the epoch/invalidation correctness argument, §15 for tenant
isolation, and ``repro-ossm serve`` for the CLI front end.

* :class:`~repro.serve.service.BoundQueryService` — one map's service;
  its batches come back as :class:`~repro.serve.service.EpochBounds`,
  labelled with the epoch of the map that answered them.
* :class:`~repro.serve.cache.EpochLRUCache` — the bound cache.
* :class:`~repro.serve.tenants.TenantRegistry` /
  :class:`~repro.serve.tenants.Tenant` — named services with
  per-tenant quotas (:class:`~repro.serve.tenants.TenantQuota`,
  :class:`~repro.serve.tenants.TokenBucket`).
* :class:`~repro.serve.admission.BatchScheduler` — per-tenant quota
  gate + cross-request batch coalescing.
* :class:`~repro.serve.gateway.Gateway` — the stdlib-asyncio HTTP
  edge (``/v1/tenants/...``, ``/metrics``, ``/stats``), with
  ``/ready``-vs-``/health`` graceful drain.
* :class:`~repro.serve.durability.TenantStore` — the crash-consistent
  control plane: CRC-framed write-ahead log + atomic artifact
  directory behind ``TenantRegistry.recover`` (DESIGN.md §16).
* :mod:`repro.serve.errors` — typed failures carrying
  ``status_code``/``retry_after`` for mechanical HTTP mapping.
"""

from .admission import BatchScheduler
from .cache import CacheStats, EpochLRUCache
from .durability import RecoveredTenant, TenantStore
from .errors import (
    Draining,
    InvalidRequest,
    Overloaded,
    QueryTimeout,
    QuotaExceeded,
    ServeError,
    ServiceClosed,
    UnknownTenant,
)
from .gateway import Gateway
from .service import BoundQueryService, EpochBounds, canonical_itemset
from .tenants import Tenant, TenantQuota, TenantRegistry, TokenBucket

__all__ = [
    "BatchScheduler",
    "BoundQueryService",
    "CacheStats",
    "Draining",
    "EpochBounds",
    "EpochLRUCache",
    "Gateway",
    "InvalidRequest",
    "Overloaded",
    "QueryTimeout",
    "QuotaExceeded",
    "RecoveredTenant",
    "ServeError",
    "ServiceClosed",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "TenantStore",
    "TokenBucket",
    "UnknownTenant",
    "canonical_itemset",
]
