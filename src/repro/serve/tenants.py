"""Multi-tenant registry: named bound-query services with quotas.

One box serves many tenants, each with its own OSSM, its own
:class:`~repro.serve.service.BoundQueryService` (cache and
back-pressure), its own admission-controlled batch scheduler
(:class:`~repro.serve.admission.BatchScheduler`), and its own quota.
:class:`TenantRegistry` owns the mapping and the two cross-tenant
invariants:

* **isolation** — a tenant can exhaust only its *own* budget: its
  token bucket (:class:`TokenBucket`) sheds excess queries with a
  :class:`~repro.serve.errors.QuotaExceeded` (HTTP 429) and its
  pending-set share is a fixed fraction of the registry-wide budget,
  so a flooding tenant cannot starve the others' event-loop admission
  (DESIGN.md §15 states the argument);
* **epoch publish** — :meth:`TenantRegistry.publish` swaps a tenant's
  map behind a strictly advancing epoch: the uploaded artifact is
  re-tagged to ``current_epoch + 1`` when needed, so the service's
  epoch-tagged cache invalidates wholesale and in-flight queries
  finish against the map they started with (the §10 argument, lifted
  per tenant).

The registry is synchronous (plain dict under a lock, no awaits while
held) so it can be driven from the event loop and from synchronous
callers (:class:`~repro.session.Session`, tests) alike.
"""

from __future__ import annotations

import re
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from ..core.ossm import OSSM
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..resilience.errors import CorruptArtifact
from ..resilience.faults import get_injector
from .admission import BatchScheduler
from .durability import TenantStore
from .errors import InvalidRequest, UnknownTenant
from .service import BoundQueryService, EpochBounds

__all__ = [
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "TokenBucket",
    "validate_tenant_name",
]

logger = get_logger(__name__)

#: Tenant names double as URL path segments and metric-name components,
#: so they are restricted to a filesystem/Prometheus-safe alphabet.
_TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def validate_tenant_name(name: str) -> str:
    """Return *name* if it is a legal tenant name, else reject.

    Raises :class:`InvalidRequest` (HTTP 400) — a malformed name is a
    client error, not a missing tenant.
    """
    if not isinstance(name, str) or not _TENANT_NAME.match(name):
        raise InvalidRequest(
            f"invalid tenant name {name!r}: expected 1-64 characters "
            "from [A-Za-z0-9_.-], starting alphanumeric"
        )
    return name


class TokenBucket:
    """Classic token bucket: sustained *rate* with a *burst* reservoir.

    ``acquire(n)`` is non-blocking: it returns ``0.0`` and debits the
    bucket when the request is admissible now, or the number of
    seconds until it would be — the exact ``Retry-After`` hint.

    A batch larger than the burst reservoir is admitted once the
    reservoir is full (the bucket goes into debt), so the long-run
    rate holds for any batch size instead of large batches being
    unservable forever.

    Parameters
    ----------
    rate:
        Sustained tokens per second (> 0).
    burst:
        Reservoir capacity; defaults to one second's worth of tokens
        (at least 1).
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, rate)
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(
                self.burst, self._tokens + elapsed * self.rate
            )
        self._stamp = now

    def acquire(self, tokens: int = 1) -> float:
        """Try to spend *tokens*; 0.0 on success, else seconds to wait.

        On rejection nothing is debited — the caller sheds the request
        and the hint tells the client when the same request would be
        admitted.
        """
        if tokens < 1:
            raise ValueError("tokens must be >= 1")
        with self._lock:
            now = self._clock()
            self._refill(now)
            # A batch above the burst size is admissible at full
            # reservoir (and leaves the bucket in debt).  The epsilon
            # keeps the hint honest: a client that waits exactly the
            # returned delay must not be rejected again over float
            # rounding in the refill arithmetic.
            needed = min(float(tokens), self.burst)
            if self._tokens >= needed - 1e-9:
                self._tokens -= float(tokens)
                return 0.0
            return (needed - self._tokens) / self.rate

    @property
    def available(self) -> float:
        """Tokens spendable right now (may be negative while in debt)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits.

    Parameters
    ----------
    rate:
        Sustained queries (itemsets) per second admitted through the
        tenant's token bucket; ``None`` = unlimited.
    burst:
        Bucket reservoir; defaults to one second's worth.
    max_pending_share:
        Fraction of the registry-wide pending budget this tenant's
        service may hold in flight — the back-pressure isolation knob.
    """

    rate: float | None = None
    burst: float | None = None
    max_pending_share: float = 1.0

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive or None")
        if not 0.0 < self.max_pending_share <= 1.0:
            raise ValueError("max_pending_share must be in (0, 1]")

    def bucket(
        self, clock: Callable[[], float] = time.monotonic
    ) -> TokenBucket | None:
        """A fresh bucket enforcing this quota (None = unlimited)."""
        if self.rate is None:
            return None
        return TokenBucket(self.rate, self.burst, clock=clock)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form, round-tripped by :meth:`from_dict`."""
        return {
            "rate": self.rate,
            "burst": self.burst,
            "max_pending_share": self.max_pending_share,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "TenantQuota":
        """Rebuild a quota from :meth:`to_dict` output (validating)."""
        return cls(**raw)


class Tenant:
    """One tenant's serving stack: service + scheduler + quota.

    Built by :class:`TenantRegistry`; not constructed directly. The
    query path is :meth:`query` / :meth:`query_batch`, which ride the
    tenant's admission scheduler so cross-request candidates coalesce
    into engine-sized batches.
    """

    def __init__(
        self,
        name: str,
        service: BoundQueryService,
        scheduler: BatchScheduler,
        quota: TenantQuota,
    ) -> None:
        self.name = name
        self.service = service
        self.scheduler = scheduler
        self.quota = quota

    @property
    def epoch(self) -> int:
        """Epoch of the map this tenant currently serves."""
        return self.service.epoch

    async def query(self, itemset: Iterable[int]) -> int:
        """Admission-controlled Equation (1) bound for one itemset."""
        bounds = await self.scheduler.submit([itemset])
        return bounds[0]

    async def query_batch(
        self, itemsets: Sequence[Iterable[int]]
    ) -> EpochBounds:
        """Admission-controlled bounds, aligned with the input order and
        labelled with the epoch of the map that answered them."""
        return await self.scheduler.submit(itemsets)

    def stats(self) -> dict[str, Any]:
        """JSON-friendly snapshot: service stats + admission counters.

        Key names follow the one canonical style (snake_case, units
        suffixed) shared by ``BoundQueryService.stats()`` and the
        gateway's ``/stats`` payload — ``tests/serve/test_errors.py``
        pins the convention.
        """
        snapshot = self.service.stats()
        snapshot["tenant"] = self.name
        snapshot["quota"] = {
            "rate": self.quota.rate,
            "burst": (
                self.scheduler.bucket.burst
                if self.scheduler.bucket is not None
                else None
            ),
            "max_pending_share": self.quota.max_pending_share,
        }
        snapshot["admission"] = self.scheduler.stats()
        return snapshot

    async def aclose(self) -> None:
        """Drain the scheduler, then the service."""
        await self.scheduler.aclose()
        await self.service.aclose()


class TenantRegistry:
    """Named tenants, each serving its own epoch-versioned OSSM.

    Parameters
    ----------
    max_pending_total:
        Registry-wide in-flight budget; each tenant's service gets
        ``max_pending_share × max_pending_total`` of it.
    default_quota:
        Quota applied when :meth:`create` is not given one.
    cache_size / timeout / slo_target / slo_objective:
        Defaults forwarded to every tenant's
        :class:`~repro.serve.service.BoundQueryService` (same names as
        its constructor).
    max_batch:
        Default forwarded to every tenant's
        :class:`~repro.serve.admission.BatchScheduler`.
    clock:
        Monotonic time source for quota buckets, injectable for tests.
    store:
        Optional :class:`~repro.serve.durability.TenantStore`. When
        set, every control-plane transition is made durable *before*
        the in-memory swap (artifact-fsync → WAL-append → swap,
        DESIGN.md §16) and :meth:`recover` can rebuild the registry
        after a crash. When ``None`` the registry is purely in-memory,
        exactly as before.
    """

    def __init__(
        self,
        *,
        max_pending_total: int = 4096,
        default_quota: TenantQuota | None = None,
        cache_size: int = 4096,
        timeout: float | None = None,
        slo_target: float | None = None,
        slo_objective: float = 0.99,
        max_batch: int = 512,
        clock: Callable[[], float] = time.monotonic,
        store: TenantStore | None = None,
    ) -> None:
        if max_pending_total < 1:
            raise ValueError("max_pending_total must be >= 1")
        self.max_pending_total = int(max_pending_total)
        self.default_quota = default_quota or TenantQuota()
        self.cache_size = int(cache_size)
        self.timeout = timeout
        self.slo_target = slo_target
        self.slo_objective = float(slo_objective)
        self.max_batch = int(max_batch)
        self._clock = clock
        self.store = store
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def _build_tenant(
        self,
        name: str,
        ossm: OSSM,
        quota: TenantQuota,
        cache_size: int | None,
    ) -> Tenant:
        """Assemble a tenant's serving stack (no registration, no WAL)."""
        max_pending = max(
            1, int(quota.max_pending_share * self.max_pending_total)
        )
        service = BoundQueryService(
            ossm,
            cache_size=self.cache_size if cache_size is None else cache_size,
            max_pending=max_pending,
            timeout=self.timeout,
            slo_target=self.slo_target,
            slo_objective=self.slo_objective,
        )
        scheduler = BatchScheduler(
            service,
            max_batch=self.max_batch,
            bucket=quota.bucket(self._clock),
            tenant=name,
        )
        return Tenant(name, service, scheduler, quota)

    def _install(self, tenant: Tenant) -> None:
        """Register an assembled tenant, rejecting duplicates."""
        with self._lock:
            if self._closed:
                raise InvalidRequest("tenant registry is closed")
            if tenant.name in self._tenants:
                raise InvalidRequest(
                    f"tenant {tenant.name!r} already exists; PUT a new "
                    "map to replace what it serves"
                )
            self._tenants[tenant.name] = tenant
        metrics = get_registry()
        if metrics.enabled:
            metrics.inc("serve.tenant.created")
            metrics.set_gauge("serve.tenants", len(self._tenants))

    def create(
        self,
        name: str,
        ossm: OSSM,
        *,
        quota: TenantQuota | None = None,
        cache_size: int | None = None,
    ) -> Tenant:
        """Provision *name* serving *ossm*; rejects duplicates.

        Raises :class:`InvalidRequest` on a malformed name or a name
        already registered (replace a live tenant's map with
        :meth:`publish`, not by re-creating it). With a store attached
        the artifact and the WAL create record are durable before the
        tenant becomes visible.
        """
        validate_tenant_name(name)
        quota = quota or self.default_quota
        if name in self._tenants:
            raise InvalidRequest(
                f"tenant {name!r} already exists; PUT a new map to "
                "replace what it serves"
            )
        tenant = self._build_tenant(name, ossm, quota, cache_size)
        if self.store is not None:
            relpath = self.store.save_artifact(name, ossm)
            self.store.record_create(
                name, ossm.epoch, relpath, quota=quota.to_dict()
            )
        self._install(tenant)
        logger.info(
            "tenant %r created at epoch %d (%d segments, %d items)",
            name, ossm.epoch, ossm.n_segments, ossm.n_items,
        )
        return tenant

    def publish(self, name: str, ossm: OSSM) -> int:
        """Hot-swap *name*'s map behind a strictly advancing epoch.

        The uploaded map's own epoch is advisory: when it does not
        exceed the serving epoch (the common case — artifacts are
        usually saved at epoch 0), the map is re-tagged to
        ``serving_epoch + 1`` so the swap always invalidates the
        tenant's bound cache. In-flight queries finish against the map
        they started with (DESIGN.md §15). Returns the new epoch.

        With a store attached the order is artifact-fsync →
        WAL-append → in-memory swap: a crash at any point leaves the
        tenant serving exactly the old or the new epoch (§16).
        """
        tenant = self.get(name)
        current = tenant.service.epoch
        if ossm.epoch <= current:
            ossm = OSSM(
                ossm.matrix,
                segment_sizes=ossm.segment_sizes,
                epoch=current + 1,
            )
        if self.store is not None:
            relpath = self.store.save_artifact(name, ossm)
            injector = get_injector()
            if injector.enabled:
                # Chaos window: the artifact is durable, the WAL
                # record is not — a kill here must recover to the OLD
                # epoch.
                injector.maybe_sleep("serve.publish.pre_wal")
            self.store.record_publish(name, ossm.epoch, relpath)
        tenant.service.update(ossm)
        metrics = get_registry()
        if metrics.enabled:
            metrics.inc("serve.tenant.published")
        logger.info("tenant %r now at epoch %d", name, ossm.epoch)
        return ossm.epoch

    async def remove(self, name: str) -> None:
        """Tear down *name*: drain its scheduler and close its service.

        With a store attached the delete tombstone is WAL-durable
        before the tenant disappears from memory, so a DELETEd tenant
        stays deleted across restarts; its artifact files are removed
        best-effort afterwards (orphans are ignored by replay).
        """
        with self._lock:
            if name not in self._tenants:
                raise UnknownTenant(name)
            if self.store is not None:
                self.store.record_delete(name)
            tenant = self._tenants.pop(name)
        await tenant.aclose()
        if self.store is not None:
            self.store.drop_artifacts(name)
        metrics = get_registry()
        if metrics.enabled:
            metrics.inc("serve.tenant.removed")
            metrics.set_gauge("serve.tenants", len(self._tenants))

    @classmethod
    def recover(cls, store: TenantStore, **kwargs: Any) -> "TenantRegistry":
        """Rebuild a registry from *store*'s WAL and artifact directory.

        Replays the control-plane log (a torn tail from a crash
        mid-append is dropped; real corruption raises
        :class:`~repro.resilience.errors.CorruptArtifact`), reloads
        each surviving tenant's artifact through the CRC-verified
        loader, checks the artifact's epoch against the WAL's, and
        re-applies ``quotas.json`` overrides. ``kwargs`` are the
        normal registry constructor arguments.
        """
        started = time.monotonic()
        store.sweep_temp_files()
        registry = cls(store=store, **kwargs)
        for name, state in sorted(store.recovered_tenants().items()):
            ossm = store.load_artifact(state.artifact)
            if ossm.epoch != state.epoch:
                raise CorruptArtifact(
                    store.artifact_path(state.artifact),
                    f"artifact epoch {ossm.epoch} does not match WAL "
                    f"epoch {state.epoch} for tenant {name!r}",
                )
            quota = (
                TenantQuota.from_dict(state.quota)
                if state.quota is not None
                else registry.default_quota
            )
            registry._install(
                registry._build_tenant(name, ossm, quota, None)
            )
            metrics = get_registry()
            if metrics.enabled:
                metrics.inc("serve.tenant.restored")
        try:
            registry.apply_quota_overrides()
        except ValueError as exc:
            logger.warning("ignoring quota overrides at boot: %s", exc)
        elapsed = time.monotonic() - started
        metrics = get_registry()
        if metrics.enabled:
            metrics.observe("serve.recovery.seconds", elapsed)
            metrics.set_gauge("serve.recovery.tenants", len(registry))
        logger.info(
            "recovered %d tenant(s) from %s in %.3fs",
            len(registry), store.root, elapsed,
        )
        return registry

    # -- quota management -------------------------------------------------

    def set_quota(
        self, name: str, quota: TenantQuota, *, persist: bool = True
    ) -> None:
        """Replace *name*'s quota on the live tenant, without a drop.

        The token bucket is swapped and the service's pending budget
        resized in place; queued and in-flight queries are untouched.
        With a store attached and ``persist=True`` the change is
        WAL-logged first so recovery restores it.
        """
        tenant = self.get(name)
        if persist and self.store is not None:
            self.store.record_quota(name, quota.to_dict())
        tenant.quota = quota
        tenant.scheduler.bucket = quota.bucket(self._clock)
        tenant.service.max_pending = max(
            1, int(quota.max_pending_share * self.max_pending_total)
        )
        logger.info(
            "tenant %r quota now rate=%s burst=%s max_pending_share=%s",
            name, quota.rate, quota.burst, quota.max_pending_share,
        )

    def apply_quota_overrides(self) -> int:
        """Re-read ``quotas.json`` overrides; how many were applied.

        Invalid per-tenant entries and overrides for unknown tenants
        are warned about and skipped — a SIGHUP must never take the
        gateway down. An unreadable file propagates as ``ValueError``
        for the caller to warn about. No-op without a store.
        """
        if self.store is None:
            return 0
        applied = 0
        unknown: list[str] = []
        invalid: list[str] = []
        for name, raw in sorted(self.store.quota_overrides().items()):
            if name not in self._tenants:
                unknown.append(name)
                continue
            try:
                quota = TenantQuota.from_dict(raw)
            except (TypeError, ValueError) as exc:
                invalid.append(f"{name!r}: {exc}")
                continue
            self.set_quota(name, quota, persist=False)
            applied += 1
        if unknown:
            logger.warning(
                "quota overrides for unknown tenant(s) ignored: %s",
                ", ".join(repr(name) for name in unknown),
            )
        if invalid:
            logger.warning(
                "invalid quota override(s) skipped: %s", "; ".join(invalid)
            )
        return applied

    async def aclose(self) -> None:
        """Close every tenant; the registry accepts no more creates."""
        with self._lock:
            self._closed = True
            tenants = list(self._tenants.values())
            self._tenants.clear()
        for tenant in tenants:
            await tenant.aclose()
        if self.store is not None:
            self.store.close()

    async def __aenter__(self) -> "TenantRegistry":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # -- lookup ----------------------------------------------------------

    def get(self, name: str) -> Tenant:
        """The tenant registered under *name* (404 when absent)."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenant(name)
        return tenant

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    def names(self) -> list[str]:
        """Registered tenant names, sorted."""
        return sorted(self._tenants)

    def stats(self) -> dict[str, Any]:
        """Registry-wide snapshot: per-tenant stats plus the totals."""
        with self._lock:
            tenants = dict(self._tenants)
        return {
            "tenants": {
                name: tenant.stats() for name, tenant in tenants.items()
            },
            "tenant_count": len(tenants),
            "max_pending_total": self.max_pending_total,
        }
