"""The typed-error HTTP contract and API naming consistency.

The gateway maps errors *mechanically*: every :class:`ServeError`
subclass carries ``status_code`` and ``retry_after``, and the edge
reads exactly those two attributes. These tests pin that contract —
and the PR's naming-consolidation promise: one snake_case style across
``BoundQueryService.stats()``, ``Session.serve()`` kwargs, and tenant
stats payloads.
"""

import inspect
import re

import pytest

from repro.serve import (
    BoundQueryService,
    InvalidRequest,
    Overloaded,
    QueryTimeout,
    QuotaExceeded,
    ServeError,
    ServiceClosed,
    UnknownTenant,
)
from repro.session import Session


class TestStatusContract:
    def test_every_error_carries_a_status(self):
        for cls in (
            InvalidRequest, Overloaded, QueryTimeout, QuotaExceeded,
            ServeError, ServiceClosed, UnknownTenant,
        ):
            assert isinstance(cls.status_code, int)
            assert 400 <= cls.status_code <= 599 or cls is ServeError

    def test_status_assignments(self):
        assert ServeError.status_code == 500
        assert InvalidRequest.status_code == 400
        assert UnknownTenant.status_code == 404
        assert QuotaExceeded.status_code == 429
        assert Overloaded.status_code == 503
        assert ServiceClosed.status_code == 503
        assert QueryTimeout.status_code == 504

    def test_all_are_serve_errors(self):
        assert issubclass(Overloaded, ServeError)
        assert issubclass(QuotaExceeded, Overloaded)
        assert issubclass(UnknownTenant, ServeError)
        # One except clause still catches the whole family.
        with pytest.raises(ServeError):
            raise QuotaExceeded("acme", 0.25)

    def test_retry_after_semantics(self):
        # Retrying a malformed request cannot help: no hint.
        assert InvalidRequest("bad").retry_after is None
        assert UnknownTenant("ghost").retry_after is None
        # Shared overload carries a heuristic hint.
        assert Overloaded(10, 8).retry_after == pytest.approx(0.05)
        # Quota rejections carry the bucket's exact refill time.
        exc = QuotaExceeded("acme", 0.375)
        assert exc.retry_after == pytest.approx(0.375)
        assert exc.tenant == "acme"
        assert "0.375" in str(exc)

    def test_overloaded_keeps_queue_fields(self):
        exc = Overloaded(130, 128)
        assert exc.pending == 130
        assert exc.max_pending == 128
        assert "130" in str(exc) and "128" in str(exc)

    def test_unknown_tenant_names_the_tenant(self):
        exc = UnknownTenant("ghost")
        assert exc.tenant == "ghost"
        assert "ghost" in str(exc)


_SNAKE = re.compile(r"^[a-z][a-z0-9_]*$")


def _assert_snake_keys(payload, path="stats"):
    for key, value in payload.items():
        assert _SNAKE.match(key), f"{path}.{key} is not snake_case"
        if isinstance(value, dict):
            _assert_snake_keys(value, f"{path}.{key}")


class TestNamingConsistency:
    """The API-redesign sweep: one name style, one set of kwargs."""

    def test_service_stats_keys_are_snake_case(self, ossm):
        import asyncio

        async def main():
            async with BoundQueryService(ossm) as service:
                await service.query((1, 2))
                return service.stats()

        _assert_snake_keys(asyncio.run(main()))

    def test_tenant_stats_keys_are_snake_case(self, ossm):
        import asyncio

        from repro.serve import TenantRegistry

        async def main():
            async with TenantRegistry() as tenants:
                tenant = tenants.create("acme", ossm)
                await tenant.query((1, 2))
                return tenant.stats()

        _assert_snake_keys(asyncio.run(main()))

    def test_session_serve_kwargs_match_service_ctor(self):
        """Session.serve() forwards: every kwarg must exist on the
        BoundQueryService constructor under the same name."""
        serve_params = set(
            inspect.signature(Session.serve).parameters
        ) - {"self"}
        ctor_params = set(
            inspect.signature(BoundQueryService.__init__).parameters
        ) - {"self", "ossm"}
        assert serve_params <= ctor_params, (
            serve_params - ctor_params
        )

    def test_registry_defaults_match_service_ctor_names(self):
        from repro.serve import TenantRegistry

        registry_params = set(
            inspect.signature(TenantRegistry.__init__).parameters
        )
        for shared in (
            "cache_size", "timeout", "slo_target", "slo_objective",
        ):
            assert shared in registry_params

    def test_serving_takes_no_workers_knob(self):
        from repro.serve import TenantRegistry

        for signature in (
            inspect.signature(BoundQueryService.__init__),
            inspect.signature(TenantRegistry.__init__),
            inspect.signature(TenantRegistry.create),
            inspect.signature(Session.serve),
        ):
            assert "workers" not in signature.parameters

    def test_admission_takes_no_linger_knob(self, ossm):
        """Batches flush on the next loop tick, with no timer to tune."""
        from repro.serve import BatchScheduler, TenantRegistry

        for signature in (
            inspect.signature(BatchScheduler.__init__),
            inspect.signature(TenantRegistry.__init__),
            inspect.signature(TenantRegistry.create),
            inspect.signature(Session.serve),
        ):
            assert "linger" not in signature.parameters
        scheduler = BatchScheduler(BoundQueryService(ossm))
        assert not hasattr(scheduler, "linger")
        assert "linger_seconds" not in scheduler.stats()
