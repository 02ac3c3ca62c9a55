"""TokenBucket, TenantQuota, and TenantRegistry behavior.

The load-bearing properties:

* the bucket admits at the configured sustained rate, returns *exact*
  refill hints on rejection, and lets oversized batches through at a
  full reservoir (debt) so the long-run rate holds for any batch size;
* the registry isolates tenants (separate services, quotas, pending
  budgets) and publishes new maps behind a strictly advancing epoch;
* hot reload under concurrent queries never serves a stale or dropped
  bound (hypothesis interleaving).
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GreedySegmenter, extend_ossm
from repro.data import PagedDatabase, generate_quest
from repro.serve import (
    InvalidRequest,
    QuotaExceeded,
    TenantQuota,
    TenantRegistry,
    TokenBucket,
    UnknownTenant,
)

from .conftest import N_ITEMS


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_exact_refill_hint(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10, burst=5, clock=clock)
        for _ in range(5):
            assert bucket.acquire() == 0.0
        delay = bucket.acquire()
        assert delay == pytest.approx(0.1)
        # Nothing was debited by the rejection.
        clock.advance(delay)
        assert bucket.acquire() == 0.0

    def test_sustained_rate_holds(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100, burst=1, clock=clock)
        admitted = 0
        for _ in range(1000):
            if bucket.acquire() == 0.0:
                admitted += 1
            clock.advance(0.005)  # 200 attempts/s against a 100/s quota
        assert 450 <= admitted <= 510

    def test_batch_larger_than_burst_admits_at_full_reservoir(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10, burst=4, clock=clock)
        delay = bucket.acquire(40)  # full reservoir funds it, into debt
        assert delay == 0.0
        assert bucket.available == pytest.approx(-36.0)
        # The debt throttles everything until it is repaid.
        assert bucket.acquire() > 0.0
        clock.advance(3.7)  # -36 + 37 tokens = +1
        assert bucket.acquire() == 0.0

    def test_reservoir_caps_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10, burst=3, clock=clock)
        clock.advance(1000)
        assert bucket.available == pytest.approx(3.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=5, burst=0.5)
        with pytest.raises(ValueError):
            TokenBucket(rate=5).acquire(0)


class TestTenantQuota:
    def test_defaults_are_unlimited(self):
        quota = TenantQuota()
        assert quota.rate is None
        assert quota.bucket() is None
        assert quota.max_pending_share == 1.0

    def test_bucket_burst_defaults_to_one_second(self):
        bucket = TenantQuota(rate=25).bucket()
        assert bucket.burst == pytest.approx(25.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(rate=-1)
        with pytest.raises(ValueError):
            TenantQuota(max_pending_share=0.0)
        with pytest.raises(ValueError):
            TenantQuota(max_pending_share=1.5)


class TestRegistryLifecycle:
    def test_create_get_remove(self, ossm):
        async def main():
            async with TenantRegistry() as tenants:
                tenant = tenants.create("acme", ossm)
                assert tenants.get("acme") is tenant
                assert "acme" in tenants
                assert len(tenants) == 1
                assert tenants.names() == ["acme"]
                assert await tenant.query((1, 2)) == \
                    ossm.upper_bound((1, 2))
                await tenants.remove("acme")
                assert "acme" not in tenants
                with pytest.raises(UnknownTenant):
                    tenants.get("acme")
                with pytest.raises(UnknownTenant):
                    await tenants.remove("acme")

        asyncio.run(main())

    def test_duplicate_create_rejected(self, ossm):
        async def main():
            async with TenantRegistry() as tenants:
                tenants.create("acme", ossm)
                with pytest.raises(InvalidRequest, match="already exists"):
                    tenants.create("acme", ossm)

        asyncio.run(main())

    @pytest.mark.parametrize(
        "name", ["", "-leading", "has space", "a" * 65, "sla/sh"]
    )
    def test_bad_names_rejected(self, ossm, name):
        async def main():
            async with TenantRegistry() as tenants:
                with pytest.raises(InvalidRequest, match="tenant name"):
                    tenants.create(name, ossm)

        asyncio.run(main())

    def test_pending_budget_is_shared_out(self, ossm):
        async def main():
            async with TenantRegistry(max_pending_total=100) as tenants:
                half = tenants.create(
                    "half", ossm, quota=TenantQuota(max_pending_share=0.5)
                )
                full = tenants.create("full", ossm)
                assert half.service.max_pending == 50
                assert full.service.max_pending == 100

        asyncio.run(main())

    def test_closed_registry_rejects_creates(self, ossm):
        async def main():
            tenants = TenantRegistry()
            await tenants.aclose()
            with pytest.raises(InvalidRequest, match="closed"):
                tenants.create("late", ossm)

        asyncio.run(main())

    def test_quota_isolation_between_tenants(self, ossm):
        """One tenant burning its quota never touches its neighbour."""

        async def main():
            async with TenantRegistry() as tenants:
                slow = tenants.create(
                    "slow", ossm, quota=TenantQuota(rate=1.0, burst=1)
                )
                fast = tenants.create("fast", ossm)
                assert await slow.query((1,)) == ossm.upper_bound((1,))
                with pytest.raises(QuotaExceeded) as info:
                    await slow.query((2,))
                assert info.value.retry_after > 0
                assert info.value.tenant == "slow"
                # The neighbour is untouched by the shed.
                for item in range(10):
                    assert await fast.query((item,)) == \
                        ossm.upper_bound((item,))

        asyncio.run(main())


class TestDuplicates:
    def test_same_tick_duplicates_evaluate_once(self, ossm):
        """Same-tick queries for one itemset ride one admission batch,
        and the service evaluates its distinct keys once each."""
        evaluated = []

        async def main():
            async with TenantRegistry() as tenants:
                tenant = tenants.create("acme", ossm)
                inner = tenant.service._evaluate

                async def counted_evaluate(current, keys):
                    evaluated.extend(keys)
                    return await inner(current, keys)

                tenant.service._evaluate = counted_evaluate
                return await asyncio.gather(
                    *(tenant.query((4, 9)) for _ in range(8))
                )

        bounds = asyncio.run(main())
        assert bounds == [ossm.upper_bound((4, 9))] * 8
        assert evaluated == [(4, 9)]


class TestPublish:
    def test_publish_always_advances_the_epoch(self, ossm):
        async def main():
            async with TenantRegistry() as tenants:
                tenant = tenants.create("acme", ossm)
                assert tenant.epoch == 0
                # Artifacts usually land at epoch 0; publishing one
                # must still bump the serving epoch.
                epoch = tenants.publish("acme", ossm)
                assert epoch == 1
                assert tenant.epoch == 1
                epoch = tenants.publish("acme", ossm)
                assert epoch == 2
                # A map already ahead keeps its own (higher) epoch.
                from repro.core import OSSM

                ahead = OSSM(
                    ossm.matrix,
                    segment_sizes=ossm.segment_sizes,
                    epoch=10,
                )
                assert tenants.publish("acme", ahead) == 10

        asyncio.run(main())

    def test_publish_to_unknown_tenant(self, ossm):
        async def main():
            async with TenantRegistry() as tenants:
                with pytest.raises(UnknownTenant):
                    tenants.publish("ghost", ossm)

        asyncio.run(main())

    def test_publish_invalidates_served_bounds(self, ossm, db):
        extra = generate_quest(
            n_transactions=100, n_items=N_ITEMS,
            avg_transaction_len=6.0, n_patterns=50, seed=77,
        )
        grown = extend_ossm(ossm, extra, page_size=40)

        async def main():
            async with TenantRegistry() as tenants:
                tenant = tenants.create("acme", ossm)
                before = await tenant.query((1, 2))
                assert before == ossm.upper_bound((1, 2))
                tenants.publish("acme", grown)
                after = await tenant.query((1, 2))
                assert after == grown.upper_bound((1, 2))

        asyncio.run(main())


    def test_publish_before_flush_labels_the_answering_epoch(
        self, ossm
    ):
        """A publish landing while a request is queued for its flush
        (admitted, not yet dispatched to the service): the request is
        answered from the new map, so it must carry the new map's
        epoch, never the old one's."""
        import numpy as np

        from repro.core import OSSM

        other = OSSM(np.asarray(ossm.matrix) * 3)
        itemset = (1, 2)
        assert other.upper_bound(itemset) != ossm.upper_bound(itemset)

        async def main():
            async with TenantRegistry() as tenants:
                tenant = tenants.create("acme", ossm)
                assert tenant.epoch == 0
                task = asyncio.create_task(tenant.query_batch([itemset]))
                await asyncio.sleep(0)  # queued; flushes next tick
                assert tenants.publish("acme", other) == 1
                bounds = await task
                maps = {0: ossm, 1: other}
                assert bounds == [maps[bounds.epoch].upper_bound(itemset)]
                assert bounds.epoch == 1

        asyncio.run(main())


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("query"),
                st.sampled_from(["a", "b"]),
                st.lists(
                    st.integers(min_value=0, max_value=19),
                    min_size=0, max_size=3,
                ),
            ),
            st.tuples(
                st.just("publish"),
                st.sampled_from(["a", "b"]),
                st.integers(0, 2**16),
            ),
        ),
        min_size=1, max_size=8,
    )
)
def test_hot_reload_vs_concurrent_queries(ops):
    """Interleaved per-tenant publishes and queries: every bound served
    is exact for the map its tenant was serving, and no query is ever
    dropped by a concurrent reload."""
    base = generate_quest(
        n_transactions=120, n_items=20,
        avg_transaction_len=5.0, n_patterns=20, seed=2,
    )
    paged = PagedDatabase(base, page_size=30)
    start = GreedySegmenter().segment(paged, n_segments=4).ossm
    current = {"a": start, "b": start}

    async def main():
        async with TenantRegistry() as tenants:
            for name in ("a", "b"):
                tenants.create(name, current[name])
            for op, name, payload in ops:
                if op == "query":
                    tenant = tenants.get(name)
                    # Fire the query and the answer check around any
                    # publish that lands while it is in flight.
                    bound = await tenant.query(payload)
                    assert bound == current[name].upper_bound(payload)
                else:
                    extra = generate_quest(
                        n_transactions=40, n_items=20,
                        avg_transaction_len=5.0, n_patterns=20,
                        seed=payload,
                    )
                    grown = extend_ossm(
                        current[name], extra, page_size=30
                    )
                    current[name] = grown
                    tenants.publish(name, grown)
                    assert tenants.get(name).epoch == grown.epoch

    asyncio.run(main())
