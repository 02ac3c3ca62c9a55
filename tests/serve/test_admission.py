"""BatchScheduler: quota gating and cross-request coalescing."""

import asyncio

import pytest

from repro.resilience import FaultPlan, FaultRule, use_faults
from repro.serve import (
    BatchScheduler,
    BoundQueryService,
    QuotaExceeded,
    ServiceClosed,
    TokenBucket,
)

from .conftest import N_ITEMS


class TestCoalescing:
    def test_results_align_with_each_request(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                scheduler = BatchScheduler(service)
                async with scheduler:
                    first = scheduler.submit([(1, 2), (3,)])
                    second = scheduler.submit([(4, 5)])
                    third = scheduler.submit([(3,), (1, 2), (6,)])
                    a, b, c = await asyncio.gather(first, second, third)
                assert a == [ossm.upper_bound((1, 2)),
                             ossm.upper_bound((3,))]
                assert b == [ossm.upper_bound((4, 5))]
                assert c == [ossm.upper_bound((3,)),
                             ossm.upper_bound((1, 2)),
                             ossm.upper_bound((6,))]
                # All three were submitted in one tick: one service batch.
                assert scheduler.stats()["batches"] == 1
                assert service.stats()["slo"]["requests"] == 1

        asyncio.run(main())

    def test_many_same_tick_submitters_coalesce(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                async with BatchScheduler(service) as sched:
                    results = await asyncio.gather(
                        *(sched.submit([(i,)]) for i in range(8))
                    )
                assert [r[0] for r in results] == [
                    ossm.upper_bound((i,)) for i in range(8)
                ]
                assert sched.stats()["batches"] <= 2

        asyncio.run(main())

    def test_max_batch_splits_flushes(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                scheduler = BatchScheduler(service, max_batch=3)
                async with scheduler:
                    results = await asyncio.gather(
                        *(scheduler.submit([(i,), (i + 1,)])
                          for i in range(5))
                    )
                assert all(
                    r == [ossm.upper_bound((i,)),
                          ossm.upper_bound((i + 1,))]
                    for i, r in enumerate(results)
                )
                assert scheduler.stats()["batches"] >= 2

        asyncio.run(main())

    def test_arrivals_during_evaluation_ride_one_batch(self, ossm):
        """Requests submitted on separate ticks while a batch is held
        in evaluation queue behind it and flush together, as exactly
        one following batch, once it returns."""
        plan = FaultPlan(
            [FaultRule(point="serve.latency", times=1, delay=0.5)]
        )
        followers = [[(i,), (i, i + 1)] for i in range(2, 7)]

        async def main():
            async with BoundQueryService(ossm) as service:
                async with BatchScheduler(service) as scheduler:
                    first = asyncio.create_task(scheduler.submit([(1,)]))
                    while service.pending == 0:  # first batch evaluating
                        await asyncio.sleep(0.001)
                    waits = []
                    for itemsets in followers:
                        waits.append(asyncio.create_task(
                            scheduler.submit(itemsets)
                        ))
                        await asyncio.sleep(0.01)
                    assert scheduler.queued == len(followers)
                    assert scheduler.stats()["batches"] == 1
                    assert await first == [ossm.upper_bound((1,))]
                    results = await asyncio.gather(*waits)
                assert results == [
                    [ossm.upper_bound(s) for s in itemsets]
                    for itemsets in followers
                ]
                stats = scheduler.stats()
                assert stats["batches"] == 2
                assert stats["coalesced_queries_per_batch"] == (
                    1 + 2 * len(followers)
                ) / 2
                assert service.stats()["slo"]["requests"] == 2

        with use_faults(plan):
            asyncio.run(asyncio.wait_for(main(), 10))

    def test_empty_submission_is_free(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                async with BatchScheduler(service) as scheduler:
                    assert await scheduler.submit([]) == []
                    assert scheduler.stats()["batches"] == 0

        asyncio.run(main())


class TestQuotaGate:
    def test_shed_before_the_service_sees_it(self, ossm):
        clock_now = [0.0]
        bucket = TokenBucket(rate=10, burst=2, clock=lambda: clock_now[0])

        async def main():
            async with BoundQueryService(ossm) as service:
                scheduler = BatchScheduler(
                    service, bucket=bucket, tenant="acme"
                )
                async with scheduler:
                    await scheduler.submit([(1,), (2,)])
                    with pytest.raises(QuotaExceeded) as info:
                        await scheduler.submit([(3,)])
                    assert info.value.status_code == 429
                    assert info.value.retry_after == pytest.approx(0.1)
                    # The shed request never reached the service.
                    assert service.stats()["slo"]["requests"] == 1
                    assert scheduler.stats()["quota_shed"] == 1
                    # The bucket refills; the same request then admits.
                    clock_now[0] += 0.1
                    bounds = await scheduler.submit([(3,)])
                    assert bounds == [ossm.upper_bound((3,))]

        asyncio.run(main())

    def test_rejection_debits_nothing(self, ossm):
        clock_now = [0.0]
        bucket = TokenBucket(rate=1, burst=1, clock=lambda: clock_now[0])

        async def main():
            async with BoundQueryService(ossm) as service:
                async with BatchScheduler(
                    service, bucket=bucket, tenant="acme"
                ) as scheduler:
                    await scheduler.submit([(1,)])
                    for _ in range(5):
                        with pytest.raises(QuotaExceeded):
                            await scheduler.submit([(2,)])
                    clock_now[0] += 1.0
                    assert await scheduler.submit([(2,)]) == [
                        ossm.upper_bound((2,))
                    ]

        asyncio.run(main())


class TestLifecycle:
    def test_closed_scheduler_rejects(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                scheduler = BatchScheduler(service)
                await scheduler.aclose()
                with pytest.raises(ServiceClosed):
                    await scheduler.submit([(1,)])

        asyncio.run(main())

    def test_service_errors_reach_every_waiter(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                async with BatchScheduler(service) as sched:
                    bad = N_ITEMS + 5
                    waits = [
                        sched.submit([(bad,)]),
                        sched.submit([(bad, bad + 1)]),
                    ]
                    results = await asyncio.gather(
                        *waits, return_exceptions=True
                    )
                assert all(
                    isinstance(r, ValueError) for r in results
                ), results

        asyncio.run(main())
