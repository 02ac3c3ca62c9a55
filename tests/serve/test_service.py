"""Behavioral tests of :class:`repro.serve.BoundQueryService`.

The load-bearing properties, in rough order of importance:

* every served bound — cached or not — is byte-identical to the
  serial Equation (1) value of the map being served;
* no stale bound survives an epoch bump (DESIGN.md §10), including
  under interleaved query/extend traffic (hypothesis);
* a rejected request leaves nothing pending behind it;
* repeats within a batch evaluate once and share the bound;
* back-pressure sheds with :class:`Overloaded`, timeouts raise
  :class:`QueryTimeout` and cancel the caller's own evaluation, which
  warms nothing.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GreedySegmenter, extend_ossm
from repro.data import PagedDatabase, generate_quest
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import TraceRecorder, use_recorder
from repro.resilience import FaultPlan, FaultRule, use_faults
from repro.serve import (
    BoundQueryService,
    Overloaded,
    QueryTimeout,
    ServiceClosed,
    canonical_itemset,
)

N_ITEMS = 60


@pytest.fixture(scope="module")
def db():
    return generate_quest(
        n_transactions=600, n_items=N_ITEMS,
        avg_transaction_len=8.0, n_patterns=80, seed=5,
    )


@pytest.fixture(scope="module")
def ossm(db):
    paged = PagedDatabase(db, page_size=50)
    return GreedySegmenter().segment(paged, n_segments=6).ossm


def run(coroutine):
    return asyncio.run(coroutine)


# -- exactness -----------------------------------------------------------


class TestExactness:
    def test_single_query_matches_serial(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                for itemset in [(0,), (1, 2), (3, 4, 5), ()]:
                    assert await service.query(itemset) == \
                        ossm.upper_bound(itemset)

        run(main())

    def test_batch_mixed_cardinality_matches_serial(self, ossm):
        batch = [(1,), (2, 3), (), (4, 5, 6), (7,), (2, 3)]

        async def main():
            async with BoundQueryService(ossm) as service:
                bounds = await service.query_batch(batch)
                assert bounds == [ossm.upper_bound(s) for s in batch]

        run(main())

    def test_cached_answer_is_identical(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                first = await service.query((2, 5))
                second = await service.query((2, 5))
                assert first == second == ossm.upper_bound((2, 5))
                assert service.stats()["cache"]["hits"] == 1

        run(main())

    def test_canonicalization_shares_cache_entries(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                a = await service.query((5, 2))
                b = await service.query((2, 5, 5))
                assert a == b == ossm.upper_bound((2, 5))
                stats = service.stats()["cache"]
                assert stats["hits"] == 1 and stats["misses"] == 1

        run(main())

    def test_empty_batch(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                assert await service.query_batch([]) == []

        run(main())

    def test_rejects_bad_items(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                with pytest.raises(ValueError, match="out of range"):
                    await service.query((ossm.n_items,))
                with pytest.raises(ValueError, match=">= 0"):
                    await service.query((-1,))

        run(main())

    @pytest.mark.parametrize(
        "bad", [(N_ITEMS,), (-1,), (1.5, 2), (True, 3)]
    )
    def test_rejected_batch_strands_no_inflight_key(self, ossm, bad):
        """A bad item late in a batch is rejected before any key counts
        as pending, and a later query for the earlier keys is answered."""

        async def main():
            async with BoundQueryService(ossm) as service:
                with pytest.raises(ValueError):
                    await service.query_batch([(0, 1), bad])
                assert service.pending == 0
                bound = await asyncio.wait_for(service.query((0, 1)), 5.0)
                assert bound == ossm.upper_bound((0, 1))

        run(main())


def test_canonical_itemset():
    assert canonical_itemset((3, 1, 3)) == (1, 3)
    assert canonical_itemset(()) == ()
    assert canonical_itemset(np.array([4, 2], dtype=np.int64)) == (2, 4)
    assert canonical_itemset([np.int32(5), 1]) == (1, 5)
    with pytest.raises(ValueError):
        canonical_itemset((-2,))
    # Never truncated or coerced into another item id.
    for bad in ([1.5, 2], [True, 3], [np.float64(2.0)], ["3"],
                [np.bool_(True)]):
        with pytest.raises(ValueError, match="non-integer"):
            canonical_itemset(bad)


# -- duplicates ----------------------------------------------------------


def test_batch_repeats_evaluate_each_key_once(ossm):
    service = BoundQueryService(ossm)
    evaluated = []
    inner = service._evaluate

    async def counted_evaluate(current, keys):
        evaluated.extend(keys)
        return await inner(current, keys)

    service._evaluate = counted_evaluate
    batch = [(4, 9), (1,), (9, 4), (2, 3), (4, 9, 9), (1,), ()]

    async def main():
        async with service:
            return await service.query_batch(batch)

    assert run(main()) == [ossm.upper_bound(s) for s in batch]
    assert sorted(evaluated) == [(), (1,), (2, 3), (4, 9)]


def test_batch_mixes_hits_and_misses_in_order(ossm):
    """A call whose keys are partly cached and partly fresh evaluates
    only the fresh ones and reads every bound at its own position."""
    service = BoundQueryService(ossm)
    evaluated = []
    inner = service._evaluate

    async def counted_evaluate(current, keys):
        evaluated.extend(keys)
        return await inner(current, keys)

    service._evaluate = counted_evaluate
    first = [(1, 2), (3, 4), (5,)]
    second = [(7, 8), (3, 4), (9,), (1, 2), (7, 8)]

    async def main():
        async with service:
            await service.query_batch(first)
            evaluated.clear()
            bounds = await service.query_batch(second)
            return bounds, service.stats()["cache"]["hits"]

    bounds, hits = run(main())
    assert bounds == [ossm.upper_bound(s) for s in second]
    assert sorted(evaluated) == [(7, 8), (9,)]
    assert hits == 2


# -- back-pressure and timeouts ------------------------------------------


class TestBackpressure:
    def test_overload_sheds_with_typed_error(self, ossm):
        service = BoundQueryService(ossm, max_pending=2)
        release = asyncio.Event()
        inner = service._evaluate

        async def blocked_evaluate(current, keys):
            await release.wait()
            return await inner(current, keys)

        service._evaluate = blocked_evaluate

        async def main():
            async with service:
                filler = asyncio.create_task(
                    service.query_batch([(1,), (2,)])
                )
                await asyncio.sleep(0.05)
                assert service.pending == 2
                with pytest.raises(Overloaded) as excinfo:
                    await service.query((3,))
                assert excinfo.value.max_pending == 2
                release.set()
                bounds = await filler
                assert bounds == [
                    ossm.upper_bound((1,)), ossm.upper_bound((2,))
                ]
                assert service.pending == 0
                # Capacity is back: the shed itemset now succeeds.
                assert await service.query((3,)) == ossm.upper_bound((3,))

        run(main())

    def test_timeout_cancels_the_callers_evaluation(self, ossm):
        service = BoundQueryService(ossm, timeout=0.05)
        plan = FaultPlan([FaultRule("serve.latency", times=1, delay=5.0)])

        async def main():
            async with service:
                with pytest.raises(QueryTimeout):
                    await service.query((6, 7))
                # The evaluation went with its caller: nothing is
                # pending and nothing was cached.
                assert service.pending == 0
                assert service.stats()["cache_entries"] == 0
                assert await service.query((6, 7), timeout=None) == \
                    ossm.upper_bound((6, 7))
                assert service.stats()["cache"]["hits"] == 0

        with use_faults(plan):
            run(asyncio.wait_for(main(), 2.0))

    def test_failed_evaluation_frees_pending_and_caches_nothing(
        self, ossm
    ):
        """An evaluation that fails past its one retry fails its caller,
        leaves nothing pending or cached, and the next call is exact."""
        service = BoundQueryService(ossm)
        inner = service._evaluate
        attempts = []

        async def failing(current, keys):
            attempts.append(list(keys))
            raise RuntimeError("evaluation failed")

        service._evaluate = failing

        async def main():
            async with service:
                with pytest.raises(RuntimeError, match="evaluation failed"):
                    await service.query_batch([(1, 2), (3,), (2, 1)])
                assert service.pending == 0
                assert service.stats()["cache_entries"] == 0
                service._evaluate = inner
                return await service.query_batch([(1, 2), (3,)])

        assert run(asyncio.wait_for(main(), 10)) == [
            ossm.upper_bound((1, 2)), ossm.upper_bound((3,))
        ]
        assert attempts == [[(1, 2), (3,)], [(1, 2), (3,)]]

    def test_per_call_timeout_overrides_default(self, ossm):
        async def main():
            async with BoundQueryService(ossm, timeout=0.001) as service:
                # Generous per-call override on a fast query: no timeout.
                assert await service.query((1,), timeout=30.0) == \
                    ossm.upper_bound((1,))

        run(main())

    def test_closed_service_refuses_work(self, ossm):
        async def main():
            service = BoundQueryService(ossm)
            await service.aclose()
            with pytest.raises(ServiceClosed):
                await service.query((1,))

        run(main())


# -- epochs --------------------------------------------------------------


class TestEpochs:
    def test_update_invalidates_and_serves_new_map(self, db, ossm):
        extra = generate_quest(
            n_transactions=200, n_items=N_ITEMS,
            avg_transaction_len=8.0, n_patterns=80, seed=6,
        )
        grown = extend_ossm(ossm, extra, page_size=50)
        assert grown.epoch == ossm.epoch + 1

        async def main():
            async with BoundQueryService(ossm) as service:
                before = await service.query((2, 3))
                assert before == ossm.upper_bound((2, 3))
                assert service.update(grown) is True
                assert service.epoch == grown.epoch
                after = await service.query((2, 3))
                assert after == grown.upper_bound((2, 3))
                assert service.stats()["cache"]["invalidations"] >= 1

        run(main())

    def test_update_mid_evaluation_answers_from_the_starting_map(
        self, ossm
    ):
        """A call still evaluating when update() lands answers from the
        map it started with, labelled with that map's epoch; its bounds
        are dropped at the cache door, so the next call reads the new
        map."""
        extra = generate_quest(
            n_transactions=200, n_items=N_ITEMS,
            avg_transaction_len=8.0, n_patterns=80, seed=6,
        )
        grown = extend_ossm(ossm, extra, page_size=50)
        assert grown.upper_bound((2, 3)) != ossm.upper_bound((2, 3))
        service = BoundQueryService(ossm)
        inner = service._evaluate

        async def main():
            started = asyncio.Event()
            release = asyncio.Event()

            async def gated(current, keys):
                started.set()
                await release.wait()
                return await inner(current, keys)

            service._evaluate = gated
            async with service:
                held = asyncio.create_task(service.query_batch([(2, 3)]))
                await started.wait()
                assert service.update(grown) is True
                release.set()
                old = await held
                assert old == [ossm.upper_bound((2, 3))]
                assert old.epoch == ossm.epoch
                stats = service.stats()
                assert stats["cache_entries"] == 0
                assert stats["cache"]["stale_drops"] == 1
                service._evaluate = inner
                new = await service.query_batch([(2, 3)])
                assert new == [grown.upper_bound((2, 3))]
                assert new.epoch == grown.epoch

        run(asyncio.wait_for(main(), 10))

    def test_update_rejects_older_epoch(self, ossm):
        extra = generate_quest(
            n_transactions=100, n_items=N_ITEMS, seed=7,
        )
        grown = extend_ossm(ossm, extra, page_size=50)

        async def main():
            async with BoundQueryService(grown) as service:
                with pytest.raises(ValueError, match="backwards"):
                    service.update(ossm)

        run(main())

    def test_same_epoch_reshape_clears_cache(self, ossm):
        coarser = ossm.merge_segments([[0, 1], [2, 3], [4, 5]])
        assert coarser.epoch == ossm.epoch

        async def main():
            async with BoundQueryService(ossm) as service:
                await service.query((2, 3))
                service.update(coarser)
                bound = await service.query((2, 3))
                assert bound == coarser.upper_bound((2, 3))

        run(main())

    def test_reshape_mid_evaluation_does_not_cache_the_old_bound(
        self, ossm
    ):
        """A same-epoch reshape passes the cache's epoch check, so a
        batch evaluated on the old map must not be cached for the new
        one: the next query reads the new map's bound."""
        coarser = ossm.merge_segments([[0, 1], [2, 3], [4, 5]])
        itemset = (0, 3)
        assert ossm.upper_bound(itemset) == 47
        assert coarser.upper_bound(itemset) == 48
        service = BoundQueryService(ossm)
        inner = service._evaluate

        async def main():
            started = asyncio.Event()
            release = asyncio.Event()

            async def gated(current, keys):
                started.set()
                await release.wait()
                return await inner(current, keys)

            service._evaluate = gated
            async with service:
                held = asyncio.create_task(service.query_batch([itemset]))
                await started.wait()
                assert service.update(coarser) is True
                release.set()
                assert await held == [47]
                stats = service.stats()
                assert stats["cache_entries"] == 0
                assert stats["cache"]["stale_drops"] == 1
                service._evaluate = inner
                assert await service.query(itemset) == 48

        run(asyncio.wait_for(main(), 10))

    def test_update_with_same_object_is_noop(self, ossm):
        async def main():
            async with BoundQueryService(ossm) as service:
                await service.query((1, 2))
                assert service.update(ossm) is False
                assert service.stats()["cache"]["invalidations"] == 0

        run(main())


@settings(
    max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(
                st.just("query"),
                st.lists(
                    st.integers(min_value=0, max_value=19),
                    min_size=0, max_size=3,
                ),
            ),
            st.tuples(st.just("extend"), st.integers(0, 2**16)),
        ),
        min_size=1, max_size=8,
    )
)
def test_no_stale_bound_under_interleaving(ops):
    """Interleaved queries and extensions never serve a stale bound."""
    base = generate_quest(
        n_transactions=120, n_items=20,
        avg_transaction_len=5.0, n_patterns=20, seed=1,
    )
    paged = PagedDatabase(base, page_size=30)
    current = GreedySegmenter().segment(paged, n_segments=4).ossm

    async def main(current):
        async with BoundQueryService(current) as service:
            for op, payload in ops:
                if op == "query":
                    bound = await service.query(payload)
                    assert bound == current.upper_bound(payload)
                    # Ask again: the cached answer must agree too.
                    assert await service.query(payload) == bound
                else:
                    extra = generate_quest(
                        n_transactions=40, n_items=20,
                        avg_transaction_len=5.0, n_patterns=20,
                        seed=payload,
                    )
                    current = extend_ossm(current, extra, page_size=30)
                    service.update(current)
                    assert service.epoch == current.epoch

    asyncio.run(main(current))


# -- observability -------------------------------------------------------


class TestObservability:
    def test_metrics_and_spans(self, ossm):
        registry = MetricsRegistry()
        recorder = TraceRecorder()

        async def main():
            async with BoundQueryService(ossm) as service:
                await service.query_batch([(1, 2), (3, 4)])
                await service.query((1, 2))

        with use_registry(registry), use_recorder(recorder):
            run(main())
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["serve.queries"] == 3
        assert counters["serve.cache.misses"] == 2
        assert counters["serve.cache.hits"] == 1
        assert snapshot["gauges"]["serve.queue_depth"] == 0
        assert "serve.batch_seconds" in snapshot["timers"]
        names = {span["name"] for span in recorder.to_dicts()}
        assert "serve.batch" in names
