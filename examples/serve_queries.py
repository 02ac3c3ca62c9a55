"""Serving Equation (1) bounds online with epoch-safe caching.

Run:  python examples/serve_queries.py

Demonstrates the :mod:`repro.serve` layer end to end:

1. build a collection and its OSSM through the ``repro.Session``
   facade;
2. stand up a :class:`~repro.serve.BoundQueryService` and answer
   single and batched bound queries (every answer is byte-identical to
   calling ``ossm.upper_bound`` yourself — the service only adds
   caching, one evaluation per distinct itemset of a batch, and
   back-pressure);
3. grow the collection with ``Session.extend`` — the map's epoch
   advances, the service's cache invalidates wholesale, and the next
   queries are answered against the grown map (DESIGN.md §10);
4. show the cache/queue statistics the service exposes.
"""

import asyncio

from repro import Session, generate_quest


async def main() -> None:
    print("== online bound serving ==")
    session = (
        Session(page_size=50)
        .generate(
            "quest",
            n_transactions=5_000,
            n_items=400,
            avg_transaction_len=8.0,
            seed=11,
        )
        .segment(n_segments=40, algorithm="greedy")
    )
    print(f"pipeline: {session}")

    async with session.serve(cache_size=512) as service:
        # Single queries; the second {3, 7} is a cache hit.
        for itemset in [(3, 7), (12,), (3, 7)]:
            bound = await service.query(itemset)
            exact = session.ossm.upper_bound(itemset)
            assert bound == exact
            print(f"  bound{itemset} = {bound}")

        # A batch: mixed cardinalities are fine, and a repeated itemset
        # is evaluated once.
        batch = [(1, 2), (1, 2, 3), (5, 9), (1, 2)]
        bounds = await service.query_batch(batch)
        print(f"  batch of {len(batch)} -> {bounds}")

        before = service.stats()
        print(
            f"  epoch {before['epoch']}: "
            f"hit rate {before['cache']['hit_rate']:.0%} over "
            f"{before['cache']['hits'] + before['cache']['misses']} lookups"
        )

        # Grow the collection: epoch bumps, cache invalidates wholesale.
        extra = generate_quest(
            n_transactions=1_000, n_items=400,
            avg_transaction_len=8.0, seed=12,
        )
        session.extend(extra)
        bound = await service.query((3, 7))
        assert bound == session.ossm.upper_bound((3, 7))
        after = service.stats()
        print(
            f"  after extend: epoch {after['epoch']}, "
            f"{after['cache']['invalidations']} entries invalidated, "
            f"fresh bound{(3, 7)} = {bound}"
        )

    print("done: every served bound matched the serial Equation (1).")


if __name__ == "__main__":
    asyncio.run(main())
