"""Closed-loop load test of the online bound-query service.

A fleet of client coroutines issues bound queries back-to-back (each
client sends its next query only after the previous answer arrives —
a closed loop, so the offered load adapts to service speed). The
query stream is skewed: itemsets are drawn from a small popular pool
plus a long uniform tail, the access pattern the epoch-tagged LRU
cache exists for.

Emits one ``BENCH {json}`` line with throughput, p50/p99 latency, and
the cache hit rate, and asserts:

* every served bound equals the serial Equation (1) value;
* the hit rate on the skewed stream is strictly positive.

The second leg drives the full multi-tenant HTTP gateway: a 100+
client fleet spread over four tenants plus a quota-capped "metered"
tenant flooded past its budget, with a mid-run epoch bump on one
tenant. It asserts tenant isolation (the flood sheds 429 while the
other tenants' p99 stays within 2x their unloaded baseline), zero
dropped in-flight queries across the epoch swap, and exactness of
every served bound against the map of the epoch that answered it.

Scale knobs: ``REPRO_SERVE_BENCH_QUERIES`` overrides the per-client
query count of the in-process leg; ``REPRO_GATEWAY_BENCH_QUERIES``
does the same for the gateway fleet.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import time

from _shared import emit_bench, report
from repro.bench import format_table
from repro.bench.workloads import QuestConfig, QuestGenerator, current_scale
from repro.core import GreedySegmenter, extend_ossm
from repro.data.pages import PagedDatabase
from repro.serve import (
    BoundQueryService,
    Gateway,
    TenantQuota,
    TenantRegistry,
)

N_CLIENTS = 8
POPULAR_POOL = 32
TAIL_POOL = 512
POPULAR_SHARE = 0.7
N_SEGMENTS = 40


def _workload():
    scale = current_scale()
    config = QuestConfig(
        n_transactions=scale.n_transactions,
        n_items=scale.n_items,
        avg_transaction_len=10.0,
        avg_pattern_len=4.0,
        n_patterns=scale.n_patterns,
        seed=13,
    )
    return QuestGenerator(config).generate()


def _query_stream(n_items: int, n_queries: int, seed: int):
    """Skewed itemset stream: hot pool with a uniform cold tail."""
    rng = random.Random(seed)

    def draw_itemset():
        size = rng.choice((1, 2, 2, 3))
        return tuple(sorted(rng.sample(range(n_items), size)))

    popular = [draw_itemset() for _ in range(POPULAR_POOL)]
    tail = [draw_itemset() for _ in range(TAIL_POOL)]
    stream = []
    for _ in range(n_queries):
        if rng.random() < POPULAR_SHARE:
            stream.append(rng.choice(popular))
        else:
            stream.append(rng.choice(tail))
    return stream


async def _closed_loop(service, streams):
    """Each client issues its stream back-to-back; returns latencies."""
    latencies: list[float] = []

    async def client(stream):
        for itemset in stream:
            start = time.perf_counter()
            await service.query(itemset)
            latencies.append(time.perf_counter() - start)

    await asyncio.gather(*(client(stream) for stream in streams))
    return latencies


def _percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def test_serve_closed_loop_load():
    db = _workload()
    paged = PagedDatabase(db, page_size=100)
    ossm = GreedySegmenter().segment(paged, n_segments=N_SEGMENTS).ossm

    per_client = int(os.environ.get("REPRO_SERVE_BENCH_QUERIES", "250"))
    streams = [
        _query_stream(ossm.n_items, per_client, seed=100 + client)
        for client in range(N_CLIENTS)
    ]

    service = BoundQueryService(ossm, cache_size=2048, slo_target=0.25)

    async def run():
        async with service:
            start = time.perf_counter()
            latencies = await _closed_loop(service, streams)
            wall = time.perf_counter() - start

            # Exactness spot-check: replay a sample against the serial
            # Equation (1) path.
            sample = streams[0][:50]
            served = await service.query_batch(sample)
            serial = [ossm.upper_bound(itemset) for itemset in sample]
            assert served == serial
            return latencies, wall

    latencies, wall = asyncio.run(run())
    stats = service.stats()
    hit_rate = stats["cache"]["hit_rate"]
    assert hit_rate > 0, "skewed stream must produce cache hits"

    n_queries = len(latencies)
    latencies.sort()
    rolling = stats["latency"]
    slo = stats["slo"]
    record = {
        "bench": "serve_closed_loop",
        "clients": N_CLIENTS,
        "queries": n_queries,
        "wall_seconds": round(wall, 4),
        "throughput_qps": round(n_queries / wall, 1),
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        "service_p50_ms": rolling["p50_ms"],
        "service_p95_ms": rolling["p95_ms"],
        "service_p99_ms": rolling["p99_ms"],
        "slo_violations": slo["violations"],
        "slo_budget_remaining": round(slo["budget_remaining"], 4),
        "cache_hit_rate": round(hit_rate, 4),
        "cache_evictions": stats["cache"]["evictions"],
        "epoch": stats["epoch"],
    }
    emit_bench(record)

    rows = [
        [
            str(N_CLIENTS),
            str(n_queries),
            f"{record['throughput_qps']:.0f}",
            f"{record['p50_ms']:.2f}",
            f"{record['p99_ms']:.2f}",
            f"{record['service_p95_ms']:.2f}",
            f"{hit_rate:.0%}",
            f"{slo['budget_remaining']:.0%}",
        ]
    ]
    report(
        "Online bound service — closed-loop load",
        format_table(
            ["clients", "queries", "qps", "p50 ms", "p99 ms",
             "svc p95 ms", "hit rate", "SLO budget"],
            rows,
        ),
    )
    # The service-side rolling estimator saw every batch.
    assert rolling["window_count"] > 0


# --------------------------------------------------------------------------
# Multi-tenant gateway load test
# --------------------------------------------------------------------------

TENANTS = ("t0", "t1", "t2", "t3")
CLIENTS_PER_TENANT = 25  # 4 x 25 = 100 concurrent fleet clients
ABUSER_CLIENTS = 4
METERED_RATE = 40.0  # queries/s granted to the metered tenant


async def _exchange(reader, writer, method, path, body):
    """One keep-alive HTTP exchange; returns (status, parsed JSON)."""
    writer.write(
        f"{method} {path} HTTP/1.1\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        if line.lower().startswith("content-length:"):
            length = int(line.partition(":")[2])
    payload = await reader.readexactly(length) if length else b""
    return status, (json.loads(payload) if payload else None)


async def _fleet_client(gateway, tenant, stream, results, on_done):
    """Closed-loop client: one persistent connection, one query at a
    time, recording (epoch, bound, latency) per answer."""
    reader, writer = await asyncio.open_connection(
        gateway.host, gateway.port
    )
    try:
        path = f"/v1/tenants/{tenant}/bounds"
        for itemset in stream:
            body = json.dumps({"itemset": list(itemset)}).encode()
            start = time.perf_counter()
            status, payload = await _exchange(
                reader, writer, "POST", path, body
            )
            latency = time.perf_counter() - start
            assert status == 200, (tenant, itemset, status, payload)
            results[tenant].append(
                (itemset, payload["epoch"], payload["bound"], latency)
            )
            on_done()
    finally:
        writer.close()
        await writer.wait_closed()


async def _abuser_client(gateway, n_requests, counts):
    """Floods the metered tenant; tallies 200s vs 429 sheds."""
    reader, writer = await asyncio.open_connection(
        gateway.host, gateway.port
    )
    try:
        body = json.dumps({"itemset": [1]}).encode()
        for _ in range(n_requests):
            status, payload = await _exchange(
                reader, writer, "POST", "/v1/tenants/metered/bounds", body
            )
            assert status in (200, 429), (status, payload)
            counts[status] += 1
            if status == 429:
                assert payload["retry_after"] > 0
    finally:
        writer.close()
        await writer.wait_closed()


def _jain(values):
    """Jain's fairness index: 1.0 = perfectly even shares."""
    total = sum(values)
    squares = sum(v * v for v in values)
    return (total * total) / (len(values) * squares) if squares else 1.0


async def _run_fleet(gateway, streams, bump=None):
    """Drive the whole fleet; optionally publish *bump* to a tenant
    once half the fleet's queries have completed."""
    results = {tenant: [] for tenant in TENANTS}
    total = sum(len(s) for _, s in streams)
    done = 0
    halfway = asyncio.Event()

    def on_done():
        nonlocal done
        done += 1
        if done * 2 >= total:
            halfway.set()

    async def publisher():
        await halfway.wait()
        tenant, grown = bump
        path = f"/v1/tenants/{tenant}/ossm"
        reader, writer = await asyncio.open_connection(
            gateway.host, gateway.port
        )
        try:
            status, payload = await _exchange(
                reader, writer, "PUT", path, grown
            )
            assert status == 200 and payload["created"] is False
        finally:
            writer.close()
            await writer.wait_closed()

    tasks = [
        _fleet_client(gateway, tenant, stream, results, on_done)
        for tenant, stream in streams
    ]
    if bump is not None:
        tasks.append(publisher())
    start = time.perf_counter()
    await asyncio.gather(*tasks)
    return results, time.perf_counter() - start


def test_gateway_multi_tenant_load(tmp_path):
    db = _workload()
    paged = PagedDatabase(db, page_size=100)
    ossm = GreedySegmenter().segment(paged, n_segments=N_SEGMENTS).ossm
    extra = QuestGenerator(
        QuestConfig(
            n_transactions=max(200, len(db.transactions) // 4),
            n_items=ossm.n_items,
            avg_transaction_len=10.0,
            avg_pattern_len=4.0,
            n_patterns=40,
            seed=29,
        )
    ).generate()
    grown = extend_ossm(ossm, extra, page_size=100)
    grown_path = tmp_path / "grown.npz"
    grown.save(grown_path)
    grown_blob = grown_path.read_bytes()
    maps = {ossm.epoch: ossm}

    per_client = int(os.environ.get("REPRO_GATEWAY_BENCH_QUERIES", "25"))

    def fleet_streams(seed_base):
        return [
            (tenant, _query_stream(
                ossm.n_items, per_client,
                seed=seed_base + 37 * tenant_index + client,
            ))
            for tenant_index, tenant in enumerate(TENANTS)
            for client in range(CLIENTS_PER_TENANT)
        ]

    registry = TenantRegistry()

    async def run():
        async with registry:
            for tenant in TENANTS:
                registry.create(tenant, ossm)
            registry.create(
                "metered", ossm,
                quota=TenantQuota(rate=METERED_RATE, burst=METERED_RATE),
            )
            async with Gateway(registry) as gateway:
                # Phase A — unloaded baseline: the fleet alone.
                base_results, base_wall = await _run_fleet(
                    gateway, fleet_streams(1000)
                )

                # Phase B — same fleet plus a noisy neighbour flooding
                # the metered tenant, and an epoch bump on t0 landing
                # once half the fleet's queries are in.
                shed_counts = {200: 0, 429: 0}
                fleet = _run_fleet(
                    gateway, fleet_streams(5000), bump=("t0", grown_blob)
                )
                abuse = asyncio.gather(*(
                    _abuser_client(gateway, per_client * 8, shed_counts)
                    for _ in range(ABUSER_CLIENTS)
                ))
                (load_results, load_wall), _ = await asyncio.gather(
                    fleet, abuse
                )

                # Exactness replay: 50 itemsets per tenant, batched
                # over HTTP, against the vectorized Equation (1) path
                # (upper_bounds wants one cardinality, so: all pairs).
                rng = random.Random(9)
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                try:
                    for tenant in TENANTS:
                        sample = [
                            tuple(sorted(rng.sample(
                                range(ossm.n_items), 2
                            )))
                            for _ in range(50)
                        ]
                        status, payload = await _exchange(
                            reader, writer, "POST",
                            f"/v1/tenants/{tenant}/bounds",
                            json.dumps(
                                {"itemsets": [list(s) for s in sample]}
                            ).encode(),
                        )
                        assert status == 200
                        serving = maps[payload["epoch"]]
                        assert payload["bounds"] == list(
                            serving.upper_bounds(sample)
                        )
                finally:
                    writer.close()
                    await writer.wait_closed()
                return base_results, base_wall, load_results, load_wall, \
                    shed_counts

    maps[grown.epoch if grown.epoch > ossm.epoch else ossm.epoch + 1] = \
        grown
    base_results, base_wall, load_results, load_wall, shed_counts = \
        asyncio.run(run())

    # Zero dropped queries: every client got every answer (asserted
    # per-response in the client), and every bound is exact for the
    # map of the epoch that answered it — including across the bump.
    epochs_seen = set()
    for tenant in TENANTS:
        assert len(load_results[tenant]) == per_client * CLIENTS_PER_TENANT
        for itemset, epoch, bound, _latency in load_results[tenant]:
            epochs_seen.add((tenant, epoch))
            assert bound == maps[epoch].upper_bound(itemset)
    # The bump landed mid-run on t0: bounds were served under both the
    # old and the new epoch, each exact for its own map (checked above).
    t0_epochs = sorted(e for t, e in epochs_seen if t == "t0")
    assert len(t0_epochs) >= 2, t0_epochs

    # The flood was shed with 429s, not served beyond quota.
    assert shed_counts[429] > 0
    assert shed_counts[200] >= 1

    def p99(tenant_results):
        latencies = sorted(lat for *_rest, lat in tenant_results)
        return _percentile(latencies, 0.99)

    base_p99 = {t: p99(base_results[t]) for t in TENANTS}
    load_p99 = {t: p99(load_results[t]) for t in TENANTS}
    # Isolation: the abused quota never leaks into the other tenants'
    # tail. The 1 ms floor absorbs scheduler noise on sub-ms tails.
    for tenant in TENANTS:
        assert load_p99[tenant] <= 2 * max(base_p99[tenant], 1e-3), (
            tenant, base_p99[tenant], load_p99[tenant]
        )

    queries = {t: len(load_results[t]) for t in TENANTS}
    wall_tput = {
        t: queries[t] / load_wall for t in TENANTS
    }
    fairness = _jain(list(wall_tput.values()))
    n_fleet = len(TENANTS) * CLIENTS_PER_TENANT
    record = {
        "bench": "gateway",
        "clients": n_fleet + ABUSER_CLIENTS,
        "tenants": len(TENANTS) + 1,
        "queries": sum(queries.values()),
        "abuser_sheds_429": shed_counts[429],
        "abuser_served_200": shed_counts[200],
        "baseline_wall_seconds": round(base_wall, 4),
        "loaded_wall_seconds": round(load_wall, 4),
        "throughput_qps": round(sum(queries.values()) / load_wall, 1),
        "jain_fairness": round(fairness, 4),
        "per_tenant_p99_ms": {
            t: round(load_p99[t] * 1e3, 3) for t in TENANTS
        },
        "per_tenant_baseline_p99_ms": {
            t: round(base_p99[t] * 1e3, 3) for t in TENANTS
        },
        "epoch_bump_tenant": "t0",
        "epochs_served_t0": t0_epochs,
        "exactness_replay_samples": 50 * len(TENANTS),
    }
    emit_bench(record)
    assert fairness > 0.9, wall_tput

    rows = [
        [
            tenant,
            str(queries[tenant]),
            f"{wall_tput[tenant]:.0f}",
            f"{base_p99[tenant] * 1e3:.2f}",
            f"{load_p99[tenant] * 1e3:.2f}",
        ]
        for tenant in TENANTS
    ] + [
        [
            "metered",
            str(shed_counts[200]),
            "-",
            "-",
            f"(shed {shed_counts[429]} @429)",
        ]
    ]
    report(
        "Gateway — multi-tenant closed-loop load",
        format_table(
            ["tenant", "served", "qps", "base p99 ms", "loaded p99 ms"],
            rows,
        ),
    )
