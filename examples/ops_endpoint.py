"""Telemetry export walkthrough: metrics, the ops endpoint, and SLOs.

Run:  python examples/ops_endpoint.py

Demonstrates the export plane (DESIGN.md §12) end to end:

1. mine with a metrics registry active so there is telemetry to export;
2. stand up a :class:`~repro.serve.BoundQueryService` with a latency
   SLO and an :class:`~repro.obs.OpsServer` beside it, then scrape
   ``/metrics`` (Prometheus text), ``/health``, and ``/stats`` over
   plain HTTP — the same endpoints
   ``repro-ossm serve --ossm map.npz --ops-port 9100`` exposes;
3. read the rolling p50/p95/p99 latency and the error budget out of
   ``service.stats()``.

The endpoint binds port 0 here (any free port) so the example never
collides with a real deployment.
"""

import asyncio

from repro import (
    Apriori,
    MetricsRegistry,
    OpsServer,
    OSSMPruner,
    Session,
    use_registry,
)


async def http_get(host: str, port: int, path: str) -> str:
    """One minimal HTTP/1.1 GET — what a Prometheus scrape boils down to."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Connection: close\r\n\r\n".encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return raw.decode("utf-8").split("\r\n\r\n", 1)[1]


async def main() -> None:
    print("== telemetry export plane ==")
    registry = MetricsRegistry()
    with use_registry(registry):
        session = (
            Session(page_size=50)
            .generate(
                "quest",
                n_transactions=4_000,
                n_items=300,
                avg_transaction_len=8.0,
                seed=21,
            )
            .segment(n_segments=30, algorithm="greedy")
        )
        result = Apriori(pruner=OSSMPruner(session.ossm)).mine(
            session.database, 0.01
        )
        print(f"mined {len(result.frequent)} frequent itemsets")

        # A service with a 250 ms latency SLO, and the ops endpoint
        # riding the same event loop.
        service = session.serve(cache_size=512, slo_target=0.25)
        async with service, OpsServer(service=service) as ops:
            for itemset in [(3, 7), (12,), (3, 7), (1, 2, 3)]:
                await service.query(itemset)

            metrics = await http_get(ops.host, ops.port, "/metrics")
            print(f"\n-- /metrics ({len(metrics.splitlines())} lines) --")
            for line in metrics.splitlines():
                if line.startswith(
                    ("repro_apriori_frequent", "repro_serve_cache")
                ):
                    print(f"  {line}")

            health = await http_get(ops.host, ops.port, "/health")
            print(f"-- /health --\n  {health.strip()}")

        stats = service.stats()
        latency, slo = stats["latency"], stats["slo"]
        print(
            f"-- SLOs --\n"
            f"  p50 {latency['p50_ms']:.2f} ms / "
            f"p95 {latency['p95_ms']:.2f} ms / "
            f"p99 {latency['p99_ms']:.2f} ms "
            f"over {latency['window_count']} batches\n"
            f"  {slo['violations']}/{slo['requests']} violations, "
            f"error budget {slo['budget_remaining']:.0%} remaining"
        )

    print("done: scraped live telemetry off the serving loop.")


if __name__ == "__main__":
    asyncio.run(main())
