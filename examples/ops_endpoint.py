"""Telemetry export walkthrough: metrics, health and SLOs off the gateway.

Run:  python examples/ops_endpoint.py

Demonstrates the export plane (DESIGN.md §12) end to end:

1. mine with a metrics registry active so there is telemetry to export;
2. serve the map as the one tenant of a
   :class:`~repro.serve.TenantRegistry` with a latency SLO, behind a
   :class:`~repro.serve.Gateway`, and query it over HTTP;
3. scrape ``/metrics`` (Prometheus text), ``/health`` and ``/stats``
   over plain HTTP — the same routes
   ``repro-ossm serve --ossm map.npz --listen :9100`` exposes;
4. read the tenant's rolling p50/p95/p99 latency and error budget out
   of the scraped ``/stats``.

The gateway binds port 0 here (any free port) so the example never
collides with a real deployment.
"""

import asyncio
import json

from repro import (
    Apriori,
    Gateway,
    MetricsRegistry,
    OSSMPruner,
    Session,
    TenantRegistry,
    use_registry,
)


async def http(
    host: str, port: int, method: str, path: str, body: bytes = b""
) -> str:
    """One minimal HTTP/1.1 request — what a Prometheus scrape boils
    down to. Returns the response body."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n".encode("latin-1") + body
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

        # One tenant with a 250 ms latency SLO, behind the gateway.
        tenants = TenantRegistry(cache_size=512, slo_target=0.25)
        tenants.create("default", session.ossm)
        async with tenants, Gateway(tenants) as gateway:
            host, port = gateway.host, gateway.port
            for itemset in [(3, 7), (12,), (3, 7), (1, 2, 3)]:
                answer = json.loads(await http(
                    host, port, "POST", "/v1/tenants/default/bounds",
                    json.dumps({"itemset": itemset}).encode(),
                ))
                assert answer["bound"] == session.ossm.upper_bound(itemset)

            metrics = await http(host, port, "GET", "/metrics")
            print(f"\n-- /metrics ({len(metrics.splitlines())} lines) --")
            for line in metrics.splitlines():
                if line.startswith(
                    ("repro_apriori_frequent", "repro_serve_cache")
                ):
                    print(f"  {line}")

            health = await http(host, port, "GET", "/health")
            print(f"-- /health --\n  {health.strip()}")

            stats = json.loads(await http(host, port, "GET", "/stats"))

        tenant = stats["tenants"]["default"]
        latency, slo = tenant["latency"], tenant["slo"]
        print(
            f"-- /stats: tenant 'default' at epoch {tenant['epoch']}, "
            f"{tenant['pending']} pending --\n"
            f"  p50 {latency['p50_ms']:.2f} ms / "
            f"p95 {latency['p95_ms']:.2f} ms / "
            f"p99 {latency['p99_ms']:.2f} ms "
            f"over {latency['window_count']} batches\n"
            f"  {slo['violations']}/{slo['requests']} violations, "
            f"error budget {slo['budget_remaining']:.0%} remaining"
        )

    print("done: scraped live telemetry off the serving gateway.")


if __name__ == "__main__":
    asyncio.run(main())
