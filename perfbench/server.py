"""Traced gateway for the benchmark's traced run.

Builds what ``repro serve --ossm MAP --listen 127.0.0.1:0`` builds —
one ``TenantRegistry`` with the CLI's defaults, the map as tenant
``default``, a ``Gateway`` on a free loopback port and an active
metrics registry — and wraps three entry points on the served objects:

* ``Tenant.query_batch`` → ``tenant.query_batch`` spans (one per
  request, from the gateway into admission);
* ``BoundQueryService.query_batch`` → ``service.query_batch`` spans
  (one per flushed admission batch);
* ``OSSM.upper_bounds`` on the served map → ``ossm.upper_bounds``
  spans (Equation (1) evaluation, in the service's worker thread).

Spans stay in memory; on SIGTERM or SIGINT the gateway drains and the
spans, the tenant's stats and the metric counters are written to the
``--out`` JSON file. Run as ``python perfbench/server.py --ossm MAP
--out SPANS.json``; it prints the CLI's boot line.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from dataclasses import asdict

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from repro.core.ossm import OSSM  # noqa: E402
from repro.obs.metrics import MetricsRegistry, use_registry  # noqa: E402
from repro.serve.gateway import Gateway  # noqa: E402
from repro.serve.tenants import TenantQuota, TenantRegistry  # noqa: E402

from spans import Recorder  # noqa: E402


def wrap_async(recorder: Recorder, name: str, call):
    async def traced(itemsets, *args, **kwargs):
        start = time.perf_counter()
        try:
            return await call(itemsets, *args, **kwargs)
        finally:
            recorder.add(name, start, time.perf_counter(), n=len(itemsets))
    return traced


def wrap_sync(recorder: Recorder, name: str, call):
    def traced(itemsets):
        start = time.perf_counter()
        try:
            return call(itemsets)
        finally:
            recorder.add(name, start, time.perf_counter(), n=len(itemsets))
    return traced


async def serve(ossm_path: str, out_path: str) -> None:
    recorder = Recorder()
    metrics = MetricsRegistry()
    ossm = OSSM.load(ossm_path)
    # The CLI's defaults: --max-pending 1024, --cache-size 4096, no
    # quota, no timeout, serial evaluation.
    registry = TenantRegistry(
        max_pending_total=1024, default_quota=TenantQuota(),
        cache_size=4096,
    )
    tenant = registry.create("default", ossm)
    tenant.query_batch = wrap_async(
        recorder, "tenant.query_batch", tenant.query_batch
    )
    service = tenant.service
    service.query_batch = wrap_async(
        recorder, "service.query_batch", service.query_batch
    )
    served = service.ossm
    served.upper_bounds = wrap_sync(
        recorder, "ossm.upper_bounds", served.upper_bounds
    )
    with use_registry(metrics):
        async with Gateway(registry, host="127.0.0.1", port=0) as gateway:
            print(
                f"gateway on {gateway.url}/ serving tenant 'default' "
                f"at epoch {tenant.epoch}",
                flush=True,
            )
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, stop.set)
            await stop.wait()
            gateway.begin_drain()
            stats = tenant.stats()
            await registry.aclose()
        snapshot = metrics.snapshot()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "spans": [asdict(span) for span in recorder.spans],
                "stats": stats,
                "counters": snapshot.get("counters", {}),
            },
            handle,
        )
    print("gateway stopped", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ossm", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    asyncio.run(serve(args.ossm, args.out))


if __name__ == "__main__":
    main()
