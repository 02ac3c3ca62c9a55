"""Driving the multi-tenant HTTP gateway from a plain client.

Run:  python examples/gateway_client.py            # self-contained
      python examples/gateway_client.py http://host:port  # existing gateway

Demonstrates the :mod:`repro.serve` network edge end to end, using
nothing but the standard library on the client side (the wire format
is plain HTTP/1.1 + JSON, so ``urllib`` is all a consumer needs):

1. upload an OSSM artifact with ``PUT /v1/tenants/{t}/ossm`` — the
   first upload provisions the tenant (201), later uploads replace its
   map behind an epoch bump (200);
2. query single and batched Equation (1) bounds with
   ``POST /v1/tenants/{t}/bounds`` — every answer is byte-identical to
   calling ``ossm.upper_bound`` yourself;
3. republish a grown map mid-service and watch the reported epoch
   advance (DESIGN.md §15);
4. read per-tenant stats and the Prometheus ``/metrics`` exposition.

With no argument the example boots its own in-process
:class:`~repro.serve.Gateway`; with a URL argument it drives a gateway
someone else started
(``repro-ossm serve --ossm map.npz --listen :8080``) — CI uses both
modes.
"""

import asyncio
import json
import sys
import tempfile
import time
import urllib.error
import urllib.request

from repro import Gateway, Session, generate_quest
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience import Backoff

MAX_RETRIES = 5


def call(base, method, path, body=b"", expect=200):
    """One HTTP call, retrying 429/503 as the gateway instructs.

    A well-behaved client treats 429 (quota shed) and 503 (draining)
    as "come back later", not errors: it honors the ``Retry-After``
    header the gateway attaches, falling back to — and never below —
    a seeded exponential :class:`~repro.resilience.Backoff`, for a
    bounded number of attempts.
    """
    backoff = Backoff(base=0.05, max_delay=2.0, seed=0)
    for attempt in range(MAX_RETRIES + 1):
        request = urllib.request.Request(
            base + path, data=body, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                status, payload = response.status, response.read()
                headers = response.headers
        except urllib.error.HTTPError as error:
            status, payload = error.code, error.read()
            headers = error.headers
        retryable = status in (429, 503) and status != expect
        if not retryable or attempt == MAX_RETRIES:
            break
        try:
            retry_after = float(headers.get("Retry-After") or 0.0)
        except ValueError:
            retry_after = 0.0
        delay = min(max(retry_after, backoff.next_delay()), 5.0)
        print(
            f"  {method} {path} -> {status}; retrying in {delay:.2f}s "
            f"(attempt {attempt + 1}/{MAX_RETRIES})"
        )
        time.sleep(delay)
    assert status == expect, (method, path, status, payload)
    if payload.strip().startswith((b"{", b"[")):
        return json.loads(payload)
    return payload.decode("utf-8", "replace")


def drive(base: str, ossm, grown) -> None:
    with tempfile.NamedTemporaryFile(suffix=".npz") as artifact:
        ossm.save(artifact.name)
        created = call(
            base, "PUT", "/v1/tenants/demo/ossm",
            open(artifact.name, "rb").read(), expect=201,
        )
    print(
        f"  provisioned tenant {created['tenant']!r}: "
        f"{created['n_segments']} segments x {created['n_items']} items "
        f"at epoch {created['epoch']}"
    )

    # Single bound; the gateway answer equals the serial Equation (1).
    answer = call(
        base, "POST", "/v1/tenants/demo/bounds",
        json.dumps({"itemset": [3, 7]}).encode(),
    )
    assert answer["bound"] == ossm.upper_bound((3, 7))
    print(f"  bound(3, 7) = {answer['bound']} @ epoch {answer['epoch']}")

    # A batch: mixed cardinalities in one request.
    batch = [[1, 2], [1, 2, 3], [5, 9]]
    answer = call(
        base, "POST", "/v1/tenants/demo/bounds",
        json.dumps({"itemsets": batch}).encode(),
    )
    assert answer["bounds"] == [
        ossm.upper_bound(tuple(s)) for s in batch
    ]
    print(f"  batch of {len(batch)} -> {answer['bounds']}")

    # Republish a grown map: the epoch bumps, caches invalidate, and
    # the next answers come from the new map.
    with tempfile.NamedTemporaryFile(suffix=".npz") as artifact:
        grown.save(artifact.name)
        published = call(
            base, "PUT", "/v1/tenants/demo/ossm",
            open(artifact.name, "rb").read(),
        )
    assert published["created"] is False
    answer = call(
        base, "POST", "/v1/tenants/demo/bounds",
        json.dumps({"itemset": [3, 7]}).encode(),
    )
    assert answer["epoch"] == published["epoch"]
    assert answer["bound"] == grown.upper_bound((3, 7))
    print(
        f"  republished at epoch {published['epoch']}: "
        f"fresh bound(3, 7) = {answer['bound']}"
    )

    stats = call(base, "GET", "/v1/tenants/demo/stats")
    print(
        f"  stats: {stats['admission']['requests']} requests, "
        f"hit rate {stats['cache']['hit_rate']:.0%}, "
        f"epoch {stats['epoch']}"
    )
    metrics = call(base, "GET", "/metrics")
    served = [
        line for line in metrics.splitlines()
        if line.startswith("repro_serve_") and not line.startswith("#")
    ]
    print(f"  metrics: {len(served)} serve-plane series exported")
    for line in served[:3]:
        print(f"    {line}")


def build_maps():
    session = (
        Session(page_size=50)
        .generate(
            "quest",
            n_transactions=2_000,
            n_items=200,
            avg_transaction_len=8.0,
            seed=11,
        )
        .segment(n_segments=20, algorithm="greedy")
    )
    ossm = session.ossm
    session.extend(
        generate_quest(
            n_transactions=500, n_items=200,
            avg_transaction_len=8.0, seed=12,
        )
    )
    return ossm, session.ossm


async def main() -> None:
    print("== multi-tenant gateway ==")
    ossm, grown = build_maps()
    if len(sys.argv) > 1:
        base = sys.argv[1].rstrip("/")
        print(f"driving external gateway at {base}")
        await asyncio.to_thread(drive, base, ossm, grown)
    else:
        with use_registry(MetricsRegistry()):
            async with Gateway() as gateway:
                print(f"booted in-process gateway at {gateway.url}")
                # urllib is blocking; keep the gateway's loop free.
                await asyncio.to_thread(drive, gateway.url, ossm, grown)
    print("done: every served bound matched the serial Equation (1).")


if __name__ == "__main__":
    asyncio.run(main())
