"""HTTP contract tests for every gateway route.

Each route is pinned down over a real socket: status codes, JSON error
bodies with ``Retry-After``, keep-alive semantics, artifact-upload
verification, quota shedding, and the epoch-bump-during-batch
guarantee (a publish landing mid-flight drops nothing and mislabels
nothing).
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core import OSSM, extend_ossm
from repro.data import generate_quest
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.resilience import FaultPlan, FaultRule, use_faults
from repro.serve import Gateway, TenantQuota, TenantRegistry
from repro.serve import gateway as gateway_module

from .conftest import N_ITEMS


async def http(
    gateway, method, path, body=b"", headers=None, connection=None
):
    """One HTTP/1.1 exchange; returns (status, headers, body bytes)."""
    if connection is None:
        reader, writer = await asyncio.open_connection(
            gateway.host, gateway.port
        )
        close = True
    else:
        reader, writer = connection
        close = False
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {gateway.host}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    for key, value in (headers or {}).items():
        head += f"{key}: {value}\r\n"
    if close:
        head += "Connection: close\r\n"
    writer.write(head.encode("latin-1") + b"\r\n" + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    response_headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        response_headers[key.strip().lower()] = value.strip()
    length = int(response_headers.get("content-length", "0"))
    payload = await reader.readexactly(length) if length else b""
    if close:
        writer.close()
        await writer.wait_closed()
    return status, response_headers, payload


def post_json(gateway, path, payload, connection=None):
    return http(
        gateway, "POST", path, json.dumps(payload).encode("utf-8"),
        connection=connection,
    )


@pytest.fixture()
def artifact(ossm, tmp_path):
    path = tmp_path / "map.npz"
    ossm.save(path)
    return path.read_bytes()


def run(coroutine):
    return asyncio.run(coroutine)


async def raw_exchange(gateway, payload, half_close=False):
    """Send raw bytes; return everything read until the gateway closes."""
    reader, writer = await asyncio.open_connection(
        gateway.host, gateway.port
    )
    writer.write(payload)
    await writer.drain()
    if half_close:
        writer.write_eof()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    return response


def rejections(registry):
    return {
        name: count
        for name, count in registry.snapshot()["counters"].items()
        if name.startswith("serve.gateway.rejected.")
    }


class TestUploadRoute:
    def test_put_creates_then_replaces(self, ossm, artifact):
        async def main():
            async with Gateway() as gateway:
                status, _, body = await http(
                    gateway, "PUT", "/v1/tenants/acme/ossm", artifact
                )
                assert status == 201
                payload = json.loads(body)
                assert payload == {
                    "tenant": "acme", "epoch": 0, "created": True,
                    "n_segments": ossm.n_segments,
                    "n_items": ossm.n_items,
                }
                # Replacing publishes behind an epoch bump.
                status, _, body = await http(
                    gateway, "PUT", "/v1/tenants/acme/ossm", artifact
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["created"] is False
                assert payload["epoch"] == 1

        run(main())

    def test_corrupt_artifact_rejected_with_400(self, artifact):
        damaged = artifact[:-7] + b"garbage"

        async def main():
            async with Gateway() as gateway:
                status, _, body = await http(
                    gateway, "PUT", "/v1/tenants/acme/ossm", damaged
                )
                assert status == 400
                assert json.loads(body)["error"] == "InvalidRequest"
                # The failed upload provisioned nothing.
                status, _, body = await http(
                    gateway, "GET", "/v1/tenants"
                )
                assert json.loads(body)["tenants"] == []

        run(main())

    def test_empty_upload_rejected(self):
        async def main():
            async with Gateway() as gateway:
                status, _, body = await http(
                    gateway, "PUT", "/v1/tenants/acme/ossm", b""
                )
                assert status == 400
                assert "empty upload" in json.loads(body)["message"]

        run(main())


class TestBoundsRoute:
    def test_single_and_batch_are_exact(self, ossm, artifact):
        async def main():
            async with Gateway() as gateway:
                await http(
                    gateway, "PUT", "/v1/tenants/acme/ossm", artifact
                )
                status, _, body = await post_json(
                    gateway, "/v1/tenants/acme/bounds",
                    {"itemset": [1, 2]},
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["bound"] == ossm.upper_bound((1, 2))
                assert payload["epoch"] == 0
                assert "bounds" not in payload

                batch = [[0], [3, 4], [], [1, 2, 3]]
                status, _, body = await post_json(
                    gateway, "/v1/tenants/acme/bounds",
                    {"itemsets": batch},
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["bounds"] == [
                    ossm.upper_bound(tuple(s)) for s in batch
                ]

        run(main())

    @pytest.mark.parametrize(
        "body, fragment",
        [
            (b"not json", "not valid JSON"),
            (b"[1, 2]", "JSON object"),
            (b"{}", "exactly one of"),
            (
                json.dumps(
                    {"itemset": [0], "itemsets": [[1]]}
                ).encode(),
                "exactly one of",
            ),
            (json.dumps({"itemsets": "nope"}).encode(), "JSON array"),
            (json.dumps({"itemsets": [3]}).encode(), "itemset #0"),
            (
                json.dumps({"itemset": [1.5]}).encode(),
                "non-integer",
            ),
            (
                json.dumps({"itemset": [True]}).encode(),
                "non-integer",
            ),
            (
                json.dumps({"itemset": [10**6]}).encode(),
                "out of range",
            ),
            (
                json.dumps({"itemset": [-1]}).encode(),
                "out of range",
            ),
        ],
    )
    def test_malformed_requests_get_400(self, artifact, body, fragment):
        async def main():
            async with Gateway() as gateway:
                await http(
                    gateway, "PUT", "/v1/tenants/acme/ossm", artifact
                )
                status, _, response = await http(
                    gateway, "POST", "/v1/tenants/acme/bounds", body
                )
                assert status == 400, response
                payload = json.loads(response)
                assert payload["error"] == "InvalidRequest"
                assert fragment in payload["message"]
                assert "retry_after" not in payload

        run(main())

    def test_unknown_tenant_is_404(self):
        async def main():
            async with Gateway() as gateway:
                status, _, body = await post_json(
                    gateway, "/v1/tenants/ghost/bounds", {"itemset": [1]}
                )
                assert status == 404
                payload = json.loads(body)
                assert payload["error"] == "UnknownTenant"
                assert "ghost" in payload["message"]

        run(main())

    def test_quota_exhaustion_is_429_with_retry_after(self, ossm):
        async def main():
            registry = TenantRegistry(
                default_quota=TenantQuota(rate=1.0, burst=2)
            )
            async with registry:
                registry.create("metered", ossm)
                async with Gateway(registry) as gateway:
                    for _ in range(2):
                        status, _, _body = await post_json(
                            gateway, "/v1/tenants/metered/bounds",
                            {"itemset": [1]},
                        )
                        assert status == 200
                    status, headers, body = await post_json(
                        gateway, "/v1/tenants/metered/bounds",
                        {"itemset": [2]},
                    )
                    assert status == 429
                    payload = json.loads(body)
                    assert payload["error"] == "QuotaExceeded"
                    assert payload["retry_after"] > 0
                    assert int(headers["retry-after"]) >= 1

        run(main())


class TestEpochBumpDuringBatch:
    def test_publish_mid_flight_drops_nothing(self, ossm, db, tmp_path):
        """A PUT landing while a bounds batch is evaluating: the batch
        completes against the map it was admitted under, labeled with
        that map's epoch, and nothing is shed or timed out."""
        extra = generate_quest(
            n_transactions=100, n_items=N_ITEMS,
            avg_transaction_len=6.0, n_patterns=50, seed=99,
        )
        grown = extend_ossm(ossm, extra, page_size=40)
        grown_path = tmp_path / "grown.npz"
        OSSM(grown.matrix, segment_sizes=grown.segment_sizes).save(
            grown_path
        )
        grown_blob = grown_path.read_bytes()
        batch = [[i % N_ITEMS, (i + 3) % N_ITEMS] for i in range(12)]
        plan = FaultPlan(
            [FaultRule(point="serve.latency", times=1, delay=0.4)]
        )

        async def main():
            async with Gateway() as gateway:
                gateway.tenants.create("acme", ossm)
                inflight = asyncio.create_task(
                    post_json(
                        gateway, "/v1/tenants/acme/bounds",
                        {"itemsets": batch},
                    )
                )
                await asyncio.sleep(0.15)  # batch is mid-evaluation
                status, _, body = await http(
                    gateway, "PUT", "/v1/tenants/acme/ossm", grown_blob
                )
                assert status == 200
                assert json.loads(body)["epoch"] == 1
                status, _, body = await inflight
                assert status == 200
                payload = json.loads(body)
                # Answered exactly, against the admitted (old) map.
                assert payload["epoch"] == 0
                assert payload["bounds"] == [
                    ossm.upper_bound(tuple(s)) for s in batch
                ]
                stats = gateway.tenants.get("acme").stats()
                assert stats["epoch"] == 1
                assert stats["slo"]["violations"] == 0
                # Fresh queries see the new map immediately.
                status, _, body = await post_json(
                    gateway, "/v1/tenants/acme/bounds",
                    {"itemset": [1, 2]},
                )
                payload = json.loads(body)
                assert payload["epoch"] == 1
                assert payload["bound"] == grown.upper_bound((1, 2))

        with use_faults(plan):
            run(main())


    def test_publish_behind_inflight_batch_labels_the_answering_epoch(
        self, ossm, tmp_path
    ):
        """A PUT landing while a bounds request queues behind the
        tenant's in-flight batch: the request rides the next batch,
        which runs against the new map, and the response reports the
        epoch of the map that answered it, so bound and epoch always
        belong together."""
        other = OSSM(np.asarray(ossm.matrix) * 3)
        other_path = tmp_path / "other.npz"
        other.save(other_path)
        other_blob = other_path.read_bytes()
        itemset = [1, 2]
        maps = {0: ossm, 1: other}
        assert other.upper_bound(tuple(itemset)) != ossm.upper_bound(
            tuple(itemset)
        )
        # The first batch sleeps in evaluation; the release is the end
        # of its delay.
        plan = FaultPlan(
            [FaultRule(point="serve.latency", times=1, delay=0.4)]
        )

        async def main():
            async with Gateway() as gateway:
                tenant = gateway.tenants.create("acme", ossm)
                first = asyncio.create_task(
                    post_json(
                        gateway, "/v1/tenants/acme/bounds",
                        {"itemset": [3]},
                    )
                )
                while tenant.service.pending == 0:  # first batch held
                    await asyncio.sleep(0.001)
                inflight = asyncio.create_task(
                    post_json(
                        gateway, "/v1/tenants/acme/bounds",
                        {"itemset": itemset},
                    )
                )
                while tenant.scheduler.queued == 0:  # queued behind it
                    await asyncio.sleep(0.001)
                status, _, body = await http(
                    gateway, "PUT", "/v1/tenants/acme/ossm", other_blob
                )
                assert status == 200
                assert json.loads(body)["epoch"] == 1
                # Still held: the queued request has not been flushed.
                assert tenant.scheduler.queued == 1
                status, _, body = await first
                assert status == 200
                assert json.loads(body)["epoch"] == 0
                status, _, body = await inflight
                assert status == 200
                payload = json.loads(body)
                assert payload["bound"] == maps[
                    payload["epoch"]
                ].upper_bound(tuple(itemset))
                assert payload["epoch"] == 1

        with use_faults(plan):
            run(asyncio.wait_for(main(), 10))


class TestStatsAndOps:
    def test_tenant_stats_route(self, ossm, artifact):
        async def main():
            async with Gateway() as gateway:
                await http(
                    gateway, "PUT", "/v1/tenants/acme/ossm", artifact
                )
                await post_json(
                    gateway, "/v1/tenants/acme/bounds", {"itemset": [1]}
                )
                status, _, body = await http(
                    gateway, "GET", "/v1/tenants/acme/stats"
                )
                assert status == 200
                stats = json.loads(body)
                assert stats["tenant"] == "acme"
                assert stats["admission"]["requests"] == 1
                assert stats["quota"]["rate"] is None
                assert "latency" in stats and "slo" in stats

        run(main())

    def test_registry_routes(self, ossm):
        async def main():
            async with Gateway() as gateway:
                gateway.tenants.create("a1", ossm)
                gateway.tenants.create("a2", ossm)
                status, _, body = await http(gateway, "GET", "/v1/tenants")
                assert status == 200
                assert json.loads(body)["tenants"] == ["a1", "a2"]
                status, _, body = await http(gateway, "GET", "/stats")
                payload = json.loads(body)
                assert payload["tenant_count"] == 2
                assert set(payload["tenants"]) == {"a1", "a2"}
                status, _, body = await http(gateway, "GET", "/health")
                assert json.loads(body) == {
                    "status": "ok", "tenants": 2
                }

        run(main())

    def test_metrics_route_exposes_tenant_counters(self, ossm):
        registry = MetricsRegistry()

        async def main():
            async with Gateway() as gateway:
                gateway.tenants.create("acme", ossm)
                await post_json(
                    gateway, "/v1/tenants/acme/bounds", {"itemset": [1]}
                )
                status, headers, body = await http(
                    gateway, "GET", "/metrics"
                )
                assert status == 200
                assert headers["content-type"].startswith("text/plain")
                text = body.decode("utf-8")
                assert "repro_serve_tenant_acme_requests_total" in text
                assert "repro_serve_gateway_requests_total" in text

        with use_registry(registry):
            run(main())


    def test_metrics_route_scrapes_its_own_registry(self):
        registry = MetricsRegistry()
        registry.inc("apriori.levels", 3)
        registry.set_gauge("cache.size", 42)

        async def main():
            async with Gateway(registry=registry) as gateway:
                return await http(gateway, "GET", "/metrics")

        status, _, body = run(main())
        assert status == 200
        text = body.decode("utf-8")
        assert "repro_apriori_levels_total 3" in text
        assert "repro_cache_size 42" in text

    def test_metrics_route_tracks_the_active_registry(self):
        """Without its own registry the gateway scrapes whichever one is
        active at request time, so a gateway started early still works."""
        registry = MetricsRegistry()
        registry.set_gauge("cache.size", 42)

        async def main():
            async with Gateway() as gateway:
                with use_registry(registry):
                    return await http(gateway, "GET", "/metrics")

        status, _, body = run(main())
        assert status == 200
        assert "repro_cache_size 42" in body.decode("utf-8")

    def test_tenant_stats_carry_epoch_and_pending(self, ossm):
        async def main():
            async with Gateway() as gateway:
                gateway.tenants.create("acme", ossm)
                _, _, tenant_body = await http(
                    gateway, "GET", "/v1/tenants/acme/stats"
                )
                _, _, registry_body = await http(gateway, "GET", "/stats")
                return json.loads(tenant_body), json.loads(registry_body)

        tenant, registry_wide = run(main())
        assert tenant["epoch"] == ossm.epoch
        assert tenant["pending"] == 0
        assert registry_wide["tenants"]["acme"]["epoch"] == ossm.epoch
        assert registry_wide["tenants"]["acme"]["pending"] == 0

    @pytest.mark.parametrize(
        "path", ["/health", "/ready", "/metrics", "/stats"]
    )
    def test_ops_routes_answer_get_only(self, path):
        async def main():
            async with Gateway() as gateway:
                return await http(gateway, "POST", path, b"{}")

        status, _, _body = run(main())
        assert status == 405

    def test_requests_and_errors_are_counted(self):
        registry = MetricsRegistry()

        async def main():
            async with Gateway(registry=registry) as gateway:
                await http(gateway, "GET", "/metrics")
                await http(gateway, "GET", "/nope")

        run(main())
        assert registry.counter("serve.gateway.requests").value == 2
        assert registry.counter("serve.gateway.errors").value == 1


class TestHttpPlumbing:
    def test_keep_alive_serves_many_requests(self, ossm, artifact):
        async def main():
            async with Gateway() as gateway:
                await http(
                    gateway, "PUT", "/v1/tenants/acme/ossm", artifact
                )
                connection = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                try:
                    for item in range(5):
                        status, headers, body = await post_json(
                            gateway, "/v1/tenants/acme/bounds",
                            {"itemset": [item]}, connection=connection,
                        )
                        assert status == 200
                        assert headers["connection"] == "keep-alive"
                        assert json.loads(body)["bound"] == \
                            ossm.upper_bound((item,))
                finally:
                    connection[1].close()
                    await connection[1].wait_closed()

        run(main())

    def test_unknown_route_and_method(self, ossm):
        async def main():
            async with Gateway() as gateway:
                gateway.tenants.create("acme", ossm)
                status, _, _body = await http(gateway, "GET", "/nope")
                assert status == 404
                status, _, _body = await http(
                    gateway, "GET", "/v1/tenants/acme/bounds"
                )
                assert status == 405
                status, _, _body = await http(
                    gateway, "POST", "/v1/tenants/acme/ossm", b"x"
                )
                assert status == 405
                status, _, _body = await http(
                    gateway, "PUT", "/v1/tenants/acme/stats", b""
                )
                assert status == 405
                status, _, _body = await http(
                    gateway, "GET", "/v1/tenants/acme/nothing"
                )
                assert status == 404

        run(main())

    def test_bad_tenant_name_is_400(self):
        async def main():
            async with Gateway() as gateway:
                status, _, body = await http(
                    gateway, "GET", "/v1/tenants/-bad-/stats"
                )
                assert status == 400
                assert json.loads(body)["error"] == "InvalidRequest"

        run(main())

    def test_oversized_content_length_is_413(self):
        async def main():
            async with Gateway() as gateway:
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                writer.write(
                    b"PUT /v1/tenants/a/ossm HTTP/1.1\r\n"
                    b"Content-Length: 999999999999\r\n\r\n"
                )
                await writer.drain()
                status_line = await reader.readline()
                assert b"413" in status_line
                writer.close()
                await writer.wait_closed()

        run(main())

    def test_oversized_content_length_is_counted(self):
        registry = MetricsRegistry()

        async def main():
            async with Gateway(registry=registry) as gateway:
                return await raw_exchange(
                    gateway,
                    b"PUT /v1/tenants/a/ossm HTTP/1.1\r\n"
                    b"Content-Length: 999999999999\r\n\r\n",
                )

        assert run(main()).startswith(b"HTTP/1.1 413 ")
        assert rejections(registry) == {"serve.gateway.rejected.413": 1}

    def test_delete_then_404(self, ossm):
        async def main():
            async with Gateway() as gateway:
                gateway.tenants.create("acme", ossm)
                status, _, body = await http(
                    gateway, "DELETE", "/v1/tenants/acme"
                )
                assert status == 204
                assert body == b""
                status, _, _body = await http(
                    gateway, "DELETE", "/v1/tenants/acme"
                )
                assert status == 404

        run(main())


    def test_start_is_idempotent_and_close_releases_port(self):
        async def main():
            gateway = Gateway()
            await gateway.start()
            port = gateway.port
            assert await gateway.start() is gateway
            assert gateway.port == port
            await gateway.aclose()
            await gateway.aclose()  # idempotent
            with pytest.raises(OSError):
                await asyncio.open_connection(gateway.host, port)

        run(main())


class TestTypedRejections:
    """A request broken off part-way gets a typed, counted rejection;
    a clean close or an idle keep-alive connection closes silently."""

    @pytest.fixture(autouse=True)
    def short_deadline(self, monkeypatch):
        monkeypatch.setattr(gateway_module, "_REQUEST_TIMEOUT", 0.2)

    def exchange(self, payload, half_close=False):
        registry = MetricsRegistry()

        async def main():
            async with Gateway(registry=registry) as gateway:
                return await raw_exchange(gateway, payload, half_close)

        return run(main()), rejections(registry)

    def test_oversized_head_is_431(self):
        # No terminator within the stream reader's 64 KiB limit.
        response, counted = self.exchange(
            b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
        )
        assert response.startswith(b"HTTP/1.1 431 ")
        assert counted == {"serve.gateway.rejected.431": 1}

    def test_partial_head_times_out_with_408(self):
        response, counted = self.exchange(b"GET /health HTTP/1.1\r\nHo")
        assert response.startswith(b"HTTP/1.1 408 ")
        assert counted == {"serve.gateway.rejected.408": 1}

    def test_partial_body_times_out_with_408(self):
        response, counted = self.exchange(
            b"POST /v1/tenants/a/bounds HTTP/1.1\r\n"
            b"Content-Length: 10\r\n\r\nabc"
        )
        assert response.startswith(b"HTTP/1.1 408 ")
        assert counted == {"serve.gateway.rejected.408": 1}

    def test_short_body_is_400(self):
        response, counted = self.exchange(
            b"POST /v1/tenants/a/bounds HTTP/1.1\r\n"
            b"Content-Length: 10\r\n\r\nabc",
            half_close=True,
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert counted == {"serve.gateway.rejected.400": 1}

    def test_truncated_head_is_400(self):
        response, counted = self.exchange(
            b"GET /health HTTP/1.1\r\n", half_close=True
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert counted == {"serve.gateway.rejected.400": 1}

    @pytest.mark.parametrize("declared", [b"ten", b"-5", b"1_0", b"+3"])
    def test_malformed_content_length_is_400(self, declared):
        response, counted = self.exchange(
            b"POST /v1/tenants/a/bounds HTTP/1.1\r\n"
            b"Content-Length: " + declared + b"\r\n\r\n"
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert counted == {"serve.gateway.rejected.400": 1}

    def test_clean_close_and_idle_timeout_stay_silent(self):
        assert self.exchange(b"", half_close=True) == (b"", {})
        # Nothing sent: the read deadline passes with no bytes read.
        assert self.exchange(b"") == (b"", {})

    def test_idle_after_a_served_request_stays_silent(self, ossm):
        registry = MetricsRegistry()

        body = b'{"itemset": [1]}'

        async def main():
            async with Gateway(registry=registry) as gateway:
                gateway.tenants.create("acme", ossm)
                return await raw_exchange(
                    gateway,
                    b"POST /v1/tenants/acme/bounds HTTP/1.1\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
                )

        response = run(main())
        assert response.startswith(b"HTTP/1.1 200 ")
        assert response.count(b"HTTP/1.1") == 1
        assert rejections(registry) == {}


class TestReadinessAndDrain:
    def test_ready_flips_on_drain_while_health_holds(self, ossm):
        """Liveness and readiness must diverge during a drain: the
        orchestrator keeps the process, the balancer stops routing."""
        async def main():
            async with Gateway() as gateway:
                gateway.tenants.create("demo", ossm)
                status, _, payload = await http(gateway, "GET", "/ready")
                assert status == 200
                assert json.loads(payload)["status"] == "ready"
                gateway.begin_drain()
                gateway.begin_drain()  # idempotent
                status, _, payload = await http(gateway, "GET", "/ready")
                assert status == 503
                assert json.loads(payload)["status"] == "draining"
                status, _, _payload = await http(gateway, "GET", "/health")
                assert status == 200

        run(main())

    def test_draining_sheds_mutations_keeps_reads(self, ossm, artifact):
        async def main():
            async with Gateway() as gateway:
                gateway.tenants.create("demo", ossm)
                gateway.begin_drain()
                status, headers, payload = await post_json(
                    gateway, "/v1/tenants/demo/bounds", {"itemset": [1]}
                )
                assert status == 503
                body = json.loads(payload)
                assert body["error"] == "Draining"
                assert "retry-after" in headers
                status, _, _p = await http(
                    gateway, "PUT", "/v1/tenants/demo/ossm", artifact
                )
                assert status == 503
                status, _, _p = await http(
                    gateway, "DELETE", "/v1/tenants/demo"
                )
                assert status == 503
                # Introspection stays available for the operator.
                status, _, _p = await http(
                    gateway, "GET", "/v1/tenants/demo/stats"
                )
                assert status == 200
                status, _, _p = await http(gateway, "GET", "/metrics")
                assert status == 200

        run(main())
