"""Prometheus exposition and the asyncio ops endpoint."""

import asyncio
import json

import pytest

from repro.obs.export import OpsServer, prometheus_name, render_prometheus
from repro.obs.metrics import MetricsRegistry, use_registry


def sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("apriori.levels", 3)
    registry.set_gauge("cache.size", 42)
    registry.timer("counting.seconds").observe(0.5)
    registry.observe("bound.tightness", 0.25, buckets=(0.1, 0.5, 1.0))
    registry.observe("bound.tightness", 0.75, buckets=(0.1, 0.5, 1.0))
    return registry


class TestPrometheusName:
    def test_dots_become_underscores(self):
        assert prometheus_name("apriori.levels") == "repro_apriori_levels"

    def test_illegal_characters_sanitized(self):
        assert prometheus_name("a-b c") == "repro_a_b_c"

    def test_no_prefix_digit_guard(self):
        assert prometheus_name("2fast", prefix="") == "_2fast"


class TestRenderPrometheus:
    def test_counter_becomes_total(self):
        text = render_prometheus(sample_registry().snapshot())
        assert "# TYPE repro_apriori_levels_total counter" in text
        assert "repro_apriori_levels_total 3" in text

    def test_gauge_rendered_verbatim(self):
        text = render_prometheus(sample_registry().snapshot())
        assert "repro_cache_size 42" in text

    def test_timer_becomes_summary(self):
        text = render_prometheus(sample_registry().snapshot())
        assert "repro_counting_seconds_count 1" in text
        assert "repro_counting_seconds_sum 0.5" in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_prometheus(sample_registry().snapshot())
        assert 'repro_bound_tightness_bucket{le="0.5"} 1' in text
        assert 'repro_bound_tightness_bucket{le="1.0"} 2' in text
        assert 'repro_bound_tightness_bucket{le="+Inf"} 2' in text
        assert "repro_bound_tightness_count 2" in text

    def test_empty_snapshot_is_just_a_newline(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == "\n"


async def _http_get(host: str, port: int, path: str, method: str = "GET"):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body.decode("utf-8")


class FakeService:
    def stats(self):
        return {"epoch": 7, "pending": 3}


class TestOpsServer:
    def test_metrics_endpoint_scrapes_registry(self):
        async def run():
            async with OpsServer(registry=sample_registry()) as server:
                return await _http_get(server.host, server.port, "/metrics")

        status, body = asyncio.run(run())
        assert status == 200
        assert "repro_apriori_levels_total 3" in body

    def test_metrics_endpoint_tracks_active_registry(self):
        # No explicit registry: the scrape sees whatever is active at
        # request time, so a server started early still works.
        async def run():
            async with OpsServer() as server:
                with use_registry(sample_registry()):
                    return await _http_get(
                        server.host, server.port, "/metrics"
                    )

        status, body = asyncio.run(run())
        assert status == 200
        assert "repro_cache_size 42" in body

    def test_health_includes_service_liveness(self):
        async def run():
            async with OpsServer(service=FakeService()) as server:
                return await _http_get(server.host, server.port, "/health")

        status, body = asyncio.run(run())
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["epoch"] == 7
        assert payload["pending"] == 3

    def test_stats_reports_service_and_metric_counts(self):
        async def run():
            async with OpsServer(
                registry=sample_registry(), service=FakeService()
            ) as server:
                return await _http_get(server.host, server.port, "/stats")

        status, body = asyncio.run(run())
        assert status == 200
        payload = json.loads(body)
        assert payload["service"]["epoch"] == 7
        assert payload["metrics"]["counters"] == 1
        assert payload["metrics"]["histograms"] == 1

    def test_unknown_path_is_404(self):
        async def run():
            async with OpsServer() as server:
                return await _http_get(server.host, server.port, "/nope")

        status, _ = asyncio.run(run())
        assert status == 404

    def test_non_get_is_405(self):
        async def run():
            async with OpsServer() as server:
                return await _http_get(
                    server.host, server.port, "/metrics", method="POST"
                )

        status, _ = asyncio.run(run())
        assert status == 405

    def test_scrapes_counted_when_registry_enabled(self):
        registry = sample_registry()

        async def run():
            async with OpsServer(registry=registry) as server:
                await _http_get(server.host, server.port, "/metrics")
                await _http_get(server.host, server.port, "/nope")

        asyncio.run(run())
        assert registry.counter("obs.http.requests").value == 2
        assert registry.counter("obs.http.errors").value == 1

    def test_start_is_idempotent_and_close_releases_port(self):
        async def run():
            server = OpsServer()
            await server.start()
            first_port = server.port
            await server.start()
            assert server.port == first_port
            await server.aclose()
            await server.aclose()  # idempotent
            with pytest.raises(OSError):
                await _http_get(server.host, first_port, "/health")

        asyncio.run(run())
