"""Telemetry exposition: Prometheus text format and the ops endpoint.

Two pieces, both stdlib-only:

* :func:`render_prometheus` turns any
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict into the
  Prometheus text exposition format (version 0.0.4): counters as
  ``*_total``, gauges verbatim, timers as summaries (``_count`` /
  ``_sum`` plus min/max gauges), histograms as cumulative
  ``_bucket{le=...}`` series. Snapshots are plain dicts, so anything
  that has one — a live registry, a merged cross-process aggregate, a
  ``--metrics-out`` file read back — can be scraped.
* :class:`OpsServer` is a minimal asyncio HTTP endpoint serving
  ``/metrics`` (Prometheus text), ``/health`` (liveness JSON), and
  ``/stats`` (a :class:`~repro.serve.service.BoundQueryService`'s
  ``stats()`` plus a registry summary). It rides alongside the serve
  layer on the same event loop — the stepping stone to the ROADMAP's
  multi-tenant gateway — and costs nothing until started.

The export path stays off the hot path entirely: rendering walks a
snapshot (already the slow path), and the server only touches the
registry when scraped.
"""

from __future__ import annotations

import asyncio
import json
import re
from typing import Any

from .log import get_logger
from .metrics import MetricsRegistry, get_registry

__all__ = ["render_prometheus", "prometheus_name", "OpsServer"]

logger = get_logger(__name__)

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")

#: Read deadline for one scrape request; an idle or half-open socket
#: must not pin the handler forever.
_REQUEST_TIMEOUT = 10.0


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """A metric name as a valid Prometheus identifier.

    Dots (the repo's namespace separator) and any other illegal
    character become underscores; *prefix* namespaces the whole
    exposition so scraped series never collide with another job's.
    """
    sanitized = _NAME_SANITIZER.sub("_", name)
    if prefix:
        sanitized = f"{prefix}_{sanitized}"
    if not sanitized or sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return sanitized


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    number = float(value)
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    return repr(number)


def render_prometheus(snapshot: dict, *, prefix: str = "repro") -> str:
    """One snapshot as the Prometheus text exposition format."""
    lines: list[str] = []
    append = lines.append
    for name, value in snapshot.get("counters", {}).items():
        base = prometheus_name(name, prefix)
        append(f"# TYPE {base}_total counter")
        append(f"{base}_total {_format_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        base = prometheus_name(name, prefix)
        append(f"# TYPE {base} gauge")
        append(f"{base} {_format_value(value)}")
    for name, timer in snapshot.get("timers", {}).items():
        base = prometheus_name(name, prefix)
        append(f"# TYPE {base} summary")
        append(f"{base}_count {_format_value(timer['count'])}")
        append(f"{base}_sum {_format_value(timer['total_seconds'])}")
        for stat in ("min", "max"):
            append(f"# TYPE {base}_{stat} gauge")
            append(
                f"{base}_{stat} "
                f"{_format_value(timer[f'{stat}_seconds'])}"
            )
    for name, histogram in snapshot.get("histograms", {}).items():
        base = prometheus_name(name, prefix)
        append(f"# TYPE {base} histogram")
        cumulative = 0
        for edge, bucket_count in zip(
            histogram["buckets"], histogram["counts"]
        ):
            cumulative += int(bucket_count)
            append(
                f'{base}_bucket{{le="{_format_value(edge)}"}} {cumulative}'
            )
        append(
            f'{base}_bucket{{le="+Inf"}} {_format_value(histogram["count"])}'
        )
        append(f"{base}_sum {_format_value(histogram['total'])}")
        append(f"{base}_count {_format_value(histogram['count'])}")
    return "\n".join(lines) + "\n" if lines else "\n"


class OpsServer:
    """Asyncio HTTP endpoint exposing ``/metrics``, ``/health``, ``/stats``.

    Parameters
    ----------
    registry:
        The registry ``/metrics`` renders; ``None`` scrapes whatever
        registry is active at request time, so a server started before
        ``use_registry`` still sees the run's metrics.
    service:
        An object with a ``stats()`` method (duck-typed so the obs
        layer keeps zero imports from ``repro.serve``); its snapshot
        becomes the ``service`` section of ``/stats`` and its liveness
        fields join ``/health``.
    host / port:
        Bind address; port 0 picks a free one (read it back from
        :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        service: Any = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._registry = registry
        self._service = service
        self._host = host
        self._port = int(port)
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (the requested one until :meth:`start`)."""
        return self._port

    @property
    def host(self) -> str:
        return self._host

    async def start(self) -> "OpsServer":
        """Bind and begin serving; idempotent."""
        if self._server is not None:
            return self
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self._port = sockets[0].getsockname()[1]
        logger.info("ops endpoint on %s:%d", self._host, self._port)
        return self

    async def aclose(self) -> None:
        """Stop accepting and close the listener (idempotent)."""
        server = self._server
        self._server = None
        if server is not None:
            server.close()
            await server.wait_closed()

    async def __aenter__(self) -> "OpsServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # -- request handling -------------------------------------------------

    def _active_registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def _route(self, method: str, path: str) -> tuple[int, str, str]:
        """Dispatch one request; returns (status, content-type, body)."""
        if method != "GET":
            return 405, "text/plain; charset=utf-8", "method not allowed\n"
        path = path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(self._active_registry().snapshot())
            return 200, "text/plain; version=0.0.4; charset=utf-8", body
        if path == "/health":
            payload: dict[str, Any] = {"status": "ok"}
            if self._service is not None:
                stats = self._service.stats()
                for key in ("epoch", "pending"):
                    if key in stats:
                        payload[key] = stats[key]
            return 200, "application/json", json.dumps(payload) + "\n"
        if path == "/stats":
            snapshot = self._active_registry().snapshot()
            payload = {
                "service": (
                    self._service.stats()
                    if self._service is not None
                    else None
                ),
                "metrics": {
                    kind: len(values)
                    for kind, values in snapshot.items()
                },
            }
            return 200, "application/json", json.dumps(payload) + "\n"
        return 404, "text/plain; charset=utf-8", "not found\n"

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                raw = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), _REQUEST_TIMEOUT
                )
            except (
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                asyncio.TimeoutError,
            ):
                return
            request_line = raw.split(b"\r\n", 1)[0].decode(
                "latin-1", "replace"
            )
            parts = request_line.split()
            if len(parts) < 2:
                status, content_type, body = (
                    400, "text/plain; charset=utf-8", "bad request\n"
                )
            else:
                status, content_type, body = self._route(parts[0], parts[1])
            registry = self._active_registry()
            if registry.enabled:
                registry.inc("obs.http.requests")
                if status >= 400:
                    registry.inc("obs.http.errors")
            payload = body.encode("utf-8")
            reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                      405: "Method Not Allowed"}.get(status, "OK")
            writer.write(
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n".encode("latin-1") + payload
            )
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
