"""HTTP gateway: the network edge of the multi-tenant serving plane.

:class:`Gateway` is a stdlib-asyncio HTTP server
(``asyncio.start_server``, no dependencies) exposing a small versioned
API over a :class:`~repro.serve.tenants.TenantRegistry`:

========  ==============================  =================================
Method    Path                            Meaning
========  ==============================  =================================
GET       ``/health``                     liveness + tenant count
GET       ``/ready``                      readiness (503 while draining)
GET       ``/metrics``                    Prometheus text exposition
GET       ``/stats``                      registry-wide stats snapshot
GET       ``/v1/tenants``                 registered tenant names
POST      ``/v1/tenants/{t}/bounds``      Equation (1) bounds (single or
                                          batched itemsets)
PUT       ``/v1/tenants/{t}/ossm``        upload/replace the tenant's map
                                          (raw ``.npz`` body, CRC-verified,
                                          published behind an epoch bump)
GET       ``/v1/tenants/{t}/stats``       that tenant's stats snapshot
DELETE    ``/v1/tenants/{t}``             tear the tenant down
========  ==============================  =================================

Error mapping is *mechanical*: every :class:`~repro.serve.errors.
ServeError` carries ``status_code`` and ``retry_after`` attributes and
the gateway reads exactly those two — no ``isinstance`` ladders, no
string matching on type names. The JSON error body is
``{"error": <class name>, "message": ..., "retry_after": ...}`` and
``retry_after`` additionally becomes a ``Retry-After`` header.

Connections are HTTP/1.1 keep-alive: one handler loops over requests
until the client closes, sends ``Connection: close``, or idles past
the per-request read deadline — the closed-loop bench drives hundreds
of clients over persistent connections.

Graceful shutdown separates *liveness* from *readiness*:
:meth:`Gateway.begin_drain` flips ``/ready`` to 503 (load balancers
stop routing here) while ``/health`` stays 200 (orchestrators do not
kill the draining process), and query/mutation routes answer with the
typed :class:`~repro.serve.errors.Draining` 503 so clients fail over;
in-flight work then finishes under the CLI's drain deadline.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import tempfile
from typing import Any

from ..core.ossm import OSSM
from ..obs.export import render_prometheus
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, get_registry
from ..resilience import CorruptArtifact, IntegrityError
from .errors import Draining, InvalidRequest, ServeError
from .service import canonical_itemset
from .tenants import TenantRegistry, validate_tenant_name

__all__ = ["Gateway"]

logger = get_logger(__name__)

#: Read deadline for one request's head/body; an idle keep-alive
#: connection past this is closed (the client simply reconnects).
_REQUEST_TIMEOUT = 10.0

#: Largest accepted request body — bounds uploads of any realistic
#: OSSM artifact while keeping a rogue client from ballooning memory.
_MAX_BODY = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_JSON = "application/json"
_TEXT = "text/plain; charset=utf-8"
_PROM = "text/plain; version=0.0.4; charset=utf-8"

#: (status, content-type, body bytes, extra headers)
_Response = tuple[int, str, bytes, dict[str, str]]


def _json_body(payload: Any) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def _parse_head(raw: bytes) -> tuple[str, str, dict[str, str]] | None:
    """Request line + headers from one ``\\r\\n\\r\\n``-terminated head."""
    lines = raw.decode("latin-1", "replace").split("\r\n")
    parts = lines[0].split()
    if len(parts) < 2:
        return None
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return parts[0].upper(), parts[1], headers


async def _read_head(reader: asyncio.StreamReader, got: bytearray) -> bytes:
    """One ``\\r\\n\\r\\n``-terminated request head, or ``b""`` at a
    clean end of stream. *got* receives the first byte as soon as it
    arrives, so a timed-out caller can tell a broken-off head from an
    idle connection."""
    got += await reader.read(1)
    if not got:
        return b""
    return bytes(got) + await reader.readuntil(b"\r\n\r\n")


def _load_ossm_artifact(data: bytes) -> OSSM:
    """Verify and load an uploaded ``.npz`` artifact (worker thread).

    ``OSSM.load`` goes through ``verified_load_npz``, so a truncated or
    bit-flipped upload raises ``CorruptArtifact``/``IntegrityError``
    (the gateway maps both to 400) instead of serving garbage bounds.
    """
    handle = tempfile.NamedTemporaryFile(suffix=".npz", delete=False)
    try:
        handle.write(data)
        handle.close()
        return OSSM.load(handle.name)
    finally:
        if not handle.closed:
            handle.close()
        os.unlink(handle.name)


def _parse_itemsets(
    body: bytes, n_items: int
) -> tuple[list[tuple[int, ...]], bool]:
    """The canonical itemsets of a ``/bounds`` request, validated up
    front.

    Returns ``(itemsets, single)`` where *single* means the client sent
    ``{"itemset": [...]}`` and expects a scalar ``bound`` back.

    Validation happens *before* admission so one malformed request is
    rejected at the door with 400 instead of poisoning the coalesced
    batch it would have ridden in.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise InvalidRequest(
            f"request body is not valid JSON: {exc}"
        ) from None
    if not isinstance(payload, dict):
        raise InvalidRequest("request body must be a JSON object")
    has_single = "itemset" in payload
    has_batch = "itemsets" in payload
    if has_single == has_batch:
        raise InvalidRequest(
            'request must carry exactly one of "itemset" (single) or '
            '"itemsets" (batch)'
        )
    raw = [payload["itemset"]] if has_single else payload["itemsets"]
    if not isinstance(raw, list):
        raise InvalidRequest('"itemsets" must be a JSON array')
    itemsets: list[tuple[int, ...]] = []
    for position, candidate in enumerate(raw):
        if not isinstance(candidate, list):
            raise InvalidRequest(
                f"itemset #{position} must be a JSON array of item ids"
            )
        try:
            itemsets.append(canonical_itemset(candidate, n_items))
        except ValueError as exc:
            raise InvalidRequest(f"itemset #{position}: {exc}") from None
    return itemsets, has_single


class Gateway:
    """Multi-tenant HTTP front end over a :class:`TenantRegistry`.

    Parameters
    ----------
    tenants:
        The registry to serve. ``None`` creates a private one (closed
        again by :meth:`aclose`); a registry passed in stays owned by
        the caller.
    registry:
        Metrics registry for ``/metrics``; ``None`` scrapes whatever
        registry is active at request time.
    host / port:
        Bind address; port 0 picks a free one (read it back from
        :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        tenants: TenantRegistry | None = None,
        *,
        registry: MetricsRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._own_tenants = tenants is None
        self.tenants = tenants if tenants is not None else TenantRegistry()
        self._registry = registry
        self._host = host
        self._port = int(port)
        self._server: asyncio.AbstractServer | None = None
        self._draining = False

    # -- lifecycle --------------------------------------------------------

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        """The bound port (the requested one until :meth:`start`)."""
        return self._port

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self._host}:{self._port}"

    async def start(self) -> "Gateway":
        """Bind and begin serving; idempotent."""
        if self._server is not None:
            return self
        self._server = await asyncio.start_server(
            self._handle, self._host, self._port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self._port = sockets[0].getsockname()[1]
        logger.info("gateway on %s:%d", self._host, self._port)
        return self

    @property
    def draining(self) -> bool:
        """Whether :meth:`begin_drain` has flipped readiness off."""
        return self._draining

    def begin_drain(self) -> None:
        """Flip ``/ready`` to 503 and shed new query/mutation work.

        Idempotent and synchronous (safe from a signal handler's
        ``call_soon``). The listener stays open so health probes and
        already-connected clients get answers; in-flight batches keep
        running until :meth:`aclose` / the registry drain completes.
        """
        if not self._draining:
            self._draining = True
            logger.info("gateway draining: readiness now 503")
            metrics = self._active_registry()
            if metrics.enabled:
                metrics.set_gauge("serve.gateway.draining", 1)

    async def aclose(self) -> None:
        """Stop listening; close the registry too if this gateway owns it."""
        server = self._server
        self._server = None
        if server is not None:
            server.close()
            await server.wait_closed()
        if self._own_tenants:
            await self.tenants.aclose()

    async def __aenter__(self) -> "Gateway":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # -- connection handling ----------------------------------------------

    def _active_registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One keep-alive connection: loop requests until close/idle.

        A clean close or an idle timeout between requests ends the
        connection silently; a request broken off part-way gets a typed
        rejection (see :meth:`_reject`) before the close.
        """
        try:
            while True:
                got = bytearray()
                try:
                    raw = await asyncio.wait_for(
                        _read_head(reader, got), _REQUEST_TIMEOUT
                    )
                except asyncio.LimitOverrunError:
                    await self._reject(writer, 431, b"header too large\n")
                    return
                except asyncio.TimeoutError:
                    if got:
                        await self._reject(writer, 408, b"head timed out\n")
                    return
                except asyncio.IncompleteReadError:
                    await self._reject(writer, 400, b"truncated head\n")
                    return
                if not raw:
                    return
                head = _parse_head(raw)
                if head is None:
                    await self._reject(writer, 400, b"bad request\n")
                    return
                method, path, headers = head
                declared = headers.get("content-length", "0")
                if not (declared.isascii() and declared.isdigit()):
                    await self._reject(writer, 400, b"bad content-length\n")
                    return
                length = int(declared)
                if length > _MAX_BODY:
                    await self._reject(writer, 413, b"payload too large\n")
                    return
                body = b""
                if length:
                    try:
                        body = await asyncio.wait_for(
                            reader.readexactly(length), _REQUEST_TIMEOUT
                        )
                    except asyncio.TimeoutError:
                        await self._reject(writer, 408, b"body timed out\n")
                        return
                    except asyncio.IncompleteReadError:
                        await self._reject(writer, 400, b"truncated body\n")
                        return
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                response = await self._route(method, path, body)
                metrics = self._active_registry()
                if metrics.enabled:
                    metrics.inc("serve.gateway.requests")
                    if response[0] >= 400:
                        metrics.inc("serve.gateway.errors")
                await self._respond(writer, response, keep_alive=keep_alive)
                if not keep_alive:
                    return
        except (ConnectionError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _reject(
        self, writer: asyncio.StreamWriter, status: int, message: bytes
    ) -> None:
        """Answer a malformed or broken-off request and count it under
        ``serve.gateway.rejected.<status>`` (400, 408, 413 or 431)."""
        metrics = self._active_registry()
        if metrics.enabled:
            metrics.inc(f"serve.gateway.rejected.{status}")
        await self._respond(
            writer, (status, _TEXT, message, {}), keep_alive=False
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        response: _Response,
        *,
        keep_alive: bool,
    ) -> None:
        status, content_type, payload, extra = response
        if status == 204:
            payload = b""
        connection = "keep-alive" if keep_alive else "close"
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {connection}",
        ]
        for key, value in extra.items():
            head.append(f"{key}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
        )
        await writer.drain()

    # -- routing ----------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> _Response:
        """Dispatch one request, mapping every error mechanically."""
        path = path.split("?", 1)[0]
        try:
            return await self._dispatch(method, path, body)
        except ServeError as exc:
            return self._error_response(exc)
        except (CorruptArtifact, IntegrityError) as exc:
            return self._error_response(
                InvalidRequest(f"rejected artifact: {exc}")
            )
        except ValueError as exc:
            return self._error_response(InvalidRequest(str(exc)))
        except Exception as exc:  # noqa: BLE001 - edge must answer
            logger.error("unhandled gateway error: %r", exc, exc_info=True)
            return self._error_response(ServeError("internal error"))

    def _error_response(self, exc: ServeError) -> _Response:
        """The mechanical ServeError -> HTTP mapping (see errors.py)."""
        payload: dict[str, Any] = {
            "error": type(exc).__name__,
            "message": str(exc),
        }
        extra: dict[str, str] = {}
        retry_after = exc.retry_after
        if retry_after is not None:
            payload["retry_after"] = retry_after
            extra["Retry-After"] = str(max(0, math.ceil(retry_after)))
        return exc.status_code, _JSON, _json_body(payload), extra

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> _Response:
        if path == "/health":
            if method != "GET":
                return self._method_not_allowed()
            payload = {"status": "ok", "tenants": len(self.tenants)}
            return 200, _JSON, _json_body(payload), {}
        if path == "/ready":
            # Liveness vs readiness: /health stays 200 through a drain
            # (don't kill me), /ready goes 503 (don't route to me).
            if method != "GET":
                return self._method_not_allowed()
            if self._draining:
                payload = {"status": "draining"}
                return 503, _JSON, _json_body(payload), {}
            payload = {"status": "ready", "tenants": len(self.tenants)}
            return 200, _JSON, _json_body(payload), {}
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed()
            text = render_prometheus(self._active_registry().snapshot())
            return 200, _PROM, text.encode("utf-8"), {}
        if path == "/stats":
            if method != "GET":
                return self._method_not_allowed()
            return 200, _JSON, _json_body(self.tenants.stats()), {}
        if path in ("/v1/tenants", "/v1/tenants/"):
            if method != "GET":
                return self._method_not_allowed()
            payload = {"tenants": self.tenants.names()}
            return 200, _JSON, _json_body(payload), {}
        if not path.startswith("/v1/tenants/"):
            return 404, _TEXT, b"not found\n", {}
        segments = [part for part in path.split("/") if part]
        # segments == ["v1", "tenants", name] or [..., name, leaf]
        if len(segments) not in (3, 4):
            return 404, _TEXT, b"not found\n", {}
        name = validate_tenant_name(segments[2])
        leaf = segments[3] if len(segments) == 4 else None
        if leaf is None:
            if method != "DELETE":
                return self._method_not_allowed()
            if self._draining:
                raise Draining()
            await self.tenants.remove(name)
            return 204, _JSON, b"", {}
        if leaf == "bounds":
            if method != "POST":
                return self._method_not_allowed()
            if self._draining:
                raise Draining()
            return await self._handle_bounds(name, body)
        if leaf == "ossm":
            if method != "PUT":
                return self._method_not_allowed()
            if self._draining:
                raise Draining()
            return await self._handle_upload(name, body)
        if leaf == "stats":
            if method != "GET":
                return self._method_not_allowed()
            tenant = self.tenants.get(name)
            return 200, _JSON, _json_body(tenant.stats()), {}
        return 404, _TEXT, b"not found\n", {}

    def _method_not_allowed(self) -> _Response:
        return 405, _TEXT, b"method not allowed\n", {}

    # -- endpoints ---------------------------------------------------------

    async def _handle_bounds(self, name: str, body: bytes) -> _Response:
        """POST /v1/tenants/{t}/bounds — single or batched Equation (1)."""
        tenant = self.tenants.get(name)
        itemsets, single = _parse_itemsets(
            body, tenant.service.ossm.n_items
        )
        # The epoch comes back with the bounds: a publish landing while
        # the request queues behind the in-flight batch must not pair
        # the new map's bounds with the old map's epoch.
        bounds = await tenant.query_batch(itemsets)
        payload: dict[str, Any] = {
            "tenant": name,
            "epoch": bounds.epoch,
        }
        if single:
            payload["bound"] = bounds[0]
        else:
            payload["bounds"] = bounds
        return 200, _JSON, _json_body(payload), {}

    async def _handle_upload(self, name: str, body: bytes) -> _Response:
        """PUT /v1/tenants/{t}/ossm — create or hot-swap behind an epoch."""
        if not body:
            raise InvalidRequest("empty upload: expected an .npz artifact")
        ossm = await asyncio.to_thread(_load_ossm_artifact, body)
        created = name not in self.tenants
        if created:
            tenant = self.tenants.create(name, ossm)
            epoch = tenant.epoch
        else:
            epoch = self.tenants.publish(name, ossm)
        payload = {
            "tenant": name,
            "epoch": epoch,
            "created": created,
            "n_segments": ossm.n_segments,
            "n_items": ossm.n_items,
        }
        return (201 if created else 200), _JSON, _json_body(payload), {}
