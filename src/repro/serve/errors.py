"""Typed errors of the online bound-serving plane.

All service failures derive from :class:`ServeError` so callers can
catch the family with one clause while still telling overload apart
from timeout — the two need opposite client reactions (back off
vs. retry elsewhere).

Every subclass carries the two attributes the HTTP edge needs to map
it *mechanically* (no ``isinstance`` ladders, no string matching on
type names):

* :attr:`ServeError.status_code` — the HTTP status the error
  translates to (class attribute; instances may override);
* :attr:`ServeError.retry_after` — seconds after which a retry is
  reasonable, or ``None`` when retrying does not help. The gateway
  renders it both in the JSON body and as a ``Retry-After`` header.

A third-party ``ServeError`` subclass that sets these two attributes
is served by the gateway exactly like the built-in ones.
"""

from __future__ import annotations

__all__ = [
    "Draining",
    "InvalidRequest",
    "Overloaded",
    "QueryTimeout",
    "QuotaExceeded",
    "ServeError",
    "ServiceClosed",
    "UnknownTenant",
]


class ServeError(RuntimeError):
    """Base class of every bound-serving failure.

    Subclasses override :attr:`status_code` (and set
    :attr:`retry_after` per instance when a retry hint exists); the
    HTTP edge reads both attributes instead of inspecting types.
    """

    #: HTTP status the gateway answers with for this error family.
    status_code: int = 500

    #: Seconds until a retry is worthwhile, or ``None`` (no hint).
    retry_after: float | None = None


class InvalidRequest(ServeError):
    """The request is malformed: bad JSON, bad itemset, bad tenant name.

    Retrying the identical request can only fail the identical way, so
    no ``retry_after`` hint is attached.
    """

    status_code = 400


class UnknownTenant(ServeError):
    """No tenant is registered under the requested name."""

    status_code = 404

    def __init__(self, tenant: str) -> None:
        super().__init__(f"unknown tenant {tenant!r}")
        self.tenant = tenant


class Overloaded(ServeError):
    """The request was shed: admitting it would exceed ``max_pending``.

    Load shedding is deliberate back-pressure — the service rejects at
    the door rather than queueing unboundedly. Clients should back off
    and retry; the request had no side effects.
    """

    status_code = 503

    def __init__(
        self,
        pending: int,
        max_pending: int,
        retry_after: float | None = 0.05,
    ) -> None:
        super().__init__(
            f"service overloaded: {pending} itemsets pending "
            f"(max_pending={max_pending})"
        )
        self.pending = pending
        self.max_pending = max_pending
        self.retry_after = retry_after


class QuotaExceeded(Overloaded):
    """The tenant spent its admission quota (token bucket empty).

    A quota rejection is still back-pressure, but *per tenant* and
    *expected*: the bucket refills at the configured rate, so the
    ``retry_after`` hint is exact, not heuristic. HTTP maps it to 429
    (the shared-overload :class:`Overloaded` stays 503) so clients can
    tell "slow down, you specifically" from "the box is busy".
    """

    status_code = 429

    def __init__(self, tenant: str, retry_after: float) -> None:
        # Skip Overloaded.__init__: the message and fields differ.
        ServeError.__init__(
            self,
            f"tenant {tenant!r} exceeded its query quota; "
            f"retry in {retry_after:.3f}s",
        )
        self.tenant = tenant
        self.retry_after = float(retry_after)


class QueryTimeout(ServeError):
    """The per-request timeout elapsed before the bound was computed.

    The call's own evaluation is cancelled with it and warms nothing;
    no other call waits on it.
    """

    status_code = 504

    def __init__(self, timeout: float) -> None:
        super().__init__(f"bound query timed out after {timeout:.3f}s")
        self.timeout = timeout


class ServiceClosed(ServeError):
    """The service was asked for work after :meth:`aclose`."""

    status_code = 503

    def __init__(self, what: str = "bound-query service") -> None:
        super().__init__(f"{what} is closed")


class Draining(ServeError):
    """The gateway is shutting down gracefully and sheds new work.

    Raised for requests arriving after SIGTERM flipped ``/ready`` to
    503 but before the drain deadline closed the listener. In-flight
    requests still complete; the client should retry against another
    replica (load balancers watching ``/ready`` stop routing here
    within one probe interval, hence the short hint).
    """

    status_code = 503

    def __init__(self, retry_after: float = 1.0) -> None:
        super().__init__("gateway is draining; retry against a peer")
        self.retry_after = float(retry_after)
