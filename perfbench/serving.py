"""The serving path: a gateway subprocess, its client and its oracle.

The gateway runs in its own process — ``python -m repro serve
--listen`` untraced, ``perfbench/server.py`` traced — and this module
is the client process. It speaks HTTP/1.1 over two keep-alive
connections and has two traffic shapes:

* **open loop** (``single``): single-itemset POSTs sent on a fixed
  schedule whether or not earlier answers have arrived; latency is
  timed from when each request was *due*, so a stall also charges the
  requests queued behind it, and the generator's own lateness is kept;
* **closed loop** (``batch``): each connection sends its next POST of
  256 itemsets as soon as the previous answer arrives.

Responses are kept raw while the clock runs and checked afterwards:
every 200 must carry, for the epoch it reports, exactly the bound
scalar ``OSSM.upper_bound`` gives.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.ossm import OSSM

TENANT = "default"
BOUNDS_PATH = f"/v1/tenants/{TENANT}/bounds"
STATS_PATH = f"/v1/tenants/{TENANT}/stats"

#: Open-loop offered rate: about half the closed-loop capacity of
#: single-itemset requests measured on a 2-core machine (~600 req/s).
SINGLE_RATE = 300.0
#: Distinct itemsets the single-request stream draws from, by Zipf
#: popularity; larger than the gateway's 4 096-entry bound cache.
SINGLE_UNIVERSE = 100_000
SINGLE_ZIPF = 1.0
#: Itemsets per closed-loop POST.
BATCH_SIZE = 256
CONNECTIONS = 2


# -- traffic -------------------------------------------------------------


class SingleStream:
    """Itemsets of 2–3 items drawn by Zipf popularity, in a fixed order."""

    def __init__(self, seed: int, n_items: int) -> None:
        self._rng = np.random.default_rng([seed, 1])
        self._universe = _random_itemsets(
            self._rng, n_items, SINGLE_UNIVERSE, (2, 3)
        )
        weights = np.arange(1, SINGLE_UNIVERSE + 1, dtype=np.float64)
        weights **= -SINGLE_ZIPF
        self._p = weights / weights.sum()

    def take(self, count: int) -> list[list[int]]:
        picks = self._rng.choice(len(self._universe), size=count, p=self._p)
        return [self._universe[i] for i in picks]


def batch_itemsets(seed: int, n_items: int, index: int) -> list[list[int]]:
    """The *index*-th closed-loop request: cold itemsets of 2–4 items."""
    rng = np.random.default_rng([seed, 2, index])
    return _random_itemsets(rng, n_items, BATCH_SIZE, (2, 3, 4))


def _random_itemsets(rng, n_items: int, count: int, sizes) -> list[list[int]]:
    out = []
    lengths = rng.choice(sizes, size=count)
    draws = rng.integers(0, n_items, size=(count, max(sizes) * 2))
    for length, row in zip(lengths, draws):
        items = sorted(set(row.tolist()))
        if len(items) < length:
            items = sorted(set(items) | set(range(length)))
        rng.shuffle(items)
        out.append(sorted(items[:length]))
    return out


# -- records and oracle --------------------------------------------------


@dataclass
class Request:
    """One HTTP request the client attempted."""

    itemsets: list[list[int]]
    single: bool
    due: float
    sent: float = 0.0
    received: float = 0.0
    status: int = 0  # 0 = connection error, no response
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200


def check_responses(
    requests: Sequence[Request], maps: dict[int, OSSM]
) -> list[str]:
    """Every 200 must equal scalar ``upper_bound`` at its reported epoch.

    *maps* holds the map served at each epoch. Non-2xx responses and
    connection errors are not oracle failures; they count toward
    ``failed_share``.
    """
    errors: list[str] = []
    expected: dict[tuple[int, tuple[int, ...]], int] = {}
    for index, request in enumerate(requests):
        if not request.ok:
            continue
        try:
            payload = json.loads(request.body)
            epoch = payload["epoch"]
            bounds = (
                [payload["bound"]] if request.single else payload["bounds"]
            )
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"request {index}: malformed 200 body ({exc!r})")
            continue
        ossm = maps.get(epoch)
        if ossm is None or payload.get("tenant") != TENANT:
            errors.append(
                f"request {index}: labelled tenant {payload.get('tenant')!r}"
                f" epoch {epoch!r}, which was never served"
            )
            continue
        if len(bounds) != len(request.itemsets):
            errors.append(
                f"request {index}: {len(bounds)} bounds for "
                f"{len(request.itemsets)} itemsets"
            )
            continue
        for itemset, bound in zip(request.itemsets, bounds):
            key = (epoch, tuple(itemset))
            truth = expected.get(key)
            if truth is None:
                truth = expected[key] = ossm.upper_bound(itemset)
            if bound != truth:
                errors.append(
                    f"request {index}: bound {bound} for {itemset} at "
                    f"epoch {epoch}, OSSM.upper_bound says {truth}"
                )
                break
    return errors


def failed_share(requests: Sequence[Request]) -> float:
    return sum(not r.ok for r in requests) / max(1, len(requests))


# -- HTTP ----------------------------------------------------------------


def _post(host: str, single: bool, itemsets: list[list[int]]) -> bytes:
    payload = (
        {"itemset": itemsets[0]} if single else {"itemsets": itemsets}
    )
    body = json.dumps(payload, separators=(",", ":")).encode()
    head = (
        f"POST {BOUNDS_PATH} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        key, _, value = line.partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


_NET_ERRORS = (
    ConnectionError, OSError, asyncio.IncompleteReadError,
    asyncio.TimeoutError,
)
_RESPONSE_TIMEOUT = 10.0


async def open_loop(
    host: str, port: int, stream: Sequence[list[int]], rate: float
) -> list[Request]:
    """Send ``stream[i]`` at ``start + i / rate`` round-robin over the
    connections, each connection keeping its requests in flight."""
    start = time.perf_counter() + 0.05
    requests = [
        Request([itemset], True, start + index / rate)
        for index, itemset in enumerate(stream)
    ]

    async def connection(mine: list[Request]) -> None:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except _NET_ERRORS:
            return
        in_flight: deque[Request] = deque()
        broken = asyncio.Event()

        async def receive() -> None:
            try:
                for _ in range(len(mine)):
                    # A response only follows its request, which joins
                    # in_flight before it is written.
                    status, body = await asyncio.wait_for(
                        _read_response(reader), _RESPONSE_TIMEOUT
                    )
                    request = in_flight.popleft()
                    request.received = time.perf_counter()
                    request.status, request.body = status, body
            except _NET_ERRORS:
                broken.set()

        receiver = asyncio.create_task(receive())
        try:
            for request in mine:
                delay = request.due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                if broken.is_set():
                    break
                request.sent = time.perf_counter()
                in_flight.append(request)
                writer.write(_post(host, True, request.itemsets))
                await writer.drain()
        except _NET_ERRORS:
            broken.set()
        finally:
            if broken.is_set():
                receiver.cancel()
            await asyncio.gather(receiver, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except _NET_ERRORS:
                pass

    await asyncio.gather(*(
        connection(requests[offset::CONNECTIONS])
        for offset in range(CONNECTIONS)
    ))
    return requests


async def closed_loop(
    host: str, port: int, make: Callable[[int], list[list[int]]],
    seconds: float | None, limit: int | None = None,
) -> list[Request]:
    """Each connection sends ``make(i)`` as soon as answer ``i-1`` lands,
    until *seconds* have passed or *limit* requests were sent."""
    requests: list[Request] = []
    deadline = None if seconds is None else time.perf_counter() + seconds

    def more() -> bool:
        if limit is not None and len(requests) >= limit:
            return False
        return deadline is None or time.perf_counter() < deadline

    async def connection() -> None:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except _NET_ERRORS:
            return
        try:
            while more():
                request = Request(make(len(requests)), False, 0.0)
                requests.append(request)
                data = _post(host, False, request.itemsets)
                request.due = request.sent = time.perf_counter()
                writer.write(data)
                await writer.drain()
                request.status, request.body = await asyncio.wait_for(
                    _read_response(reader), _RESPONSE_TIMEOUT
                )
                request.received = time.perf_counter()
        except _NET_ERRORS:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except _NET_ERRORS:
                pass

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    return requests


class Phase:
    """The serving side of one run: a warm-up, then timed chunks.

    Chunks alternate with mining steps (see ``run.py``), so serving
    and mining samples both spread over the whole run.
    """

    #: Itemsets sent through batch POSTs before the open loop starts,
    #: so the 4 096-entry cache is full and at its steady hit rate.
    WARM_ITEMSETS = 12_288
    #: Cold batch POSTs sent before a closed loop starts.
    WARM_BATCHES = 16

    def __init__(self, seed: int, traffic: str, n_items: int) -> None:
        self.seed = seed
        self.traffic = traffic
        self.n_items = n_items
        self.warm_requests: list[Request] = []
        self.timed: list[Request] = []
        self.windows: list[tuple[float, float]] = []
        self._stream = SingleStream(seed, n_items)
        self._batches = 0

    def _batch(self, index: int) -> list[list[int]]:
        return batch_itemsets(self.seed, self.n_items, index)

    def warm(self, gateway: "GatewayProcess") -> None:
        if self.traffic == "single":
            warm = self._stream.take(self.WARM_ITEMSETS)
            chunks = [
                warm[i:i + BATCH_SIZE] for i in range(0, len(warm), BATCH_SIZE)
            ]
            make, limit = chunks.__getitem__, len(chunks)
        else:
            offset = 1 << 40  # a range the timed requests never reach
            make, limit = (lambda i: self._batch(offset + i)), self.WARM_BATCHES
        self.warm_requests += asyncio.run(closed_loop(
            gateway.host, gateway.port, make, None, limit=limit,
        ))

    def chunk(self, gateway: "GatewayProcess", seconds: float) -> None:
        """About *seconds* of the workload's traffic.

        The client keeps every request until the oracle runs; with the
        collector on, its growing heap would add pauses to latencies.
        """
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            if self.traffic == "single":
                count = max(1, round(SINGLE_RATE * seconds))
                requests = asyncio.run(open_loop(
                    gateway.host, gateway.port, self._stream.take(count),
                    SINGLE_RATE,
                ))
                start = requests[0].due
            else:
                first = self._batches
                requests = asyncio.run(closed_loop(
                    gateway.host, gateway.port,
                    lambda i: self._batch(first + i), seconds,
                ))
                self._batches += len(requests)
            self.windows.append((start, time.perf_counter()))
            self.timed += requests
        finally:
            gc.enable()

    @property
    def busy_s(self) -> float:
        return sum(end - start for start, end in self.windows)

    def all_requests(self) -> list[Request]:
        return self.warm_requests + self.timed

    def latency_ms(self, q: int) -> float:
        """The *q*-th percentile of timed requests' latency, from when
        each was due; a failed request counts as never answered within
        the run's serving time."""
        never = self.busy_s * 1e3
        latencies = [
            (r.received - r.due) * 1e3 if r.ok else never for r in self.timed
        ]
        return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]

    def bounds_per_s(self) -> float:
        answered = sum(len(r.itemsets) for r in self.timed if r.ok)
        return answered / self.busy_s

    def summary(self) -> str:
        kind = (
            f"open loop at {SINGLE_RATE:.0f} req/s"
            if self.traffic == "single"
            else f"closed loop, {CONNECTIONS} connections"
        )
        n = len(self.timed)
        return (
            f"{kind}, {n} timed requests in {len(self.windows)} chunks "
            f"(+{len(self.warm_requests)} warm-up); p99 has "
            f"{n - int(0.99 * n)} samples above it"
        )


# -- the gateway process -------------------------------------------------


@dataclass
class GatewayProcess:
    process: subprocess.Popen
    host: str
    port: int
    boot_s: float

    def get_json(self, path: str) -> dict:
        url = f"http://{self.host}:{self.port}{path}"
        with urllib.request.urlopen(url, timeout=10) as response:
            return json.loads(response.read())

    def peak_rss_mb(self) -> float:
        """The process's peak resident set size (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM, then wait for the drain; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        if self.process.stdout is not None:
            self.process.stdout.read()
            self.process.stdout.close()


def start_gateway(
    root: str, map_path: str, spans_path: str | None = None
) -> GatewayProcess:
    """Boot a gateway over *map_path*; returns once ``/ready`` is 200.

    With *spans_path* the traced ``perfbench/server.py`` runs instead
    of the CLI, and writes its spans there when stopped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    if spans_path is None:
        argv = [
            sys.executable, "-m", "repro", "serve", "--ossm", map_path,
            "--listen", "127.0.0.1:0",
        ]
    else:
        argv = [
            sys.executable, os.path.join(root, "perfbench", "server.py"),
            "--ossm", map_path, "--out", spans_path,
        ]
    start = time.perf_counter()
    process = subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    gateway = None
    try:
        line = process.stdout.readline()
        if not line.startswith("gateway on http://"):
            raise RuntimeError(f"gateway did not boot: {line!r}")
        address = line.split("http://", 1)[1].split("/", 1)[0]
        host, port = address.rsplit(":", 1)
        gateway = GatewayProcess(process, host, int(port), 0.0)
        deadline = time.perf_counter() + 60
        while True:
            try:
                if gateway.get_json("/ready").get("status") == "ready":
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("gateway never became ready")
            time.sleep(0.005)
        gateway.boot_s = time.perf_counter() - start
        return gateway
    except BaseException:
        if gateway is not None:
            gateway.stop()
        else:
            process.kill()
            process.wait(timeout=15)
            if process.stdout is not None:
                process.stdout.close()
        raise
