"""Worker-process machinery for the chunk-parallel passes.

Everything process-related lives here so its callers (DHP's chunk
passes, Partition's phase 1) stay free of pool plumbing:

* :class:`WorkerPool` — a ``ProcessPoolExecutor`` whose workers hold
  an optional immutable payload. Under the ``fork`` start method the
  payload is inherited by reference at worker creation — zero
  serialization; under ``spawn`` it is pickled once per worker
  process, never per task.
* :class:`SupervisedPool` — a :class:`WorkerPool` with crash/hang
  supervision and whole-batch retry.
* the fan-out telemetry helpers: one ``parallel.shard`` span per shard
  (worker-measured wall time) plus the ``parallel.*`` timers and the
  fan-out overhead counter, all through the existing :mod:`repro.obs`
  seam.

Worker functions are module-level (picklable by reference) and return
plain tuples ending in the worker-measured seconds, so reductions in
the parent are explicit and exact. No float ever touches a support
value.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from collections.abc import Iterator, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from typing import Any, Callable

from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, get_registry, set_registry
from ..obs.trace import trace
from ..resilience import Backoff, PoolFailure, get_injector

__all__ = [
    "WorkerPool",
    "SupervisedPool",
    "plain_pool",
    "record_fanout",
    "TASK_DEADLINE_ENV",
]

logger = get_logger(__name__)

#: Environment knob: seconds without any task completion *or* worker
#: heartbeat before the supervisor declares the pool hung.
TASK_DEADLINE_ENV = "REPRO_TASK_DEADLINE"
_DEFAULT_TASK_DEADLINE = 60.0
#: Pool rebuilds a single batch may consume before giving up.
_DEFAULT_MAX_REBUILDS = 3
#: Supervisor poll interval while a batch is in flight.
_POLL_INTERVAL = 0.05

# -- worker-side telemetry ----------------------------------------------------


def _obs_init(bundle: tuple[Any, ...]) -> None:
    """Initializer wrapper installing this worker's metrics registry.

    *bundle* is ``(forward, initializer, payload)``. When the parent
    had an enabled registry at pool construction, each worker records
    into its own fresh :class:`MetricsRegistry` — NOT the (possibly
    fork-inherited) parent registry, whose accumulated values must not
    be double-counted — and :func:`_obs_task` ships per-task deltas
    back. With observability off this wrapper is never installed.
    """
    forward, initializer, payload = bundle
    if forward:
        set_registry(MetricsRegistry())
    if initializer is not None:
        initializer(payload)


def _obs_task(bundle: tuple[Any, ...]) -> tuple[Any, dict | None]:
    """Task wrapper returning ``(result, metrics_delta)``.

    The delta is this worker's registry snapshot since the previous
    task, captured with snapshot-and-reset so every event is shipped
    exactly once. Tasks of a batch that fails (worker crash, hang)
    are re-run on a rebuilt pool and only the successful attempt is
    harvested, so retries never double-count either.
    """
    task, payload = bundle
    result = task(payload)
    registry = get_registry()
    if registry.enabled:
        delta = registry.snapshot()
        registry.reset()
        return result, delta
    return result, None


def _harvest(wrapped: list[Any]) -> list[Any]:
    """Merge worker metric deltas into the active registry; unwrap."""
    registry = get_registry()
    results = []
    for result, delta in wrapped:
        if delta is not None and registry.enabled:
            registry.merge(delta)
        results.append(result)
    return results


# -- supervision: worker-side -------------------------------------------------

#: Heartbeat board shared with the parent (set by :func:`_supervised_init`).
_HB_BOARD: Any = None
#: This worker's slot in the board.
_HB_SLOT: int = -1


def _heartbeat() -> None:
    if _HB_BOARD is not None and _HB_SLOT >= 0:
        _HB_BOARD[_HB_SLOT] = time.time()


def _supervised_init(bundle: tuple[Any, ...]) -> None:
    """Initializer wrapper: claim a heartbeat slot, then run the real
    initializer. *bundle* is ``(board, slot_counter, slow_delay,
    initializer, payload)``; the board and counter are shared ctypes
    shipped through ``initargs`` (inherited under ``fork``, duplicated
    by the multiprocessing pickler under ``spawn``)."""
    global _HB_BOARD, _HB_SLOT
    board, slot_counter, slow_delay, initializer, payload = bundle
    _HB_BOARD = board
    with slot_counter.get_lock():
        _HB_SLOT = slot_counter.value % len(board)
        slot_counter.value += 1
    if slow_delay > 0.0:
        # pool.slow_start injection, drawn once in the parent per build.
        time.sleep(slow_delay)
    _heartbeat()
    if initializer is not None:
        initializer(payload)


def _supervised_task(bundle: tuple[Any, ...]) -> Any:
    """Task wrapper: beat the heartbeat around the real task and apply
    the parent-drawn fault action. *bundle* is ``(action, delay, task,
    payload)``; ``action`` is ``None`` on every production run —
    the parent only draws non-None under an active fault plan."""
    action, delay, task, payload = bundle
    _heartbeat()
    if action == "crash":
        # A genuine hard death: no exception, no cleanup — the parent
        # sees BrokenProcessPool exactly as with a real SIGKILL.
        os._exit(17)
    if action == "hang":
        time.sleep(delay)
    result = task(payload)
    _heartbeat()
    return result


# -- the pool ----------------------------------------------------------------


def _preferred_context() -> multiprocessing.context.BaseContext:
    """``fork`` where the platform offers it (payloads inherit for
    free), the platform default otherwise."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerPool:
    """A process pool whose workers hold one immutable payload.

    The payload travels through the pool *initializer*: with the
    ``fork`` start method workers inherit it by reference at creation
    (no serialization at all); with ``spawn`` it is pickled once per
    worker process — never once per task, which is what makes reusing
    the pool across Apriori levels cheap.

    Pools hold OS processes, so lifetime is explicit: use as a context
    manager or call :meth:`close`. Dropping the last reference also
    shuts the pool down.
    """

    def __init__(
        self,
        workers: int,
        initializer: Callable[..., None] | None = None,
        payload: Any = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        # Captured once at construction: whether the parent wants
        # worker telemetry shipped back. Workers are created now, so
        # a registry enabled *later* cannot reach them anyway.
        self._forward_metrics = get_registry().enabled
        kwargs: dict[str, Any] = {}
        if self._forward_metrics or initializer is not None:
            kwargs["initializer"] = _obs_init
            kwargs["initargs"] = (
                (self._forward_metrics, initializer, payload),
            )
        self._executor: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_preferred_context(),
            **kwargs,
        )

    @property
    def forwards_metrics(self) -> bool:
        """Whether worker metric deltas ride back with each result."""
        return self._forward_metrics

    def run(
        self,
        task: Callable[[Any], Any],
        payloads: Sequence[Any],
    ) -> list[Any]:
        """Run *task* over *payloads*; results in payload order.

        With metrics forwarding on, each worker's per-task registry
        delta is merged into the parent's active registry here, after
        the whole batch succeeded.
        """
        futures = [self.submit(task, payload) for payload in payloads]
        results = [future.result() for future in futures]
        if self._forward_metrics:
            return _harvest(results)
        return results

    def submit(
        self, task: Callable[[Any], Any], payload: Any
    ) -> Future[Any]:
        """Submit one task; the supervisor's entry point.

        With metrics forwarding on the future resolves to the
        ``(result, delta)`` pair of :func:`_obs_task`; :meth:`run` and
        the supervisor unwrap via :func:`_harvest`.
        """
        if self._executor is None:
            raise RuntimeError("pool is closed")
        if self._forward_metrics:
            return self._executor.submit(_obs_task, (task, payload))
        return self._executor.submit(task, payload)

    def close(self) -> None:
        """Shut the pool down (idempotent, safe on half-built instances).

        ``getattr`` rather than attribute access: ``__del__`` invokes
        this even when ``__init__`` raised before ``_executor`` was
        assigned (e.g. on a bad ``workers`` value).
        """
        executor = getattr(self, "_executor", None)
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=True)

    def kill(self) -> None:
        """Tear the pool down *without* waiting for in-flight tasks.

        For broken or hung pools: a graceful :meth:`close` would join a
        worker that is never coming back. Terminates every live worker
        (escalating to SIGKILL if one survives its grace period) and
        abandons queued work.
        """
        executor = getattr(self, "_executor", None)
        self._executor = None
        if executor is None:
            return
        process_map = getattr(executor, "_processes", None)
        processes = list(process_map.values()) if process_map else []
        for process in processes:
            with contextlib.suppress(Exception):
                process.terminate()
        with contextlib.suppress(Exception):
            executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            with contextlib.suppress(Exception):
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        # Never propagate from a finalizer: at interpreter shutdown the
        # executor machinery may already be torn down, and joining a
        # SIGKILLed pool can surface BaseExceptions (not just
        # Exceptions) that must never escape a finalizer.
        try:
            self.close()
        except BaseException:
            pass


@contextmanager
def plain_pool(workers: int) -> Iterator[WorkerPool]:
    """A payload-less :class:`WorkerPool` (task args pickled per task)."""
    pool = WorkerPool(workers)
    try:
        yield pool
    finally:
        pool.close()


# -- supervision: parent-side -------------------------------------------------


class _PoolHang(RuntimeError):
    """Internal: the supervisor's hang deadline expired."""


def _task_deadline() -> float:
    raw = os.environ.get(TASK_DEADLINE_ENV, "")
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return _DEFAULT_TASK_DEADLINE


class SupervisedPool:
    """A :class:`WorkerPool` wrapped in crash/hang supervision.

    Same construction signature and ``run``/context-manager surface as
    :class:`WorkerPool`, so call sites swap freely. The differences are
    what happens when workers misbehave:

    * every worker beats a shared heartbeat board at task start and
      finish; a batch with no completion *and* no heartbeat for
      ``deadline`` seconds (``REPRO_TASK_DEADLINE``) is declared hung
      and the pool is killed rather than waited on forever;
    * a worker death (``BrokenProcessPool``) or a declared hang tears
      the pool down, sleeps a bounded-exponential :class:`Backoff`
      step, rebuilds the pool from the retained initializer/payload,
      and resubmits the *whole* batch — sound because every task in
      this package is a pure function of its payload;
    * after ``max_rebuilds`` consecutive failed attempts the batch
      raises :class:`~repro.resilience.errors.PoolFailure` and the
      caller takes its serial fallback.

    Fault injection (``pool.worker_crash`` / ``pool.worker_hang`` /
    ``pool.slow_start``) is drawn in the *parent* — once per attempt,
    shipped inside the task bundle — so a ``times=1`` rule fires
    exactly once globally instead of once per rebuilt worker.
    """

    def __init__(
        self,
        workers: int,
        initializer: Callable[..., None] | None = None,
        payload: Any = None,
        *,
        deadline: float | None = None,
        max_rebuilds: int | None = None,
        backoff: Backoff | None = None,
        name: str = "parallel.pool",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.name = name
        self.deadline = _task_deadline() if deadline is None else deadline
        self.max_rebuilds = (
            _DEFAULT_MAX_REBUILDS if max_rebuilds is None else max_rebuilds
        )
        self._initializer = initializer
        self._payload = payload
        self._backoff = backoff if backoff is not None else Backoff(seed=0)
        self._ctx = _preferred_context()
        self._board: Any = None
        self._pool: WorkerPool | None = None
        self._closed = False
        self._build()

    # -- lifecycle -------------------------------------------------------

    def _build(self) -> None:
        self._board = self._ctx.Array("d", self.workers)
        slot_counter = self._ctx.Value("i", 0)
        slow_delay = 0.0
        injector = get_injector()
        if injector.enabled:
            rule = injector.fire("pool.slow_start")
            if rule is not None:
                slow_delay = rule.delay
        bundle = (
            self._board,
            slot_counter,
            slow_delay,
            self._initializer,
            self._payload,
        )
        self._pool = WorkerPool(self.workers, _supervised_init, bundle)

    def close(self) -> None:
        """Release the workers (idempotent, safe on half-built instances)."""
        self._closed = True
        pool = getattr(self, "_pool", None)
        self._pool = None
        self._board = None
        if pool is not None:
            pool.close()

    def kill(self) -> None:
        """Hard teardown (see :meth:`WorkerPool.kill`)."""
        self._closed = True
        pool = getattr(self, "_pool", None)
        self._pool = None
        self._board = None
        if pool is not None:
            pool.kill()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        # Never propagate from a finalizer (see WorkerPool.__del__).
        try:
            self.close()
        except BaseException:
            pass

    # -- supervised execution --------------------------------------------

    def _wrap(
        self, task: Callable[[Any], Any], payload: Any
    ) -> tuple[Any, ...]:
        action: str | None = None
        delay = 0.0
        injector = get_injector()
        if injector.enabled:
            rule = injector.fire("pool.worker_crash")
            if rule is not None:
                action = "crash"
            else:
                rule = injector.fire("pool.worker_hang")
                if rule is not None:
                    action, delay = "hang", rule.delay
        return (action, delay, task, payload)

    def run(
        self,
        task: Callable[[Any], Any],
        payloads: Sequence[Any],
    ) -> list[Any]:
        """Run *task* over *payloads* with supervision; payload order.

        Retries the whole batch on worker death or hang (tasks are pure,
        so re-execution is free of side effects); raises
        :class:`PoolFailure` once the rebuild budget is spent.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        metrics = get_registry()
        attempts = 0
        while True:
            # Fault draws happen per attempt: hit counters advance, so a
            # times=1 crash rule fires on the first attempt only and the
            # retry runs clean.
            bundles = [self._wrap(task, payload) for payload in payloads]
            try:
                return self._run_once(bundles)
            except (BrokenExecutor, _PoolHang) as exc:
                attempts += 1
                cause = (
                    "hang deadline expired"
                    if isinstance(exc, _PoolHang)
                    else "worker process died"
                )
                if metrics.enabled:
                    metrics.inc(
                        "resilience.pool.hangs"
                        if isinstance(exc, _PoolHang)
                        else "resilience.pool.crashes"
                    )
                # Failure path only — never reached on a healthy batch.
                logger.warning(  # lint: skip=hot-obs-unguarded
                    "%s: %s (attempt %d/%d)",
                    self.name, cause, attempts, self.max_rebuilds + 1,
                )
                pool = self._pool
                self._pool = None
                if pool is not None:
                    pool.kill()
                if attempts > self.max_rebuilds:
                    raise PoolFailure(attempts, cause) from exc
                self._backoff.sleep()
                if metrics.enabled:
                    metrics.inc("resilience.pool.rebuilds")
                self._build()

    def _run_once(self, bundles: Sequence[tuple[Any, ...]]) -> list[Any]:
        pool = self._pool
        board = self._board
        if pool is None or board is None:
            raise RuntimeError("pool is closed")
        futures = [pool.submit(_supervised_task, bundle) for bundle in bundles]
        pending = set(futures)
        last_beat = max(board[:])
        last_progress = time.time()
        while pending:
            done, pending = wait(
                pending, timeout=_POLL_INTERVAL, return_when=FIRST_COMPLETED
            )
            for future in done:
                future.result()  # surfaces BrokenProcessPool / task errors
            now = time.time()
            beat = max(board[:])
            if done or beat > last_beat:
                last_progress = now
                last_beat = max(last_beat, beat)
            elif pending and now - last_progress > self.deadline:
                raise _PoolHang(
                    f"no completion or heartbeat in {self.deadline:.1f}s "
                    f"({len(pending)} tasks outstanding)"
                )
        self._backoff.reset()
        results = [future.result() for future in futures]
        if pool.forwards_metrics:
            # Harvest only here, on the attempt that completed: a
            # failed batch is re-run whole, and merging its partial
            # worker deltas would double-count the re-executed tasks.
            return _harvest(results)
        return results


# -- telemetry ---------------------------------------------------------------


def record_fanout(
    kind: str,
    timings: Sequence[tuple[int, int, float]],
    wall_seconds: float,
) -> None:
    """Record one fan-out: per-shard spans plus overhead metrics.

    *timings* is ``(shard_index, shard_size, worker_seconds)`` per
    shard. Each shard becomes a ``<kind>.shard`` span whose elapsed
    time is the worker-measured wall time (the parent cannot time the
    remote work directly). Fan-out overhead — parent wall time beyond
    the busiest shard, i.e. serialization + scheduling — lands in
    ``<kind>.fanout_overhead_seconds``, and ``<kind>.fanouts`` counts
    dispatches.
    """
    for shard_index, size, seconds in timings:
        with trace(
            f"{kind}.shard", shard=shard_index, transactions=size
        ) as span:
            pass
        if span is not None:
            span.elapsed_seconds = seconds
    registry = get_registry()
    if registry.enabled:
        timer = registry.timer(f"{kind}.shard_seconds")
        busiest = 0.0
        for _shard_index, _size, seconds in timings:
            timer.observe(seconds)
            if seconds > busiest:
                busiest = seconds
        overhead = wall_seconds - busiest
        if overhead < 0.0:
            overhead = 0.0
        registry.timer(f"{kind}.fanout_overhead_seconds").observe(overhead)
        registry.inc(f"{kind}.fanouts")
        registry.inc(f"{kind}.shards", len(timings))
