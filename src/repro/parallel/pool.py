"""Worker-process machinery for the chunk-parallel passes.

Everything process-related lives here so its callers (DHP's chunk
passes, Partition's phase 1, both through
:func:`~repro.mining.counting.make_pool`) stay free of pool plumbing:

* :class:`SupervisedPool` — a ``ProcessPoolExecutor`` with crash/hang
  supervision and whole-batch retry. Task payloads are pickled per
  task; workers hold no parent state.
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
from collections.abc import Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable

from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, get_registry, set_registry
from ..obs.trace import trace
from ..resilience import Backoff, PoolFailure, get_injector
from ..resilience.heartbeat import heartbeat, install_heartbeat

__all__ = [
    "SupervisedPool",
    "record_fanout",
]

logger = get_logger(__name__)

#: Seconds without any task completion *or* worker heartbeat before
#: the supervisor declares the pool hung.
_DEFAULT_TASK_DEADLINE = 60.0
#: Pool rebuilds a single batch may consume before giving up.
_DEFAULT_MAX_REBUILDS = 3
#: Supervisor poll interval while a batch is in flight.
_POLL_INTERVAL = 0.05

# -- worker side --------------------------------------------------------------


def _supervised_init(
    board: Any, slot_counter: Any, slow_delay: float, forward: bool
) -> None:
    """Worker initializer: install a fresh metrics registry when the
    parent forwards telemetry, claim a heartbeat slot, then beat.

    The board and slot counter are shared ctypes shipped through
    ``initargs`` (inherited under ``fork``, duplicated by the
    multiprocessing pickler under ``spawn``). A forwarding worker
    records into its own :class:`MetricsRegistry` — NOT the (possibly
    fork-inherited) parent registry, whose accumulated values must not
    be double-counted — and :func:`_supervised_task` ships per-task
    deltas back.
    """
    if forward:
        set_registry(MetricsRegistry())
    with slot_counter.get_lock():
        slot = slot_counter.value % len(board)
        slot_counter.value += 1
    install_heartbeat(board, slot)
    if slow_delay > 0.0:
        # pool.slow_start injection, drawn once in the parent per build.
        time.sleep(slow_delay)
    heartbeat()


def _supervised_task(bundle: tuple[Any, ...]) -> Any:
    """Task wrapper: beat the heartbeat around the real task, apply the
    parent-drawn fault action, and ship the worker's metric delta.

    *bundle* is ``(action, delay, forward, task, payload)``; ``action``
    is ``None`` on every production run — the parent only draws
    non-None under an active fault plan. With ``forward`` set the
    result is ``(result, delta)``, where the delta is this worker's
    registry snapshot since its previous task, captured with
    snapshot-and-reset so every event is shipped exactly once; a raw
    result otherwise.
    """
    action, delay, forward, task, payload = bundle
    heartbeat()
    if action == "crash":
        # A genuine hard death: no exception, no cleanup — the parent
        # sees BrokenProcessPool exactly as with a real SIGKILL.
        os._exit(17)
    if action == "hang":
        time.sleep(delay)
    result = task(payload)
    heartbeat()
    if not forward:
        return result
    registry = get_registry()
    delta = registry.snapshot()
    registry.reset()
    return result, delta


def _harvest(wrapped: list[Any]) -> list[Any]:
    """Merge worker metric deltas into the active registry; unwrap."""
    registry = get_registry()
    results = []
    for result, delta in wrapped:
        if registry.enabled:
            registry.merge(delta)
        results.append(result)
    return results


# -- parent side --------------------------------------------------------------


def _preferred_context() -> multiprocessing.context.BaseContext:
    """``fork`` where the platform offers it (cheap worker start), the
    platform default otherwise."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class _PoolHang(RuntimeError):
    """Internal: the supervisor's hang deadline expired."""


class SupervisedPool:
    """A process pool with crash/hang supervision.

    * every worker beats a shared heartbeat board at task start and
      finish, and once per mining unit inside the task
      (:mod:`repro.resilience.heartbeat`); a batch with no completion
      *and* no heartbeat for ``deadline`` seconds is declared hung and
      the pool is killed rather than waited on forever;
    * a worker death (``BrokenProcessPool``) or a declared hang tears
      the pool down, sleeps a bounded-exponential :class:`Backoff`
      step, rebuilds the pool, and resubmits the *whole* batch — sound
      because every task in this package is a pure function of its
      payload;
    * after ``max_rebuilds`` consecutive failed attempts the batch
      raises :class:`~repro.resilience.errors.PoolFailure`.

    Fault injection (``pool.worker_crash`` / ``pool.worker_hang`` /
    ``pool.slow_start``) is drawn in the *parent* — once per attempt,
    shipped inside the task bundle — so a ``times=1`` rule fires
    exactly once globally instead of once per rebuilt worker.

    With an enabled metrics registry at construction, each worker's
    per-task registry delta rides home with its result and is merged
    into the parent's registry once the batch completes.

    Pools hold OS processes, so lifetime is explicit: use as a context
    manager or call :meth:`close`. Dropping the last reference also
    shuts the pool down.
    """

    def __init__(
        self,
        workers: int,
        *,
        deadline: float = _DEFAULT_TASK_DEADLINE,
        max_rebuilds: int = _DEFAULT_MAX_REBUILDS,
        backoff: Backoff | None = None,
        name: str = "parallel.pool",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.name = name
        self.deadline = deadline
        self.max_rebuilds = max_rebuilds
        self._backoff = backoff if backoff is not None else Backoff(seed=0)
        # Captured once at construction: whether the parent wants
        # worker telemetry shipped back. A registry enabled *later*
        # cannot reach workers built now anyway.
        self._forward_metrics = get_registry().enabled
        self._ctx = _preferred_context()
        self._board: Any = None
        self._executor: ProcessPoolExecutor | None = None
        self._build()

    @property
    def forwards_metrics(self) -> bool:
        """Whether worker metric deltas ride back with each result."""
        return self._forward_metrics

    # -- lifecycle -------------------------------------------------------

    def _build(self) -> None:
        self._board = self._ctx.Array("d", self.workers)
        slow_delay = 0.0
        injector = get_injector()
        if injector.enabled:
            rule = injector.fire("pool.slow_start")
            if rule is not None:
                slow_delay = rule.delay
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._ctx,
            initializer=_supervised_init,
            initargs=(
                self._board,
                self._ctx.Value("i", 0),
                slow_delay,
                self._forward_metrics,
            ),
        )

    def _detach(self) -> ProcessPoolExecutor | None:
        """Drop the executor and board; return the executor, if any.

        ``getattr`` rather than attribute access: ``__del__`` reaches
        here even when ``__init__`` raised before ``_executor`` was
        assigned (e.g. on a bad ``workers`` value).
        """
        executor = getattr(self, "_executor", None)
        self._executor = None
        self._board = None
        return executor

    def close(self) -> None:
        """Shut the pool down (idempotent, safe on half-built instances)."""
        executor = self._detach()
        if executor is not None:
            executor.shutdown(wait=True)

    def kill(self) -> None:
        """Tear the pool down *without* waiting for in-flight tasks.

        For broken or hung pools: a graceful :meth:`close` would join a
        worker that is never coming back. Terminates every live worker
        (escalating to SIGKILL if one survives its grace period) and
        abandons queued work.
        """
        executor = self._detach()
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

    def __enter__(self) -> "SupervisedPool":
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
        return (action, delay, self._forward_metrics, task, payload)

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
        if self._executor is None:
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
                self.kill()
                if attempts > self.max_rebuilds:
                    raise PoolFailure(attempts, cause) from exc
                self._backoff.sleep()
                if metrics.enabled:
                    metrics.inc("resilience.pool.rebuilds")
                self._build()

    def _run_once(self, bundles: Sequence[tuple[Any, ...]]) -> list[Any]:
        executor = self._executor
        board = self._board
        if executor is None or board is None:
            raise RuntimeError("pool is closed")
        futures = [
            executor.submit(_supervised_task, bundle) for bundle in bundles
        ]
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
        if self._forward_metrics:
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
