"""Deterministic, seeded fault injection.

Every recovery path in the package — pool rebuilds, circuit breaking,
checkpoint resume, artifact verification — is exercised through *named
injection points* compiled into the production code. A point is a
plain string (``"pool.worker_crash"``, ``"io.ossm.bitflip"``); what
firing *means* is defined by the call site:

========================  ==================================================
point                     effect when the rule fires
========================  ==================================================
``pool.worker_crash``     the worker process exits hard (``os._exit``),
                          producing a genuine ``BrokenProcessPool``
``pool.worker_hang``      the worker sleeps ``delay`` seconds before its
                          task — trips the supervisor's hang deadline
``pool.slow_start``       the pool initializer sleeps ``delay`` seconds
``io.<kind>.truncate``    the artifact's temp file is truncated before
                          the atomic rename (``kind``: ossm/db/checkpoint)
``io.<kind>.bitflip``     one seeded byte of the temp file is flipped
``io.<kind>.crash``       the writer dies after the temp file is written
                          but before the rename — the final path must
                          never see a partial artifact
``mining.level_crash``    the miner dies at the top of a level (use
                          ``after=`` to pick which level hit)
``serve.eval_error``      one service batch evaluation raises
``serve.latency``         one service batch awaits ``asyncio.sleep(delay)``
``serve.wal.mid_append``  a WAL append sleeps ``delay`` with only the
                          first half of the frame durable — a SIGKILL
                          in the window leaves a real torn tail
``serve.publish.pre_wal``  a publish sleeps ``delay`` after the
                          artifact fsync but before the WAL append —
                          a kill here must recover to the OLD epoch
``serve.drain.mid``       the gateway sleeps ``delay`` mid-drain
                          (after readiness flips, before the WAL
                          closes)
========================  ==================================================

Determinism: a rule fires on hits ``after <= n < after + times`` of its
point, counted per :class:`FaultInjector`; random choices (which byte
to flip, where to truncate) come from ``random.Random`` seeded by
``(plan seed, point, hit index)``. Two runs with the same plan inject
byte-identical faults.

Zero-cost when off: production call sites guard every injection with
``injector.enabled`` — a plain attribute read — so a run without a
plan executes exactly the instructions it executed before this module
existed. Activation is explicit: construct a plan in code
(:func:`use_faults`) or set ``REPRO_FAULTS`` (plus optional
``REPRO_FAULTS_SEED``) in the environment; the env route also reaches
``spawn``-start worker processes, and ``fork`` workers inherit the
parent's injector wholesale.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass

from ..obs.log import get_logger
from ..obs.metrics import get_registry
from .errors import InjectedFault

__all__ = [
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "get_injector",
    "set_injector",
    "use_faults",
]

logger = get_logger(__name__)

#: Environment variable holding a fault-plan spec string.
FAULTS_ENV = "REPRO_FAULTS"
#: Environment variable overriding the plan seed (default 0).
FAULTS_SEED_ENV = "REPRO_FAULTS_SEED"

#: Default hang/latency injection sleep when a rule gives no delay.
DEFAULT_DELAY = 30.0


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: fire *times* hits of *point* after *after*.

    ``delay`` parameterizes sleep-style points (hang, slow start,
    latency); raise/crash/corruption points ignore it.
    """

    point: str
    times: int = 1
    after: int = 0
    delay: float = DEFAULT_DELAY

    def __post_init__(self) -> None:
        if not self.point:
            raise ValueError("fault rule needs a point name")
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")

    def fires_on(self, hit: int) -> bool:
        """Whether the rule fires on the zero-based *hit* of its point."""
        return self.after <= hit < self.after + self.times


class FaultPlan:
    """An immutable set of :class:`FaultRule`\\ s plus a seed."""

    def __init__(self, rules: Iterable[FaultRule] = (), seed: int = 0) -> None:
        by_point: dict[str, FaultRule] = {}
        for rule in rules:
            if rule.point in by_point:
                raise ValueError(f"duplicate rule for point {rule.point!r}")
            by_point[rule.point] = rule
        self._rules = by_point
        self.seed = int(seed)

    @property
    def rules(self) -> tuple[FaultRule, ...]:
        return tuple(self._rules.values())

    def rule_for(self, point: str) -> FaultRule | None:
        return self._rules.get(point)

    def __bool__(self) -> bool:
        return bool(self._rules)

    def __repr__(self) -> str:
        body = "; ".join(
            f"{r.point}:times={r.times},after={r.after}" for r in self.rules
        )
        return f"FaultPlan(seed={self.seed}, {body or 'empty'})"

    # -- parsing ---------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a compact plan spec.

        Grammar: rules separated by ``;``, each
        ``point[:key=value[,key=value...]]`` with keys ``times``,
        ``after``, ``delay``. Example::

            pool.worker_crash:times=1;serve.eval_error:after=2,times=1
        """
        rules: list[FaultRule] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            point, _, options = chunk.partition(":")
            kwargs: dict[str, float | int] = {}
            for pair in options.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, _, value = pair.partition("=")
                key = key.strip()
                if key in ("times", "after"):
                    kwargs[key] = int(value)
                elif key == "delay":
                    kwargs[key] = float(value)
                else:
                    raise ValueError(
                        f"unknown fault option {key!r} in {chunk!r}"
                    )
            rules.append(FaultRule(point.strip(), **kwargs))  # type: ignore[arg-type]
        return cls(rules, seed=seed)

    @classmethod
    def from_env(cls, environ: "Mapping[str, str] | None" = None) -> "FaultPlan":
        """The plan described by ``REPRO_FAULTS``, or an empty plan."""
        env = os.environ if environ is None else environ
        spec = env.get(FAULTS_ENV, "")
        seed = int(env.get(FAULTS_SEED_ENV, "0"))
        if not spec:
            return cls((), seed=seed)
        return cls.from_spec(spec, seed=seed)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at named injection points.

    Thread-safe: hit counters advance under a lock, so the serve
    layer's worker threads and the mining loop can share one injector.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        #: False means every injection call site is a no-op guard.
        self.enabled = bool(self.plan)
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()

    def hits(self, point: str) -> int:
        """How many times *point* has been evaluated."""
        with self._lock:
            return self._hits.get(point, 0)

    def fire(self, point: str) -> FaultRule | None:
        """Advance *point*'s hit counter; the rule if this hit fires."""
        rule = self.plan.rule_for(point)
        if rule is None:
            return None
        with self._lock:
            hit = self._hits.get(point, 0)
            self._hits[point] = hit + 1
        if not rule.fires_on(hit):
            return None
        metrics = get_registry()
        if metrics.enabled:
            metrics.inc("resilience.faults.injected")
        logger.debug("injecting fault at %r (hit %d)", point, hit)
        return rule

    def _rng(self, point: str, hit: int) -> random.Random:
        # A string seed: random.Random accepts only scalars, and the
        # string keeps the (seed, point, hit) triple collision-free.
        return random.Random(f"{self.plan.seed}:{point}:{hit}")

    # -- call-site helpers ------------------------------------------------

    def maybe_raise(self, point: str) -> None:
        """Raise :class:`InjectedFault` when *point*'s rule fires."""
        if self.fire(point) is not None:
            raise InjectedFault(point)

    def maybe_sleep(self, point: str) -> float:
        """Sleep the rule's delay when *point* fires; seconds slept."""
        rule = self.fire(point)
        if rule is None:
            return 0.0
        time.sleep(rule.delay)
        return rule.delay

    def corrupt_file(self, base: str, path: str | os.PathLike) -> bool:
        """Apply ``<base>.truncate`` / ``<base>.bitflip`` to *path*.

        Returns True when the file was damaged. Truncation keeps a
        seeded fraction of the bytes; the bit-flip XORs one seeded bit
        of one seeded byte — both deterministic per (seed, point, hit).
        """
        damaged = False
        rule = self.fire(f"{base}.truncate")
        if rule is not None:
            size = os.path.getsize(path)
            rng = self._rng(f"{base}.truncate", self.hits(f"{base}.truncate"))
            keep = rng.randrange(0, max(size // 2, 1))
            with open(path, "r+b") as handle:
                handle.truncate(keep)
            damaged = True
        rule = self.fire(f"{base}.bitflip")
        if rule is not None:
            size = os.path.getsize(path)
            if size:
                rng = self._rng(
                    f"{base}.bitflip", self.hits(f"{base}.bitflip")
                )
                offset = rng.randrange(size)
                bit = 1 << rng.randrange(8)
                with open(path, "r+b") as handle:
                    handle.seek(offset)
                    byte = handle.read(1)[0]
                    handle.seek(offset)
                    handle.write(bytes([byte ^ bit]))
                damaged = True
        return damaged


# -- the process-wide injector ----------------------------------------------

_INJECTOR: FaultInjector | None = None
_INJECTOR_LOCK = threading.Lock()


def get_injector() -> FaultInjector:
    """The process-wide injector, built from the environment on first use."""
    global _INJECTOR
    injector = _INJECTOR
    if injector is None:
        with _INJECTOR_LOCK:
            injector = _INJECTOR
            if injector is None:
                injector = FaultInjector(FaultPlan.from_env())
                _INJECTOR = injector
    return injector


def set_injector(injector: FaultInjector | None) -> None:
    """Install *injector* process-wide (None re-reads the environment)."""
    global _INJECTOR
    with _INJECTOR_LOCK:
        _INJECTOR = injector


@contextmanager
def use_faults(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Run a block under *plan*, restoring the previous injector after."""
    previous = _INJECTOR
    injector = FaultInjector(plan)
    set_injector(injector)
    try:
        yield injector
    finally:
        set_injector(previous)
