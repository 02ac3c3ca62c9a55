"""Checkpoint/resume glue shared by the level-wise miners.

Apriori, DHP, and Partition all advance through discrete units of work
(levels; for Partition, phase 1 plus the phase-2 levels). This module
adapts :class:`~repro.resilience.checkpoint.CheckpointStore` to that
shape so each miner only has to (a) call :func:`level_crash_point` at
the top of every unit, (b) hand its exact loop state to
:meth:`MiningCheckpointer.save_level` at the end of every unit, and
(c) splice the restored state back in when a resume is requested.

Bit-identity contract: the snapshot holds the *objects the loop would
carry forward* — the frequent dict (whose insertion order pickle
preserves), the sorted previous-level itemsets, and the per-level
stats. A resumed run therefore feeds later levels exactly the inputs
an uninterrupted run would have, so its result is bit-identical apart
from wall-clock timings.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Any

from ..data.transactions import TransactionDatabase
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..resilience import CheckpointStore, get_injector, mining_fingerprint
from ..resilience.heartbeat import heartbeat
from .base import LevelStats, MiningResult

__all__ = ["MiningCheckpointer", "level_crash_point"]

logger = get_logger(__name__)


def level_crash_point() -> None:
    """Fault-injection point at the top of each mining unit of work.

    Registered as ``mining.level_crash``; select the unit to kill with
    the rule's ``after=`` (units are numbered in execution order, and
    nested miners — Partition's phase-1 local Apriori runs — consume
    hits too, so measure with ``injector.hits()`` when in doubt).
    Free when injection is off.

    Also the per-unit heartbeat of a supervised pool worker: a task
    that is a whole mining run stays alive while each of its units
    finishes within the pool's hang deadline. A no-op in any other
    process.
    """
    heartbeat()
    injector = get_injector()
    if injector.enabled:
        injector.maybe_raise("mining.level_crash")


class MiningCheckpointer:
    """Per-run facade over :class:`CheckpointStore` for one miner.

    Built through :meth:`open`, which returns ``None`` when no
    checkpoint directory is configured so call sites guard every
    checkpoint action with a single ``if ckpt is not None``.
    """

    def __init__(self, store: CheckpointStore, resume: bool) -> None:
        self.store = store
        self._restored = store.latest() if resume else None
        if self._restored is not None:
            metrics = get_registry()
            if metrics.enabled:
                metrics.inc("resilience.checkpoint.resumed")
            logger.info(
                "resuming from checkpoint level %d in %s",
                self._restored[0], store.directory,
            )

    @classmethod
    def open(
        cls,
        directory: str | os.PathLike | None,
        resume: bool,
        algorithm: str,
        threshold: int,
        database: TransactionDatabase,
        **config: Any,
    ) -> "MiningCheckpointer | None":
        """Build the checkpointer, or ``None`` when checkpointing is off.

        The run fingerprint binds snapshots to the exact database,
        algorithm (including pruner label), threshold, and the
        configuration knobs each miner passes in *config*.
        """
        if directory is None:
            if resume:
                raise ValueError(
                    "resume=True requires checkpoint_dir to be set"
                )
            return None
        fingerprint = mining_fingerprint(
            algorithm, threshold, database, **config
        )
        return cls(CheckpointStore(directory, fingerprint), resume)

    def restored(self) -> tuple[int, dict[str, Any]] | None:
        """``(level, state)`` of the newest valid snapshot, or ``None``."""
        return self._restored

    def save_level(self, level: int, state: dict[str, Any]) -> None:
        """Snapshot *state* as the completed unit *level*."""
        self.store.save(level, state)

    @staticmethod
    def pack_levels(result: MiningResult) -> list[dict[str, int]]:
        """Per-level stats as plain dicts (stable pickle payload)."""
        return [asdict(stats) for stats in result.levels]

    @staticmethod
    def unpack_levels(
        result: MiningResult, packed: list[dict[str, int]]
    ) -> None:
        """Restore :meth:`pack_levels` output into *result*."""
        result.levels = [LevelStats(**entry) for entry in packed]
