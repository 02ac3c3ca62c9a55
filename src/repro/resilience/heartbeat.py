"""Worker liveness beats for the supervised process pool.

A supervised worker owns one slot of a shared array of timestamps, and
the parent declares its pool hung when no slot moves for the deadline
(:class:`~repro.parallel.pool.SupervisedPool`). The pool beats at task
start and end; :func:`~repro.mining.checkpointing.level_crash_point`
beats once per mining unit, so a task that is a whole local mining run
(Partition's phase 1) stays alive as long as each of its levels
finishes within the deadline. Outside a supervised worker no slot is
installed and :func:`heartbeat` does nothing.
"""

from __future__ import annotations

import time
from typing import Any

__all__ = ["heartbeat", "install_heartbeat"]

#: This process's heartbeat board (``None`` outside a supervised worker).
_board: Any = None
#: This process's slot in the board.
_slot: int = -1


def install_heartbeat(board: Any, slot: int) -> None:
    """Bind this worker process to *slot* of the shared *board*."""
    global _board, _slot
    _board = board
    _slot = slot


def heartbeat() -> None:
    """Stamp this worker's slot with the current time (no-op outside
    a supervised worker)."""
    if _board is not None:
        _board[_slot] = time.time()
