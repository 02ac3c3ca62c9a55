"""Resilience subsystem: fault injection, backoff, checkpoints.

The package is a *leaf*: it imports only :mod:`repro.obs`, the standard
library, and numpy, so every other layer (parallel, mining, serve,
core, data) can depend on it without cycles. It provides:

* deterministic seeded fault injection (:mod:`repro.resilience.faults`)
  behind ``injector.enabled`` guards — byte-identical production paths
  when off;
* :class:`Backoff` (:mod:`repro.resilience.backoff`) for pool
  rebuilds, and the worker heartbeat
  (:mod:`repro.resilience.heartbeat`) the pool's hang deadline reads;
* atomic, checksummed artifact persistence
  (:mod:`repro.resilience.integrity`);
* per-level mining checkpoints (:mod:`repro.resilience.checkpoint`)
  with bit-identical resume.

See DESIGN.md §11 for the failure model these pieces implement.
"""

from .backoff import Backoff
from .checkpoint import CheckpointStore, mining_fingerprint
from .errors import (
    CheckpointMismatch,
    CorruptArtifact,
    InjectedFault,
    IntegrityError,
    PoolFailure,
    ResilienceError,
)
from .faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    get_injector,
    set_injector,
    use_faults,
)
from .integrity import (
    ARTIFACT_VERSION,
    atomic_path,
    atomic_savez,
    atomic_write_bytes,
    payload_checksum,
    verified_load_npz,
)

__all__ = [
    "ResilienceError",
    "IntegrityError",
    "CorruptArtifact",
    "CheckpointMismatch",
    "InjectedFault",
    "PoolFailure",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "get_injector",
    "set_injector",
    "use_faults",
    "Backoff",
    "ARTIFACT_VERSION",
    "atomic_path",
    "atomic_savez",
    "atomic_write_bytes",
    "payload_checksum",
    "verified_load_npz",
    "CheckpointStore",
    "mining_fingerprint",
]
