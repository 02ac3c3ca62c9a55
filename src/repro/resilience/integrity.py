"""Atomic, checksummed, versioned artifact persistence.

Artifacts (OSSM maps, packed transaction databases, checkpoints) are
the only state that outlives a process, so they get the strongest
guarantees in the package:

* **Atomicity** — bytes go to a unique temp file in the destination
  directory, are ``fsync``\\ ed, and only then ``os.replace``\\ d over
  the final path. A crash at any instant leaves either the old
  artifact or the new one at the final path, never a torn hybrid; the
  temp file is removed on failure.
* **Integrity** — every ``.npz`` written here embeds a format version,
  an artifact *kind* tag, and a CRC32 over the canonical bytes of all
  payload arrays. Loading verifies all three and raises the typed
  :class:`~repro.resilience.errors.CorruptArtifact` /
  :class:`~repro.resilience.errors.IntegrityError` instead of leaking
  ``zipfile``/``zlib``/numpy internals. Archives written before this
  format existed (no meta keys) still load — verification is simply
  unavailable for them.
* **Fault injection** — each write site passes a point base (e.g.
  ``io.ossm``); the seeded injector can truncate or bit-flip the temp
  file (to exercise the corrupt-load path) or kill the writer between
  temp write and rename (to prove atomicity).
"""

from __future__ import annotations

import contextlib
import os
import zlib
from typing import Mapping

import numpy as np

from ..obs.metrics import get_registry
from .errors import CorruptArtifact, IntegrityError
from .faults import get_injector

__all__ = [
    "ARTIFACT_VERSION",
    "atomic_path",
    "atomic_savez",
    "verified_load_npz",
    "atomic_write_bytes",
    "payload_checksum",
]

#: Format version written into every archive; loaders refuse newer.
ARTIFACT_VERSION = 1

#: Meta keys are namespaced so they can never collide with payloads.
_VERSION_KEY = "__repro_version__"
_KIND_KEY = "__repro_kind__"
_CRC_KEY = "__repro_crc32__"


def payload_checksum(arrays: Mapping[str, np.ndarray]) -> int:
    """CRC32 over the canonical bytes of *arrays* (order-independent).

    Name, dtype, and shape participate so a renamed or reshaped array
    cannot checksum-alias the original.
    """
    crc = 0
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        crc = zlib.crc32(name.encode("utf-8"), crc)
        crc = zlib.crc32(str(array.dtype).encode("ascii"), crc)
        crc = zlib.crc32(repr(array.shape).encode("ascii"), crc)
        crc = zlib.crc32(array.tobytes(), crc)
    return crc


@contextlib.contextmanager
def atomic_path(final: str | os.PathLike, fault_base: str | None = None):
    """Yield a temp path that is atomically published to *final*.

    The one primitive every artifact writer in the package builds on.
    The body writes the temp file; on clean exit the injector may
    damage it (``<base>.truncate`` / ``<base>.bitflip``) or abort the
    publish (``<base>.crash``), after which ``os.replace`` makes the
    bytes visible under *final* in one rename. Any failure removes the
    temp file, so no partial artifact survives at either path.
    """
    final = os.fspath(final)
    directory = os.path.dirname(final) or "."
    tmp = os.path.join(
        directory, f".{os.path.basename(final)}.{os.getpid()}.tmp"
    )
    try:
        yield tmp
        injector = get_injector()
        if injector.enabled and fault_base is not None:
            injector.corrupt_file(fault_base, tmp)
            injector.maybe_raise(f"{fault_base}.crash")
        os.replace(tmp, final)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    with contextlib.suppress(OSError):
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def atomic_write_bytes(
    path: str | os.PathLike,
    data: bytes,
    fault_base: str | None = None,
) -> None:
    """Atomically publish *data* at *path* (temp + fsync + rename)."""
    final = os.fspath(path)
    with atomic_path(final, fault_base) as tmp:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())


def atomic_savez(
    path: str | os.PathLike,
    arrays: Mapping[str, np.ndarray],
    kind: str,
    fault_base: str | None = None,
) -> None:
    """Write *arrays* as a checksummed, versioned ``.npz`` atomically.

    Mirrors ``np.savez_compressed``'s extension behavior (appends
    ``.npz`` to extension-less paths) so existing call sites keep
    producing the same file names.
    """
    final = os.fspath(path)
    if not final.endswith(".npz"):
        final += ".npz"
    meta = {
        _VERSION_KEY: np.asarray(ARTIFACT_VERSION, dtype=np.int64),
        _KIND_KEY: np.frombuffer(kind.encode("utf-8"), dtype=np.uint8),
        _CRC_KEY: np.asarray(payload_checksum(arrays), dtype=np.int64),
    }
    with atomic_path(final, fault_base) as tmp:
        with open(tmp, "wb") as handle:
            np.savez_compressed(handle, **dict(arrays), **meta)
            handle.flush()
            os.fsync(handle.fileno())
    metrics = get_registry()
    if metrics.enabled:
        metrics.inc("resilience.artifacts.written")


def verified_load_npz(
    path: str | os.PathLike, kind: str
) -> dict[str, np.ndarray]:
    """Load and verify an archive written by :func:`atomic_savez`.

    Returns the payload arrays (meta keys stripped). A missing file
    keeps raising ``FileNotFoundError``; every other low-level failure
    — truncated zip, damaged member, unreadable header — surfaces as
    :class:`CorruptArtifact`, and checksum/kind/version violations as
    :class:`CorruptArtifact`/:class:`IntegrityError`. Every rejection
    names the offending path in its message and bumps the
    ``resilience.integrity.rejected`` counter. Pre-versioning archives
    (no meta keys) load without verification.
    """
    metrics = get_registry()
    try:
        # np.load given a path leaves its own handle open when a damaged
        # zip makes it raise; a handle opened here closes on every path.
        with open(path, "rb") as handle, np.load(handle) as archive:
            names = list(archive.files)
            payload = {
                name: archive[name]
                for name in names
                if not name.startswith("__repro_")
            }
            version = (
                int(archive[_VERSION_KEY]) if _VERSION_KEY in names else None
            )
            stored_kind = (
                bytes(archive[_KIND_KEY].tobytes()).decode("utf-8")
                if _KIND_KEY in names
                else None
            )
            stored_crc = (
                int(archive[_CRC_KEY]) if _CRC_KEY in names else None
            )
    except FileNotFoundError:
        raise
    except Exception as exc:
        # The try block only parses the archive, so anything it raises
        # — BadZipFile, zlib.error, OSError, numpy's header SyntaxError
        # — means the bytes on disk are damaged.
        if metrics.enabled:
            metrics.inc("resilience.artifacts.corrupt")
            metrics.inc("resilience.integrity.rejected")
        raise CorruptArtifact(path, f"unreadable archive ({exc})") from exc
    if version is None:
        # Legacy archive from before the integrity format: accept as-is.
        return payload
    if version > ARTIFACT_VERSION:
        if metrics.enabled:
            metrics.inc("resilience.integrity.rejected")
        raise IntegrityError(
            f"artifact {path} uses format version {version}; this build "
            f"reads up to {ARTIFACT_VERSION}"
        )
    if stored_kind is not None and stored_kind != kind:
        if metrics.enabled:
            metrics.inc("resilience.integrity.rejected")
        raise IntegrityError(
            f"artifact {path} holds a {stored_kind!r} payload, "
            f"expected {kind!r}"
        )
    if stored_crc is not None and payload_checksum(payload) != stored_crc:
        if metrics.enabled:
            metrics.inc("resilience.artifacts.corrupt")
            metrics.inc("resilience.integrity.rejected")
        raise CorruptArtifact(path, "checksum mismatch")
    if metrics.enabled:
        metrics.inc("resilience.artifacts.verified")
    return payload
