"""Resource leaks the resource-lifecycle checker must catch."""

from __future__ import annotations

from repro.parallel.pool import SupervisedPool
from repro.resilience import atomic_path


def publish(path, array):
    """The write into the fresh file can raise — handle stranded."""
    handle = open(path, "wb")
    handle.write(array.tobytes())
    return handle


def count_batch(work, payloads):
    """Happy-path-only close: pool.run raising skips pool.close()."""
    pool = SupervisedPool(2)
    results = pool.run(work, payloads)
    pool.close()
    return results


def probe(path):
    """Acquired and dropped on the floor: nothing can release it."""
    open(path, "rb")
    return path


def forgotten_artifact(path):
    """Context-manager factory called but never entered."""
    atomic_path(path)
