"""Known-good resource lifecycles: the compliant rewrites."""

from __future__ import annotations

from repro.parallel.pool import SupervisedPool
from repro.resilience import atomic_path


def publish(path, array):
    """Failure between acquire and return reaches a cleanup handler."""
    handle = open(path, "wb")
    try:
        handle.write(array.tobytes())
    except BaseException:
        handle.close()
        raise
    return handle


def count_batch(work, payloads):
    """try/finally covers every exit, exceptional ones included."""
    pool = SupervisedPool(2)
    try:
        return pool.run(work, payloads)
    finally:
        pool.close()


def probe(path):
    """Bound and released instead of dropped."""
    handle = open(path, "rb")
    try:
        return len(handle.read(16))
    finally:
        handle.close()


def entered_artifact(path, data):
    """Context-manager factory actually entered."""
    with atomic_path(path) as tmp:
        with open(tmp, "wb") as handle:
            handle.write(data)
