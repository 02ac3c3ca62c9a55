"""Known-good fork discipline: the compliant rewrites."""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor

_CANDIDATE_CACHE: dict[str, int] = {}


def init_cache(snapshot):
    """Pool initializer: rebuild the cache inside each worker."""
    global _CANDIDATE_CACHE
    _CANDIDATE_CACHE = dict(snapshot)


def shard_task(payload):
    """Reads initializer-managed state: valid under fork and spawn."""
    return _CANDIDATE_CACHE.get(payload, 0)


def jitter_task(payload):
    """Per-call RNG seeded from the payload: streams never collide."""
    rng = random.Random(len(payload))
    return len(payload) + rng.random()


def run(items):
    snapshot = {item: len(item) for item in items}
    with ProcessPoolExecutor(
        2, initializer=init_cache, initargs=(snapshot,)
    ) as pool:
        counts = list(pool.map(shard_task, items))
        jitters = list(pool.map(jitter_task, items))
    return counts, jitters
