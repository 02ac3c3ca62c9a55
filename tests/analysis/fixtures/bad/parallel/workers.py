"""Fork hazards the fork-safety checker must catch."""

from __future__ import annotations

import random

from repro.parallel.pool import SupervisedPool

_CANDIDATE_CACHE: dict[str, int] = {}
_RNG = random.Random(1234)


def warm_cache(items):
    """Parent-side population of the module cache."""
    for item in items:
        _CANDIDATE_CACHE[item] = len(item)


def shard_task(payload):
    """Worker reads parent-populated state: empty under spawn."""
    return _CANDIDATE_CACHE.get(payload, 0)


def jitter_task(payload):
    """Worker draws from the fork-duplicated module RNG."""
    return len(payload) + _RNG.random()


def run(items):
    warm_cache(items)
    with SupervisedPool(2) as pool:
        counts = pool.run(shard_task, items)
        jitters = pool.run(jitter_task, items)
    return counts, jitters
