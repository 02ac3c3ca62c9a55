"""The fork-safety checker: worker closure, shared state, module RNGs."""

from __future__ import annotations

from repro.analysis import ForkSafetyChecker, lint_paths, lint_source

from .conftest import FIXTURES, rules_of

CHECKERS = [ForkSafetyChecker()]


def lint(source: str, path: str = "repro/parallel/workers.py"):
    return lint_source(source, path=path, checkers=CHECKERS)


PRELUDE = "from repro.parallel.pool import SupervisedPool\n"


class TestFixtures:
    def test_bad_fixture_trips_every_rule(self):
        result = lint_paths(
            [FIXTURES / "bad" / "parallel" / "workers.py"], CHECKERS
        )
        assert rules_of(result) == {"fork-module-state", "fork-shared-rng"}

    def test_good_fixture_is_clean(self):
        result = lint_paths(
            [FIXTURES / "good" / "parallel" / "workers.py"], CHECKERS
        )
        assert not result.failed, [f.render() for f in result.findings]


class TestModuleState:
    def test_parent_warmed_cache_read_by_worker(self):
        source = PRELUDE + (
            "_CACHE = {}\n"
            "def warm(items):\n"
            "    for item in items:\n"
            "        _CACHE[item] = 1\n"
            "def task(payload):\n"
            "    return _CACHE.get(payload, 0)\n"
            "def run(items):\n"
            "    warm(items)\n"
            "    with SupervisedPool(2) as pool:\n"
            "        return pool.run(task, items)\n"
        )
        assert rules_of(lint(source)) == {"fork-module-state"}

    def test_constant_table_is_safe(self):
        # Never mutated after definition: identical in every process.
        source = PRELUDE + (
            "_WEIGHTS = {'a': 1, 'b': 2}\n"
            "def task(payload):\n"
            "    return _WEIGHTS.get(payload, 0)\n"
            "def run(items):\n"
            "    with SupervisedPool(2) as pool:\n"
            "        return pool.run(task, items)\n"
        )
        assert not lint(source).failed

    def test_initializer_managed_state_is_safe(self):
        source = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "_CACHE = {}\n"
            "def warm(items):\n"
            "    for item in items:\n"
            "        _CACHE[item] = 1\n"
            "def init_cache(items):\n"
            "    global _CACHE\n"
            "    _CACHE = {item: 1 for item in items}\n"
            "def task(payload):\n"
            "    return _CACHE.get(payload, 0)\n"
            "def run(items):\n"
            "    warm(items)\n"
            "    with ProcessPoolExecutor(\n"
            "        2, initializer=init_cache, initargs=(items,)\n"
            "    ) as pool:\n"
            "        return list(pool.map(task, items))\n"
        )
        assert not lint(source).failed

    def test_transitive_worker_calls_are_audited(self):
        source = PRELUDE + (
            "_CACHE = {}\n"
            "def warm(items):\n"
            "    for item in items:\n"
            "        _CACHE[item] = 1\n"
            "def helper(payload):\n"
            "    return _CACHE.get(payload, 0)\n"
            "def task(payload):\n"
            "    return helper(payload) + 1\n"
            "def run(items):\n"
            "    warm(items)\n"
            "    with SupervisedPool(2) as pool:\n"
            "        return pool.run(task, items)\n"
        )
        assert rules_of(lint(source)) == {"fork-module-state"}

    def test_non_worker_function_is_not_audited(self):
        source = PRELUDE + (
            "_CACHE = {}\n"
            "def warm(items):\n"
            "    for item in items:\n"
            "        _CACHE[item] = 1\n"
            "def local_only(payload):\n"
            "    return _CACHE.get(payload, 0)\n"
        )
        assert not lint(source).failed


class TestSharedRng:
    def test_module_level_rng_in_worker(self):
        source = PRELUDE + (
            "import random\n"
            "_RNG = random.Random(7)\n"
            "def task(payload):\n"
            "    return _RNG.random()\n"
            "def run(items):\n"
            "    with SupervisedPool(2) as pool:\n"
            "        return pool.run(task, items)\n"
        )
        assert rules_of(lint(source)) == {"fork-shared-rng"}

    def test_per_call_rng_is_safe(self):
        source = PRELUDE + (
            "import random\n"
            "def task(payload):\n"
            "    rng = random.Random(len(payload))\n"
            "    return rng.random()\n"
            "def run(items):\n"
            "    with SupervisedPool(2) as pool:\n"
            "        return pool.run(task, items)\n"
        )
        assert not lint(source).failed
