"""The resource-lifecycle checker: CFG-backed leak detection."""

from __future__ import annotations

from repro.analysis import ResourceLifecycleChecker, lint_paths, lint_source

from .conftest import FIXTURES, rules_of

CHECKERS = [ResourceLifecycleChecker()]


def lint(source: str, path: str = "repro/parallel/transport.py"):
    return lint_source(source, path=path, checkers=CHECKERS)


POOL_IMPORT = "from repro.parallel.pool import SupervisedPool\n"
ATOMIC_IMPORT = "from repro.resilience import atomic_path\n"


class TestFixtures:
    def test_bad_fixture_trips_every_rule(self):
        result = lint_paths(
            [FIXTURES / "bad" / "parallel" / "transport.py"], CHECKERS
        )
        assert rules_of(result) == {
            "resource-leak",
            "resource-dropped",
            "resource-cm-only",
        }
        leaks = [f for f in result.findings if f.rule == "resource-leak"]
        assert len(leaks) == 2  # publish() gap + count_batch happy path

    def test_good_fixture_is_clean(self):
        result = lint_paths(
            [FIXTURES / "good" / "parallel" / "transport.py"], CHECKERS
        )
        assert not result.failed, [f.render() for f in result.findings]


class TestLeakPaths:
    def test_statement_between_acquire_and_try_leaks(self):
        source = POOL_IMPORT + (
            "def f(work, payloads):\n"
            "    pool = SupervisedPool(2)\n"
            "    batches = list(payloads)\n"
            "    try:\n"
            "        return pool.run(work, batches)\n"
            "    finally:\n"
            "        pool.close()\n"
        )
        assert rules_of(lint(source)) == {"resource-leak"}

    def test_immediate_try_finally_is_clean(self):
        source = POOL_IMPORT + (
            "def f(work, payloads):\n"
            "    pool = SupervisedPool(2)\n"
            "    try:\n"
            "        batches = list(payloads)\n"
            "        return pool.run(work, batches)\n"
            "    finally:\n"
            "        pool.close()\n"
        )
        assert not lint(source).failed

    def test_happy_path_only_close_leaks(self):
        source = POOL_IMPORT + (
            "def f(work, payloads):\n"
            "    pool = SupervisedPool(2)\n"
            "    results = pool.run(work, payloads)\n"
            "    pool.close()\n"
            "    return results\n"
        )
        assert rules_of(lint(source)) == {"resource-leak"}

    def test_conditional_release_header_is_trusted(self):
        source = POOL_IMPORT + (
            "def f(pool2, owned):\n"
            "    pool = SupervisedPool(2)\n"
            "    try:\n"
            "        return pool.run(len, [])\n"
            "    finally:\n"
            "        if owned:\n"
            "            pool.close()\n"
        )
        assert not lint(source).failed

    def test_either_release_method_settles(self):
        # SupervisedPool releases via close() OR kill().
        source = POOL_IMPORT + (
            "def f(work, payloads):\n"
            "    pool = SupervisedPool(2)\n"
            "    try:\n"
            "        return pool.run(work, payloads)\n"
            "    finally:\n"
            "        pool.kill()\n"
        )
        assert not lint(source).failed


class TestExemptions:
    def test_with_statement_is_exempt(self):
        source = POOL_IMPORT + (
            "def f(work, payloads):\n"
            "    with SupervisedPool(2) as pool:\n"
            "        return pool.run(work, payloads)\n"
        )
        assert not lint(source).failed

    def test_self_attribute_ownership_is_exempt(self):
        source = POOL_IMPORT + (
            "class Engine:\n"
            "    def start(self):\n"
            "        self._pool = SupervisedPool(2)\n"
        )
        assert not lint(source).failed

    def test_returned_resource_escapes(self):
        source = (
            "def f(path):\n"
            "    handle = open(path, 'rb')\n"
            "    return handle\n"
        )
        assert not lint(source).failed

    def test_non_tracked_call_is_ignored(self):
        source = "def f(n):\n    buf = bytearray(n)\n    return len(buf)\n"
        assert not lint(source).failed


class TestDroppedAndCmOnly:
    def test_dropped_acquisition(self):
        source = (
            "def f(path):\n"
            "    open(path, 'rb')\n"
        )
        assert rules_of(lint(source)) == {"resource-dropped"}

    def test_cm_factory_called_without_with(self):
        source = ATOMIC_IMPORT + (
            "def f(path):\n"
            "    atomic_path(path)\n"
        )
        assert rules_of(lint(source)) == {"resource-cm-only"}

    def test_cm_factory_under_with_is_fine(self):
        source = ATOMIC_IMPORT + (
            "def f(path, data):\n"
            "    with atomic_path(path) as tmp:\n"
            "        with open(tmp, 'wb') as handle:\n"
            "            handle.write(data)\n"
        )
        assert not lint(source).failed
