"""The pass-1 project index: aliases, symbols, coroutines, acquires."""

from __future__ import annotations

import ast

from repro.analysis import FileContext, ProjectContext


def context_of(path: str, source: str) -> FileContext:
    return FileContext(path=path, source=source, tree=ast.parse(source))


def project_of(**files: str) -> ProjectContext:
    contexts = {
        path: context_of(path, source) for path, source in files.items()
    }
    return ProjectContext(contexts)


class TestModuleNames:
    def test_src_prefix_is_stripped(self):
        context = context_of("src/repro/serve/service.py", "")
        assert context.module_name() == "repro.serve.service"

    def test_init_maps_to_package(self):
        context = context_of("src/repro/parallel/__init__.py", "")
        assert context.module_name() == "repro.parallel"


class TestAliases:
    def test_plain_and_renamed_imports(self):
        project = project_of(
            **{
                "src/pkg/mod.py": (
                    "import time\n"
                    "import numpy as np\n"
                    "from asyncio import sleep as asleep\n"
                )
            }
        )
        aliases = project.aliases["src/pkg/mod.py"]
        assert aliases["time"] == "time"
        assert aliases["np"] == "numpy"
        assert aliases["asleep"] == "asyncio.sleep"

    def test_relative_import_resolves_against_module(self):
        project = project_of(
            **{
                "src/repro/serve/service.py": (
                    "from ..obs.metrics import get_registry\n"
                )
            }
        )
        aliases = project.aliases["src/repro/serve/service.py"]
        assert aliases["get_registry"] == "repro.obs.metrics.get_registry"


class TestSymbolsAndCoroutines:
    SOURCE = (
        "class Service:\n"
        "    async def query(self):\n"
        "        return 1\n"
        "    def close(self):\n"
        "        return None\n"
        "async def top():\n"
        "    return 2\n"
        "def plain():\n"
        "    return 3\n"
    )

    def test_methods_get_qualified_names(self):
        project = project_of(**{"src/repro/s.py": self.SOURCE})
        assert "repro.s.Service.query" in project.symbols
        assert "repro.s.Service.close" in project.symbols
        assert "repro.s.top" in project.symbols

    def test_async_classification(self):
        project = project_of(**{"src/repro/s.py": self.SOURCE})
        assert "repro.s.top" in project.async_functions
        assert "repro.s.Service.query" in project.async_functions
        assert "repro.s.plain" not in project.async_functions

    def test_is_coroutine_call_through_import(self):
        project = project_of(
            **{
                "src/repro/a.py": "async def fetch():\n    return 1\n",
                "src/repro/b.py": (
                    "from repro.a import fetch\n"
                    "def go():\n"
                    "    fetch()\n"
                ),
            }
        )
        call = None
        for node in ast.walk(project.files["src/repro/b.py"].tree):
            if isinstance(node, ast.Call):
                call = node
        assert call is not None
        assert project.is_coroutine_call("src/repro/b.py", call)


class TestResilienceHierarchy:
    def test_canonical_names_are_seeded(self):
        project = project_of(**{"src/x.py": ""})
        assert "PoolFailure" in project.resilience_errors
        assert "CorruptArtifact" in project.resilience_errors

    def test_local_subclasses_close_transitively(self):
        project = project_of(
            **{
                "src/repro/err.py": (
                    "class ShardError(PoolFailure):\n    pass\n"
                    "class HotShard(ShardError):\n    pass\n"
                    "class Unrelated(ValueError):\n    pass\n"
                )
            }
        )
        assert "ShardError" in project.resilience_errors
        assert "HotShard" in project.resilience_errors
        assert "Unrelated" not in project.resilience_errors


class TestAcquireClassification:
    SOURCE = (
        "from repro.parallel.pool import SupervisedPool\n"
        "def assigned(path):\n"
        "    handle = open(path)\n"
        "    return handle\n"
        "def dropped(path):\n"
        "    open(path)\n"
        "def managed(n):\n"
        "    with SupervisedPool(2) as pool:\n"
        "        return pool\n"
        "class Holder:\n"
        "    def bind(self, n):\n"
        "        self._pool = SupervisedPool(n)\n"
    )

    def test_usages(self):
        project = project_of(**{"src/repro/t.py": self.SOURCE})
        sites = {
            site.function.rsplit(".", 1)[-1]: site
            for site in project.acquires["src/repro/t.py"]
        }
        assert sites["assigned"].usage == "assigned"
        assert sites["assigned"].variable == "handle"
        assert sites["dropped"].usage == "dropped"
        assert sites["managed"].usage == "with"
        assert sites["bind"].usage == "self"
