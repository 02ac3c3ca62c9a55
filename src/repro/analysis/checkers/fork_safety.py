"""Fork-safety checker: worker processes must not trust parent state.

The parallel plane runs task functions in child processes (``fork``
where available, ``spawn`` otherwise — :mod:`repro.parallel.pool`). Two
classes of state travel badly across that boundary:

* **module-level mutable state** — a dict/list/set populated in the
  parent is a stale snapshot under ``fork`` and *empty* under ``spawn``.
  The house pattern is an *initializer* that rebinds (or clears and
  refills) the global inside each worker (``_supervised_init``); a
  worker task reading a module global that no initializer manages is
  reading parent memory by accident (``fork-module-state``).
* **RNG objects** — a module-level ``random.Random()`` /
  ``default_rng()`` is duplicated byte-for-byte into every forked
  worker, so "random" draws are identical across the pool
  (``fork-shared-rng``). Seed per-worker (e.g. from ``os.getpid()`` or
  an initializer argument) instead.

Pass 1 of the engine indexes every worker registration —
``pool.run(task, …)`` / ``pool.submit(task, …)`` / ``pool.map(task, …)``
and ``ProcessPoolExecutor(initializer=f)`` — and this checker closes
the worker set over same-module calls, then audits each worker
function's global reads.
"""

from __future__ import annotations

import ast

from ..base import Checker, FileContext, ProjectContext, Rule
from ..findings import Finding

__all__ = ["ForkSafetyChecker"]

_CACHE_KEY = "fork-safety"

_RNG_FACTORIES = {
    "random.Random",
    "random.SystemRandom",
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "np.random.default_rng",
    "np.random.RandomState",
}

_SUBMIT_METHODS = {"run", "submit", "map"}


class _Registry:
    """Project-wide worker/initializer sets, built once and cached."""

    def __init__(self, project: ProjectContext):
        #: Qualified names of functions running inside worker processes.
        self.workers: set[str] = set()
        #: Qualified names of worker initializers.
        self.initializers: set[str] = set()
        for path, context in project.files.items():
            for node in ast.walk(context.tree):
                if isinstance(node, ast.Call):
                    self._scan_call(project, path, node)
        self._close_over_calls(project)

    def _scan_call(
        self, project: ProjectContext, path: str, node: ast.Call
    ) -> None:
        func = node.func
        terminal = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else None
        )
        if terminal == "ProcessPoolExecutor":
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    self._add(
                        project, path, keyword.value, self.initializers
                    )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _SUBMIT_METHODS
            and node.args
        ):
            self._add(project, path, node.args[0], self.workers)

    def _add(
        self,
        project: ProjectContext,
        path: str,
        node: ast.expr,
        into: set[str],
    ) -> None:
        qualified = project.resolve_call(
            path, node
        )  # resolve() handles names and dotted paths alike
        if qualified is not None and qualified in project.symbols:
            into.add(qualified)

    def _close_over_calls(self, project: ProjectContext) -> None:
        """Anything a worker/initializer calls in its own module also
        runs inside the worker process."""
        frontier = list(self.workers | self.initializers)
        members = self.workers | self.initializers
        while frontier:
            qualified = frontier.pop()
            node = project.symbols.get(qualified)
            path = project.symbol_paths.get(qualified)
            if node is None or path is None or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                callee = project.resolve_call(path, sub.func)
                if (
                    callee
                    and callee in project.symbols
                    and callee not in members
                    and project.symbol_paths.get(callee) == path
                ):
                    members.add(callee)
                    frontier.append(callee)
                    if qualified in self.initializers:
                        self.initializers.add(callee)
                    else:
                        self.workers.add(callee)


class ForkSafetyChecker(Checker):
    """Audit worker-process functions for parent-state dependence."""

    name = "fork-safety"
    rules = (
        Rule(
            "fork-module-state",
            "worker reads module-level mutable state no initializer manages",
        ),
        Rule(
            "fork-shared-rng",
            "module-level RNG shared across forked workers",
        ),
    )

    def __init__(self, modules: tuple[str, ...] | None = None):
        self.modules = modules

    def applies_to(self, context: FileContext) -> bool:
        return self.modules is None or context.matches_any(self.modules)

    def check_project(
        self, context: FileContext, project: ProjectContext
    ) -> list[Finding]:
        registry = project.cache.get(_CACHE_KEY)
        if not isinstance(registry, _Registry):
            registry = _Registry(project)
            project.cache[_CACHE_KEY] = registry

        module = project.modules.get(context.path, "")
        mutable, rngs = self._module_globals(context, project)
        managed = self._managed_globals(context, project, registry, module)
        # A dict/list/set literal nobody ever mutates is a constant
        # table — identical in parent and workers under both fork and
        # spawn. Only parent-mutated state is a hazard.
        mutable &= self._parent_mutated(context, registry, module)

        findings: list[Finding] = []
        for stmt in context.tree.body:
            for func, qualified in _functions_of(stmt, module):
                if qualified not in registry.workers:
                    continue
                findings.extend(
                    self._audit_worker(
                        context, func, qualified, mutable, managed, rngs
                    )
                )
        return findings

    # -- module facts -----------------------------------------------------

    def _module_globals(
        self, context: FileContext, project: ProjectContext
    ) -> tuple[set[str], set[str]]:
        """(mutable container globals, RNG globals) of this module."""
        mutable: set[str] = set()
        rngs: set[str] = set()
        for stmt in context.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            names = {
                target.id
                for target in targets
                if isinstance(target, ast.Name)
            }
            if not names:
                continue
            if isinstance(value, (ast.Dict, ast.List, ast.Set)):
                mutable.update(names)
            elif isinstance(value, ast.Call):
                qualified = project.resolve_call(context.path, value.func)
                terminal = (
                    qualified.rsplit(".", 1)[-1] if qualified else ""
                )
                if qualified in _RNG_FACTORIES:
                    rngs.update(names)
                elif terminal in {
                    "dict", "list", "set", "defaultdict", "OrderedDict",
                    "Counter", "deque",
                }:
                    mutable.update(names)
        return mutable, rngs

    def _managed_globals(
        self,
        context: FileContext,
        project: ProjectContext,
        registry: _Registry,
        module: str,
    ) -> set[str]:
        """Globals an initializer of this module rebinds or clears."""
        managed: set[str] = set()
        for qualified in registry.initializers:
            if project.symbol_paths.get(qualified) != context.path:
                continue
            node = project.symbols.get(qualified)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            declared: set[str] = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Global):
                    declared.update(sub.names)
                    managed.update(sub.names)
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in {"clear", "update"}
                    and isinstance(sub.func.value, ast.Name)
                ):
                    managed.add(sub.func.value.id)
        return managed

    def _parent_mutated(
        self,
        context: FileContext,
        registry: _Registry,
        module: str,
    ) -> set[str]:
        """Globals mutated by code that runs in the *parent* process.

        Worker/initializer members mutating their own process-local
        copy is the house pattern, not a hazard; anything else —
        module-level statements or ordinary functions — registers the
        name as parent state.
        """
        worker_side = registry.workers | registry.initializers
        mutated: set[str] = set()
        for stmt in context.tree.body:
            functions = list(_functions_of(stmt, module))
            if functions:
                for func, qualified in functions:
                    if qualified not in worker_side:
                        mutated.update(_mutated_names(func))
            else:
                mutated.update(_mutated_names(stmt))
        return mutated

    # -- per-worker audit -------------------------------------------------

    def _audit_worker(
        self,
        context: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qualified: str,
        mutable: set[str],
        managed: set[str],
        rngs: set[str],
    ) -> list[Finding]:
        findings: list[Finding] = []
        short = qualified.rsplit(".", 1)[-1]
        locals_: set[str] = {arg.arg for arg in func.args.args}
        locals_.update(arg.arg for arg in func.args.kwonlyargs)
        locals_.update(arg.arg for arg in func.args.posonlyargs)
        rebound: set[str] = set()
        for sub in ast.walk(func):
            if isinstance(sub, ast.Global):
                rebound.update(sub.names)
            elif isinstance(sub, ast.Name) and isinstance(
                sub.ctx, ast.Store
            ):
                locals_.add(sub.id)
        seen: set[str] = set()
        for sub in ast.walk(func):
            if not (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
            ):
                continue
            name = sub.id
            if name in seen or name in locals_ and name not in rebound:
                continue
            if name in rngs:
                seen.add(name)
                findings.append(
                    Finding(
                        rule="fork-shared-rng",
                        path=context.path,
                        line=sub.lineno,
                        col=sub.col_offset,
                        message=(
                            f"worker {short}() draws from module-level "
                            f"RNG '{name}': forked workers inherit "
                            "identical state and produce the same "
                            "stream — seed per worker (initializer or "
                            "os.getpid())"
                        ),
                    )
                )
            elif name in mutable and name not in managed and name not in rebound:
                seen.add(name)
                findings.append(
                    Finding(
                        rule="fork-module-state",
                        path=context.path,
                        line=sub.lineno,
                        col=sub.col_offset,
                        message=(
                            f"worker {short}() reads module global "
                            f"'{name}' that no initializer manages: "
                            "stale under fork, empty under spawn — "
                            "populate it in a pool initializer or pass "
                            "it through the payload"
                        ),
                    )
                )
        return findings


_MUTATORS = frozenset(
    {
        "append", "add", "update", "clear", "setdefault", "pop",
        "popitem", "extend", "insert", "remove", "discard",
    }
)


def _mutated_names(node: ast.AST) -> set[str]:
    """Module-global names *node* mutates in place (or rebinds via
    ``global``)."""
    names: set[str] = set()
    declared_global: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            declared_global.update(sub.names)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Subscript) and isinstance(
            sub.ctx, (ast.Store, ast.Del)
        ):
            if isinstance(sub.value, ast.Name):
                names.add(sub.value.id)
        elif isinstance(sub, ast.AugAssign):
            target = sub.target
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                names.add(target.value.id)
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _MUTATORS
            and isinstance(sub.func.value, ast.Name)
        ):
            names.add(sub.func.value.id)
        elif (
            isinstance(sub, ast.Name)
            and isinstance(sub.ctx, ast.Store)
            and sub.id in declared_global
        ):
            names.add(sub.id)
    return names


def _functions_of(stmt: ast.stmt, module: str):
    """Top-level functions and methods with their qualified names."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield stmt, f"{module}.{stmt.name}"
    elif isinstance(stmt, ast.ClassDef):
        for sub in stmt.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield sub, f"{module}.{stmt.name}.{sub.name}"
