"""Checker: hygiene of the counting/segmentation hot paths.

The four modules that dominate wall time — subset counting, the hash
tree, Greedy's merge loop, and the bubble list — carry rules ordinary
linters do not know:

* ``hot-obs-unguarded`` — observability calls (``metrics.inc``,
  ``registry.observe``, logger methods, …) inside a loop must sit under
  an ``if <registry>.enabled:`` guard. The DESIGN.md overhead contract
  allows one attribute lookup + branch per event when observability is
  off; an unguarded call in a per-transaction or per-merge loop pays a
  dict lookup and argument build instead.
* ``hot-func-import`` — ``import`` inside a function body re-enters the
  import machinery on every call of a hot function; hoist to module
  level.
* ``hot-getattr-default`` — ``getattr(x, "attr", <literal {}/[]...>)``
  allocates the default container on *every* call even when the
  attribute exists; initialize the attribute once in ``__init__``.
* ``hot-attr-hoist`` — inside an *innermost* loop that is itself nested
  in another loop, a method call through a name (``obj.method(...)``)
  re-resolves the attribute each iteration; bind it to a local before
  the loop. Calls under an ``.enabled`` guard are exempt (they only run
  when observability is on, where clarity beats the nanoseconds).
"""

from __future__ import annotations

import ast

from ..base import Checker, FileContext, Rule
from ..findings import Finding

__all__ = ["HotPathChecker", "DEFAULT_HOT_MODULES"]

#: Path suffixes of the modules the paper's cost model marks hot.
DEFAULT_HOT_MODULES: tuple[str, ...] = (
    "mining/counting.py",
    "mining/hash_tree.py",
    # The vertical bitmap engine: pack + AND/popcount kernels and the
    # thread-sharded reduce are the innermost counting loops.
    "mining/bitmap.py",
    "parallel/threads.py",
    "core/greedy.py",
    "core/bubble.py",
    # Segmentation's loss evaluator and the merge loops around it: RC's
    # neighbour scan and the streaming builder's per-page scan.
    "core/rc.py",
    "core/segmentation.py",
    "core/loss.py",
    "core/incremental.py",
    "parallel/pool.py",
    "serve/cache.py",
    "serve/service.py",
    # The gateway plane: admission, tenant bookkeeping, and the HTTP
    # edge all sit on the per-request path of the serving loop.
    "serve/admission.py",
    "serve/gateway.py",
    "serve/tenants.py",
    # The durability plane: the WAL append rides every publish and the
    # replay loop gates boot, so both must keep telemetry guarded and
    # imports at module scope.
    "serve/durability.py",
    "resilience/chaos.py",
    # The export plane: quantile observation rides every serve request
    # and the exposition/ops handlers live beside the service loop.
    "obs/quantiles.py",
    "obs/export.py",
    # Injection points sit inside the level loop and the task-wrap
    # path, so their telemetry must be guarded like any other hot code.
    "resilience/faults.py",
    "resilience/backoff.py",
)

#: Method names that record telemetry; a call to one of these (or to a
#: logger method) inside a loop needs an ``.enabled`` guard.
_OBS_ATTRS = frozenset(
    {
        "inc",
        "observe",
        "set_gauge",
        "record",
        "debug",
        "info",
        "warning",
        "error",
        "exception",
    }
)

_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp)
_LOOPS = (ast.For, ast.While)


def _is_enabled_guard(test: ast.expr) -> bool:
    """Does an ``if`` test consult an ``.enabled`` flag?"""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            return True
        if isinstance(node, ast.Name) and node.id == "enabled":
            return True
    return False


def _stored_names(nodes: list[ast.stmt]) -> set[str]:
    """Names assigned anywhere in *nodes* (loop-variant bindings)."""
    names: set[str] = set()
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                names.add(node.id)
    return names


class _FunctionScanner(ast.NodeVisitor):
    """Walks one function; tracks loop nesting and ``.enabled`` guards."""

    def __init__(self, checker: "HotPathChecker", context: FileContext):
        self.checker = checker
        self.context = context
        self.findings: list[Finding] = []
        self._loop_depth = 0
        self._guard_depth = 0
        #: Loop-variant names of every enclosing loop, innermost last.
        self._loop_variants: list[set[str]] = []

    # -- guards ----------------------------------------------------------

    def visit_If(self, node: ast.If) -> None:
        guarded = _is_enabled_guard(node.test)
        self.visit(node.test)
        if guarded:
            self._guard_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if guarded:
            self._guard_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    # -- loops -----------------------------------------------------------

    def _visit_loop(self, node: ast.For | ast.While) -> None:
        if isinstance(node, ast.For):
            # Header expressions evaluate in the *enclosing* scope.
            self.visit(node.iter)
            variants = _stored_names(node.body) | _stored_names(node.orelse)
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    variants.add(sub.id)
        else:
            self.visit(node.test)
            variants = _stored_names(node.body) | _stored_names(node.orelse)
        self._loop_depth += 1
        self._loop_variants.append(variants)
        inner = not any(
            isinstance(sub, _LOOPS)
            for stmt in node.body
            for sub in ast.walk(stmt)
        )
        self._is_innermost_nested = self._loop_depth >= 2 and inner
        for stmt in node.body:
            self.visit(stmt)
        self._loop_variants.pop()
        self._loop_depth -= 1
        self._is_innermost_nested = False
        for stmt in node.orelse:
            self.visit(stmt)

    visit_For = _visit_loop
    visit_While = _visit_loop
    _is_innermost_nested = False

    # -- nested defs: scanned independently by the checker ---------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._report_func_imports(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _report_func_imports(self, node: ast.FunctionDef) -> None:
        for stmt in node.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                self._report(
                    "hot-func-import",
                    "import inside a hot-path function re-enters the "
                    "import machinery per call; hoist to module level",
                    stmt,
                )
        # Nested scopes still get loop analysis, from scratch.
        scanner = _FunctionScanner(self.checker, self.context)
        for stmt in node.body:
            scanner.visit(stmt)
        self.findings.extend(scanner.findings)

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                func.attr in _OBS_ATTRS
                and self._loop_depth > 0
                and self._guard_depth == 0
            ):
                self._report(
                    "hot-obs-unguarded",
                    f"observability call `.{func.attr}(...)` inside a "
                    "hot loop without an `.enabled` guard; the overhead "
                    "contract allows only a lookup+branch when off",
                    node,
                )
            elif (
                self._is_innermost_nested
                and self._guard_depth == 0
                and isinstance(func.value, ast.Name)
                and func.value.id not in self._loop_variants[-1]
                and not (
                    len(self._loop_variants) >= 2
                    and func.value.id in self._loop_variants[-2]
                )
            ):
                self._report(
                    "hot-attr-hoist",
                    f"`{func.value.id}.{func.attr}(...)` re-resolves the "
                    "attribute every inner-loop iteration; bind "
                    f"`{func.value.id}.{func.attr}` to a local before "
                    "the loop",
                    node,
                )
        elif (
            isinstance(func, ast.Name)
            and func.id == "getattr"
            and len(node.args) == 3
            and isinstance(node.args[2], _MUTABLE_LITERALS + (ast.Call,))
        ):
            self._report(
                "hot-getattr-default",
                "getattr(..., <allocated default>) builds the default "
                "container on every call; initialize the attribute in "
                "__init__ instead",
                node,
            )
        self.generic_visit(node)

    def _report(self, rule: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.context.path,
                line=node.lineno,
                col=node.col_offset,
                message=message,
            )
        )


class HotPathChecker(Checker):
    name = "hot-path"
    rules = (
        Rule("hot-obs-unguarded", "unguarded obs call in a hot loop"),
        Rule("hot-func-import", "import inside a hot-path function"),
        Rule("hot-getattr-default", "allocating getattr default"),
        Rule("hot-attr-hoist", "hoistable attribute lookup in inner loop"),
    )

    def __init__(self, hot_modules: tuple[str, ...] = DEFAULT_HOT_MODULES):
        self.hot_modules = hot_modules

    def applies_to(self, context: FileContext) -> bool:
        return context.matches_any(self.hot_modules)

    def check(self, context: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in context.tree.body:
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        findings.extend(self._scan(context, stmt))
            elif isinstance(node, ast.FunctionDef):
                findings.extend(self._scan(context, node))
        return findings

    def _scan(
        self, context: FileContext, func: ast.FunctionDef
    ) -> list[Finding]:
        scanner = _FunctionScanner(self, context)
        scanner._report_func_imports(func)
        return scanner.findings
