"""Async-hygiene checker: keep the event loop responsive and tasks owned.

The serve plane (:mod:`repro.serve`) runs a single event loop; one
blocking call inside a coroutine stalls every in-flight query, and the
SLO math of DESIGN.md §11 silently stops meaning anything. These rules
encode the loop discipline that code review keeps re-explaining:

* ``async-blocking-call`` — a known-blocking call (``time.sleep``,
  builtin ``open``, ``subprocess.*``, ``os.system``, ``Future.result``)
  inside an ``async def``. Use ``asyncio.sleep`` / ``asyncio.to_thread``
  instead.
* ``async-unawaited-coroutine`` — a statement-level call whose target
  the project index resolves to an ``async def``, with no ``await``:
  the coroutine object is created, never run, and raises a
  ``RuntimeWarning`` at GC time in production.
* ``async-dropped-task`` — ``asyncio.create_task(...)`` as a bare
  expression statement. The loop holds only a weak reference; a dropped
  task can be garbage-collected mid-flight. Keep the reference (as
  ``BatchScheduler._flusher`` does).
* ``async-unshielded-wait-for`` — ``asyncio.wait_for`` applied to an
  already-existing task/future (a name, not a fresh call): on timeout
  ``wait_for`` *cancels* its argument, killing work other waiters may
  share. Wrap shared work in ``shield()``; a fresh coroutine call
  (``BoundQueryService._query_batch``'s own evaluation) is exclusive
  to its caller and may be cancelled with it.
"""

from __future__ import annotations

import ast

from ..base import Checker, FileContext, ProjectContext, Rule
from ..findings import Finding

__all__ = ["AsyncHygieneChecker", "BLOCKING_CALLS"]

#: Resolved qualified names that block the calling thread. Matched
#: after import-alias resolution, so ``from time import sleep`` and
#: ``import time as t`` both resolve to ``time.sleep``.
BLOCKING_CALLS: frozenset[str] = frozenset(
    {
        "time.sleep",
        "open",
        "os.system",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.getoutput",
        "subprocess.getstatusoutput",
        "subprocess.Popen",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)


def _finding(
    context: FileContext, rule: str, node: ast.AST, message: str
) -> Finding:
    return Finding(
        rule=rule,
        path=context.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
        end_line=getattr(node, "end_lineno", 0) or 0,
    )


class AsyncHygieneChecker(Checker):
    """Event-loop discipline for every coroutine in the tree."""

    name = "async-hygiene"
    rules = (
        Rule("async-blocking-call", "blocking call inside async def"),
        Rule(
            "async-unawaited-coroutine",
            "coroutine call whose result is never awaited",
        ),
        Rule("async-dropped-task", "create_task with a dropped reference"),
        Rule(
            "async-unshielded-wait-for",
            "wait_for cancels shared work without shield",
        ),
    )

    def __init__(self, modules: tuple[str, ...] | None = None):
        self.modules = modules

    def applies_to(self, context: FileContext) -> bool:
        return self.modules is None or context.matches_any(self.modules)

    def check_project(
        self, context: FileContext, project: ProjectContext
    ) -> list[Finding]:
        findings: list[Finding] = []
        self._walk_body(
            context, project, context.tree.body, in_async=False,
            findings=findings,
        )
        return findings

    # -- traversal --------------------------------------------------------

    def _walk_body(
        self,
        context: FileContext,
        project: ProjectContext,
        body: list[ast.stmt],
        in_async: bool,
        findings: list[Finding],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, ast.AsyncFunctionDef):
                self._walk_body(
                    context, project, stmt.body, True, findings
                )
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                self._walk_body(
                    context, project, stmt.body, False, findings
                )
                continue
            self._check_stmt(context, project, stmt, in_async, findings)
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._walk_body(
                        context, project, [child], in_async, findings
                    )
                elif isinstance(child, ast.excepthandler):
                    self._walk_body(
                        context, project, child.body, in_async, findings
                    )

    def _check_stmt(
        self,
        context: FileContext,
        project: ProjectContext,
        stmt: ast.stmt,
        in_async: bool,
        findings: list[Finding],
    ) -> None:
        # Statement-level coroutine / create_task drops (any context).
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            qualified = project.resolve_call(context.path, call.func) or ""
            if self._is_create_task(qualified):
                findings.append(
                    _finding(
                        context,
                        "async-dropped-task",
                        stmt,
                        "create_task() result dropped: the event loop "
                        "keeps only a weak reference, so the task can be "
                        "garbage-collected mid-flight — store it (e.g. in "
                        "a tasks set) until done",
                    )
                )
            elif project.is_coroutine_call(
                context.path, call
            ) or self._is_self_coroutine(context, project, call):
                short = ast.unparse(call.func)
                findings.append(
                    _finding(
                        context,
                        "async-unawaited-coroutine",
                        stmt,
                        f"coroutine '{short}()' is called but never "
                        "awaited: the body never runs — await it, or "
                        "hand it to create_task/gather",
                    )
                )

        # Expression-level checks inside the statement (skip nested
        # defs: their async-ness differs and they get their own visit).
        for node in self._own_expressions(stmt):
            if not isinstance(node, ast.Call):
                continue
            qualified = project.resolve_call(context.path, node.func) or ""
            if in_async and self._is_blocking(qualified, node):
                findings.append(
                    _finding(
                        context,
                        "async-blocking-call",
                        node,
                        f"blocking call '{qualified or ast.unparse(node.func)}'"
                        " inside async def stalls the event loop — use the"
                        " asyncio equivalent (asyncio.sleep/to_thread)",
                    )
                )
            if in_async and self._is_unshielded_wait_for(qualified, node):
                findings.append(
                    _finding(
                        context,
                        "async-unshielded-wait-for",
                        node,
                        "wait_for() on an existing task/future cancels it "
                        "on timeout, killing work other waiters share — "
                        "wrap the argument in shield()",
                    )
                )

    # -- predicates -------------------------------------------------------

    @staticmethod
    def _own_expressions(stmt: ast.stmt):
        """Walk *stmt* without descending into nested def/class bodies."""
        stack: list[ast.AST] = []
        for child in ast.iter_child_nodes(stmt):
            if not isinstance(child, (ast.stmt, ast.excepthandler)):
                stack.append(child)
        while stack:
            node = stack.pop()
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _is_create_task(qualified: str) -> bool:
        return qualified == "asyncio.create_task" or qualified.endswith(
            ".create_task"
        )

    @staticmethod
    def _is_blocking(qualified: str, node: ast.Call) -> bool:
        if qualified in BLOCKING_CALLS:
            return True
        # Future.result() — the pool handoff pattern; awaiting
        # asyncio.wrap_future / run_in_executor is the loop-safe form.
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "result"
            and not node.args
            and not node.keywords
        )

    @staticmethod
    def _is_unshielded_wait_for(qualified: str, node: ast.Call) -> bool:
        if not (
            qualified == "asyncio.wait_for"
            or qualified.endswith(".wait_for")
        ):
            return False
        if not node.args:
            return False
        target = node.args[0]
        # A fresh coroutine call is exclusive work — cancelling it on
        # timeout is exactly the contract. Only pre-existing awaitables
        # (names, attributes) can be shared with other waiters.
        return isinstance(target, (ast.Name, ast.Attribute))

    def _is_self_coroutine(
        self, context: FileContext, project: ProjectContext, call: ast.Call
    ) -> bool:
        """Resolve ``self.method()`` against the index's async methods.

        ``self`` carries no module path, so :meth:`ProjectContext.resolve`
        cannot see through it; matching the bare method name against the
        indexed async methods of the same module is exact enough (method
        names in this tree are unique per file).
        """
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in {"self", "cls"}
        ):
            return False
        module = project.modules.get(context.path, "")
        prefix = f"{module}."
        return any(
            qualified.startswith(prefix)
            and qualified.rsplit(".", 1)[-1] == func.attr
            for qualified in project.async_functions
        )
