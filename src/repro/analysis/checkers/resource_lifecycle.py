"""Resource-lifecycle checker: every acquire must reach its release.

The program hands around OS-level resources — process pools,
bound-query services, file handles, ``atomic_*`` artifacts — and fault
injection showed exactly how they escape: not on the happy path, but
on the *exception* path between the acquiring call and the ``try``
that was supposed to protect it. The
checker walks the acquires-resource annotations the project index
collected (:data:`repro.analysis.base.RESOURCE_SPECS`) and asks the
function's CFG (:mod:`repro.analysis.cfg`) one question per site: can
control reach a function exit — including via a raise — without passing
a release?

What counts as settling the resource's fate on a path:

* a release call on the tracked name (``fh.close()``, ``pool.kill()``…);
* an *escape* — the bare name flowing somewhere else (returned, passed
  to a callee, stored on an object, captured by a nested def): ownership
  moved, the new owner is accountable;
* a rebind or ``del`` of the name (tracking ends);
* a compound-statement header whose subtree releases the name
  (``if owned: pool.close()`` — conditional cleanup is deliberate).

``with``-managed acquires and ``self.attr = acquire()`` handoffs are
exempt up front; a call whose result is *dropped* on the floor is flagged
unconditionally (``resource-dropped``), and a context-manager-only
factory (``atomic_path``) called without entering it is flagged as
``resource-cm-only`` — the body never runs at all.
"""

from __future__ import annotations

import ast

from ..base import (
    AcquireSite,
    Checker,
    FileContext,
    ProjectContext,
    Rule,
)
from ..cfg import EXIT, FunctionCFG, build_cfg
from ..findings import Finding

__all__ = ["ResourceLifecycleChecker"]


class ResourceLifecycleChecker(Checker):
    """CFG-backed leak detection over the project's acquire sites."""

    name = "resource-lifecycle"
    rules = (
        Rule(
            "resource-leak",
            "acquired resource may not be released on all paths",
        ),
        Rule("resource-dropped", "acquired resource discarded immediately"),
        Rule(
            "resource-cm-only",
            "context-manager factory called but never entered",
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
        cfgs: dict[int, FunctionCFG] = {}
        for site in project.acquires.get(context.path, []):
            finding = self._check_site(context, site, cfgs)
            if finding is not None:
                findings.append(finding)
        return findings

    # -- per-site ---------------------------------------------------------

    def _check_site(
        self,
        context: FileContext,
        site: AcquireSite,
        cfgs: dict[int, FunctionCFG],
    ) -> Finding | None:
        if site.usage in {"with", "self", "escaped"}:
            return None
        short = site.function.rsplit(".", 1)[-1]
        if site.usage == "dropped":
            if not site.spec.release_methods:
                return self._finding(
                    context,
                    "resource-cm-only",
                    site,
                    f"'{_call_name(site.call)}' returns a context manager "
                    "whose body only runs inside `with` — this call "
                    "acquires nothing and is dead",
                )
            return self._finding(
                context,
                "resource-dropped",
                site,
                f"{site.spec.kind} returned by "
                f"'{_call_name(site.call)}' in {short}() is discarded: "
                "nothing can ever release it — bind it and close via "
                "with/try-finally",
            )
        # usage == "assigned"
        if not site.spec.release_methods or site.variable is None:
            return None
        if site.func_node is None or not isinstance(
            site.func_node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return None
        cfg = cfgs.get(id(site.func_node))
        if cfg is None:
            cfg = build_cfg(site.func_node)
            cfgs[id(site.func_node)] = cfg
        start = cfg.node_of(site.stmt)
        if start is None:
            return None
        stops = self._stop_nodes(cfg, site)
        if cfg.reaches_exit(start, stops):
            methods = "/".join(sorted(site.spec.release_methods))
            return self._finding(
                context,
                "resource-leak",
                site,
                f"{site.spec.kind} '{site.variable}' acquired in "
                f"{short}() may never be released: a path (exception "
                f"paths included) reaches the function exit without "
                f"calling .{methods}() — wrap in with/try-finally "
                "starting immediately after the acquire",
            )
        return None

    # -- path-settling nodes ----------------------------------------------

    def _stop_nodes(self, cfg: FunctionCFG, site: AcquireSite) -> set[int]:
        variable = site.variable
        assert variable is not None
        release = site.spec.release_methods
        stops: set[int] = set()
        for node in cfg.nodes.values():
            if node.stmt is site.stmt and not node.is_header:
                continue  # the acquire itself never settles its fate
            settled = False
            for part in node.parts:
                if part is None:
                    continue
                if _settles(part, variable, release):
                    settled = True
                    break
            if not settled and node.is_header:
                # Conditional-release rule: a header whose subtree
                # releases the variable is a deliberate guard.
                settled = any(
                    _is_release_call(sub, variable, release)
                    for sub in ast.walk(node.stmt)
                )
            if settled:
                stops.add(node.index)
        return stops

    def _finding(
        self,
        context: FileContext,
        rule: str,
        site: AcquireSite,
        message: str,
    ) -> Finding:
        node = site.call
        return Finding(
            rule=rule,
            path=context.path,
            line=node.lineno,
            col=node.col_offset,
            message=message,
            end_line=getattr(site.stmt, "end_lineno", 0) or 0,
        )


def _call_name(call: ast.Call) -> str:
    try:
        return ast.unparse(call.func)
    except Exception:  # pragma: no cover - unparse is total on 3.10+
        return "<call>"


def _is_release_call(
    node: ast.AST, variable: str, release: frozenset[str]
) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in release
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == variable
    )


def _settles(part: ast.AST, variable: str, release: frozenset[str]) -> bool:
    """Does evaluating *part* release, escape, rebind, or drop *variable*?"""
    attribute_values: set[int] = set()
    for node in ast.walk(part):
        if _is_release_call(node, variable, release):
            return True
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            attribute_values.add(id(node.value))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # Closure capture — scan free names without re-walking.
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id == variable:
                    return True
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == variable:
                    return True
    for node in ast.walk(part):
        if not (isinstance(node, ast.Name) and node.id == variable):
            continue
        if isinstance(node.ctx, ast.Store):
            return True  # rebound: tracking ends
        if id(node) not in attribute_values:
            return True  # bare use: returned/passed/stored — escaped
    return False


# Re-exported for tests that want to poke at reachability directly.
_EXIT = EXIT
