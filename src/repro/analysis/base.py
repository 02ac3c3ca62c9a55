"""Checker plumbing: per-file and whole-program context, checker API.

A checker is a small object that inspects one parsed module at a time.
The engine feeds it a :class:`FileContext` (path, source, AST) and
collects :class:`~repro.analysis.findings.Finding` objects. Checkers
are pure — no I/O, no mutation of the tree — which keeps them trivially
testable from source strings.

Since the whole-program pass, checkers may also look *across* files: the
engine's first pass builds a :class:`ProjectContext` — import graph,
qualified-name symbol table, coroutine classification, and the
acquires-resource annotation set — and the second pass hands it to every
checker through :meth:`Checker.check_project`. Per-file checkers ignore
it (the default implementation delegates to :meth:`Checker.check`);
flow-aware checkers override ``check_project`` and resolve names through
the index.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .findings import Finding

__all__ = [
    "FileContext",
    "ProjectContext",
    "AcquireSite",
    "ResourceSpec",
    "RESOURCE_SPECS",
    "Checker",
    "Rule",
]


@dataclass(frozen=True)
class Rule:
    """Metadata of one rule id a checker can emit."""

    id: str
    summary: str


@dataclass
class FileContext:
    """Everything a checker may look at for one module."""

    #: Display path (as given on the command line / collected).
    path: str
    #: Raw source text.
    source: str
    #: Parsed module.
    tree: ast.Module
    #: Source split into lines (for pragma scanning and excerpts).
    lines: list[str] = field(init=False)
    #: Forward-slash form of :attr:`path` for suffix matching.
    posix_path: str = field(init=False)

    def __post_init__(self) -> None:
        self.lines = self.source.splitlines()
        self.posix_path = self.path.replace("\\", "/")

    def matches_any(self, suffixes: tuple[str, ...]) -> bool:
        """True if the file path ends with one of *suffixes*."""
        return any(self.posix_path.endswith(suffix) for suffix in suffixes)

    def module_name(self) -> str:
        """Best-effort dotted module name of this file.

        Everything after the last ``src/`` segment (the packaging
        convention of this repo); the whole relative path otherwise.
        ``pkg/__init__.py`` maps to ``pkg``.
        """
        parts = [part for part in self.posix_path.split("/") if part]
        if "src" in parts:
            parts = parts[len(parts) - parts[::-1].index("src"):]
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][:-3]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts) or "<module>"


@dataclass(frozen=True)
class ResourceSpec:
    """How one acquirable resource kind is released."""

    #: Human label used in messages ("worker pool", …).
    kind: str
    #: Method names that release the resource (any one suffices).
    release_methods: frozenset[str]


#: The acquires-resource annotation set: callables (matched by their
#: terminal name) whose return value holds an OS resource this repo
#: must release deterministically. ``open`` matches only the builtin
#: (bare-name calls), never ``x.open(...)`` methods.
RESOURCE_SPECS: dict[str, ResourceSpec] = {
    "SupervisedPool": ResourceSpec(
        "worker pool", frozenset({"close", "kill"})
    ),
    "BoundQueryService": ResourceSpec(
        "bound-query service", frozenset({"aclose"})
    ),
    "open": ResourceSpec("file handle", frozenset({"close"})),
    # Context-manager factories: entering the ``with`` is what runs the
    # body at all, so a call never wrapped in one is always a defect.
    "atomic_path": ResourceSpec("atomic artifact", frozenset()),
}


@dataclass(frozen=True)
class AcquireSite:
    """One resource acquisition found by the project index."""

    path: str
    #: Qualified name of the enclosing function ("" at module level).
    function: str
    #: The function def node owning the acquire (None at module level).
    func_node: ast.AST | None
    #: The statement the acquire call sits in.
    stmt: ast.stmt
    call: ast.Call
    spec: ResourceSpec
    #: Local variable bound to the resource; None when the result is
    #: dropped or immediately handed elsewhere.
    variable: str | None
    #: How the call site uses the result: "assigned", "dropped",
    #: "with", "escaped", "self".
    usage: str


class ProjectContext:
    """The whole-program index built by the engine's first pass.

    Per ``lint_paths`` run there is exactly one instance; checkers may
    memoize derived structure in :attr:`cache` keyed by checker name so
    pass 2 stays linear in project size.
    """

    def __init__(self, files: dict[str, FileContext]):
        self.files = files
        #: path → dotted module name.
        self.modules: dict[str, str] = {}
        #: dotted module name → path (reverse of :attr:`modules`).
        self.module_paths: dict[str, str] = {}
        #: path → {local alias → qualified imported name} (the import
        #: graph, with relative imports resolved against the module).
        self.aliases: dict[str, dict[str, str]] = {}
        #: qualified name → def node (functions, classes, methods).
        self.symbols: dict[str, ast.AST] = {}
        #: qualified name → defining path.
        self.symbol_paths: dict[str, str] = {}
        #: qualified names of ``async def`` functions/methods (the
        #: coroutine classification: calling one returns a coroutine).
        self.async_functions: set[str] = set()
        #: path → acquire sites (the acquires-resource annotations).
        self.acquires: dict[str, list[AcquireSite]] = {}
        #: bare class names participating in the ResilienceError
        #: hierarchy (seeded by the class of that name, closed over
        #: project-local subclassing).
        self.resilience_errors: set[str] = set()
        #: Scratch space for checker-derived indexes (keyed by checker
        #: name), so per-file pass-2 calls don't redo project walks.
        self.cache: dict[str, object] = {}
        for context in files.values():
            self._index_module(context)
        self._close_exception_hierarchy()

    @classmethod
    def single(cls, context: FileContext) -> "ProjectContext":
        """A one-file project (``lint_source`` and unit tests)."""
        return cls({context.path: context})

    # -- pass-1 indexing --------------------------------------------------

    def _index_module(self, context: FileContext) -> None:
        module = context.module_name()
        self.modules[context.path] = module
        self.module_paths[module] = context.path
        self.aliases[context.path] = _import_aliases(context.tree, module)
        for stmt in context.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_symbol(context.path, f"{module}.{stmt.name}", stmt)
            elif isinstance(stmt, ast.ClassDef):
                qualified = f"{module}.{stmt.name}"
                self._add_symbol(context.path, qualified, stmt)
                for sub in stmt.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._add_symbol(
                            context.path, f"{qualified}.{sub.name}", sub
                        )
                if stmt.name == "ResilienceError":
                    self.resilience_errors.add(stmt.name)
        self.acquires[context.path] = _find_acquires(context)

    def _add_symbol(self, path: str, qualified: str, node: ast.AST) -> None:
        self.symbols[qualified] = node
        self.symbol_paths[qualified] = path
        if isinstance(node, ast.AsyncFunctionDef):
            self.async_functions.add(qualified)

    def _close_exception_hierarchy(self) -> None:
        """Transitively collect subclasses of ``ResilienceError``."""
        # Seed with the canonical hierarchy even when errors.py is not
        # part of the linted tree (e.g. a single-file lint of serve/):
        # the names are project-reserved either way.
        self.resilience_errors.update(
            {
                "ResilienceError", "IntegrityError", "CorruptArtifact",
                "CheckpointMismatch", "InjectedFault", "PoolFailure",
            }
        )
        changed = True
        while changed:
            changed = False
            for qualified, node in self.symbols.items():
                if not isinstance(node, ast.ClassDef):
                    continue
                name = qualified.rsplit(".", 1)[-1]
                if name in self.resilience_errors:
                    continue
                for base in node.bases:
                    base_name = _terminal_name(base)
                    if base_name in self.resilience_errors:
                        self.resilience_errors.add(name)
                        changed = True
                        break

    # -- name resolution --------------------------------------------------

    def resolve(self, path: str, dotted: str) -> str:
        """A dotted local name as a project-qualified name.

        The head travels through the file's import aliases; a head
        defined in the same module resolves module-locally; anything
        else is returned verbatim (stdlib / third-party names keep
        their spelling, which is what the checkers match against).
        """
        head, _, rest = dotted.partition(".")
        aliases = self.aliases.get(path, {})
        if head in aliases:
            resolved = aliases[head]
        else:
            module = self.modules.get(path, "")
            local = f"{module}.{head}"
            resolved = local if local in self.symbols else head
        return f"{resolved}.{rest}" if rest else resolved

    def resolve_call(self, path: str, func: ast.expr) -> str | None:
        """Qualified name of a call's target, or None if unresolvable."""
        dotted = _dotted_name(func)
        if dotted is None:
            return None
        return self.resolve(path, dotted)

    def is_coroutine_call(self, path: str, node: ast.Call) -> bool:
        """Does calling *node* produce a coroutine (async def target)?

        Resolution goes through the index: plain names and dotted
        module paths via the import graph, ``self.method`` against the
        enclosing class's methods (the checker resolves that spelling
        before asking).
        """
        qualified = self.resolve_call(path, node.func)
        return qualified is not None and qualified in self.async_functions


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains (and bare names) as dotted strings."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _terminal_name(node: ast.expr) -> str | None:
    """The final identifier of a name/attribute expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _import_aliases(tree: ast.Module, module: str) -> dict[str, str]:
    """Local alias → qualified name, with relative imports resolved."""
    aliases: dict[str, str] = {}
    package = module.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level]
                if node.module:
                    base = base + node.module.split(".")
                prefix = ".".join(base)
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = (
                    f"{prefix}.{alias.name}" if prefix else alias.name
                )
    return aliases


def _spec_for_call(node: ast.Call) -> ResourceSpec | None:
    """The resource spec a call acquires, if any."""
    func = node.func
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
        if name == "open":
            # Only the builtin acquires; ``store.open(...)`` methods
            # and ``Path.open`` are their owners' business.
            return None
    else:
        return None
    return RESOURCE_SPECS.get(name)


def _find_acquires(context: FileContext) -> list[AcquireSite]:
    """Every resource acquisition in one module, classified by usage."""
    sites: list[AcquireSite] = []
    module = context.module_name()

    def scan_function(
        func: ast.FunctionDef | ast.AsyncFunctionDef, qualified: str
    ) -> None:
        for stmt in _function_statements(func):
            sites.extend(
                _classify_stmt(context.path, qualified, func, stmt)
            )

    for stmt in context.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan_function(stmt, f"{module}.{stmt.name}")
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan_function(sub, f"{module}.{stmt.name}.{sub.name}")
    return sites


def _function_statements(func: ast.AST) -> list[ast.stmt]:
    """All statements of *func*, excluding nested def/class bodies."""
    out: list[ast.stmt] = []
    stack: list[ast.stmt] = list(getattr(func, "body", []))
    while stack:
        stmt = stack.pop()
        out.append(stmt)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            # Statement lists live one level down (bodies, orelse,
            # handlers, finalbody) — iter_child_nodes surfaces
            # handlers as excepthandler nodes.
            elif isinstance(child, ast.excepthandler):
                stack.extend(child.body)
    return out


def _classify_stmt(
    path: str,
    qualified: str,
    func: ast.AST,
    stmt: ast.stmt,
) -> list[AcquireSite]:
    sites: list[AcquireSite] = []
    with_exprs: set[int] = set()
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            for sub in ast.walk(item.context_expr):
                with_exprs.add(id(sub))

    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        spec = _spec_for_call(node)
        if spec is None:
            continue
        usage = "escaped"
        variable: str | None = None
        if id(node) in with_exprs:
            usage = "with"
        elif isinstance(stmt, ast.Expr) and stmt.value is node:
            usage = "dropped"
        elif (
            isinstance(stmt, ast.Assign)
            and stmt.value is node
            and len(stmt.targets) == 1
        ):
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                usage, variable = "assigned", target.id
            elif isinstance(target, ast.Attribute):
                # Ownership handed to an object (self._pool = ...);
                # the object's close() owns the lifecycle.
                usage = "self"
        sites.append(
            AcquireSite(
                path=path,
                function=qualified,
                func_node=func,
                stmt=stmt,
                call=node,
                spec=spec,
                variable=variable,
                usage=usage,
            )
        )
    return sites


class Checker:
    """Base class: subclasses set :attr:`name`/:attr:`rules`, implement
    :meth:`check` (or :meth:`check_project` for flow-aware checkers),
    and may narrow :meth:`applies_to`."""

    #: Short checker name (used by ``--select`` at checker granularity).
    name: str = ""
    #: Rules this checker can emit.
    rules: tuple[Rule, ...] = ()

    def applies_to(self, context: FileContext) -> bool:
        """Whether this checker wants to see *context* at all."""
        return True

    def check(self, context: FileContext) -> list[Finding]:
        """Return every violation found in *context* alone.

        Project-aware checkers (those overriding :meth:`check_project`)
        get a single-file index here, so unit tests can keep feeding
        them source strings.
        """
        if type(self).check_project is not Checker.check_project:
            return self.check_project(
                context, ProjectContext.single(context)
            )
        raise NotImplementedError

    def check_project(
        self, context: FileContext, project: ProjectContext
    ) -> list[Finding]:
        """Violations in *context*, with the whole-program index.

        The default delegates to :meth:`check`, so per-file checkers
        need not know the project pass exists.
        """
        return self.check(context)

    def rule_ids(self) -> tuple[str, ...]:
        return tuple(rule.id for rule in self.rules)
