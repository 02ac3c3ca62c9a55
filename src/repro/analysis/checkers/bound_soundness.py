"""Checker: floating-point smells in the support-bound arithmetic.

Equation (1) soundness — ``sup_hat(X) >= sup(X)`` — is an *integer*
statement: supports are transaction counts. The moment bound arithmetic
passes through floats, two silent failure modes open up: rounding can
pull a bound below the true support (unsound: a frequent itemset gets
pruned and the miner's output is wrong, not slow), and int/float mixing
propagates inexactness into comparisons against ``min_support``. The
related bound-sketch literature (Geerts et al., Liberty et al.) leans
on exactly this kind of discipline.

Scoped to the modules that own the bound math (``core/ossm.py``,
``core/generalized.py``, ``core/loss.py``):

* ``bound-float-div`` — true division ``/``; support arithmetic should
  use ``//`` (exactness is then provable) or justify itself with a
  ``# lint: skip=bound-float-div`` pragma.
* ``bound-float-cast`` — ``float(...)``, ``np.float64(...)``,
  ``.astype(float/np.float32/np.float64)``: an explicit exit from
  integer arithmetic.
* ``bound-float-literal`` — a float literal inside arithmetic
  (``x * 0.5`` and friends) silently promotes the whole expression.
* ``bound-builtin-float`` — ``sum``/``min``/``max`` invoked with a
  float argument or float ``start=``/``default=`` keyword; the classic
  way an integer reduction turns float.
"""

from __future__ import annotations

import ast

from ..base import Checker, FileContext, Rule
from ..findings import Finding

__all__ = ["BoundSoundnessChecker", "DEFAULT_BOUND_MODULES"]

#: Path suffixes of the modules owning Equation (1)/(2) arithmetic.
DEFAULT_BOUND_MODULES: tuple[str, ...] = (
    "core/ossm.py",
    "core/generalized.py",
    "core/loss.py",
    # The bitmap engine's supports and segment matrix feed Equation (1)
    # directly; any float creeping into its reduces would unsound them.
    "mining/bitmap.py",
    # Checkpoints and artifacts carry exact counts; float arithmetic
    # sneaking into their (de)serialization would corrupt resumes.
    "resilience/checkpoint.py",
    "resilience/integrity.py",
)

_FLOAT_DTYPES = frozenset({"float", "float16", "float32", "float64"})
_REDUCTIONS = frozenset({"sum", "min", "max"})


def _is_float_const(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _names_float_dtype(node: ast.expr) -> bool:
    """``float`` / ``np.float64`` / ``"float64"`` as a dtype argument."""
    if isinstance(node, ast.Name):
        return node.id in _FLOAT_DTYPES
    if isinstance(node, ast.Attribute):
        return node.attr in _FLOAT_DTYPES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in _FLOAT_DTYPES
    return False


class BoundSoundnessChecker(Checker):
    name = "bound-soundness"
    rules = (
        Rule("bound-float-div", "true division in bound arithmetic"),
        Rule("bound-float-cast", "explicit float cast in bound module"),
        Rule("bound-float-literal", "float literal in bound arithmetic"),
        Rule("bound-builtin-float", "float-typed sum/min/max reduction"),
    )

    def __init__(
        self, bound_modules: tuple[str, ...] = DEFAULT_BOUND_MODULES
    ):
        self.bound_modules = bound_modules

    def applies_to(self, context: FileContext) -> bool:
        return context.matches_any(self.bound_modules)

    def check(self, context: FileContext) -> list[Finding]:
        findings: list[Finding] = []

        def report(rule: str, message: str, node: ast.AST) -> None:
            findings.append(
                Finding(
                    rule=rule,
                    path=context.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                )
            )

        for node in ast.walk(context.tree):
            if isinstance(node, ast.BinOp):
                if isinstance(node.op, ast.Div):
                    report(
                        "bound-float-div",
                        "true division `/` leaves integer support "
                        "arithmetic; use `//` (and prove exactness) or "
                        "justify with `# lint: skip=bound-float-div`",
                        node,
                    )
                elif _is_float_const(node.left) or _is_float_const(
                    node.right
                ):
                    report(
                        "bound-float-literal",
                        "float literal promotes support arithmetic to "
                        "float; use integer constants",
                        node,
                    )
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(context, node))
        return findings

    def _check_call(
        self, context: FileContext, node: ast.Call
    ) -> list[Finding]:
        findings: list[Finding] = []

        def report(rule: str, message: str) -> None:
            findings.append(
                Finding(
                    rule=rule,
                    path=context.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                )
            )

        func = node.func
        # float(...) / np.float64(...)
        if (
            isinstance(func, ast.Name) and func.id == "float"
        ) or (
            isinstance(func, ast.Attribute) and func.attr in _FLOAT_DTYPES
        ):
            report(
                "bound-float-cast",
                "explicit float conversion inside a bound module; keep "
                "support arithmetic integral or justify with a pragma",
            )
        # .astype(float64-ish) / np.asarray(..., dtype=float64-ish)
        dtype_args: list[ast.expr] = []
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            dtype_args.extend(node.args[:1])
        dtype_args.extend(
            kw.value for kw in node.keywords if kw.arg == "dtype"
        )
        if any(_names_float_dtype(arg) for arg in dtype_args):
            report(
                "bound-float-cast",
                "conversion to a float dtype inside a bound module; keep "
                "support vectors integral or justify with a pragma",
            )
        # sum/min/max with float arguments or float start/default.
        if isinstance(func, ast.Name) and func.id in _REDUCTIONS:
            float_pos = any(_is_float_const(arg) for arg in node.args)
            float_kw = any(
                kw.arg in ("start", "default", "initial")
                and _is_float_const(kw.value)
                for kw in node.keywords
            )
            if float_pos or float_kw:
                report(
                    "bound-builtin-float",
                    f"`{func.id}` with a float argument turns an integer "
                    "reduction float; use integer operands",
                )
        return findings
