"""The gate itself: the shipped tree must hold every enforced invariant.

This is the tier ISSUE-mandated: the full default checker suite runs
over ``src/`` on every test run, so a regression that re-introduces an
unguarded hot-path metrics call or a float in a bound computation fails
CI even if nobody runs ``repro-ossm lint`` by hand.
"""

from __future__ import annotations

from repro.analysis import lint_paths

from .conftest import SRC


def test_src_tree_has_no_findings():
    result = lint_paths([SRC])
    assert not result.errors, result.errors
    assert not result.findings, "\n".join(
        f.render() for f in result.findings
    )


def test_src_tree_suppressions_are_rare():
    """Pragmas are for justified exceptions; a pile of them is a smell."""
    result = lint_paths([SRC])
    assert len(result.suppressed) <= 1, "\n".join(
        f.render() for f in result.suppressed
    )


def test_bound_arithmetic_has_no_suppressions():
    """Equation (1) runs in integer kernels only: no bound rule is
    waived anywhere under ``src/``."""
    result = lint_paths([SRC])
    waived = [f for f in result.suppressed if f.rule.startswith("bound-")]
    assert not waived, "\n".join(f.render() for f in waived)
