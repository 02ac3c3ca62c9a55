"""Every ``repro-ossm`` command the docs show parses with the real CLI.

Collected from README.md (each ``$ repro-ossm`` console line with its
backslash continuations, and each inline code span that starts with
``repro-ossm``) and from each double-backquoted ``repro-ossm`` command
in an ``examples/*.py`` docstring. Mentions elided with ``…`` are not
whole commands and are left out.
Parsing runs in-process; nothing is executed.
"""

from __future__ import annotations

import ast
import contextlib
import io
import pathlib
import re
import shlex

import pytest

from repro.cli import _build_parser

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _console_lines(text: str) -> list[str]:
    commands, current = [], None
    for line in text.splitlines():
        stripped = line.strip()
        if current is not None:
            current += " " + stripped
        elif stripped.startswith("$ repro-ossm "):
            current = stripped[2:]
        if current is not None:
            if current.endswith("\\"):
                current = current[:-1]
            else:
                commands.append(current)
                current = None
    return commands


def _documented_commands() -> list[tuple[str, str]]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    found = [("README.md", c) for c in _console_lines(readme)]
    found += [
        ("README.md", span)
        for span in re.findall(r"(?<!`)`(repro-ossm [^`]*)`", readme)
    ]
    for path in sorted((ROOT / "examples").glob("*.py")):
        docstring = ast.get_docstring(
            ast.parse(path.read_text(encoding="utf-8"))
        ) or ""
        found += [
            (f"examples/{path.name}", quoted)
            for quoted in re.findall(r"``(repro-ossm [^`]*)``", docstring)
        ]
    return [
        (where, " ".join(command.split()))
        for where, command in found
        if "…" not in command
    ]


def _argv(command: str) -> list[str]:
    words = shlex.split(command, comments=True)
    if ">" in words:  # shell redirection is not the CLI's
        words = words[:words.index(">")]
    assert words[0] == "repro-ossm"
    return words[1:]


COMMANDS = _documented_commands()


def test_the_docs_show_commands():
    sources = {where for where, _ in COMMANDS}
    assert "README.md" in sources
    assert any(where.startswith("examples/") for where in sources)
    assert len(COMMANDS) >= 10


@pytest.mark.parametrize(
    "where, command", COMMANDS,
    ids=[" ".join(_argv(command)) for _, command in COMMANDS],
)
def test_documented_command_parses(where, command):
    errors = io.StringIO()
    try:
        with contextlib.redirect_stderr(errors):
            _build_parser().parse_args(_argv(command))
    except SystemExit as exc:
        pytest.fail(
            f"{where}: {command!r} exits {exc.code}: {errors.getvalue()}"
        )
