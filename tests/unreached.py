"""Statements of ``src/ticklab`` that no in-process test reaches.

Runs the test suite through ``pytest.main`` under ``sys.settrace``,
records the lines executed in frames of files under ``src/ticklab`` and
prints every statement none of whose own lines ran: a compound
statement's own lines are its header (decorators included), a simple
statement's are all of its lines.  A statement that compiles to no code
and a constant standing alone, such as a docstring or ``...``, are never
listed.  Tests that run ``ticklab`` in a subprocess are not seen.  Extra
arguments go to pytest:

    PYTHONPATH=src python tests/unreached.py [pytest args]

The file name keeps pytest from collecting it.
"""
from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ticklab"


def _code_lines(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_spans(tree):
    """(statement, first line, last line) of each statement's own lines."""
    for node in ast.walk(tree):
        # a constant, such as a docstring or an abstract body's ``...``,
        # does nothing
        if not isinstance(node, ast.stmt) or (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            yield node, first, body[0].lineno - 1
        else:
            yield node, node.lineno, node.end_lineno


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, source line) of each statement of ``path`` with code that
    ``ran``, the executed lines, never touches."""
    text = path.read_text(encoding="utf-8")
    code = _code_lines(compile(text, str(path), "exec"))
    source = text.splitlines()
    out = []
    for node, first, last in _own_spans(ast.parse(text)):
        own = set(range(first, last + 1))
        if own & code and not own & ran:
            out.append((node.lineno, source[node.lineno - 1].strip()))
    return sorted(out)


def main(args) -> int:
    executed: dict[str, set[int]] = defaultdict(set)
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().is_relative_to(SRC)
        return local if ours[name] else None

    sys.settrace(tracer)
    try:
        code = pytest.main(args or ["-q"])
    finally:
        sys.settrace(None)
    ran = {Path(name).resolve(): lines for name, lines in executed.items()}
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        for line, text in unreached(path, ran.get(path, set())):
            print(f"{path.relative_to(SRC.parent)}:{line}: {text}")
            total += 1
    print(f"{total} unreached statements (pytest exit code {int(code)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
