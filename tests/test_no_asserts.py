"""No correctness check in src/bmlab is a bare `assert` statement: `python
-O` strips those, so a failed check would pass unnoticed.  A check raises
AssertionError explicitly instead."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bmlab"


def assert_lines(source):
    """The line numbers of the assert statements in a source, in order."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_assert_statement_in_src(path):
    assert assert_lines(path.read_text()) == []


def test_assert_scan_reports_a_planted_case():
    source = (
        "def f(x):\n"
        "    if not x:\n"
        "        raise AssertionError(x)\n"
        "    assert x, 'planted'\n"
        "    return [y for y in x if y]\n"
    )
    assert assert_lines(source) == [4]
