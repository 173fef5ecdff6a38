"""Every function, method and class defined in src/bmlab is named somewhere
in src/, tests/ or perfbench/, and no src function assigns a local it never
reads."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bmlab"
SCANNED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def references(tree):
    """Names, attribute names, and string constants that are (dotted)
    identifiers: the benchmark's tracer looks functions up by string."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED_NAME.fullmatch(node.value):
                out.update(node.value.split("."))
    return out


def _exempt(node):
    """Dunders, and claims (the @claim decorator registers them)."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "claim"
        for d in node.decorator_list
    )


def definitions(tree):
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not _exempt(node)
    }


def unreferenced(defining_sources, referencing_sources):
    defined = set().union(*(definitions(ast.parse(s)) for s in defining_sources))
    used = set().union(*(references(ast.parse(s)) for s in referencing_sources))
    return sorted(defined - used)


def test_every_definition_in_src_is_referenced():
    defining = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    referencing = [p.read_text() for d in SCANNED for p in sorted(d.rglob("*.py"))]
    assert unreferenced(defining, referencing) == []


def test_scanner_reports_a_planted_unreferenced_def():
    source = (
        "class A:\n"
        "    def used(self): pass\n"
        "    def planted(self): pass\n"
        "    def __repr__(self): pass\n"
        "def looked_up(): pass\n"
        "@claim('c')\n"
        "def registered(): pass\n"
    )
    caller = "A().used()\ngetattr(module, 'looked_up')\n"
    assert unreferenced([source], [source, caller]) == ["planted"]


def _own_nodes(fn):
    """The nodes of a function's body, not descending into nested defs."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(source):
    """(function, name) for each name a function binds by plain assignment
    (`name = ...`, not unpacking) and never reads, itself or in a nested
    function.  `_`-prefixed, nonlocal and global names are exempt."""
    out = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned = {t.id for n in _own_nodes(fn) if isinstance(n, ast.Assign)
                    for t in n.targets if isinstance(t, ast.Name)}
        nodes = list(ast.walk(fn))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        shared = {name for n in nodes if isinstance(n, (ast.Nonlocal, ast.Global))
                  for name in n.names}
        out |= {(fn.name, name) for name in assigned - read - shared
                if not name.startswith("_")}
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_dead_locals_in_src(path):
    assert dead_locals(path.read_text()) == []


def test_dead_locals_scan_reports_a_planted_case():
    source = (
        "def f(xs):\n"
        "    planted = len(xs)\n"
        "    kept = 1\n"
        "    a, b = xs\n"
        "    _ignored = 2\n"
        "    total = 0\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total = kept\n"
        "        inner = 3\n"
        "    return g\n"
    )
    assert dead_locals(source) == [("f", "planted"), ("g", "inner")]
