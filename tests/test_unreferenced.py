"""Every function, method and class defined in src/bmlab is named somewhere
in src/, tests/ or perfbench/."""

import ast
import re
from pathlib import Path

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
