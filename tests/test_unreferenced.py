"""Every function, method and class defined in src/bmlab is named somewhere
in src/, tests/ or perfbench/, and the product reaches it; no src function
assigns a local it never reads or has an option no call sets."""

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


def _is_claim(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "claim"
        for d in node.decorator_list
    )


def _exempt(node):
    """Dunders, and claims (the @claim decorator registers them)."""
    return node.name.startswith("__") and node.name.endswith("__") or _is_claim(node)


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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _nodes_with_enclosing_defs(tree):
    """(node, the defs enclosing it, outermost first) for every node."""
    stack = [(tree, ())]
    while stack:
        node, outer = stack.pop()
        yield node, outer
        if isinstance(node, DEFS):
            outer += (node,)
        stack.extend((child, outer) for child in ast.iter_child_nodes(node))


def _named(node):
    """(name, as an attribute?) for each name a node refers to; a dotted
    string constant counts as attribute names, an import as bare names."""
    if isinstance(node, ast.Name):
        return [(node.id, False)]
    if isinstance(node, ast.Attribute):
        return [(node.attr, True)]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if DOTTED_NAME.fullmatch(node.value):
            return [(part, True) for part in node.value.split(".")]
    if isinstance(node, ast.alias):
        return [(node.asname or node.name.split(".")[-1], False)]
    return []


def reached_only_by_tests(product_sources, exports, outside_names):
    """The defs of the product sources (src/ without __init__.py) that the
    product does not reach, sorted by name.

    A def is reached when outside_names (what perfbench/ names) holds its
    name, when it is a function or class that __init__.py exports, when it
    is a claim, or when a product source names it outside its own body and
    outside every def already found unreached.  The last rule is applied to
    a fixed point, so a chain of defs that only each other call is caught.
    A method counts only as an attribute (x.name), never as a bare name.

    Names are matched without types: any `x.delete` reaches every method
    called delete.  So `args.delete` and `args.contract` in cli would hide
    MatroidOracle.delete and .contract, and a def left only on such a
    coincidence is found by reading the code, not by this scan.
    """
    defs, refs = [], []
    for source in product_sources:
        for node, outer in _nodes_with_enclosing_defs(ast.parse(source)):
            if isinstance(node, DEFS) and not _exempt(node):
                method = (not isinstance(node, ast.ClassDef) and bool(outer)
                          and isinstance(outer[-1], ast.ClassDef))
                free = node.name in outside_names or (not method and node.name in exports)
                if not free:
                    defs.append((node, method))
            refs.extend((name, attr, outer) for name, attr in _named(node))
    flagged = set()
    while True:
        unreached = {
            node for node, method in defs
            if not any(name == node.name and (attr or not method) and node not in outer
                       and flagged.isdisjoint(outer)
                       for name, attr, outer in refs)
        }
        if unreached == flagged:
            return sorted(node.name for node in unreached)
        flagged = unreached


def _exports(init_source):
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(init_source)) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_src_holds_only_what_the_product_reaches():
    # the product: the bmlab CLI, the verify claims, the package exports
    # and what the benchmark looks up; an oracle only tests need lives in
    # tests/ (shared ones in tests/oracles.py)
    product = [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    outside = {name for p in sorted((ROOT / "perfbench").rglob("*.py"))
               for node in ast.walk(ast.parse(p.read_text())) for name, _ in _named(node)}
    assert reached_only_by_tests(product, _exports((SRC / "__init__.py").read_text()), outside) == []


def test_reached_only_by_tests_scan_reports_planted_cases():
    source = (
        "def only_tests(): pass\n"
        "def chain_top(): return chain_leaf()\n"
        "def chain_leaf(): return chain_leaf()\n"
        "def exported(): pass\n"
        "def looked_up(): pass\n"
        "class Box:\n"
        "    def used(self): pass\n"
        "    def local(self): pass\n"
        "def run(b):\n"
        "    local = b.used()\n"
        "    return local\n"
        "@claim('c')\n"
        "def registered(): return run(Box())\n"
    )
    assert reached_only_by_tests([source], {"exported"}, {"looked_up"}) == [
        "chain_leaf", "chain_top", "local", "only_tests"]


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


def _callables(tree):
    """(callee name, function node, leading parameters a call does not
    pass) for each function and method: a method is called by its own name
    with self passed implicitly, an __init__ by its class's name."""
    methods = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(fn)
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    yield (cls.name if fn.name == "__init__" else fn.name), fn, 0 if static else 1
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn not in methods:
            yield fn.name, fn, 0


def _options(fn, skip):
    """(parameter name, position among the arguments a caller passes, or
    None for keyword-only) of each parameter with a default."""
    a = fn.args
    params = a.posonlyargs + a.args
    first = len(params) - len(a.defaults)
    out = [(p.arg, i - skip) for i, p in enumerate(params) if i >= first]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _calls_and_values(trees):
    """Each call as (callee name, positional count or None when it unpacks
    *args, keywords or None when it unpacks **kwargs), and the names read
    other than as a callee: a function passed around as a value can be
    called under any name."""
    calls, callees, read = [], set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                callees.add(id(func))
                starred = any(isinstance(x, ast.Starred) for x in node.args)
                keywords = [k.arg for k in node.keywords]
                calls.append((name, None if starred else len(node.args),
                              None if None in keywords else set(keywords)))
        for node in ast.walk(tree):
            if id(node) in callees:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return calls, read


def unset_options(defining_sources, calling_sources):
    """The defaulted parameters, as callee.parameter, of the functions and
    methods in the defining sources that no call in the calling sources
    sets, by keyword or by position; calls are matched by callee name.
    Claims (run_claim passes their options), dunders other than __init__,
    and functions read as values are skipped."""
    calls, read = _calls_and_values([ast.parse(s) for s in calling_sources])
    out = set()
    for source in defining_sources:
        for name, fn, skip in _callables(ast.parse(source)):
            dunder = fn.name.startswith("__") and fn.name.endswith("__")
            if _is_claim(fn) or (dunder and fn.name != "__init__") or fn.name in read:
                continue
            for param, pos in _options(fn, skip):
                if not any(callee == name and (
                        keywords is None or param in keywords
                        or (pos is not None and (npos is None or npos > pos)))
                        for callee, npos, keywords in calls):
                    out.add("%s.%s" % (name, param))
    return sorted(out)


def test_every_option_in_src_is_set_by_some_call():
    defining = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    calling = [p.read_text() for d in SCANNED for p in sorted(d.rglob("*.py"))]
    assert unset_options(defining, calling) == []


def test_unset_options_scan_reports_a_planted_case():
    source = (
        "class A:\n"
        "    def __init__(self, x, planted_init=1, set_init=2): pass\n"
        "    def method(self, a, by_position=1, planted_method=2): pass\n"
        "    @staticmethod\n"
        "    def make(a, by_position=1): pass\n"
        "    def __repr__(self, ignored=1): pass\n"
        "def f(a, by_keyword=1, planted=2, *, kwonly=3, planted_kwonly=4): pass\n"
        "def unpacked(a=1, b=2): pass\n"
        "def passed_around(a, ignored=1): pass\n"
        "@claim('c')\n"
        "def registered(q=4): pass\n"
    )
    caller = (
        "A(0, set_init=1).method(0, 1)\n"
        "A.make(0, 1)\n"
        "f(0, by_keyword=1, kwonly=2)\n"
        "unpacked(*args)\n"
        "sorted(xs, key=passed_around)\n"
    )
    assert unset_options([source], [source, caller]) == [
        "A.planted_init", "f.planted", "f.planted_kwonly", "method.planted_method"]
