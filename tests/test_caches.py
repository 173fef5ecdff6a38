"""Every functools cache in the bmlab modules is bounded: it sets maxsize,
or it is listed here with the finite set of keys it can ever hold.  A
cache is any module-level object with cache_info.  What is kept on a graph
object goes through graph.kept alone, and lives as long as that object."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

from bmlab import bias, catalog, fields, gains, matroid
from bmlab.bias import BiasedGraph
from bmlab.errors import BmlabError
from bmlab.graph import CycleMasks, MultiGraph, kept
from oracles import count_builds

SRC = Path(__file__).resolve().parent.parent / "src" / "bmlab"
# __main__ runs the command line when imported
MODULES = [importlib.import_module("bmlab." + p.stem)
           for p in sorted(SRC.glob("*.py")) if p.stem != "__main__"]

# the caches without maxsize, by their finite key spaces
NO_ARGUMENTS = [
    "catalog.base_graphs", "catalog.classify_2c3_proper", "catalog.classify_k4",
    "catalog.classify_tube_proper", "catalog.contracted_tubes", "catalog.u2", "catalog.u3",
]
# i in {1, 2, 3}, and q a prime power from 2 to 256: any other argument
# raises before anything is cached
OUT_OF_RANGE = [(catalog.t2_prime_split, 0), (catalog.t2_prime_split, 4),
                (fields.gf, 1), (fields.gf, 6), (fields.gf, 257)]
FINITE_KEYS = NO_ARGUMENTS + ["catalog.t2_prime_split", "fields.gf"]


def module_caches(modules):
    """Name -> cache for every cache the modules hold, named by the module
    that defines it."""
    return {"%s.%s" % (obj.__module__.rpartition(".")[2], obj.__qualname__): obj
            for module in modules for obj in vars(module).values()
            if hasattr(obj, "cache_info")}


def unbounded(caches):
    return sorted(name for name, fn in caches.items()
                  if fn.cache_parameters()["maxsize"] is None)


def test_every_unbounded_cache_has_a_finite_key_space():
    assert unbounded(module_caches(MODULES)) == sorted(FINITE_KEYS)


@pytest.mark.parametrize("name", NO_ARGUMENTS)
def test_listed_builders_take_no_arguments(name):
    assert not inspect.signature(module_caches(MODULES)[name]).parameters


@pytest.mark.parametrize("fn,arg", OUT_OF_RANGE, ids=lambda x: getattr(x, "__name__", str(x)))
def test_out_of_range_arguments_raise_and_cache_nothing(fn, arg):
    size = fn.cache_info().currsize
    with pytest.raises(BmlabError):
        fn(arg)
    assert fn.cache_info().currsize == size


def test_scanner_reports_an_unbounded_cache():
    fake = types.ModuleType("bmlab.fake")
    exec("import functools\n"
         "@functools.cache\ndef grows(x): return x\n"
         "@functools.lru_cache(maxsize=4)\ndef capped(x): return x\n", vars(fake))
    assert sorted(module_caches([fake])) == ["fake.capped", "fake.grows"]
    assert unbounded(module_caches([fake])) == ["fake.grows"]


# -- values kept on a graph ------------------------------------------------
# Everything built lazily on a MultiGraph, BiasedGraph or CycleMasks goes
# through graph.kept into the one dict `_kept` that each class declares in
# __init__.  The one other slot is MultiGraph._cycles: perfbench/spans.py
# reads it by name to count cycles() memo hits, so cycles() keeps it.

GRAPH_CLASSES = ("MultiGraph", "BiasedGraph", "CycleMasks")
OWN_SLOTS = {"_kept", "_cycles"}


def _walk(tree):
    """(node, names of the defs and classes enclosing it, outermost first)."""
    stack = [(tree, ())]
    while stack:
        node, outer = stack.pop()
        yield node, outer
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            outer += (node.name,)
        stack.extend((child, outer) for child in ast.iter_child_nodes(node))


def _in_graph_init(outer):
    return len(outer) >= 2 and outer[-2] in GRAPH_CLASSES and outer[-1] == "__init__"


def _empty(value):
    """None, an empty dict, list or set display, or dict(), list(), set()."""
    if isinstance(value, ast.Constant):
        return value.value is None
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set") and not value.args)


def graph_attributes(source):
    """The attributes that a graph class's __init__ sets in the source."""
    return {node.attr for node, outer in _walk(ast.parse(source))
            if _in_graph_init(outer) and isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)}


def memo_bypasses(source, graph_attrs):
    """The lines of a source that keep a value on a graph object other than
    through graph.kept: a store of a private attribute, or of one that a
    graph class's __init__ sets, outside an __init__ (MultiGraph._cycles
    excepted); a touch of an object's `_kept` outside kept and __init__;
    setattr or cached_property; and a graph class's __init__ declaring an
    empty slot (None, {}, [], set()) other than `_kept` and `_cycles`."""
    out = set()
    for node, outer in _walk(ast.parse(source)):
        in_init = outer[-1:] == ("__init__",)
        if isinstance(node, ast.Attribute):
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                if not in_init and node.attr != "_cycles" and (
                        node.attr.startswith("_") or node.attr in graph_attrs):
                    out.add(node.lineno)
            elif node.attr == "_kept" and not in_init and "kept" not in outer:
                out.add(node.lineno)
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        if name in ("setattr", "cached_property"):
            out.add(node.lineno)
        if _in_graph_init(outer) and isinstance(node, ast.Assign) and _empty(node.value):
            if any(isinstance(t, ast.Attribute) and t.attr not in OWN_SLOTS
                   for t in node.targets):
                out.add(node.lineno)
    return sorted(out)


SOURCES = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
GRAPH_ATTRS = set().union(*map(graph_attributes, SOURCES.values()))


def test_each_graph_class_starts_with_an_empty_memo_dict():
    g = MultiGraph(2, [(0, 1), (0, 1)])
    assert g._kept == {} and g._cycles is None
    assert BiasedGraph(g, (), check=False)._kept == {}
    assert CycleMasks(g)._kept == {}
    assert {"_kept", "_cycles", "edges", "balanced", "index"} <= GRAPH_ATTRS


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_values_are_kept_on_graphs_only_through_the_helper(name):
    assert memo_bypasses(SOURCES[name], GRAPH_ATTRS) == []


def test_bypass_scan_reports_planted_cases():
    source = (
        "from functools import cached_property\n"        # 1
        "class MultiGraph:\n"
        "    def __init__(self, edges):\n"
        "        self.edges = edges\n"
        "        self._kept = {}\n"                        # 5
        "        self._cycles = None\n"
        "        self._orbits = None\n"                    # 7: a second slot
        "        self._tables = {}\n"                      # 8: and a third
        "    def cycles(self):\n"
        "        self._cycles = ()\n"                      # 10: allowed by name
        "        return self._cycles\n"
        "def kept(build):\n"
        "    def read(obj):\n"
        "        return obj._kept.setdefault(build, build(obj))\n"
        "    return read\n"                                # 15
        "def orbits(g):\n"
        "    g._orbits = ()\n"                             # 17
        "    g._kept['orbits'] = ()\n"                     # 18
        "    memo = g._kept\n"                             # 19
        "    setattr(g, 'orbits', ())\n"                   # 20
        "    g.edges = ()\n"                               # 21
        "    return memo\n"
    )
    attrs = graph_attributes(source)
    assert attrs == {"edges", "_kept", "_cycles", "_orbits", "_tables"}
    assert memo_bypasses(source, attrs) == [1, 7, 8, 17, 18, 19, 20, 21]


# -- the helper ----------------------------------------------------------------

def _path(n=3):
    return MultiGraph(n, [(i, i + 1) for i in range(n - 1)])


def test_two_builders_on_one_object_do_not_collide():
    built = []
    first = kept(lambda g: built.append("first") or ("first", g.n))
    second = kept(lambda g: built.append("second") or ("second", g.n))
    g = _path()
    assert [first(g), second(g), first(g), second(g)] == [
        ("first", 3), ("second", 3), ("first", 3), ("second", 3)]
    assert built == ["first", "second"]


def test_one_builder_with_other_arguments_does_not_collide():
    built = []
    plus = kept(lambda g, k: built.append(k) or g.n + k)
    g = _path()
    assert [plus(g, 1), plus(g, 2), plus(g, 1), plus(g, 2)] == [4, 5, 4, 5]
    assert built == [1, 2]
    assert [g.is_vertically_k_connected(k)[0] for k in (1, 2, 1)] == [True, False, True]


def test_a_build_that_raises_stores_nothing():
    built = []

    @kept
    def fragile(g):
        built.append(g.n)
        if len(built) < 3:
            raise BmlabError("not yet")
        return len(built)

    g = _path()
    for _ in range(2):
        with pytest.raises(BmlabError):
            fragile(g)
    assert [fragile(g), fragile(g)] == [3, 3]
    assert built == [3, 3, 3]
    with count_builds(MultiGraph.is_vertically_k_connected) as builds:
        for _ in range(2):
            with pytest.raises(ValueError):
                g.is_vertically_k_connected(0)
    assert builds == {"is_vertically_k_connected": 2}


def _fresh(omega):
    return BiasedGraph(MultiGraph(omega.graph.n, omega.graph.edges), omega.balanced, check=False)


def test_a_kept_answer_equals_a_fresh_objects_answer():
    """Each value kept on the base graphs and contracted tubes, asked twice
    (the second answer from the memo), against the same value on a fresh
    copy of the graph and of the biased graph."""
    named = catalog.base_graphs() + catalog.contracted_tubes()
    for nb in named:
        om = nb.omega
        for _ in range(2):
            fresh = _fresh(om)
            g, h = om.graph, fresh.graph
            assert (g.degrees, g.links, g.profiles, g.multiplicity) == (
                h.degrees, h.links, h.profiles, h.multiplicity)
            assert dict(g.parallel_classes) == dict(h.parallel_classes)
            gm, hm = g.cycle_masks(), h.cycle_masks()
            assert (gm.through, gm.edge_masks, gm.vertex_masks, gm.by_edges, gm.thetas) == (
                hm.through, hm.edge_masks, hm.vertex_masks, hm.by_edges, hm.thetas)
            assert gm.disjoint_pairs() == hm.disjoint_pairs()
            for k in (1, 2, 3):
                assert g.is_vertically_k_connected(k) == h.is_vertically_k_connected(k)
            for fn in (bias.classify_balance, bias._unbalanced_mask, bias._cycle_lengths,
                       bias._closing, matroid.frame_equals_lift, catalog._orbit_masks):
                arg = (g, h) if fn is catalog._orbit_masks else (om, fresh)
                assert fn(arg[0]) == fn(arg[1]), (nb.name, fn.__name__)
            assert set(bias.biased_automorphisms(om)) == set(bias.biased_automorphisms(fresh))
            for u in bias.classify_balance(om).balancing_vertices:
                assert bias.unbalancing_classes(om, u) == bias.unbalancing_classes(fresh, u)
            for group in (gains.CyclicGroup(2), gains.MultiplicativeGroup(3)):
                assert [gg.gains for gg in gains.realizations(om, group)] == [
                    gg.gains for gg in gains.realizations(fresh, group)]
