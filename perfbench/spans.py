"""Outside-in tracing of bmlab for the traced run.

Tracer.install() replaces bmlab's public functions by timing wrappers, in
every bmlab module namespace that holds them (so calls made inside the
library are seen too), and replaces methods on their class.  Each call is a
span with a name, start, end, parent span and the unit (claim, member or
request) it belongs to.  Functions called about a million times per run
(HOT) and generator resumes are aggregated per (name, parent name) as a
count and a time, so trace memory stays bounded.  A span's self time is its
duration minus the time of its child spans.  Spans stay in memory and are
written once, by write(), at exit.
"""

import inspect
import json
import sys
import time
from collections import defaultdict

from bmlab import bias, canonical, catalog, cli, formats, gains, graph, linalg, matroid

from metric_names import LAYERS, TRACE_METRICS

# span name -> functions recorded under it, as (module, attribute)
FUNCTIONS = {
    "catalog.multigraphs_up_to_iso": [(catalog, "multigraphs_up_to_iso")],
    "catalog.bias_sets_up_to_aut": [(catalog, "bias_sets_up_to_aut")],
    "catalog.theta_closed_subsets": [(catalog, "theta_closed_subsets")],
    "catalog.tangled_family": [(catalog, "tangled_family")],
    # the builds that fill catalog._CACHE
    "catalog.named": [(catalog, a) for a in (
        "classify_k4", "classify_2c3_proper", "classify_tube_proper", "base_graphs",
        "u2", "u3", "t2_prime_split", "contracted_tubes")],
    "graph.iter_subdivisions": [(graph, "iter_subdivisions")],
    "graph.graph_isomorphisms": [(graph, "graph_isomorphisms")],
    "graph.edge_bijections": [(graph, "edge_bijections")],
    "bias.check_theta_property": [(bias, "check_theta_property")],
    "bias.theta_subgraphs": [(bias, "theta_subgraphs")],
    "bias.biased_minor": [(bias, "biased_minor")],
    "bias.find_link_minor": [(bias, "find_link_minor")],
    "bias.biased_isomorphisms": [(bias, "biased_isomorphisms")],
    "bias.find_biased_subdivision": [(bias, "find_biased_subdivision")],
    "bias.is_tangled": [(bias, "is_tangled")],
    "gains.realizations": [(gains, "realizations")],
    "gains.switching_equivalent": [(gains, "switching_equivalent")],
    "gains.induced_gain": [(gains, "induced_gain")],
    "gains.induced_bias": [(gains, "induced_bias")],
    "matroid.matroids_equal": [(matroid, "matroids_equal")],
    "linalg.rank_of_columns": [(linalg, "rank_of_columns")],
    "linalg.all_column_ranks": [(linalg, "all_column_ranks")],
    "linalg.rref": [(linalg, "rref")],
    "linalg.projective_key": [(linalg, "projective_key")],
    "linalg.projectively_equivalent": [(linalg, "projectively_equivalent")],
    "canonical.enumerate_representations": [(canonical, "enumerate_representations")],
    "canonical.canonicalize_representation": [(canonical, "canonicalize_representation")],
    "canonical.matrices": [(canonical, a) for a in (
        "frame_matrix", "lift_matrix", "complete_lift_matrix")],
    "cli.main": [(cli, "main")],
    "formats.parse": [(formats, a) for a in (
        "parse_graph", "parse_biased_graph", "parse_gain_graph", "parse_matrix",
        "parse_matroid")],
    "formats.emit": [(formats, a) for a in (
        "emit_graph", "emit_biased_graph", "emit_gain_graph", "emit_matrix",
        "emit_matroid", "dumps")],
}

# span name -> method recorded under it, as (class, attribute)
METHODS = {
    "graph.cycles": (graph.MultiGraph, "cycles"),
    "graph.minor": (graph.MultiGraph, "minor"),
    "graph.is_vertically_k_connected": (graph.MultiGraph, "is_vertically_k_connected"),
    "bias.BiasedGraph": (bias.BiasedGraph, "__init__"),
    "matroid.MatroidOracle": (matroid.MatroidOracle, "__init__"),
    "matroid.rank_mask": (matroid.MatroidOracle, "rank_mask"),
}

# "matroid.rank_eval" is the rank function handed to each MatroidOracle
HOT = frozenset({"graph.cycles", "graph.minor", "matroid.rank_mask", "matroid.rank_eval",
                 "linalg.rank_of_columns", "linalg.all_column_ranks"})

ENUM = "canonical.enumerate_representations"


def _ratio(a, b):
    return a / b if b else 0.0


class Tracer:
    def __init__(self, units, max_spans=200_000):
        self.units = units
        self.max_spans = max_spans
        self.stack = []  # open frames: [name, start_ns, child_ns, span id]
        self.spans = []  # (id, name, start_ns, end_ns, parent id, unit)
        self.dropped = 0
        self.next_id = 1
        self.unit_override = None
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.leaves = defaultdict(lambda: [0, 0])  # (name, parent name) -> [count, ns]
        self._undo = []
        self._cycles = graph.MultiGraph.cycles

    # -- wrappers -------------------------------------------------------
    def _unit(self):
        return self.unit_override or self.units.current

    def wrap(self, name, fn, before=None, after=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        hot = name in HOT
        tracer, stack, clock = self, self.stack, time.perf_counter_ns
        self_ns, calls, leaves, spans = self.self_ns, self.calls, self.leaves, self.spans

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1] if stack else None
            if hot:
                sid = parent[3] if parent else 0
            else:
                sid = tracer.next_id
                tracer.next_id += 1
            frame = [name, 0, 0, sid]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns[name] += dur - frame[2]
                calls[name] += 1
                if parent is not None:
                    parent[2] += dur
                if hot:
                    leaf = leaves[(name, parent[0] if parent else "")]
                    leaf[0] += 1
                    leaf[1] += dur
                elif len(spans) < tracer.max_spans:
                    spans.append((sid, name, start, end, parent[3] if parent else 0,
                                  tracer._unit()))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        """Each resume is timed and aggregated; calls count generators made."""
        stack, clock = self.stack, time.perf_counter_ns
        self_ns, calls, counts, leaves = self.self_ns, self.calls, self.counts, self.leaves

        def wrapper(*args, **kwargs):
            calls[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    parent = stack[-1] if stack else None
                    frame = [name, 0, 0, parent[3] if parent else 0]
                    stack.append(frame)
                    frame[1] = start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dur = clock() - start
                        stack.pop()
                        self_ns[name] += dur - frame[2]
                        if parent is not None:
                            parent[2] += dur
                        leaf = leaves[(name, parent[0] if parent else "")]
                        leaf[0] += 1
                        leaf[1] += dur
                    counts[name + ".yields"] += 1
                    yield item
            finally:
                it.close()

        return wrapper

    def _cache_build(self, fn, label):
        """Charge a catalog build to its own unit, not to the unit that
        asked for it first."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.unit_override is not None:
                return fn(*args, **kwargs)
            tracer.unit_override = "cache:" + label
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.unit_override = None

        return wrapper

    def _hooks(self, name):
        """(before, after) callbacks that count what a span's arguments or
        result say about the work done."""
        counts = self.counts
        stack = self.stack

        def count_len(key):
            def after(args, kwargs, result):
                counts[key] += len(result)
            return after

        def count_found(args, kwargs, result):
            counts[name + ".found"] += result is not None

        def beneath_enum(args, kwargs, result):
            if any(f[0] == ENUM for f in stack):
                counts[name + ".beneath_enum"] += 1

        def theta_kept(args, kwargs, result):
            pool = args[1] if len(args) > 1 else kwargs.get("candidate_cycles")
            size = len(pool) if pool is not None else len(self._cycles(args[0]))
            counts["theta.kept"] += len(result)
            counts["theta.tried"] += 2 ** size

        def memo_hit(args):
            counts["cycles.memo"] += args[0]._cycles is not None

        def canon_ok(args, kwargs, result):
            counts["canon.ok"] += result.status == "ok"

        return {
            "catalog.multigraphs_up_to_iso": (None, count_len("multigraphs.graphs")),
            "catalog.bias_sets_up_to_aut": (None, count_len("bias_sets.orbits")),
            "catalog.theta_closed_subsets": (None, theta_kept),
            "bias.find_link_minor": (None, count_found),
            "bias.find_biased_subdivision": (None, count_found),
            "linalg.projective_key": (None, beneath_enum),
            "linalg.all_column_ranks": (None, beneath_enum),
            "canonical.canonicalize_representation": (None, canon_ok),
            "graph.cycles": (memo_hit, None),
        }.get(name, (None, None))

    # -- install / uninstall -----------------------------------------------
    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "bmlab" or key.startswith("bmlab."))]
        for name, targets in FUNCTIONS.items():
            before, after = self._hooks(name)
            for module, attr in targets:
                orig = getattr(module, attr)
                wrapped = self.wrap(name, orig, before, after)
                if name == "catalog.named":
                    wrapped = self._cache_build(wrapped, attr)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, key, val))
                            setattr(m, key, wrapped)
        for name, (cls, attr) in METHODS.items():
            orig = cls.__dict__[attr]
            if name == "matroid.MatroidOracle":
                fn = self._oracle_init(orig)
            else:
                fn = orig
            before, after = self._hooks(name)
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(name, fn, before, after))

    def _oracle_init(self, orig):
        tracer = self

        def init(oracle, labels, rank_mask_fn, *args, **kwargs):
            rank_eval = tracer.wrap("matroid.rank_eval", rank_mask_fn)
            return orig(oracle, labels, rank_eval, *args, **kwargs)

        return init

    def uninstall(self):
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo = []

    # -- results ---------------------------------------------------------
    def metrics(self):
        c, calls, self_ns = self.counts, self.calls, self.self_ns
        derived = {
            "catalog.theta_closed_subsets.kept_ratio": _ratio(c["theta.kept"], c["theta.tried"]),
            "graph.cycles.memo_ratio": _ratio(c["cycles.memo"], calls["graph.cycles"]),
            "graph.iter_subdivisions.embeddings": c["graph.iter_subdivisions.yields"],
            "bias.find_link_minor.found_ratio": _ratio(
                c["bias.find_link_minor.found"], calls["bias.find_link_minor"]),
            "bias.find_biased_subdivision.found_ratio": _ratio(
                c["bias.find_biased_subdivision.found"], calls["bias.find_biased_subdivision"]),
            "matroid.rank_mask.hit_ratio": 1.0 - _ratio(
                calls["matroid.rank_eval"], calls["matroid.rank_mask"])
            if calls["matroid.rank_mask"] else 0.0,
            "canonical.enumerate_representations.match_ratio": _ratio(
                c["linalg.projective_key.beneath_enum"],
                c["linalg.all_column_ranks.beneath_enum"]),
            "canonical.canonicalize_representation.ok_ratio": _ratio(
                c["canon.ok"], calls["canonical.canonicalize_representation"]),
        }
        out = {}
        for metric, _, _ in TRACE_METRICS:
            base, _, kind = metric.rpartition(".")
            if metric in derived:
                out[metric] = derived[metric]
            elif kind == "self_s":
                out[metric] = self_ns[base] / 1e9
            elif kind == "calls":
                out[metric] = calls[base]
            else:
                raise KeyError(metric)
        return out

    def answer_counts(self):
        """Graphs and tangled orbits the catalog searches returned."""
        return {"catalog.multigraphs_up_to_iso.graphs": self.counts["multigraphs.graphs"],
                "catalog.bias_sets_up_to_aut.orbits": self.counts["bias_sets.orbits"]}

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns / 1e9
        return out

    def write(self, path):
        """Write the spans and the aggregated leaves as JSON lines."""
        t0 = self.spans[0][2] if self.spans else 0
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped,
                                 "columns": ["id", "name", "start_us", "end_us",
                                             "parent", "unit"]}) + "\n")
            for sid, name, start, end, parent, unit in self.spans:
                fh.write(json.dumps([sid, name, (start - t0) // 1000, (end - t0) // 1000,
                                     parent, unit]) + "\n")
            for (name, parent), (count, ns) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "parent": parent, "count": count,
                                     "s": ns / 1e9}) + "\n")
        return path

