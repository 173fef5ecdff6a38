"""Text file formats and JSON certificate serialization.

Graph format, one declaration per line ('#' starts a comment):
    vertices N
    edge <name> <u> <v>          (u = v for loops)

Biased-graph format adds, one line per balanced cycle:
    balanced <edge-name> <edge-name> ...

Gain-graph format adds a group line and one gain per edge (the gain is on
the orientation u -> v of the edge declaration):
    group mul <q> | group add <q> | group zn <n>
    gain <edge-name> <element>

A biased-graph file with a group or gain line, or a gain-graph file with a
balanced line, is a parse error ("unknown declaration").

Matrix format:
    rows <r> cols <c> field gf <q> | rows <r> cols <c> field rational
    labels <col-label> ...       (optional)
    <row of space-separated entries> x r

Matroid interchange format:
    ground <label> ...
    rank <comma-joined-subset | -> <r>    (explicit oracle), or
    source <path-to-biased-graph-file>
    kind frame|lift|lift0
"""

import json
import os

from .bias import BiasedGraph
from .canonical import KINDS, kind_parts
from .errors import BmlabError, NotACycle, ParseError, ThetaViolation, UnknownEdge
from .fields import QQ, gf
from .gains import AdditiveGroup, CyclicGroup, GainGraph, MultiplicativeGroup
from .graph import MultiGraph
from .linalg import FieldMatrix
from .matroid import explicit_matroid


def _lines(text):
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _int(token, what, i):
    try:
        return int(token)
    except ValueError:
        raise ParseError("%s must be an integer, got %r" % (what, token), i)


def _edge(g, name, i):
    try:
        return g.edge_index(name)
    except UnknownEdge as exc:
        raise ParseError(str(exc), i)


def _construct(make, order, i):
    """make(order) for a field or group order read on line i; the
    constructors reject an order they do not support with a BmlabError."""
    try:
        return make(order)
    except BmlabError as exc:
        raise ParseError(str(exc), i)


def parse_graph(text):
    """The graph of a graph, biased-graph or gain-graph file."""
    return _parse_graph(text, ("balanced", "group", "gain"))


def _parse_graph(text, declarations):
    """The graph of text, whose other lines may only be the given
    declarations; any other line is an unknown declaration."""
    n = None
    edges = []
    names = []
    for i, parts in _lines(text):
        if parts[0] == "vertices":
            if len(parts) != 2:
                raise ParseError("vertices takes one argument", i)
            n = _int(parts[1], "vertex count", i)
            if n < 0:
                raise ParseError("vertex count must be >= 0, got %d" % n, i)
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise ParseError("edge takes name u v", i)
            if n is None:
                raise ParseError("edge before vertices", i)
            names.append(parts[1])
            edges.append((_int(parts[2], "edge endpoint", i), _int(parts[3], "edge endpoint", i)))
        elif parts[0] not in declarations:
            raise ParseError("unknown declaration %r" % parts[0], i)
    if n is None:
        raise ParseError("missing vertices line")
    try:
        return MultiGraph(n, edges, names or None)
    except (UnknownEdge, ValueError) as exc:
        raise ParseError(str(exc))


def emit_graph(g):
    out = ["vertices %d" % g.n]
    for e, (u, v) in enumerate(g.edges):
        out.append("edge %s %d %d" % (g.edge_names[e], u, v))
    return "\n".join(out) + "\n"


def parse_biased_graph(text, check=True):
    g = _parse_graph(text, ("balanced",))
    balanced = []
    for i, parts in _lines(text):
        if parts[0] == "balanced":
            balanced.append(frozenset(_edge(g, name, i) for name in parts[1:]))
    try:
        return BiasedGraph(g, balanced, check=check)
    except (NotACycle, ThetaViolation) as exc:
        raise ParseError(str(exc))


def emit_biased_graph(om):
    out = emit_graph(om.graph)
    for c in sorted(om.balanced, key=lambda c: (len(c), sorted(c))):
        out += "balanced %s\n" % " ".join(om.graph.names_of(c))
    return out


_GROUPS = {"mul": MultiplicativeGroup, "add": AdditiveGroup, "zn": CyclicGroup}


def _parse_group(parts, i):
    if parts[1] not in _GROUPS:
        raise ParseError("unknown group kind %r" % parts[1], i)
    return _construct(_GROUPS[parts[1]], _int(parts[2], "group order", i), i)


def parse_gain_graph(text):
    g = _parse_graph(text, ("group", "gain"))
    group = None
    gains = {}
    for i, parts in _lines(text):
        if parts[0] == "group":
            if len(parts) != 3:
                raise ParseError("group takes kind and order", i)
            group = _parse_group(parts, i)
        elif parts[0] == "gain":
            if group is None:
                raise ParseError("gain before group", i)
            if len(parts) != 3:
                raise ParseError("gain takes edge-name element", i)
            e = _edge(g, parts[1], i)
            val = _int(parts[2], "gain", i)
            if val not in group.elements:
                raise ParseError("element %d not in %r" % (val, group), i)
            gains[e] = val
    if group is None:
        raise ParseError("missing group line")
    missing = [g.edge_names[e] for e in range(g.m) if e not in gains]
    if missing:
        raise ParseError("missing gains for %s" % ", ".join(missing))
    return GainGraph(g, group, gains)


def emit_gain_graph(gg):
    out = emit_graph(gg.graph)
    kind, order = gg.group.spec
    out += "group %s %d\n" % (kind, order)
    for e in range(gg.graph.m):
        out += "gain %s %d\n" % (gg.graph.edge_names[e], gg.gains[e])
    return out


def parse_matrix(text):
    header = None
    labels = None
    rows = []
    field = None
    for i, parts in _lines(text):
        if parts[0] == "rows":
            if (
                len(parts) < 6
                or parts[2] != "cols"
                or parts[4] != "field"
            ):
                raise ParseError("header: rows r cols c field {gf q | rational}", i)
            r, c = _int(parts[1], "row count", i), _int(parts[3], "column count", i)
            if r < 1 or c < 1:
                raise ParseError("row and column counts must be >= 1", i)
            if parts[5] == "gf":
                if len(parts) != 7:
                    raise ParseError("field gf takes its order q", i)
                field = _construct(gf, _int(parts[6], "field order", i), i)
            elif parts[5] == "rational":
                field = QQ
            else:
                raise ParseError("unknown field %r" % parts[5], i)
            header = (r, c)
        elif parts[0] == "labels":
            labels = tuple(parts[1:])
            if len(set(labels)) != len(labels):
                raise ParseError("repeated column label", i)
        else:
            if header is None:
                raise ParseError("matrix data before header", i)
            if len(parts) != header[1]:
                raise ParseError(
                    "expected %d entries, got %d" % (header[1], len(parts)), i
                )
            try:
                rows.append([field.parse(tok) for tok in parts])
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(str(exc), i)
    if header is None:
        raise ParseError("missing matrix header")
    if len(rows) != header[0]:
        raise ParseError("expected %d rows, got %d" % (header[0], len(rows)))
    if labels is not None and len(labels) != header[1]:
        raise ParseError("label count mismatch")
    return FieldMatrix(field, rows, None, labels)


def emit_matrix(A, with_labels=True):
    f = A.field
    if f.q is not None:
        head = "rows %d cols %d field gf %d" % (A.nrows, A.ncols, f.q)
    else:
        head = "rows %d cols %d field rational" % (A.nrows, A.ncols)
    out = [head]
    if with_labels:
        out.append("labels " + " ".join(A.col_labels))
    for r in A.rows:
        out.append(" ".join(f.show(x) for x in r))
    return "\n".join(out) + "\n"


def read_text(path, name=None, line=None):
    """The UTF-8 text of the file at path; a file that cannot be read is a
    ParseError "cannot read NAME: REASON" (name defaults to path), at the
    line that named it when given."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise ParseError("cannot read %s: %s" % (name or path, reason), line)


def parse_matroid(text, base_dir=".", graphs=None):
    """The matroid of a matroid file.  A source file is read relative to
    base_dir.  graphs, when given, maps the real path of each biased-graph
    file parsed so far to its graph: a source found there is not read
    again, and one read here is added, so the matroid is that graph's own
    kept kind matroid."""
    ground = None
    ranks = {}
    source = None
    kind = None
    for i, parts in _lines(text):
        if parts[0] == "ground":
            ground = tuple(parts[1:])
            if len(set(ground)) != len(ground):
                raise ParseError("repeated ground label", i)
        elif parts[0] == "rank":
            if len(parts) != 3:
                raise ParseError("rank takes subset and value", i)
            subset = frozenset(() if parts[1] == "-" else parts[1].split(","))
            ranks[subset] = _int(parts[2], "rank", i), i
        elif parts[0] in ("source", "kind"):
            if len(parts) != 2:
                raise ParseError("%s takes one argument" % parts[0], i)
            if parts[0] == "source":
                source = parts[1], i
            else:
                kind = parts[1]
        else:
            raise ParseError("unknown declaration %r" % parts[0], i)
    if source is not None:
        if kind not in KINDS:
            raise ParseError("kind must be frame, lift or lift0")
        path, i = source
        full = os.path.join(base_dir, path)
        key = os.path.realpath(full)
        graphs = {} if graphs is None else graphs
        if key not in graphs:
            graphs[key] = parse_biased_graph(read_text(full, "source %r" % (path,), i))
        return kind_parts(kind).matroid(graphs[key])
    if ground is None:
        raise ParseError("missing ground line")
    for subset, (_, i) in ranks.items():
        outside = subset.difference(ground)
        if outside:
            raise ParseError("rank label %r not in ground" % min(outside), i)
    full = 1 << len(ground)
    if len(ranks) != full:
        raise ParseError(
            "explicit matroid needs all %d subset ranks, got %d" % (full, len(ranks))
        )
    M = explicit_matroid(ground, {subset: r for subset, (r, _) in ranks.items()})
    violation = M.rank_axiom_violation()
    if violation is not None:
        raise ParseError("not a matroid: " + violation)
    return M


def emit_matroid(M):
    out = ["ground " + " ".join(M.labels)]
    for mask in range(1 << M.size):
        subset = M.subset_of(mask)
        key = ",".join(subset) if subset else "-"
        out.append("rank %s %d" % (key, M.rank_mask(mask)))
    return "\n".join(out) + "\n"


# -- JSON certificates -----------------------------------------------------------

def witness_to_json(w):
    return {
        "kind": "projective-witness",
        "T": emit_matrix(w.T, with_labels=False),
        "S": emit_matrix(w.S, with_labels=False),
    }


def edge_names_json(g, edge_ids):
    return sorted(g.edge_names[e] for e in edge_ids)


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)
