"""Constructors and classifiers for the named biased graphs.

Everything is generated by exhaustive search over bias sets satisfying the
theta property and classified up to biased-graph isomorphism; the expected
counts (seven biased K_4's, six proper 2C_3's, three proper tubes, thirteen
base graphs) are hard assertions, so loading the catalog re-proves the
classification at desk scale.

Fixed labelings (chosen to match the matrix displays used in the tests):
  2C_3:  vertices v1,v2,v3; e1,e2: v1->v2; e3,e4: v2->v3; e5,e6: v3->v1.
  K_4:   vertices v1..v4; e1: v1-v4, e2: v2-v4, e3: v3-v4 (the star),
         e4: v2-v3, e5: v1-v3, e6: v1-v2 (the triangle); e_i matches e_{i+3}.
  2C_4'' (tube): vertices v1..v4; e1,e2: v1->v2; e3: v1->v3; e4: v2->v4;
         e5,e6: v3->v4.
  2C_3 minus e: e1,e2: v1->v2; e3,e4: v1->v3; e5: v2->v3.
"""

import functools
import struct
from dataclasses import dataclass
from itertools import chain, combinations, groupby, permutations, product, repeat
from operator import itemgetter, lshift, or_

from .bias import (
    PROPERLY_UNBALANCED,
    BiasedGraph,
    biased_isomorphic,
    biased_minor,
    classify_balance,
    delta_y,
    is_tangled,
)
from .errors import BadGlue, BmlabError
from .graph import MultiGraph, graph_isomorphisms, kept


@dataclass(frozen=True)
class NamedBiasedGraph:
    name: str
    omega: BiasedGraph
    note: str


# -- underlying graphs ----------------------------------------------------------

def graph_2c3():
    return MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)])


def graph_k4():
    return MultiGraph(4, [(0, 3), (1, 3), (2, 3), (1, 2), (0, 2), (0, 1)])


def graph_tube():
    return MultiGraph(4, [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)])


def graph_u2():
    return MultiGraph(
        2, [(0, 0), (1, 1), (0, 1), (0, 1)], edge_names=("e1", "e2", "e3", "e4")
    )


def graph_u3():
    return MultiGraph(
        2, [(0, 0), (0, 1), (0, 1), (0, 1)], edge_names=("e1", "e2", "e3", "e4")
    )


def graph_prism():
    return MultiGraph(
        6,
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
    )


# -- bias-set enumeration and classification ------------------------------------

def theta_closed_subsets(g):
    """All sets of cycles of g that satisfy the theta property, as cycle-index
    masks (bit i: g.cycles()[i]), sorted by (size, tuple of indices).

    The cycles are decided in index order, one level per cycle: each
    partial mask of the level before is extended by cycle i balanced, then
    by cycle i unbalanced, where the thetas whose last cycle is i allow it
    (not exactly two of a theta's cycles balanced).  So the masks come in
    the order of a depth-first backtrack, balanced first, and those of one
    size in index-tuple order.  What those thetas allow reads only the bits
    rel[i] of their two lower cycles, so each level works it out once per
    projection mask & rel[i]: balanced unless such a theta has exactly one
    lower cycle balanced, unbalanced unless one has both."""
    cycles = g.cycles()
    # lows[i]: the masks of the two lower cycles of each theta whose last
    # cycle is i
    lows = [[] for _ in cycles]
    rel = [0] * len(cycles)
    for a, b, c in g.cycle_masks().thetas:
        lows[c].append(1 << a | 1 << b)
        rel[c] |= 1 << a | 1 << b
    found = [0]
    for i in range(len(cycles)):
        allowed = {}
        for p in {mask & rel[i] for mask in found}:
            counts = {(p & t).bit_count() for t in lows[i]}
            allowed[p] = [bit for bit, bad in ((1 << i, 1), (0, 2)) if bad not in counts]
        found = [mask | bit for mask in found for bit in allowed[mask & rel[i]]]
    found.sort(key=int.bit_count)
    return found


def _count_by_length(om, length):
    return sum(1 for c in om.balanced if len(c) == length)


def _no_balanced_2_cycle(om):
    return _count_by_length(om, 2) == 0


def _classify(g, predicate, name_of, names, note):
    """The bias sets on g up to automorphism that satisfy predicate, named
    by name_of and sorted by name; the names must be exactly `names`, so
    loading a family re-proves its count and its naming."""
    named = sorted((NamedBiasedGraph(name_of(om), om, note)
                    for om in bias_sets_up_to_aut(g, predicate)), key=lambda nb: nb.name)
    found = [nb.name for nb in named]
    if found != names:
        raise AssertionError("expected %s, got %s" % (names, found))
    return tuple(named)


def _named(members, name, what):
    for nb in members:
        if nb.name == name:
            return nb
    raise BmlabError(what % name)


@functools.cache
def classify_k4():
    """The seven biased K_4's D_{t,q} (the Seven Dwarves).  The balanced K4
    is D_{4,3}: all three quads are balanced once all four triangles are
    (the theta property forces it)."""
    return _classify(
        graph_k4(), None,
        lambda om: "D_{%d,%d}" % (_count_by_length(om, 3), _count_by_length(om, 4)),
        ["D_{0,0}", "D_{0,1}", "D_{0,2}", "D_{0,3}", "D_{1,0}", "D_{2,1}", "D_{4,3}"],
        "biased K4")


def dwarf(name):
    return _named(classify_k4(), name, "no dwarf named %s")


def _name_2c3(om):
    t = _count_by_length(om, 3)
    if t != 2:
        return "T_%d" % t
    img = delta_y(om, min(om.balanced, key=sorted))
    return "T_2'" if biased_isomorphic(img, dwarf("D_{1,0}").omega) else "T_2"


@functools.cache
def classify_2c3_proper():
    """The six biased 2C_3's without a balanced 2-cycle (properly
    unbalanced).  T_2 and T_2' both have two balanced triangles; they are
    split by their Delta-images: Delta(T_2') ~ D_{1,0}, Delta(T_2) ~ D_{0,1}."""
    return _classify(graph_2c3(), _no_balanced_2_cycle, _name_2c3,
                     ["T_0", "T_1", "T_2", "T_2'", "T_3", "T_4"], "biased 2C3")


def biased_2c3(name):
    return _named(classify_2c3_proper(), name, "no biased 2C3 named %s")


@functools.cache
def classify_tube_proper():
    """The three biased tubes (2C_4'') without a balanced 2-cycle, named by
    their balanced quadrilateral count."""
    return _classify(graph_tube(), _no_balanced_2_cycle,
                     lambda om: "B_%d" % _count_by_length(om, 4),
                     ["B_0", "B_1", "B_2"], "biased tube")


def tube(name):
    return _named(classify_tube_proper(), name, "no tube named %s")


@functools.cache
def base_graphs():
    """The thirteen link-minor-minimal vertically 2-connected properly
    unbalanced biased graphs: four biased K4's, six biased 2C3's, three
    biased tubes."""
    dwarves = [nb for nb in classify_k4() if _count_by_length(nb.omega, 3) == 0]
    out = tuple(dwarves) + classify_2c3_proper() + classify_tube_proper()
    if len(out) != 13:
        raise AssertionError()
    for nb in out:
        if not properly_unbalanced(nb.omega):
            raise AssertionError(nb.name)
        if not vertically_2_connected(nb.omega.graph):
            raise AssertionError(nb.name)
    return out


@functools.cache
def u2():
    """Two vertices, two parallel links, one joint at each vertex,
    contrabalanced; F(U_2) = U_{2,4}."""
    return NamedBiasedGraph("U_2", BiasedGraph(graph_u2(), []),
                            "contrabalanced, represents U_{2,4}")


@functools.cache
def u3():
    """Two vertices, three parallel links, one joint, contrabalanced;
    F(U_3) = L(U_3) = U_{2,4}."""
    return NamedBiasedGraph("U_3", BiasedGraph(graph_u3(), []),
                            "contrabalanced, represents U_{2,4}")


@functools.cache
def t2_prime_split(i):
    """T'_{2,i} for i in {1,2,3}: T'_{2,3} is the prism whose two triangles
    are the balanced cycles; T'_{2,3-k} contracts k of the three matching
    links."""
    if i not in (1, 2, 3):
        raise BmlabError("i must be 1, 2 or 3")
    om = BiasedGraph(graph_prism(), [frozenset({0, 1, 2}), frozenset({3, 4, 5})])
    if i == 3:
        return NamedBiasedGraph("T_{2,3}'", om, "prism, two balanced triangles")
    mn = biased_minor(om, set([6, 7, 8][: 3 - i]), set())
    return NamedBiasedGraph(
        "T_{2,%d}'" % i, mn.omega, "prism with %d matching links contracted" % (3 - i)
    )


@functools.cache
def contracted_tubes():
    """B_i' = B_i with one single (non-doubled) link contracted; the
    underlying graph is 2C_3 minus an edge."""
    out = []
    for nb in classify_tube_proper():
        single = next(es[0] for es in nb.omega.graph.parallel_classes.values() if len(es) == 1)
        mn = biased_minor(nb.omega, {single}, set())
        out.append(
            NamedBiasedGraph(nb.name + "'", mn.omega, "single-link contraction of " + nb.name)
        )
    return tuple(out)


def fat_theta(parts):
    """Glue biased subgraphs along two hub vertices.

    parts: list of MultiGraphs, each with its hubs at vertices 0 and 1.
    All vertices 0 are identified to one hub, all vertices 1 to the other,
    and the balanced cycles are exactly the cycles lying within a single
    part.
    """
    if len(parts) < 2:
        raise BadGlue("need at least two parts")
    n = 2
    edges = []
    names = []
    part_edge_sets = []
    for k, g in enumerate(parts):
        if g.n < 2:
            raise BadGlue("hub vertices must be two distinct vertices of the part")
        vmap = {0: 0, 1: 1}
        for v in range(2, g.n):
            vmap[v] = n
            n += 1
        ids = []
        for e, (u, v) in enumerate(g.edges):
            ids.append(len(edges))
            edges.append((vmap[u], vmap[v]))
            names.append("p%d_%s" % (k + 1, g.edge_names[e]))
        part_edge_sets.append(frozenset(ids))
    return BiasedGraph.of_cycles(
        MultiGraph(n, edges, names), lambda c: any(c <= p for p in part_edge_sets)
    )


def named_graphs():
    """The catalog's named biased graphs in table order; each family is
    built when the iteration reaches it."""
    yield from classify_k4()
    yield from classify_2c3_proper()
    yield from classify_tube_proper()
    yield from contracted_tubes()
    yield u2()
    yield u3()
    for i in (1, 2, 3):
        yield t2_prime_split(i)


def by_name(name):
    return _named(named_graphs(), name, "unknown catalog name %r")


# -- exhaustive small families (for the verify harness) --------------------------

@functools.lru_cache(maxsize=1)
def _latest_multigraphs():
    """The latest build of multigraphs_up_to_iso: a dict holding at most
    one entry, from the bounds built to the graphs."""
    return {}


def multigraphs_up_to_iso(max_vertices, max_edges):
    """Connected loopless multigraphs of minimum degree 2, up to
    isomorphism, as MultiGraphs labelled by their class's key (see
    `_build_multigraphs`), in a fresh list.

    Bounds that the latest build covers are served from it, keeping the
    graphs with at most max_vertices vertices and max_edges edges: a
    class's label and its place in the order do not depend on the bounds.
    Other bounds are built, and their build replaces the latest one once
    it is complete."""
    latest = _latest_multigraphs()
    for (nv, ne), graphs in latest.items():
        if max_vertices <= nv and max_edges <= ne:
            return [g for g in graphs if g.n <= max_vertices and g.m <= max_edges]
    graphs = _build_multigraphs(max_vertices, max_edges)
    latest.clear()
    latest[max_vertices, max_edges] = graphs
    return list(graphs)


def _build_multigraphs(max_vertices, max_edges):
    """The graphs of multigraphs_up_to_iso(max_vertices, max_edges), as a
    tuple.

    Every such graph has a labelling whose vertex degrees are
    non-increasing, so the search recurses over multiplicity vectors on the
    pairs (u, v), u < v, in `combinations` order and keeps only those.  A
    branch is cut as soon as it is doomed: when a vertex's partial degree
    exceeds the final degree of the last vertex before it whose pairs are
    all set (degrees only grow), when a vertex's last pair leaves it
    with degree below 2, or when the degree still missing, the sum of
    max(0, 2 - deg) over the vertices, exceeds twice the edges left (an
    edge supplies two degrees at most).  Each class is keyed once, at its
    first such vector: its images under the orders within each degree
    class are exactly the class's degree-sorted vectors, so they are all
    marked seen then, and the least sorted ((u, v), m) tuple among them
    depends only on the class.  That tuple is the class's key and gives
    the graph its labels.  The classes come by vertex count, then by their
    lexicographically least multiplicity vector over all vertex
    relabelings (the vector met first by a scan of all vectors in
    lexicographic order)."""
    out = []
    for nv in range(2, max_vertices + 1):
        pairs = list(combinations(range(nv), 2))
        index = {p: i for i, p in enumerate(pairs)}
        # relabel[p](vector): the vector with vertex a renamed p.index(a);
        # at nv = 2 it returns the one multiplicity, not a 1-tuple, so the
        # leaf's own vector is read by the identity's getter too
        relabel = {
            p: itemgetter(*(index[(p[a], p[b]) if p[a] < p[b] else (p[b], p[a])]
                            for a, b in pairs))
            for p in permutations(range(nv))
        }
        own = relabel[tuple(range(nv))]
        stabilizers = {}  # degree vector -> the relabelings within its classes
        last = len(pairs) - 1
        mult = [0] * len(pairs)
        deg = [0] * nv
        seen = set()  # every degree-sorted vector of the classes keyed so far
        found = []  # (least vector over all relabelings, graph)

        def within_classes():
            d = tuple(deg)
            if d not in stabilizers:
                blocks = [permutations(c) for _, c in groupby(range(nv), key=deg.__getitem__)]
                stabilizers[d] = [relabel[tuple(chain.from_iterable(orders))]
                                  for orders in product(*blocks)]
            return stabilizers[d]

        def rec(idx, left, short):
            # short: the degree still missing, the sum of max(0, 2 - deg)
            if short > 2 * left:
                return
            if idx > last:
                if own(mult) in seen:
                    return
                images = [get(mult) for get in within_classes()]
                seen.update(images)
                if nv == 2:  # the getters return the one multiplicity
                    images = [(m,) for m in images]
                key = min(tuple((p, m) for p, m in zip(pairs, image) if m) for image in images)
                edges = []
                for (u, v), m in key:
                    edges.extend([(u, v)] * m)
                g = MultiGraph(nv, edges)
                if g.is_connected():
                    found.append((min([get(mult) for get in relabel.values()]), g))
                return
            u, v = pairs[idx]
            # the pair (u, nv - 1) is u's last, so every vertex before u is
            # final here, and u too once this pair is set
            u_final = v == nv - 1
            cap_v = u if u_final else u - 1
            du, dv = deg[u], deg[v]
            su = 2 - du if du < 2 else 0
            sv = 2 - dv if dv < 2 else 0
            for m in range(left + 1):
                deg[u], deg[v] = du + m, dv + m
                if u and deg[u] > deg[u - 1]:
                    break
                if cap_v >= 0 and deg[v] > deg[cap_v]:
                    break
                if u_final and deg[u] < 2:
                    continue
                if idx == last and deg[v] < 2:
                    continue
                mult[idx] = m
                rec(idx + 1, left - m, short - (m if m < su else su) - (m if m < sv else sv))
            mult[idx] = 0
            deg[u], deg[v] = du, dv

        rec(0, max_edges, 2 * nv)
        found.sort(key=lambda item: item[0])
        out.extend(g for _, g in found)
    return tuple(out)


def automorphism_generators(g):
    """Edge maps (tuples, edge -> image) that generate the automorphism group
    of g acting on its edges: one edge bijection per vertex automorphism, and
    a transposition of neighbouring edges in each class of parallel edges
    (loops at one vertex form a class).  Every automorphism is one of those
    bijections composed with a permutation inside the parallel classes.  The
    identity is left out."""
    identity = tuple(range(g.m))
    classes = g.parallel_classes
    gens = []
    for perm in graph_isomorphisms(g, g):
        # the i-th edge of class (u, v) goes to the i-th edge of the class
        # of (perm[u], perm[v]): the first edge bijection over perm
        emap = list(identity)
        for (u, v), es in classes.items():
            a, b = perm[u], perm[v]
            for e, f in zip(es, classes[(a, b) if a <= b else (b, a)]):
                emap[e] = f
        gens.append(tuple(emap))
    for es in classes.values():
        for a, b in zip(es, es[1:]):
            t = list(identity)
            t[a], t[b] = b, a
            gens.append(tuple(t))
    return [t for t in gens if t != identity]


def bias_sets_up_to_aut(g, predicate=None):
    """Theta-closed bias sets on g that satisfy predicate, one per orbit of
    the automorphism group: the _orbit_masks of g, in order, each built as
    a fresh BiasedGraph."""
    cycles = g.cycles()
    reps = []
    for bal in _orbit_masks(g):
        om = BiasedGraph(g, [c.edges for i, c in enumerate(cycles) if bal >> i & 1], check=False)
        if predicate is None or predicate(om):
            reps.append(om)
    return reps


def _byte_columns(masks, bits):
    """Byte b of every mask of at most `bits` bits, for each byte b that
    such masks have (at least one): one bytes object per b, the masks in
    order."""
    width = (bits + 7) // 8 or 1
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    return [data[b::width] for b in range(width)]


# _SET_BIT[k] sends each byte x to x | 1 << k, as a bytes.translate table
_SET_BIT = [bytes(x | 1 << k for x in range(256)) for k in range(8)]


def _images(perm, columns):
    """The images of the masks that `_byte_columns` split into columns
    under the bit permutation perm (bit i to bit perm[i]), in order.

    Byte d of every image is the OR over the source bytes b of one
    `bytes.translate` of column b, through the table of what each byte
    value at b puts in byte d.  The image bytes are laid out in 64-bit
    little-endian words, one or more per mask, and unpacked at once."""
    width, n = len(columns), len(columns[0])
    words = -(-width // 8)
    out = bytearray(8 * words * n)
    for d in range(width):
        acc = 0
        for b, column in enumerate(columns):
            # table[x]: byte d of the image of x at byte b, one source bit
            # at a time (x with the bit is x without it plus its image)
            table = b"\0"
            for i in perm[8 * b:8 * b + 8]:
                k = i - 8 * d
                table += table.translate(_SET_BIT[k]) if 0 <= k < 8 else table
            acc |= int.from_bytes(column.translate(table.ljust(256, b"\0")), "little")
        out[d::8 * words] = acc.to_bytes(n, "little")
    values = struct.unpack("<%dQ" % (words * n), out)
    images = values[::words]
    for w in range(1, words):
        images = map(or_, images, map(lshift, values[w::words], repeat(64 * w)))
    return images


def _cycle_permutations(g):
    """The permutation of the cycle indices of g that each generator of
    `automorphism_generators(g)` induces, as a list (i -> image): each
    cycle's edge mask sent through the generator's byte tables."""
    masks = g.cycle_masks()
    columns = _byte_columns(masks.edge_masks, g.m)
    return [list(map(masks.by_edges.__getitem__, _images(t, columns)))
            for t in automorphism_generators(g)]


@kept
def _orbit_masks(g):
    """The first mask (in `theta_closed_subsets` order) of each orbit of
    theta-closed bias sets under the automorphism group of g, kept on g.

    Each generator maps every mask at once: the masks' bytes are split out
    once, `_images` reads them through the generator's byte tables, and
    each image becomes its position in the list.  Each orbit is then the
    closure of its first mask under these position maps (Seress,
    *Permutation Group Algorithms*, 2003, §2.1.1)."""
    found = theta_closed_subsets(g)
    columns = _byte_columns(found, len(g.cycles()))
    position = {mask: p for p, mask in enumerate(found)}
    images = [list(map(position.__getitem__, _images(perm, columns)))
              for perm in _cycle_permutations(g)]
    seen = bytearray(len(found))
    reps = []
    for p, mask in enumerate(found):
        if seen[p]:
            continue
        seen[p] = 1
        reps.append(mask)
        todo = [p]
        while todo:
            cur = todo.pop()
            for t in images:
                q = t[cur]
                if not seen[q]:
                    seen[q] = 1
                    todo.append(q)
    return tuple(reps)


def biased_family(max_vertices, max_edges, graph_ok=None, predicate=None):
    """The bias sets of `bias_sets_up_to_aut(g, predicate)` for each graph g
    of `multigraphs_up_to_iso(max_vertices, max_edges)` that passes
    graph_ok, graph by graph in that order.  graph_ok is tested before any
    bias set on g is built."""
    for g in multigraphs_up_to_iso(max_vertices, max_edges):
        if graph_ok is None or graph_ok(g):
            yield from bias_sets_up_to_aut(g, predicate)


def can_be_tangled(g):
    """Three vertices or more, and no vertex on every cycle (a balancing
    vertex whatever the bias): a graph failing this carries no tangled
    bias."""
    if g.n < 3:
        return False
    masks = g.cycle_masks()
    return masks.every not in masks.through


def vertically_2_connected(g):
    return g.is_vertically_k_connected(2)[0]


def properly_unbalanced(om):
    return classify_balance(om).tag == PROPERLY_UNBALANCED


def tangled(om):
    return is_tangled(om)[0]


@functools.lru_cache(maxsize=1)
def _tangled_family(max_vertices, max_edges):
    return list(biased_family(max_vertices, max_edges, can_be_tangled, tangled))


def tangled_family(max_vertices=5, max_edges=8):
    """All tangled biased graphs on connected loopless min-degree-2
    multigraphs with the given bounds, one per isomorphism class.  The
    cache is keyed by the bound values, however they are passed, and keeps
    only the most recently built bounds.

    Tangled biased graphs are loopless (a joint would force a balancing
    vertex), and pendant edges, balanced loops and balanced components
    affect neither tangledness nor the target minors, so the normalized
    family is exhaustive for the structure theorems."""
    return _tangled_family(max_vertices, max_edges)
