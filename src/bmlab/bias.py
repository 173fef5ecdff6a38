"""Biased graphs: theta-property validation, balance classification,
tangledness, minors (including joint contraction), Delta-Y exchanges,
roll-ups, and link-minor / subdivision search.

A biased graph is a multigraph together with the set of its balanced
cycles, stored extensionally as frozensets of edge ids.  No theta subgraph
may contain exactly two balanced cycles; the constructor enforces this.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations

from .errors import (
    BoundExceeded,
    NotACycle,
    NotBalancedTriangle,
    NotBalancingVertex,
    NotTriad,
    StructureMissing,
    ThetaViolation,
)
from .graph import (
    MultiGraph,
    check_subdivision_args,
    edge_bijections,
    find,
    graph_isomorphisms,
    iter_subdivisions,
    kept,
)

LINK_MINOR_BOUND = (10, 20)  # host vertices, host edges

BALANCED = "balanced"
ALMOST_BALANCED = "almost-balanced"
PROPERLY_UNBALANCED = "properly-unbalanced"


def _is_theta(g, union):
    """Whether the union of two distinct cycles that share an edge is a
    theta.  Such a union is connected and has no bridge, so it is a theta
    iff it is loopless with exactly two degree-3 vertices and every other
    vertex of degree 2."""
    deg = {}
    for e in union:
        u, v = g.endpoints(e)
        if u == v:
            return False
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    degs = list(deg.values())
    return degs.count(3) == 2 and all(d in (2, 3) for d in degs)


def theta_subgraphs(g):
    """All theta subgraphs as (edge set, tuple of its three cycles).

    A theta is the union of two distinct cycles a and b that share an edge
    and whose union passes the degree test of _is_theta; its three cycles
    are a, b and a ^ b.  Thetas are listed by the indices of their two
    lowest cycles in g.cycles(), and each theta's cycles are in that order:
    the first pair of a theta's cycles met is its two lowest, so a ^ b is
    its highest.
    """
    masks = [c.edges for c in g.cycles()]
    cycle_set = set(masks)
    seen = set()
    out = []
    for i, j in combinations(range(len(masks)), 2):
        union = masks[i] | masks[j]
        if union in seen:
            continue
        if len(union) == len(masks[i]) + len(masks[j]):
            continue  # edge-disjoint cycles never form a theta
        third = masks[i] ^ masks[j]
        if third not in cycle_set or not _is_theta(g, union):
            continue
        seen.add(union)
        out.append((union, (masks[i], masks[j], third)))
    return out


def check_theta_property(g, balanced):
    """Return None if ok, else (theta edge set, its three cycles).

    The three cycles of a theta are a, b and a ^ b, so a theta with exactly
    two balanced cycles is a pair of balanced cycles whose symmetric
    difference is an unbalanced cycle and whose union is a theta; only
    such pairs are examined.  Of several violating thetas the one returned
    is the first that theta_subgraphs lists: the one whose two lowest
    cycle indices in g.cycles() are lexicographically least, with its
    cycles in that order.
    """
    balanced = frozenset(frozenset(c) for c in balanced)
    index = g.cycle_masks().index
    for c in balanced:
        if c not in index:
            raise NotACycle("balanced set member %s is not a cycle" % (sorted(c),))
    best = None
    for a, b in combinations(balanced, 2):
        c = a ^ b
        if c not in index or c in balanced:
            continue
        inside = sorted((a, b, c), key=index.__getitem__)
        key = (index[inside[0]], index[inside[1]])
        if best is not None and key >= best[0]:
            continue
        union = a | b
        if _is_theta(g, union):
            best = key, union, tuple(inside)
    return None if best is None else best[1:]


class BiasedGraph:
    """A multigraph with a distinguished theta-closed set of balanced cycles."""

    def __init__(self, graph, balanced, check=True):
        self.graph = graph
        self.balanced = frozenset(frozenset(c) for c in balanced)
        if check:
            violation = check_theta_property(graph, self.balanced)
            if violation is not None:
                raise ThetaViolation(
                    "theta subgraph with exactly two balanced cycles",
                    theta=violation[0],
                    cycles=violation[1],
                )
        self._kept = {}  # values built on first use, see graph.kept

    @classmethod
    def of_cycles(cls, graph, balanced):
        """The biased graph on graph whose balanced cycles are the cycles c
        of graph.cycles() with balanced(c.edges): the one rebias rule of
        every edit (Delta-Y, Y-Delta, unrolling, fat thetas) but the roll
        step, which reads its bias off omega's (bias._roll)."""
        return cls(graph, [c.edges for c in graph.cycles() if balanced(c.edges)])

    # -- basics ------------------------------------------------------------
    def cycles(self):
        return self.graph.cycles()

    def unbalanced_cycles(self):
        return [c for c in self.cycles() if c.edges not in self.balanced]

    def joints(self):
        return tuple(
            e
            for e in range(self.graph.m)
            if self.graph.is_loop(e) and frozenset((e,)) not in self.balanced
        )

    def __eq__(self, other):
        return (
            isinstance(other, BiasedGraph)
            and self.graph == other.graph
            and self.balanced == other.balanced
        )

    def __hash__(self):
        return hash((self.graph, self.balanced))

    def __repr__(self):
        return "BiasedGraph(n=%d, m=%d, balanced=%d)" % (
            self.graph.n,
            self.graph.m,
            len(self.balanced),
        )

    def is_vertically_k_connected(self, k):
        return self.graph.is_vertically_k_connected(k)


@dataclass(frozen=True)
class BalanceClass:
    tag: str
    balancing_vertices: tuple


def _unbalanced_mask(omega):
    """The CycleMasks of omega's graph and the mask of its unbalanced cycles."""
    masks = omega.graph.cycle_masks()
    return masks, masks.every & ~sum(1 << masks.index[c] for c in omega.balanced)


def balancing_vertices(omega):
    """Vertices contained in every unbalanced cycle (loops included)."""
    masks, unb = _unbalanced_mask(omega)
    return tuple(v for v, t in enumerate(masks.through) if t & unb == unb)


@kept
def classify_balance(omega):
    """Balanced / almost-balanced / properly-unbalanced classification.

    Almost balanced means a balancing vertex exists after deleting loops;
    the reported balancing vertices are those of the loop-deleted graph.
    Deleting loops moves no vertex and keeps the bias of every other
    cycle, so these are the vertices on every unbalanced cycle that is not
    a loop.
    """
    masks, unb = _unbalanced_mask(omega)
    if not unb:
        return BalanceClass(BALANCED, tuple(range(omega.graph.n)))
    unb &= masks.links
    bv = tuple(v for v, t in enumerate(masks.through) if t & unb == unb)
    if bv:
        return BalanceClass(ALMOST_BALANCED, bv)
    return BalanceClass(PROPERLY_UNBALANCED, ())


def is_tangled(omega):
    """Tangled: properly unbalanced with no two vertex-disjoint unbalanced
    cycles.  Returns (flag, witness) where the witness is a disjoint
    unbalanced pair when one exists: the first in combinations order."""
    masks, unb = _unbalanced_mask(omega)
    witness = None
    for d in masks.disjoint_pairs():
        if unb & d == d:
            cycles = omega.graph.cycles()
            witness = (cycles[(d & -d).bit_length() - 1].edges, cycles[d.bit_length() - 1].edges)
            break
    if classify_balance(omega).tag != PROPERLY_UNBALANCED:
        return False, witness
    return witness is None, witness


# -- minors ------------------------------------------------------------------

@dataclass(frozen=True)
class BiasedMinor:
    omega: "BiasedGraph"
    vertex_map: dict
    edge_map: dict  # old edge id -> new edge id, surviving edges only
    is_link_minor: bool


def _images(omega, K, emap, graph):
    """The balanced cycles of a minor whose link step contracted the forest
    K: the images by emap of B - K for the balanced B of omega that avoid
    the deletion set (B - K lies in emap's keys) and whose image meets
    every vertex of graph in degree 0 or 2, a loop counting twice (a
    closed connected walk with those degrees is a cycle)."""
    for c in omega.balanced:
        rest = c - K
        if emap.keys() >= rest:
            image = frozenset(emap[x] for x in rest)
            degree = Counter(v for x in image for v in graph.edges[x])
            if all(d == 2 for d in degree.values()):
                yield image


def biased_minor(omega, contract, delete, check=True):
    """Biased minor: deletions first, then contractions.

    MultiGraph.contract_links contracts the contraction set's links as the
    forest K = spanning_forest(contract), picked greedily in id order.  A
    cycle of G/K is balanced exactly when it is the image B - K of a
    balanced cycle B (_images).  MultiGraph.contract_loops then deletes
    the set's balanced loops and contracts the others as joints: a
    surviving balanced cycle stays balanced when no joint met it, and the
    loops a joint balanced join it.  When the contraction set is a forest
    (a link minor) no loop is left and the link step's graph, images and
    edge map are the result.  Tracks whether the result is a link minor
    (no joint was contracted).
    """
    g = omega.graph
    K, (gg, vmap, emap), loops = g.contract_links(contract, delete)
    balanced = set(_images(omega, K, emap, gg))
    joints = ()
    if loops:
        gg, lmap, joints, rewritten = gg.contract_loops(
            loops, {e for e in loops if frozenset((e,)) in balanced})
        kept = {x: y for x, y in lmap.items() if y not in rewritten}
        balanced = {frozenset(kept[x] for x in c) for c in balanced if all(x in kept for x in c)}
        balanced.update(frozenset((y,)) for y, loop in rewritten.items() if loop)
        emap = {x: lmap[y] for x, y in emap.items() if y in lmap}
    if check:
        violation = check_theta_property(gg, balanced)
        if violation is not None:
            raise ThetaViolation("minor violates theta property", *violation)
    return BiasedMinor(BiasedGraph(gg, balanced, check=False), vmap, emap, not joints)


@kept
def _cycle_lengths(omega):
    """The lengths of omega's balanced cycles and of its unbalanced ones,
    each list longest first."""
    lengths = ([], [])
    for c in omega.graph.cycles():
        lengths[c.edges not in omega.balanced].append(len(c.edges))
    return [sorted(ls, reverse=True) for ls in lengths]


def _holds_cycles(omega, pattern):
    """Whether omega has at least as many edges as pattern, and its
    balanced cycle lengths, longest first, dominate the pattern's entry by
    entry (as many cycles, the i-th longest at least as long), and so do
    its unbalanced ones.  A host that holds a subdivision of pattern, or
    has it as a link minor, does: both map the pattern's edges and cycles
    one to one into the host, each cycle onto a cycle of the same bias
    and at least its length, so the host's i-th longest cycle of a bias is
    at least as long as the pattern's.  A subdivision maps a cycle to the
    union of its edges' paths.  A cycle C of a link minor G/K\\D lifts to
    the one cycle B of G\\D with B - K = C, and C is balanced exactly when
    B is (_images).  The edge test comes first, so a pattern too large for
    cycle enumeration is rejected, not enumerated."""
    if pattern.graph.m > omega.graph.m:
        return False
    return all(len(h) >= len(p) and all(a >= b for a, b in zip(h, p))
               for h, p in zip(_cycle_lengths(omega), _cycle_lengths(pattern)))


@dataclass(frozen=True)
class MinorRecipe:
    contract: frozenset
    delete: frozenset
    iso: tuple  # (vertex permutation, edge map) minor -> pattern


def link_minors(omega, pattern):
    """Every link minor of omega isomorphic to `pattern`, a biased graph
    without isolated vertices, as MinorRecipe(K, D, iso), iso being the
    first biased isomorphism from G/K\\D with isolated vertices dropped
    onto the pattern.  The graph stage, MultiGraph.link_minor_pairs,
    memoised on the host graph, gives the pairs whose graph minor is
    isomorphic to the pattern's graph, with that minor, its vertex
    isomorphisms and the host-to-minor edge map.  The bias stage builds no
    minor: the minor's balanced cycles are the _images of omega's, as in
    biased_minor.  A pair whose sorted image lengths differ from the
    pattern's balanced-cycle lengths has no biased isomorphism; otherwise
    iso is the first vertex isomorphism and edge bijection, in order, that
    carries the images onto the pattern's balanced set.  So the recipes are those of building
    every pair's biased minor and searching its biased isomorphisms.  A
    host larger than LINK_MINOR_BOUND raises BoundExceeded at the first
    step; after the argument checks, a host with fewer edges than the
    pattern, or whose cycles of either bias fall short of the pattern's in
    number or length, yields nothing (_holds_cycles)."""
    g = omega.graph
    if g.n > LINK_MINOR_BOUND[0] or g.m > LINK_MINOR_BOUND[1]:
        raise BoundExceeded("link-minor search bound exceeded")
    h = pattern.graph
    if len(h.vertices_of(range(h.m))) != h.n:
        raise ValueError("link-minor pattern has an isolated vertex")
    if not _holds_cycles(omega, pattern):
        return
    lengths = sorted(map(len, pattern.balanced))
    for K, D, minor, isos, emap in g.link_minor_pairs(h):
        images = list(_images(omega, K, emap, minor))
        if sorted(map(len, images)) != lengths:
            continue
        for iso in ((perm, em) for perm in isos for em in edge_bijections(minor, h, perm)
                    if {frozenset(em[e] for e in c) for c in images} == pattern.balanced):
            yield MinorRecipe(K, D, iso)
            break


# -- Delta-Y and Y-Delta -------------------------------------------------------

def _triangle_vertices(g, X):
    verts = g.vertices_of(X)
    if len(X) != 3 or len(verts) != 3:
        return None
    deg = {v: 0 for v in verts}
    for e in X:
        u, v = g.endpoints(e)
        if u == v:
            return None
        deg[u] += 1
        deg[v] += 1
    if any(d != 2 for d in deg.values()):
        return None
    return verts


def delta_y(omega, X):
    """Delta-Y exchange on a balanced triangle X (set of 3 edge ids).

    The triangle edges are replaced by a star at a new vertex; the edge on
    {p,q} becomes the star edge at the third triangle vertex (the 2-edge
    matching identification).  Balanced cycles transfer by the rule
    {C : |C cap X| in {0,2}} union {C delta X : |C cap X| = 1}.
    """
    g = omega.graph
    X = frozenset(X)
    verts = _triangle_vertices(g, X)
    if verts is None or X not in omega.balanced:
        raise NotBalancedTriangle("X must be a balanced triangle")
    w = g.n
    new_edges = list(g.edges)
    for e in X:
        u, v = g.endpoints(e)
        (other,) = verts - {u, v}
        new_edges[e] = (other, w)
    g2 = MultiGraph(
        g.n + 1, new_edges, g.edge_names, g.vertex_names + ("w%d" % (g.n + 1),)
    )
    # a new cycle meets the star in 0 or 2 edges: it is an old cycle, or
    # (with 2) the image C delta X of one that met the triangle in 1 edge
    return BiasedGraph.of_cycles(g2, lambda c: c in omega.balanced or c ^ X in omega.balanced)


def y_delta(omega, center):
    """Y-Delta exchange at a degree-3 vertex (center of a K_{1,3}).

    The star edges are replaced by the opposite triangle edges and the
    centre vertex deleted.  The new triangle Y is balanced; any other
    cycle C is balanced iff C is balanced in omega, or iff C delta Y is
    when |C cap Y| = 1 (the same edge ids, through the centre).
    """
    g = omega.graph
    if not 0 <= center < g.n:
        raise NotTriad("no vertex %r" % (center,))
    Y = tuple(g.incident_edges(center))
    if len(Y) != 3 or g.degree(center) != 3:
        raise NotTriad("vertex must be the centre of a K_{1,3} with degree 3")
    leaves = [g.other_end(e, center) for e in Y]
    if len(set(leaves)) != 3:
        raise NotTriad("star leaves must be distinct")
    Yset = frozenset(Y)
    new_edges = list(g.edges)
    for e, leaf in zip(Y, leaves):
        new_edges[e] = sorted(set(leaves) - {leaf})
    # delete the centre vertex (now isolated)
    keep = [v for v in range(g.n) if v != center]
    vmap = {v: i for i, v in enumerate(keep)}
    g2 = MultiGraph(
        g.n - 1,
        [(vmap[u], vmap[v]) for (u, v) in new_edges],
        g.edge_names,
        tuple(g.vertex_names[v] for v in keep),
    )
    return BiasedGraph.of_cycles(
        g2,
        lambda c: c == Yset or (c ^ Yset if len(c & Yset) == 1 else c) in omega.balanced,
    ), vmap


# -- unbalancing classes and rolling ------------------------------------------

@dataclass(frozen=True)
class UnbalancingPartition:
    at_vertex: int
    classes: tuple  # frozensets partitioning delta(u) plus the off-u joints
    joints_at_vertex: frozenset


@kept
def unbalancing_classes(omega, u):
    """Partition of delta(u) and the off-u joints at a balancing vertex.

    Two links at u are equivalent when a balanced cycle contains both; all
    off-u joints form one class (any two of them make a loose-handcuff
    circuit with a connecting path); off-u joints are never equivalent to a
    link at u (the corresponding sets are independent).  Kept on omega per
    u, so a roll-up that picks a class and then checks it partitions once.
    """
    g = omega.graph
    if u not in classify_balance(omega).balancing_vertices:
        raise NotBalancingVertex("vertex %d is not balancing after loop deletion" % u)
    delta_u = list(g.links_at(u))
    parent = {e: e for e in delta_u}
    for c in omega.balanced:
        pair = sorted(c & set(delta_u))
        if len(pair) == 2:
            ra, rb = find(parent, pair[0]), find(parent, pair[1])
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for e in delta_u:
        groups.setdefault(find(parent, e), []).append(e)
    classes = [frozenset(v) for _, v in sorted(groups.items())]
    joints = omega.joints()
    j_prime = frozenset(e for e in joints if u not in g.endpoints(e))
    j_at_u = frozenset(e for e in joints if u in g.endpoints(e))
    if j_prime:
        classes.append(j_prime)
    classes.sort(key=lambda c: min(c))
    return UnbalancingPartition(u, tuple(classes), j_at_u)


def _roll(omega, far):
    """The roll step of roll_up, double_roll_up and the canonicalization
    of roll-up variants: each edge e of far becomes a joint at vertex
    far[e]; a cycle is balanced iff it was balanced in omega and avoids
    the rolled edges.  A rolled edge is a loop, on no cycle but its own,
    which was no cycle of omega, and every other cycle is one of omega's,
    so the balanced cycles are read off omega's without listing cycles.
    The result is omega with the rolled edges deleted, which keeps the
    theta property, plus unbalanced loops, which lie on no theta, so it
    needs no check."""
    edges = list(omega.graph.edges)
    for e, w in far.items():
        edges[e] = (w, w)
    return BiasedGraph(omega.graph.with_edges(edges),
                       [c for c in omega.balanced if far.keys().isdisjoint(c)], check=False)


def roll_up(omega, u, cls):
    """Replace one unbalancing class of links at u by joints at their other
    endpoints.  The frame matroid is preserved (tested invariant)."""
    cls = frozenset(cls)
    part = unbalancing_classes(omega, u)
    if cls not in part.classes or any(omega.graph.is_loop(e) for e in cls):
        raise StructureMissing("not a link unbalancing class at the vertex")
    return _roll(omega, {e: omega.graph.other_end(e, u) for e in cls})


def unroll(omega, u):
    """Replace every off-u joint by a link to u; rebias so that a loop
    keeps its bias and any other cycle is balanced exactly when it meets
    every unbalancing class in 0 or 2 edges."""
    part = unbalancing_classes(omega, u)
    g = omega.graph
    new_edges = list(g.edges)
    for e in omega.joints():  # a joint at u stays where it is
        new_edges[e] = (u, g.endpoints(e)[0])
    return BiasedGraph.of_cycles(
        g.with_edges(new_edges),
        lambda c: c in omega.balanced if len(c) == 1
        else all(len(c & s) in (0, 2) for s in part.classes),
    )


def biased_equal_unoriented(om1, om2):
    """Equality as labeled biased graphs ignoring declared edge orientations."""
    g1, g2 = om1.graph, om2.graph
    if g1.n != g2.n or g1.edge_names != g2.edge_names:
        return False
    for e in range(g1.m):
        if set(g1.edges[e]) != set(g2.edges[e]):
            return False
    return om1.balanced == om2.balanced


def fat_theta_parts(omega):
    """Decompose a fat theta: returns (x, y, parts) where parts are edge
    sets, or None if the graph is not of that shape.

    A fat theta is vertically 2-connected, unbalanced, with two balancing
    vertices x < y.  Atomic pieces are the x-y links and the components of
    G - {x,y} (each with its edges into {x,y}); pieces joined by a balanced
    cycle must lie in a common part, so parts are the unions of pieces
    under that relation, and two parts share no vertex but x and y.  The
    decomposition is valid when every balanced cycle lies within a single
    part and every cross-part cycle is unbalanced.
    """
    bv = balancing_vertices(omega)
    if len(bv) < 2 or not omega.unbalanced_cycles():
        return None
    x, y = bv[0], bv[1]
    g = omega.graph
    if any(g.is_loop(e) for e in range(g.m)):
        return None
    comps = g.components((x, y))
    comp_of = {v: c for c, vs in enumerate(comps) for v in vs}
    npieces = len(comps)
    piece_of = {}
    for e in range(g.m):
        u, v = g.endpoints(e)
        if {u, v} == {x, y}:
            piece_of[e] = npieces
            npieces += 1
        else:
            w = u if u not in (x, y) else v
            piece_of[e] = comp_of[w]
    parent = list(range(npieces))
    for c in omega.balanced:
        pieces = {piece_of[e] for e in c}
        first = None
        for p in pieces:
            if first is None:
                first = find(parent, p)
            else:
                parent[find(parent, p)] = first
    groups = {}
    for e in range(g.m):
        groups.setdefault(find(parent, piece_of[e]), set()).add(e)
    parts = sorted((frozenset(es) for es in groups.values()), key=min)
    if len(parts) < 2:
        return None
    for c in omega.cycles():
        inside = any(c.edges <= p for p in parts)
        if inside != (c.edges in omega.balanced):
            return None
    return x, y, tuple(parts)


def double_roll_up(omega, i, j):
    """Double roll-up of a fat theta: roll part i off the first balancing
    vertex and part j off the second."""
    shape = fat_theta_parts(omega)
    if shape is None:
        raise StructureMissing("graph is not a fat theta")
    x, y, parts = shape
    if len(parts) < 3:
        raise StructureMissing("double roll-up needs at least three parts")
    if i == j or not (0 <= i < len(parts)) or not (0 <= j < len(parts)):
        raise ValueError("need two distinct part indices")
    g = omega.graph
    far = {e: g.other_end(e, x) for e in parts[i] if x in g.endpoints(e)}
    far.update((e, g.other_end(e, y)) for e in parts[j] if y in g.endpoints(e))
    return _roll(omega, far)


# -- isomorphism and link-minor search ----------------------------------------

def biased_isomorphisms(om1, om2):
    """Generate (vertex_map, edge_map) isomorphisms between biased graphs."""
    g, h = om1.graph, om2.graph
    if len(om1.balanced) != len(om2.balanced):
        return
    if sorted(len(c) for c in om1.balanced) != sorted(len(c) for c in om2.balanced):
        return
    for perm in graph_isomorphisms(g, h):
        for emap in edge_bijections(g, h, perm):
            if {frozenset(emap[e] for e in c) for c in om1.balanced} == om2.balanced:
                yield perm, emap


def biased_isomorphic(om1, om2):
    for _ in biased_isomorphisms(om1, om2):
        return True
    return False


def find_link_minor(omega, pattern):
    """The first recipe of link_minors, or None."""
    return next(link_minors(omega, pattern), None)


@kept
def _closing(pattern):
    """Pattern edge -> the cycles it completes (whose greatest edge it is),
    each with its bias."""
    closing = {}
    for c in pattern.graph.cycles():
        closing.setdefault(max(c.edges), []).append((c.edges, c.edges in pattern.balanced))
    return closing


@kept
def biased_automorphisms(omega):
    """The vertex parts of omega's biased automorphisms."""
    return tuple({perm for perm, _ in biased_isomorphisms(omega, omega)})


def find_biased_subdivision(omega, pattern):
    """Find a subgraph of `omega` that is a subdivision of the biased graph
    `pattern` (bias transported along the subdivision).  Returns the first
    such Embedding of `iter_subdivisions` or None.

    Each pattern cycle is checked as soon as the host path of its last edge
    is placed, so no partial embedding that already carries a cycle to the
    wrong bias is extended.  One vertex map is tried per orbit of the
    pattern's biased automorphisms (biased_automorphisms):
    composing an embedding with a biased automorphism gives an embedding,
    so the maps that admit one are a union of orbits, and as maps are
    tried in lexicographic order the first that admits one is the least
    of its orbit.  The answer is the unpruned search's first embedding.
    After the search's argument checks, a host with fewer edges than the
    pattern, or whose cycles of either bias fall short of the pattern's in
    number or length, gives None (_holds_cycles)."""
    check_subdivision_args(omega.graph, pattern.graph)
    if not _holds_cycles(omega, pattern):
        return None
    closing = _closing(pattern)

    def accept(e, edge_paths):
        for edges, balanced in closing.get(e, ()):
            host_cycle = frozenset(chain.from_iterable(edge_paths[x] for x in edges))
            if (host_cycle in omega.balanced) != balanced:
                return False
        return True

    for emb in iter_subdivisions(omega.graph, pattern.graph, accept,
                                 biased_automorphisms(pattern)):
        return emb
    return None
