"""Labeled multigraphs with oriented edges, cycles, connectivity and minors.

Vertices are dense integers 0..n-1 (with optional display labels, default
"v1".."vn").  Edges are dense integers 0..m-1 with a declared orientation
(the (tail, head) pair given at construction) and a name (default
"e1".."em").  Loops and parallel edges are allowed everywhere.

All values are immutable after construction; operations are pure functions
returning new graphs.
"""

from dataclasses import dataclass
from functools import wraps
from itertools import combinations, permutations
from types import MappingProxyType

from .errors import BoundExceeded, NotAWalk, UnknownEdge

CYCLE_EDGE_BOUND = 24
SUBDIVISION_BOUND = (12, 24)  # host vertices, host edges


def find(parent, x):
    """Union-find root of x, halving the path on the way; parent is a list
    or a dict sending each element to its parent."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def kept(build):
    """Decorator: build(obj, *args), kept on obj.  The first call stores the
    value in obj._kept, the one memo dict that MultiGraph, BiasedGraph and
    CycleMasks each declare in __init__, keyed by the builder and its
    arguments; a later call with equal arguments returns the stored value.
    A build that raises stores nothing.  What is kept lives as long as obj.
    The memo is a dict declared up front, not setattr or
    functools.cached_property: a write to the instance __dict__ after
    __init__ makes CPython 3.11 give up the object's compact attribute
    layout and slows every later attribute read on it (cycles() on a fresh
    prism by 6-18 %)."""

    @wraps(build)
    def read(obj, *args):
        key = (build, args) if args else build
        try:
            return obj._kept[key]
        except KeyError:
            pass
        value = obj._kept[key] = build(obj, *args)
        return value

    return read


@dataclass(frozen=True)
class OrientedEdge:
    """An edge index together with a direction along it."""

    edge: int
    forward: bool = True


# the two directions of each edge a cycle can hold, shared by every graph
_FORWARD = tuple(OrientedEdge(e, True) for e in range(CYCLE_EDGE_BOUND))
_BACKWARD = tuple(OrientedEdge(e, False) for e in range(CYCLE_EDGE_BOUND))


class MultiGraph:
    """Immutable multigraph; loops and parallel edges allowed."""

    def __init__(self, n, edges, edge_names=None, vertex_names=None):
        self.n = int(n)
        if self.n < 0:
            raise ValueError("vertex count must be >= 0, got %d" % self.n)
        self.edges = tuple((int(u), int(v)) for (u, v) in edges)
        self.m = len(self.edges)
        for (u, v) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise UnknownEdge("edge endpoint out of range")
        if edge_names is None:
            edge_names = tuple("e%d" % (i + 1) for i in range(self.m))
        else:
            edge_names = tuple(edge_names)
            if len(edge_names) != self.m or len(set(edge_names)) != self.m:
                raise ValueError("edge names must be unique, one per edge")
        if vertex_names is None:
            vertex_names = tuple("v%d" % (i + 1) for i in range(self.n))
        else:
            vertex_names = tuple(vertex_names)
            if len(vertex_names) != self.n:
                raise ValueError("need one name per vertex")
        self.edge_names = edge_names
        self.vertex_names = vertex_names
        self._name_to_edge = {nm: i for i, nm in enumerate(edge_names)}
        inc = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append(e)
            if v != u:
                inc[v].append(e)
        self._incident = tuple(map(tuple, inc))  # each in edge-id order, as built
        self._cycles = None  # not kept: perfbench/spans.py reads it to count memo hits
        self._kept = {}  # values built on first use, see kept

    # -- basics ----------------------------------------------------------
    def endpoints(self, e):
        self._check_edge(e)
        return self.edges[e]

    def is_loop(self, e):
        u, v = self.endpoints(e)
        return u == v

    def edge_index(self, name):
        try:
            return self._name_to_edge[name]
        except KeyError:
            raise UnknownEdge("no edge named %r" % (name,))

    def edge_set(self, names):
        return frozenset(self.edge_index(nm) for nm in names)

    def names_of(self, edge_ids):
        return tuple(self.edge_names[e] for e in sorted(edge_ids))

    def incident_edges(self, v):
        return self._incident[v]

    def links_at(self, v):
        return tuple(e for e, _ in self.links[v])

    def degree(self, v):
        return self.degrees[v]

    # -- tables, built on first read ----------------------------------------
    @property
    @kept
    def degrees(self):
        """The degree of each vertex, a loop counting twice."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @property
    @kept
    def links(self):
        """Per vertex, (edge, far end) of each link at it, in incident_edges
        order (by edge id)."""
        links = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            if u != v:
                links[u].append((e, v))
                links[v].append((e, u))
        return tuple(map(tuple, links))

    @property
    @kept
    def profiles(self):
        """Per vertex, its adjacency profile: (loops at it, the sorted
        numbers of edges joining it to each neighbour)."""
        return tuple((row[v], tuple(sorted(x for w, x in enumerate(row) if x and w != v)))
                     for v, row in enumerate(self.multiplicity))

    @property
    @kept
    def multiplicity(self):
        """multiplicity[u][v]: the number of edges joining u and v (loops at
        u on the diagonal)."""
        mult = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            mult[u][v] += 1
            if u != v:
                mult[v][u] += 1
        return tuple(map(tuple, mult))

    @property
    @kept
    def parallel_classes(self):
        """Edge ids grouped by unordered endpoint pair, each group a tuple in
        id order, the pairs in order of their least edge; read-only."""
        classes = {}
        for e, (u, v) in enumerate(self.edges):
            classes.setdefault((u, v) if u <= v else (v, u), []).append(e)
        return MappingProxyType({key: tuple(es) for key, es in classes.items()})

    def tail(self, oe):
        u, v = self.endpoints(oe.edge)
        return u if oe.forward else v

    def head(self, oe):
        u, v = self.endpoints(oe.edge)
        return v if oe.forward else u

    def other_end(self, e, v):
        u, w = self.endpoints(e)
        if u == v:
            return w
        if w == v:
            return u
        raise UnknownEdge("edge %d not incident to vertex %d" % (e, v))

    def _check_edge(self, e):
        if not 0 <= e < self.m:
            raise UnknownEdge("edge index %r out of range" % (e,))

    def check_walk(self, walk):
        for a, b in zip(walk, walk[1:]):
            if self.head(a) != self.tail(b):
                raise NotAWalk("consecutive oriented edges do not chain")

    def __eq__(self, other):
        return (
            isinstance(other, MultiGraph)
            and self.n == other.n
            and self.edges == other.edges
            and self.edge_names == other.edge_names
        )

    def __hash__(self):
        return hash((self.n, self.edges, self.edge_names))

    def __repr__(self):
        return "MultiGraph(n=%d, m=%d)" % (self.n, self.m)

    # -- connectivity ----------------------------------------------------
    def vertices_of(self, edge_ids):
        """Vertices incident to at least one edge of the set."""
        out = set()
        for e in edge_ids:
            u, v = self.edges[e]
            out.add(u)
            out.add(v)
        return out

    def components(self, avoid=()):
        """Vertex sets of the connected components of G - avoid (isolated
        vertices included), ordered by least vertex."""
        seen = [False] * self.n
        for v in avoid:
            seen[v] = True
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                v = stack.pop()
                for e in self._incident[v]:
                    w = self.other_end(e, v)
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            out.append(frozenset(comp))
        return out

    def is_connected(self):
        return len(self.components()) <= 1

    def spanning_forest(self, edge_ids=None):
        """The forest that Kruskal grows greedily from the edges (all of
        them when edge_ids is omitted) in id order, as a sorted tuple of
        edge ids: a maximal forest of G restricted to those edges."""
        parent = list(range(self.n))
        forest = []
        for e in range(self.m) if edge_ids is None else sorted(edge_ids):
            u, v = self.edges[e]
            ru, rv = find(parent, u), find(parent, v)
            if ru != rv:
                parent[ru] = rv
                forest.append(e)
        return tuple(forest)

    def link_forests(self, max_size=None):
        """All forests of links (acyclic edge sets, the empty one included)
        with at most max_size edges, as frozensets, in lexicographic order
        of their sorted edge ids.  A negative max_size gives none."""
        if max_size is not None and max_size < 0:
            return []
        out = []

        def grow(forest, comp, start):
            out.append(frozenset(forest))
            if len(forest) == max_size:
                return
            for e in range(start, self.m):
                u, v = self.edges[e]
                cu, cv = comp[u], comp[v]
                if cu != cv:
                    grow(forest + [e], [cu if c == cv else c for c in comp], e + 1)

        grow([], list(range(self.n)), 0)
        return out

    # -- cycles ----------------------------------------------------------
    def cycles(self):
        """All cycles, each once, sorted by (length, edge ids).

        A cycle is a connected 2-regular subgraph; loops are length-1 cycles.
        Enumeration is by backtracking over simple paths anchored at the
        smallest vertex of the cycle.  Graphs with more than
        CYCLE_EDGE_BOUND edges raise BoundExceeded.
        """
        if self.m > CYCLE_EDGE_BOUND:
            raise BoundExceeded(
                "cycle enumeration bound %d edges exceeded (%d)" % (CYCLE_EDGE_BOUND, self.m)
            )
        if self._cycles is not None:
            return self._cycles
        out = [Cycle(frozenset((e,)), (_FORWARD[e],))
               for e in range(self.m) if self.is_loop(e)]
        on_path = [False] * self.n
        path = []

        def extend(v0, current):
            # simple paths from v0 using vertices > v0 internally; each
            # cycle is met in both directions and kept in the one whose
            # first edge is the smaller, the walk of the `cycle_from_edges`
            # oracle in tests/test_graph.py
            for e in self._incident[current]:
                u, w = self.edges[e]
                if u == w:
                    continue
                step = _FORWARD[e] if u == current else _BACKWARD[e]
                if u != current:
                    w = u
                if w == v0:
                    if path and path[0].edge < e:
                        walk = tuple(path) + (step,)
                        out.append(Cycle(frozenset(oe.edge for oe in walk), walk))
                    continue
                if w < v0 or on_path[w]:
                    continue
                on_path[w] = True
                path.append(step)
                extend(v0, w)
                path.pop()
                on_path[w] = False

        for v0 in range(self.n):
            extend(v0, v0)
        out.sort(key=lambda c: (len(c.edges), tuple(sorted(c.edges))))
        self._cycles = tuple(out)
        return self._cycles

    @kept
    def cycle_masks(self):
        """The CycleMasks of cycles()."""
        return CycleMasks(self)

    # -- vertical connectivity --------------------------------------------
    @kept
    def is_vertically_k_connected(self, k):
        """Vertical k-connectivity with witness separation when false.

        On >= k+2 vertices: connected with no vertical r-separation, r < k.
        On fewer vertices: connected with a spanning complete subgraph
        (the paper's k+1-vertex clause, extended downward so that 2-vertex
        graphs with a link are vertically 2-connected).
        Returns (True, None) or (False, witness); the witness is a pair of
        edge-name tuples (A, B) forming a vertical r-separation (r < k), or
        None when the failure is degenerate (e.g. too few vertices).
        The answer is kept per k.

        The test reads this off vertex cuts: a vertical separation with cut
        size at most r exists exactly when some r vertices S leave G - S
        with two components that carry edges.  The cut V(A) & V(B) of a
        separation is such an S, since every path from V(A) - V(B) to
        V(B) - V(A) passes through it; and for such an S the edges touching
        one of those components, against all the rest, form a separation
        whose cut lies in S.  The first S by size, then in combinations
        order, gives the witness; S = () splits a disconnected G.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        comps = self.components()
        if 1 <= self.n < k + 2 and len(comps) == 1 and all(
                self.multiplicity[u][v] for u, v in combinations(range(self.n), 2)):
            return True, None
        for r in range(k):
            for S in combinations(range(self.n), r):
                live = [c for c in self.components(S) if any(self._incident[v] for v in c)]
                if len(live) > 1:
                    a = {e for v in live[0] for e in self._incident[v]}
                    return False, (self.names_of(a), self.names_of(set(range(self.m)) - a))
            if len(comps) > 1:
                return False, None  # disconnected, at most one component with edges
        return self.n >= k + 2, None

    # -- minors ------------------------------------------------------------
    def minor(self, contract, delete):
        """Standard minor; returns (graph, vertex_map, edge_map).

        Contracting a loop is deletion.  Vertices are never dropped (isolated
        vertices survive; dropping them is a separate explicit operation).
        vertex_map sends every old vertex to its new index; edge_map sends
        surviving old edge ids to new ids.
        """
        contract, delete = self._check_minor_sets(contract, delete)
        parent = list(range(self.n))
        for e in sorted(contract):
            u, v = self.edges[e]
            ru, rv = find(parent, u), find(parent, v)
            if ru != rv:
                parent[min(ru, rv)] = max(ru, rv)
        classes = {}
        for v in range(self.n):
            classes.setdefault(find(parent, v), []).append(v)
        reps = sorted(classes, key=lambda r: min(classes[r]))
        new_index = {rep: i for i, rep in enumerate(reps)}
        vmap = {v: new_index[find(parent, v)] for v in range(self.n)}
        new_edges, new_names, emap = [], [], {}
        for e, (u, v) in enumerate(self.edges):
            if e in contract or e in delete:
                continue
            emap[e] = len(new_edges)
            new_edges.append((vmap[u], vmap[v]))
            new_names.append(self.edge_names[e])
        vnames = tuple(
            self.vertex_names[min(classes[rep])] for rep in reps
        )
        g = MultiGraph(len(reps), new_edges, new_names, vnames)
        return g, vmap, emap

    def _check_minor_sets(self, contract, delete):
        contract = frozenset(contract)
        delete = frozenset(delete)
        if contract & delete:
            raise ValueError("contract and delete sets overlap")
        for e in contract | delete:
            self._check_edge(e)
        return contract, delete

    def contract_links(self, contract, delete):
        """The link step of the section-2 minor: one minor contracts the
        forest K = spanning_forest(contract) and deletes `delete`.  Returns
        (K, (graph, vertex_map, edge_map), loops), loops being the new ids
        of contract - K, all of them loops since K spans contract."""
        contract, delete = self._check_minor_sets(contract, delete)
        K = frozenset(self.spanning_forest(contract))
        minor = self.minor(K, delete)
        return K, minor, {minor[2][e] for e in contract - K}

    def contract_loops(self, pending, balanced):
        """The loop step of the section-2 minor on the loops `pending`, of
        which `balanced` are balanced: while a pending loop is balanced the
        least one is deleted, else the least is contracted as a joint at
        its vertex v, which makes v's other loops balanced and v's links
        joints at their far ends.  No vertex moves.

        Returns (graph, edge_map, joint_vertices, rewritten): edge_map sends
        every old edge id outside pending to its new id, joint_vertices are
        the vertices contracted as joints, in order, and rewritten sends
        the new id of each edge a joint met to True (now a balanced loop)
        or False (now a joint)."""
        if not pending:
            return self, {e: e for e in range(self.m)}, (), {}
        for e in pending:
            if not self.is_loop(e):
                raise ValueError("edge %d is not a loop" % e)
        kept = [f for f in range(self.m) if f not in pending]
        pending, balanced = set(pending), set(balanced)
        edges, joints, rewritten = list(self.edges), [], {}
        while pending:
            e = min(balanced or pending)
            pending.remove(e)
            if e in balanced:
                balanced.remove(e)
                continue
            v = edges[e][0]
            joints.append(v)
            # an edge leaves v only when v is contracted, which happens once,
            # so v's edges are still the ones incident to it here
            for f in self._incident[v]:
                a, b = edges[f]
                if a == b:
                    rewritten[f] = True
                    if f in pending:
                        balanced.add(f)
                else:
                    edges[f] = (b, b) if a == v else (a, a)
                    rewritten[f] = False
        emap = {f: i for i, f in enumerate(kept)}
        g = MultiGraph(self.n, [edges[f] for f in kept],
                       [self.edge_names[f] for f in kept], self.vertex_names)
        return g, emap, tuple(joints), {emap[f]: x for f, x in rewritten.items() if f in emap}

    @kept
    def link_minor_pairs(self, h):
        """The (K, D, minor, isos, emap) entries, in search order, whose
        minor G/K\\D with isolated vertices dropped (minor) is isomorphic to
        h, a graph without isolated vertices; isos are all its vertex
        isomorphisms onto h, and emap sends each edge of G outside K and D
        to its id in minor.  K runs over the link forests by size, then by
        sorted edge ids, up to the size that leaves h.n K-classes; for each
        K the kept edges run over the combinations of the other edges in
        order, and D is the rest of them.  A pair whose kept edges meet a
        number of K-classes (union-find roots) other than h.n, or whose
        sorted class degrees (kept edge ends per class) differ from h's, is
        dropped before its minor is built.  The list depends on G and h
        alone, so it is kept per h."""
        degrees = sorted(h.degrees)
        pairs = []
        for K in sorted(self.link_forests(self.n - h.n), key=lambda f: (len(f), sorted(f))):
            parent = list(range(self.n))
            for e in K:
                u, v = self.edges[e]
                parent[find(parent, u)] = find(parent, v)
            ends = tuple((find(parent, u), find(parent, v)) for u, v in self.edges)
            rest = [e for e in range(self.m) if e not in K]
            for keep in combinations(rest, h.m):
                kept_ends = [r for e in keep for r in ends[e]]
                classes = set(kept_ends)
                if len(classes) != h.n or sorted(map(kept_ends.count, classes)) != degrees:
                    continue
                D = frozenset(rest) - frozenset(keep)
                minor, _, emap = self.minor(K, D)
                minor = minor.drop_isolated()[0]
                isos = tuple(graph_isomorphisms(minor, h))
                if isos:
                    pairs.append((K, D, minor, isos, emap))
        return pairs

    def with_edges(self, edges):
        """The graph on the same vertices and edge names with new endpoints."""
        return MultiGraph(self.n, edges, self.edge_names, self.vertex_names)

    def drop_isolated(self):
        """Delete isolated vertices; returns (graph, vertex_map)."""
        used = sorted(self.vertices_of(range(self.m)))
        vmap = {v: i for i, v in enumerate(used)}
        g = MultiGraph(
            len(used),
            [(vmap[u], vmap[v]) for (u, v) in self.edges],
            self.edge_names,
            tuple(self.vertex_names[v] for v in used),
        )
        return g, vmap


@dataclass(frozen=True)
class Cycle:
    """Edge set of a connected 2-regular subgraph plus one canonical walk."""

    edges: frozenset
    walk: tuple

    def __len__(self):
        return len(self.edges)


def is_theta_union(edges, vertices):
    """Whether the union of two distinct cycles that share an edge, with
    this many edges and vertices, is a theta.

    Such a union is connected, of minimum degree 2, and has |E| - |V| >= 1.
    It is a theta exactly when |E| - |V| = 1: a connected graph with
    |E| = |V| + 1 and no degree below 2 subdivides a theta, a figure eight
    or a handcuff, and only in the theta do two cycles share an edge; a
    larger excess is a union such as two quadrilaterals of K_4."""
    return edges == vertices + 1


class CycleMasks:
    """What bias sets on g are tested on, as cycle-index masks (bit i stands
    for g.cycles()[i]): `index` sends each cycle's edge set to i, `every` is
    the mask of all cycles, `links` that of the cycles that are not loops,
    and `through[v]` that of the cycles through vertex v.  The cycles
    themselves are bit masks too: `edge_masks[i]` holds the edges of cycle
    i, `vertex_masks[i]` its vertices, and `by_edges` sends each edge mask
    back to i.  What is not built in __init__ is built on first read."""

    def __init__(self, g):
        self._n, self._ends, self._cycles = g.n, g.edges, g.cycles()  # read on first use
        self.index = {c.edges: i for i, c in enumerate(self._cycles)}
        self.every = (1 << len(self._cycles)) - 1
        self.links = sum(1 << i for i, c in enumerate(self._cycles) if len(c) > 1)
        self._kept = {}  # values built on first use, see kept

    @property
    @kept
    def through(self):
        return tuple(sum(1 << i for i, vs in enumerate(self.vertex_masks) if vs >> v & 1)
                     for v in range(self._n))

    @property
    @kept
    def edge_masks(self):
        return tuple(sum(1 << e for e in c.edges) for c in self._cycles)

    @property
    @kept
    def vertex_masks(self):
        ends = [1 << u | 1 << v for u, v in self._ends]
        out = []
        for c in self._cycles:
            mask = 0
            for e in c.edges:
                mask |= ends[e]
            out.append(mask)
        return tuple(out)

    @property
    @kept
    def by_edges(self):
        return {mask: i for i, mask in enumerate(self.edge_masks)}

    @property
    @kept
    def thetas(self):
        """The theta subgraphs as index triples (i, j, k), i < j < k, in
        lexicographic order: cycles i and j are the theta's two lowest and
        k, their symmetric difference, its highest.  A theta's three cycles
        are a, b and a ^ b, and each two of them share an edge, so it is
        listed once, at its two lowest (see `is_theta_union`)."""
        em, vm, by_edges = self.edge_masks, self.vertex_masks, self.by_edges
        out = []
        for i, a in enumerate(em):
            for j in range(i + 1, len(em)):
                b = em[j]
                if a & b and is_theta_union((a | b).bit_count(), (vm[i] | vm[j]).bit_count()):
                    k = by_edges[a ^ b]
                    if k > j:
                        out.append((i, j, k))
        return tuple(out)

    @kept
    def disjoint_pairs(self):
        """The masks 1 << i | 1 << j of the vertex-disjoint pairs of cycles
        i < j, in combinations order."""
        vm = self.vertex_masks
        return [1 << i | 1 << j for i, j in combinations(range(len(vm)), 2)
                if not vm[i] & vm[j]]


# -- subdivision search ----------------------------------------------------

class Embedding:
    """A topological embedding: pattern vertices to branch vertices, pattern
    edges to internally disjoint host paths (tuples of host edge ids)."""

    def __init__(self, vertex_map, edge_paths):
        self.vertex_map = dict(vertex_map)
        self.edge_paths = {e: tuple(p) for e, p in edge_paths.items()}


def check_subdivision_args(host, pattern):
    """The argument checks of a subdivision search: a host larger than
    SUBDIVISION_BOUND raises BoundExceeded, a pattern with a loop
    ValueError."""
    if host.n > SUBDIVISION_BOUND[0] or host.m > SUBDIVISION_BOUND[1]:
        raise BoundExceeded("subdivision host exceeds bound")
    if any(u == v for u, v in pattern.edges):
        raise ValueError("loop patterns are not supported")


def iter_subdivisions(host, pattern, accept=None, automorphisms=()):
    """Generate embeddings of subdivisions of `pattern` in `host`.

    Pattern must be loopless.  Branch vertices are distinct host vertices;
    each pattern edge maps to a host path; paths are internally disjoint
    from each other and from branch vertices.  Vertex maps are tried in
    lexicographic order of their images of the pattern vertices taken by
    decreasing degree (`pverts`), and pattern edges are placed in
    increasing id order, each on the host paths that one generator grows
    depth first along the links of each vertex in `incident_edges` order,
    avoiding used edges and blocked vertices (the branch images and the
    internal vertices of placed paths).  If given, `accept(e, edge_paths)`
    is called as soon as the path of pattern edge e is placed (`edge_paths`
    maps every placed pattern edge to its host path); when it returns
    False, no embedding extending that placement is generated.
    `automorphisms` are vertex permutations of the pattern (perm[v] is the
    image of v): a complete vertex map phi is dropped when some phi o perm
    is lexicographically smaller, so one map per orbit is tried.  The
    checks of check_subdivision_args come first.  Then a search in which
    no vertex map can be completed stops before trying any: each pattern
    vertex needs its own host vertex of at least its degree, and by
    Hall's condition such a map exists exactly when the host's degrees,
    largest first, dominate the pattern's entry by entry.
    """
    check_subdivision_args(host, pattern)
    if pattern.m > host.m or pattern.n > host.n:
        return
    host_degree, pattern_degree, links = host.degrees, pattern.degrees, host.links
    if not all(h >= p for h, p in zip(sorted(host_degree, reverse=True),
                                      sorted(pattern_degree, reverse=True))):
        return
    pverts = sorted(range(pattern.n), key=lambda v: -pattern_degree[v])
    # each automorphism as the pattern vertices whose images, in pverts
    # order, make up the key of phi o perm
    moved = [[perm[v] for v in pverts] for perm in automorphisms]

    def host_paths(v, end, path, used, blocked):
        # the paths from v to end on unused edges through unblocked
        # vertices, each with blocked grown by its internal vertices
        for he, w in links[v]:
            if he in used:
                continue
            if w == end:
                yield path + (he,), blocked
            elif w not in blocked:
                yield from host_paths(w, end, path + (he,), used, blocked | {w})

    edge_paths = {}

    def assign_edges(e, vmap, used, blocked):
        if e == pattern.m:
            yield Embedding(vmap, edge_paths)
            return
        a, b = pattern.edges[e]
        for path, inner in host_paths(vmap[a], vmap[b], (), used, blocked):
            edge_paths[e] = path
            if accept is None or accept(e, edge_paths):
                yield from assign_edges(e + 1, vmap, used.union(path), inner)
            del edge_paths[e]

    def assign_vertices(i, vmap, used):
        if i == len(pverts):
            key = [vmap[v] for v in pverts]
            if all([vmap[w] for w in images] >= key for images in moved):
                yield from assign_edges(0, vmap, frozenset(), used)
            return
        pv = pverts[i]
        for hv in range(host.n):
            if hv not in used and host_degree[hv] >= pattern_degree[pv]:
                vmap[pv] = hv
                yield from assign_vertices(i + 1, vmap, used | {hv})
                del vmap[pv]

    yield from assign_vertices(0, {}, frozenset())


# -- isomorphism -------------------------------------------------------------

def graph_isomorphisms(g, h):
    """Generate vertex bijections g -> h preserving edge multiplicities, as
    tuples in lexicographic order.  A backtrack maps g's vertices in order,
    each to an unused h-vertex with the same adjacency profile (so the same
    number of loops), tried in increasing order, and keeps it when the
    multiplicities between it and every vertex already mapped agree."""
    if g.n != h.n or g.m != h.m:
        return
    profile_g, profile_h = g.profiles, h.profiles
    if sorted(profile_g) != sorted(profile_h):
        return
    candidates = [[w for w, q in enumerate(profile_h) if q == p] for p in profile_g]
    gm, hm = g.multiplicity, h.multiplicity
    perm = [0] * g.n
    used = [False] * h.n

    def place(v):
        if v == g.n:
            yield tuple(perm)
            return
        row = gm[v]
        for w in candidates[v]:
            if used[w]:
                continue
            image = hm[w]
            if all(row[u] == image[perm[u]] for u in range(v)):
                perm[v] = w
                used[w] = True
                yield from place(v + 1)
                used[w] = False

    yield from place(0)


def edge_bijections(g, h, perm):
    """Generate edge bijections compatible with a vertex bijection."""
    gm, hm = g.parallel_classes, h.parallel_classes
    keys = sorted(gm)
    target = []
    for key in keys:
        ku, kv = perm[key[0]], perm[key[1]]
        hkey = (ku, kv) if ku <= kv else (kv, ku)
        target.append(hm[hkey])

    def rec(i, emap):
        if i == len(keys):
            yield dict(emap)
            return
        src = gm[keys[i]]
        for assignment in permutations(target[i]):
            for a, b in zip(src, assignment):
                emap[a] = b
            yield from rec(i + 1, emap)

    yield from rec(0, {})
