"""Abelian gain groups and gain graphs: walk gains, the induced bias,
switching, forest normalization, equivalence decisions, induced gains on
minors.

Supported groups: the multiplicative group of GF(q), the additive group of
GF(q), and cyclic Z_n.  Elements are the integers used by the field tables
(multiplicative: 1..q-1, additive: 0..q-1, cyclic: 0..n-1).  Gains are
stored on the declared orientation of each edge; the reverse orientation
carries the inverse.
"""

from itertools import product

from .bias import BiasedGraph
from .errors import BmlabError, GraphMismatch, GroupMismatch, UnknownEdge
from .fields import gf
from .graph import OrientedEdge, find, kept

class GainGroup:
    """Shared interface: identity, op, inv, elements, deterministic order."""

    def op(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    @property
    def is_additive_field_group(self):
        return False

    def __eq__(self, other):
        return type(other) is type(self) and other.spec == self.spec

    def __hash__(self):
        return hash(self.spec)

    def smallest_non_identity(self):
        for x in self.elements:
            if x != self.identity:
                return x
        raise BmlabError("group %r is trivial" % (self,))


class MultiplicativeGroup(GainGroup):
    """F^x of GF(q)."""

    def __init__(self, q):
        self.field = gf(q)
        self.q = q
        self.identity = self.field.one

    @property
    def elements(self):
        return tuple(self.field.nonzero)

    def op(self, a, b):
        return self.field.mul(a, b)

    def inv(self, a):
        return self.field.inv(a)

    def __repr__(self):
        return "GF(%d)^x" % self.q

    @property
    def spec(self):
        return ("mul", self.q)


class AdditiveGroup(GainGroup):
    """F^+ of GF(q), with the scalar action of F^x."""

    def __init__(self, q):
        self.field = gf(q)
        self.q = q
        self.identity = self.field.zero

    @property
    def elements(self):
        return tuple(self.field.elements)

    def op(self, a, b):
        return self.field.add(a, b)

    def inv(self, a):
        return self.field.neg(a)

    @property
    def is_additive_field_group(self):
        return True

    def scale(self, a, x):
        """The automorphism x -> a*x for a in F^x."""
        return self.field.mul(a, x)

    @property
    def scalars(self):
        return tuple(self.field.nonzero)

    def __repr__(self):
        return "GF(%d)^+" % self.q

    @property
    def spec(self):
        return ("add", self.q)


class CyclicGroup(GainGroup):
    """Z_n written additively."""

    def __init__(self, n):
        if n < 1:
            raise BmlabError("Z_n needs n >= 1")
        self.n = n
        self.identity = 0

    @property
    def elements(self):
        return tuple(range(self.n))

    def op(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    def __repr__(self):
        return "Z_%d" % self.n

    @property
    def spec(self):
        return ("zn", self.n)


class GainGraph:
    """A multigraph with a gain in an abelian group on each oriented edge."""

    def __init__(self, graph, group, gains):
        self.graph = graph
        self.group = group
        if set(gains) != set(range(graph.m)):
            raise UnknownEdge("need a gain for every edge, keyed by edge id")
        self.gains = {e: gains[e] for e in range(graph.m)}

    def gain(self, oe):
        """Gain of an oriented edge; the declared orientation is forward."""
        g = self.gains[oe.edge]
        return g if oe.forward else self.group.inv(g)

    def with_gains(self, gains):
        return GainGraph(self.graph, self.group, gains)

    def __eq__(self, other):
        return (
            isinstance(other, GainGraph)
            and self.graph == other.graph
            and self.group == other.group
            and self.gains == other.gains
        )

    def __repr__(self):
        return "GainGraph(%r, %r)" % (self.graph, self.group)


def walk_gain(gg, walk):
    """Compose gains along a walk (validates the walk)."""
    gg.graph.check_walk(list(walk))
    return _compose(gg, walk)


def cycle_gain(gg, cycle):
    """Gain of a Cycle, whose walk chains by construction and so is not
    re-validated."""
    return _compose(gg, cycle.walk)


def _compose(gg, walk):
    out = gg.group.identity
    for oe in walk:
        out = gg.group.op(out, gg.gain(oe))
    return out


def induced_bias(gg):
    """The biased graph (G, B_phi): balanced = identity-gain cycles."""
    balanced = set()
    for c in gg.graph.cycles():
        if cycle_gain(gg, c) == gg.group.identity:
            balanced.add(c.edges)
    return BiasedGraph(gg.graph, balanced, check=False)


def switch(gg, eta):
    """Apply a switching function (vertex -> group element)."""
    group = gg.group
    new = {}
    for e in range(gg.graph.m):
        u, v = gg.graph.endpoints(e)
        # phi^eta(e) = eta(tail)^-1 . phi(e) . eta(head)
        val = group.op(
            group.op(group.inv(eta.get(u, group.identity)), gg.gains[e]),
            eta.get(v, group.identity),
        )
        new[e] = val
    return gg.with_gains(new)


def _tree(graph, forest=()):
    """One maximal forest T of graph: T grows by union-find from the links
    of forest and then from the other edges in id order (so T is
    graph.spanning_forest() when forest is empty), and each tree is walked
    depth first from its smallest vertex.  Returns (outside, up, order):
    the edges outside T in id order, up[w] = (w's parent, the step from w
    to it) or None for a root, and the non-root vertices in discovery
    order, each after its parent."""
    forest = frozenset(forest)
    parent = list(range(graph.n))
    adj = [[] for _ in range(graph.n)]
    outside = []
    for e in sorted(forest) + [e for e in range(graph.m) if e not in forest]:
        u, v = graph.edges[e]
        ru, rv = find(parent, u), find(parent, v)
        if ru == rv:
            if e in forest:
                raise ValueError("edge set is not a forest of links")
            outside.append(e)
            continue
        parent[ru] = rv
        adj[u].append((v, OrientedEdge(e, False)))  # the step from v to u
        adj[v].append((u, OrientedEdge(e, True)))
    up = [None] * graph.n
    order = []
    for root in range(graph.n):
        if up[root] is not None:
            continue
        stack = [root]
        while stack:
            x = stack.pop()
            for w, step in adj[x]:
                if w != root and up[w] is None:
                    up[w] = (x, step)
                    order.append(w)
                    stack.append(w)
    return outside, up, order


def normalize(gg):
    """Normalize on graph.spanning_forest(): returns (gain graph with
    identity on the forest, eta) with switch(gg, eta) equal to the result;
    eta is the identity on the smallest vertex of each component."""
    group = gg.group
    _, up, order = _tree(gg.graph)
    eta = [group.identity] * gg.graph.n
    for w in order:
        # phi^eta(w->x) = identity: eta(w) = phi(w->x) eta(x)
        x, step = up[w]
        eta[w] = group.op(gg.gain(step), eta[x])
    eta = dict(enumerate(eta))
    return switch(gg, eta), eta


def fundamental_walks(graph, forest=()):
    """The fundamental cycles of the maximal forest T of graph that _tree
    grows from forest, as closed walks of OrientedEdges.  For each edge
    e = (u, v) outside T, in id order, the walk is e from u to v and then
    the path in T from v back to u (e alone when e is a loop).

    Over an abelian group the gains of these walks fix the switching class:
    normalizing on T leaves each such e with its walk's gain.  They fix the
    class on the contraction by forest as well, since a closed walk keeps
    its gain under switching and under contracting identity-gain links, and
    T minus forest is a maximal forest of the minor."""
    outside, up, order = _tree(graph, forest)
    depth = [0] * graph.n
    for w in order:
        depth[w] = depth[up[w][0]] + 1
    walks = []
    for e in outside:
        u, v = graph.edges[e]
        down, rise = [], []  # the steps from v up, and from u up
        while u != v:
            if depth[v] >= depth[u]:
                v, step = up[v]
                down.append(step)
            else:
                u, step = up[u]
                rise.append(step)
        walks.append([OrientedEdge(e)] + down
                     + [OrientedEdge(s.edge, not s.forward) for s in reversed(rise)])
    return walks


def fundamental_gains(gg, walks):
    """The gains of the closed walks (from fundamental_walks), as a tuple."""
    return tuple(_compose(gg, walk) for walk in walks)


def _normal_forms(gg1, gg2, additive):
    """The argument checks of the equivalence decisions, then both
    normalizations: (n1, eta1, n2, eta2)."""
    if gg1.graph != gg2.graph:
        raise GraphMismatch("different underlying graphs")
    if gg1.group != gg2.group or additive and not gg1.group.is_additive_field_group:
        raise GroupMismatch("need matching additive field groups" if additive
                            else "different gain groups")
    return normalize(gg1) + normalize(gg2)


def switching_equivalent(gg1, gg2):
    """Witness eta with switch(gg1, eta) == gg2, or None.

    Decided by normalizing both on the same maximal forest and comparing
    (normalized gain functions are switching equivalent iff equal); eta is
    eta1 followed by the inverse of eta2."""
    n1, eta1, n2, eta2 = _normal_forms(gg1, gg2, additive=False)
    if n1.gains != n2.gains:
        return None
    group = gg1.group
    eta = {v: group.op(x, group.inv(eta2[v])) for v, x in eta1.items()}
    if switch(gg1, eta).gains != gg2.gains:
        raise AssertionError()
    return eta


def switching_scaling_equivalent(gg1, gg2):
    """Witness (a, eta) with switch(a . gg1, eta) == gg2, or None; first
    witness in field enumeration order.

    Normalizing commutes with scaling: on one forest, a . gg1 normalizes
    to a . n1 by the switching a . eta1.  So a is n2 / n1 at n1's first
    nonzero gain (any scalar if n1 is zero) and works iff a . n1 == n2;
    eta is a . eta1 followed by the inverse of eta2."""
    n1, eta1, n2, eta2 = _normal_forms(gg1, gg2, additive=True)
    group = gg1.group
    lead = next((e for e, x in n1.gains.items() if x != group.identity), None)
    a = group.scalars[0] if lead is None else group.field.div(n2.gains[lead], n1.gains[lead])
    if a == group.identity or any(group.scale(a, x) != n2.gains[e] for e, x in n1.gains.items()):
        return None
    eta = {v: group.op(group.scale(a, x), group.inv(eta2[v])) for v, x in eta1.items()}
    scaled = gg1.with_gains({e: group.scale(a, x) for e, x in gg1.gains.items()})
    if switch(scaled, eta).gains != gg2.gains:
        raise AssertionError()
    return a, eta


def induced_gain(gg, contract, delete):
    """Induced gains on a minor, following the section-2 semantics.

    MultiGraph.contract_links contracts the contraction set's links as the
    forest K = spanning_forest(contract), after one switching has made
    every edge of K identity.  MultiGraph.contract_loops then deletes the
    set's identity loops and contracts the others as joints: an edge a
    joint made a balanced loop gets identity gain, one it made a joint the
    smallest non-identity gain, and every other edge keeps its switched
    gain.  Returns (gain graph, vertex_map, edge_map).
    """
    g = gg.graph
    group = gg.group
    K, (gk, vmap, kmap), loops = g.contract_links(contract, delete)

    # switch K's links to identity gain in id order; eta changes by one
    # factor on all of v's class (the vertices K's earlier links joined to
    # v), so those earlier links keep identity gain
    eta = [group.identity] * g.n
    comp = list(range(g.n))
    for e in sorted(K):
        u, v = g.edges[e]
        c = group.inv(group.op(group.op(group.inv(eta[u]), gg.gains[e]), eta[v]))
        cu, cv = comp[u], comp[v]
        for w in range(g.n):
            if comp[w] == cv:
                eta[w] = group.op(eta[w], c)
                comp[w] = cu
    switched = switch(gg, dict(enumerate(eta)))
    gains = {y: switched.gains[x] for x, y in kmap.items()}
    mg, lmap, _, rewritten = gk.contract_loops(
        loops, {e for e in loops if gains[e] == group.identity})
    gains = {y: gains[x] for x, y in lmap.items()}
    for y, loop in rewritten.items():
        gains[y] = group.identity if loop else group.smallest_non_identity()
    emap = {x: lmap[y] for x, y in kmap.items() if y in lmap}
    return GainGraph(mg, group, gains), vmap, emap


# -- enumeration helpers -------------------------------------------------------

def normalized_gain_functions(graph, group):
    """All gain functions that are identity on the spanning forest.

    One per switching class on a connected graph (P:NormalizationUnique).
    Loops are free like any non-forest edge."""
    forest = frozenset(graph.spanning_forest())
    free = [e for e in range(graph.m) if e not in forest]
    for values in product(group.elements, repeat=len(free)):
        gains = {e: group.identity for e in forest}
        gains.update(dict(zip(free, values)))
        yield GainGraph(graph, group, gains)


def realizations(omega, group):
    """Normalized realizations of a biased graph over a group (exhaustive):
    the gain functions gg with induced_bias(gg).balanced == omega.balanced,
    in the order normalized_gain_functions yields them.  They are searched
    once per group and kept on omega; each call returns a fresh list."""
    return list(_search_realizations(omega, group))


@kept
def _search_realizations(omega, group):
    """The free (non-forest) edges get their gains one at a time in id order,
    and each cycle is checked as soon as its last free edge has one, so a
    branch stops at its first cycle whose gain disagrees with omega's bias."""
    g = omega.graph
    cycles = g.cycles()
    if sum(c.edges in omega.balanced for c in cycles) != len(omega.balanced):
        return []  # some balanced set is not a cycle that induced_bias lists
    forest = frozenset(g.spanning_forest())
    free = [e for e in range(g.m) if e not in forest]
    slot = {e: k for k, e in enumerate(free)}
    els = group.elements
    identity = group.identity
    op = {a: {b: group.op(a, b) for b in els} for a in els}
    inv = {a: group.inv(a) for a in els}
    # due[k]: the cycles whose last free edge is free[k], each as the
    # (slot, forward) steps of its walk on free edges and its bias; every
    # cycle has a free edge, as the forest holds no cycle
    due = [[] for _ in free]
    for c in cycles:
        steps = [(slot[oe.edge], oe.forward) for oe in c.walk if oe.edge in slot]
        balanced = c.edges in omega.balanced
        due[max(k for k, _ in steps)].append((steps, balanced))
    values = [identity] * len(free)
    out = []

    def assign(k):
        if k == len(free):
            gains = dict.fromkeys(forest, identity)
            gains.update(zip(free, values))
            out.append(GainGraph(g, group, gains))
            return
        for x in els:
            values[k] = x
            for steps, balanced in due[k]:
                gain = identity
                for i, forward in steps:
                    gain = op[gain][values[i] if forward else inv[values[i]]]
                if (gain == identity) != balanced:
                    break
            else:
                assign(k + 1)

    assign(0)
    return out

