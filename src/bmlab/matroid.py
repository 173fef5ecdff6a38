"""Matroid oracles: frame F(G,B), lift L(G,B), complete lift L0(G,B),
uniform and explicit matroids, rank axioms, equality testing on bases.

An oracle is an ordered ground set of labels plus a memoized rank function
on bitmask-encoded subsets.
"""

from itertools import combinations

from .bias import BiasedGraph
from .errors import BoundExceeded, GroundSetMismatch, UnknownEdge
from .graph import MultiGraph, find

EQUALITY_BOUND = 20
AXIOM_CHECK_BOUND = 12


class MatroidOracle:
    def __init__(self, labels, rank_mask_fn):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise GroundSetMismatch("duplicate ground set labels")
        self._index = {lbl: i for i, lbl in enumerate(self.labels)}
        self._fn = rank_mask_fn
        self._memo = {}

    @property
    def size(self):
        return len(self.labels)

    def mask_of(self, subset):
        m = 0
        for lbl in subset:
            try:
                m |= 1 << self._index[lbl]
            except KeyError:
                raise UnknownEdge("label %r not in ground set" % (lbl,))
        return m

    def subset_of(self, mask):
        return tuple(
            self.labels[i] for i in range(len(self.labels)) if mask >> i & 1
        )

    def rank_mask(self, mask):
        r = self._memo.get(mask)
        if r is None:
            r = self._fn(mask)
            self._memo[mask] = r
        return r

    def rank(self, subset):
        return self.rank_mask(self.mask_of(subset))

    def full_rank(self):
        return self.rank_mask((1 << self.size) - 1)

    def rank_axiom_violation(self):
        """Check normalization, unit increase, submodularity on all subsets;
        returns a description of the first violation or None."""
        n = self.size
        if n > AXIOM_CHECK_BOUND:
            raise BoundExceeded("rank axiom check bound exceeded")
        if self.rank_mask(0) != 0:
            return "r(empty) != 0"
        full = (1 << n) - 1
        for mask in range(full + 1):
            r = self.rank_mask(mask)
            if r < 0:
                return "negative rank on %s" % (self.subset_of(mask),)
            for i in range(n):
                if mask >> i & 1:
                    continue
                r2 = self.rank_mask(mask | 1 << i)
                if not r <= r2 <= r + 1:
                    return "unit increase fails at %s + %s" % (
                        self.subset_of(mask),
                        self.labels[i],
                    )
        for mask in range(full + 1):
            for i in range(n):
                if mask >> i & 1:
                    continue
                for j in range(i + 1, n):
                    if mask >> j & 1:
                        continue
                    a, b = 1 << i, 1 << j
                    if self.rank_mask(mask | a | b) + self.rank_mask(mask) > (
                        self.rank_mask(mask | a) + self.rank_mask(mask | b)
                    ):
                        return "submodularity fails at %s with %s,%s" % (
                            self.subset_of(mask),
                            self.labels[i],
                            self.labels[j],
                        )
        return None


def matroids_equal(m1, m2):
    """(True, None) if m1 and m2 have the same rank and the same bases, else
    (False, distinguishing subset as label tuple): the whole ground set when
    the ranks differ, otherwise the first r-subset in combinations order
    that is a basis of exactly one.  Two matroids on one ground set are
    equal iff they agree on r(E) and on which r-subsets are bases (Oxley,
    Matroid Theory, section 1.2), so C(n, r) rank calls per side suffice;
    both rank functions must satisfy the rank axioms.  Ground sets must
    carry the same labels in the same order."""
    if m1.labels != m2.labels:
        raise GroundSetMismatch("oracles must share the ordered ground set")
    n = m1.size
    if n > EQUALITY_BOUND:
        raise BoundExceeded("matroid equality bound exceeded")
    r = m1.full_rank()
    if m2.full_rank() != r:
        return False, m1.labels
    for subset in combinations(range(n), r):
        mask = sum(1 << i for i in subset)
        if (m1.rank_mask(mask) == r) != (m2.rank_mask(mask) == r):
            return False, m1.subset_of(mask)
    return True, None


# -- biased-graph matroids -----------------------------------------------------

class _BiasData:
    """Precomputed endpoint and unbalanced-cycle masks for rank formulas."""

    def __init__(self, omega):
        g = omega.graph
        self.n = g.n
        self.endpoints = g.edges
        self.unbalanced = []
        for c in g.cycles():
            es = frozenset(c.edges)
            if es not in omega.balanced:
                mask = 0
                for e in es:
                    mask |= 1 << e
                self.unbalanced.append(mask)

    def components(self, mask):
        """List of (vertex set, edge mask) for G|X components."""
        parent = {}
        edges = []
        i = 0
        m = mask
        while m:
            if m & 1:
                edges.append(i)
            m >>= 1
            i += 1
        for e in edges:
            u, v = self.endpoints[e]
            for x in (u, v):
                if x not in parent:
                    parent[x] = x
            ru, rv = find(parent, u), find(parent, v)
            if ru != rv:
                parent[ru] = rv
        comps = {}
        for e in edges:
            r = find(parent, self.endpoints[e][0])
            vs, em = comps.get(r, (set(), 0))
            u, v = self.endpoints[e]
            vs.add(u)
            vs.add(v)
            comps[r] = (vs, em | 1 << e)
        return list(comps.values())


def _frame_rank_mask(data, mask):
    total = 0
    for vs, em in data.components(mask):
        balanced = not any(cm & em == cm for cm in data.unbalanced)
        total += len(vs) - (1 if balanced else 0)
    return total


def _lift_rank_mask(data, mask):
    comps = data.components(mask)
    nv = sum(len(vs) for vs, _ in comps)
    eps = 1 if any(cm & mask == cm for cm in data.unbalanced) else 0
    return nv - len(comps) + eps


def _bias_data(omega):
    if omega._bias_data is None:
        omega._bias_data = _BiasData(omega)
    return omega._bias_data


def frame_matroid(omega):
    data = _bias_data(omega)
    return MatroidOracle(omega.graph.edge_names, lambda m: _frame_rank_mask(data, m))


def lift_matroid(omega):
    data = _bias_data(omega)
    return MatroidOracle(omega.graph.edge_names, lambda m: _lift_rank_mask(data, m))


def extend_with_joint(omega, vertex=None, name="e0"):
    """The biased graph G_0: add a joint (at a new vertex by default)."""
    g = omega.graph
    if vertex is None:
        g2 = MultiGraph(
            g.n + 1,
            list(g.edges) + [(g.n, g.n)],
            list(g.edge_names) + [name],
            g.vertex_names + ("v0",),
        )
    else:
        g2 = MultiGraph(
            g.n,
            list(g.edges) + [(vertex, vertex)],
            list(g.edge_names) + [name],
            g.vertex_names,
        )
    return BiasedGraph(g2, omega.balanced, check=False)


def complete_lift_matroid(omega):
    """L0(G,B) = L(G_0,B): ground set E plus the extra joint e0."""
    return lift_matroid(extend_with_joint(omega))


def uniform_matroid(r, labels):
    labels = tuple(labels)

    def fn(mask):
        return min(r, bin(mask).count("1"))

    return MatroidOracle(labels, fn)


def explicit_matroid(labels, ranks):
    """Oracle from an explicit {frozenset(labels): rank} table."""
    labels = tuple(labels)
    index = {lbl: i for i, lbl in enumerate(labels)}
    table = {}
    for subset, r in ranks.items():
        m = 0
        for lbl in subset:
            m |= 1 << index[lbl]
        table[m] = r

    def fn(mask):
        try:
            return table[mask]
        except KeyError:
            raise UnknownEdge("rank table missing subset %s" % (mask,))

    return MatroidOracle(labels, fn)
