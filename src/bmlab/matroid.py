"""Matroid oracles: frame F(G,B), lift L(G,B), complete lift L0(G,B),
uniform and explicit matroids, rank axioms, equality testing on bases.

An oracle is an ordered ground set of labels plus a memoized rank function
on bitmask-encoded subsets, and optionally an independence step that grows
an independent set one element at a time from the state of the set so far.
Frame, lift and vector matroids are defined by their step alone: the rank
of X is the size of a greedy independent subset of X (step_oracle).
"""

from .bias import BiasedGraph, is_tangled
from .errors import BoundExceeded, GroundSetMismatch, UnknownEdge
from .graph import MultiGraph, kept

EQUALITY_BOUND = 20
AXIOM_CHECK_BOUND = 12


class MatroidOracle:
    """step, when given, is a pair (start, extend): start is the state of
    the empty set, and extend(state, i) is the state of X + i when X (the
    independent set with that state, not holding i) plus i is independent,
    else None.  A state is never changed in place, so one prefix's state
    serves every extension of it."""

    def __init__(self, labels, rank_mask_fn, step=None):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise GroundSetMismatch("duplicate ground set labels")
        self._index = {lbl: i for i, lbl in enumerate(self.labels)}
        self._fn = rank_mask_fn
        self._memo = {}
        self._step = step

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

    def independence_step(self):
        """The oracle's (start, extend) pair; without a step of its own, the
        state is the set's mask and X + i is independent iff its rank is
        |X| + 1."""
        if self._step is not None:
            return self._step

        def extend(mask, i):
            grown = mask | 1 << i
            return grown if self.rank_mask(grown) == mask.bit_count() + 1 else None

        return 0, extend

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


def greedy(extend, state, indices, stop=None):
    """The elements of indices, in order, that extend accepts one after
    another from state, up to stop of them.  From the empty set's state,
    with no stop, they are a basis of the indices' set, and the
    lexicographically first one (Oxley, Matroid Theory, section 1.8)."""
    picked = []
    for i in indices:
        if len(picked) == stop:
            break
        grown = extend(state, i)
        if grown is not None:
            state = grown
            picked.append(i)
    return picked


def rank_table(M):
    """The ranks of all 2^n subsets of M's ground set, as a list indexed by
    mask, in one pass over the subset tree: the node of the elements below
    j carries the state and size of the greedy independent subset of its
    mask, and each element is tried once per node that includes it.  So
    the table is the greedy rank of step_oracle on every subset, at one
    independence step per node where a rank call per subset would walk
    the whole subset."""
    start, extend = M.independence_step()
    n = M.size
    out = [0] * (1 << n)

    def walk(j, mask, state, r):
        if j == n:
            out[mask] = r
            return
        walk(j + 1, mask, state, r)
        grown = extend(state, j)
        if grown is not None:
            state, r = grown, r + 1
        walk(j + 1, mask | 1 << j, state, r)

    walk(0, 0, start, 0)
    return out


def step_oracle(labels, step):
    """The oracle of the independence step (start, extend): the rank of X
    is the size of the greedy independent subset of X, its elements taken
    in index order."""
    start, extend = step
    n = len(labels)

    def rank(mask):
        return len(greedy(extend, start, (i for i in range(n) if mask >> i & 1)))

    return MatroidOracle(labels, rank, step)


def matroids_equal(m1, m2):
    """(True, None) if m1 and m2 have the same rank and the same bases, else
    (False, distinguishing subset as label tuple): the whole ground set when
    the ranks differ, otherwise the first r-subset in combinations order
    that is a basis of exactly one.  Two matroids on one ground set are
    equal iff they agree on r(E) and on which r-subsets are bases (Oxley,
    Matroid Theory, section 1.2); both rank functions must satisfy the rank
    axioms.  Ground sets must carry the same labels in the same order.

    The r-subsets are walked depth first as prefixes in combinations order,
    each side growing its prefix by its independence step.  A prefix
    dependent on both sides holds no basis of either and is skipped.  A
    prefix independent on exactly one side is a basis of neither below it
    on the other, so the first basis of the one side that completes it
    (greedily, in index order: the greedy basis is the lexicographically
    first) is the witness; when none completes it, the walk goes on."""
    if m1.labels != m2.labels:
        raise GroundSetMismatch("oracles must share the ordered ground set")
    n = m1.size
    if n > EQUALITY_BOUND:
        raise BoundExceeded("matroid equality bound exceeded")
    r = m1.full_rank()
    if m2.full_rank() != r:
        return False, m1.labels
    start1, step1 = m1.independence_step()
    start2, step2 = m2.independence_step()

    def completion(step, state, k, lo):
        picked = greedy(step, state, range(lo, n), r - k)
        return picked if k + len(picked) == r else None

    def walk(s1, s2, k, lo):
        if k == r:
            return None
        for i in range(lo, n - r + k + 1):
            t1, t2 = step1(s1, i), step2(s2, i)
            if t1 is None and t2 is None:
                continue
            if t1 is not None and t2 is not None:
                rest = walk(t1, t2, k + 1, i + 1)
            elif t1 is not None:
                rest = completion(step1, t1, k + 1, i + 1)
            else:
                rest = completion(step2, t2, k + 1, i + 1)
            if rest is not None:
                return [i] + rest
        return None

    witness = walk(start1, start2, 0, 0)
    if witness is None:
        return True, None
    return False, tuple(m1.labels[i] for i in witness)


# -- biased-graph matroids -----------------------------------------------------

class _BiasData:
    """Endpoints and unbalanced-cycle masks for the independence steps."""

    def __init__(self, n, endpoints, unbalanced):
        self.n = n
        self.endpoints = endpoints
        self.unbalanced = unbalanced
        # through[e]: the unbalanced cycle masks that hold edge e
        self.through = [[cm for cm in unbalanced if cm >> e & 1]
                        for e in range(len(endpoints))]


def _bias_step(data, frame):
    """The independence step of F (frame=True) or L of the biased graph.
    A state is (component representative of each vertex, edge mask of the
    set, mask of the representatives of the unbalanced components); an
    untouched vertex is a balanced component with no edges.

    An edge set is independent in F when each of its components holds at
    most one cycle, and that one unbalanced; in L when the whole set holds
    at most one cycle, and that one unbalanced (Zaslavsky, Biased graphs
    II).  So a link joining two components keeps F independent unless both
    are unbalanced, and always keeps L independent.  An edge inside a
    component keeps the set independent only when it closes the first
    cycle of that component (frame) or of the set (lift), and that cycle
    is unbalanced: the component, or the set, is balanced, and the set's
    mask plus the edge holds an unbalanced cycle through the edge."""

    def extend(state, e):
        comp, mask, unbal = state
        u, v = data.endpoints[e]
        a, b = comp[u], comp[v]
        if a != b:
            if frame and unbal >> a & unbal >> b & 1:
                return None
            comp = tuple(a if c == b else c for c in comp)
            return comp, mask | 1 << e, unbal | (unbal >> b & 1) << a
        if (unbal >> a & 1) if frame else unbal:
            return None
        mask |= 1 << e
        if not any(cm & mask == cm for cm in data.through[e]):
            return None
        return comp, mask, unbal | 1 << a

    return (tuple(range(data.n)), 0, 0), extend


@kept
def _bias_data(omega):
    g = omega.graph
    unbalanced = [sum(1 << e for e in c.edges)
                  for c in g.cycles() if c.edges not in omega.balanced]
    return _BiasData(g.n, g.edges, unbalanced)


@kept
def frame_matroid(omega):
    """F(omega), kept on omega so that its rank memo serves every check on
    it; so are L(omega) and L0(omega)."""
    return step_oracle(omega.graph.edge_names, _bias_step(_bias_data(omega), frame=True))


@kept
def lift_matroid(omega):
    return step_oracle(omega.graph.edge_names, _bias_step(_bias_data(omega), frame=False))


@kept
def frame_equals_lift(omega):
    """Whether F(omega) = L(omega), decided on the graph: exactly when
    omega has no two vertex-disjoint unbalanced cycles.  A set independent
    in L is independent in F.  A set independent in F and not in L has two
    components each holding an unbalanced cycle, and two vertex-disjoint
    unbalanced cycles form such a set (Zaslavsky, Biased graphs II)."""
    return is_tangled(omega)[1] is None


def extend_with_joint(omega, vertex, name):
    """omega with a joint, an unbalanced loop named name, added at vertex."""
    g = omega.graph
    g2 = MultiGraph(g.n, list(g.edges) + [(vertex, vertex)], list(g.edge_names) + [name],
                    g.vertex_names)
    return BiasedGraph(g2, omega.balanced, check=False)


@kept
def complete_lift_matroid(omega):
    """L0(G,B) = L(G_0,B): ground set E plus the extra joint e0.  G_0's
    cycles are G's and the joint, an unbalanced loop at a new vertex, so its
    step data is G's with that loop added."""
    data = _bias_data(omega)
    n, m = data.n, len(data.endpoints)
    joint = _BiasData(n + 1, data.endpoints + ((n, n),), data.unbalanced + [1 << m])
    return step_oracle(omega.graph.edge_names + ("e0",), _bias_step(joint, frame=False))


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
