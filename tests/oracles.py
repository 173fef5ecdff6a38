"""Reference routines that several test modules share: matroid equality on
all subsets, matroid minors, the graphic matroid, edge-set components,
projective-witness parsing, balance classification on the loop-deleted
minor, switching classes on contracted gain graphs and GF(q) tables built
pair by pair.

No bmlab command, claim or export needs them, so they live beside the tests
that use them as oracles (tests/test_unreferenced.py keeps src/ that way).
"""

from bmlab.bias import (
    ALMOST_BALANCED,
    BALANCED,
    PROPERLY_UNBALANCED,
    BalanceClass,
    BiasedGraph,
    balancing_vertices,
    biased_minor,
)
from bmlab.errors import GroundSetMismatch, ParseError
from bmlab.fields import (
    _decode,
    _encode,
    _factor_prime_power,
    _min_irreducible,
    _poly_mod,
    _poly_mul,
)
from bmlab.formats import parse_matrix
from bmlab.gains import induced_gain, normalize
from bmlab.graph import find
from bmlab.linalg import ProjWitness
from bmlab.matroid import MatroidOracle, frame_matroid


def matroids_equal_on_all_subsets(m1, m2):
    """The reference for matroid.matroids_equal: (True, None) if m1 and m2
    have equal rank on every one of the 2^n subsets, else (False, the first
    subset in bitmask order where they differ)."""
    if m1.labels != m2.labels:
        raise GroundSetMismatch("oracles must share the ordered ground set")
    for mask in range(1 << m1.size):
        if m1.rank_mask(mask) != m2.rank_mask(mask):
            return False, m1.subset_of(mask)
    return True, None


def delete(M, labels):
    """M \\ labels."""
    drop = M.mask_of(labels)
    keep = [i for i in range(M.size) if not drop >> i & 1]
    expand = {j: i for j, i in enumerate(keep)}

    def fn(mask):
        big = 0
        for j in range(len(keep)):
            if mask >> j & 1:
                big |= 1 << expand[j]
        return M.rank_mask(big)

    return MatroidOracle([M.labels[i] for i in keep], fn)


def contract(M, labels):
    """M / labels."""
    cmask = M.mask_of(labels)
    rc = M.rank_mask(cmask)
    keep = [i for i in range(M.size) if not cmask >> i & 1]
    expand = {j: i for j, i in enumerate(keep)}

    def fn(mask):
        big = cmask
        for j in range(len(keep)):
            if mask >> j & 1:
                big |= 1 << expand[j]
        return M.rank_mask(big) - rc

    return MatroidOracle([M.labels[i] for i in keep], fn)


def graphic_matroid(graph):
    """M(G): the frame matroid of G with every cycle balanced."""
    omega = BiasedGraph(graph, {frozenset(c.edges) for c in graph.cycles()}, check=False)
    return frame_matroid(omega)


def edge_components(g, edge_ids):
    """Partition an edge set into connected components (as edge sets),
    ordered by the root vertex of each."""
    edge_ids = sorted(edge_ids)
    parent = {}
    for e in edge_ids:
        u, v = g.edges[e]
        for x in (u, v):
            if x not in parent:
                parent[x] = x
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
    comps = {}
    for e in edge_ids:
        r = find(parent, g.edges[e][0])
        comps.setdefault(r, []).append(e)
    return [frozenset(es) for _, es in sorted(comps.items())]


def witness_from_json(obj):
    """The ProjWitness that formats.witness_to_json wrote."""
    if obj.get("kind") != "projective-witness":
        raise ParseError("not a projective-witness object")
    return ProjWitness(parse_matrix(obj["T"]), parse_matrix(obj["S"]))


def classify_balance_by_minor(omega):
    """The reference for bias.classify_balance: the balancing vertices of
    the minor that deletes every loop, found by a second cycle
    enumeration on that minor."""
    if not omega.unbalanced_cycles():
        return BalanceClass(BALANCED, tuple(range(omega.graph.n)))
    loops = [e for e in range(omega.graph.m) if omega.graph.is_loop(e)]
    stripped = biased_minor(omega, frozenset(), frozenset(loops), check=False).omega
    bv = balancing_vertices(stripped)
    return BalanceClass(ALMOST_BALANCED, bv) if bv else BalanceClass(PROPERLY_UNBALANCED, ())


def contraction_classes_by_minors(gfs, forest):
    """The reference for verify._contraction_classes: the indices of the
    gain functions gfs in blocks of equal normal form on the contraction by
    forest, each block and the blocks in order of first member.  Every
    function's minor is built with induced_gain and normalized on one
    spanning forest of the minor (all minors of one forest share a graph)."""
    minors = [induced_gain(gg, forest, set())[0] for gg in gfs]
    tree = minors[0].graph.spanning_forest()
    blocks = {}
    for i, mg in enumerate(minors):
        normal, _ = normalize(mg, tree)
        blocks.setdefault(tuple(normal.gains[e] for e in range(mg.graph.m)), []).append(i)
    return list(blocks.values())


def gf_tables_pair_by_pair(q):
    """The reference for the tables of fields.GF(q): (add, mul, neg, inv),
    every sum and product computed on its own (mod q for a prime, else by
    polynomial arithmetic modulo the field's modulus), and each negative and
    inverse found by searching a row."""
    p, k = _factor_prime_power(q)
    if k == 1:
        add = [[(a + b) % q for b in range(q)] for a in range(q)]
        mul = [[(a * b) % q for b in range(q)] for a in range(q)]
    else:
        modulus = _min_irreducible(p, k)
        polys = [_decode(v, p, k) for v in range(q)]
        add = [[_encode([(x + y) % p for x, y in zip(polys[a], polys[b])], p)
                for b in range(q)] for a in range(q)]
        mul = [[_encode(_poly_mod(_poly_mul(polys[a], polys[b], p), modulus, p), p)
                for b in range(q)] for a in range(q)]
    neg = [row.index(0) for row in add]
    inv = [None] + [row.index(1) for row in mul[1:]]
    return add, mul, neg, inv
