"""Reference routines that several test modules share: matroid equality on
all subsets and on bases one r-subset at a time, the frame and lift rank
formulas, matroid minors, the joint extension G_0, the graphic matroid,
edge-set components, vector rank by elimination, projective-witness
parsing, a biased graph with its isolated vertices dropped, balance
classification on the loop-deleted minor, balancing vertices and
tangledness from rebuilt cycle vertex sets, switching classes on contracted
gain graphs, GF(q) tables built pair by pair, the reduced echelon form and
the matrix product one entry at a time, projective equivalence by a
pivot-basis transfer and diagonal equivalence, switching-and-scaling
equivalence by one switching decision per scalar and its orbits by the
least scalar multiple of each normal form, a biased graph under other
vertex and edge labels, the biased-graph edits
(Delta-Y, Y-Delta, roll-ups, unrolling, fat thetas, one-edge subdivision)
each rebuilding its balanced set by hand, a biased graph with a balanced
loop and a joint added, the edge-set view of cycle-index masks, the
theta-closed sets by a per-node theta test, the graphs of the exhaustive
sweeps, and three constructions that simpler routines replaced: the Delta-Y
matrix exchange through the I(K_4) template with its basis completion,
the subdivision search with two path generators, and forest normalization
with the switching decisions built on it, each on a forest search of its
own.  Then the graph tables (degrees, links, adjacency profiles,
multiplicities, parallel classes) from the edge list, graph isomorphisms
by filtering every vertex permutation, and automorphism generators with each edge map taken from an edge-bijection
search.  Then the number of multigraph isomorphism classes by the
Cauchy-Frobenius (Burnside) lemma, which lists no class, and the same
count for the bias-set orbits of a biased family.  Then the routines
that kept oracles and rank tables replaced: ranks by one greedy per
subset, the kind match by two matroid walks, and roll reachability from
fresh unrollings.  Then the routines that plain-row elimination and the
minimal modular cut replaced: reduction by one axpy per pivot row, the
projective key read off rref with its transform, and the single-element
extension over every set of the modular cut.  Last, a counter of the
builder runs behind the values kept on a graph (graph.kept).

No bmlab command, claim or export needs them, so they live beside the tests
that use them as oracles (tests/test_unreferenced.py keeps src/ that way).
"""

import sys
from collections import Counter
from contextlib import contextmanager
from itertools import combinations, permutations, product
from math import factorial, prod

from bmlab import catalog
from bmlab.bias import (
    ALMOST_BALANCED,
    BALANCED,
    PROPERLY_UNBALANCED,
    BalanceClass,
    BiasedGraph,
    _triangle_vertices,
    biased_equal_unoriented,
    biased_minor,
    classify_balance,
    fat_theta_parts,
    theta_subgraphs,
    unbalancing_classes,
    unroll,
)
from bmlab.canonical import FRAME, LIFT, kind_parts
from bmlab.errors import (
    BadGlue,
    BmlabError,
    BoundExceeded,
    GraphMismatch,
    GroundSetMismatch,
    GroupMismatch,
    NotBalancedTriangle,
    NotTriad,
    NotTriangle,
    ParseError,
    StructureMissing,
)
from bmlab.fields import (
    _decode,
    _encode,
    _factor_prime_power,
    _min_irreducible,
    _poly_mod,
    _poly_mul,
)
from bmlab.formats import parse_matrix
from bmlab.gains import induced_gain, normalize, switch, switching_equivalent
from bmlab.graph import (
    SUBDIVISION_BOUND,
    Embedding,
    MultiGraph,
    edge_bijections,
    find,
)
from bmlab.linalg import (
    FieldMatrix,
    ProjWitness,
    _scaling_normal_form,
    invert,
    left_null_space,
    rank_of_columns,
    rref,
    vector_matroid,
)
from bmlab.matroid import MatroidOracle, frame_matroid, greedy, matroids_equal, rank_table


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


def matroids_equal_by_bases(m1, m2):
    """The reference for matroid.matroids_equal's walk: compare r(E), then
    every r-subset in combinations order by two rank calls, returning the
    first that is a basis of exactly one (or the ground set when the ranks
    differ)."""
    if m1.labels != m2.labels:
        raise GroundSetMismatch("oracles must share the ordered ground set")
    r = m1.full_rank()
    if m2.full_rank() != r:
        return False, m1.labels
    for subset in combinations(range(m1.size), r):
        mask = sum(1 << i for i in subset)
        if (m1.rank_mask(mask) == r) != (m2.rank_mask(mask) == r):
            return False, m1.subset_of(mask)
    return True, None


def mask_components(endpoints, mask):
    """List of (vertex set, edge mask) for the components of G|X, X the
    edges of mask."""
    parent = {}
    edges = [e for e in range(len(endpoints)) if mask >> e & 1]
    for e in edges:
        u, v = endpoints[e]
        for x in (u, v):
            if x not in parent:
                parent[x] = x
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
    comps = {}
    for e in edges:
        r = find(parent, endpoints[e][0])
        vs, em = comps.get(r, (set(), 0))
        u, v = endpoints[e]
        vs.add(u)
        vs.add(v)
        comps[r] = (vs, em | 1 << e)
    return list(comps.values())


def frame_rank_mask(endpoints, unbalanced, mask):
    """r_F(X) = |V(X)| - b(X), b(X) the number of balanced components of
    G|X (Zaslavsky, Biased graphs II); unbalanced lists the unbalanced
    cycles as edge masks."""
    total = 0
    for vs, em in mask_components(endpoints, mask):
        balanced = not any(cm & em == cm for cm in unbalanced)
        total += len(vs) - (1 if balanced else 0)
    return total


def lift_rank_mask(endpoints, unbalanced, mask):
    """r_L(X) = |V(X)| - c(X) + 1 when G|X holds an unbalanced cycle, else
    |V(X)| - c(X), c(X) the number of components of G|X."""
    comps = mask_components(endpoints, mask)
    nv = sum(len(vs) for vs, _ in comps)
    eps = 1 if any(cm & mask == cm for cm in unbalanced) else 0
    return nv - len(comps) + eps


def formula_matroid(omega, frame):
    """F(G,B) (frame=True) or L(G,B) from the rank formulas: the reference
    for matroid.frame_matroid and lift_matroid, whose ranks come from their
    independence steps.  L0(G,B) is formula_matroid(joint_extension(omega),
    False)."""
    g = omega.graph
    unbalanced = [sum(1 << e for e in c.edges) for c in omega.unbalanced_cycles()]
    rank = frame_rank_mask if frame else lift_rank_mask
    return MatroidOracle(g.edge_names, lambda mask: rank(g.edges, unbalanced, mask))


def column_rank_matroid(A):
    """M(A) with the rank of each column subset by its own elimination: the
    reference for linalg.vector_matroid, whose ranks come from its step."""
    cols = A.columns()
    return MatroidOracle(A.col_labels, lambda mask: rank_of_columns(
        A.field, [cols[j] for j in range(A.ncols) if mask >> j & 1]))


def joint_extension(omega):
    """G_0: omega with the joint e0 at a new vertex v0, whose lift matroid
    matroid.complete_lift_matroid builds from omega's step data."""
    g = omega.graph
    g2 = MultiGraph(g.n + 1, list(g.edges) + [(g.n, g.n)], list(g.edge_names) + ["e0"],
                    g.vertex_names + ("v0",))
    return BiasedGraph(g2, omega.balanced, check=False)


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


def drop_isolated(omega):
    """omega with isolated vertices deleted.  Edge ids are unchanged
    (MultiGraph.drop_isolated keeps edge order and names), so the
    balanced set carries over as it is."""
    g, _ = omega.graph.drop_isolated()
    return BiasedGraph(g, omega.balanced, check=False)


def classify_balance_by_minor(omega):
    """The reference for bias.classify_balance: the balancing vertices of
    the minor that deletes every loop, found by a second cycle
    enumeration on that minor."""
    if not omega.unbalanced_cycles():
        return BalanceClass(BALANCED, tuple(range(omega.graph.n)))
    loops = [e for e in range(omega.graph.m) if omega.graph.is_loop(e)]
    stripped = biased_minor(omega, frozenset(), frozenset(loops), check=False).omega
    bv = balancing_vertices_by_spans(stripped)
    return BalanceClass(ALMOST_BALANCED, bv) if bv else BalanceClass(PROPERLY_UNBALANCED, ())


def balancing_vertices_by_spans(omega):
    """The reference for bias.balancing_vertices: the vertices in the vertex
    set of every unbalanced cycle (loops included), each set rebuilt."""
    spans = [omega.graph.vertices_of(c.edges) for c in omega.unbalanced_cycles()]
    return tuple(v for v in range(omega.graph.n) if all(v in s for s in spans))


def is_tangled_by_spans(omega):
    """The reference for bias.is_tangled: the first vertex-disjoint pair of
    unbalanced cycles by a scan of all pairs in combinations order, and
    the balance class of classify_balance_by_minor."""
    unbal = omega.unbalanced_cycles()
    spans = [omega.graph.vertices_of(c.edges) for c in unbal]
    witness = None
    for i, j in combinations(range(len(unbal)), 2):
        if not spans[i] & spans[j]:
            witness = (unbal[i].edges, unbal[j].edges)
            break
    if classify_balance_by_minor(omega).tag != PROPERLY_UNBALANCED:
        return False, witness
    return witness is None, witness


def contraction_classes_by_minors(gfs, forest):
    """The reference for verify._contraction_classes: the indices of the
    gain functions gfs in blocks of equal normal form on the contraction by
    forest, each block and the blocks in order of first member.  Every
    function's minor is built with induced_gain and normalized on its
    spanning forest (all minors of one forest share a graph)."""
    minors = [induced_gain(gg, forest, set())[0] for gg in gfs]
    blocks = {}
    for i, mg in enumerate(minors):
        normal, _ = normalize(mg)
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


def rref_by_entries(A):
    """The reference for linalg.rref: (R, E, pivots) with every entry of
    each row operation computed on its own, and E updated in a loop of
    its own beside A's rows."""
    f = A.field
    rows = [list(r) for r in A.rows]
    n, m = A.nrows, A.ncols
    E = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    pivots = []
    pr = 0
    for col in range(m):
        sel = None
        for i in range(pr, n):
            if rows[i][col] != f.zero:
                sel = i
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        E[pr], E[sel] = E[sel], E[pr]
        inv = f.inv(rows[pr][col])
        rows[pr] = [f.mul(inv, x) for x in rows[pr]]
        E[pr] = [f.mul(inv, x) for x in E[pr]]
        for i in range(n):
            if i != pr and rows[i][col] != f.zero:
                c = rows[i][col]
                rows[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[i], rows[pr])]
                E[i] = [f.sub(x, f.mul(c, y)) for x, y in zip(E[i], E[pr])]
        pivots.append(col)
        pr += 1
        if pr == n:
            break
    R = FieldMatrix(f, rows, A.row_labels, A.col_labels)
    Em = FieldMatrix(f, E, A.row_labels, A.row_labels)
    return R, Em, tuple(pivots)


def matrix_product_by_entries(A, B):
    """The reference for FieldMatrix.mul: entry (i, j) of A * B summed on
    its own over the nonzero a_ik."""
    f = A.field
    rows = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            acc = f.zero
            for k in range(A.ncols):
                a = A.rows[i][k]
                if a != f.zero:
                    acc = f.add(acc, f.mul(a, B.rows[k][j]))
            row.append(acc)
        rows.append(row)
    return FieldMatrix(f, rows, A.row_labels, B.col_labels)


def diagonally_equivalent(A, B):
    """Nonsingular diagonal D1, D2 with D1*A*D2 = B, or None.

    Supports must match; then both matrices have the same scaling normal
    form forest, and D1, D2 are the quotients of their scales (1 on the
    first row of each component), checked on every entry."""
    if (A.nrows, A.ncols) != (B.nrows, B.ncols):
        return None
    f = A.field
    z = f.zero
    for i in range(A.nrows):
        for j in range(A.ncols):
            if (A.rows[i][j] == z) != (B.rows[i][j] == z):
                return None
    a1, a2 = _scaling_normal_form(f, A.rows, A.ncols)
    b1, b2 = _scaling_normal_form(f, B.rows, B.ncols)
    d1 = [f.div(a, b) for a, b in zip(a1, b1)]
    d2 = [f.div(a, b) for a, b in zip(a2, b2)]
    for i in range(A.nrows):
        for j in range(A.ncols):
            if f.mul(d1[i], f.mul(A.rows[i][j], d2[j])) != B.rows[i][j]:
                return None
    return tuple(d1), tuple(d2)


def projectively_equivalent_by_basis_transfer(A, B):
    """The reference for linalg.projectively_equivalent: ProjWitness with
    T*A*S = B, or None.

    Both matrices are reduced to full row rank; ranks must agree and the
    RREF pivot basis of A must be independent in B.  Standardizing B on
    that basis leaves exactly diagonal freedom, decided by
    diagonally_equivalent; the witness is reassembled through the recorded
    transforms."""
    f = A.field
    if A.is_zero() or B.is_zero():
        if A.is_zero() and B.is_zero() and A.nrows == B.nrows:
            return ProjWitness(
                FieldMatrix.identity(f, A.nrows, A.row_labels),
                FieldMatrix.identity(f, A.ncols, A.col_labels),
            )
        return None
    RA, EA, pivA = rref(A)
    RB, EB, pivB = rref(B)
    r = len(pivA)
    if len(pivB) != r:
        return None
    RA_r = FieldMatrix(f, RA.rows[:r], ["s%d" % i for i in range(r)], A.col_labels)
    RB_r = FieldMatrix(f, RB.rows[:r], ["s%d" % i for i in range(r)], B.col_labels)
    # transfer A's pivot basis to B
    M = RB_r.submatrix_cols(list(pivA))
    try:
        Minv = invert(M.with_labels(row_labels=None, col_labels=["x%d" % i for i in range(r)]))
    except ValueError:
        return None
    B_std = Minv.with_labels(row_labels=RB_r.row_labels, col_labels=RB_r.row_labels).mul(RB_r)
    dec = diagonally_equivalent(RA_r, B_std)
    if dec is None:
        return None
    d1, d2 = dec
    # B = EB^-1 * [M*D1 ; 0] * P_r * EA * A * D2
    MD1 = FieldMatrix(f, [[f.mul(M.rows[i][k], d1[k]) for k in range(r)] for i in range(r)])
    stack_rows = list(MD1.rows) + [[f.zero] * r for _ in range(B.nrows - r)]
    Pr_EA = FieldMatrix(f, EA.rows[:r])  # r x nrows(A)
    EBinv = invert(EB)
    Tfull = FieldMatrix(f, stack_rows).mul(Pr_EA)
    T = EBinv.with_labels(row_labels=B.row_labels, col_labels=None).mul(
        Tfull.with_labels(row_labels=EBinv.col_labels, col_labels=A.row_labels)
    )
    S = FieldMatrix.diagonal(f, d2, A.col_labels)
    return ProjWitness(T, S)


def scale_gains(gg, a):
    """a . phi for additive field gains."""
    if not gg.group.is_additive_field_group:
        raise GroupMismatch("scaling needs an additive field group")
    return gg.with_gains({e: gg.group.scale(a, x) for e, x in gg.gains.items()})


def switching_scaling_equivalent_per_scalar(gg1, gg2):
    """The reference for gains.switching_scaling_equivalent: the first
    scalar a in field enumeration order for which a . gg1 is switching
    equivalent to gg2, each decided on its own, with that witness."""
    if gg1.graph != gg2.graph:
        raise GraphMismatch("different underlying graphs")
    if gg1.group != gg2.group or not gg1.group.is_additive_field_group:
        raise GroupMismatch("need matching additive field groups")
    for a in gg1.group.scalars:
        eta = switching_equivalent(scale_gains(gg1, a), gg2)
        if eta is not None:
            return a, eta
    return None


def scaling_orbits(reps):
    """Group normalized additive realizations of one graph into
    switching-and-scaling orbits; returns a list of lists, each orbit in
    input order and the orbits in order of their first member.

    Normalizing commutes with scaling, so two gain functions share an orbit
    iff some scalar multiple of one's normal form is the other's: each is
    filed under the least of its normal form's scalar multiples."""
    orbits = {}
    for gg in reps:
        if gg.graph != reps[0].graph:
            raise GraphMismatch("different underlying graphs")
        if gg.group != reps[0].group or not gg.group.is_additive_field_group:
            raise GroupMismatch("need matching additive field groups")
        gains = normalize(gg)[0].gains
        key = min(tuple(gg.group.scale(a, gains[e]) for e in range(gg.graph.m))
                  for a in gg.group.scalars)
        orbits.setdefault(key, []).append(gg)
    return list(orbits.values())


def relabel(omega, vertex_perm, edge_order):
    """omega with vertex v renamed vertex_perm[v] and edge edge_order[i]
    renumbered i, each edge keeping its orientation: the same biased graph
    under other labels."""
    g = omega.graph
    new_id = {e: i for i, e in enumerate(edge_order)}
    edges = [tuple(vertex_perm[v] for v in g.edges[e]) for e in edge_order]
    return BiasedGraph(MultiGraph(g.n, edges), [{new_id[e] for e in c} for c in omega.balanced])


# -- the biased-graph edits, each rebuilding its balanced set by hand ---------

def delta_y_by_transfer(omega, X):
    """The reference for bias.delta_y: the transferred set
    {C : |C cap X| in {0,2}} union {C delta X : |C cap X| = 1}, cut down
    to the cycles of the new graph."""
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
    balanced = set()
    for c in omega.balanced:
        k = len(c & X)
        if c == X:
            continue
        if k in (0, 2):
            balanced.add(c)
        elif k == 1:
            balanced.add(c ^ X)
    new_cycles = {frozenset(c.edges) for c in g2.cycles()}
    balanced &= new_cycles
    return BiasedGraph(g2, balanced)


def y_delta_by_cases(omega, center):
    """The reference for bias.y_delta: every new cycle sorted by how many
    star edges it meets."""
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
    leafset = set(leaves)
    for e in Y:
        leaf = g.other_end(e, center)
        others = sorted(leafset - {leaf})
        new_edges[e] = (others[0], others[1])
    keep = [v for v in range(g.n) if v != center]
    vmap = {v: i for i, v in enumerate(keep)}
    g2 = MultiGraph(
        g.n - 1,
        [(vmap[u], vmap[v]) for (u, v) in new_edges],
        g.edge_names,
        tuple(g.vertex_names[v] for v in keep),
    )
    balanced = set()
    for c in g2.cycles():
        ce = frozenset(c.edges)
        k = len(ce & Yset)
        if ce == Yset:
            balanced.add(ce)
        elif k in (0, 2):
            if ce in omega.balanced:
                balanced.add(ce)
        elif k == 1:
            if (ce ^ Yset) in omega.balanced:
                balanced.add(ce)
    return BiasedGraph(g2, balanced), vmap


def roll_up_by_cases(omega, u, cls):
    """The reference for bias.roll_up: new joints unbalanced, old loops
    keep their bias, other cycles balanced iff balanced and avoiding cls."""
    cls = frozenset(cls)
    part = unbalancing_classes(omega, u)
    if cls not in part.classes or any(omega.graph.is_loop(e) for e in cls):
        raise StructureMissing("not a link unbalancing class at the vertex")
    g = omega.graph
    new_edges = list(g.edges)
    for e in cls:
        w = g.other_end(e, u)
        new_edges[e] = (w, w)
    g2 = MultiGraph(g.n, new_edges, g.edge_names, g.vertex_names)
    new_cycles = {frozenset(c.edges) for c in g2.cycles()}
    balanced = set()
    for c in new_cycles:
        if len(c) == 1:
            (e,) = c
            if e in cls:
                continue
            if c in omega.balanced:
                balanced.add(c)
        elif c in omega.balanced and not (c & cls):
            balanced.add(c)
    return BiasedGraph(g2, balanced)


def unroll_by_cases(omega, u):
    """The reference for bias.unroll, cycle by cycle."""
    part = unbalancing_classes(omega, u)
    g = omega.graph
    j_prime = sorted(e for e in omega.joints() if u not in g.endpoints(e))
    new_edges = list(g.edges)
    for e in j_prime:
        (w,) = set(g.endpoints(e))
        new_edges[e] = (u, w)
    g2 = MultiGraph(g.n, new_edges, g.edge_names, g.vertex_names)
    balanced = set()
    for c in g2.cycles():
        ce = frozenset(c.edges)
        if len(ce) == 1:
            if ce in omega.balanced:
                balanced.add(ce)
            continue
        if all(len(ce & s) in (0, 2) for s in part.classes):
            balanced.add(ce)
    return BiasedGraph(g2, balanced)


def double_roll_up_by_cases(omega, i, j):
    """The reference for bias.double_roll_up: both rolls written out."""
    shape = fat_theta_parts(omega)
    if shape is None:
        raise StructureMissing("graph is not a fat theta")
    x, y, parts = shape
    if len(parts) < 3:
        raise StructureMissing("double roll-up needs at least three parts")
    if i == j or not (0 <= i < len(parts)) or not (0 <= j < len(parts)):
        raise ValueError("need two distinct part indices")
    g = omega.graph
    E_i = frozenset(e for e in parts[i] if x in g.endpoints(e))
    E_j = frozenset(e for e in parts[j] if y in g.endpoints(e))
    new_edges = list(g.edges)
    for e in E_i:
        w = g.other_end(e, x)
        new_edges[e] = (w, w)
    for e in E_j:
        w = g.other_end(e, y)
        new_edges[e] = (w, w)
    g2 = MultiGraph(g.n, new_edges, g.edge_names, g.vertex_names)
    rolled = E_i | E_j
    balanced = set()
    for c in g2.cycles():
        ce = frozenset(c.edges)
        if ce & rolled:
            continue
        if ce in omega.balanced:
            balanced.add(ce)
    return BiasedGraph(g2, balanced)


def fat_theta_by_cases(parts):
    """The reference for catalog.fat_theta, gluing and rebiasing by hand."""
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
    glued = MultiGraph(n, edges, names)
    balanced = set()
    for c in glued.cycles():
        if any(frozenset(c.edges) <= p for p in part_edge_sets):
            balanced.add(frozenset(c.edges))
    return BiasedGraph(glued, balanced)


def subdivide_edge_by_hand(omega, e):
    """The reference for verify._subdivide_edge: a balanced cycle through e
    takes the new edge along."""
    g = omega.graph
    u, v = g.endpoints(e)
    w = g.n
    edges = list(g.edges)
    edges[e] = (u, w)
    edges.append((w, v))
    names = list(g.edge_names) + [g.edge_names[e] + "b"]
    g2 = MultiGraph(g.n + 1, edges, names)
    balanced = set()
    for c in omega.balanced:
        if e in c:
            balanced.add(frozenset(c | {g.m}))
        else:
            balanced.add(c)
    return BiasedGraph(g2, balanced)


def with_loops(omega):
    """omega with a balanced loop at vertex 0 and a joint at its last
    vertex, for sweeps whose graphs have no loops of their own."""
    g, m = omega.graph, omega.graph.m
    h = MultiGraph(g.n, g.edges + ((0, 0), (g.n - 1, g.n - 1)))
    return BiasedGraph(h, omega.balanced | {frozenset((m,))})


def mask_edge_sets(g, mask):
    """The cycle-index mask as a set of cycles: the frozenset of the edge
    sets of the cycles g.cycles()[i] whose bit i is set."""
    return frozenset(c.edges for i, c in enumerate(g.cycles()) if mask >> i & 1)


def theta_closed_subsets_by_theta_test(g):
    """The reference for catalog.theta_closed_subsets: a depth-first
    backtrack over the cycles in index order, balanced first, that tests
    every theta whose last cycle is i (not exactly two of its cycles
    balanced) at every node of level i."""
    cycles = g.cycles()
    index = {c.edges: i for i, c in enumerate(cycles)}
    # checks[i]: index masks of the thetas whose last cycle is i
    checks = [[] for _ in cycles]
    for _, inside in theta_subgraphs(g):
        idx = [index[c] for c in inside]
        checks[max(idx)].append(sum(1 << i for i in idx))
    found = []

    def extend(i, mask):
        if i == len(cycles):
            found.append(mask)
            return
        for m in (mask | 1 << i, mask):
            if all((m & t).bit_count() != 2 for t in checks[i]):
                extend(i + 1, m)

    extend(0, 0)
    found.sort(key=int.bit_count)
    return found


def sweep_graphs():
    """The graphs of the exhaustive differential sweeps: those of
    multigraphs_up_to_iso(4, 7), then the underlying graphs of the
    catalog's named biased graphs, each once, in named_graphs order."""
    named = []
    for nb in catalog.named_graphs():
        g = nb.omega.graph
        if g not in named:
            named.append(g)
    return list(catalog.multigraphs_up_to_iso(4, 7)) + named


def theta_closed_edge_sets(g):
    """catalog.theta_closed_subsets(g) in its order, each mask as its set of
    cycles (edge sets), the form BiasedGraph takes."""
    return [mask_edge_sets(g, mask) for mask in catalog.theta_closed_subsets(g)]


# -- the constructions the simpler routines replaced ----------------------------

def std_basis_completion(f, vectors, n):
    """Deterministically extend independent column vectors to a basis of
    F^n using standard basis vectors; returns the n x n matrix."""
    cols = [list(v) for v in vectors]
    for i in range(n):
        e_i = [f.one if k == i else f.zero for k in range(n)]
        if rank_of_columns(f, cols + [e_i]) > len(cols):
            cols.append(e_i)
        if len(cols) == n:
            break
    if len(cols) != n:
        raise ValueError("could not complete basis")
    return FieldMatrix(f, [[cols[j][i] for j in range(n)] for i in range(n)])


def delta_y_matrix_by_template(A, triangle_cols):
    """The reference for canonical.delta_y_matrix, the Delta-Y exchange on
    three columns forming a triangle of M(A).

    A is first brought by a recorded row transform to the I(K_4) triangle
    template on those columns, a new row w1 is appended (the others are
    relabelled d1..dn), and the columns are replaced by the star template
    (each new column avoids the rows of its matching triangle column).
    Returns the new matrix.
    """
    f = A.field
    if A.nrows == 2:  # a triangle spans a plane, the template needs 3 rows
        A = FieldMatrix(f, A.rows + ((f.zero,) * A.ncols,), None, A.col_labels)
    idx = [A.col_labels.index(c) for c in triangle_cols]
    if len(idx) != 3:
        raise NotTriangle("need three column labels")
    cols = [A.column(j) for j in idx]
    if rank_of_columns(f, cols) != 2 or any(
        rank_of_columns(f, [c]) != 1 for c in cols
    ) or rank_of_columns(f, cols[:2]) != 2:
        raise NotTriangle("columns do not form a triangle")
    u, v = cols[0], cols[1]
    # express cols[2] = alpha*u + beta*v
    aug = FieldMatrix(f, list(zip(u, v, cols[2])))
    R, E, piv = rref(aug)
    if piv != (0, 1):
        raise NotTriangle("third column not spanned by the first two")
    alpha = R.rows[0][2]
    beta = R.rows[1][2]
    if alpha == f.zero or beta == f.zero:
        raise NotTriangle("a pair of the columns is parallel")
    n = A.nrows
    # E0 maps u -> e1 - e2 and v -> (-alpha/beta)(e1 - e3)
    base = std_basis_completion(f, [u, v], n)
    t1 = [f.zero] * n
    t1[0] = f.one
    t1[1] = f.neg(f.one)
    t2 = [f.zero] * n
    coef = f.neg(f.div(alpha, beta))
    t2[0] = coef
    t2[2] = f.neg(coef)
    Tmat = std_basis_completion(f, [t1, t2], n)
    E0 = Tmat.mul(invert(base))
    invert(E0)  # must be a genuine row transform
    EA = E0.mul(FieldMatrix(f, A.rows))
    new_rows = [list(r) + [] for r in EA.rows] + [[f.zero] * A.ncols]
    nr = n + 1
    # star columns: triangle col on rows {1,2} -> star col rows {3, new};
    # rows {1,3} -> {2, new}; rows {2,3} -> {1, new}
    star = {
        idx[0]: (2, nr - 1),
        idx[1]: (1, nr - 1),
        idx[2]: (0, nr - 1),
    }
    for j, (rp, rn) in star.items():
        for i in range(nr):
            new_rows[i][j] = f.zero
        new_rows[rp][j] = f.one
        new_rows[rn][j] = f.neg(f.one)
    return FieldMatrix(
        f,
        new_rows,
        ["d%d" % (i + 1) for i in range(n)] + ["w1"],
        A.col_labels,
    )


def iter_subdivisions_two_step(host, pattern, accept=None, automorphisms=()):
    """The reference for graph.iter_subdivisions: the same search, whose
    host paths grow through two mutually recursive generators and whose
    blocked vertices are gathered again at every placement."""
    if host.n > SUBDIVISION_BOUND[0] or host.m > SUBDIVISION_BOUND[1]:
        raise BoundExceeded("subdivision host exceeds bound")
    if any(pattern.is_loop(e) for e in range(pattern.m)):
        raise ValueError("loop patterns are not supported")
    if pattern.m > host.m or pattern.n > host.n:
        return
    host_degree = [host.degree(v) for v in range(host.n)]
    pattern_degree = [pattern.degree(v) for v in range(pattern.n)]
    pverts = sorted(range(pattern.n), key=lambda v: -pattern_degree[v])
    pedges = sorted(range(pattern.m))
    # each automorphism as the pattern vertices whose images, in pverts
    # order, make up the key of phi o perm
    moved = [[perm[v] for v in pverts] for perm in automorphisms]

    def least_in_orbit(vmap):
        for images in moved:
            for v, w in zip(pverts, images):
                if vmap[w] != vmap[v]:
                    if vmap[w] < vmap[v]:
                        return False
                    break
        return True

    def assign_edges(idx, vmap, used_edges, used_internal):
        if idx == len(pedges):
            yield Embedding(vmap, dict(current_paths))
            return
        e = pedges[idx]
        a, b = pattern.endpoints(e)
        fa, fb = vmap[a], vmap[b]
        branch_images = set(vmap.values())

        def paths(current, visited, edges_used_path):
            if current == fb and edges_used_path:
                yield tuple(edges_used_path)
                return
            for he in host.incident_edges(current):
                if he in used_edges or he in edges_used_path or host.is_loop(he):
                    continue
                w = host.other_end(he, current)
                if w == fb:
                    yield from paths_step(w, visited, edges_used_path, he)
                    continue
                if w in visited or w in branch_images or w in used_internal:
                    continue
                yield from paths_step(w, visited | {w}, edges_used_path, he)

        def paths_step(w, visited, edges_used_path, he):
            edges_used_path = edges_used_path + [he]
            if w == fb:
                yield tuple(edges_used_path)
            else:
                yield from paths(w, visited, edges_used_path)

        for path in paths(fa, {fa}, []):
            internal = set()
            cur = fa
            for he in path[:-1]:
                cur = host.other_end(he, cur)
                internal.add(cur)
            current_paths[e] = path
            if accept is None or accept(e, current_paths):
                yield from assign_edges(
                    idx + 1, vmap, used_edges | set(path), used_internal | internal
                )
            del current_paths[e]

    current_paths = {}

    def assign_vertices(i, vmap, used):
        if i == len(pverts):
            if least_in_orbit(vmap):
                yield from assign_edges(0, vmap, frozenset(), frozenset())
            return
        pv = pverts[i]
        for hv in range(host.n):
            if hv in used:
                continue
            if host_degree[hv] < pattern_degree[pv]:
                continue
            vmap[pv] = hv
            yield from assign_vertices(i + 1, vmap, used | {hv})
            del vmap[pv]

    yield from assign_vertices(0, {}, frozenset())


def normalize_by_dfs(gg, forest=None):
    """The reference for gains.normalize, on its own forest search: forest
    (default: the spanning forest) is checked for maximality, and each
    component is walked depth first from its smallest vertex along the
    forest edges in sorted order.  Returns (normalized gain graph, eta)."""
    g = gg.graph
    maximal = g.spanning_forest()
    forest = frozenset(maximal if forest is None else forest)
    if len(forest) != len(maximal) or len(g.spanning_forest(forest)) != len(forest):
        raise BmlabError("edge set is not a maximal forest")
    group = gg.group
    eta = {}
    adj = {v: [] for v in range(g.n)}
    for e in forest:
        u, v = g.endpoints(e)
        adj[u].append((v, e))
        adj[v].append((u, e))
    for comp in g.components():
        root = min(comp)
        eta[root] = group.identity
        stack = [root]
        while stack:
            v = stack.pop()
            for (w, e) in sorted(adj[v]):
                if w in eta:
                    continue
                u0, v0 = g.endpoints(e)
                phi = gg.gains[e] if (u0, v0) == (v, w) else group.inv(gg.gains[e])
                # want phi^eta(v->w) = identity: eta(w) = phi(v->w)^-1 eta(v)
                eta[w] = group.op(group.inv(phi), eta[v])
                stack.append(w)
    return switch(gg, eta), eta


def compose_switchings(group, eta1, eta2):
    keys = set(eta1) | set(eta2)
    return {
        v: group.op(eta1.get(v, group.identity), eta2.get(v, group.identity))
        for v in keys
    }


def invert_switching(group, eta):
    return {v: group.inv(x) for v, x in eta.items()}


def switching_equivalent_by_dfs(gg1, gg2):
    """The reference for gains.switching_equivalent: witness eta with
    switch(gg1, eta) == gg2, or None, from normalize_by_dfs."""
    if gg1.graph != gg2.graph:
        raise GraphMismatch("different underlying graphs")
    if gg1.group != gg2.group:
        raise GroupMismatch("different gain groups")
    group = gg1.group
    forest = gg1.graph.spanning_forest()
    n1, eta1 = normalize_by_dfs(gg1, forest)
    n2, eta2 = normalize_by_dfs(gg2, forest)
    if n1.gains != n2.gains:
        return None
    eta = compose_switchings(group, eta1, invert_switching(group, eta2))
    assert switch(gg1, eta).gains == gg2.gains
    return eta


def switching_scaling_equivalent_by_dfs(gg1, gg2):
    """The reference for gains.switching_scaling_equivalent: witness
    (a, eta) with switch(a . gg1, eta) == gg2, or None, from
    normalize_by_dfs (a is n2 / n1 at n1's first nonzero gain)."""
    if gg1.graph != gg2.graph:
        raise GraphMismatch("different underlying graphs")
    if gg1.group != gg2.group or not gg1.group.is_additive_field_group:
        raise GroupMismatch("need matching additive field groups")
    group = gg1.group
    forest = gg1.graph.spanning_forest()
    n1, eta1 = normalize_by_dfs(gg1, forest)
    n2, eta2 = normalize_by_dfs(gg2, forest)
    lead = next((e for e, x in n1.gains.items() if x != group.identity), None)
    a = group.scalars[0] if lead is None else group.field.div(n2.gains[lead], n1.gains[lead])
    if a == group.identity or any(group.scale(a, x) != n2.gains[e] for e, x in n1.gains.items()):
        return None
    eta = compose_switchings(group, {v: group.scale(a, x) for v, x in eta1.items()},
                             invert_switching(group, eta2))
    scaled = gg1.with_gains({e: group.scale(a, x) for e, x in gg1.gains.items()})
    assert switch(scaled, eta).gains == gg2.gains
    return a, eta


# -- graph tables from the edge list ----------------------------------------------

def degrees(g):
    """The reference for MultiGraph.degrees: each edge adds 1 at each end,
    so a loop adds 2."""
    return [sum((a == v) + (b == v) for a, b in g.edges) for v in range(g.n)]


def links(g):
    """The reference for MultiGraph.links: per vertex v, (edge, far end) of
    each non-loop edge at v, by edge id."""
    return [[(e, b if a == v else a) for e, (a, b) in enumerate(g.edges) if a != b and v in (a, b)]
            for v in range(g.n)]


def adjacency_profile(g, v):
    """The reference for MultiGraph.profiles[v]: (loops at v, the sorted
    numbers of edges joining v to each neighbour)."""
    mult = {}
    loops = 0
    for e in g.incident_edges(v):
        if g.is_loop(e):
            loops += 1
        else:
            w = g.other_end(e, v)
            mult[w] = mult.get(w, 0) + 1
    return loops, sorted(mult.values())


def multiplicities(g):
    """The reference for MultiGraph.multiplicity: mult[u][v], the number of
    edges joining u and v (loops at u on the diagonal)."""
    mult = [[0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        mult[u][v] += 1
        if u != v:
            mult[v][u] += 1
    return mult


def parallel_classes(g):
    """The reference for MultiGraph.parallel_classes: edge ids grouped by
    unordered endpoint pair, each group in id order."""
    classes = {}
    for e, (u, v) in enumerate(g.edges):
        classes.setdefault((u, v) if u <= v else (v, u), []).append(e)
    return classes


# -- isomorphisms by filtering every permutation ---------------------------------

def graph_isomorphisms_by_permutations(g, h):
    """The reference for graph.graph_isomorphisms: every vertex permutation,
    in lexicographic order, that matches the adjacency profiles and carries
    each parallel class of g onto a class of h of the same size."""
    if g.n != h.n or g.m != h.m:
        return
    if sorted(adjacency_profile(g, v) for v in range(g.n)) != sorted(
        adjacency_profile(h, v) for v in range(h.n)
    ):
        return
    gm, hm = parallel_classes(g), parallel_classes(h)
    profile_g = {v: adjacency_profile(g, v) for v in range(g.n)}
    profile_h = {v: adjacency_profile(h, v) for v in range(h.n)}
    for perm in permutations(range(h.n)):
        if any(profile_g[v] != profile_h[perm[v]] for v in range(g.n)):
            continue
        if all(len(hm.get((perm[u], perm[v]) if perm[u] <= perm[v] else (perm[v], perm[u]), ()))
               == len(es) for (u, v), es in gm.items()):
            yield perm


def automorphism_generators_by_edge_bijections(g):
    """The reference for catalog.automorphism_generators: the first edge
    bijection of an edge_bijections search for each vertex automorphism,
    then the transpositions of neighbouring parallel edges, without the
    identity."""
    identity = tuple(range(g.m))
    gens = []
    for perm in graph_isomorphisms_by_permutations(g, g):
        emap = next(edge_bijections(g, g, perm))
        gens.append(tuple(emap[e] for e in identity))
    for es in parallel_classes(g).values():
        for a, b in zip(es, es[1:]):
            t = list(identity)
            t[a], t[b] = b, a
            gens.append(tuple(t))
    return [t for t in gens if t != identity]


# -- orbit counts that list no orbit --------------------------------------------

def _cycle_types(n, largest=None):
    """The partitions of n, as non-increasing tuples: the cycle types of
    the permutations of n points."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _cycle_types(n - k, k):
            yield (k,) + rest


def _pair_orbits(perm):
    """The orbits of the vertex permutation perm (a list, v -> perm[v]) on
    the pairs (u, v), u < v."""
    orbits, done = [], set()
    for pair in combinations(range(len(perm)), 2):
        orbit = []
        while pair not in done:
            done.add(pair)
            orbit.append(pair)
            pair = tuple(sorted((perm[pair[0]], perm[pair[1]])))
        if orbit:
            orbits.append(orbit)
    return orbits


def _connected_min_degree_2_vectors(n, orbits, max_edges):
    """How many choices of one multiplicity per pair orbit, with at most
    max_edges edges in all, give a connected graph on range(n) whose
    vertices all have degree 2 or more."""
    deg = [0] * n
    chosen = []
    count = 0

    def connected():
        edges = [p for orbit, k in zip(orbits, chosen) if k for p in orbit]
        reach, grew = {0}, True
        while grew:
            grew = False
            for u, v in edges:
                if (u in reach) != (v in reach):
                    reach |= {u, v}
                    grew = True
        return len(reach) == n

    def rec(i, left):
        nonlocal count
        if sum(2 - d for d in deg if d < 2) > 2 * left:
            return  # each edge left adds 2 to the degree sum
        if i == len(orbits):
            count += min(deg) >= 2 and connected()
            return
        orbit = orbits[i]
        for k in range(left // len(orbit) + 1):
            for u, v in orbit:
                deg[u] += k
                deg[v] += k
            chosen.append(k)
            rec(i + 1, left - k * len(orbit))
            chosen.pop()
            for u, v in orbit:
                deg[u] -= k
                deg[v] -= k

    rec(0, max_edges)
    return count


def multigraph_classes_by_burnside(max_vertices, max_edges):
    """The number of isomorphism classes of connected loopless multigraphs
    of minimum degree 2 on 2 to max_vertices vertices with at most
    max_edges edges, by the Cauchy-Frobenius lemma: for each n, the mean
    over S_n of the number of such multiplicity vectors on the vertex
    pairs that a permutation fixes.  Conjugate permutations fix equally
    many, so one permutation per cycle type is weighted by its class size,
    n! / z.  A fixed vector is constant on the permutation's orbits of
    pairs, and connectedness and minimum degree are invariant, so the
    fixed vectors are the multiplicities per pair orbit that pass both
    tests.  No class is listed, so this fails differently from
    catalog.multigraphs_up_to_iso."""
    total = 0
    for n in range(2, max_vertices + 1):
        fixed = 0
        for cycle_type in _cycle_types(n):
            perm, start = [], 0
            for k in cycle_type:
                perm += list(range(start + 1, start + k)) + [start]
                start += k
            z = prod(k ** c * factorial(c) for k, c in Counter(cycle_type).items())
            fixed += factorial(n) // z * _connected_min_degree_2_vectors(
                n, _pair_orbits(perm), max_edges)
        assert fixed % factorial(n) == 0
        total += fixed // factorial(n)
    return total


def bias_set_orbits_by_burnside(max_vertices, max_edges, graph_ok, predicate):
    """The number of members of catalog.biased_family(max_vertices,
    max_edges, graph_ok, predicate), by the Cauchy-Frobenius lemma on each
    graph: the mean over its full edge-automorphism group of the number of
    theta-closed bias sets passing the predicate that an element fixes.
    An element is a vertex automorphism (every vertex permutation kept by
    graph_isomorphisms_by_permutations) with a bijection from each class
    of parallel edges onto the class it maps to; one whose edge map
    repeats another's only counts it twice, which leaves the mean at the
    number of orbits.  An edge map permutes the cycles, and a bias set is
    fixed when it is a union of that permutation's orbits.  The predicate
    must be invariant under relabelling.  No orbit is listed, and
    catalog.automorphism_generators is not used, so this fails differently
    from catalog.bias_sets_up_to_aut."""
    total = 0
    for g in catalog.multigraphs_up_to_iso(max_vertices, max_edges):
        if not graph_ok(g):
            continue
        cycles = g.cycles()
        index = g.cycle_masks().index
        passing = [bal for bal in catalog.theta_closed_subsets(g) if predicate(BiasedGraph(
            g, [c.edges for i, c in enumerate(cycles) if bal >> i & 1], check=False))]
        classes = parallel_classes(g)
        order = fixed = 0
        for perm in graph_isomorphisms_by_permutations(g, g):
            targets = [classes[tuple(sorted((perm[u], perm[v])))] for u, v in classes]
            for images in product(*(permutations(es) for es in targets)):
                emap = {e: f for es, img in zip(classes.values(), images)
                        for e, f in zip(es, img)}
                cmap = [index[frozenset(emap[e] for e in c.edges)] for c in cycles]
                orbits = []
                for i in range(len(cycles)):
                    orbit, j = 0, i
                    while not orbit >> j & 1:
                        orbit |= 1 << j
                        j = cmap[j]
                    if orbit.bit_count() > 1 and orbit not in orbits:
                        orbits.append(orbit)
                order += 1
                fixed += sum(all(bal & o in (0, o) for o in orbits) for bal in passing)
        assert fixed % order == 0
        total += fixed // order
    return total


# -- the routines that the kept oracles and rank tables replaced -----------------

def ranks_by_greedy(M):
    """The reference for matroid.rank_table: the rank of each subset, in
    mask order, by a greedy of its own from the empty set's state."""
    start, extend = M.independence_step()
    return [len(greedy(extend, start, [i for i in range(M.size) if mask >> i & 1]))
            for mask in range(1 << M.size)]


def matched_kinds_by_two_walks(MA, omega, hint):
    """The reference for canonical._matched_kinds: MA walked against F(omega)
    and against L(omega), the matching kinds with the hint kind first."""
    matched = [k for k in (FRAME, LIFT) if matroids_equal(MA, kind_parts(k).matroid(omega))[0]]
    return sorted(matched, key=lambda k: k != hint)


def roll_reachable_by_unrolling(omega, variant):
    """The reference for canonical._roll_reachable: the full unrollings of
    omega and of the variant at each balancing vertex of omega, each
    built afresh, compared ignoring edge orientations."""
    for u in classify_balance(omega).balancing_vertices:
        try:
            a, b = unroll(omega, u), unroll(variant, u)
        except BmlabError:
            continue
        if biased_equal_unoriented(a, b):
            return True
    return False


# -- the linalg and modular-cut routines that plain-row elimination replaced ------

def reduce_by_axpy(f, basis, row):
    """The reference for the fields' reduce: one axpy per pivot row whose
    lead entry in the row so far is nonzero."""
    for lead, b in basis:
        c = row[lead]
        if c != f.zero:
            row = f.axpy(f.neg(c), b, row)
    return row


def projective_key_through_rref(A):
    """The reference for linalg.projective_key: the key read off rref(A),
    whose transform E is built and never read, and the scaling normal
    form of its nonzero rows."""
    f = A.field
    if A.is_zero():
        return ("zero", A.nrows)
    R, _, piv = rref(A)
    r = len(piv)
    rows = R.rows[:r]
    d1, d2 = _scaling_normal_form(f, rows, A.ncols)
    normal = tuple(tuple(f.mul(d1[i], f.mul(rows[i][j], d2[j])) for j in range(A.ncols))
                   for i in range(r))
    return ("mat", r, piv, normal)


def extension_over_every_cut_set(A, target_oracle, f):
    """The reference for verify._extension_exists and verify._cut_span:
    (answer, W), with W's basis the left null space of the rows that span
    the left null spaces of A_S for every S of the modular cut, not only
    the inclusion-minimal ones.  W is None when M(A) is not the target
    with l1 deleted, which answers False at once."""
    n = A.ncols
    ranks = rank_table(vector_matroid(A))
    target = rank_table(target_oracle)
    if target[:1 << n] != ranks:
        return False, None
    H = []
    for S in range(1 << n):
        if target[S | 1 << n] == ranks[S]:
            H += left_null_space(A.submatrix_cols([j for j in range(n) if S >> j & 1]))
    W = left_null_space(FieldMatrix(f, [[h[i] for h in H] for i in range(A.nrows)]))
    labels = A.col_labels + ("l1",)
    for lead in range(len(W)):
        for tail in product(range(f.q), repeat=len(W) - lead - 1):
            vec = W[lead]
            for c, w in zip(tail, W[lead + 1:]):
                vec = f.axpy(c, w, vec)
            B = FieldMatrix(f, [list(r) + [vec[i]] for i, r in enumerate(A.rows)],
                            A.row_labels, labels)
            if matroids_equal(vector_matroid(B), target_oracle)[0]:
                return True, W
    return False, W


@contextmanager
def count_builds(*kept_fns):
    """A Counter, while the block runs, from the name of each function made
    by graph.kept (for a kept property, its fget) to the number of times
    its builder ran: a call answered from the memo counts nothing."""
    names = {fn.__wrapped__.__code__: fn.__name__ for fn in kept_fns}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(outer)
