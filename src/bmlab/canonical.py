"""Canonical frame/lift matrices from gain graphs, matrix-level Delta-Y
exchanges, the canonicalization of arbitrary representations, and
exhaustive representation enumeration.

Frame matrix over F^x gains: rows indexed by vertices, columns by edges;
a link column is tail_hat - phi(e) head_hat (on the declared orientation),
a joint column is head_hat, a balanced loop is the zero column.

Complete lift matrix over F^+ gains: rows are the vertices plus an extra
row v0; a link column is tail_hat - head_hat + psi(e) v0_hat, joints and
the extra element e0 give v0_hat, balanced loops the zero column.  The
lift matrix drops the e0 column.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations, product

from .bias import (
    BiasedGraph,
    biased_equal_unoriented,
    classify_balance,
    unroll,
)
from .errors import (
    BmlabError,
    BoundExceeded,
    GraphMismatch,
    GroupMismatch,
    MatroidMismatch,
    NoBasis,
    NotTriad,
    NotTriangle,
    NotVertically2Connected,
)
from .fields import gf
from .gains import (
    AdditiveGroup,
    GainGraph,
    MultiplicativeGroup,
    induced_bias,
    switching_equivalent,
    switching_scaling_equivalent,
)
from .graph import find, kept
from .linalg import (
    FieldMatrix,
    ProjWitness,
    dual_matrix,
    invert,
    left_null_space,
    projective_key,
    rank_of_columns,
    rref,
    vector_matroid,
)
from .matroid import (
    complete_lift_matroid,
    frame_equals_lift,
    frame_matroid,
    greedy,
    lift_matroid,
    matroids_equal,
)

FRAME = "frame"
LIFT = "lift"
COMPLETE_LIFT = "lift0"
KINDS = (FRAME, LIFT, COMPLETE_LIFT)
ENUMERATION_WORK_BOUND = 100_000  # r-subsets listed plus basis tests made


@dataclass
class CanonicalForm:
    kind: str
    gain_graph: GainGraph
    matrix: FieldMatrix


def frame_matrix(gg):
    """Canonical frame matrix of an F^x gain graph."""
    if not isinstance(gg.group, MultiplicativeGroup):
        raise GroupMismatch("frame matrices need multiplicative field gains")
    f = gg.group.field
    g = gg.graph
    rows = [[f.zero] * g.m for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            if gg.gains[e] != f.one:
                rows[v][e] = f.one  # joint: head_hat
        else:
            rows[u][e] = f.add(rows[u][e], f.one)
            rows[v][e] = f.sub(rows[v][e], gg.gains[e])
    mat = FieldMatrix(f, rows, g.vertex_names, g.edge_names)
    return CanonicalForm(FRAME, gg, mat)


def complete_lift_matrix(gg):
    """Canonical complete lift matrix of an F^+ gain graph (extra row v0,
    extra column e0)."""
    if not isinstance(gg.group, AdditiveGroup):
        raise GroupMismatch("lift matrices need additive field gains")
    f = gg.group.field
    g = gg.graph
    rows = [[f.zero] * (g.m + 1) for _ in range(g.n + 1)]
    v0 = g.n
    for e, (u, v) in enumerate(g.edges):
        if u == v:
            if gg.gains[e] != f.zero:
                rows[v0][e] = f.one  # joint: v0_hat
        else:
            rows[u][e] = f.add(rows[u][e], f.one)
            rows[v][e] = f.sub(rows[v][e], f.one)
            rows[v0][e] = gg.gains[e]
    rows[v0][g.m] = f.one
    mat = FieldMatrix(
        f,
        rows,
        tuple(g.vertex_names) + ("v0",),
        tuple(g.edge_names) + ("e0",),
    )
    return CanonicalForm(COMPLETE_LIFT, gg, mat)


def lift_matrix(gg):
    """Canonical lift matrix: complete lift with the e0 column dropped."""
    form = complete_lift_matrix(gg)
    mat = form.matrix.submatrix_cols(list(range(gg.graph.m)))
    return CanonicalForm(LIFT, gg, mat)


# -- the kinds -------------------------------------------------------------------

KindParts = namedtuple("KindParts", "group matrix matroid equivalent rows parse")


def kind_parts(kind):
    """The gain group (a class taking the field order), canonical matrix,
    matroid, gain-class equivalence, row transform and column parser of a
    kind.  The complete lift is not canonicalized, so it has no row
    transform or parser.  Looked up at call time so that replaced module
    functions are used."""
    return {
        FRAME: KindParts(MultiplicativeGroup, frame_matrix, frame_matroid,
                         switching_equivalent, _frame_rows, _parse_frame_columns),
        LIFT: KindParts(AdditiveGroup, lift_matrix, lift_matroid,
                        switching_scaling_equivalent, _lift_rows, _parse_lift_columns),
        COMPLETE_LIFT: KindParts(AdditiveGroup, complete_lift_matrix, complete_lift_matroid,
                                 switching_scaling_equivalent, None, None),
    }[kind]


def gain_classes(kind, ggs):
    """Class labels, in order of first appearance, of the realizations ggs
    of one graph, which must be normalized on its spanning forest: distinct
    ones are distinct switching classes (frame); for the additive kinds,
    ones in a switching-and-scaling class differ by a scalar, so each is
    keyed by its gains in edge order over its first nonzero gain."""
    if not ggs:
        return []
    graph, group = ggs[0].graph, ggs[0].group
    forest = graph.spanning_forest()
    for gg in ggs:
        if gg.graph != graph:
            raise GraphMismatch("different underlying graphs")
        if gg.group != group or kind != FRAME and not group.is_additive_field_group:
            raise GroupMismatch("need one group, additive for the lift kinds")
        if any(gg.gains[e] != group.identity for e in forest):
            raise BmlabError("gain function not normalized on the spanning forest")
    if kind == FRAME:
        return list(range(len(ggs)))

    def key(gains):
        lead = next((x for x in gains if x != group.identity), group.field.one)
        return tuple(group.scale(group.field.inv(lead), x) for x in gains)

    labels = {}
    return [labels.setdefault(key(gg.gains.values()), len(labels)) for gg in ggs]


# -- matrix-level Delta-Y ------------------------------------------------------

def delta_y_matrix(A, triangle_cols):
    """Delta-Y exchange on three columns a, b, c forming a triangle of M(A).

    With c = alpha a + beta b, the generalized parallel connection of M(A)
    and M(K_4) along the triangle, less the triangle (Oxley, Semple and
    Vertigan, Generalized Delta-Y exchange and k-regular matroids, JCTB 79,
    2000), is represented by A with a zero row w1 appended (the others are
    relabelled d1..dn) and a, b, c replaced by the star columns
    (beta b; 1), (-alpha a; 1) and (0; 1): each star column is the K_4 edge
    opposite its triangle column.  Returns the new matrix.
    """
    f = A.field
    if len(triangle_cols) != 3:
        raise NotTriangle("need three column labels")
    idx = [A.col_labels.index(c) for c in triangle_cols]
    R, _, piv = rref(FieldMatrix(f, [[row[j] for j in idx] for row in A.rows]))
    if piv != (0, 1) or f.zero in (R.rows[0][2], R.rows[1][2]):
        raise NotTriangle("columns do not form a triangle")
    alpha, beta = R.rows[0][2], R.rows[1][2]
    a, b = A.column(idx[0]), A.column(idx[1])
    star = {idx[0]: f.scale(beta, b),
            idx[1]: f.scale(f.neg(alpha), a),
            idx[2]: [f.zero] * A.nrows}
    rows = [[star[j][i] if j in star else x for j, x in enumerate(row)]
            for i, row in enumerate(A.rows)]
    rows.append([f.one if j in star else f.zero for j in range(A.ncols)])
    return FieldMatrix(f, rows, ["d%d" % (i + 1) for i in range(A.nrows)] + ["w1"],
                       A.col_labels)


def y_delta_matrix(A, triad_cols):
    """Y-Delta exchange on three columns forming a triad of M(A).

    Y-Delta is Delta-Y of the dual: nabla(M) = (Delta(M*))* (Oxley, Semple
    and Vertigan, Generalized Delta-Y exchange and k-regular matroids, JCTB
    79, 2000), and a triad of M is a triangle of M*.  Returns a matrix with
    rank(A) - 1 rows.
    """
    if len(triad_cols) != 3:
        raise NotTriad("need three column labels")
    cols = [A.column(A.col_labels.index(c)) for c in triad_cols]
    if rank_of_columns(A.field, cols) != 3:
        raise NotTriad("triad columns must be independent")
    try:
        return dual_matrix(delta_y_matrix(dual_matrix(A), triad_cols))
    except NotTriangle as exc:
        raise NotTriad("not a triad: %s" % exc)


# -- canonicalization ----------------------------------------------------------

@dataclass
class CanonicalizeResult:
    status: str  # "ok" | "undecided"
    kind: str = None
    form: CanonicalForm = None
    witness: ProjWitness = None
    variant: BiasedGraph = None  # the biased graph the form is particular to
    rolled_edges: tuple = ()  # edges turned into joints (almost-balanced regime)
    other_kind: str = None  # "ok" / "no" / "not-attempted" for the other kind
    reason: str = None


def canonicalize_representation(A, omega, hint=None):
    """Decide which canonical form A is projectively equivalent to.

    Requires vector_matroid(A) to equal F(omega) or L(omega), that is to
    have the same rank and the same bases (MatroidMismatch otherwise), and
    omega vertically 2-connected.
    For properly unbalanced omega the result is particular to omega; for
    almost-balanced omega it may be particular to a roll-up variant, with
    the rolled edges reported.  Returns witness with T*A*S equal to the
    canonical matrix entry-exactly.

    Never wrong; "undecided" means that the search found no canonical form,
    which is not a bound running out: either rank(A) != |V| ("rank != |V|",
    as for a balanced omega, whose F and L have rank |V| - 1), or no choice
    of vertex rows gives a gain function realizing omega ("no <kind>
    shaping found").  The latter also covers inputs with no canonical form
    at all: over GF(2), F of a link with a joint at each end is U_{2,3},
    but the trivial gain group GF(2)^x makes no loop unbalanced.
    """
    g = omega.graph
    if tuple(A.col_labels) != tuple(g.edge_names):
        raise MatroidMismatch("matrix columns must be labeled by the edges")
    ok2, _ = g.is_vertically_k_connected(2)
    if not ok2:
        raise NotVertically2Connected("canonicalization needs vertical 2-connectivity")
    MA = vector_matroid(A)
    matched = _matched_kinds(MA, omega, hint)
    if not matched:
        raise MatroidMismatch("matrix does not represent F(omega) or L(omega)")
    rows = _vertex_rows(A, omega)
    result, reasons = None, []
    for kind in matched:
        if isinstance(rows, CanonicalizeResult):
            res = rows
        else:
            res = _attempt(A, MA, omega, kind, rows)
        if result is not None:
            result.other_kind = "ok" if res.status == "ok" else "no"
        elif res.status == "ok":
            result = res
            result.other_kind = "no" if reasons else "not-attempted"
        else:
            reasons.append("%s: %s" % (kind, res.reason))
    return result or CanonicalizeResult(status="undecided", reason="; ".join(reasons))


def _matched_kinds(MA, omega, hint):
    """The kinds whose matroid of omega is MA, the hint kind first (frame
    when the hint is neither kind).  Only the first kind's matroid is
    walked against MA.  Matroid equality is transitive, so the other kind
    matches exactly when the first does and F(omega) = L(omega), which
    frame_equals_lift decides on the graph; when the first does not match,
    the other is walked only if F(omega) != L(omega)."""
    first = hint if hint in (FRAME, LIFT) else FRAME
    other = LIFT if first == FRAME else FRAME
    same = frame_equals_lift(omega)
    if matroids_equal(MA, kind_parts(first).matroid(omega))[0]:
        return [first, other] if same else [first]
    if same or not matroids_equal(MA, kind_parts(other).matroid(omega))[0]:
        return []
    return [other]


def _vertex_rows(A, omega):
    """The step both kinds share: the row of vertex x spans the left null
    space of the columns that avoid x.  Returns (R, E, fixed, free) -- the
    nonzero rows of rref(A), the matching rows of its transform, the
    vertices whose row is determined up to scale, and the balancing
    vertices whose rows span a plane -- or an undecided result.

    Vertical 2-connectivity keeps G - x connected, so in F or L of rank
    |V| the columns avoiding x have rank |V| - 1, or |V| - 2 exactly when
    G - x has a vertex and is balanced: every row space is a line or, at a
    balancing vertex, a plane."""
    f = A.field
    g = omega.graph
    R, E, piv = rref(A)
    r = len(piv)
    if r != g.n:
        return CanonicalizeResult(status="undecided", reason="rank != |V|")
    Rr = R.rows[:r]
    fixed, free = {}, {}
    for x in range(g.n):
        cols = [e for e in range(g.m) if x not in g.endpoints(e)]
        null = left_null_space(FieldMatrix(f, [[row[j] for j in cols] for row in Rr]))
        if len(null) == 1:
            fixed[x] = null[0]
        else:
            free[x] = null
    return FieldMatrix(f, Rr), FieldMatrix(f, E.rows[:r]), fixed, free


def _attempt(A, MA, omega, kind, rows):
    """Shape the vertex rows for one kind, read a gain graph off the shaped
    matrix and certify it.  MA must be omega's matroid of the kind.  A form
    particular to omega itself is returned at once; the first one particular
    to a roll-up variant only if none is found.

    A candidate with no edge rolled has omega's own graph and bias, so
    omega is its variant.  The column parsers make every column of the
    shaped matrix W = T R a nonzero multiple of the candidate's canonical
    column (or zero with it), and T has full column rank, so the
    candidate's kind matroid is M(A) = MA.  A cycle is balanced iff it is
    a circuit of that matroid, so its bias is omega's."""
    parts = kind_parts(kind)
    f = A.field
    g = omega.graph
    R, E, fixed, free = rows
    fallback = None
    for choice in _line_choices(f, free):
        T = parts.rows(f, [fixed[x] if x in fixed else choice[x] for x in range(g.n)])
        if T is None:
            continue
        W = T.mul(R)
        parsed = parts.parse(W, omega, f)
        if parsed is None:
            continue
        group, edges, gains, rolled = parsed
        if rolled and fallback is not None:
            continue  # only the first roll-up result is kept
        if rolled:
            gg = GainGraph(g.with_edges(edges), group, gains)
            variant = induced_bias(gg)
            if not matroids_equal(MA, parts.matroid(variant))[0]:
                continue
            if not _roll_reachable(omega, variant):
                continue
        else:
            gg, variant = GainGraph(g, group, gains), omega
        form = parts.matrix(gg)
        scales = _column_scales(W, form.matrix, f)
        if scales is None:
            continue
        witness = ProjWitness(
            T.mul(E).with_labels(
                row_labels=form.matrix.row_labels, col_labels=A.row_labels
            ),
            FieldMatrix.diagonal(f, scales, A.col_labels),
        )
        if not witness.verify(A, form.matrix):
            continue
        result = CanonicalizeResult(
            status="ok",
            kind=kind,
            form=form,
            witness=witness,
            variant=variant,
            rolled_edges=tuple(sorted(rolled)),
        )
        if not rolled:
            return result
        fallback = result
    return fallback or CanonicalizeResult(
        status="undecided", reason="no %s shaping found" % kind
    )


def _frame_rows(f, rows):
    """Frame row transform: the vertex rows, kept only when invertible."""
    T = FieldMatrix(f, rows)
    try:
        invert(T)
    except ValueError:
        return None
    return T


def _lift_rows(f, rows):
    """Lift row transform: the vertex rows scaled to sum to zero, then the
    first standard basis row completing them to full rank (the v0 row)."""
    r = len(rows)
    null = [a for a in left_null_space(FieldMatrix(f, rows)) if f.zero not in a]
    if len(null) != 1:
        return None
    vrows = [f.scale(a, row) for a, row in zip(null[0], rows)]
    for i in range(r):
        v0 = [f.one if k == i else f.zero for k in range(r)]
        if rank_of_columns(f, [list(col) for col in zip(*(vrows + [v0]))]) == r:
            return FieldMatrix(f, vrows + [v0])
    return None


def _line_choices(f, free_rows):
    """Iterate over choices of one vector per 2-dimensional row space."""
    if not free_rows:
        yield {}
        return
    keys = sorted(free_rows)
    per_key = []
    for x in keys:
        b1, b2 = free_rows[x]
        lines = [b1, b2]
        for lam in f.elements:
            if lam != f.zero:
                lines.append(tuple(f.axpy(lam, b2, b1)))
        per_key.append(lines)
    for combo in product(*per_key):
        yield dict(zip(keys, combo))


def _parse_frame_columns(W, omega, f):
    """Read multiplicative gains off a vertex-row-shaped matrix; returns
    (group, edges, gains, rolled edge ids) or None."""
    g = omega.graph
    group = MultiplicativeGroup(f.q)
    new_edges = []
    gains = {}
    rolled = []
    for e in range(g.m):
        u, v = g.edges[e]
        support = [i for i in range(g.n) if W.rows[i][e] != f.zero]
        if u == v:
            if frozenset((e,)) in omega.balanced:
                if support:
                    return None
                new_edges.append((u, v))
                gains[e] = f.one
            else:
                if support != [u]:
                    return None
                new_edges.append((u, v))
                gains[e] = _joint_gain_mul(group)
                if gains[e] is None:
                    return None
        else:
            if support == [u, v] or support == [v, u]:
                new_edges.append((u, v))
                gains[e] = f.neg(f.div(W.rows[v][e], W.rows[u][e]))
                if gains[e] == f.zero:
                    return None
            elif len(support) == 1 and support[0] in (u, v):
                w = support[0]
                new_edges.append((w, w))
                gains[e] = _joint_gain_mul(group)
                if gains[e] is None:
                    return None
                rolled.append(e)
            else:
                return None
    return group, new_edges, gains, rolled


def _joint_gain_mul(group):
    try:
        return group.smallest_non_identity()
    except BmlabError:
        return None


def _parse_lift_columns(W, omega, f):
    """Read additive gains off a (vertex rows + v0)-shaped matrix; returns
    (group, edges, gains, edge ids turned into joints) or None."""
    g = omega.graph
    group = AdditiveGroup(f.q)
    v0 = g.n
    new_edges = []
    gains = {}
    moved = []
    for e in range(g.m):
        u, v = g.edges[e]
        support = [i for i in range(g.n) if W.rows[i][e] != f.zero]
        gain_entry = W.rows[v0][e]
        if u == v:
            if frozenset((e,)) in omega.balanced:
                if support or gain_entry != f.zero:
                    return None
                new_edges.append((u, v))
                gains[e] = f.zero
            else:
                if support or gain_entry == f.zero:
                    return None
                new_edges.append((u, v))
                gains[e] = f.one
        else:
            if support in ([u, v], [v, u]):
                a = W.rows[u][e]
                if f.add(a, W.rows[v][e]) != f.zero:
                    return None
                new_edges.append((u, v))
                gains[e] = f.div(gain_entry, a)
            elif not support and gain_entry != f.zero:
                # column is v0_hat: the edge becomes a joint; attach at the
                # far end of the balancing vertex when possible
                moved.append(e)
                new_edges.append(None)  # resolved below
                gains[e] = f.one
            else:
                return None
    if moved:
        bal = classify_balance(omega).balancing_vertices
        if not bal:
            return None
        vbal = bal[0]
        for e in moved:
            u, v = g.edges[e]
            if vbal not in (u, v):
                return None
            w = v if u == vbal else u
            new_edges[e] = (w, w)
    return group, new_edges, gains, moved


def _column_scales(W, target, f):
    """Per-column scalars s with W[:,e] * s_e = target[:,e]; None if some
    column is not a scalar multiple."""
    scales = []
    for j in range(W.ncols):
        wcol = [W.rows[i][j] for i in range(W.nrows)]
        tcol = [target.rows[i][j] for i in range(target.nrows)]
        if len(wcol) != len(tcol):
            return None
        s = None
        for a, b in zip(wcol, tcol):
            if (a == f.zero) != (b == f.zero):
                return None
            if a != f.zero:
                cand = f.div(b, a)
                if s is None:
                    s = cand
                elif s != cand:
                    return None
        scales.append(s if s is not None else f.one)
    return scales


@kept
def _unrolled(omega, u):
    """unroll(omega, u), or None where it raises, kept on omega: every
    rolled candidate of omega is compared with the same unrollings."""
    try:
        return unroll(omega, u)
    except BmlabError:
        return None


def _roll_reachable(omega, variant):
    """Variant reachable from omega by rolling: compare full unrollings at
    each balancing vertex of omega (ignoring edge orientations, which
    unrolling does not preserve).  Kept on omega by the variant's graph
    and bias, which are all the answer reads of it; a key holding the
    variant itself would keep it alive with omega, and make a reference
    cycle where the variant is omega."""
    return _reachable(omega, variant.graph, variant.balanced)


@kept
def _reachable(omega, graph, balanced):
    """_roll_reachable for the variant on graph with these balanced cycles."""
    variant = BiasedGraph(graph, balanced, check=False)
    for u in classify_balance(omega).balancing_vertices:
        a = _unrolled(omega, u)
        b = None if a is None else _unrolled(variant, u)
        if b is not None and biased_equal_unoriented(a, b):
            return True
    return False


# -- representation enumeration -------------------------------------------------

@dataclass
class ReprClass:
    matrix: FieldMatrix
    count: int
    kind: str = None  # frame / lift / None (unclassified or not canonical)
    canonical: CanonicalizeResult = None  # ok or undecided, with its reason


def enumerate_representations(M, q, biased_graph=None, hint=None,
                              max_work=ENUMERATION_WORK_BOUND):
    """All F_q-representations of M up to projective equivalence.

    Fixes the lex-first basis B and extends the standard form [I | D] one
    non-basis column at a time.  An r-subset S is a basis of [I | D] iff
    D[B - S, S - B] is nonsingular (Oxley, Matroid Theory, section 6.4):
    the support, forced by the fundamental circuits, decides each S with
    one non-basis element, and each other S is tested when its last
    non-basis column is placed.  So every complete form has M's bases and
    represents M (single-element extension, as in Mayhew and Royle,
    Matroids with nine elements, JCTB 98, 2008).  Standard forms on one
    basis are projectively equivalent iff a diagonal scaling maps one to
    the other; fixing to 1 the entries on a spanning forest of the support
    graph, grown greedily in (column, row) order, leaves the lex-first
    member of each scaling orbit (Brylawski-Lucas; Oxley section 6.4).
    So each complete form is its own class, of count (q-1)^|forest|.  With
    a biased graph, each class is classified by canonicalize_representation.

    The work, one unit per r-subset listed and per basis test, raises
    BoundExceeded past max_work.
    """
    f = gf(q)
    n = M.size
    r = M.full_rank()
    if r == 0:
        raise NoBasis("rank-zero matroid")
    start, extend = M.independence_step()
    basis = greedy(extend, start, range(n), r)
    if len(basis) != r:
        raise NoBasis("could not complete a basis")
    nonbasis = [j for j in range(n) if j not in basis]
    pos_of = {b: k for k, b in enumerate(basis)}
    work = 0

    def spend():
        nonlocal work
        work += 1
        if work > max_work:
            raise BoundExceeded("representation enumeration work bound exceeded")

    # support[j]: the rows b with B - b + j a basis; tests[j]: (rows B - S,
    # columns S - B, whether S is a basis) for each r-subset S with two or
    # more non-basis elements, the last of them j, smaller (cheaper) first
    support = {j: [] for j in nonbasis}
    tests = {j: [] for j in nonbasis}
    for subset in combinations(range(n), r):
        spend()
        cols = [j for j in subset if j not in pos_of]
        if not cols:
            continue
        rows = [pos_of[b] for b in basis if b not in subset]
        is_basis = M.rank_mask(sum(1 << i for i in subset)) == r
        if len(cols) > 1:
            tests[cols[-1]].append((rows, cols, is_basis))
        elif is_basis:
            support[cols[0]].append(rows[0])
    for j in nonbasis:
        tests[j].sort(key=lambda test: len(test[1]))
    # support graph on the elements: basis rows and non-basis columns.  Its
    # greedy spanning forest's entries are 1 (in ones[j]); the other support
    # entries, at rows free_rows[j], range over the nonzero elements
    parent = list(range(n))
    forest_size = 0
    ones = {}
    free_rows = {}
    for j in nonbasis:
        ones[j] = [f.zero] * r
        free_rows[j] = []
        for k in sorted(support[j]):
            rj, rb = find(parent, j), find(parent, basis[k])
            if rj != rb:
                parent[rj] = rb
                forest_size += 1
                ones[j][k] = f.one
            else:
                free_rows[j].append(k)
    orbit_size = (q - 1) ** forest_size
    all_cols = [None] * n
    for k, b in enumerate(basis):
        all_cols[b] = [f.one if i == k else f.zero for i in range(r)]
    out = []
    keys = set()

    def placed_ok(j):
        for rows, cols, is_basis in tests[j]:
            spend()
            minor = [[all_cols[c][i] for i in rows] for c in cols]
            if (rank_of_columns(f, minor) == len(cols)) != is_basis:
                return False
        return True

    def rec(idx):
        if idx == len(nonbasis):
            A = FieldMatrix(f, zip(*all_cols), None, M.labels)
            key = projective_key(A)
            if key in keys:
                raise BmlabError("two forest-normalized standard forms "
                                 "are projectively equivalent")
            keys.add(key)
            out.append(ReprClass(A, orbit_size))
            return
        j = nonbasis[idx]
        # the product is lazy, so the work bound trips before (q-1)^k
        # columns exist
        for values in product(f.nonzero, repeat=len(free_rows[j])):
            col = list(ones[j])
            for i, val in zip(free_rows[j], values):
                col[i] = val
            all_cols[j] = col
            if placed_ok(j):
                rec(idx + 1)

    rec(0)
    if biased_graph is not None:
        for cls in out:
            try:
                res = canonicalize_representation(cls.matrix, biased_graph, hint=hint)
            except (MatroidMismatch, NotVertically2Connected) as exc:
                res = CanonicalizeResult(status="undecided", reason=str(exc))
            cls.canonical = res
            if res.status == "ok":
                cls.kind = res.kind
    return out
