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
from itertools import product

from .bias import BiasedGraph, _roll, classify_balance, unbalancing_classes
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
    UnsupportedField,
)
from .fields import gf
from .gains import (
    AdditiveGroup,
    GainGraph,
    MultiplicativeGroup,
    switching_equivalent,
    switching_scaling_equivalent,
)
from .graph import MultiGraph
from .linalg import (
    FieldMatrix,
    ProjWitness,
    dual_matrix,
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
    r_subset_bases,
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
    omega vertically 2-connected, and A over a finite field
    (UnsupportedField otherwise).
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
    matched = _shapeable_kinds(A.col_labels, lambda: vector_matroid(A), omega, hint)
    if A.field.q is None:  # the gain groups are built from an order q
        raise UnsupportedField("canonicalization needs a finite field GF(q), got %r" % A.field)
    return _canonicalize_kinds(A, omega, matched)


def _shapeable_kinds(labels, matroid, omega, hint):
    """The checks of canonicalize_representation that read the matroid
    alone, in its order: the labels are omega's edges, omega is vertically
    2-connected, and then _matched_kinds(matroid(), omega, hint), which
    must be some kind (MatroidMismatch otherwise).  matroid() is built
    only once the first two checks pass."""
    g = omega.graph
    if tuple(labels) != tuple(g.edge_names):
        raise MatroidMismatch("matrix columns must be labeled by the edges")
    ok2, _ = g.is_vertically_k_connected(2)
    if not ok2:
        raise NotVertically2Connected("canonicalization needs vertical 2-connectivity")
    matched = _matched_kinds(matroid(), omega, hint)
    if not matched:
        raise MatroidMismatch("matrix does not represent F(omega) or L(omega)")
    return matched


def _canonicalize_kinds(A, omega, matched):
    """canonicalize_representation once its checks have passed: A is over
    GF(q) and M(A) is omega's matroid of each kind in matched, the first
    tried first."""
    rows = _vertex_rows(A, omega)
    result, reasons = None, []
    for kind in matched:
        if isinstance(rows, CanonicalizeResult):
            res = rows
        else:
            res = _attempt(A, omega, kind, rows)
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
    the other is walked only if F(omega) != L(omega).  A kind's matroid
    that is MA itself, the oracle kept on omega, matches with no walk."""
    first = hint if hint in (FRAME, LIFT) else FRAME
    other = LIFT if first == FRAME else FRAME
    same = frame_equals_lift(omega)

    def matches(kind):
        K = kind_parts(kind).matroid(omega)
        return MA is K or matroids_equal(MA, K)[0]

    if matches(first):
        return [first, other] if same else [first]
    if same or not matches(other):
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


def _attempt(A, omega, kind, rows):
    """Shape the vertex rows for one kind, read gains off the shaped
    matrix and certify them.  M(A) must be omega's matroid of the kind.  A
    form particular to omega itself is returned at once; the first one
    particular to a roll-up variant only if none is found.

    The column parsers make every column of the shaped matrix W = T R a
    nonzero multiple of the canonical column of omega's edge, or of a
    joint's for a rolled link (or zero with it), and T has full column
    rank, so the candidate's kind matroid is M(A), omega's.  A cycle is
    balanced iff it is a circuit, so a candidate with no edge rolled has
    omega's bias (omega is its variant).  A rolled one is tried on the
    roll-up at each vertex of _roll_vertices, the one rule placing rolled
    joints, and kept on the first whose form the witness check confirms:
    a frame joint's column is supported at its vertex, a lift joint's at
    v0 alone."""
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
        group, gains, rolled = parsed
        if not rolled:
            variants = [omega]
        elif fallback is None:
            variants = [_roll(omega, {e: g.other_end(e, u) for e in rolled})
                        for u in _roll_vertices(omega, rolled)]
        else:
            continue  # only the first roll-up result is kept
        for variant in variants:
            form = parts.matrix(GainGraph(variant.graph, group, gains))
            witness = ProjWitness(
                T.mul(E).with_labels(
                    row_labels=form.matrix.row_labels, col_labels=A.row_labels
                ),
                FieldMatrix.diagonal(f, _column_scales(W, form.matrix, f), A.col_labels),
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
            break
    return fallback or CanonicalizeResult(
        status="undecided", reason="no %s shaping found" % kind
    )


def _frame_rows(f, rows):
    """Frame row transform: the vertex rows, kept only when invertible."""
    if rank_of_columns(f, rows) != len(rows):
        return None
    return FieldMatrix(f, rows)


def _lift_rows(f, rows):
    """Lift row transform: the vertex rows scaled to sum to zero, then the
    first standard basis row completing them to full rank (the v0 row).

    The r square rows qualify when their left null space is spanned by one
    vector a with no zero entry: they have rank r - 1, and so do the
    scaled rows a_x row_x, whose row space is then the hyperplane
    orthogonal to c, a spanning vector of their right null space.  So e_i
    completes them exactly when c_i != 0, and the first such i is the
    row."""
    r = len(rows)
    null = left_null_space(FieldMatrix(f, rows))
    if len(null) != 1 or f.zero in null[0]:
        return None
    vrows = [f.scale(a, row) for a, row in zip(null[0], rows)]
    (c,) = left_null_space(FieldMatrix(f, [list(col) for col in zip(*vrows)]))
    i = next(k for k, x in enumerate(c) if x != f.zero)
    return FieldMatrix(f, vrows + [[f.one if k == i else f.zero for k in range(r)]])


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
    (group, gains, rolled edge ids) or None.  A link whose column is
    supported at one of its ends alone has a joint's column: it is rolled,
    with a joint's gain, and _attempt places it."""
    g = omega.graph
    group = MultiplicativeGroup(f.q)
    joint = group.smallest_non_identity() if f.q > 2 else None  # GF(2)^x is trivial
    gains = {}
    rolled = set()
    for e, (u, v) in enumerate(g.edges):
        support = [i for i in range(g.n) if W.rows[i][e] != f.zero]
        if support in ([u, v], [v, u]):
            gains[e] = f.neg(f.div(W.rows[v][e], W.rows[u][e]))
        elif u == v and frozenset((e,)) in omega.balanced:
            if support:
                return None
            gains[e] = f.one
        elif len(support) == 1 and support[0] in (u, v) and joint is not None:
            gains[e] = joint
            if u != v:
                rolled.add(e)
        else:
            return None
    return group, gains, rolled


def _parse_lift_columns(W, omega, f):
    """Read additive gains off a (vertex rows + v0)-shaped matrix; returns
    (group, gains, rolled edge ids) or None.  A link whose column is
    supported at v0 alone has a joint's column: it is rolled, with a
    joint's gain, and _attempt places it."""
    g = omega.graph
    group = AdditiveGroup(f.q)
    gains = {}
    rolled = set()
    for e, (u, v) in enumerate(g.edges):
        support = [i for i in range(g.n) if W.rows[i][e] != f.zero]
        gain_entry = W.rows[g.n][e]
        zero = u == v and frozenset((e,)) in omega.balanced  # a zero column
        if support in ([u, v], [v, u]):
            a = W.rows[u][e]
            if f.add(a, W.rows[v][e]) != f.zero:
                return None
            gains[e] = f.div(gain_entry, a)
        elif support or (gain_entry == f.zero) != zero:
            return None
        else:
            gains[e] = f.zero if zero else f.one
            if u != v:
                rolled.add(e)
    return group, gains, rolled


def _column_scales(W, target, f):
    """Per-column scalars s with W[:,e] * s_e = target[:,e], read at W's
    first nonzero entry in each column (1 for a zero column).  The column
    parsers make each column of W a nonzero multiple of the target's or
    zero with it, so each scale is nonzero, except at a frame joint that a
    roll-up puts off the vertex where W's column is supported: its scale
    is zero.  The witness check confirms the rest of each column."""
    scales = []
    for j in range(W.ncols):
        i = next((i for i in range(W.nrows) if W.rows[i][j] != f.zero), None)
        scales.append(f.one if i is None else f.div(target.rows[i][j], W.rows[i][j]))
    return scales


def _roll_reachable(omega, variant):
    """Whether omega and variant have the same unrolling, ignoring edge
    orientations, at some balancing vertex u of omega (the reference in
    tests/oracles.py builds both), read off omega's unbalancing classes.

    Let R be the edges whose ends differ.  The answer is yes exactly when
    the variant's bias is bias._roll's (omega's balanced cycles avoiding
    R) and, at some u, R is empty or the variant is roll_up(omega, u, R)
    with every joint of omega at u; such a roll-up unrolls back to omega's
    unrolling.  Conversely, let the unrollings at u agree.  Unrolling
    moves only joints off u, each to a link at u, so each edge of R is a
    link at u rolled to its far end; it keeps every other cycle's bias
    (through u, balanced iff its two edges at u share a class; off u,
    balanced), so the bias is bias._roll's and the variant's joints off u
    form one class.  omega is vertically 2-connected, as
    canonicalize_representation requires, so G - u is connected and any
    two links at u lie on a cycle meeting u in them alone.  Each failure
    gives such a cycle balanced in one unrolling and not in the other:
    R a proper part of a class (an edge of R, one of the class outside
    R); R meeting two classes (an edge of R in each); a joint of omega
    off u (an edge of R, the joint's unrolled link)."""
    g, h = omega.graph, variant.graph
    rolled = frozenset(e for e in range(g.m) if {*h.edges[e]} != {*g.edges[e]})
    if variant.balanced != frozenset(c for c in omega.balanced if not c & rolled):
        return False
    if not rolled:
        return bool(classify_balance(omega).balancing_vertices)
    return any(all(h.edges[e] == (g.other_end(e, u),) * 2 for e in rolled)
               for u in _roll_vertices(omega, rolled))


def _roll_vertices(omega, rolled):
    """The roll rule: the balancing vertices u of omega, in order, at which
    the edge set rolled is an unbalancing class and every joint of omega
    lies at u.  Rolling the class at such a u turns each of its links into
    a joint at its far end from u (bias.roll_up); _roll_reachable shows
    these are exactly the roll-ups that unroll as omega does."""
    joints = set(omega.joints())
    out = []
    for u in classify_balance(omega).balancing_vertices:
        part = unbalancing_classes(omega, u)
        if rolled in part.classes and joints <= part.joints_at_vertex:
            out.append(u)
    return out


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
    So each complete form is its own class, of count (q-1)^|forest|.

    With a biased graph, each class is classified as
    canonicalize_representation(A, biased_graph, hint) would, but its
    checks that read the matroid (labels, vertical 2-connectivity, the
    kind match) run once, on M: every class has M(A) = M, as above, so
    they answer alike for every class.  When they fail, every class is
    undecided with the reason.  The r-subsets' basis statuses come from
    one walk of M's independence step (r_subset_bases).

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
    for subset, is_basis in r_subset_bases(M):
        spend()
        cols = [j for j in subset if j not in pos_of]
        if not cols:
            continue
        rows = [pos_of[b] for b in basis if b not in subset]
        if len(cols) > 1:
            tests[cols[-1]].append((rows, cols, is_basis))
        elif is_basis:
            support[cols[0]].append(rows[0])
    for j in nonbasis:
        tests[j].sort(key=lambda test: len(test[1]))
    # support graph on the elements: an edge joins non-basis column j to
    # basis row k for each support entry, in (column, row) order.  Its
    # spanning forest's entries are 1 (in ones[j]); the other support
    # entries, at rows free_rows[j], range over the nonzero elements
    entries = [(j, k) for j in nonbasis for k in sorted(support[j])]
    forest = MultiGraph(n, [(j, basis[k]) for j, k in entries]).spanning_forest()
    ones = {j: [f.zero] * r for j in nonbasis}
    free_rows = {j: [] for j in nonbasis}
    for e, (j, k) in enumerate(entries):
        if e in forest:
            ones[j][k] = f.one
        else:
            free_rows[j].append(k)
    orbit_size = (q - 1) ** len(forest)
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
    if biased_graph is None or not out:
        return out
    try:
        matched = _shapeable_kinds(M.labels, lambda: M, biased_graph, hint)
    except (MatroidMismatch, NotVertically2Connected) as exc:
        for cls in out:
            cls.canonical = CanonicalizeResult(status="undecided", reason=str(exc))
        return out
    for cls in out:
        cls.canonical = _canonicalize_kinds(cls.matrix, biased_graph, matched)
        if cls.canonical.status == "ok":
            cls.kind = cls.canonical.kind
    return out
