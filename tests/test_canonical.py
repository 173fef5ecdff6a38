import random
import weakref
from collections import Counter
from itertools import combinations, product

import pytest

from bmlab import canonical, catalog, graph, verify
from bmlab.bias import (
    BiasedGraph,
    balancing_vertices,
    biased_isomorphic,
    biased_minor,
    classify_balance,
    delta_y,
    roll_up,
    unbalancing_classes,
    unroll,
    y_delta,
)
from bmlab.canonical import (
    COMPLETE_LIFT,
    FRAME,
    LIFT,
    CanonicalizeResult,
    ReprClass,
    canonicalize_representation,
    complete_lift_matrix,
    delta_y_matrix,
    enumerate_representations,
    frame_matrix,
    gain_classes,
    kind_parts,
    lift_matrix,
    y_delta_matrix,
)
from bmlab.errors import (
    BmlabError,
    BoundExceeded,
    GroupMismatch,
    MatroidMismatch,
    NotTriad,
    NotTriangle,
    NotVertically2Connected,
)
from bmlab.fields import gf
from bmlab.gains import (
    AdditiveGroup,
    GainGraph,
    MultiplicativeGroup,
    induced_bias,
    realizations,
    switching_equivalent,
    switching_scaling_equivalent,
)
from bmlab.graph import MultiGraph
from bmlab.linalg import (
    FieldMatrix,
    ProjWitness,
    all_column_ranks,
    dual_matrix,
    invert,
    left_null_space,
    projective_key,
    projectively_equivalent,
    rank_of_columns,
    vector_matroid,
)
from bmlab.matroid import (
    complete_lift_matroid,
    extend_with_joint,
    frame_equals_lift,
    frame_matroid,
    lift_matroid,
    matroids_equal,
    uniform_matroid,
)
from bmlab.verify import run_claim
from oracles import (
    contract,
    count_builds,
    delta_y_matrix_by_template,
    drop_isolated,
    formula_matroid,
    graphic_matroid,
    matched_kinds_by_two_walks,
    matroids_equal_on_all_subsets,
    roll_reachable_by_unrolling,
    scaling_orbits,
    std_basis_completion,
)


def _pow(f, a, n):
    r = f.one
    for _ in range(n):
        r = f.mul(r, a)
    return r


def scramble(rng, A):
    f = A.field
    n = A.nrows
    while True:
        T = FieldMatrix(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)])
        try:
            invert(T)
            break
        except ValueError:
            continue
    S = FieldMatrix.diagonal(f, [rng.randrange(1, f.q) for _ in range(A.ncols)],
                             A.col_labels)
    return (T.with_labels(col_labels=A.row_labels).mul(A).mul(S)
            .with_labels(row_labels=["r%d" % i for i in range(n)]))


# -- matrix builders ----------------------------------------------------------

def test_frame_matrix_display():
    # the displayed double-triangle frame matrix over GF(5)
    f = gf(5)
    g = catalog.graph_2c3()
    a, b, c, d = 2, 3, 2, 4
    gg = GainGraph(g, MultiplicativeGroup(5), {0: 1, 1: a, 2: 1, 3: b, 4: c, 5: d})
    A = frame_matrix(gg).matrix
    expect = [
        [1, 1, 0, 0, f.neg(c), f.neg(d)],
        [f.neg(1), f.neg(a), 1, 1, 0, 0],
        [0, 0, f.neg(1), f.neg(b), 1, 1],
    ]
    assert [list(r) for r in A.rows] == expect
    assert A.row_labels == ("v1", "v2", "v3")


def test_lift_matrix_display():
    # gains row 0 1 0 a b c above the incidence rows
    f = gf(5)
    g = catalog.graph_2c3()
    a, b, c = 2, 3, 1
    gg = GainGraph(g, AdditiveGroup(5), {0: 0, 1: 1, 2: 0, 3: a, 4: b, 5: c})
    form = complete_lift_matrix(gg)
    A = form.matrix
    assert A.row_labels == ("v1", "v2", "v3", "v0")
    assert A.col_labels[-1] == "e0"
    gains_row = list(A.rows[3])
    assert gains_row == [0, 1, 0, a, b, c, 1]
    incidence = [list(r)[:6] for r in A.rows[:3]]
    assert incidence == [
        [1, 1, 0, 0, f.neg(1), f.neg(1)],
        [f.neg(1), f.neg(1), 1, 1, 0, 0],
        [0, 0, f.neg(1), f.neg(1), 1, 1],
    ]


def test_frame_matrix_identity_gains_tree():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    gg = GainGraph(g, MultiplicativeGroup(5), {0: 1, 1: 1})
    A = frame_matrix(gg).matrix
    vm = vector_matroid(A)
    assert vm.full_rank() == 2 and vm.rank_mask(0b01) == 1


def test_u2_frame_shape():
    # [1 0 1 -g; 0 1 -1 1] after orienting the second link v2 -> v1
    f = gf(5)
    g = MultiGraph(2, [(0, 0), (1, 1), (0, 1), (1, 0)],
                   edge_names=("e1", "e2", "e3", "e4"))
    gval = 3
    gg = GainGraph(g, MultiplicativeGroup(5), {0: 2, 1: 2, 2: 1, 3: gval})
    A = frame_matrix(gg).matrix
    assert [list(r) for r in A.rows] == [[1, 0, 1, f.neg(gval)], [0, 1, f.neg(1), 1]]


def test_u3_lift_shape():
    # [1 0 1 a] gains row with theta links below
    f = gf(5)
    g = MultiGraph(2, [(0, 0), (0, 1), (0, 1), (1, 0)],
                   edge_names=("e1", "e2", "e3", "e4"))
    a = 2
    gg = GainGraph(g, AdditiveGroup(5), {0: 1, 1: 0, 2: 1, 3: a})
    A = lift_matrix(gg).matrix
    assert list(A.rows[2]) == [1, 0, 1, a]
    assert [list(r) for r in A.rows[:2]] == [
        [0, 1, 1, f.neg(1)],
        [0, f.neg(1), f.neg(1), 1],
    ]


def test_orientation_flip_scales_column():
    f = gf(5)
    g1 = MultiGraph(2, [(0, 1)])
    g2 = MultiGraph(2, [(1, 0)])
    gg1 = GainGraph(g1, MultiplicativeGroup(5), {0: 3})
    gg2 = GainGraph(g2, MultiplicativeGroup(5), {0: f.inv(3)})
    c1 = frame_matrix(gg1).matrix.column(0)
    c2 = frame_matrix(gg2).matrix.column(0)
    scale = f.neg(f.inv(3))
    assert tuple(f.mul(scale, x) for x in c1) == c2


def test_frame_matrix_group_check():
    g = catalog.graph_2c3()
    gg = GainGraph(g, AdditiveGroup(5), {e: 0 for e in range(6)})
    with pytest.raises(GroupMismatch):
        frame_matrix(gg)
    gg2 = GainGraph(g, MultiplicativeGroup(5), {e: 1 for e in range(6)})
    with pytest.raises(GroupMismatch):
        lift_matrix(gg2)


def test_all_zero_gains_lift_is_graphic_plus_joint():
    g = catalog.graph_k4()
    gg = GainGraph(g, AdditiveGroup(5), {e: 0 for e in range(6)})
    L0 = vector_matroid(complete_lift_matrix(gg).matrix)
    eq, _ = matroids_equal(contract(L0, ["e0"]), graphic_matroid(g))
    assert eq


# -- paper section 4.2 explicit transforms -------------------------------------

def std_2c3_matrix(f, a, b, c, d):
    return FieldMatrix(
        f,
        [
            [1, 0, 0, 1, 1, 1],
            [0, 1, 0, 1, a, c],
            [0, 0, 1, 1, b, d],
        ],
        None,
        ["e1", "e2", "e3", "e4", "e5", "e6"],
    )


def test_paper_transform_2c3_frame_case():
    # b != c: the displayed T has determinant 1/c^2 - 1/bc and TA has
    # exactly two nonzero entries per column
    f = gf(7)
    a, b, c, d = 2, 3, 4, 5
    A = std_2c3_matrix(f, a, b, c, d)
    T = FieldMatrix(f, [
        [1, 0, f.neg(f.inv(b))],
        [f.neg(1), f.inv(c), 0],
        [0, f.neg(f.inv(c)), f.inv(c)],
    ])
    det = f.sub(f.inv(f.mul(c, c)), f.inv(f.mul(b, c)))
    assert det != 0
    TA = T.mul(FieldMatrix(f, A.rows))
    for j in range(6):
        col = [TA.rows[i][j] for i in range(3)]
        assert sum(1 for x in col if x != 0) == 2, (j, col)


def test_paper_transform_2c3_lift_case():
    # b == c: the second displayed T has determinant b and TA plus the
    # negated-sum row is a lift matrix shape (one 2-support column pattern
    # per link with a gains row)
    f = gf(7)
    a, b, d = 2, 3, 5
    c = b
    A = std_2c3_matrix(f, a, b, c, d)
    T = FieldMatrix(f, [
        [0, 0, 1],
        [b, 0, f.neg(1)],
        [f.neg(b), 1, 0],
    ])
    TA = T.mul(FieldMatrix(f, A.rows))
    # the displayed product, up to column scaling (the display itself has a
    # sign slip in the first column: the product of the displayed T with A
    # has entries (0, b, -b), not (0, -b, b))
    display = [
        [0, 0, 1, 1, b, d],
        [f.neg(b), 0, f.neg(1), f.sub(b, 1), 0, f.sub(b, d)],
        [b, 1, 0, f.sub(1, b), f.sub(a, b), 0],
    ]
    for j in range(6):
        got = [TA.rows[i][j] for i in range(3)]
        want = [display[i][j] for i in range(3)]
        scale = None
        for x, y in zip(got, want):
            assert (x == 0) == (y == 0)
            if x != 0:
                s = f.div(y, x)
                assert scale is None or s == scale
                scale = s
    # appending the negated sum of rows 2 and 3 gives columns supported on
    # two incidence rows plus the gains row
    extra = [f.neg(f.add(TA.rows[1][j], TA.rows[2][j])) for j in range(6)]
    for j in range(6):
        incidence = [TA.rows[1][j], TA.rows[2][j], extra[j]]
        assert sum(1 for x in incidence if x != 0) == 2


def test_paper_transform_tube_frame():
    f = gf(7)
    for (a, b, c) in ((2, 3, 4), (0, 3, 4)):  # |B| = 0 and |B| = 1
        A = FieldMatrix(f, [
            [1, 0, 0, 0, 1, 1],
            [0, 1, 0, 0, 1, a],
            [0, 0, 1, 0, 1, b],
            [0, 0, 0, 1, 1, c],
        ], None, ["e1", "e2", "e3", "e4", "e5", "e6"])
        T = FieldMatrix(f, [
            [f.sub(b, a), f.sub(1, b), f.sub(a, 1), 0],
            [f.sub(a, c), f.sub(c, 1), 0, f.sub(1, a)],
            [0, 0, f.sub(1, a), 0],
            [0, 0, 0, f.sub(a, 1)],
        ])
        det_expect = f.mul(f.mul(_pow(f, f.sub(a, 1), 3), f.sub(c, b)), 1)
        TA = T.mul(FieldMatrix(f, A.rows))
        for j in range(6):
            col = [TA.rows[i][j] for i in range(4)]
            assert sum(1 for x in col if x != 0) == 2, (a, j, col)


def test_paper_transform_tube_frame_two_balanced():
    f = gf(7)
    b, c = 3, 4
    A = FieldMatrix(f, [
        [1, 0, 0, 0, 0, 1],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 1, b],
        [0, 0, 0, 1, 1, c],
    ], None, ["e1", "e2", "e3", "e4", "e5", "e6"])
    T = FieldMatrix(f, [
        [f.neg(b), f.neg(1), 1, 0],
        [c, 1, 0, f.neg(1)],
        [0, 0, f.neg(1), 0],
        [0, 0, 0, 1],
    ])
    TA = T.mul(FieldMatrix(f, A.rows))
    for j in range(6):
        col = [TA.rows[i][j] for i in range(4)]
        assert sum(1 for x in col if x != 0) == 2, (j, col)


def test_paper_transform_tube_lift():
    f = gf(7)
    a, b = 2, 3
    A = FieldMatrix(f, [
        [1, 0, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, a],
        [0, 0, 1, 0, 1, b],
        [0, 0, 0, 1, 1, b],
    ], None, ["e1", "e2", "e3", "e4", "e5", "e6"])
    T = FieldMatrix(f, [
        [0, f.sub(1, b), 0, 0],
        [f.sub(b, a), f.sub(1, b), f.sub(a, 1), 0],
        [f.sub(a, b), f.sub(b, 1), 0, f.sub(1, a)],
        [0, 0, f.sub(1, a), 0],
    ])
    TA = T.mul(FieldMatrix(f, A.rows))
    # incidence rows 2..4 plus negated sum must give two-point columns
    for j in range(6):
        inc = [TA.rows[1][j], TA.rows[2][j], TA.rows[3][j]]
        extra = f.neg(f.add(f.add(inc[0], inc[1]), inc[2]))
        col = inc + [extra]
        assert sum(1 for x in col if x != 0) == 2, (j, col)


def test_paper_transform_contracted_tube():
    f = gf(7)
    b = 3
    for a in (0, 2):
        A = FieldMatrix(f, [
            [1, 0, 0, 1, 1],
            [0, 1, 0, 1, a],
            [0, 0, 1, 1, b],
        ], None, ["e1", "e2", "e3", "e4", "e5"])
        if a == 0:
            x, y = 1, 1
            T = FieldMatrix(f, [
                [x, y, f.neg(f.div(x, b))],
                [f.neg(x), x, 0],
                [0, 0, f.div(x, b)],
            ])
        else:
            x, y = 1, 1
            T = FieldMatrix(f, [
                [x, f.div(f.neg(f.add(x, f.mul(b, y))), a), y],
                [f.neg(x), x, 0],
                [0, 0, f.neg(y)],
            ])
        TA = T.mul(FieldMatrix(f, A.rows))
        for j in range(5):
            col = [TA.rows[i][j] for i in range(3)]
            assert sum(1 for x_ in col if x_ != 0) <= 2, (a, j, col)


# -- Delta-Y at matrix level -----------------------------------------------------

def test_delta_y_matrix_t3():
    t3 = catalog.biased_2c3("T_3").omega
    gg = realizations(t3, MultiplicativeGroup(5))[0]
    A = frame_matrix(gg).matrix
    X = min(t3.balanced, key=sorted)
    labels = [t3.graph.edge_names[e] for e in sorted(X)]
    DA = delta_y_matrix(A, labels)
    img = delta_y(t3, X)
    eq, _ = matroids_equal(vector_matroid(DA), frame_matroid(img))
    assert eq
    back = y_delta_matrix(DA, labels)
    assert projectively_equivalent(A, back) is not None


def test_delta_y_matrix_requires_triangle():
    t3 = catalog.biased_2c3("T_3").omega
    gg = realizations(t3, MultiplicativeGroup(5))[0]
    A = frame_matrix(gg).matrix
    with pytest.raises(NotTriangle):
        delta_y_matrix(A, ["e1", "e2", "e3"])  # parallel pair inside


def test_y_delta_matrix_lift_d00():
    d00 = catalog.dwarf("D_{0,0}").omega
    gg = realizations(d00, AdditiveGroup(5))[0]
    A = lift_matrix(gg).matrix
    star = ["e1", "e2", "e3"]
    NA = y_delta_matrix(A, star)
    img, _ = y_delta(d00, 3)
    assert biased_isomorphic(img, catalog.biased_2c3("T_1").omega)
    eq, _ = matroids_equal(vector_matroid(NA), lift_matroid(img))
    assert eq
    back = delta_y_matrix(NA, star)
    assert projectively_equivalent(A, back) is not None


def _dot(f, a, b):
    acc = f.zero
    for x, y in zip(a, b):
        if x != f.zero and y != f.zero:
            acc = f.add(acc, f.mul(x, y))
    return acc


def _parent_y_delta_matrix(A, triad_cols):
    """The direct Y-Delta construction that the dual route replaced, kept as
    the oracle: A is brought to the I(K_4) star template on the triad,
    whose centre row is then deleted after substituting the triangle
    template."""
    f = A.field
    idx = [A.col_labels.index(c) for c in triad_cols]
    vm = vector_matroid(A)
    full = (1 << A.ncols) - 1
    tri_mask = 0
    for j in idx:
        tri_mask |= 1 << j
    r = vm.rank_mask(full)
    if vm.rank_mask(full & ~tri_mask) != r - 1:
        raise NotTriad("complement must have rank r-1")
    for j in idx:
        if vm.rank_mask((full & ~tri_mask) | 1 << j) != r:
            raise NotTriad("not a minimal cocircuit")
    cols = [list(A.column(j)) for j in idx]
    if rank_of_columns(f, cols) != 3:
        raise NotTriad("triad columns must be independent")
    n = A.nrows
    if n < 3:
        raise NotTriad("need at least three rows")
    comp_cols = [list(A.column(j)) for j in range(A.ncols) if j not in idx]
    if comp_cols:
        Hcols = FieldMatrix(f, [[col[i] for col in comp_cols] for i in range(n)])
    else:
        Hcols = FieldMatrix(f, [[f.zero] for _ in range(n)])
    # functional vanishing on H but not on the triad columns
    lam = None
    for t in left_null_space(Hcols):
        if all(_dot(f, t, c) != f.zero for c in cols):
            lam = t
            break
    if lam is None:
        raise NotTriad("no separating functional; triad is degenerate")
    c_vals = [_dot(f, lam, c) for c in cols]
    scaled = [[f.div(x, c_vals[i]) for x in cols[i]] for i in range(3)]
    y1 = scaled[0]
    h2 = [f.sub(a, b) for a, b in zip(scaled[1], y1)]
    h3 = [f.sub(a, b) for a, b in zip(scaled[2], y1)]
    if rank_of_columns(f, [h2, h3]) != 2:
        raise NotTriad("degenerate triad geometry")
    # complete with vectors in ker(lam) so only y1 meets the centre row
    comp = []
    for i in range(n):
        e_i = [f.one if k == i else f.zero for k in range(n)]
        li = _dot(f, lam, e_i)
        if li != f.zero:
            corr = f.div(li, _dot(f, lam, y1))
            e_i = [f.sub(a, f.mul(corr, b)) for a, b in zip(e_i, y1)]
        if rank_of_columns(f, [y1, h2, h3] + comp + [e_i]) > 3 + len(comp):
            comp.append(e_i)
        if 3 + len(comp) == n:
            break
    if 3 + len(comp) != n:
        raise NotTriad("could not complete basis off the centre row")
    basis_vecs = [y1, h2, h3] + comp
    base = FieldMatrix(
        f, [[basis_vecs[j][i] for j in range(len(basis_vecs))] for i in range(n)]
    )
    center = n - 1
    # images: y1 -> e1 - e_center, h2 -> e2 - e1, h3 -> e3 - e1
    t1 = [f.zero] * n
    t1[0] = f.one
    t1[center] = f.sub(t1[center], f.one)
    t2 = [f.zero] * n
    t2[1] = f.one
    t2[0] = f.neg(f.one)
    t3 = [f.zero] * n
    t3[2] = f.one
    t3[0] = f.neg(f.one)
    Tmat = std_basis_completion(f, [t1, t2, t3], n)
    E0 = Tmat.mul(invert(base))
    invert(E0)  # must be a genuine row transform
    EA = E0.mul(FieldMatrix(f, A.rows))
    col_scale = [f.one] * A.ncols
    for pos, j in enumerate(idx):
        col_scale[j] = f.inv(c_vals[pos])
    rows = [[f.mul(x, s) for x, s in zip(row, col_scale)] for row in EA.rows]
    for j in range(A.ncols):
        if j not in idx and rows[center][j] != f.zero:
            raise NotTriad("complement columns hit the centre row")
    tri = {idx[0]: (1, 2), idx[1]: (0, 2), idx[2]: (0, 1)}
    for j, (ra, rb) in tri.items():
        for i in range(n):
            rows[i][j] = f.zero
        rows[ra][j] = f.one
        rows[rb][j] = f.neg(f.one)
    del rows[center]
    return FieldMatrix(f, rows, ["d%d" % (i + 1) for i in range(n - 1)], A.col_labels)


def _exchange_matrices(fields):
    """The frame, lift and complete lift matrix of the first realization of
    each base graph, T'_{2,i} and contracted tube over each field."""
    graphs = (list(catalog.base_graphs()) + [catalog.t2_prime_split(i) for i in (1, 2, 3)]
              + list(catalog.contracted_tubes()))
    for nb in graphs:
        for q in fields:
            for kind in (FRAME, LIFT, COMPLETE_LIFT):
                parts = kind_parts(kind)
                for gg in realizations(nb.omega, parts.group(q))[:1]:
                    yield parts.matrix(gg).matrix


def test_y_delta_matrix_matches_the_direct_construction():
    # every 3-column subset: where the direct construction succeeds both
    # agree up to projective equivalence, where it finds no triad neither
    # does the dual route, and where it fails on a valid triad the dual
    # route's result is undone by Delta-Y
    outcomes = Counter()
    for A in _exchange_matrices((3, 4)):
        for triad in map(list, combinations(A.col_labels, 3)):
            try:
                want = _parent_y_delta_matrix(A, triad)
            except NotTriad:
                with pytest.raises(NotTriad):
                    y_delta_matrix(A, triad)
                outcomes["no triad"] += 1
                continue
            except ValueError:
                want = None
            got = y_delta_matrix(A, triad)
            assert got.nrows == rank_of_columns(A.field, A.columns()) - 1
            if want is None:
                assert projectively_equivalent(A, delta_y_matrix(got, triad)) is not None
                outcomes["direct construction failed"] += 1
            else:
                assert projectively_equivalent(want, got) is not None, (A.rows, triad)
                outcomes["equivalent"] += 1
    assert outcomes == {"equivalent": 393, "no triad": 1741, "direct construction failed": 21}


def test_delta_y_matrix_matches_the_template_construction():
    # every 3-column subset: the gluing formula and the I(K_4) template
    # agree up to projective equivalence, and reject the same subsets
    outcomes = Counter()
    for A in _exchange_matrices((3, 4)):
        for triangle in map(list, combinations(A.col_labels, 3)):
            try:
                want = delta_y_matrix_by_template(A, triangle)
            except NotTriangle:
                with pytest.raises(NotTriangle):
                    delta_y_matrix(A, triangle)
                outcomes["no triangle"] += 1
                continue
            got = delta_y_matrix(A, triangle)
            assert got.row_labels == tuple("d%d" % (i + 1) for i in range(A.nrows)) + ("w1",)
            assert projectively_equivalent(want, got) is not None, (A.rows, triangle)
            outcomes["equivalent"] += 1
    assert outcomes == {"equivalent": 122, "no triangle": 2033}


def test_y_delta_matrix_on_a_triad_of_a_three_row_matrix():
    # the direct construction put the centre at row 3, where the triad's
    # targets e1 - e3 and e3 - e1 are parallel: a singular target basis
    f = gf(5)
    A = FieldMatrix(f, [[1, 0, 0, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1]],
                    None, ["a", "b", "c", "d", "e"])
    with pytest.raises(ValueError, match="singular"):
        _parent_y_delta_matrix(A, ["a", "b", "c"])
    NA = y_delta_matrix(A, ["a", "b", "c"])
    assert rank_of_columns(f, NA.columns()) == 2
    assert rank_of_columns(f, [NA.column(j) for j in range(3)]) == 2
    assert all(rank_of_columns(f, [NA.column(i), NA.column(j)]) == 2
               for i, j in combinations(range(3), 2))
    assert projectively_equivalent(A, delta_y_matrix(NA, ["a", "b", "c"])) is not None


def test_dual_matrix_has_the_dual_rank_function():
    # r*(X) = |X| - r(E) + r(E - X) on every subset
    checked = 0
    for A in _exchange_matrices((3,)):
        D = dual_matrix(A)
        assert D.col_labels == A.col_labels
        full = (1 << A.ncols) - 1
        r, rd = all_column_ranks(A), all_column_ranks(D)
        assert all(rd[X] == bin(X).count("1") - r[full] + r[full & ~X]
                   for X in range(full + 1))
        checked += 1
    assert checked == 24
    free = FieldMatrix.identity(gf(3), 3)
    assert dual_matrix(free).rows == ((0, 0, 0),)
    zero = FieldMatrix(gf(3), [[0, 0]])
    assert dual_matrix(zero).rows == ((1, 0), (0, 1))


def _parent_target_basis(f, targets, n):
    """The greedy loop the Delta-Y matrix routine used: append, until there
    are n, the first standard vector that raises the rank."""
    targets = list(targets)
    for _ in range(len(targets), n):
        for s in range(n):
            t = [f.one if k == s else f.zero for k in range(n)]
            if rank_of_columns(f, targets + [t]) == len(targets) + 1:
                targets.append(t)
                break
        else:
            raise AssertionError("could not complete the target basis")
    return [[targets[j][i] for j in range(n)] for i in range(n)]


def test_std_basis_completion_matches_the_parent_target_loops():
    compared = 0
    for q in (2, 3, 4, 5):
        f = gf(q)
        one, neg = f.one, f.neg(f.one)
        for n in range(3, 7):
            # the Delta-Y template: e1 - e2 and coef * (e1 - e3)
            for coef in f.nonzero:
                t1 = [one, neg] + [f.zero] * (n - 2)
                t2 = [coef, f.zero, f.neg(coef)] + [f.zero] * (n - 3)
                got = std_basis_completion(f, [t1, t2], n)
                assert [list(r) for r in got.rows] == _parent_target_basis(f, [t1, t2], n)
                compared += 1
    assert compared == 40


def test_frame_of_delta_t2_prime_is_frame_of_d10():
    # bias-level exchange then matrix equals matrix-level exchange, up to
    # the matroid
    t2p = catalog.biased_2c3("T_2'").omega
    gg = realizations(t2p, MultiplicativeGroup(5))[0]
    A = frame_matrix(gg).matrix
    X = min(t2p.balanced, key=sorted)
    DA = delta_y_matrix(A, [t2p.graph.edge_names[e] for e in sorted(X)])
    img = delta_y(t2p, X)
    assert biased_isomorphic(img, catalog.dwarf("D_{1,0}").omega)
    eq, _ = matroids_equal(vector_matroid(DA), frame_matroid(img))
    assert eq


# -- canonicalization --------------------------------------------------------------

def test_canonicalize_round_trip_b0_frame():
    rng = random.Random(101)
    b0 = catalog.tube("B_0").omega
    gg = realizations(b0, MultiplicativeGroup(5))[0]
    A = frame_matrix(gg).matrix
    for _ in range(5):
        scr = scramble(rng, A)
        res = canonicalize_representation(scr, b0)
        assert res.status == "ok" and res.kind == FRAME
        assert switching_equivalent(res.form.gain_graph, gg) is not None
        assert res.witness.verify(scr, res.form.matrix)
        assert not res.rolled_edges


def test_canonicalize_round_trip_b0_lift():
    rng = random.Random(102)
    b0 = catalog.tube("B_0").omega
    gg = realizations(b0, AdditiveGroup(5))[0]
    A = lift_matrix(gg).matrix
    scr = scramble(rng, A)
    res = canonicalize_representation(scr, b0)
    assert res.status == "ok" and res.kind == LIFT
    assert switching_scaling_equivalent(res.form.gain_graph, gg) is not None
    assert res.witness.verify(scr, res.form.matrix)
    # B_0 is not tangled, so F(B_0) != L(B_0) and the frame kind is never tried
    assert res.other_kind == "not-attempted"


def test_canonicalize_tangled_kind_exclusive(monkeypatch):
    # for tangled graphs F = L and exactly one kind canonicalizes
    rng = random.Random(103)
    t0 = catalog.biased_2c3("T_0").omega
    fgg = realizations(t0, MultiplicativeGroup(5))[0]
    scr = scramble(rng, frame_matrix(fgg).matrix)
    calls = []
    real_rref = canonical.rref

    def counted_rref(A):
        calls.append(A)
        return real_rref(A)

    monkeypatch.setattr(canonical, "rref", counted_rref)
    res = canonicalize_representation(scr, t0)
    assert res.kind == FRAME and res.other_kind == "no"
    assert len(calls) == 1  # both kinds share one row reduction
    lgg = realizations(t0, AdditiveGroup(5))[0]
    scr2 = scramble(rng, lift_matrix(lgg).matrix)
    res2 = canonicalize_representation(scr2, t0)
    assert res2.kind == LIFT and res2.other_kind == "no"


def test_canonicalize_matroid_mismatch():
    t0 = catalog.biased_2c3("T_0").omega
    f = gf(5)
    A = FieldMatrix.identity(f, 6).with_labels(col_labels=t0.graph.edge_names)
    with pytest.raises(MatroidMismatch):
        canonicalize_representation(A, t0)


def test_canonicalize_undecided_reasons_join():
    # a balanced graph has F = L of rank |V| - 1: both kinds stop at the
    # shared rank check and each reports it
    d43 = catalog.dwarf("D_{4,3}").omega
    gg = realizations(d43, MultiplicativeGroup(5))[0]
    res = canonicalize_representation(frame_matrix(gg).matrix, d43)
    assert res.status == "undecided" and res.kind is None
    assert res.reason == "frame: rank != |V|; lift: rank != |V|"


def test_canonicalize_undecided_when_no_gain_realizes_the_joints():
    # F of a link with a joint at each end is U_{2,3}.  GF(2)^x is trivial,
    # so no multiplicative gain makes a loop unbalanced and the binary
    # representation has no frame form particular to omega; over GF(3) the
    # same matrix has one
    om = BiasedGraph(MultiGraph(2, [(0, 1), (0, 0), (1, 1)]), [])
    results = []
    for q in (2, 3):
        A = FieldMatrix(gf(q), [[1, 0, 1], [0, 1, 1]], None, om.graph.edge_names)
        results.append(canonicalize_representation(A, om))
    assert [(r.status, r.kind) for r in results] == [("undecided", None), ("ok", FRAME)]
    assert results[0].reason == "frame: no frame shaping found"


def test_vertex_row_spaces_are_lines_or_planes_at_balancing_vertices():
    # canonicalization takes a vertex's row space to be a line, or a plane
    # at a balancing vertex: in F and L of rank |V| of a vertically
    # 2-connected biased graph, the edges avoiding x have rank |V| - 1, or
    # |V| - 2 exactly when x meets every unbalanced cycle and is not alone
    graphs = [MultiGraph(1, [(0, 0)] * k) for k in (1, 2)]
    graphs += catalog.multigraphs_up_to_iso(4, 6)
    for g in catalog.multigraphs_up_to_iso(3, 4):
        for loops in ([0], [g.n - 1], [0, 0], [0, 1]):
            graphs.append(MultiGraph(g.n, list(g.edges) + [(v, v) for v in loops]))
    seen = set()
    for g in graphs:
        for om in catalog.bias_sets_up_to_aut(g):
            if not om.is_vertically_k_connected(2)[0]:
                continue
            bal = balancing_vertices(om)
            for M in (frame_matroid(om), lift_matroid(om)):
                if M.full_rank() != g.n:
                    continue
                for x in range(g.n):
                    avoid = sum(1 << e for e in range(g.m) if x not in g.endpoints(e))
                    dim = g.n - M.rank_mask(avoid)
                    assert dim == 1 + (g.n > 1 and x in bal)
                    seen.add((g.n, dim))
    assert {(1, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)} <= seen


def test_canonicalize_contracted_tube_rolls():
    # representations of F(2C3-e, contrabalanced) canonicalize to a frame
    # form particular to a roll-up, and to a lift form particular to the
    # graph itself
    b0p = drop_isolated(catalog.by_name("B_0'").omega)
    classes = enumerate_representations(frame_matroid(b0p), 5)
    assert classes
    for cls in classes[:3]:
        fres = canonicalize_representation(cls.matrix, b0p, hint=FRAME)
        assert fres.status == "ok" and fres.kind == FRAME and fres.other_kind == "ok"
        lres = canonicalize_representation(cls.matrix, b0p, hint=LIFT)
        assert lres.status == "ok" and lres.kind == LIFT and not lres.rolled_edges
        assert lres.other_kind == "ok"


def attempt_certifying_every_candidate(A, MA, omega, kind, rows):
    """Reference for canonical._attempt: every parsed candidate gets a gain
    graph on a new MultiGraph, and its variant's matroid is compared with
    MA on all subsets, although an unrolled candidate has omega's matroid;
    every rolled candidate is certified, although only the first is kept.
    It asserts that every unrolled candidate has omega's bias, which
    _attempt takes for granted."""
    parts = kind_parts(kind)
    f = A.field
    g = omega.graph
    R, E, fixed, free = rows
    fallback = None
    for choice in canonical._line_choices(f, free):
        T = parts.rows(f, [fixed[x] if x in fixed else choice[x] for x in range(g.n)])
        if T is None:
            continue
        W = T.mul(R)
        parsed = parts.parse(W, omega, f)
        if parsed is None:
            continue
        group, edges, gains, rolled = parsed
        gg = GainGraph(MultiGraph(g.n, edges, g.edge_names, g.vertex_names), group, gains)
        variant = induced_bias(gg)
        assert rolled or variant.balanced == omega.balanced
        if not matroids_equal_on_all_subsets(MA, parts.matroid(variant))[0]:
            continue
        if rolled and not canonical._roll_reachable(omega, variant):
            continue
        form = parts.matrix(gg)
        scales = canonical._column_scales(W, form.matrix, f)
        if scales is None:
            continue
        witness = ProjWitness(
            T.mul(E).with_labels(row_labels=form.matrix.row_labels, col_labels=A.row_labels),
            FieldMatrix.diagonal(f, scales, A.col_labels),
        )
        if not witness.verify(A, form.matrix):
            continue
        result = CanonicalizeResult(status="ok", kind=kind, form=form, witness=witness,
                                    variant=variant, rolled_edges=tuple(sorted(rolled)))
        if not rolled:
            return result
        if fallback is None:
            fallback = result
    return fallback or CanonicalizeResult(status="undecided", reason="no %s shaping found" % kind)


def _result_fields(res):
    def entries(M):
        return M.field.q, M.rows, M.row_labels, M.col_labels

    ok = res.status == "ok"
    return (res.status, res.kind, entries(res.form.matrix) if ok else None, res.rolled_edges,
            res.other_kind, res.reason, entries(res.witness.T) if ok else None,
            entries(res.witness.S) if ok else None)


def test_attempt_matches_certifying_every_candidate(monkeypatch):
    # every canonicalization made by the round-trip claims and by
    # allreps-contracted-tube at the default options, and the frame matrices
    # of the GF(4) realizations of every roll-up of the contracted tubes,
    # some of which canonicalize only to a form particular to a roll-up
    cases = []
    real = verify.canonicalize_representation

    def recording(A, omega, hint=None):
        cases.append((A, omega, hint))
        return real(A, omega, hint=hint)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "canonicalize_representation", recording)
        for name in ("main3-roundtrip", "main4-samples", "allreps-contracted-tube"):
            assert run_claim(name).status == "pass"
    for nb in catalog.contracted_tubes():
        om = nb.omega
        for u in balancing_vertices(om):
            for cls in unbalancing_classes(om, u).classes:
                if not any(om.graph.is_loop(e) for e in cls):
                    for gg in realizations(roll_up(om, u, cls), MultiplicativeGroup(4)):
                        cases.append((frame_matrix(gg).matrix, om, FRAME))
    got = [canonicalize_representation(*case) for case in cases]
    monkeypatch.setattr(canonical, "_attempt", attempt_certifying_every_candidate)
    for case, res in zip(cases, got):
        assert _result_fields(res) == _result_fields(canonicalize_representation(*case))
    assert sum(bool(res.rolled_edges) for res in got) >= 10


# -- enumeration -----------------------------------------------------------------

def enumerate_by_scaling_every_entry(M, q, biased_graph=None, hint=None, forest_to_one=False):
    """Reference oracle: the enumerator that tries every nonzero value on
    every support entry of the standard form, keeps the complete forms whose
    every column subset has its rank in M, and merges each diagonal scaling
    orbit by projective_key, counting its members.

    With forest_to_one, the entries on the greedy spanning forest of the
    support graph (grown in (column, row) order) are 1 instead, so each
    orbit has one member, counted as (q-1)^|forest|: the leaf-filter
    enumerator that per-basis extension replaced, fast enough for larger
    q and ground sets."""
    f = gf(q)
    n = M.size
    r = M.full_rank()
    basis = []
    mask = 0
    for i in range(n):
        if M.rank_mask(mask | 1 << i) > M.rank_mask(mask):
            mask |= 1 << i
            basis.append(i)
        if len(basis) == r:
            break
    nonbasis = [j for j in range(n) if j not in basis]
    support = {}
    for j in nonbasis:
        if M.rank_mask(1 << j) == 0:
            support[j] = []
            continue
        withj = mask | 1 << j
        support[j] = [b for b in basis if M.rank_mask(withj & ~(1 << b)) == r]
    target_ranks = [M.rank_mask(s) for s in range(1 << n)]
    pos_of = {b: k for k, b in enumerate(basis)}
    parent = list(range(n))
    forest = set()
    for j in nonbasis:
        for b in support[j]:
            rj, rb = graph.find(parent, j), graph.find(parent, b)
            if rj != rb:
                parent[rj] = rb
                forest.add((j, b))
    orbit_size = (q - 1) ** len(forest) if forest_to_one else 1
    all_cols = {}
    for k, b in enumerate(basis):
        all_cols[b] = [f.one if i == k else f.zero for i in range(r)]
    classes = {}
    order = []

    def column_options(j):
        values = [[f.one] if forest_to_one and (j, b) in forest else f.nonzero
                  for b in support[j]]
        for entries in product(*values):
            col = [f.zero] * r
            for b, val in zip(support[j], entries):
                col[pos_of[b]] = val
            yield col

    def pair_ok(j1, j2):
        have = rank_of_columns(f, [all_cols[j1], all_cols[j2]])
        return have == target_ranks[(1 << j1) | (1 << j2)]

    def rec(idx):
        if idx == len(nonbasis):
            A = FieldMatrix(
                f, [[all_cols[j][i] for j in range(n)] for i in range(r)],
                None, M.labels,
            )
            if all_column_ranks(A) == target_ranks:
                key = projective_key(A)
                if key in classes:
                    classes[key].count += orbit_size
                else:
                    classes[key] = ReprClass(A, orbit_size)
                    order.append(key)
            return
        j = nonbasis[idx]
        for col in column_options(j):
            all_cols[j] = col
            if all(pair_ok(j, j2) for j2 in nonbasis[:idx] + basis):
                rec(idx + 1)
            del all_cols[j]

    rec(0)
    out = [classes[k] for k in order]
    if biased_graph is not None:
        for cls in out:
            try:
                res = canonicalize_representation(cls.matrix, biased_graph, hint=hint)
            except (MatroidMismatch, NotVertically2Connected):
                res = None
            if res is not None and res.status == "ok":
                cls.kind = res.kind
    return out


def _class_table(classes):
    return [(c.matrix.rows, c.matrix.col_labels, c.count, c.kind) for c in classes]


def _differential_cases():
    """(name, matroid, q, biased graph, hint, forest_to_one): every base
    graph, T'_{2,i} and contracted tube, both kinds, over GF(2) to GF(5),
    and U_{2,4} and M(K_4).  The oracle scales every entry where that stays
    cheap (q = 2, and q = 3 on at most six edges); elsewhere it fixes the
    forest entries to 1 and filters complete forms by all subset ranks."""
    graphs = (catalog.base_graphs() + tuple(catalog.t2_prime_split(i) for i in (1, 2, 3))
              + catalog.contracted_tubes())
    for q in (2, 3, 4, 5):
        for nb in graphs:
            om = nb.omega
            forest_to_one = q > 3 or (q == 3 and om.graph.m > 6)
            yield nb.name + " frame", frame_matroid(om), q, om, None, forest_to_one
            yield nb.name + " lift", lift_matroid(om), q, om, LIFT, forest_to_one
    u24 = uniform_matroid(2, ("e1", "e2", "e3", "e4"))
    for q in (4, 5, 7):  # GF(7) is past the field cap the enumerator once had
        yield "U_{2,4}", u24, q, None, None, False
    k4 = graphic_matroid(catalog.graph_k4())
    for q in (2, 3, 4, 5):
        yield "M(K4)", k4, q, None, None, False


def test_enumerate_matches_scaling_every_entry():
    # per-basis extension from one forest-normalized standard form per
    # class gives the same classes, representatives, order, counts and
    # kinds as the oracle
    diffs = []
    n_classes = 0
    for name, M, q, om, hint, forest_to_one in _differential_cases():
        got = _class_table(enumerate_representations(M, q, biased_graph=om, hint=hint))
        want = _class_table(enumerate_by_scaling_every_entry(M, q, om, hint, forest_to_one))
        n_classes += len(want)
        if got != want:
            diffs.append((name, q))
    assert diffs == []
    assert n_classes == 312


def test_enumerate_raises_on_a_repeated_class(monkeypatch):
    # after forest normalization no two standard forms share a class, so a
    # repeated key is a bug, not a member to count
    monkeypatch.setattr(canonical, "projective_key", lambda A: "same")
    u24 = uniform_matroid(2, ("e1", "e2", "e3", "e4"))
    with pytest.raises(BmlabError):
        enumerate_representations(u24, 4)


def test_enumerate_reports_a_canonicalization_bound_hit(monkeypatch):
    # a bound hit is undecided, not a class that failed to canonicalize
    def hit_bound(*args, **kwargs):
        raise BoundExceeded("canonicalization bound")

    monkeypatch.setattr(canonical, "canonicalize_representation", hit_bound)
    b1 = catalog.tube("B_1").omega
    with pytest.raises(BoundExceeded):
        enumerate_representations(frame_matroid(b1), 4, biased_graph=b1)
    assert run_claim("allreps-tube-frame").status == "undecided"


def test_enumerate_work_is_subsets_listed_plus_basis_tests():
    # U_{2,4} over GF(4): C(4, 2) = 6 subsets listed, then {e3, e4} tested
    # once for each of the 3 values of the last column's free entry
    u24 = uniform_matroid(2, ("e1", "e2", "e3", "e4"))
    assert len(enumerate_representations(u24, 4, max_work=9)) == 2
    with pytest.raises(BoundExceeded):
        enumerate_representations(u24, 4, max_work=8)


def test_enumerate_builds_column_options_lazily(monkeypatch):
    # the second non-basis column of U_{3,7} over GF(251) has 250^2
    # options; the work bound trips after a few hundred of them
    pulled = []

    def counting_product(*args, **kwargs):
        for item in product(*args, **kwargs):
            pulled.append(item)
            yield item

    monkeypatch.setattr(canonical, "product", counting_product)
    u37 = uniform_matroid(3, ["e%d" % i for i in range(7)])
    with pytest.raises(BoundExceeded):
        enumerate_representations(u37, 251, max_work=1000)
    assert 0 < len(pulled) < 1000


ENUMERATING_CLAIMS = ("allreps-2c3", "allreps-k4", "allreps-tube-frame", "allreps-tube-lift",
                      "allreps-contracted-tube", "subdivision-classes")


def test_enumerating_claims_stay_far_inside_the_work_bound(monkeypatch):
    # at default options each claim passes with a hundredth of the bound
    small = canonical.ENUMERATION_WORK_BOUND // 100
    monkeypatch.setattr(verify, "enumerate_representations",
                        lambda *args, **kwargs: enumerate_representations(
                            *args, max_work=small, **kwargs))
    assert [run_claim(name).status for name in ENUMERATING_CLAIMS] == ["pass"] * 6


def test_enumerate_u24_class_counts():
    u24 = uniform_matroid(2, ("e1", "e2", "e3", "e4"))
    assert len(enumerate_representations(u24, 4)) == 2
    assert len(enumerate_representations(u24, 5)) == 3


def test_enumerate_graphic_k4_unique():
    M = graphic_matroid(catalog.graph_k4())
    for q in (2, 3, 4, 5):
        assert len(enumerate_representations(M, q)) == 1


def test_enumerate_counts_match_gain_classes():
    # class count = switching classes (frame) + scaling classes (lift)
    om = catalog.biased_2c3("T_2'").omega
    classes = enumerate_representations(frame_matroid(om), 4, biased_graph=om)
    n_frame = len(realizations(om, MultiplicativeGroup(4)))
    n_lift = len(set(gain_classes(LIFT, realizations(om, AdditiveGroup(4)))))
    assert len(classes) == n_frame + n_lift == 4
    assert sorted(c.kind for c in classes) == ["frame", "frame", "lift", "lift"]


def test_lift_gain_classes_match_the_scaling_orbits_oracle():
    # the first-nonzero key against the least scalar multiple of each
    # renormalized function, on the base graphs and the vertically
    # 2-connected, properly unbalanced (4, 7) family: the same label for
    # every realization, labels in order of first appearance
    graphs = [nb.omega for nb in catalog.base_graphs()]
    graphs += catalog.biased_family(4, 7, catalog.vertically_2_connected,
                                    catalog.properly_unbalanced)
    assert len(graphs) == 100
    totals = {}
    for q in (2, 3, 4, 5, 7, 8, 9):
        totals[q] = 0
        for om in graphs:
            reps = realizations(om, AdditiveGroup(q))
            orbits = scaling_orbits(reps)
            label = {id(gg): k for k, orbit in enumerate(orbits) for gg in orbit}
            assert gain_classes(LIFT, reps) == [label[id(gg)] for gg in reps]
            totals[q] += len(orbits)
    assert totals == {2: 14, 3: 35, 4: 112, 5: 241, 7: 1063, 8: 1988, 9: 3317}


def test_roundtrip_every_catalog_realization():
    # every normalized realization of every base graph over GF(4)/GF(5)
    # canonicalizes back to its own kind with equivalent gains
    for nb in catalog.base_graphs():
        om = nb.omega
        for q in (4, 5):
            for gg in realizations(om, MultiplicativeGroup(q)):
                res = canonicalize_representation(frame_matrix(gg).matrix, om)
                assert res.status == "ok" and res.kind == FRAME, (nb.name, q)
                assert switching_equivalent(res.form.gain_graph, gg) is not None
            for gg in realizations(om, AdditiveGroup(q)):
                res = canonicalize_representation(
                    lift_matrix(gg).matrix, om, hint=LIFT
                )
                assert res.status == "ok" and res.kind == LIFT, (nb.name, q)
                assert switching_scaling_equivalent(res.form.gain_graph, gg) is not None


def _almost_balanced_with_roll_ups():
    """The rollup-frame instances and their roll-ups, which carry joints."""
    omegas = []
    for nb in (catalog.dwarf("D_{1,0}"), catalog.dwarf("D_{2,1}"), *catalog.contracted_tubes()):
        om = BiasedGraph(nb.omega.graph, nb.omega.balanced)
        omegas.append(om)
        for u in classify_balance(om).balancing_vertices:
            omegas += [roll_up(om, u, c) for c in unbalancing_classes(om, u).classes
                       if not any(om.graph.is_loop(e) for e in c)]
    return omegas


def test_unrolled_memo_matches_a_fresh_unroll():
    # at every vertex, balancing or not, so that unroll also raises
    outcomes = Counter()
    for om in _almost_balanced_with_roll_ups():
        for u in range(om.graph.n):
            kept = canonical._unrolled(om, u)
            assert canonical._unrolled(om, u) is kept
            try:
                fresh = unroll(om, u)
            except BmlabError:
                assert kept is None
                outcomes["raises"] += 1
                continue
            assert (kept.graph.edges, kept.balanced) == (fresh.graph.edges, fresh.balanced)
            outcomes["unrolled"] += 1
    assert outcomes["raises"] and outcomes["unrolled"] >= 20, outcomes


def test_unrolled_memo_does_not_outlive_its_biased_graph():
    om = _almost_balanced_with_roll_ups()[-1]
    u = classify_balance(om).balancing_vertices[0]
    assert canonical._roll_reachable(om, om)
    with count_builds(canonical._unrolled) as builds:
        canonical._unrolled(om, u)
    assert not builds  # kept on om
    ref = weakref.ref(om)
    del om
    assert ref() is None


def _fresh_copy(omega):
    """The same biased graph as a new object, with nothing kept on it yet."""
    return BiasedGraph(omega.graph, omega.balanced, check=False)


def _claim_graphs():
    """The biased graphs of the allreps-*, main3-roundtrip and
    main4-samples claims, each once."""
    named = list(catalog.classify_2c3_proper()) + verify.FAMILIES["proper-k4"]()
    named += list(catalog.classify_tube_proper()) + list(catalog.contracted_tubes())
    named += [catalog.t2_prime_split(i) for i in (1, 2, 3)]
    named += [catalog.tube("B_0"), catalog.dwarf("D_{0,2}"), catalog.biased_2c3("T_0"),
              catalog.dwarf("D_{1,0}")]
    omegas = []
    for nb in named:
        if nb.omega not in omegas:
            omegas.append(nb.omega)
    p2 = MultiGraph(3, [(0, 2), (2, 1)])
    return omegas + [catalog.fat_theta([p2, p2, p2])]


def _claim_inputs(q):
    """(omega, hint, matrix): every representation class of F and L of
    each claim graph over GF(q), hinting the kind, and a seeded scramble
    of the canonical matrix of each of the first three realizations of
    each kind, hinting that kind and hinting nothing.  Then a seeded
    random matrix per graph, which mostly represents neither matroid."""
    rng = random.Random(q)
    f = gf(q)
    for om in _claim_graphs():
        g = om.graph
        yield om, None, FieldMatrix(f, [[rng.choice(f.elements) for _ in range(g.m)]
                                        for _ in range(g.n)], None, g.edge_names)
        for kind in (FRAME, LIFT):
            parts = kind_parts(kind)
            if om.graph.is_vertically_k_connected(2)[0]:
                for cls in enumerate_representations(parts.matroid(om), q):
                    yield om, kind, cls.matrix
            for gg in realizations(om, parts.group(q))[:3]:
                A = verify._scramble(rng, gf(q), parts.matrix(gg).matrix)
                yield om, kind, A
                yield om, None, A


def _result_key(res):
    """Every field of a CanonicalizeResult, matrices by entries and labels."""
    def mat(M):
        return None if M is None else (M.rows, M.row_labels, M.col_labels)

    form, wit, var = res.form, res.witness, res.variant
    return (res.status, res.kind, res.rolled_edges, res.other_kind, res.reason,
            None if form is None else (form.kind, form.gain_graph, mat(form.matrix)),
            None if wit is None else (mat(wit.T), mat(wit.S)),
            None if var is None else (var.graph, var.balanced))


def _canonicalized(A, om, hint):
    try:
        return _result_key(canonicalize_representation(A, om, hint=hint))
    except (MatroidMismatch, NotVertically2Connected) as exc:
        return type(exc)


def test_kinds_and_results_match_the_two_walk_match(monkeypatch):
    """_matched_kinds, which walks M(A) against one kind's matroid and
    decides the other from F = L, against the two walks it replaced; then
    every CanonicalizeResult field against canonicalization with the
    two-walk match on a fresh copy of omega, so that no kept oracle,
    reachability or unrolling is shared.  Over GF(3), GF(4) and GF(5) on
    every class and scramble of the claim graphs."""
    seen = Counter()
    inputs = [x for q in (3, 4, 5) for x in _claim_inputs(q)]
    new = []
    for om, hint, A in inputs:
        MA = vector_matroid(A)
        kinds = canonical._matched_kinds(MA, om, hint)
        assert kinds == matched_kinds_by_two_walks(MA, om, hint), (om, hint, A.rows)
        new.append(_canonicalized(A, om, hint))
        seen[tuple(kinds)] += 1
    monkeypatch.setattr(canonical, "_matched_kinds", matched_kinds_by_two_walks)
    for (om, hint, A), got in zip(inputs, new):
        assert got == _canonicalized(A, _fresh_copy(om), hint), (om, hint, A.rows)
    # every branch of the match: the first kind alone, both kinds, the
    # second kind alone (walked when F != L), and neither
    assert seen == {("frame",): 48, ("frame", "lift"): 383, ("lift",): 61,
                    ("lift", "frame"): 246, (): 62}


def test_roll_reachability_matches_fresh_unrollings(monkeypatch):
    """_roll_reachable, kept on omega by the variant's graph and bias,
    against fresh unrollings, on every rolled candidate that the claim
    graphs' classes and scrambles meet over GF(3), GF(4) and GF(5); each
    candidate's graph is also asked with no cycle and with every cycle
    balanced, right after the candidate itself."""
    kept = canonical._roll_reachable
    seen = Counter()

    def checked(omega, variant):
        got = kept(omega, variant)
        assert got == roll_reachable_by_unrolling(omega, variant), (omega, variant)
        for bal in ((), [c.edges for c in variant.graph.cycles()]):
            other = BiasedGraph(variant.graph, bal, check=False)
            assert kept(omega, other) == roll_reachable_by_unrolling(omega, other)
        seen[got] += 1
        return got

    monkeypatch.setattr(canonical, "_roll_reachable", checked)
    for q in (3, 4, 5):
        for om, hint, A in _claim_inputs(q):
            _canonicalized(A, om, hint)
    assert seen == {True: 177, False: 66}


def test_derived_biased_graphs_start_with_empty_caches():
    """Minors, joint extensions and roll-ups are new biased graphs: none
    inherits the kept oracles, F = L answer, reachability or unrollings
    of the graph it came from, and each builds its own correct ones."""
    om = _fresh_copy(catalog.contracted_tubes()[0].omega)
    u = classify_balance(om).balancing_vertices[0]
    kinds = (frame_matroid, lift_matroid, complete_lift_matroid, frame_equals_lift)
    kept = kinds + (canonical._unrolled, canonical._reachable)

    def build_all(omega):
        for build in kinds:
            build(omega)
        for v in range(omega.graph.n):
            canonical._unrolled(omega, v)
        return canonical._roll_reachable(omega, omega)

    assert build_all(om)
    with count_builds(*kept) as builds:
        build_all(om)
    assert not builds
    derived = [biased_minor(om, {0}, ()).omega, biased_minor(om, (), {0}).omega,
               extend_with_joint(om, 0, "l1")]
    derived += [roll_up(om, u, c) for c in unbalancing_classes(om, u).classes]
    for d in derived:
        with count_builds(*kept) as builds:
            build_all(d)
        # every vertex of d is unrolled, and so are some of the fresh
        # variant's that the reachability build compares with
        assert builds.pop("_unrolled") >= d.graph.n
        assert builds == dict.fromkeys([f.__name__ for f in kinds + (canonical._reachable,)], 1)
        F, L = frame_matroid(d), lift_matroid(d)
        assert F is frame_matroid(d) and F is not frame_matroid(om)
        assert matroids_equal_on_all_subsets(F, formula_matroid(d, True)) == (True, None)
        assert matroids_equal_on_all_subsets(L, formula_matroid(d, False)) == (True, None)
        assert frame_equals_lift(d) == matroids_equal(F, L)[0]
    assert len(derived) == 7
