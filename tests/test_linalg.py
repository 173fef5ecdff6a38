import random
from fractions import Fraction
from itertools import product

import pytest

from bmlab.errors import ColumnLabelMismatch
from bmlab.fields import GF, QQ, gf
from bmlab.linalg import (
    FieldMatrix,
    all_column_ranks,
    invert,
    left_null_space,
    projective_key,
    projectively_equivalent,
    rank_of_columns,
    rref,
    vector_matroid,
)
from bmlab.matroid import matroids_equal, uniform_matroid
from oracles import (
    diagonally_equivalent,
    gf_tables_pair_by_pair,
    matrix_product_by_entries,
    projective_key_through_rref,
    projectively_equivalent_by_basis_transfer,
    reduce_by_axpy,
    rref_by_entries,
)


def test_field_axioms_small():
    # exhaustive for q <= 49
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49):
        f = gf(q)
        els = list(f.elements)
        for a in els:
            assert f.add(a, f.zero) == a
            assert f.mul(a, f.one) == a
            assert f.add(a, f.neg(a)) == f.zero
            if a != f.zero:
                assert f.mul(a, f.inv(a)) == f.one
        for a, b in product(els[: min(len(els), 9)], repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in product(els[: min(len(els), 5)], repeat=3):
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


PRIME_POWERS = sorted({p ** k for p in range(2, 257) if all(p % d for d in range(2, p))
                       for k in range(1, 9) if p ** k <= 256})


def test_field_tables_match_the_pair_by_pair_build():
    # every prime power q <= 256; the non-prime ones from polynomial products
    assert len(PRIME_POWERS) == 54 + 16
    for q in PRIME_POWERS:
        f = GF(q)
        assert (f._add, f._mul, f._neg, f._inv) == gf_tables_pair_by_pair(q), q


def test_row_kernels_match_the_entry_operations():
    # axpy and scale against add(mul(c, x), y) and mul(c, x) for every
    # (c, x, y), each pair (x, y) an entry of one long row, for q <= 9
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = gf(q)
        xs, ys = zip(*product(f.elements, repeat=2))
        for c in f.elements:
            assert f.axpy(c, xs, ys) == [f.add(f.mul(c, x), y) for x, y in zip(xs, ys)]
            assert f.scale(c, xs) == [f.mul(c, x) for x in xs]
    els = [Fraction(a, b) for a in range(-2, 3) for b in (1, 2, 3)]
    xs, ys = zip(*product(els, repeat=2))
    for c in els:
        assert QQ.axpy(c, xs, ys) == [QQ.add(QQ.mul(c, x), y) for x, y in zip(xs, ys)]
        assert QQ.scale(c, xs) == [QQ.mul(c, x) for x in xs]


def test_reduce_matches_one_axpy_per_pivot_row():
    # reduce against the axpy loop it replaced, on seeded bases of up to
    # four pivot rows (each 1 at its lead, in any lead order) and rows that
    # are zero at about a third of their entries, given as lists and as
    # tuples, over GF(2) to GF(9) and QQ
    rng = random.Random(45)
    moved = 0
    for f in [gf(q) for q in (2, 3, 4, 5, 7, 8, 9)] + [QQ]:
        for _ in range(200):
            m = rng.randint(1, 6)
            basis = []
            for lead in rng.sample(range(m), rng.randint(0, min(4, m))):
                b = [_draw(rng, f) for _ in range(m)]
                b[lead] = f.one
                basis.append((lead, b))
            row = [_draw(rng, f) if rng.random() < 0.7 else f.zero for _ in range(m)]
            want = list(reduce_by_axpy(f, basis, row))
            assert list(f.reduce(basis, row)) == want, (f, basis, row)
            assert list(f.reduce(tuple(basis), tuple(row))) == want, (f, basis, row)
            moved += want != row
    assert moved == 839


def _transpose(A):
    return FieldMatrix(A.field, zip(*A.rows), A.col_labels, A.row_labels)


def _check_against_the_entry_oracles(A):
    """rref, three products and the column rank of A against the oracles
    that compute one entry at a time."""
    R, E, piv = rref(A)
    R0, E0, piv0 = rref_by_entries(A)
    assert (R.rows, E.rows, piv) == (R0.rows, E0.rows, piv0), A.rows
    assert (R.row_labels, R.col_labels, E.col_labels) == (R0.row_labels, R0.col_labels,
                                                         E0.col_labels)
    At = _transpose(A)
    for X, Y in ((E, A), (A, At), (At, A)):
        assert X.mul(Y).rows == matrix_product_by_entries(X, Y).rows, (X.rows, Y.rows)
    assert rank_of_columns(A.field, A.columns()) == len(piv)


def test_rref_and_products_match_the_entry_oracles_on_every_small_matrix():
    # every 2x3 and 3x2 matrix over GF(2), GF(3) and GF(4), and every 3x3
    # matrix over GF(2) and GF(3)
    shapes = [(q, n, m) for q in (2, 3, 4) for n, m in ((2, 3), (3, 2))]
    shapes += [(2, 3, 3), (3, 3, 3)]
    checked = 0
    for q, n, m in shapes:
        f = gf(q)
        for entries in product(f.elements, repeat=n * m):
            _check_against_the_entry_oracles(
                FieldMatrix(f, [entries[i * m:(i + 1) * m] for i in range(n)]))
            checked += 1
    assert checked == 2 * (2 ** 6 + 3 ** 6 + 4 ** 6) + 2 ** 9 + 3 ** 9


def test_rref_and_products_match_the_entry_oracles_on_seeded_matrices():
    # GF(5), GF(7), GF(8), GF(9) and QQ: shapes up to 4 x 5, entries zero
    # half the time so that ranks fall short
    rng = random.Random(41)
    for f in (gf(5), gf(7), gf(8), gf(9), QQ):
        for _ in range(150):
            n, m = rng.randint(1, 4), rng.randint(1, 5)
            A = FieldMatrix(f, [[_draw(rng, f) if rng.random() < 0.5 else f.zero
                                 for _ in range(m)] for _ in range(n)])
            _check_against_the_entry_oracles(A)


def test_gf4_structure():
    f = gf(4)
    # x^2 = x + 1 under the fixed irreducible x^2 + x + 1
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.char == 2
    assert f.add(1, 1) == 0


def frame_2c3_matrix(q, a, b, c, d):
    f = gf(q)
    return FieldMatrix(
        f,
        [
            [1, 1, 0, 0, f.neg(c), f.neg(d)],
            [f.neg(1), f.neg(a), 1, 1, 0, 0],
            [0, 0, f.neg(1), f.neg(b), 1, 1],
        ],
        ["v1", "v2", "v3"],
        ["e1", "e2", "e3", "e4", "e5", "e6"],
    )


def test_rref_identity():
    f = gf(5)
    I = FieldMatrix.identity(f, 3)
    R, E, piv = rref(I)
    assert R.equal_entries(I) and piv == (0, 1, 2)


def test_rref_zero():
    f = gf(5)
    Z = FieldMatrix(f, [[0, 0], [0, 0]])
    R, E, piv = rref(Z)
    assert R.equal_entries(Z) and piv == ()


def test_rref_2c3_display_rank3():
    A = frame_2c3_matrix(5, 2, 3, 2, 4)
    R, E, piv = rref(A)
    assert len(piv) == 3
    assert E.mul(A).equal_entries(R)
    invert(E)  # transform is invertible


def test_vector_matroid_identity_is_free():
    f = gf(5)
    vm = vector_matroid(FieldMatrix.identity(f, 4))
    assert vm.full_rank() == 4
    assert vm.rank_mask(0b1010) == 2


@pytest.mark.parametrize("g", [2, 3])
def test_vector_matroid_u24_over_gf4(g):
    f = gf(4)
    A = FieldMatrix(f, [[1, 0, 1, 1], [0, 1, 1, g]], None, "abcd")
    eq, _ = matroids_equal(vector_matroid(A), uniform_matroid(2, "abcd"))
    assert eq


def test_vector_matroid_2c3_frame():
    from bmlab import catalog
    from bmlab.gains import GainGraph, MultiplicativeGroup, induced_bias
    from bmlab.matroid import frame_matroid
    from bmlab.canonical import frame_matrix

    g = catalog.graph_2c3()
    gg = GainGraph(g, MultiplicativeGroup(5), {0: 1, 1: 2, 2: 1, 3: 3, 4: 2, 5: 4})
    A = frame_matrix(gg).matrix
    eq, _ = matroids_equal(vector_matroid(A), frame_matroid(induced_bias(gg)))
    assert eq


def test_all_column_ranks_agrees():
    f = gf(3)
    rng = random.Random(2)
    A = FieldMatrix(f, [[rng.randrange(3) for _ in range(6)] for _ in range(3)])
    table = all_column_ranks(A)
    cols = A.columns()
    for mask in range(1 << 6):
        sel = [cols[j] for j in range(6) if mask >> j & 1]
        assert table[mask] == rank_of_columns(f, sel)


# -- diagonal equivalence: the reference that projective witnesses were built on

def test_diagonal_equivalence_reflexive():
    A = frame_2c3_matrix(5, 2, 3, 2, 4)
    d = diagonally_equivalent(A, A)
    assert d is not None
    d1, d2 = d
    assert all(x == 1 for x in d1) and all(x == 1 for x in d2)


def test_diagonal_equivalence_scalar():
    A = frame_2c3_matrix(5, 2, 3, 2, 4)
    f = A.field
    B = FieldMatrix(f, [[f.mul(2, x) for x in r] for r in A.rows], A.row_labels, A.col_labels)
    d = diagonally_equivalent(A, B)
    assert d is not None
    d1, d2 = d
    for i in range(A.nrows):
        for j in range(A.ncols):
            assert f.mul(d1[i], f.mul(A.rows[i][j], d2[j])) == B.rows[i][j]


def test_diagonal_equivalence_support_mismatch():
    f = gf(5)
    A = FieldMatrix(f, [[1, 0], [0, 1]])
    B = FieldMatrix(f, [[1, 1], [0, 1]])
    assert diagonally_equivalent(A, B) is None


def test_projective_equivalence_reflexive():
    A = frame_2c3_matrix(5, 2, 3, 2, 4)
    w = projectively_equivalent(A, A)
    assert w is not None and w.verify(A, A)


def test_projective_equivalence_u24_parameters():
    f = gf(5)
    for g1 in (2, 3, 4):
        for g2 in (2, 3, 4):
            A = FieldMatrix(f, [[1, 0, 1, f.neg(g1)], [0, 1, f.neg(1), 1]], None, "abcd")
            B = FieldMatrix(f, [[1, 0, 1, f.neg(g2)], [0, 1, f.neg(1), 1]], None, "abcd")
            w = projectively_equivalent(A, B)
            assert (w is not None) == (g1 == g2)


def test_frame_vs_lift_2c3_never_equivalent():
    # cross-kind inequivalence for one explicit proper bias over GF(5)
    f = gf(5)
    A = frame_2c3_matrix(5, 2, 3, 2, 4)
    x, y, z = 2, 3, 1
    B = FieldMatrix(
        f,
        [
            [0, 1, 0, x, y, z],
            [1, 1, 0, 0, f.neg(1), f.neg(1)],
            [f.neg(1), f.neg(1), 1, 1, 0, 0],
            [0, 0, f.neg(1), f.neg(1), 1, 1],
        ],
        ["g", "v1", "v2", "v3"],
        A.col_labels,
    )
    assert projectively_equivalent(A, B) is None


def test_projective_equivalence_random_round_trip_and_transitivity():
    f = gf(5)
    rng = random.Random(11)
    A = frame_2c3_matrix(5, 2, 3, 2, 4)

    def scramble(M):
        while True:
            T = FieldMatrix(f, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
            try:
                invert(T)
                break
            except ValueError:
                continue
        S = FieldMatrix.diagonal(f, [rng.randrange(1, 5) for _ in range(6)], M.col_labels)
        return T.with_labels(col_labels=M.row_labels).mul(M).mul(S)

    B = scramble(A).with_labels(row_labels=A.row_labels)
    C = scramble(B).with_labels(row_labels=A.row_labels)
    wab = projectively_equivalent(A, B)
    wbc = projectively_equivalent(B, C)
    wac = projectively_equivalent(A, C)
    assert wab and wbc and wac
    assert wab.verify(A, B) and wbc.verify(B, C) and wac.verify(A, C)
    # symmetry
    wba = projectively_equivalent(B, A)
    assert wba is not None and wba.verify(B, A)


def test_vector_matroid_invariant_under_projective_maps():
    f = gf(5)
    rng = random.Random(3)
    A = frame_2c3_matrix(5, 2, 3, 2, 4)
    for _ in range(10):
        while True:
            T = FieldMatrix(f, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
            try:
                invert(T)
                break
            except ValueError:
                continue
        S = FieldMatrix.diagonal(f, [rng.randrange(1, 5) for _ in range(6)], A.col_labels)
        B = T.with_labels(col_labels=A.row_labels).mul(A).mul(S)
        eq, _ = matroids_equal(vector_matroid(A), vector_matroid(B))
        assert eq


def test_column_label_mismatch():
    f = gf(5)
    A = FieldMatrix(f, [[1, 0], [0, 1]], None, ("a", "b"))
    B = FieldMatrix(f, [[1, 0], [0, 1]], None, ("b", "a"))
    with pytest.raises(ColumnLabelMismatch):
        projectively_equivalent(A, B)


def test_decision_matches_brute_force_gf3():
    """Oracle agreement on 3x6 matrices over GF(3): the decision procedure
    against brute force over all invertible T (3^9 candidates) with column
    scaling read off per column.  A fixed seeded subfamily of pairs keeps
    the brute force affordable (ledgered)."""
    f = gf(3)
    rng = random.Random(17)
    labels = tuple("abcdef")

    def random_full_rank():
        while True:
            M = FieldMatrix(
                f, [[rng.randrange(3) for _ in range(6)] for _ in range(3)], None, labels
            )
            if len(rref(M)[2]) == 3:
                return M

    def brute(A, B):
        cols_b = B.columns()
        for entries in product(range(3), repeat=9):
            T = FieldMatrix(f, [list(entries[i * 3:(i + 1) * 3]) for i in range(3)])
            try:
                invert(T)
            except ValueError:
                continue
            TA = T.mul(FieldMatrix(f, A.rows))
            ok = True
            for j in range(6):
                ta = [TA.rows[i][j] for i in range(3)]
                tb = [cols_b[j][i] for i in range(3)]
                s = None
                for x, y in zip(ta, tb):
                    if (x == 0) != (y == 0):
                        ok = False
                        break
                    if x != 0:
                        cand = f.div(y, x)
                        if s is None:
                            s = cand
                        elif cand != s:
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                return True
        return False

    mats = [random_full_rank() for _ in range(4)]
    # include one genuinely equivalent pair
    T0 = FieldMatrix(f, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    S0 = FieldMatrix.diagonal(f, [1, 2, 1, 2, 1, 2], labels)
    mats.append(T0.with_labels(col_labels=mats[0].row_labels).mul(mats[0]).mul(S0)
                .with_labels(row_labels=mats[0].row_labels))
    pairs = [(0, 4), (0, 1), (1, 2), (2, 3)]
    for i, j in pairs:
        fast = projectively_equivalent(mats[i], mats[j]) is not None
        assert fast == brute(mats[i], mats[j]), (i, j)


def test_projective_key_complete_on_samples():
    f = gf(4)
    rng = random.Random(23)
    labels = tuple("abcde")
    mats = []
    for _ in range(12):
        mats.append(FieldMatrix(
            f, [[rng.randrange(4) for _ in range(5)] for _ in range(3)], None, labels))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            decided = projectively_equivalent_by_basis_transfer(mats[i], mats[j]) is not None
            assert decided == (projective_key(mats[i]) == projective_key(mats[j]))


def _draw(rng, f, nonzero=False):
    if f == QQ:
        return Fraction(rng.choice([x for x in range(-3, 4) if x or not nonzero]),
                        rng.randint(1, 3))
    return rng.choice(f.nonzero if nonzero else f.elements)


def _scramble(rng, A, extra_rows=0):
    """T*A*S for a random T of full column rank with extra_rows more rows
    than A, and a random nonsingular diagonal S."""
    f = A.field
    while True:
        T = FieldMatrix(f, [[_draw(rng, f) for _ in range(A.nrows)]
                            for _ in range(A.nrows + extra_rows)])
        if len(rref(T)[2]) == A.nrows:
            break
    S = FieldMatrix.diagonal(f, [_draw(rng, f, True) for _ in range(A.ncols)], A.col_labels)
    return T.mul(A).mul(S)


def _rescale(rng, A):
    """A with every nonzero entry replaced by a random nonzero one."""
    f = A.field
    return FieldMatrix(f, [[_draw(rng, f, True) if x != f.zero else x for x in row]
                           for row in A.rows], None, A.col_labels)


def _projective_pairs():
    """Every 1x2, 2x2 and 2x3 matrix over GF(2) and GF(3), each paired with
    a scramble and with a same-support rescale; then seeded matrices over
    GF(4), GF(5), GF(7), GF(8), GF(9) and the rationals, each paired with
    a scramble that has 0 to 2 extra rows, a rescale, and an unrelated
    matrix of its width."""
    rng = random.Random(31)
    for q in (2, 3):
        f = gf(q)
        for r, c in ((1, 2), (2, 2), (2, 3)):
            for entries in product(f.elements, repeat=r * c):
                A = FieldMatrix(f, [entries[i * c:(i + 1) * c] for i in range(r)])
                yield A, _scramble(rng, A)
                yield A, _rescale(rng, A)
    for f in [gf(q) for q in (4, 5, 7, 8, 9)] + [QQ]:
        for _ in range(60):
            r, c = rng.randint(1, 4), rng.randint(1, 6)
            A = FieldMatrix(f, [[_draw(rng, f) for _ in range(c)] for _ in range(r)])
            yield A, _scramble(rng, A, rng.randint(0, 2))
            yield A, _rescale(rng, A)
            yield A, FieldMatrix(f, [[_draw(rng, f) for _ in range(c)]
                                     for _ in range(rng.randint(1, 4))])


def _matrix_parts(M):
    return M.rows, M.row_labels, M.col_labels


def test_projective_witness_matches_the_basis_transfer():
    # the witness read off the key's normal form is entry for entry and
    # label for label the one the pivot-basis transfer reassembles
    pairs = equivalent = 0
    for A, B in _projective_pairs():
        got = projectively_equivalent(A, B)
        want = projectively_equivalent_by_basis_transfer(A, B)
        assert (got is None) == (want is None), (A.rows, B.rows)
        if got is not None:
            assert _matrix_parts(got.T) == _matrix_parts(want.T), (A.rows, B.rows)
            assert _matrix_parts(got.S) == _matrix_parts(want.S), (A.rows, B.rows)
        pairs += 1
        equivalent += got is not None
    assert (pairs, equivalent) == (2886, 2366)


def _same_as_checked(M):
    assert vars(M) == vars(FieldMatrix(M.field, M.rows, M.row_labels, M.col_labels)), M.rows


def test_linalg_results_equal_the_checked_construction():
    # every matrix that linalg builds unchecked (rref's R and E, products,
    # column submatrices, inverses and witnesses) is, field by field, the
    # checked construction on its rows and labels
    f = gf(3)
    empty = FieldMatrix(f, [])
    for M in rref(empty)[:2]:
        _same_as_checked(M)
    rng = random.Random(45)
    for A, B in _projective_pairs():
        R, E, _ = rref(A)
        cols = sorted(rng.sample(range(A.ncols), rng.randint(0, A.ncols)))
        for M in (R, E, invert(E), E.mul(A), A.mul(_transpose(A)), A.submatrix_cols(cols)):
            _same_as_checked(M)
        w = projectively_equivalent(A, B)
        if w is not None:
            _same_as_checked(w.T)
            _same_as_checked(w.T.mul(A).mul(w.S))


def test_the_public_constructor_rejects_malformed_rows_and_labels():
    f = gf(3)
    with pytest.raises(ValueError, match="ragged"):
        FieldMatrix(f, [[1, 2], [1]])
    for labels in ((("a", "b"), None), (None, ("x",)), (None, ("x", "y", "z"))):
        with pytest.raises(ValueError, match="label count mismatch"):
            FieldMatrix(f, [[1, 2]], *labels)
    for labels in ((("a", "a"), None), (None, ("x", "x"))):
        with pytest.raises(ValueError, match="labels must be unique"):
            FieldMatrix(f, [[1, 2], [0, 1]], *labels)
        with pytest.raises(ValueError, match="labels must be unique"):
            FieldMatrix(f, [[1, 2], [0, 1]]).with_labels(*labels)


def test_projective_key_matches_the_key_read_off_rref():
    # the key from A's rows alone against the key read off rref(A) with its
    # transform, on seeded matrices up to 4 x 6 over GF(2) to GF(9) and QQ,
    # entries zero half the time so that ranks fall short, a zero row put
    # into about a third of them, and zero matrices of three shapes; each
    # is paired with a scramble (0 to 2 extra rows) and a matrix of its
    # width, and every witness found verifies
    rng = random.Random(46)
    pairs = equivalent = 0
    for f in [gf(q) for q in (2, 3, 4, 5, 7, 8, 9)] + [QQ]:
        mats = [FieldMatrix(f, [[f.zero] * m for _ in range(n)]) for n, m in ((1, 1), (2, 3), (3, 2))]
        for _ in range(60):
            n, m = rng.randint(1, 4), rng.randint(1, 6)
            rows = [[_draw(rng, f) if rng.random() < 0.5 else f.zero for _ in range(m)]
                    for _ in range(n)]
            if rng.random() < 0.3:
                rows.insert(rng.randint(0, n), [f.zero] * m)
            mats.append(FieldMatrix(f, rows))
        for A in mats:
            key = projective_key(A)
            assert key == projective_key_through_rref(A), A.rows
            others = [_scramble(rng, A, rng.randint(0, 2)),
                      FieldMatrix(f, [[_draw(rng, f) for _ in range(A.ncols)]
                                      for _ in range(rng.randint(1, 4))])]
            for B in others:
                assert projective_key(B) == projective_key_through_rref(B), B.rows
                w = projectively_equivalent(A, B)
                assert (w is not None) == (key == projective_key(B)), (A.rows, B.rows)
                assert w is None or w.verify(A, B)
                pairs += 1
                equivalent += w is not None
    assert (pairs, equivalent) == (1008, 543)


def test_left_null_space():
    f = gf(5)
    A = FieldMatrix(f, [[1, 2], [2, 4], [0, 1]])
    null = left_null_space(A)
    assert len(null) == 1
    t = null[0]
    for j in range(2):
        s = f.zero
        for i in range(3):
            s = f.add(s, f.mul(t[i], A.rows[i][j]))
        assert s == f.zero


def test_rational_backend():
    A = FieldMatrix(QQ, [[QQ.parse("1"), QQ.parse("1/2")], [QQ.parse("2"), QQ.parse("1")]])
    R, E, piv = rref(A)
    assert len(piv) == 1  # second row is a multiple of the first
    B = FieldMatrix(QQ, [[QQ.parse("3"), QQ.parse("3/2")], [QQ.parse("1"), QQ.parse("1/2")]],
                    None, A.col_labels)
    w = projectively_equivalent(A.with_labels(col_labels=("x", "y")),
                                B.with_labels(col_labels=("x", "y")))
    assert w is not None


# -- the two scaling-forest loops that _scaling_normal_form replaced ----------

def _parent_diagonally_equivalent(A, B):
    if (A.nrows, A.ncols) != (B.nrows, B.ncols):
        return None
    f = A.field
    z = f.zero
    for i in range(A.nrows):
        for j in range(A.ncols):
            if (A.rows[i][j] == z) != (B.rows[i][j] == z):
                return None
    d1 = [None] * A.nrows
    d2 = [None] * A.ncols
    for start_row in range(A.nrows):
        if d1[start_row] is not None:
            continue
        d1[start_row] = f.one
        stack = [("r", start_row)]
        while stack:
            kind, idx = stack.pop()
            if kind == "r":
                for j in range(A.ncols):
                    if A.rows[idx][j] != z and d2[j] is None:
                        d2[j] = f.div(B.rows[idx][j], f.mul(d1[idx], A.rows[idx][j]))
                        stack.append(("c", j))
            else:
                for i in range(A.nrows):
                    if A.rows[i][idx] != z and d1[i] is None:
                        d1[i] = f.div(B.rows[i][idx], f.mul(A.rows[i][idx], d2[idx]))
                        stack.append(("r", i))
    for j in range(A.ncols):
        if d2[j] is None:
            d2[j] = f.one
    for i in range(A.nrows):
        for j in range(A.ncols):
            if f.mul(d1[i], f.mul(A.rows[i][j], d2[j])) != B.rows[i][j]:
                return None
    return tuple(d1), tuple(d2)


def _parent_projective_key(A):
    f = A.field
    if A.is_zero():
        return ("zero", A.nrows)
    RA, _, piv = rref(A)
    r = len(piv)
    rows = [RA.rows[i] for i in range(r)]
    z = f.zero
    m = A.ncols
    d1 = [None] * r
    d2 = [None] * m
    for start in range(r):
        if d1[start] is not None:
            continue
        d1[start] = f.one
        stack = [("r", start)]
        while stack:
            kind, idx = stack.pop()
            if kind == "r":
                for j in range(m):
                    if rows[idx][j] != z and d2[j] is None:
                        d2[j] = f.inv(f.mul(d1[idx], rows[idx][j]))
                        stack.append(("c", j))
            else:
                for i in range(r):
                    if rows[i][idx] != z and d1[i] is None:
                        d1[i] = f.inv(f.mul(rows[i][idx], d2[idx]))
                        stack.append(("r", i))
    for j in range(m):
        if d2[j] is None:
            d2[j] = f.one
    normal = tuple(
        tuple(f.mul(d1[i], f.mul(rows[i][j], d2[j])) for j in range(m))
        for i in range(r)
    )
    return ("mat", r, piv, normal)


def _scaling_pairs():
    """Each matrix paired with a diagonal rescaling of itself and with a
    random matrix of the same support: every 1x2 and 2x2 matrix over GF(2)
    and GF(3), and seeded 2x3 and 3x2 samples over GF(4) and GF(5)."""
    rng = random.Random(17)
    mats = []
    for q in (2, 3):
        f = gf(q)
        for r, c in ((1, 2), (2, 2)):
            for entries in product(f.elements, repeat=r * c):
                mats.append(FieldMatrix(f, [entries[i * c:(i + 1) * c] for i in range(r)]))
    for q in (4, 5):
        f = gf(q)
        for r, c in ((2, 3), (3, 2)):
            for _ in range(400):
                mats.append(FieldMatrix(f, [[rng.choice(f.elements) for _ in range(c)]
                                            for _ in range(r)]))
    for A in mats:
        f = A.field
        d1 = [rng.choice(f.nonzero) for _ in range(A.nrows)]
        d2 = [rng.choice(f.nonzero) for _ in range(A.ncols)]
        yield A, FieldMatrix(f, [[f.mul(d1[i], f.mul(x, d2[j])) for j, x in enumerate(row)]
                                 for i, row in enumerate(A.rows)])
        yield A, FieldMatrix(f, [[rng.choice(f.nonzero) if x != f.zero else x for x in row]
                                 for row in A.rows])


def test_scaling_normal_form_matches_the_parent_loops():
    pairs = equivalent = 0
    for A, B in _scaling_pairs():
        got = diagonally_equivalent(A, B)
        assert got == _parent_diagonally_equivalent(A, B), (A.rows, B.rows)
        for M in (A, B):
            assert projective_key(M) == _parent_projective_key(M), M.rows
        pairs += 1
        equivalent += got is not None
    assert (pairs, equivalent) == (3420, 2599)
