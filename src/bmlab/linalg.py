"""Exact dense linear algebra over GF(q) and the rationals: reduced
echelon forms with recorded transforms, vector matroids, and the
projective-equivalence decision with witnesses.

Projective equivalence: B = T A S with T invertible and S nonsingular
diagonal.  One normal form decides it: the reduced echelon form's nonzero
rows, scaled to 1 on a spanning forest of their support graph (the
scaling normal form).  Its entries are the projective key, and its
recorded transform and scales give the witness.

Field automorphisms are deliberately excluded (over GF(4) this splits
Frobenius-conjugate representations into distinct classes, matching the
T,S formulation used throughout).
"""

from dataclasses import dataclass

from .errors import ColumnLabelMismatch, GroundSetMismatch
from .matroid import rank_table, step_oracle

VECTOR_MATROID_COLUMNS = 20


class FieldMatrix:
    """Immutable rectangular matrix with row and column labels."""

    def __init__(self, field, rows, row_labels=None, col_labels=None):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")
        if row_labels is None:
            row_labels = tuple("r%d" % (i + 1) for i in range(self.nrows))
        if col_labels is None:
            col_labels = tuple("c%d" % (j + 1) for j in range(self.ncols))
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        if len(self.row_labels) != self.nrows or len(self.col_labels) != self.ncols:
            raise ValueError("label count mismatch")
        if len(set(self.row_labels)) != self.nrows or len(set(self.col_labels)) != self.ncols:
            raise ValueError("labels must be unique")

    # -- construction helpers ------------------------------------------------
    @staticmethod
    def identity(field, n, labels=None):
        rows = [
            [field.one if i == j else field.zero for j in range(n)] for i in range(n)
        ]
        return FieldMatrix(field, rows, labels, labels)

    @staticmethod
    def diagonal(field, values, labels=None):
        n = len(values)
        rows = [
            [values[i] if i == j else field.zero for j in range(n)] for i in range(n)
        ]
        return FieldMatrix(field, rows, labels, labels)

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def with_labels(self, row_labels=None, col_labels=None):
        return FieldMatrix(
            self.field,
            self.rows,
            row_labels or self.row_labels,
            col_labels or self.col_labels,
        )

    def submatrix_cols(self, col_indices):
        return FieldMatrix(
            self.field,
            [[r[j] for j in col_indices] for r in self.rows],
            self.row_labels,
            [self.col_labels[j] for j in col_indices],
        )

    def mul(self, other):
        """A * B, row i being the sum of a_ik * B_k over the nonzero a_ik."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        f = self.field
        out = []
        for row in self.rows:
            acc = [f.zero] * other.ncols
            for a, brow in zip(row, other.rows):
                if a != f.zero:
                    acc = f.axpy(a, brow, acc)
            out.append(acc)
        return FieldMatrix(f, out, self.row_labels, other.col_labels)

    def is_zero(self):
        z = self.field.zero
        return all(x == z for r in self.rows for x in r)

    def equal_entries(self, other):
        return self.rows == other.rows

    def __repr__(self):
        return "FieldMatrix(%dx%d over %r)" % (self.nrows, self.ncols, self.field)


def rref(A):
    """Reduced row echelon form.

    Returns (R, E, pivots) with E invertible, E*A = R, pivot choice
    deterministic: leftmost column, then smallest row index.  The rows of
    [A | I] are eliminated once, pivoting on A's columns: R is the left
    block and E the right."""
    f = A.field
    zero = f.zero
    n, m = A.nrows, A.ncols
    rows = [list(r) + [f.one if i == j else zero for j in range(n)]
            for i, r in enumerate(A.rows)]
    pivots = []
    pr = 0
    for col in range(m):
        sel = None
        for i in range(pr, n):
            if rows[i][col] != zero:
                sel = i
                break
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        prow = rows[pr] = f.scale(f.inv(rows[pr][col]), rows[pr])
        for i in range(n):
            c = rows[i][col]
            if i != pr and c != zero:
                rows[i] = f.axpy(f.neg(c), prow, rows[i])
        pivots.append(col)
        pr += 1
        if pr == n:
            break
    R = FieldMatrix(f, [r[:m] for r in rows], A.row_labels, A.col_labels)
    Em = FieldMatrix(f, [r[m:] for r in rows], A.row_labels, A.row_labels)
    return R, Em, tuple(pivots)


def _pivot(f, basis, col):
    """col reduced by the pivots of basis, as a new pivot (lead, row) with
    row scaled to 1 at lead, its first nonzero entry; None when basis
    spans col."""
    zero = f.zero
    vec = col
    for lead, row in basis:
        c = vec[lead]
        if c != zero:
            vec = f.axpy(f.neg(c), row, vec)
    for lead, x in enumerate(vec):
        if x != zero:
            return lead, f.scale(f.inv(x), vec)
    return None


def rank_of_columns(field, columns):
    """Rank of a list of column tuples by forward elimination."""
    basis = []
    for col in columns:
        piv = _pivot(field, basis, col)
        if piv is not None:
            basis.append(piv)
    return len(basis)


def invert(A):
    """Inverse of a square matrix (ValueError if singular)."""
    if A.nrows != A.ncols:
        raise ValueError("not square")
    R, E, pivots = rref(A)
    if len(pivots) != A.nrows:
        raise ValueError("singular matrix")
    return FieldMatrix(A.field, E.rows, A.col_labels, A.row_labels)


def left_null_space(A):
    """Basis (list of row tuples) of {t : t*A = 0}."""
    R, E, pivots = rref(A)
    r = len(pivots)
    return [tuple(E.rows[i]) for i in range(r, A.nrows)]


def dual_matrix(A):
    """A representation of the dual of M(A) on the same column labels: with
    rref(A) = [I | D] on the pivot columns, [-D^T | I] on the other columns
    (Oxley, Matroid Theory, 2nd ed., 2.2).  A free matroid, whose dual has
    rank zero, gives one zero row."""
    f = A.field
    R, _, piv = rref(A)
    rows = []
    for j in range(A.ncols):
        if j not in piv:
            row = [f.zero] * A.ncols
            row[j] = f.one
            for i, p in enumerate(piv):
                row[p] = f.neg(R.rows[i][j])
            rows.append(row)
    return FieldMatrix(f, rows or [[f.zero] * A.ncols], None, A.col_labels)


def vector_matroid(A):
    """Column matroid: a column extends an independent set of columns iff
    it is not in their span, i.e. reduces to a new pivot."""
    if A.ncols > VECTOR_MATROID_COLUMNS:
        raise GroundSetMismatch("vector matroid capped at %d columns" % VECTOR_MATROID_COLUMNS)
    cols = A.columns()
    f = A.field

    def extend(basis, j):
        # the state is the reduced pivots of the independent columns so far
        piv = _pivot(f, basis, cols[j])
        return None if piv is None else basis + (piv,)

    return step_oracle(A.col_labels, ((), extend))


def all_column_ranks(A):
    """Ranks of every column subset, as a list indexed by bitmask: the
    rank table of M(A), which shares elimination work along the subset
    tree.  The enumeration oracle in tests/test_canonical.py uses it, and
    perfbench/spans.py traces it.
    """
    return rank_table(vector_matroid(A))


@dataclass
class ProjWitness:
    """T*A*S = B exactly.  T is square invertible when A and B have the
    same number of rows; rectangular (full column-rank factor) when the
    target carries redundant rows (lift matrices)."""

    T: FieldMatrix
    S: FieldMatrix

    def verify(self, A, B):
        return self.T.mul(A).mul(self.S).equal_entries(B)


def _scaling_normal_form(f, rows, ncols):
    """Row and column scales (d1, d2) that make d1[i] * rows[i][j] * d2[j]
    equal to 1 on a spanning forest of the bipartite row-column support
    graph.  The forest is grown depth-first from the first row of each
    component, whose scale is 1; a column with no support has scale 1."""
    z = f.zero
    d1 = [None] * len(rows)
    d2 = [None] * ncols
    for start in range(len(rows)):
        if d1[start] is not None:
            continue
        d1[start] = f.one
        stack = [("r", start)]
        while stack:
            kind, idx = stack.pop()
            if kind == "r":
                for j in range(ncols):
                    if rows[idx][j] != z and d2[j] is None:
                        d2[j] = f.inv(f.mul(d1[idx], rows[idx][j]))
                        stack.append(("c", j))
            else:
                for i in range(len(rows)):
                    if rows[i][idx] != z and d1[i] is None:
                        d1[i] = f.inv(f.mul(rows[i][idx], d2[idx]))
                        stack.append(("r", i))
    return d1, [f.one if d is None else d for d in d2]


def _projective_normal_form(A):
    """(key, E, d1, d2) for a nonzero A: E is the transform of rref(A), and
    d1, d2 are the scaling normal form scales of its first r = rank(A) rows,
    whose scaled entries the key holds."""
    f = A.field
    R, E, piv = rref(A)
    r = len(piv)
    rows = R.rows[:r]
    m = A.ncols
    d1, d2 = _scaling_normal_form(f, rows, m)
    normal = tuple(
        tuple(f.mul(d1[i], f.mul(rows[i][j], d2[j])) for j in range(m))
        for i in range(r)
    )
    return ("mat", r, piv, normal), E, d1, d2


def projectively_equivalent(A, B):
    """ProjWitness with T*A*S = B, or None.

    Equivalent iff the projective keys are equal.  Then the scaled
    standardized rows agree, D1a * E_A[:r] * A * D2a = D1b * E_B[:r] * B * D2b,
    and the other rows of E_B * B are zero, so
    T = E_B^-1 * [diag(a1/b1) * E_A[:r] ; 0] and S = diag(a2/b2)."""
    if A.col_labels != B.col_labels:
        raise ColumnLabelMismatch("column labels differ")
    f = A.field
    if f != B.field:
        raise ColumnLabelMismatch("fields differ")
    if A.is_zero() or B.is_zero():
        if A.is_zero() and B.is_zero() and A.nrows == B.nrows:
            return ProjWitness(
                FieldMatrix.identity(f, A.nrows, A.row_labels),
                FieldMatrix.identity(f, A.ncols, A.col_labels),
            )
        return None
    key_a, EA, a1, a2 = _projective_normal_form(A)
    key_b, EB, b1, b2 = _projective_normal_form(B)
    if key_a != key_b:
        return None
    stack_rows = [f.scale(f.div(a, b), row) for a, b, row in zip(a1, b1, EA.rows)]
    stack_rows += [[f.zero] * A.nrows for _ in range(B.nrows - len(a1))]
    T = invert(EB).mul(FieldMatrix(f, stack_rows, None, A.row_labels))
    S = FieldMatrix.diagonal(f, [f.div(a, b) for a, b in zip(a2, b2)], A.col_labels)
    witness = ProjWitness(T, S)
    assert witness.verify(A, B), "witness reassembly failed"
    return witness


def projective_key(A):
    """Canonical invariant: two matrices over the same field with the same
    column labels are projectively equivalent iff their keys are equal.

    Key: (rank, RREF pivot columns of the lex-first basis, entries of the
    standardized matrix normalized by the diagonal-scaling normal form that
    fixes a spanning forest of the support graph to 1)."""
    if A.is_zero():
        return ("zero", A.nrows)
    return _projective_normal_form(A)[0]
