"""Exact field arithmetic: GF(q) for prime powers q <= 256, and the rationals.

GF(q) elements are integers 0..q-1.  For q = p^k the integer encodes the
coefficient vector of a polynomial over GF(p) in base p (digit i is the
coefficient of x^i), reduced modulo a fixed irreducible polynomial: the
lexicographically smallest monic irreducible of degree k, chosen
deterministically so that encodings are stable across runs.  Addition and
multiplication are table lookups, and the row kernels axpy and scale do a
whole row with one multiplication-table row; reduce takes a row through a
list of pivot rows in one call.

Rational arithmetic wraps fractions.Fraction.
"""

import functools
from fractions import Fraction

from .errors import BmlabError


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return a[:dm]


def _encode(coeffs, p):
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def _decode(v, p, k):
    out = []
    for _ in range(k):
        out.append(v % p)
        v //= p
    return out


def _min_irreducible(p, k):
    """Smallest (in the base-p integer encoding) monic irreducible of degree k."""
    if k == 1:
        return [0, 1]
    monic = {d: [] for d in range(1, k)}
    for d in range(1, k):
        for v in range(p ** d):
            monic[d].append(_decode(v, p, d) + [1])
    reducible = set()
    for d1 in range(1, k // 2 + 1):
        d2 = k - d1
        for f in monic[d1]:
            for g in monic[d2]:
                prod = _poly_mul(f, g, p)
                reducible.add(_encode(prod[:k], p))  # drop the leading 1 of x^k
    for v in range(p ** k):
        if v not in reducible:
            return _decode(v, p, k) + [1]
    raise BmlabError("no irreducible polynomial found (p=%d, k=%d)" % (p, k))


def _factor_prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise BmlabError("%d is not a prime power" % q)
            return p, k
    raise BmlabError("%d is not a prime power" % q)


def _add_table(p, k):
    """The addition table of GF(p^k): digit-wise addition mod p of the
    base-p encodings, grown one digit at a time."""
    table = [[0]]
    for _ in range(k):
        size = len(table) * p
        table = [[(a + b) % p + p * table[a // p][b // p] for b in range(size)]
                 for a in range(size)]
    return table


def _primitive_powers(p, k, modulus):
    """[1, g, g^2, ..., g^(q-2)] for the least primitive element g of
    GF(p^k) in the encoding, found by trying the candidates in order."""
    q = p ** k
    for g in range(1, q):
        poly = _decode(g, p, k)
        powers = [1]
        x, v = poly, g
        while v != 1:
            powers.append(v)
            x = _poly_mod(_poly_mul(x, poly, p), modulus, p)
            v = _encode(x, p)
        if len(powers) == q - 1:
            return powers
    raise BmlabError("GF(%d) has no primitive element" % q)


class GF:
    """The finite field with q elements; element arithmetic by table lookup.

    Products come from the powers of a primitive element g: with
    log(g^i) = i, a * b = g^(log a + log b) and 1/a = g^(-log a), and
    -a = (-1) * a, the constant p - 1 being -1."""

    def __init__(self, q):
        if not 2 <= q <= 256:
            raise BmlabError("GF(q) supported for 2 <= q <= 256, got %d" % q)
        self.q = q
        self.p, self.k = _factor_prime_power(q)
        self.zero = 0
        self.one = 1
        self.char = self.p
        self.modulus = _min_irreducible(self.p, self.k)
        self._add = _add_table(self.p, self.k)
        exp = _primitive_powers(self.p, self.k, self.modulus)
        log = [None] * q
        for i, a in enumerate(exp):
            log[a] = i
        exp2 = exp + exp
        logs = log[1:]
        self._mul = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        self._neg = list(self._mul[self.p - 1])
        self._inv = [None] + [exp[-la] for la in logs]

    # -- arithmetic ------------------------------------------------------
    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return self._inv[a]

    def div(self, a, b):
        return self._mul[a][self.inv(b)]

    # -- row kernels -----------------------------------------------------
    def axpy(self, c, xs, ys):
        """The row c*x + y, as a list."""
        mc, add = self._mul[c], self._add
        return [add[mc[x]][y] for x, y in zip(xs, ys)]

    def scale(self, c, xs):
        """The row c*x, as a list."""
        mc = self._mul[c]
        return [mc[x] for x in xs]

    def reduce(self, basis, row):
        """row minus c*b for each (lead, b) of basis in turn, c being the
        entry at lead of the row so far; each b is 1 at lead.  The row
        itself when no entry at a lead is nonzero."""
        mul, neg, add = self._mul, self._neg, self._add
        for lead, b in basis:
            c = row[lead]
            if c:
                mc = mul[neg[c]]
                row = [add[mc[x]][y] for x, y in zip(b, row)]
        return row

    # -- structure -------------------------------------------------------
    @property
    def elements(self):
        return range(self.q)

    @property
    def nonzero(self):
        return range(1, self.q)

    def parse(self, token):
        v = int(token)
        if not 0 <= v < self.q:
            raise ValueError("element %d out of range for GF(%d)" % (v, self.q))
        return v

    def show(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self):
        return hash(("GF", self.q))

    def __repr__(self):
        return "GF(%d)" % self.q


class Rationals:
    """The field of rationals, elements are fractions.Fraction."""

    q = None
    zero = Fraction(0)
    one = Fraction(1)
    char = 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / b

    def axpy(self, c, xs, ys):
        return [c * x + y for x, y in zip(xs, ys)]

    def scale(self, c, xs):
        return [c * x for x in xs]

    def reduce(self, basis, row):
        for lead, b in basis:
            c = row[lead]
            if c:
                row = [y - c * x for x, y in zip(b, row)]
        return row

    @property
    def elements(self):
        raise BmlabError("rationals are not enumerable")

    def parse(self, token):
        return Fraction(token)

    def show(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = Rationals()


@functools.cache
def gf(q):
    """Shared GF(q) instance (tables are built once per q)."""
    return GF(q)
