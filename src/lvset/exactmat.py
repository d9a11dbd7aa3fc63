"""Exact linear algebra over Gaussian rationals.

Matrices are immutable tuples of row tuples of GaussianRational. The
algorithms are the plain ones for small dense matrices (desk scale is
dimension <= 8ish), but their inner loops run on Python ints. A row or a
column is scaled once to Gaussian-integer numerators over one common
denominator. A product is then integer dot products with one reduction
per output entry, and `product_equals` decides a·b == c by
cross-multiplying, without building the product. Gauss-Jordan row
reduction keeps each row as (numerators, denominator) and divides the row
by the gcd of its integers once per row operation: integer-preserving as
in Bareiss (Math. Comp. 22, 1968), but without his fraction-free growth.
Results come back as canonical GaussianRationals, so every reduced form
and printed entry is the same as with per-entry arithmetic. `Span`
stays on GaussianRational arithmetic.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .exactnum import GQ, ONE, ZERO, _make, _raw

Matrix = tuple
Vector = tuple


def mat(rows: Iterable[Iterable[GQ]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def zeros(r: int, c: int) -> Matrix:
    return tuple(tuple(ZERO for _ in range(c)) for _ in range(r))


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def identity_minus(a: Matrix) -> Matrix:
    """I − a for square a, with no gcd: gcd(d − x, y, d) = gcd(x, y, d) = 1,
    so every entry (d − x − y·i)/d or (−x − y·i)/d is already reduced."""
    return tuple(
        tuple(_raw(d - x, -y, d) if i == j else _raw(-x, -y, d)
              for j, (x, y, d) in enumerate([z._t for z in row]))
        for i, row in enumerate(a))


def mat_scale(c: GQ, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def _int_vector(v: Sequence[GQ]) -> tuple:
    """(re, im, d): integer numerators and their common denominator,
    v[j] == (re[j] + im[j]·i)/d. With d the lcm of the entries' reduced
    denominators, gcd(re, im, d) is 1."""
    if not v:
        return (), (), 1
    re, im, ds = zip(*[z._t for z in v])
    d = lcm(*ds)
    if d == 1:
        return re, im, 1
    scale = [d // e for e in ds]
    return tuple(map(mul, re, scale)), tuple(map(mul, im, scale)), d


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = [_int_vector(col) for col in zip(*b)]
    out = []
    for row in a:
        ar, ai, ad = _int_vector(row)
        out.append(tuple(
            _make(sum(map(mul, ar, br)) - sum(map(mul, ai, bi)),
                  sum(map(mul, ar, bi)) + sum(map(mul, ai, br)), ad * bd)
            for br, bi, bd in cols))
    return tuple(out)


def product_equals(a: Matrix, b: Matrix, c: Matrix) -> bool:
    """a·b == c, decided entry by entry on integer numerators: the product
    entry n/d equals c's (zr + zi·i)/zd iff n·zd == (zr + zi·i)·d. The
    product itself is never built, and the first differing entry stops it."""
    if len(c) != len(a):
        return False
    cols = [_int_vector(col) for col in zip(*b)]
    for row, c_row in zip(a, c):
        if len(c_row) != len(cols):
            return False
        ar, ai, ad = _int_vector(row)
        if not (any(ar) or any(ai)):  # a zero row of a: c's row must be zero
            if any(c_row):
                return False
            continue
        for (br, bi, bd), z in zip(cols, c_row):
            zr, zi, zd = z._t
            d = ad * bd
            if (sum(map(mul, ar, br)) - sum(map(mul, ai, bi))) * zd != zr * d:
                return False
            if (sum(map(mul, ar, bi)) + sum(map(mul, ai, br))) * zd != zi * d:
                return False
    return True


def mat_vec(a: Matrix, v: Vector) -> Vector:
    out = []
    for row in a:
        s = ZERO
        for x, y in zip(row, v):
            if x:
                s = s + x * y
        out.append(s)
    return tuple(out)


def dagger(a: Matrix) -> Matrix:
    return tuple(tuple(a[i][j].conj() for i in range(len(a))) for j in range(len(a[0])))


def is_hermitian(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i].conj() for i in range(n) for j in range(i, n))


def _int_rref(a: Iterable[Sequence[GQ]]) -> tuple:
    """Gauss-Jordan on integer rows: (rows, pivot columns), each row an
    (re, im, d) triple as from _int_vector, in reduced row echelon form.

    The steps are those of per-entry elimination: the first nonzero entry
    at or below the current row is the pivot, the pivot row is divided by
    it, and the column is cleared in every other row. Each row operation
    ends with one gcd over the row's numerators and denominator, which
    keeps the integers as small as the entries' reduced forms allow."""
    rows = [_int_vector(row) for row in a]
    n_rows = len(rows)
    n_cols = len(rows[0][0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][0][c] or rows[i][1][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        xr, xi, d = rows[r]
        pr, pi = xr[c], xi[c]
        if pi or pr != d:
            # x/p = x·conj(p)/|p|², the row's own denominator cancelling
            rows[r] = _reduced([x * pr + y * pi for x, y in zip(xr, xi)],
                               [y * pr - x * pi for x, y in zip(xr, xi)], pr * pr + pi * pi)
        pr, pi, pd = rows[r]
        for i in range(n_rows):
            if i == r:
                continue
            xr, xi, d = rows[i]
            fr, fi = xr[c], xi[c]
            if fr or fi:
                # x/d − (f/d)·(p/pd) = (x·pd − f·p)/(d·pd)
                rows[i] = _reduced(
                    [x * pd - fr * u + fi * v for x, u, v in zip(xr, pr, pi)],
                    [y * pd - fr * v - fi * u for y, u, v in zip(xi, pr, pi)], d * pd)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def _reduced(re: list, im: list, d: int) -> tuple:
    g = gcd(*re, *im, d)
    if g == 1:
        return re, im, d
    return [x // g for x in re], [x // g for x in im], d // g


def _gq_row(row: tuple, start: int = 0) -> tuple:
    """Entries start.. of an integer row, as GaussianRationals."""
    re, im, d = row
    return tuple(_make(x, y, d) if x or y else ZERO for x, y in zip(re[start:], im[start:]))


def rref(a: Matrix) -> tuple:
    """(reduced row echelon form, pivot column list)."""
    rows, pivots = _int_rref(a)
    return tuple(_gq_row(row) for row in rows), pivots


def rank(a: Matrix) -> int:
    return len(_int_rref(a)[1])


def kernel_basis(a: Matrix) -> list:
    """Basis vectors (as row tuples) of the right null space of a."""
    n_cols = len(a[0]) if a else 0
    if not a:
        return [tuple(ONE if i == j else ZERO for j in range(n_cols)) for i in range(n_cols)]
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [ZERO] * n_cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return basis


class Span:
    """Incremental row-echelon span of vectors, one reduction per added vector."""

    def __init__(self):
        self.rows: list = []  # (leading column, normalized row), leads increasing

    def _reduce(self, v: list) -> list:
        for lead, row in self.rows:
            if not v[lead].is_zero():
                f = v[lead]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, v: Sequence[GQ]) -> bool:
        """Add v unless it already lies in the span; True when the span grew."""
        v = self._reduce(list(v))
        lead = next((i for i, x in enumerate(v) if not x.is_zero()), None)
        if lead is None:
            return False
        pv = v[lead]
        v = [x / pv for x in v]
        self.rows.append((lead, v))
        self.rows.sort(key=lambda t: t[0])
        return True

    def dim(self) -> int:
        return len(self.rows)


def independent_subset(vectors: Sequence[Vector]) -> list:
    """A maximal linearly independent subset, keeping first occurrences.

    Works in a single pass: each vector is reduced once against the echelon
    rows of the vectors kept so far, and is kept when a nonzero row remains.
    """
    span = Span()
    return [v for v in vectors if span.add(v)]


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ x = b for square invertible a."""
    n = len(a)
    rows, pivots = _int_rref((*ra, *rb) for ra, rb in zip(a, b))
    # a pivot in the augmented block means a itself is rank-deficient
    if len(pivots) < n or any(p >= n for p in pivots):
        raise ValueError("singular system")
    return tuple(_gq_row(row, n) for row in rows)


def inverse(a: Matrix) -> Matrix:
    return solve(a, identity(len(a)))


def inner(u: Vector, v: Vector) -> GQ:
    """Hermitian inner product, conjugate-linear in the first slot."""
    s = ZERO
    for x, y in zip(u, v):
        s = s + x.conj() * y
    return s


def orthogonalize(vectors: Sequence[Vector]) -> list:
    """Pairwise-orthogonal spanning set by Gram-Schmidt without normalization.

    No square roots appear, so exactness is preserved; dependent inputs
    collapse to zero and are dropped.
    """
    basis: list = []
    for v in vectors:
        w = list(v)
        for b in basis:
            f = inner(b, tuple(w)) / inner(b, b)
            if not f.is_zero():
                w = [x - f * y for x, y in zip(w, b)]
        if any(not x.is_zero() for x in w):
            basis.append(tuple(w))
    return basis
