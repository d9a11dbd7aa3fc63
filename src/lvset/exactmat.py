"""Exact linear algebra over Gaussian rationals.

Matrices are immutable tuples of row tuples of GaussianRational. The
algorithms are the plain ones for small dense matrices (desk scale is
dimension <= 8ish): Gauss-Jordan row reduction with exact division, every
step a GaussianRational operation on reduced integer triples.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exactnum import GQ, ONE, ZERO

Matrix = tuple
Vector = tuple


def mat(rows: Iterable[Iterable[GQ]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def zeros(r: int, c: int) -> Matrix:
    return tuple(tuple(ZERO for _ in range(c)) for _ in range(r))


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def shape(m: Matrix) -> tuple:
    return (len(m), len(m[0]) if m else 0)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: GQ, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            s = ZERO
            for x, y in zip(row, col):
                if x:
                    s = s + x * y
            out_row.append(s)
        out.append(tuple(out_row))
    return tuple(out)


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


def is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def _rref_in_place(rows: list) -> list:
    """Reduce a list of row lists to reduced row echelon form; returns pivot columns."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != ONE:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(n_rows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def rref(a: Matrix) -> tuple:
    """(reduced row echelon form, pivot column list)."""
    rows = [list(row) for row in a]
    pivots = _rref_in_place(rows)
    return mat(rows), pivots


def rank(a: Matrix) -> int:
    if not a:
        return 0
    rows = [list(row) for row in a]
    return len(_rref_in_place(rows))


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
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    pivots = _rref_in_place(aug)
    # a pivot in the augmented block means a itself is rank-deficient
    if len(pivots) < n or any(p >= n for p in pivots):
        raise ValueError("singular system")
    width = len(b[0])
    return mat(row[n:n + width] for row in aug)


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
