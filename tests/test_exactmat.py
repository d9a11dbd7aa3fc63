"""Exact matrix routines cross-checked against sympy."""

import random
from fractions import Fraction

import pytest
import sympy

from lvset import exactmat as xm
from lvset.exactnum import GQ, ONE, ZERO, gq


def random_matrix(rng, rows, cols, complex_entries=False, spread=6):
    def entry():
        re = Fraction(rng.randint(-spread, spread), rng.randint(1, 4))
        im = Fraction(rng.randint(-spread, spread), rng.randint(1, 4)) if complex_entries else 0
        return GQ(re, im)
    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


def to_sympy(m):
    return sympy.Matrix([
        [sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im) for x in row]
        for row in m
    ])


def test_rank_matches_sympy():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, complex_entries=rng.random() < 0.5)
        assert xm.rank(m) == to_sympy(m).rank()


def test_kernel_matches_sympy_nullspace():
    rng = random.Random(12)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols, complex_entries=rng.random() < 0.5)
        kernel = xm.kernel_basis(m)
        assert len(kernel) == cols - xm.rank(m)
        for vec in kernel:
            image = xm.mat_vec(m, vec)
            assert all(x.is_zero() for x in image)
        # kernel vectors are linearly independent
        if kernel:
            stacked = tuple(kernel)
            assert xm.rank(stacked) == len(kernel)


def test_inverse_matches_sympy():
    rng = random.Random(13)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, complex_entries=rng.random() < 0.5)
        if xm.rank(m) < n:
            continue
        done += 1
        inv = xm.inverse(m)
        eye = xm.identity(n)
        assert xm.mat_mul(m, inv) == eye
        assert xm.mat_mul(inv, m) == eye
        sym_inv = to_sympy(m).inv()
        assert to_sympy(inv) == sym_inv


def test_inverse_singular_raises():
    singular = ((ONE, ONE), (ONE, ONE))
    with pytest.raises(Exception):
        xm.inverse(singular)


def test_solve_column_and_singular():
    a = ((ONE, gq(2)), (gq(3), gq(4)))
    b = ((gq(5),), (gq(6),))
    x = xm.solve(a, b)
    assert xm.mat_mul(a, x) == b
    singular = ((ONE, ONE), (ONE, ONE))
    with pytest.raises(ValueError):
        xm.solve(singular, ((ONE,), (ZERO,)))


def test_rref_is_canonical():
    rng = random.Random(14)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        ours, pivots = xm.rref(m)
        theirs, their_pivots = to_sympy(m).rref()
        assert to_sympy(ours) == theirs
        assert tuple(pivots) == tuple(their_pivots)


def test_dagger_and_hermitian():
    m = ((gq(1), GQ(0, 1)), (GQ(0, -1), gq(2)))
    assert xm.is_hermitian(m)
    assert xm.dagger(m) == m
    n = ((gq(1), gq(2)), (gq(3), gq(4)))
    assert not xm.is_hermitian(n)
    assert xm.dagger(xm.dagger(n)) == n


def test_inner_product_conjugate_linear():
    u = (GQ(0, 1), gq(1))
    v = (gq(1), GQ(0, 1))
    # <u, v> uses the conjugate of the first argument
    expected = GQ(0, 1).conj() * gq(1) + gq(1).conj() * GQ(0, 1)
    assert xm.inner(u, v) == expected
    w = (gq(3), GQ(0, 2))
    assert xm.inner(w, w).im == 0
    assert xm.inner(w, w).re > 0


def test_orthogonalize_spans_and_is_orthogonal():
    rng = random.Random(15)
    for _ in range(30):
        dim = rng.randint(2, 4)
        count = rng.randint(1, dim + 1)
        vecs = [tuple(gq(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                      for _ in range(dim)) for _ in range(count)]
        basis = xm.orthogonalize(vecs)
        for i, u in enumerate(basis):
            for v in basis[i + 1:]:
                assert xm.inner(u, v).is_zero()
        assert len(basis) == xm.rank(tuple(vecs)) if any(
            any(not x.is_zero() for x in v) for v in vecs) else len(basis) == 0


def test_in_span_and_independent_subset():
    v1 = (ONE, ZERO, ZERO)
    v2 = (ZERO, ONE, ZERO)
    v3 = (ONE, ONE, ZERO)
    picked = xm.independent_subset([v1, v2, v3])
    assert len(picked) == 2


def test_independent_subset_keeps_first_occurrences_at_sympy_rank():
    rng = random.Random(16)
    for _ in range(40):
        dim = rng.randint(1, 4)
        pool = [random_matrix(rng, 1, dim, complex_entries=rng.random() < 0.5)[0]
                for _ in range(rng.randint(1, 3))]
        vectors = []
        for _ in range(rng.randint(1, 8)):
            u, w = rng.choice(pool), rng.choice(pool)
            c = gq(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            # a repeat, a dependent combination, or the zero vector
            vectors.append(rng.choice([u, tuple(x + c * y for x, y in zip(u, w)),
                                       tuple(ZERO for _ in range(dim))]))
        picked = xm.independent_subset(vectors)
        assert len(picked) == to_sympy(vectors).rank()
        # a vector is kept exactly when it raises the rank of the prefix
        # ending at it, so only the first of equal vectors can be kept
        ranks = [to_sympy(vectors[:i]).rank() for i in range(len(vectors) + 1)]
        assert picked == [v for i, v in enumerate(vectors) if ranks[i + 1] > ranks[i]]


# ------------------------------------------------- integer kernels vs oracles

DENOMINATORS = (1, 1, 2, 3, 4, 6, 7, 12)


def gaussian_entry(rng, kind=None):
    """A Gaussian rational that is zero, real, purely imaginary or complex,
    with a denominator from a mixed set."""
    kind = kind or rng.choice(("zero", "real", "imaginary", "complex", "complex"))
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(DENOMINATORS))
    if kind == "zero":
        return ZERO
    if kind == "real":
        return GQ(part())
    if kind == "imaginary":
        return GQ(0, part())
    return GQ(part(), part())


def gaussian_matrix(rng, rows, cols, zero_rows=True):
    out = [[gaussian_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if zero_rows and rows > 1 and rng.random() < 0.5:
        out[rng.randrange(rows)] = [ZERO] * cols
    return xm.mat(out)


def from_sympy(m):
    return tuple(tuple(GQ(Fraction(int(sympy.re(x).p), int(sympy.re(x).q)),
                          Fraction(int(sympy.im(x).p), int(sympy.im(x).q)))
                       for x in m.row(i)) for i in range(m.rows))


def test_mat_mul_and_product_equals_match_sympy():
    rng = random.Random(21)
    for _ in range(25):
        dim, k = rng.randint(1, 5), rng.randint(1, 5)
        a = gaussian_matrix(rng, dim, k)
        b = gaussian_matrix(rng, k, dim)
        expected = from_sympy(sympy.expand(to_sympy(a) * to_sympy(b)))
        product = xm.mat_mul(a, b)
        assert product == expected
        # every entry is a canonical scalar, as the operators build them
        assert all(x._t == (x + ZERO)._t for row in product for x in row)
        assert xm.product_equals(a, b, expected)
        assert xm.mat_mul(b, a) == from_sympy(sympy.expand(to_sympy(b) * to_sympy(a)))


def test_product_equals_rejects_one_changed_part():
    rng = random.Random(22)
    for _ in range(40):
        dim, k = rng.randint(1, 4), rng.randint(1, 4)
        a = gaussian_matrix(rng, dim, k, zero_rows=False)
        b = gaussian_matrix(rng, k, dim, zero_rows=False)
        c = [list(row) for row in xm.mat_mul(a, b)]
        i, j = rng.randrange(dim), rng.randrange(dim)
        delta = Fraction(1, rng.choice(DENOMINATORS))
        for changed in (c[i][j] + GQ(0, delta), c[i][j] + GQ(delta)):
            bad = [list(row) for row in c]
            bad[i][j] = changed
            assert not xm.product_equals(a, b, xm.mat(bad))
    # only the imaginary part of one entry of a real-looking product differs
    a = ((GQ(0, 1), ONE), (ONE, GQ(0, -1)))
    b = ((GQ(0, -1), ONE), (ONE, GQ(0, 1)))
    c = xm.mat_mul(a, b)
    assert xm.product_equals(a, b, c)
    assert not xm.product_equals(a, b, ((c[0][0], c[0][1] + GQ(0, Fraction(1, 7))), c[1]))
    assert not xm.product_equals(a, b, c[:1])
    assert not xm.product_equals(a, b, tuple(row[:1] for row in c))
    # a zero row of a makes a zero row of the product
    a = ((ZERO, ZERO), (GQ(0, 1), ONE))
    c = xm.mat_mul(a, b)
    assert c[0] == (ZERO, ZERO) and xm.product_equals(a, b, c)
    assert not xm.product_equals(a, b, ((ZERO, GQ(0, Fraction(1, 3))), c[1]))


def _old_rref_in_place(rows):
    """Per-entry Gauss-Jordan on GaussianRational rows, as an oracle."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if not rows[i][c].is_zero()), None)
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


def _old_rref(a):
    rows = [list(row) for row in a]
    pivots = _old_rref_in_place(rows)
    return xm.mat(rows), pivots


def _old_solve(a, b):
    n = len(a)
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    pivots = _old_rref_in_place(aug)
    if len(pivots) < n or any(p >= n for p in pivots):
        raise ValueError("singular system")
    return xm.mat(row[n:] for row in aug)


def wide_matrix(rng, rows, cols, rank):
    """A rows × cols matrix of the given rank, entries of mixed kinds."""
    left = gaussian_matrix(rng, rows, rank, zero_rows=False)
    right = gaussian_matrix(rng, rank, cols, zero_rows=False)
    out = [list(row) for row in xm.mat_mul(left, right)]
    out[rng.randrange(rows)] = [ZERO] * cols
    return xm.mat(out)


def test_rref_matches_per_entry_elimination_on_wide_matrices():
    rng = random.Random(23)
    for _ in range(12):
        rows, cols = rng.randint(4, 20), rng.randint(17, 26)
        m = wide_matrix(rng, rows, cols, rng.randint(1, min(rows, 6)))
        reduced, pivots = xm.rref(m)
        old_reduced, old_pivots = _old_rref(m)
        assert pivots == old_pivots
        assert reduced == old_reduced
        assert all(x._t == y._t for r1, r2 in zip(reduced, old_reduced) for x, y in zip(r1, r2))
        assert xm.rank(m) == len(old_pivots)
    # purely imaginary pivots, and a column that is zero only below the pivot
    m = ((GQ(0, 2), GQ(0, Fraction(1, 3)), ONE),
         (GQ(0, Fraction(-5, 4)), ZERO, GQ(0, 1)),
         (ZERO, GQ(0, Fraction(7, 6)), GQ(2, -3)))
    assert xm.rref(m) == _old_rref(m)
    assert to_sympy(xm.rref(m)[0]) == to_sympy(m).rref()[0]
    # pivots whose real part is exactly 1 still need the division
    m = ((GQ(1, 2), GQ(3), GQ(0, 1)),
         (GQ(1, Fraction(-1, 2)), GQ(1), ZERO),
         (ZERO, GQ(1, 1), GQ(Fraction(2, 3))))
    assert xm.rref(m) == _old_rref(m)


def test_solve_and_inverse_match_per_entry_elimination():
    rng = random.Random(24)
    done = 0
    while done < 15:
        n = rng.randint(1, 6)
        a = gaussian_matrix(rng, n, n, zero_rows=False)
        if xm.rank(a) < n:
            with pytest.raises(ValueError):
                xm.solve(a, gaussian_matrix(rng, n, 1))
            continue
        done += 1
        b = gaussian_matrix(rng, n, rng.randint(17, 24))
        x = xm.solve(a, b)
        assert x == _old_solve(a, b)
        assert xm.product_equals(a, x, b)
        assert xm.inverse(a) == _old_solve(a, xm.identity(n))
