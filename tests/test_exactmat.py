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
