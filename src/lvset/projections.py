"""Projections on a finite-dimensional complex space, in exact arithmetic.

Truth values of the quantum lattice are Hermitian idempotent matrices over
Gaussian rationals. Meets and joins are genuine subspace intersections and
spans computed by exact row reduction, so every invariant (M = M†, M·M = M,
P∧Q ≤ P, ...) holds with zero tolerance.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Iterable, Sequence

from . import exactmat as xm
from .exactnum import GQ, format_entry, parse_entry


class LatticeError(Exception):
    """Mixed-lattice arguments, dimension mismatches, invalid elements."""


class Projection:
    """An exact orthogonal projection matrix, interned: `Projection(m)` is
    the live object of any matrix equal to m, so equality is identity. A
    new matrix is validated, then held in a weak table."""

    __slots__ = ("dim", "matrix", "__weakref__")
    _interned = weakref.WeakValueDictionary()  # matrix -> its Projection

    def __new__(cls, matrix: xm.Matrix):
        matrix = xm.mat(matrix)
        p = cls._interned.get(matrix)
        if p is None:
            p = object.__new__(cls)
            object.__setattr__(p, "matrix", matrix)
        return p

    def __init__(self, matrix: xm.Matrix):
        if hasattr(self, "dim"):
            return  # interned: validated when first built
        matrix = self.matrix
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise LatticeError("projection matrix must be square")
        if not xm.is_hermitian(matrix):
            raise LatticeError("projection matrix must be Hermitian (M = M†)")
        if not xm.product_equals(matrix, matrix, matrix):
            raise LatticeError("projection matrix must be idempotent (M·M = M)")
        object.__setattr__(self, "dim", n)
        Projection._interned[matrix] = self

    def __setattr__(self, name, value):
        raise AttributeError("Projection is immutable")

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank()})"

    def rank(self) -> int:
        return xm.rank(self.matrix)

    def complement(self) -> "Projection":
        return Projection(xm.identity_minus(self.matrix))

    def leq(self, other: "Projection") -> bool:
        """Subspace containment: P ≤ Q iff QP = P (exact)."""
        check_dims(self, other)
        return xm.product_equals(other.matrix, self.matrix, self.matrix)

    def commutes_with(self, other: "Projection") -> bool:
        """Matrix commutation PQ = QP (exact)."""
        check_dims(self, other)
        return xm.product_equals(other.matrix, self.matrix,
                                 xm.mat_mul(self.matrix, other.matrix))


def check_dims(*ps: Projection):
    d = ps[0].dim
    for p in ps[1:]:
        if p.dim != d:
            raise LatticeError(f"dimension mismatch: {d} vs {p.dim}")


@cache
def zero_projection(dim: int) -> Projection:
    return Projection(xm.zeros(dim, dim))


@cache
def identity_projection(dim: int) -> Projection:
    return Projection(xm.identity(dim))


def proj_from_span(vectors: Sequence[Sequence[GQ]], dim: int) -> Projection:
    """Orthogonal projection onto span(vectors).

    Normal-equation form P = V (V†V)⁻¹ V† over a maximal independent subset,
    so no vector normalization (hence no square roots) is ever needed. A
    span of 0 or of the whole space is the dimension's zero or identity.
    """
    vecs = [tuple(v) for v in vectors]
    for v in vecs:
        if len(v) != dim:
            raise LatticeError(f"vector length {len(v)} does not match dimension {dim}")
    basis = xm.independent_subset(vecs)
    if not basis:
        return zero_projection(dim)
    if len(basis) == dim:
        return identity_projection(dim)
    v_cols = tuple(tuple(basis[j][i] for j in range(len(basis))) for i in range(dim))
    v_dag = xm.dagger(v_cols)
    gram = xm.mat_mul(v_dag, v_cols)
    return Projection(xm.mat_mul(v_cols, xm.solve(gram, v_dag)))


def _columns(p: Projection) -> list:
    m = p.matrix
    return [tuple(m[i][j] for i in range(p.dim)) for j in range(p.dim)]


def subspace_meet(p: Projection, q: Projection) -> Projection:
    """Projection onto ran(P) ∩ ran(Q): kernel of the stacked (I−P; I−Q)."""
    check_dims(p, q)
    stacked = xm.identity_minus(p.matrix) + xm.identity_minus(q.matrix)
    return proj_from_span(xm.kernel_basis(stacked), p.dim)


def subspace_join(p: Projection, q: Projection) -> Projection:
    """Projection onto ran(P) + ran(Q): span of both column spaces."""
    check_dims(p, q)
    return proj_from_span(_columns(p) + _columns(q), p.dim)


def lattice_commutator(projections: Iterable[Projection]) -> Projection:
    """The largest projection E commuting with every member of S such that
    the compressed family {PE} is pairwise commuting, computed by
    `ProjectionLattice.commutator` on a fresh lattice of the members'
    dimension, so nothing is memoized between calls. An empty family has
    no dimension and is refused.
    """
    from .lattice import ProjectionLattice  # lattice imports this module
    gens = list(projections)
    if not gens:
        raise LatticeError("commutator of an empty family is undefined")
    return ProjectionLattice(gens[0].dim).commutator(gens)


def commutator_pair_closed_form(p: Projection, q: Projection) -> Projection:
    """(P∧Q) ∨ (P∧Q⊥) ∨ (P⊥∧Q) ∨ (P⊥∧Q⊥); cross-check for two-element families."""
    check_dims(p, q)
    pc, qc = p.complement(), q.complement()
    terms = [
        subspace_meet(p, q),
        subspace_meet(p, qc),
        subspace_meet(pc, q),
        subspace_meet(pc, qc),
    ]
    out = terms[0]
    for t in terms[1:]:
        out = subspace_join(out, t)
    return out


@dataclass(frozen=True)
class SpectralData:
    """A finite spectral decomposition: distinct rational eigenvalues with
    pairwise-orthogonal eigenprojections summing to the identity."""

    dim: int
    eigen: tuple  # ((Fraction eigenvalue, Projection), ...) sorted by eigenvalue

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise LatticeError(f"spectral data needs dimension >= 1, got {self.dim!r}")
        pairs = tuple(sorted(self.eigen, key=lambda t: t[0]))
        object.__setattr__(self, "eigen", pairs)
        values = [v for v, _ in pairs]
        if len(set(values)) != len(values):
            raise LatticeError("eigenvalues must be distinct")
        projs = [p for _, p in pairs]
        for p in projs:
            if p.dim != self.dim:
                raise LatticeError("eigenprojection dimension mismatch")
            if p == zero_projection(self.dim):
                raise LatticeError("zero eigenprojection not allowed")
        for i, p in enumerate(projs):
            for q in projs[i + 1:]:
                if not xm.product_equals(p.matrix, q.matrix, xm.zeros(self.dim, self.dim)):
                    raise LatticeError("eigenprojections must be pairwise orthogonal")
        total = xm.zeros(self.dim, self.dim)
        for p in projs:
            total = xm.mat_add(total, p.matrix)
        if total != identity_projection(self.dim).matrix:
            raise LatticeError("eigenprojections must sum to the identity")

    def eigenvalues(self) -> list:
        return [v for v, _ in self.eigen]

    def projection_for(self, value: Fraction) -> Projection:
        for v, p in self.eigen:
            if v == value:
                return p
        return zero_projection(self.dim)

    def operator_matrix(self) -> xm.Matrix:
        total = xm.zeros(self.dim, self.dim)
        for v, p in self.eigen:
            total = xm.mat_add(total, xm.mat_scale(GQ(v), p.matrix))
        return total


def matrix_to_json(m: xm.Matrix) -> list:
    return [[format_entry(x) for x in row] for row in m]


def matrix_from_json(rows) -> xm.Matrix:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise LatticeError("a matrix must be a list of rows, each a list of entries")
    return xm.mat([parse_entry(x) for x in row] for row in rows)


def projection_from_json(rows) -> Projection:
    return Projection(matrix_from_json(rows))


def projection_to_json(p: Projection) -> list:
    return matrix_to_json(p.matrix)


def spectral_to_json(sd: SpectralData) -> dict:
    return {
        "dim": sd.dim,
        "eigen": [
            {"value": f"{v.numerator}/{v.denominator}", "proj": projection_to_json(p)}
            for v, p in sd.eigen
        ],
    }


def spectral_from_json(doc: dict) -> SpectralData:
    dim = doc["dim"]
    eigen = tuple(
        (Fraction(item["value"]), projection_from_json(item["proj"]))
        for item in doc["eigen"]
    )
    return SpectralData(dim=dim, eigen=eigen)
