"""Projections on a finite-dimensional complex space, in exact arithmetic.

Truth values of the quantum lattice are Hermitian idempotent matrices over
Gaussian rationals. Meets and joins are genuine subspace intersections and
spans computed by exact row reduction, so every invariant (M = M†, M·M = M,
P∧Q ≤ P, ...) holds with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import exactmat as xm
from .exactnum import GQ, ZERO, format_entry, parse_entry


class LatticeError(Exception):
    """Mixed-lattice arguments, dimension mismatches, invalid elements."""


class Projection:
    """An exact orthogonal projection matrix; validated on construction."""

    __slots__ = ("dim", "matrix", "_hash")

    def __init__(self, matrix: xm.Matrix):
        matrix = xm.mat(matrix)
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise LatticeError("projection matrix must be square")
        if not xm.is_hermitian(matrix):
            raise LatticeError("projection matrix must be Hermitian (M = M†)")
        if xm.mat_mul(matrix, matrix) != matrix:
            raise LatticeError("projection matrix must be idempotent (M·M = M)")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_hash", hash((n, matrix)))

    def __setattr__(self, name, value):
        raise AttributeError("Projection is immutable")

    def __eq__(self, other):
        if not isinstance(other, Projection):
            return NotImplemented
        return self.dim == other.dim and self.matrix == other.matrix

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Projection(dim={self.dim}, rank={self.rank()})"

    def rank(self) -> int:
        return xm.rank(self.matrix)

    def is_zero(self) -> bool:
        return xm.is_zero(self.matrix)

    def is_identity(self) -> bool:
        return self.matrix == xm.identity(self.dim)

    def complement(self) -> "Projection":
        return Projection(xm.mat_sub(xm.identity(self.dim), self.matrix))

    def leq(self, other: "Projection") -> bool:
        """Subspace containment: P ≤ Q iff QP = P (exact)."""
        check_dims(self, other)
        return xm.mat_mul(other.matrix, self.matrix) == self.matrix

    def commutes_with(self, other: "Projection") -> bool:
        """Matrix commutation PQ = QP (exact)."""
        check_dims(self, other)
        return xm.mat_mul(self.matrix, other.matrix) == xm.mat_mul(other.matrix, self.matrix)


def check_dims(*ps: Projection):
    d = ps[0].dim
    for p in ps[1:]:
        if p.dim != d:
            raise LatticeError(f"dimension mismatch: {d} vs {p.dim}")


def zero_projection(dim: int) -> Projection:
    return Projection(xm.zeros(dim, dim))


def identity_projection(dim: int) -> Projection:
    return Projection(xm.identity(dim))


def proj_from_span(vectors: Sequence[Sequence[GQ]], dim: int) -> Projection:
    """Orthogonal projection onto span(vectors).

    Normal-equation form P = V (V†V)⁻¹ V† over a maximal independent subset,
    so no vector normalization (hence no square roots) is ever needed.
    """
    vecs = [tuple(v) for v in vectors]
    for v in vecs:
        if len(v) != dim:
            raise LatticeError(f"vector length {len(v)} does not match dimension {dim}")
    vecs = [v for v in vecs if not all(x.is_zero() for x in v)]
    basis = xm.independent_subset(vecs)
    if not basis:
        return zero_projection(dim)
    v_cols = tuple(tuple(basis[j][i] for j in range(len(basis))) for i in range(dim))
    v_dag = xm.dagger(v_cols)
    gram = xm.mat_mul(v_dag, v_cols)
    gram_inv = xm.inverse(gram)
    return Projection(xm.mat_mul(v_cols, xm.mat_mul(gram_inv, v_dag)))


def _columns(p: Projection) -> list:
    m = p.matrix
    return [tuple(m[i][j] for i in range(p.dim)) for j in range(p.dim)]


def subspace_meet(p: Projection, q: Projection) -> Projection:
    """Projection onto ran(P) ∩ ran(Q): kernel of the stacked (I−P; I−Q)."""
    check_dims(p, q)
    eye = xm.identity(p.dim)
    stacked = xm.mat_sub(eye, p.matrix) + xm.mat_sub(eye, q.matrix)
    return proj_from_span(xm.kernel_basis(stacked), p.dim)


def subspace_join(p: Projection, q: Projection) -> Projection:
    """Projection onto ran(P) + ran(Q): span of both column spaces."""
    check_dims(p, q)
    return proj_from_span(_columns(p) + _columns(q), p.dim)


def _flat(m: xm.Matrix) -> tuple:
    return tuple(x for row in m for x in row)


def lattice_commutator(projections: Iterable[Projection]) -> Projection:
    """The largest projection E commuting with every member of S such that
    the compressed family {PE} is pairwise commuting.

    Computed inside the word algebra A(S): E = I − e where e is the unit of
    the two-sided ideal generated by all commutators of A(S). e is the sum
    of the non-commutative central blocks of A(S), so I − e is the sum of
    the commutative ones; the whole computation stays Gaussian-rational.
    """
    gens = list(projections)
    if not gens:
        raise LatticeError("commutator of an empty family is undefined")
    check_dims(*gens)
    dim = gens[0].dim
    eye = xm.identity(dim)
    gen_mats = []
    seen = set()
    for g in gens:
        if g.matrix not in seen:
            seen.add(g.matrix)
            gen_mats.append(g.matrix)

    # Word algebra: span of I and all products of generators. The span is
    # closed under right multiplication by generators once a full round adds
    # nothing; capped by dim² = dimension of the full matrix algebra.
    algebra = [eye]
    span = xm.Span()
    span.add(_flat(eye))
    frontier = []
    for g in gen_mats:
        if span.add(_flat(g)):
            algebra.append(g)
            frontier.append(g)
    while frontier and span.dim() < dim * dim:
        new_frontier = []
        for w in frontier:
            for g in gen_mats:
                prod = xm.mat_mul(w, g)
                if span.add(_flat(prod)):
                    algebra.append(prod)
                    new_frontier.append(prod)
        frontier = new_frontier

    commutator_span = xm.Span()
    ideal = []
    for i, a in enumerate(algebra):
        for b in algebra[i + 1:]:
            c = xm.mat_sub(xm.mat_mul(a, b), xm.mat_mul(b, a))
            if commutator_span.add(_flat(c)):
                ideal.append(c)
    if not ideal:
        return identity_projection(dim)

    # Close the commutator span into a two-sided ideal of A(S).
    frontier = list(ideal)
    while frontier:
        new_frontier = []
        for j in frontier:
            for g in gen_mats:
                for prod in (xm.mat_mul(g, j), xm.mat_mul(j, g)):
                    if commutator_span.add(_flat(prod)):
                        ideal.append(prod)
                        new_frontier.append(prod)
        frontier = new_frontier

    unit = _ideal_unit(ideal)
    complement = xm.mat_sub(eye, unit)
    result = Projection(complement)
    for g in gens:
        if not result.commutes_with(g):
            raise LatticeError("internal error: commutator does not commute with inputs")
    return result


def _ideal_unit(basis: list) -> xm.Matrix:
    """Unit element of the (semisimple, *-closed) ideal spanned by basis."""
    k = len(basis)
    width = len(basis[0]) ** 2
    # Solve e·b = b for every basis element b, with e = Σ x_j basis_j.
    rows = []
    for b in basis:
        products = [_flat(xm.mat_mul(bj, b)) for bj in basis]
        fb = _flat(b)
        for pos in range(width):
            rows.append([products[j][pos] for j in range(k)] + [fb[pos]])
    pivots = xm._rref_in_place(rows)
    coeffs = [ZERO] * k
    for r, c in enumerate(pivots):
        if c == k:
            raise LatticeError("internal error: commutator ideal has no unit")
        coeffs[c] = rows[r][k]
    unit = xm.zeros(len(basis[0]), len(basis[0]))
    for x, b in zip(coeffs, basis):
        if not x.is_zero():
            unit = xm.mat_add(unit, xm.mat_scale(x, b))
    for b in basis:
        if xm.mat_mul(unit, b) != b or xm.mat_mul(b, unit) != b:
            raise LatticeError("internal error: ideal unit equations are inconsistent")
    return unit


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
        pairs = tuple(sorted(self.eigen, key=lambda t: t[0]))
        object.__setattr__(self, "eigen", pairs)
        values = [v for v, _ in pairs]
        if len(set(values)) != len(values):
            raise LatticeError("eigenvalues must be distinct")
        projs = [p for _, p in pairs]
        for p in projs:
            if p.dim != self.dim:
                raise LatticeError("eigenprojection dimension mismatch")
            if p.is_zero():
                raise LatticeError("zero eigenprojection not allowed")
        for i, p in enumerate(projs):
            for q in projs[i + 1:]:
                if not xm.is_zero(xm.mat_mul(p.matrix, q.matrix)):
                    raise LatticeError("eigenprojections must be pairwise orthogonal")
        total = xm.zeros(self.dim, self.dim)
        for p in projs:
            total = xm.mat_add(total, p.matrix)
        if total != xm.identity(self.dim):
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
