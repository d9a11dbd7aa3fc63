"""Quantum reals and Born-rule probabilities at finite dimension.

A self-adjoint operator with rational spectrum becomes a QReal: the left
spectral cuts E(r) = sum of eigenprojections with eigenvalue <= r, indexed
by a finite rational grid containing the spectrum. Equality of two quantum
reals is the grid-pointwise biconditional meet

    [[a = b]] = big_meet over r of (E_a(r) <-> E_b(r)),
    x <-> y := (x ∧ y) ∨ (x⊥ ∧ y⊥)

Since {ψ : xψ = yψ} = (x ∧ y) ⊕ (x⊥ ∧ y⊥), this is the subspace on which
E_a(r)ψ = E_b(r)ψ at every r, computed as one kernel by the lattice's
`agreement`. Its states are those in which a and b are perfectly
correlated (Ozawa, Ann. Phys. 321, 2006), commuting or not, so the
element has that oracle in every case. Outputs for noncommuting
observables are flagged model-dependent only because a Born value below
1 then has no joint-distribution reading. `prob_equal` reads each real
on its own spectrum: a further grid point would only repeat a cut pair or
add a pair of equal cuts, which `agreement` drops. The order truth value
reads cut containment: [[a <= b]] = big_meet over r of (E_b(r) → E_a(r)),
fixed by the scalar case c·I vs d·I.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import exactmat as xm
from .exactnum import GQ, format_rational, parse_entry, format_entry
from .lattice import Lattice, LatticeError, ProjectionLattice
from .projections import Projection, SpectralData
from .universe import make_qset, numerals

DECIMAL_NORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class QReal:
    """A Dedekind-cut real over a finite rational grid."""

    lattice: Lattice
    grid: tuple  # strictly increasing Fractions
    cuts: tuple  # lattice elements, parallel to grid

    def __post_init__(self):
        grid = tuple(Fraction(g) for g in self.grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cuts", tuple(self.cuts))
        if len(grid) != len(self.cuts) or not grid:
            raise LatticeError("grid and cuts must be nonempty and parallel")
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise LatticeError("grid must be strictly increasing")
        lat = self.lattice
        for c in self.cuts:
            lat.check_element(c)
        for a, b in zip(self.cuts, self.cuts[1:]):
            if not lat.leq(a, b):
                raise LatticeError("cuts must be monotone along the grid")
        if self.cuts[-1] != lat.top():
            raise LatticeError("the last cut must be the whole space")
        # monotone cuts commute pairwise: P ≤ Q gives QP = P, and its adjoint PQ = P

    def cut(self, r) -> object:
        r = Fraction(r)
        for g, c in zip(self.grid, self.cuts):
            if g == r:
                return c
        raise LatticeError(f"{r} is not a grid point")

    def at(self, r) -> object:
        """E(r) by the step rule: the cut at the largest grid point <= r, and
        bottom below the grid.

        Exact as long as the grid contains every jump of the spectral family,
        which qreal_from_spectral guarantees.
        """
        k = bisect_right(self.grid, r)
        return self.cuts[k - 1] if k else self.lattice.bottom()

    def refined(self, extra_points: Iterable) -> "QReal":
        """The same quantum real on a larger grid, its cuts read by `at`."""
        points = sorted(set(self.grid) | {Fraction(p) for p in extra_points})
        return QReal(self.lattice, tuple(points), tuple(self.at(p) for p in points))


def qreal_from_spectral(sd: SpectralData, grid: Sequence) -> QReal:
    """E(r) = sum of eigenprojections with eigenvalue <= r. Each partial sum
    is built once for all the grid points it covers."""
    lattice = ProjectionLattice(sd.dim)
    points = sorted({Fraction(g) for g in grid})
    spectrum = sd.eigenvalues()
    for ev in spectrum:
        if ev not in points:
            raise LatticeError(f"grid is missing the eigenvalue {ev}")
    sums = [lattice.bottom()]  # sums[k]: the sum of the first k eigenprojections
    for _, p in sd.eigen:
        sums.append(Projection(xm.mat_add(sums[-1].matrix, p.matrix)))
    cuts = tuple(sums[bisect_right(spectrum, r)] for r in points)
    return QReal(lattice, tuple(points), cuts)


def _merged_grid(a: QReal, b: QReal) -> list:
    if a.lattice != b.lattice:
        raise LatticeError("quantum reals live in different lattices")
    return sorted(set(a.grid) | set(b.grid))


def truth_eq(a: QReal, b: QReal):
    """[[a = b]]: where the cuts of a and b agree at every point of the
    merged grid, the lattice's `agreement` of the cut pairs."""
    return a.lattice.agreement((a.at(r), b.at(r)) for r in _merged_grid(a, b))


def truth_leq(a: QReal, b: QReal):
    """[[a <= b]]: cut containment, E_b(r) → E_a(r) met over the merged grid."""
    lat = a.lattice
    return lat.big_meet(
        lat.sasaki_arrow(b.at(r), a.at(r)) for r in _merged_grid(a, b)
    )


def spectral_commutes(a: SpectralData, b: SpectralData) -> bool:
    """Whether every eigenprojection of a commutes with every one of b. The
    last eigenprojection of each is I minus the others, so it commutes
    whenever they do, and only the pairs without a last one are tested."""
    return all(
        pa.commutes_with(pb)
        for _, pa in a.eigen[:-1]
        for _, pb in b.eigen[:-1]
    )


def observational_atom(sd: SpectralData, value) -> Projection:
    """The projection for 'the observable takes this exact value'."""
    return sd.projection_for(Fraction(value))


# ----------------------------------------------------------------- states

class StateVector:
    """A pure state, exact or 12-digit decimal.

    Exact states are stored as a raw Gaussian-rational ray representative;
    probabilities divide by the squared norm, which equals using the unit
    vector without ever introducing square roots. Decimal states must be
    normalized to within 1e-9.
    """

    __slots__ = ("dim", "exact", "entries")

    def __init__(self, entries, exact: bool = True):
        if exact:
            vec = tuple(e if isinstance(e, GQ) else GQ(*e) if isinstance(e, tuple) else GQ(Fraction(e))
                        for e in entries)
            if all(x.is_zero() for x in vec):
                raise LatticeError("state vector must be nonzero")
        else:
            vec = tuple(complex(e) for e in entries)
            norm = sum(abs(x) ** 2 for x in vec)
            if abs(norm - 1.0) > DECIMAL_NORM_TOLERANCE:
                raise LatticeError(f"decimal state is not normalized: squared norm = {norm!r}")
        self.dim = len(vec)
        self.exact = exact
        self.entries = vec

    def norm_sq(self):
        if self.exact:
            return xm.inner(self.entries, self.entries).re
        return sum(abs(x) ** 2 for x in self.entries)

    @classmethod
    def from_json(cls, doc) -> "StateVector":
        if isinstance(doc, dict):
            kind = doc.get("kind", "exact")
            entries = doc["entries"]
        else:
            kind, entries = "exact", doc
        if kind == "exact":
            return cls([parse_entry(e) for e in entries], exact=True)
        if kind == "decimal":
            return cls([complex(*e) if isinstance(e, (list, tuple)) else float(e)
                        for e in entries], exact=False)
        raise LatticeError(f"unknown state kind {kind!r}")

    def to_json(self) -> dict:
        if self.exact:
            return {"kind": "exact", "entries": [format_entry(x) for x in self.entries]}
        return {"kind": "decimal",
                "entries": [[x.real, x.imag] for x in self.entries]}

    def __repr__(self):
        mode = "exact" if self.exact else "decimal"
        return f"StateVector(dim={self.dim}, {mode})"


def born_probability(p: Projection, state: StateVector):
    """Pr = ‖Pψ‖²; a Fraction for exact states, a float for decimal ones."""
    if p.dim != state.dim:
        raise LatticeError(f"projection dimension {p.dim} != state dimension {state.dim}")
    if state.exact:
        image = xm.mat_vec(p.matrix, state.entries)
        value = xm.inner(image, image).re / state.norm_sq()
        return value
    rows = [[complex(x) for x in row] for row in p.matrix]
    image = [sum(row[j] * state.entries[j] for j in range(state.dim)) for row in rows]
    return sum(abs(x) ** 2 for x in image)


def format_probability(value) -> str:
    """Exact rationals verbatim, floats at 12 significant digits."""
    if isinstance(value, Fraction):
        return format_rational(value)
    return f"{float(value):.12g}"


@dataclass(frozen=True)
class ProbabilityResult:
    value: object  # Fraction or float
    exact: bool
    model_dependent: bool  # True when the operators do not commute
    element: object = None  # the truth-value projection, when available

    def render(self) -> str:
        text = format_probability(self.value)
        if self.model_dependent:
            text += "  (model-dependent: operators do not commute)"
        return text


def prob_equal(a: SpectralData, b: SpectralData, state: StateVector) -> ProbabilityResult:
    """Pr{a = b ‖ ψ} = ‖ [[a = b]] ψ ‖², each real read on its own spectrum:
    `truth_eq` merges the two grids."""
    if a.dim != b.dim:
        raise LatticeError("spectral data dimensions differ")
    element = truth_eq(qreal_from_spectral(a, a.eigenvalues()),
                       qreal_from_spectral(b, b.eigenvalues()))
    return ProbabilityResult(
        value=born_probability(element, state),
        exact=state.exact,
        model_dependent=not spectral_commutes(a, b),
        element=element,
    )


def classical_equal_value_probability(a: SpectralData, b: SpectralData,
                                      state: StateVector):
    """Commuting-case oracle: sum of ‖(P_i ∧ Q_j)ψ‖² over equal-value pairs,
    with the meet realized as the product of commuting projections."""
    if not spectral_commutes(a, b):
        raise LatticeError("classical oracle only applies to commuting observables")
    total = Fraction(0) if state.exact else 0.0
    for va, pa in a.eigen:
        for vb, pb in b.eigen:
            if va == vb:
                joint = Projection(xm.mat_mul(pa.matrix, pb.matrix))
                total += born_probability(joint, state)
    return total


# --------------------------------------- the real-number predicate R(x)

def qreal_as_qset(q: QReal):
    """Encode the cut as a lattice-valued set over numeral check-sets:
    u(ǩ) = E(grid[k]), so [[ǩ ∈ u]] = E(grid[k]) exactly."""
    lattice = q.lattice
    nums = numerals(lattice, len(q.grid))
    u = make_qset(lattice, list(zip(nums, q.cuts)))
    return u, nums


def real_predicate_truth(q: QReal):
    """[[R(u)]]: the cut is monotone along the grid and attains the top.

    Over the qreal_as_qset encoding, m_k = [[ǧk ∈ u]] is the k-th cut
    itself: [[ǧi = ǧk]] is 1 when i = k and 0 otherwise, so the membership
    join keeps u(ǧk) alone. Monotonicity is the meet of the Sasaki arrows
    m_i → m_j over i < j and attainment is the join of all m_k. These are
    the values that rules R1, R2, R5 and → give the formula
    (g0 in u -> g1 in u) & ... & (g0 in u | ... | g{n-1} in u),
    in O(n²) lattice operations on an n-point grid.
    """
    lat = q.lattice
    m = q.cuts
    monotone = lat.big_meet(
        lat.sasaki_arrow(m[i], m[j])
        for i in range(len(m))
        for j in range(i + 1, len(m))
    )
    return lat.meet(monotone, lat.big_join(m))
