"""Complete orthocomplemented lattices of truth values.

Two carriers: finite Boolean algebras (powersets of at most 8 atoms, stored
as bitmasks) and lattices of exact projections on a finite-dimensional
space. Formula semantics only ever needs finite meets and joins, so
finiteness stands in for completeness throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from . import projections as pj
from .projections import LatticeError, Projection

MAX_BOOLEAN_ATOMS = 8


class Lattice:
    """Shared operations; subclasses supply meet/join/ortho/leq and bounds."""

    kind: str

    def top(self):
        raise NotImplementedError

    def bottom(self):
        raise NotImplementedError

    def meet(self, a, b):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def ortho(self, a):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def contains(self, a) -> bool:
        raise NotImplementedError

    def sasaki_arrow(self, a, b):
        """a → b = a⊥ ∨ (a ∧ b); equals 1 exactly when a ≤ b."""
        return self.join(self.ortho(a), self.meet(a, b))

    def commutes(self, a, b) -> bool:
        """Compatibility: a = (a∧b) ∨ (a∧b⊥)."""
        raise NotImplementedError

    def commutator(self, values: Iterable):
        """The commutator of a finite family of values: the largest element
        that commutes with every member and under which the members commute
        pairwise; top for an empty family."""
        raise NotImplementedError

    def agreement(self, pairs: Iterable):
        """The largest element on which x and y agree for every pair (x, y):
        the meet of the biconditionals (x ∧ y) ∨ (x⊥ ∧ y⊥); top for no pairs."""
        raise NotImplementedError

    def big_meet(self, items: Iterable):
        out = self.top()
        for x in items:
            out = self.meet(out, x)
        return out

    def big_join(self, items: Iterable):
        out = self.bottom()
        for x in items:
            out = self.join(out, x)
        return out

    def check_element(self, a):
        if not self.contains(a):
            raise LatticeError(f"element {a!r} does not belong to this {self.kind} lattice")
        return a

    def describe(self) -> dict:
        raise NotImplementedError

    def element_repr(self, a) -> str:
        raise NotImplementedError

    def element_to_json(self, a):
        raise NotImplementedError

    def element_from_json(self, doc):
        raise NotImplementedError


class BooleanLattice(Lattice):
    """Powerset of `atoms` generators; an element is a bitmask of atoms."""

    kind = "boolean"

    def __init__(self, atoms: int):
        if not isinstance(atoms, int) or not 1 <= atoms <= MAX_BOOLEAN_ATOMS:
            raise LatticeError(f"boolean lattice needs 1..{MAX_BOOLEAN_ATOMS} atoms, got {atoms}")
        self.atoms = atoms
        self._top = (1 << atoms) - 1

    def __repr__(self):
        return f"BooleanLattice(atoms={self.atoms})"

    def __eq__(self, other):
        return isinstance(other, BooleanLattice) and other.atoms == self.atoms

    def __hash__(self):
        return hash(("boolean", self.atoms))

    def top(self) -> int:
        return self._top

    def bottom(self) -> int:
        return 0

    def atom(self, i: int) -> int:
        if not 0 <= i < self.atoms:
            raise LatticeError(f"atom index {i} out of range 0..{self.atoms - 1}")
        return 1 << i

    def contains(self, a) -> bool:
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a <= self._top

    def size(self) -> int:
        return 1 << self.atoms

    def elements(self) -> Iterator[int]:
        return iter(range(1 << self.atoms))

    def meet(self, a: int, b: int) -> int:
        return a & b

    def join(self, a: int, b: int) -> int:
        return a | b

    def ortho(self, a: int) -> int:
        return self._top ^ a

    def leq(self, a: int, b: int) -> bool:
        return a & b == a

    def commutes(self, a: int, b: int) -> bool:
        return True

    def commutator(self, values: Iterable) -> int:
        return self._top

    def agreement(self, pairs: Iterable) -> int:
        differ = 0
        for x, y in pairs:
            differ |= x ^ y
        return self._top ^ differ

    def describe(self) -> dict:
        return {"kind": "boolean", "atoms": self.atoms}

    def element_repr(self, a: int) -> str:
        if a == 0:
            return "0"
        if a == self._top:
            return "1"
        names = [f"a{i}" for i in range(self.atoms) if a & (1 << i)]
        return "|".join(names)

    def element_to_json(self, a: int) -> int:
        return self.check_element(a)

    def element_from_json(self, doc) -> int:
        # integers are raw atom bitmasks (the element_to_json encoding);
        # strings are the element_repr forms "0", "1", "a0|a2"
        if isinstance(doc, str):
            text = doc.strip()
            if text == "0":
                doc = 0
            elif text == "1":
                doc = self._top
            else:
                value = 0
                for part in text.split("|"):
                    part = part.strip()
                    if not (part.startswith("a") and part[1:].isdigit()):
                        raise LatticeError(f"cannot parse lattice element {doc!r}")
                    value |= self.atom(int(part[1:]))
                doc = value
        return self.check_element(doc)


class ProjectionLattice(Lattice):
    """Projections on a dim-dimensional space, ordered by range inclusion.

    Elements are interned `Projection`s: equal matrices are one object,
    so the operands of the memo and the shortcuts compare by identity.
    Meets, joins, complements, order tests and commutators are memoized by
    operand for as long as the lattice object lives; a fresh lattice
    computes everything again. A computed complement I − P is recorded
    with P as its own complement. Commutators reuse all of these.
    """

    kind = "projection"

    def __init__(self, dim: int):
        if not isinstance(dim, int) or dim < 1:
            raise LatticeError(f"projection lattice needs dimension >= 1, got {dim}")
        self.dim = dim
        self._top = pj.identity_projection(dim)
        self._bottom = pj.zero_projection(dim)
        self._memo: dict = {}  # (operation, *operands) -> result

    def __repr__(self):
        return f"ProjectionLattice(dim={self.dim})"

    def __eq__(self, other):
        return isinstance(other, ProjectionLattice) and other.dim == self.dim

    def __hash__(self):
        return hash(("projection", self.dim))

    def top(self) -> Projection:
        return self._top

    def bottom(self) -> Projection:
        return self._bottom

    def contains(self, a) -> bool:
        return isinstance(a, Projection) and a.dim == self.dim

    def _memoized(self, op: str, compute, *operands):
        """compute(*operands), computed once per operands on this lattice."""
        key = (op, *operands)
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute(*operands)
            return value

    def meet(self, a: Projection, b: Projection) -> Projection:
        """a ∧ b. The identities a∧a = a, a∧1 = a and a∧0 = 0 (either
        argument order) are answered without row reduction."""
        pj.check_dims(a, b)
        if a == b or b == self._top:
            return a
        if a == self._top:
            return b
        if a == self._bottom or b == self._bottom:
            return self._bottom
        return self._memoized("meet", pj.subspace_meet, a, b)

    def join(self, a: Projection, b: Projection) -> Projection:
        """a ∨ b. The identities a∨a = a, a∨0 = a and a∨1 = 1 (either
        argument order) are answered without row reduction."""
        pj.check_dims(a, b)
        if a == b or b == self._bottom:
            return a
        if a == self._bottom:
            return b
        if a == self._top or b == self._top:
            return self._top
        return self._memoized("join", pj.subspace_join, a, b)

    def ortho(self, a: Projection) -> Projection:
        """a⊥. 1 and 0 swap without computing; a computed I − P is memoized
        with P as its own complement, so ortho(ortho(P)) is P."""
        if a == self._top:
            return self._bottom
        if a == self._bottom:
            return self._top
        key = ("ortho", a)
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = a.complement()
            self._memo["ortho", value] = a
            return value

    def leq(self, a: Projection, b: Projection) -> bool:
        """a ≤ b. a ≤ a, 0 ≤ b and a ≤ 1 hold, and then 1 ≤ b and a ≤ 0
        fail, by the lattice laws; only the other pairs take an exact
        product."""
        pj.check_dims(a, b)
        if a == b or a == self._bottom or b == self._top:
            return True
        if a == self._top or b == self._bottom:
            return False
        return self._memoized("leq", Projection.leq, a, b)

    def commutes(self, a: Projection, b: Projection) -> bool:
        return a.commutes_with(b)

    def commutator(self, values: Iterable) -> Projection:
        """The join, over every choice of P or P⊥ for each member, of the meet
        of the choices (Pulmannová, Demonstratio Math. 18, 1985). The members
        split 1 one at a time into such meets, pairwise orthogonal, so at most
        dim survive each step; every step is this lattice's memoized op.
        Keyed by the set, computed in the order given: a set of projections
        iterates by id, so its order would change the work from run to run."""
        family = tuple(dict.fromkeys(values))
        if not family:
            return self._top
        key = ("commutator", frozenset(family))
        if key in self._memo:
            return self._memo[key]
        blocks = [self._top]
        for p in family:
            pc = self.ortho(p)
            blocks = [b for m in blocks for b in (self.meet(m, p), self.meet(m, pc))
                      if b is not self._bottom]
        result = self.big_join(blocks)
        if not all(result.commutes_with(p) for p in family):
            raise LatticeError("internal error: commutator does not commute with inputs")
        self._memo[key] = result
        return result

    def agreement(self, pairs: Iterable) -> Projection:
        """The projection onto {ψ : xψ = yψ for every pair}: for one pair
        that is (x∧y) ⊕ (x⊥∧y⊥), the states on which x and y are perfectly
        correlated (Ozawa, Ann. Phys. 321, 2006). One row reduction of the
        stacked differences x − y, none when every pair is one projection
        twice. Not memoized."""
        return pj.subspace_agreement(pairs, self.dim)

    def describe(self) -> dict:
        return {"kind": "projection", "dim": self.dim}

    def element_repr(self, a: Projection) -> str:
        if a == pj.zero_projection(a.dim):
            return "0"
        if a == pj.identity_projection(a.dim):
            return "1"
        return f"proj(rank {a.rank()} of {a.dim})"

    def element_to_json(self, a: Projection):
        self.check_element(a)
        return pj.projection_to_json(a)

    def element_from_json(self, doc) -> Projection:
        return self.check_element(pj.projection_from_json(doc))


def lattice_from_json(doc: dict) -> Lattice:
    kind = doc.get("kind")
    if kind == "boolean":
        return BooleanLattice(doc["atoms"])
    if kind == "projection":
        return ProjectionLattice(doc["dim"])
    raise LatticeError(f"unknown lattice kind {kind!r}")


def lattice_to_json(lattice: Lattice) -> dict:
    return lattice.describe()


@dataclass
class LawReport:
    """Outcome of verify_laws: per-law verdicts plus distributivity status."""

    kind: str
    laws: dict  # law name -> bool, insertion order = report order
    distributive: bool
    distributivity_witness: Optional[tuple]
    orthomodular: bool
    pairs_checked: int
    triples_checked: int
    notes: list = field(default_factory=list)

    def ortholattice_ok(self) -> bool:
        return all(self.laws.values())

    def to_json(self, lattice: Optional["Lattice"] = None) -> dict:
        witness = None
        if self.distributivity_witness is not None:
            if lattice is not None:
                witness = [lattice.element_to_json(x) for x in self.distributivity_witness]
            else:
                witness = [repr(x) for x in self.distributivity_witness]
        return {
            "kind": self.kind,
            "laws": dict(self.laws),
            "distributive": self.distributive,
            "distributivity_witness": witness,
            "orthomodular": self.orthomodular,
            "pairs_checked": self.pairs_checked,
            "triples_checked": self.triples_checked,
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [f"lattice kind: {self.kind}"]
        for name, ok in self.laws.items():
            lines.append(f"  {name:<22} {'holds' if ok else 'FAILS'}")
        status = "holds" if self.distributive else "violated"
        lines.append(f"  {'distributivity':<22} {status}")
        if self.distributivity_witness is not None:
            a, b, c = self.distributivity_witness
            lines.append(f"    witness: a={a!r}, b={b!r}, c={c!r}")
            lines.append("    a∧(b∨c) ≠ (a∧b)∨(a∧c)")
        lines.append(f"  pairs checked: {self.pairs_checked}, triples checked: {self.triples_checked}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _verify_boolean_laws(lattice: BooleanLattice) -> LawReport:
    # Full enumeration, vectorized: elements of an 8-atom algebra fit uint8.
    n = lattice.size()
    top = np.uint16(lattice.top())
    xs = np.arange(n, dtype=np.uint16)
    comp = top ^ xs

    laws = {}
    laws["complement-meet"] = bool(np.all(xs & comp == 0))
    laws["complement-join"] = bool(np.all(xs | comp == top))
    laws["double-complement"] = bool(np.all(top ^ comp == xs))

    a = xs[:, None]
    b = xs[None, :]
    ca = comp[:, None]
    cb = comp[None, :]
    leq_ab = (a & b) == a
    leq_rev = (cb & ca) == cb
    laws["order-reversal"] = bool(np.all(leq_ab == leq_rev))
    laws["de-morgan"] = bool(np.all(top ^ (a | b) == (ca & cb)))
    laws["absorption"] = bool(np.all(a & (a | b) == a))
    omod = (a | (b & ca)) == b
    laws["orthomodularity"] = bool(np.all(np.where(leq_ab, omod, True)))

    a3 = xs[:, None, None]
    b3 = xs[None, :, None]
    c3 = xs[None, None, :]
    lhs = a3 & (b3 | c3)
    rhs = (a3 & b3) | (a3 & c3)
    mismatch = lhs != rhs
    distributive = not bool(mismatch.any())
    witness = None
    if not distributive:
        i, j, k = (int(v) for v in np.argwhere(mismatch)[0])
        witness = (i, j, k)

    # Meet/join duality over all pairs: (a∧b)⊥ = a⊥∨b⊥.
    laws["meet-join-duality"] = bool(np.all(top ^ (a & b) == (ca | cb)))

    return LawReport(
        kind="boolean",
        laws=laws,
        distributive=distributive,
        distributivity_witness=witness,
        orthomodular=laws["orthomodularity"],
        pairs_checked=n * n,
        triples_checked=n * n * n,
        notes=[f"full enumeration of {n} elements"],
    )


def _canonical_projection_triple(lattice: ProjectionLattice):
    """P onto e1, Q onto span(e1+e2), Q⊥: a distributivity violation whenever
    the ambient dimension is at least 2."""
    from .exactnum import ONE, ZERO

    d = lattice.dim
    e1 = tuple(ONE if i == 0 else ZERO for i in range(d))
    diag = tuple(ONE if i < 2 else ZERO for i in range(d))
    p = pj.proj_from_span([e1], d)
    q = pj.proj_from_span([diag], d)
    return p, q, q.complement()


def _verify_projection_laws(lattice: ProjectionLattice, sample, max_triples: int) -> LawReport:
    elems = list(sample)
    ortho = lattice.ortho
    meet = lattice.meet
    join = lattice.join
    top = lattice.top()
    bottom = lattice.bottom()

    laws = {
        "complement-meet": True,
        "complement-join": True,
        "double-complement": True,
        "order-reversal": True,
        "de-morgan": True,
        "absorption": True,
        "orthomodularity": True,
        "meet-join-duality": True,
        "commutes-vs-matrix": True,
    }

    for x in elems:
        if meet(x, ortho(x)) != bottom:
            laws["complement-meet"] = False
        if join(x, ortho(x)) != top:
            laws["complement-join"] = False
        if ortho(ortho(x)) != x:
            laws["double-complement"] = False

    pairs = 0
    for x in elems:
        for y in elems:
            pairs += 1
            cx, cy = ortho(x), ortho(y)
            if lattice.leq(x, y) != lattice.leq(cy, cx):
                laws["order-reversal"] = False
            if ortho(join(x, y)) != meet(cx, cy):
                laws["de-morgan"] = False
            if meet(x, join(x, y)) != x:
                laws["absorption"] = False
            if ortho(meet(x, y)) != join(cx, cy):
                laws["meet-join-duality"] = False
            # (x∧y, y) is always a comparable pair; sampled pairs alone
            # would rarely be comparable.
            lo = meet(x, y)
            if join(lo, meet(y, ortho(lo))) != y:
                laws["orthomodularity"] = False
            if lattice.leq(x, y) and join(x, meet(y, cx)) != y:
                laws["orthomodularity"] = False
            # compatibility x = (x∧y) ∨ (x∧y⊥) must agree with PQ = QP
            if (join(lo, meet(x, cy)) == x) != lattice.commutes(x, y):
                laws["commutes-vs-matrix"] = False

    distributive = True
    witness = None
    triples = 0
    if lattice.dim >= 2:
        candidates = [_canonical_projection_triple(lattice)]
        for i, x in enumerate(elems):
            for y in elems[i:]:
                candidates.append((x, y, ortho(y)))
                candidates.append((x, y, top))
        for a, b, c in candidates:
            if triples >= max_triples:
                break
            triples += 1
            if meet(a, join(b, c)) != join(meet(a, b), meet(a, c)):
                distributive = False
                witness = (a, b, c)
                break

    return LawReport(
        kind="projection",
        laws=laws,
        distributive=distributive,
        distributivity_witness=witness,
        orthomodular=laws["orthomodularity"],
        pairs_checked=pairs,
        triples_checked=triples,
        notes=[f"sampled {len(elems)} projections in dimension {lattice.dim}"],
    )


def verify_laws(lattice: Lattice, sample=None, max_triples: int = 400) -> LawReport:
    """Check ortholattice laws, De Morgan, orthomodularity and distributivity.

    Boolean lattices are checked by full enumeration (vectorized). Projection
    lattices are checked on the supplied sample of projections; distributivity
    always gets the canonical violating triple tested first, so a violation
    witness is found in every dimension >= 2.
    """
    if max_triples < 1:
        raise ValueError(f"max_triples must be at least 1, got {max_triples}")
    if isinstance(lattice, BooleanLattice):
        return _verify_boolean_laws(lattice)
    if isinstance(lattice, ProjectionLattice):
        if sample is None:
            p, q, qc = _canonical_projection_triple(lattice)
            sample = [lattice.bottom(), lattice.top(), p, q, qc]
        for x in sample:
            lattice.check_element(x)
        return _verify_projection_laws(lattice, sample, max_triples)
    raise LatticeError(f"cannot verify laws for lattice kind {lattice.kind!r}")
