"""Executable theorem checks: value-1 sweeps over Boolean fragments, the
transfer inequality over projection fragments, and the equality-axiom
violation search.

The bundled catalog lists bounded-quantifier schemas that are classical
set-theory theorems (equality laws, extensionality, weakening, empty set,
pairing). The toolkit trusts the catalog rather than verifying provability.
Classical implication is spelled ~(phi & ~psi) so every schema lives in the
core connectives; several schemas evaluate to 1 in any ortholattice by
construction, and the genuinely quantum-sensitive ones (transitivity and
the two substitutivity forms) are what the transfer inequality is about.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import fragment_tables as ft
from .formula import (Environment, Exists, Forall, children, compile_core, desugar,
                      free_variables, parse)
from .lattice import BooleanLattice, Lattice, LatticeError, ProjectionLattice
from .projections import Projection
from .universe import (EvalSession, QSet, UniverseFragment, empty_qset,
                       make_qset, numerals, qsets_to_json)


@dataclass(frozen=True)
class Schema:
    """One catalog entry; text uses argument names x1..x{arity} and
    constructed constants c1.. provided by build."""

    name: str
    arity: int
    text: str
    description: str
    always_one: bool  # value is 1 in any ortholattice, by construction
    build: Optional[Callable] = None
    is_control: bool = False  # deliberately not a theorem
    formula: object = field(init=False, compare=False)  # parse(text)
    core: object = field(init=False, compare=False)  # desugar(formula)
    free: frozenset = field(init=False, compare=False)  # free_variables(core)
    names: tuple = field(init=False, compare=False)  # x1..x{arity}

    def __post_init__(self):
        object.__setattr__(self, "formula", parse(self.text))
        object.__setattr__(self, "core", desugar(self.formula))
        object.__setattr__(self, "free", frozenset(free_variables(self.core)))
        object.__setattr__(self, "names", tuple(f"x{i + 1}" for i in range(self.arity)))


def _build_empty(lattice: Lattice, args: tuple) -> dict:
    return {"c1": empty_qset(lattice)}


def _build_pair(lattice: Lattice, args: tuple) -> dict:
    """{x1, x2}, with one entry when x1 and x2 are the same set."""
    top = lattice.top()
    return {"c1": make_qset(lattice, [(a, top) for a in dict.fromkeys(args)])}


CATALOG = [
    Schema("eq-reflexivity", 1, "x1 = x1",
           "everything equals itself", always_one=True),
    Schema("eq-symmetry", 2, "~(x1 = x2 & ~x2 = x1)",
           "equality is symmetric", always_one=True),
    Schema("eq-transitivity", 3, "~(x1 = x2 & x2 = x3 & ~x1 = x3)",
           "equality is transitive", always_one=False),
    Schema("extensionality", 2,
           "~((forall z in x1 . z in x2) & (forall z in x2 . z in x1) & ~x1 = x2)",
           "mutual inclusion forces equality", always_one=True),
    Schema("and-weakening", 3, "~(x1 in x2 & x1 = x3 & ~x1 in x2)",
           "a conjunction implies its own conjunct", always_one=True),
    Schema("empty-set", 0, "forall z in c1 . ~z = z",
           "the empty set has no members", always_one=True, build=_build_empty),
    Schema("pairing", 2, "x1 in c1 & x2 in c1",
           "both elements belong to the constructed pair", always_one=True,
           build=_build_pair),
    Schema("subst-membership-left", 3, "~(x1 = x2 & x1 in x3 & ~x2 in x3)",
           "equals may replace equals as members", always_one=False),
    Schema("subst-membership-right", 3, "~(x1 = x2 & x3 in x1 & ~x3 in x2)",
           "equals may replace equals as containers", always_one=False),
    Schema("control-distinct", 2, "x1 = x2",
           "not a theorem: arbitrary sets are not equal", always_one=False,
           is_control=True),
]

CATALOG_BY_NAME = {s.name: s for s in CATALOG}

THEOREM_SCHEMAS = [s for s in CATALOG if not s.is_control]

# sampled instances that scott_solovay_suite re-runs through the generic
# evaluator, split evenly over the theorem schemas
DEFAULT_CROSS_CHECK = 180


def _check_arguments(args: Iterable, lattice: Lattice) -> None:
    for a in args:
        if not isinstance(a, QSet) or a.lattice != lattice:
            raise LatticeError("instance arguments must be QSets of the instance lattice")


@dataclass(frozen=True)
class TheoremInstance:
    schema: Schema
    lattice: Lattice
    args: tuple  # QSets, length == schema.arity

    def __post_init__(self):
        if len(self.args) != self.schema.arity:
            raise LatticeError(
                f"schema {self.schema.name} takes {self.schema.arity} arguments, "
                f"got {len(self.args)}")
        _check_arguments(self.args, self.lattice)

    def bindings(self) -> dict:
        out = dict(zip(self.schema.names, self.args))
        if self.schema.build is not None:
            out.update(self.schema.build(self.lattice, self.args))
        return out

    def serialize(self) -> dict:
        return {
            "schema": self.schema.name,
            "formula": self.schema.text,
            "args": qsets_to_json(self.args, self.lattice),
        }


def has_unbounded_quantifier(formula) -> bool:
    return (isinstance(formula, (Forall, Exists))
            or any(has_unbounded_quantifier(c) for c in children(formula)))


def evaluate_instance(inst: TheoremInstance, session: Optional[EvalSession] = None):
    """The truth value of one instance. A session compiles each schema it
    meets once and keeps the closures, so every later instance of that
    schema in the session costs one closure run."""
    if session is None:
        session = EvalSession(inst.lattice)
    elif session.lattice != inst.lattice:
        raise LatticeError("the instance belongs to a different lattice than the session")
    bindings = inst.bindings()
    program = session.programs.get(inst.schema)
    if program is None:
        env = Environment(inst.lattice, bindings, session=session)
        program = session.programs[inst.schema] = compile_core(
            inst.schema.core, inst.schema.free, env)
    return program(bindings)


def hereditary_values(args: Iterable[QSet]) -> list:
    """Every lattice value occurring anywhere down the domain trees."""
    values: list = []
    seen_sets: set = set()
    seen_values: set = set()
    stack = list(args)
    while stack:
        u = stack.pop()
        if id(u) in seen_sets:
            continue
        seen_sets.add(id(u))
        for k, v in u.entries:
            if v not in seen_values:
                seen_values.add(v)
                values.append(v)
            stack.append(k)
    return values


def qset_commutator(args: Sequence[QSet], lattice: Lattice):
    """Commutator of all hereditary truth values; 1 on Boolean lattices and
    for families that commute pairwise (check-sets in particular)."""
    for a in args:
        if a.lattice != lattice:
            raise LatticeError("argument belongs to a different lattice")
    return lattice.commutator(hereditary_values(args))


@dataclass
class CheckReport:
    """Outcome of one theorem-instance check."""

    kind: str  # scott-solovay | transfer
    schema: str
    verdict: str  # pass | fail | not-applicable | not-a-theorem-control
    value: object = None
    commutator: object = None
    notes: list = field(default_factory=list)
    witness: Optional[dict] = None

    def passed(self) -> bool:
        return self.verdict in ("pass", "not-applicable", "not-a-theorem-control")

    def to_json(self, lattice: Optional[Lattice] = None) -> dict:
        doc = {"kind": self.kind, "schema": self.schema, "verdict": self.verdict,
               "notes": list(self.notes)}
        if lattice is not None and self.value is not None:
            doc["value"] = lattice.element_to_json(self.value)
        if lattice is not None and self.commutator is not None:
            doc["commutator"] = lattice.element_to_json(self.commutator)
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


def check_scott_solovay(inst: TheoremInstance,
                        session: Optional[EvalSession] = None) -> CheckReport:
    """Pass iff the instance evaluates to exactly 1 over a Boolean lattice."""
    if not isinstance(inst.lattice, BooleanLattice):
        return CheckReport("scott-solovay", inst.schema.name, "not-applicable",
                           notes=["requires a Boolean lattice"])
    value = evaluate_instance(inst, session)
    if inst.schema.is_control:
        verdict = "not-a-theorem-control"
        notes = [f"control formula evaluates to {inst.lattice.element_repr(value)}"]
        return CheckReport("scott-solovay", inst.schema.name, verdict,
                           value=value, notes=notes)
    if value == inst.lattice.top():
        return CheckReport("scott-solovay", inst.schema.name, "pass", value=value)
    return CheckReport("scott-solovay", inst.schema.name, "fail", value=value,
                       witness=inst.serialize())


def check_transfer(inst: TheoremInstance,
                   session: Optional[EvalSession] = None) -> CheckReport:
    """Pass iff truth value >= commutator of the arguments' hereditary values."""
    if has_unbounded_quantifier(inst.schema.formula):
        return CheckReport("transfer", inst.schema.name, "not-applicable",
                           notes=["transfer applies to bounded-quantifier formulas only"])
    if inst.schema.is_control:
        value = evaluate_instance(inst, session)
        return CheckReport("transfer", inst.schema.name, "not-a-theorem-control", value=value,
                           notes=["control formulas are exempt from the inequality"])
    value = evaluate_instance(inst, session)
    com = qset_commutator(inst.args, inst.lattice)
    if inst.lattice.leq(com, value):
        return CheckReport("transfer", inst.schema.name, "pass",
                           value=value, commutator=com)
    return CheckReport("transfer", inst.schema.name, "fail",
                       value=value, commutator=com, witness=inst.serialize())


# ------------------------------------------------------------ suite runs

@dataclass
class SchemaSweep:
    schema: str
    coverage: str
    instances: int
    passed: bool
    witness: Optional[dict] = None
    notes: list = field(default_factory=list)


@dataclass
class SuiteReport:
    suite: str
    lattice: dict
    sweeps: list
    notes: list = field(default_factory=list)

    def passed(self) -> bool:
        return all(s.passed for s in self.sweeps)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "lattice": self.lattice,
            "passed": self.passed(),
            "sweeps": [
                {"schema": s.schema, "coverage": s.coverage, "instances": s.instances,
                 "passed": s.passed, "witness": s.witness, "notes": s.notes}
                for s in self.sweeps
            ],
            "notes": self.notes,
        }

    def render(self) -> str:
        lines = [f"suite: {self.suite}   lattice: {json.dumps(self.lattice)}"]
        for s in self.sweeps:
            mark = "pass" if s.passed else "FAIL"
            lines.append(f"  {s.schema:<26} {mark:<5} {s.coverage:<22} instances={s.instances}")
            for note in s.notes:
                lines.append(f"      note: {note}")
            if s.witness is not None:
                lines.append(f"      witness: {json.dumps(s.witness)}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"  overall: {'pass' if self.passed() else 'FAIL'}")
        return "\n".join(lines)


def _sample_tuples(rng: random.Random, members: Sequence[QSet], arity: int,
                   count: int) -> list:
    return [tuple(rng.choice(members) for _ in range(arity)) for _ in range(count)]


def scott_solovay_suite(fragment: UniverseFragment,
                        cross_check: int = DEFAULT_CROSS_CHECK,
                        rng: Optional[random.Random] = None) -> SuiteReport:
    """Value-1 verdicts for every catalog theorem over the whole fragment.

    Pair-level schemas are checked on all |F|² pairs via the truth tables;
    triple-level schemas reduce to per-atom-plane relation properties that
    are equivalent to the all-triples statement. A sampled generic-evaluator
    cross-check guards the vectorized reductions themselves.
    """
    if cross_check < 1:
        raise ValueError(f"cross_check must be at least 1, got {cross_check}")
    lattice = fragment.lattice
    if not isinstance(lattice, BooleanLattice):
        raise LatticeError("the value-1 suite runs over Boolean fragments")
    rng = rng or random.Random(0)
    tables = fragment.truth_tables()
    top = lattice.top()
    n = len(fragment)
    members = fragment.members
    sweeps = []

    eq, mem, fwd = tables.eq, tables.mem, tables.fwd

    # eq-reflexivity over all members
    refl_ok = bool((np.diag(eq) == top).all())
    witness = None
    if not refl_ok:
        i = int(np.argmin(np.diag(eq) == top))
        witness = TheoremInstance(CATALOG_BY_NAME["eq-reflexivity"], lattice,
                                  (members[i],)).serialize()
    sweeps.append(SchemaSweep("eq-reflexivity", "all members", n, refl_ok, witness))

    # eq-symmetry over all pairs: ~(eq & ~eq.T) must be top. The sweeps
    # below read the tables one row tile at a time (eq.T from column slabs).
    i_j = ft.first_nonzero(n, lambda rows: eq[rows] & (top ^ ft.transposed(eq[:, rows])))
    witness = None
    if i_j is not None:
        witness = TheoremInstance(CATALOG_BY_NAME["eq-symmetry"], lattice,
                                  tuple(members[i] for i in i_j)).serialize()
    sweeps.append(SchemaSweep("eq-symmetry", "all pairs", n * n,
                              i_j is None, witness))

    # eq-transitivity over all triples, by plane equivalence
    triple = ft.check_transitivity_everywhere(tables)
    witness = None
    if triple is not None:
        u, v, w = (members[i] for i in triple)
        witness = TheoremInstance(CATALOG_BY_NAME["eq-transitivity"], lattice,
                                  (u, v, w)).serialize()
    sweeps.append(SchemaSweep("eq-transitivity", "all triples (plane method)",
                              n ** 3, triple is None, witness))

    # extensionality over all pairs: the inclusion conjunction is the
    # equality value itself, so ~(that & ~eq) is top exactly when the
    # tables agree.
    i_j = ft.first_nonzero(n, lambda rows: fwd[rows] & ft.transposed(fwd[:, rows])
                           & (top ^ eq[rows]))
    witness = None
    if i_j is not None:
        witness = TheoremInstance(CATALOG_BY_NAME["extensionality"], lattice,
                                  tuple(members[i] for i in i_j)).serialize()
    sweeps.append(SchemaSweep("extensionality", "all pairs", n * n,
                              i_j is None, witness))

    # and-weakening over all triples: the inner conjunction contains
    # mem & ~mem, which vanishes bitwise on every pair regardless of the
    # third argument.
    i_j = ft.first_nonzero(n, lambda rows: mem[rows] & (top ^ mem[rows]))
    sweeps.append(SchemaSweep("and-weakening", "all triples (vanishing core)",
                              n ** 3, i_j is None))

    # empty-set: a single closed instance
    inst = TheoremInstance(CATALOG_BY_NAME["empty-set"], lattice, ())
    ok = evaluate_instance(inst) == top
    sweeps.append(SchemaSweep("empty-set", "single instance", 1, ok,
                              None if ok else inst.serialize()))

    # pairing over all pairs: [[x in {x,y}]] = [[x=x]] | [[y=x]] >= diag
    pair_ok = refl_ok
    sweeps.append(SchemaSweep("pairing", "all pairs (via reflexivity)", n * n,
                              pair_ok, None,
                              notes=["membership in the constructed pair contains [[x=x]]"]))

    # substitutivity (both directions) over all triples
    sub = fragment.substitutivity_failure()
    witness = None
    if sub is not None:
        kind, i, j, k = sub
        name = ("subst-membership-left" if kind != "membership-right"
                else "subst-membership-right")
        witness = TheoremInstance(CATALOG_BY_NAME[name], lattice,
                                  (members[i], members[j], members[k])).serialize()
    for name in ("subst-membership-left", "subst-membership-right"):
        sweeps.append(SchemaSweep(name, "all triples (plane method)", n ** 3,
                                  sub is None, witness))

    # generic-evaluator cross-check on sampled tuples for every schema
    session = EvalSession(lattice)
    mismatches = 0
    checked = 0
    for schema in THEOREM_SCHEMAS:
        for args in _sample_tuples(rng, members, schema.arity,
                                   max(1, cross_check // len(THEOREM_SCHEMAS))):
            inst = TheoremInstance(schema, lattice, args)
            value = evaluate_instance(inst, session)
            checked += 1
            if value != top:
                mismatches += 1
    sweeps.append(SchemaSweep("evaluator-cross-check", "sampled tuples", checked,
                              mismatches == 0,
                              notes=[f"{checked} random instances re-evaluated generically"]))

    # sensitivity control: the deliberate non-theorem must NOT come out at 1,
    # otherwise the sweep machinery is vacuous
    control = CATALOG_BY_NAME["control-distinct"]
    inst = TheoremInstance(control, lattice, tuple(numerals(lattice, 2)))
    report = check_scott_solovay(inst, session)
    control_ok = (report.verdict == "not-a-theorem-control"
                  and report.value == lattice.bottom())
    sweeps.append(SchemaSweep(control.name, "sensitivity control", 1, control_ok,
                              None if control_ok else inst.serialize(),
                              notes=["distinct check-sets evaluate to 0, "
                                     "verdict not-a-theorem-control"]))

    return SuiteReport("scott-solovay", lattice.describe(), sweeps)


def transfer_suite(members: Sequence[QSet], lattice: Lattice,
                   rng: Optional[random.Random] = None,
                   max_tuples_per_schema: Optional[int] = None) -> SuiteReport:
    """Transfer inequality [[phi(args)]] >= commutator(args) for every
    catalog theorem over all argument tuples from the member list.

    The members are checked before any tuple (each tuple's TheoremInstance
    checks its arguments again); the session compiles each schema once; each
    distinct argument set's commutator is taken once. A cap on the tuples
    per schema must be at least 1."""
    if max_tuples_per_schema is not None and max_tuples_per_schema < 1:
        raise ValueError(
            f"max_tuples_per_schema must be at least 1, got {max_tuples_per_schema}")
    rng = rng or random.Random(0)
    _check_arguments(members, lattice)
    session = EvalSession(lattice)
    # each member's hereditary values once; a tuple's family is their union
    hereditary = {m: hereditary_values((m,)) for m in members}
    commutators: dict = {}  # frozenset(args) -> commutator of their family
    sweeps = []
    for schema in THEOREM_SCHEMAS:
        count = len(members) ** schema.arity
        if max_tuples_per_schema is not None and count > max_tuples_per_schema:
            tuples = _sample_tuples(rng, members, schema.arity, max_tuples_per_schema)
            count, coverage = len(tuples), "sampled tuples"
        else:
            tuples = itertools.product(members, repeat=schema.arity)
            coverage = "all tuples"
        passed = True
        witness = None
        for args in tuples:
            inst = TheoremInstance(schema, lattice, args)
            value = evaluate_instance(inst, session)
            key = frozenset(args)
            com = commutators.get(key)
            if com is None:
                com = commutators[key] = lattice.commutator(
                    v for a in args for v in hereditary[a])
            if not lattice.leq(com, value):
                passed = False
                witness = inst.serialize()
                break
        sweeps.append(SchemaSweep(schema.name, coverage, count, passed, witness))

    return SuiteReport("transfer", lattice.describe(), sweeps)


def violation_demo_collection(lattice: ProjectionLattice, p: Projection,
                              q: Projection) -> list:
    """Five sets over two noncommuting projections that exhibit the
    substitutivity failure. With u the empty set, v = {0: p} and
    w = {{0: ~p}: p, {0: q}: ~q}: [[u=v]] = ~p, [[u in w]] = join(p, ~q),
    and for noncommuting rank-1 projections on a 2-dimensional space
    [[v in w]] = 0 while meet(~p, join(p, ~q)) = ~p, so the equality axiom
    fails. Run find_equality_axiom_violation over the collection to locate
    the witness."""
    if p.commutes_with(q):
        raise LatticeError("the demo collection needs noncommuting projections")
    e = empty_qset(lattice)
    s_p = make_qset(lattice, ((e, p),))
    s_pc = make_qset(lattice, ((e, p.complement()),))
    s_q = make_qset(lattice, ((e, q),))
    w = make_qset(lattice, ((s_pc, p), (s_q, q.complement())))
    return [e, s_p, s_pc, s_q, w]


# --------------------------------------- equality-axiom violation search

@dataclass
class ViolationWitness:
    """u = v plus a membership context that does not transfer across the
    equality: meet([[u=v]], [[phi(u)]]) is not below [[phi(v)]]."""

    kind: str  # membership-left: phi(x) = "x in w"; membership-right: "w in x"
    u: QSet
    v: QSet
    w: QSet
    equality: object
    phi_u: object
    phi_v: object
    lattice: Lattice

    def lhs(self):
        return self.lattice.meet(self.equality, self.phi_u)

    def to_json(self) -> dict:
        lat = self.lattice
        return {
            "kind": self.kind,
            "sets": qsets_to_json((self.u, self.v, self.w), lat),
            "equality": lat.element_to_json(self.equality),
            "phi_u": lat.element_to_json(self.phi_u),
            "phi_v": lat.element_to_json(self.phi_v),
            "lhs_meet": lat.element_to_json(self.lhs()),
        }

    def describe(self) -> str:
        lat = self.lattice
        return (f"{self.kind}: meet([[u=v]]={lat.element_repr(self.equality)}, "
                f"[[phi(u)]]={lat.element_repr(self.phi_u)}) is not below "
                f"[[phi(v)]]={lat.element_repr(self.phi_v)}")


def find_equality_axiom_violation(fragment) -> Optional[ViolationWitness]:
    """Search all triples for a substitutivity failure; None when equal sets
    are everywhere intersubstitutable (Boolean fragments, check-set
    collections)."""
    if isinstance(fragment, UniverseFragment):
        members, lattice = fragment.members, fragment.lattice
    else:
        members = list(fragment)
        if not members:
            return None
        lattice = members[0].lattice

    if isinstance(lattice, BooleanLattice) and isinstance(fragment, UniverseFragment):
        # all triples at once through the bit-plane tables
        tables = fragment.truth_tables()
        hit = fragment.substitutivity_failure()
        if hit is None:
            return None
        kind, i, j, k = hit
        if kind not in ("membership-left", "membership-right"):
            raise LatticeError(
                "equality plane is not an equivalence relation on a Boolean "
                f"fragment ({kind} fails at members {i}, {j}, {k}); this "
                "indicates a defect in the truth tables")
        e = int(tables.eq[i, j])
        if kind == "membership-left":
            return ViolationWitness(kind, members[i], members[j], members[k], e,
                                    int(tables.mem[i, k]), int(tables.mem[j, k]),
                                    lattice)
        return ViolationWitness(kind, members[i], members[j], members[k], e,
                                int(tables.mem[k, i]), int(tables.mem[k, j]),
                                lattice)

    session = EvalSession(lattice)
    n = len(members)
    eqs = [[session.truth_equality(u, v) for v in members] for u in members]
    mems = [[session.truth_membership(u, v) for v in members] for u in members]
    bottom = lattice.bottom()

    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            e = eqs[i][j]
            if e == bottom:
                continue  # meet with 0 is below everything
            for k in range(n):
                if not lattice.leq(lattice.meet(e, mems[i][k]), mems[j][k]):
                    return ViolationWitness("membership-left", members[i], members[j],
                                            members[k], e, mems[i][k], mems[j][k], lattice)
                if not lattice.leq(lattice.meet(e, mems[k][i]), mems[k][j]):
                    return ViolationWitness("membership-right", members[i], members[j],
                                            members[k], e, mems[k][i], mems[k][j], lattice)
    return None
