"""Acceptance suite: one test per shipped-behavior criterion.

Each test prints a single pass/fail line (visible with -s or on failure)
and enforces the stated runtime budget where one exists. Tolerances are
zero everywhere: all arithmetic in these paths is exact.
"""

import itertools
import random
import time
from fractions import Fraction

from lvset import fragment_tables as ft
from lvset import verification as vf
from lvset.exactnum import GQ, gq
from lvset.formula import (And, Environment, Eq, Exists, ExistsIn, Forall,
                           ForallIn, Implies, In, Not, Or, Var, eval_formula)
from lvset.generators import (random_commuting_pair, random_projection,
                              random_qset_pool, random_spectral_data,
                              random_state_vector)
from lvset.lattice import BooleanLattice, ProjectionLattice, verify_laws
from lvset.projections import (Projection, SpectralData,
                               commutator_pair_closed_form,
                               identity_projection, lattice_commutator,
                               proj_from_span, subspace_join, subspace_meet,
                               zero_projection)
from lvset.qreals import (StateVector, born_probability,
                          classical_equal_value_probability, prob_equal,
                          qreal_from_spectral, real_predicate_truth,
                          truth_eq, truth_leq)
from lvset.universe import (EvalSession, check_embed, empty_qset,
                            enumerate_fragment, make_qset)


def _report(num: int, ok: bool, elapsed: float, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}"
    print(line)
    assert ok, line


def _dim2_pq():
    p = proj_from_span([(gq(1), gq(0))], 2)
    q = proj_from_span([(gq(1), gq(1))], 2)
    return p, q


def test_criterion_1_distributivity_counterexample():
    # two incompatible yes/no questions in dim 2: conjoining the certainties
    # gives 1, distributing into the four joint cases gives 0
    start = time.monotonic()
    p, q = _dim2_pq()
    pc, qc = p.complement(), q.complement()
    # no common eigenvectors: every mixed meet is the zero subspace
    for a in (p, pc):
        for b in (q, qc):
            assert subspace_meet(a, b) == zero_projection(2)
    lhs = subspace_meet(subspace_join(p, pc), subspace_join(q, qc))
    assert lhs == identity_projection(2)
    rhs = zero_projection(2)
    for a in (p, pc):
        for b in (q, qc):
            rhs = subspace_join(rhs, subspace_meet(a, b))
    assert rhs == zero_projection(2)
    elapsed = time.monotonic() - start
    _report(1, lhs == identity_projection(2) and rhs == zero_projection(2)
            and elapsed < 1.0, elapsed,
            "meet of certainties = 1, distributed four-term join = 0")


def test_criterion_2_lattice_law_suite():
    start = time.monotonic()
    # full enumeration of every Boolean algebra up to 2^8 elements
    for atoms in range(1, 9):
        report = verify_laws(BooleanLattice(atoms))
        size = 2 ** atoms
        assert report.ortholattice_ok() and report.orthomodular
        assert report.distributive
        assert report.pairs_checked == size * size
        assert report.triples_checked == size ** 3

    # random exact projection pairs in dims 2..4, zero tolerance
    random_pairs = 0
    violation_seen = False
    rng = random.Random(2024)
    for dim in (2, 3, 4):
        lat = ProjectionLattice(dim)
        sample = [lat.bottom(), lat.top()]
        sample += [random_projection(rng, dim) for _ in range(19)]
        report = verify_laws(lat, sample=sample, max_triples=60)
        assert report.ortholattice_ok(), report.render()
        assert report.orthomodular, report.render()
        assert not report.distributive
        assert report.distributivity_witness is not None
        violation_seen = True
        random_pairs += 19 * 19  # ordered pairs of the random sample members
    elapsed = time.monotonic() - start
    _report(2, random_pairs >= 1000 and violation_seen and elapsed < 30.0,
            elapsed,
            f"boolean algebras to 2^8 fully enumerated, "
            f"{random_pairs} random projection pairs, violation witnessed")


def test_criterion_3_value_one_over_full_fragment():
    # every catalog schema over every argument tuple of the full rank-3
    # fragment of the 4-element Boolean algebra
    start = time.monotonic()
    lat = BooleanLattice(2)
    fragment = enumerate_fragment(lat, 3)
    assert len(fragment) == 3125
    suite = vf.scott_solovay_suite(fragment, cross_check=180,
                                   rng=random.Random(3))
    ok = suite.passed()
    n = len(fragment)
    by_name = {s.schema: s for s in suite.sweeps}
    assert by_name["eq-reflexivity"].instances == n
    assert by_name["eq-symmetry"].instances == n * n
    assert by_name["eq-transitivity"].instances == n ** 3
    assert by_name["subst-membership-left"].instances == n ** 3
    assert by_name["control-distinct"].passed  # sensitivity control holds
    elapsed = time.monotonic() - start
    _report(3, ok and elapsed < 300.0, elapsed,
            f"all catalog schemas at value 1 over {n} members "
            f"({by_name['eq-transitivity'].instances} triples via plane reduction)")


def test_criterion_4_transfer_inequality():
    start = time.monotonic()
    lat = ProjectionLattice(2)
    p, q = _dim2_pq()
    values = [lat.bottom(), p, lat.ortho(p), q, lat.ortho(q), lat.top()]

    # every argument tuple from the rank-2 fragment over the curated values
    fragment = enumerate_fragment(lat, 2, values=values)
    suite = vf.transfer_suite(fragment.members, lat)
    assert suite.passed(), suite.render()
    exhaustive = sum(s.instances for s in suite.sweeps)
    assert all(s.coverage == "all tuples" for s in suite.sweeps)

    # randomized instances over a deeper pool with an extra skew projection
    r = proj_from_span([(gq(1), GQ(Fraction(0), Fraction(1)))], 2)
    pool_values = values + [r, lat.ortho(r)]
    rng = random.Random(4)
    pool = random_qset_pool(rng, lat, pool_values, 40)
    session = EvalSession(lat)
    schemas = itertools.cycle(vf.THEOREM_SCHEMAS)
    randomized = 0
    violations = 0
    while randomized < 500:
        schema = next(schemas)
        args = tuple(rng.choice(pool) for _ in range(schema.arity))
        inst = vf.TheoremInstance(schema, lat, args)
        report = vf.check_transfer(inst, session=session)
        if report.verdict == "fail":
            violations += 1
        randomized += 1
    elapsed = time.monotonic() - start
    _report(4, violations == 0 and elapsed < 300.0, elapsed,
            f"{exhaustive} exhaustive tuples + {randomized} randomized "
            f"instances, zero violations")


def test_criterion_5_equality_behavior():
    start = time.monotonic()
    # reflexivity and symmetry on every enumerated QSet, both lattice kinds
    lat = BooleanLattice(2)
    fragment = enumerate_fragment(lat, 3)
    tables = ft.boolean_truth_tables(fragment)
    import numpy as np
    assert bool((np.diag(tables.eq) == lat.top()).all())
    assert bool((tables.eq == tables.eq.T).all())

    plat = ProjectionLattice(2)
    p, q = _dim2_pq()
    pfrag = enumerate_fragment(plat, 2,
                               values=[plat.bottom(), p, plat.ortho(p),
                                       q, plat.ortho(q), plat.top()])
    session = EvalSession(plat)
    for u in pfrag:
        assert session.truth_equality(u, u) == plat.top()
    members = list(pfrag)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            assert session.truth_equality(u, v) == session.truth_equality(v, u)

    # a substitutivity violation exists in the projection kind
    demo = vf.violation_demo_collection(plat, p, q)
    witness = vf.find_equality_axiom_violation(demo)
    assert witness is not None
    assert not plat.leq(witness.lhs(), witness.phi_v)

    # and none exists in the Boolean kind
    boolean_witness = vf.find_equality_axiom_violation(fragment)
    assert boolean_witness is None
    elapsed = time.monotonic() - start
    _report(5, witness is not None and boolean_witness is None
            and elapsed < 120.0, elapsed,
            f"projection witness kind={witness.kind}, "
            f"boolean fragment of {len(fragment)} clean")


# ---------------------------------------------------------- criterion 6

def _classical_eval(node, env, universe):
    if isinstance(node, Eq):
        return env[node.left.name] == env[node.right.name]
    if isinstance(node, In):
        return env[node.left.name] in env[node.right.name]
    if isinstance(node, Not):
        return not _classical_eval(node.body, env, universe)
    if isinstance(node, And):
        return (_classical_eval(node.left, env, universe)
                and _classical_eval(node.right, env, universe))
    if isinstance(node, Or):
        return (_classical_eval(node.left, env, universe)
                or _classical_eval(node.right, env, universe))
    if isinstance(node, Implies):
        return (not _classical_eval(node.left, env, universe)
                or _classical_eval(node.right, env, universe))
    if isinstance(node, ForallIn):
        return all(_classical_eval(node.body, {**env, node.var: m}, universe)
                   for m in env[node.bound.name])
    if isinstance(node, ExistsIn):
        return any(_classical_eval(node.body, {**env, node.var: m}, universe)
                   for m in env[node.bound.name])
    if isinstance(node, Forall):
        return all(_classical_eval(node.body, {**env, node.var: m}, universe)
                   for m in universe)
    if isinstance(node, Exists):
        return any(_classical_eval(node.body, {**env, node.var: m}, universe)
                   for m in universe)
    raise TypeError(f"unexpected node {type(node).__name__}")


def _atoms_over(names):
    out = []
    for a in names:
        for b in names:
            out.append(Eq(Var(a), Var(b)))
            out.append(In(Var(a), Var(b)))
    return out


def _depth1_bounded(names, var):
    """All depth-1 formulas over the names: connectives on atoms plus
    bounded quantifiers with depth-0 bodies over names + var."""
    atoms = _atoms_over(names)
    inner = _atoms_over(list(names) + [var])
    out = list()
    out.extend(Not(f) for f in atoms)
    for f in atoms:
        for g in atoms:
            out.append(And(f, g))
            out.append(Or(f, g))
            out.append(Implies(f, g))
    for bound in names:
        for body in inner:
            out.append(ForallIn(var, Var(bound), body))
            out.append(ExistsIn(var, Var(bound), body))
    return out


def _random_formula(rng, names, depth, allow_unbounded=True):
    if depth == 0 or rng.random() < 0.25:
        a, b = rng.choice(names), rng.choice(names)
        return rng.choice([Eq(Var(a), Var(b)), In(Var(a), Var(b))])
    kind = rng.randrange(8 if allow_unbounded else 6)
    if kind == 0:
        return Not(_random_formula(rng, names, depth - 1, allow_unbounded))
    if kind in (1, 2, 3):
        cls = (And, Or, Implies)[kind - 1]
        return cls(_random_formula(rng, names, depth - 1, allow_unbounded),
                   _random_formula(rng, names, depth - 1, allow_unbounded))
    var = f"z{depth}"
    body = _random_formula(rng, list(names) + [var], depth - 1, allow_unbounded)
    if kind == 4:
        return ForallIn(var, Var(rng.choice(names)), body)
    if kind == 5:
        return ExistsIn(var, Var(rng.choice(names)), body)
    if kind == 6:
        return Forall(var, body)
    return Exists(var, body)


def test_criterion_6_two_valued_degeneration():
    # over the two-element algebra the evaluator must agree exactly with
    # a classical oracle: exhaustively to depth 2 over a two-constant atom
    # basis, and on a seeded sample of depth <= 4 formulas over all four
    # rank <= 3 check-sets, unbounded quantifiers included
    start = time.monotonic()
    lat = BooleanLattice(1)
    fragment = enumerate_fragment(lat, 3)
    session = EvalSession(lat)

    e = frozenset()
    one = frozenset([e])
    two_a = frozenset([one])
    two_b = frozenset([e, one])
    classical_sets = {"c0": e, "c1": one, "c2": two_a, "c3": two_b}
    check_sets = {name: check_embed(_as_nested(s), lat)
                  for name, s in classical_sets.items()}
    universe = [e, one, two_a, two_b]

    def agree(node, names):
        bindings = {n: check_sets[n] for n in names}
        env = Environment(lat, bindings=bindings, fragment=fragment,
                          session=session)
        value = eval_formula(node, env)
        truth = _classical_eval(node, {n: classical_sets[n] for n in names},
                                universe)
        return (value == lat.top()) == truth

    # exhaustive sweep to depth 2 over constants c0, c1
    names2 = ["c0", "c1"]
    atoms = _atoms_over(names2)
    depth1 = _depth1_bounded(names2, "z1")
    pool01 = atoms + depth1
    checked = 0
    for f in pool01:
        assert agree(f, names2), f
        checked += 1
    for f in depth1:
        assert agree(Not(f), names2), f
        checked += 1
    inner1 = _depth1_bounded(names2 + ["z1"], "z2")
    for bound in names2:
        for body in inner1:
            assert agree(ForallIn("z1", Var(bound), body), names2)
            assert agree(ExistsIn("z1", Var(bound), body), names2)
            checked += 2
    for f in pool01:
        for g in pool01:
            if isinstance(f, (Eq, In)) and isinstance(g, (Eq, In)):
                continue  # depth 1, already covered
            assert agree(And(f, g), names2)
            assert agree(Or(f, g), names2)
            assert agree(Implies(f, g), names2)
            checked += 3

    # seeded random formulas to depth 4 over all four check-sets
    names4 = ["c0", "c1", "c2", "c3"]
    rng = random.Random(6)
    sampled = 0
    while sampled < 400:
        node = _random_formula(rng, names4, rng.randint(1, 4))
        assert agree(node, names4), node
        sampled += 1
    elapsed = time.monotonic() - start
    _report(6, True, elapsed,
            f"{checked} exhaustive formulas to depth 2, "
            f"{sampled} sampled to depth 4, exact agreement")


def _as_nested(fs):
    return [_as_nested(m) for m in sorted(fs, key=lambda s: (len(s), repr(s)))]


def test_criterion_7_real_predicate_on_random_observables():
    start = time.monotonic()
    rng = random.Random(7)
    checked = 0
    for dim in (2, 3, 4):
        for _ in range(34):
            sd = random_spectral_data(rng, dim)
            q = qreal_from_spectral(sd, sd.eigenvalues())
            lat = q.lattice
            assert real_predicate_truth(q) == lat.top()
            refined = q.refined([Fraction(-100), Fraction(1, 7)])
            assert real_predicate_truth(refined) == lat.top()
            # refinement moves no truth value
            assert truth_eq(q, refined) == lat.top()
            assert truth_leq(q, refined) == lat.top()
            for g in q.grid:
                assert refined.cut(g) == q.cut(g)
            checked += 1
    elapsed = time.monotonic() - start
    _report(7, checked >= 100, elapsed,
            f"R(x) = 1 for {checked} random observables, refinement inert")


def test_criterion_8_born_rule_and_equality_probability():
    start = time.monotonic()
    rng = random.Random(8)
    # spectral probabilities sum to exactly 1
    summed = 0
    for dim in (2, 3, 4):
        for _ in range(34):
            sd = random_spectral_data(rng, dim)
            state = StateVector(random_state_vector(rng, dim))
            total = sum(born_probability(p, state) for _, p in sd.eigen)
            assert total == Fraction(1)
            summed += 1

    # prob_equal against the classical joint-distribution oracle
    compared = 0
    for dim in (2, 3, 4):
        for _ in range(20):
            a = random_spectral_data(rng, dim)
            basis = [p for _, p in a.eigen]
            values = set()
            while len(values) < len(basis):
                values.add(Fraction(rng.randint(-9, 9)))
            b = SpectralData(dim=dim, eigen=tuple(
                (v, p) for v, p in zip(sorted(values), basis)))
            state = StateVector(random_state_vector(rng, dim))
            got = prob_equal(a, b, state)
            want = classical_equal_value_probability(a, b, state)
            assert not got.model_dependent
            assert got.value == want
            compared += 1

    # the worked commuting example: both observables diagonal, sharing the
    # value 1 on the first axis; the balanced state gives exactly 1/2
    def diag(vals):
        eigen = []
        for i, v in enumerate(vals):
            vec = [gq(0)] * len(vals)
            vec[i] = gq(1)
            eigen.append((Fraction(v), proj_from_span([tuple(vec)], len(vals))))
        return SpectralData(dim=len(vals), eigen=tuple(eigen))

    result = prob_equal(diag([1, 2]), diag([1, 3]), StateVector([gq(1), gq(1)]))
    assert result.value == Fraction(1, 2)
    assert result.exact and not result.model_dependent
    elapsed = time.monotonic() - start
    _report(8, summed >= 100 and compared >= 50, elapsed,
            f"{summed} spectral sums exactly 1, {compared} commuting pairs "
            f"match the oracle, worked example = 1/2")


def test_criterion_9_commutator_correctness():
    start = time.monotonic()
    rng = random.Random(9)
    # the join of sign meets equals the four-term closed form on random pairs
    pairs = 0
    for dim in (2, 3, 4):
        for _ in range(34):
            p = random_projection(rng, dim)
            q = random_projection(rng, dim)
            assert lattice_commutator([p, q]) == commutator_pair_closed_form(p, q)
            pairs += 1

    # identity on commuting families, including larger ones
    for dim in (2, 3, 4):
        for _ in range(8):
            p, q = random_commuting_pair(rng, dim)
            assert lattice_commutator([p, q]) == identity_projection(dim)
        base, other = random_commuting_pair(rng, dim)
        family = [base, other, subspace_meet(base, other),
                  subspace_join(base, other), base.complement()]
        assert lattice_commutator(family) == identity_projection(dim)

    # dim-4 mixed example: noncommuting pair on the first block, commuting
    # on the second; the commutator is exactly the second-block projection
    p2, q2 = _dim2_pq()
    zero = gq(0)
    rows_p = [[zero] * 4 for _ in range(4)]
    rows_q = [[zero] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            rows_p[i][j] = p2.matrix[i][j]
            rows_q[i][j] = q2.matrix[i][j]
            rows_p[2 + i][2 + j] = p2.matrix[i][j]
            rows_q[2 + i][2 + j] = p2.matrix[i][j]
    p4 = Projection(tuple(tuple(r) for r in rows_p))
    q4 = Projection(tuple(tuple(r) for r in rows_q))
    expected = proj_from_span([(zero, zero, gq(1), zero),
                               (zero, zero, zero, gq(1))], 4)
    got = lattice_commutator([p4, q4])
    assert got == expected
    assert got == commutator_pair_closed_form(p4, q4)
    elapsed = time.monotonic() - start
    _report(9, pairs >= 100, elapsed,
            f"sign-meet join equal to the closed form on {pairs} pairs, "
            f"commuting families at identity, dim-4 block example exact")
