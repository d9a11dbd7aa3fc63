"""Theorem catalog, fragment-wide sweeps, transfer inequality, witnesses."""

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from lvset.exactnum import gq
from lvset.fragment_tables import ROW_TILE
from lvset.formula import parse
from lvset.lattice import BooleanLattice, LatticeError, ProjectionLattice
from lvset.projections import proj_from_span, zero_projection
from lvset.universe import (EvalSession, UniverseFragment, empty_qset,
                            enumerate_fragment, make_qset, truth_membership)
from lvset.verification import (CATALOG, CATALOG_BY_NAME, THEOREM_SCHEMAS,
                                TheoremInstance, check_scott_solovay,
                                check_transfer, find_equality_axiom_violation,
                                has_unbounded_quantifier, qset_commutator,
                                scott_solovay_suite, transfer_suite,
                                violation_demo_collection)


def dim2_lattice():
    lat = ProjectionLattice(2)
    p = proj_from_span([(gq(1), gq(0))], 2)
    q = proj_from_span([(gq(1), gq(1))], 2)
    return lat, p, q


def test_catalog_is_well_formed():
    assert len(CATALOG) == 10
    names = [s.name for s in CATALOG]
    assert len(set(names)) == len(names)
    controls = [s for s in CATALOG if s.is_control]
    assert len(controls) == 1
    assert len(THEOREM_SCHEMAS) == 9
    for schema in CATALOG:
        node = parse(schema.text)  # every schema text parses
        free = {f"x{i}" for i in range(1, schema.arity + 1)}
        from lvset.formula import free_variables
        seen = free_variables(node)
        if schema.build is None:
            assert seen == free
        else:
            assert seen - free == {"c1"}
        assert schema.description


def test_theorem_instances_evaluate_to_top_on_boolean():
    lat = BooleanLattice(2)
    frag = enumerate_fragment(lat, 2)
    members = list(frag)
    session = EvalSession(lat)
    rng = random.Random(41)
    for schema in THEOREM_SCHEMAS:
        for _ in range(6):
            args = tuple(rng.choice(members) for _ in range(schema.arity))
            inst = TheoremInstance(schema=schema, lattice=lat, args=args)
            report = check_scott_solovay(inst, session=session)
            assert report.verdict == "pass", (schema.name, report.notes)
            assert report.value == lat.top()


def test_control_schema_is_flagged_not_failed():
    lat = BooleanLattice(2)
    e = empty_qset(lat)
    s = make_qset(lat, [(e, lat.atom(0))])
    schema = CATALOG_BY_NAME["control-distinct"]
    inst = TheoremInstance(schema=schema, lattice=lat, args=(e, s))
    report = check_scott_solovay(inst)
    assert report.verdict == "not-a-theorem-control"
    assert report.passed()  # controls never fail the suite
    assert report.value != lat.top()


def test_scott_solovay_requires_boolean():
    lat, p, q = dim2_lattice()
    schema = CATALOG_BY_NAME["eq-reflexivity"]
    inst = TheoremInstance(schema=schema, lattice=lat, args=(empty_qset(lat),))
    report = check_scott_solovay(inst)
    assert report.verdict == "not-applicable"
    assert report.passed()


def test_has_unbounded_quantifier():
    assert has_unbounded_quantifier(parse("forall t . t = t"))
    assert has_unbounded_quantifier(parse("~exists t . ~t = t"))
    assert not has_unbounded_quantifier(parse("forall t in u . t = t"))
    assert not has_unbounded_quantifier(parse("x = y"))


def test_qset_commutator_boolean_is_top():
    lat = BooleanLattice(2)
    e = empty_qset(lat)
    s = make_qset(lat, [(e, lat.atom(0))])
    assert qset_commutator((e, s), lat) == lat.top()


def test_qset_commutator_walks_hereditary_values():
    lat, p, q = dim2_lattice()
    e = empty_qset(lat)
    sp = make_qset(lat, [(e, p)])
    # the noncommuting value q is buried one level down
    nested = make_qset(lat, [(sp, lat.top()), (make_qset(lat, [(e, q)]), lat.top())])
    assert qset_commutator((e,), lat) == lat.top()
    assert qset_commutator((sp,), lat) == lat.top()  # single value commutes with itself
    com = qset_commutator((nested,), lat)
    assert com == zero_projection(2)  # p and q generate a trivial commutator in dim 2


def test_qset_commutator_commuting_values_give_top():
    lat, p, q = dim2_lattice()
    e = empty_qset(lat)
    a = make_qset(lat, [(e, p)])
    b = make_qset(lat, [(e, lat.ortho(p)), (a, lat.top())])
    assert qset_commutator((a, b), lat) == lat.top()


def test_check_transfer_honors_commutator_bound():
    lat, p, q = dim2_lattice()
    session = EvalSession(lat)
    schema = CATALOG_BY_NAME["eq-reflexivity"]
    e = empty_qset(lat)
    noisy = make_qset(lat, [(make_qset(lat, [(e, p)]), lat.top()),
                            (make_qset(lat, [(e, q)]), lat.top())])
    inst = TheoremInstance(schema=schema, lattice=lat, args=(noisy,))
    report = check_transfer(inst, session=session)
    assert report.verdict == "pass"
    assert lat.leq(report.commutator, report.value)


def test_check_transfer_skips_unbounded_quantifiers():
    lat, p, q = dim2_lattice()
    from lvset.verification import Schema
    schema = Schema(name="adhoc-unbounded", arity=1, text="forall t . t = t",
                    description="unbounded, outside the transfer scope",
                    always_one=True)
    inst = TheoremInstance(schema=schema, lattice=lat, args=(empty_qset(lat),))
    report = check_transfer(inst)
    assert report.verdict == "not-applicable"
    assert report.passed()


def test_scott_solovay_suite_over_small_fragment():
    lat = BooleanLattice(1)
    frag = enumerate_fragment(lat, 3)  # 27 members
    suite = scott_solovay_suite(frag, cross_check=40, rng=random.Random(42))
    assert suite.passed()
    by_name = {sweep.schema: sweep for sweep in suite.sweeps}
    # every catalog schema appears, plus the generic-evaluator cross-check
    assert set(by_name) >= {s.name for s in CATALOG}
    n = len(frag)
    assert by_name["eq-reflexivity"].instances == n
    assert by_name["eq-symmetry"].instances == n * n
    assert by_name["eq-transitivity"].instances == n ** 3
    for sweep in suite.sweeps:
        assert sweep.passed, sweep.schema
        assert sweep.witness is None
    assert by_name["control-distinct"].coverage == "sensitivity control"
    text = suite.render()
    assert "control" in text
    doc = suite.to_json()
    assert doc["passed"] is True


def test_transfer_suite_over_projection_fragment():
    lat, p, q = dim2_lattice()
    values = [lat.bottom(), p, lat.ortho(p), q, lat.ortho(q), lat.top()]
    frag = enumerate_fragment(lat, 2, values=values)
    members = list(frag)
    suite = transfer_suite(members, lat, rng=random.Random(43),
                           max_tuples_per_schema=300)
    assert suite.passed()
    for sweep in suite.sweeps:
        assert sweep.passed and sweep.witness is None
        assert sweep.instances >= 1


def test_transfer_suite_walks_each_member_once(monkeypatch):
    import lvset.verification as vf
    lat, p, q = dim2_lattice()
    members = violation_demo_collection(lat, p, q)
    walks = []
    real_walk = vf.hereditary_values

    def counted(args):
        args = tuple(args)
        walks.append(args)
        return real_walk(args)

    monkeypatch.setattr(vf, "hereditary_values", counted)
    suite = transfer_suite(members, lat)
    assert walks == [(m,) for m in members]
    # each verdict still compares with the commutator of the whole tuple
    monkeypatch.undo()
    assert suite.to_json() == _transfer_suite_per_tuple(members, lat).to_json()


def test_sampled_transfer_suite_builds_only_its_sample():
    import tracemalloc
    from lvset.generators import random_qset_pool
    lat, p, q = dim2_lattice()
    members = random_qset_pool(random.Random(5), lat,
                               [lat.bottom(), p, q, lat.top()], 80)
    tracemalloc.start()
    try:
        suite = transfer_suite(members, lat, rng=random.Random(1),
                               max_tuples_per_schema=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all 80³ triples as a list would take tens of MB
    assert peak < 4_000_000
    assert suite.passed()
    for schema, sweep in zip(THEOREM_SCHEMAS, suite.sweeps):
        if schema.arity == 0:
            assert (sweep.coverage, sweep.instances) == ("all tuples", 1)
        else:
            assert (sweep.coverage, sweep.instances) == ("sampled tuples", 10)


def test_transfer_suite_witnesses_match_the_per_tuple_run(monkeypatch):
    # with every commutator forced to 1, each schema that is not 1 on every
    # tuple fails; the suite must stop at the same first tuple as the oracle
    lat, p, q = dim2_lattice()
    members = violation_demo_collection(lat, p, q)
    monkeypatch.setattr(lat, "commutator", lambda values: lat.top())
    suite = transfer_suite(members, lat)
    assert not suite.passed()
    assert any(s.witness is not None for s in suite.sweeps)
    assert suite.to_json() == _transfer_suite_per_tuple(members, lat).to_json()


@pytest.mark.parametrize("max_tuples", [0, -3])
def test_transfer_suite_refuses_a_sample_below_one(monkeypatch, max_tuples):
    # a cap below 1 would check no tuple and pass every schema vacuously
    import lvset.verification as vf
    lat, p, q = dim2_lattice()
    members = violation_demo_collection(lat, p, q)
    evaluated = []
    monkeypatch.setattr(vf, "evaluate_instance",
                        lambda inst, session=None: evaluated.append(inst))
    with pytest.raises(ValueError, match="at least 1"):
        transfer_suite(members, lat, max_tuples_per_schema=max_tuples)
    assert evaluated == []


def test_pairing_builds_a_singleton_for_equal_arguments():
    lat, p, q = dim2_lattice()
    x, y = violation_demo_collection(lat, p, q)[1:3]
    schema = CATALOG_BY_NAME["pairing"]
    same = TheoremInstance(schema, lat, (x, x))
    assert same.bindings()["c1"].entries == ((x, lat.top()),)
    assert len(TheoremInstance(schema, lat, (x, y)).bindings()["c1"].entries) == 2
    # x1 in c1 & x2 in c1 stays 1 on the singleton
    from lvset.verification import evaluate_instance
    assert evaluate_instance(same) == lat.top()


@pytest.mark.parametrize("max_tuples", [None, 1])
@pytest.mark.parametrize("bad", ["not a qset", "other lattice"])
def test_transfer_suite_checks_its_members_before_any_tuple(monkeypatch, max_tuples, bad):
    import lvset.verification as vf
    lat, p, q = dim2_lattice()
    members = violation_demo_collection(lat, p, q)
    members.append(bad if bad == "not a qset" else empty_qset(ProjectionLattice(3)))
    evaluated = []
    real_evaluate = vf.evaluate_instance
    monkeypatch.setattr(vf, "evaluate_instance",
                        lambda inst, session=None: evaluated.append(inst)
                        or real_evaluate(inst, session))
    with pytest.raises(LatticeError, match="QSets of the instance lattice"):
        # with one sampled tuple per schema the bad member is rarely drawn
        transfer_suite(members, lat, rng=random.Random(0), max_tuples_per_schema=max_tuples)
    assert evaluated == []


def test_evaluate_instance_compiles_each_schema_once_per_session(monkeypatch):
    import lvset.verification as vf
    lat, p, q = dim2_lattice()
    members = violation_demo_collection(lat, p, q)
    compiled = []
    real_compile = vf.compile_core
    monkeypatch.setattr(vf, "compile_core",
                        lambda core, free, env: compiled.append(core)
                        or real_compile(core, free, env))
    transfer_suite(members, lat)
    assert compiled == [schema.core for schema in THEOREM_SCHEMAS]
    # a session is refused for an instance of another lattice, also when it
    # has compiled the schema already
    blat = BooleanLattice(1)
    session = EvalSession(blat)
    schema = CATALOG_BY_NAME["eq-reflexivity"]
    boolean_inst = TheoremInstance(schema, blat, (empty_qset(blat),))
    assert vf.evaluate_instance(boolean_inst, session) == blat.top()
    with pytest.raises(LatticeError, match="different lattice"):
        vf.evaluate_instance(TheoremInstance(schema, lat, (members[0],)), session)


def test_sessions_are_freed_after_their_compiled_schemas():
    # the closures a session keeps hold its methods; nothing outside the
    # session may keep them, or every session of a suite would stay alive
    import gc
    import weakref

    import lvset.verification as vf
    lat, p, q = dim2_lattice()
    members = violation_demo_collection(lat, p, q)
    session = EvalSession(lat)
    schema = CATALOG_BY_NAME["eq-reflexivity"]
    assert vf.evaluate_instance(TheoremInstance(schema, lat, (members[1],)), session) == lat.top()
    assert session.programs
    alive = weakref.ref(session)
    del session
    gc.collect()
    assert alive() is None


def _transfer_suite_per_tuple(members, lat):
    """transfer_suite with qset_commutator taken per tuple, as an oracle."""
    import itertools
    from lvset.verification import SchemaSweep, SuiteReport, evaluate_instance
    session = EvalSession(lat)
    sweeps = []
    for schema in THEOREM_SCHEMAS:
        tuples = list(itertools.product(members, repeat=schema.arity))
        witness = None
        for args in tuples:
            inst = TheoremInstance(schema, lat, args)
            if not lat.leq(qset_commutator(args, lat), evaluate_instance(inst, session)):
                witness = inst.serialize()
                break
        sweeps.append(SchemaSweep(schema.name, "all tuples", len(tuples), witness is None,
                                  witness))
    return SuiteReport("transfer", lat.describe(), sweeps)


def test_violation_demo_collection_produces_witness():
    lat, p, q = dim2_lattice()
    members = violation_demo_collection(lat, p, q)
    assert len(members) == 5
    witness = find_equality_axiom_violation(members)
    assert witness is not None
    assert witness.kind.startswith("membership")
    # the witness is a genuine failure: meet([[u=v]], [[phi(u)]]) not below [[phi(v)]]
    assert not lat.leq(witness.lhs(), witness.phi_v)
    # and it is reproducible from scratch with a fresh session
    session = EvalSession(lat)
    eq = session.truth_equality(witness.u, witness.v)
    if witness.kind == "membership-left":
        phi_u = session.truth_membership(witness.u, witness.w)
        phi_v = session.truth_membership(witness.v, witness.w)
    else:
        phi_u = session.truth_membership(witness.w, witness.u)
        phi_v = session.truth_membership(witness.w, witness.v)
    assert not lat.leq(lat.meet(eq, phi_u), phi_v)
    text = witness.describe()
    assert "u" in text and "w" in text
    doc = witness.to_json()
    assert doc["kind"] == witness.kind


def test_violation_demo_collection_rejects_commuting_pair():
    lat, p, q = dim2_lattice()
    with pytest.raises(LatticeError):
        violation_demo_collection(lat, p, lat.ortho(p))


def test_no_equality_axiom_violation_on_boolean_fragment():
    lat = BooleanLattice(1)
    frag = enumerate_fragment(lat, 3)
    assert find_equality_axiom_violation(frag) is None


def test_equality_axiom_violation_values_hand_checked():
    # frozen demo: u = empty, v = {empty: p}, w = {{empty: p'}: p, {empty: q}: q'}
    lat, p, q = dim2_lattice()
    members = violation_demo_collection(lat, p, q)
    session = EvalSession(lat)
    u = members[0]
    v = next(m for m in members[1:]
             if len(m.entries) == 1 and m.entries[0][1] == p
             and m.entries[0][0].is_empty())
    w = members[-1]
    assert session.truth_equality(u, v) == lat.ortho(p)
    assert session.truth_membership(u, w) == lat.top()
    assert session.truth_membership(v, w) == lat.bottom()


def test_fragment_builds_truth_tables_once(monkeypatch):
    from lvset import fragment_tables as ft
    calls = []
    real_build = ft.boolean_truth_tables

    def counted(fragment):
        calls.append(fragment)
        return real_build(fragment)

    monkeypatch.setattr(ft, "boolean_truth_tables", counted)
    frag = enumerate_fragment(BooleanLattice(1), 3)
    assert scott_solovay_suite(frag, cross_check=20).passed()
    assert find_equality_axiom_violation(frag) is None
    assert calls == [frag]
    tables = frag.truth_tables()
    assert tables is frag.truth_tables()
    for table in (tables.fwd, tables.mem, tables.eq):
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_fragment_checks_substitutivity_once(monkeypatch):
    from lvset import fragment_tables as ft
    calls = []
    real_check = ft.check_substitutivity_everywhere

    def counted(tables):
        calls.append(tables)
        return real_check(tables)

    monkeypatch.setattr(ft, "check_substitutivity_everywhere", counted)
    frag = enumerate_fragment(BooleanLattice(1), 3)
    assert scott_solovay_suite(frag, cross_check=20).passed()
    assert find_equality_axiom_violation(frag) is None
    assert len(calls) == 1 and calls[0] is frag.truth_tables()


def test_fragment_cuts_each_equality_plane_once(monkeypatch):
    from lvset import fragment_tables as ft
    calls = []
    real_labels = ft.equivalence_labels

    def counted(table, atom=0):
        calls.append((table, atom))
        return real_labels(table, atom)

    monkeypatch.setattr(ft, "equivalence_labels", counted)
    frag = enumerate_fragment(BooleanLattice(2), 2)
    assert scott_solovay_suite(frag, cross_check=20).passed()
    assert find_equality_axiom_violation(frag) is None
    tables = frag.truth_tables()
    assert [(t is tables.eq, atom) for t, atom in calls] == [(True, 0), (True, 1)]


@pytest.mark.parametrize("cross_check", [0, -9])
def test_scott_solovay_refuses_a_cross_check_below_one(monkeypatch, cross_check):
    from lvset import fragment_tables as ft

    def no_tables(fragment):
        raise AssertionError("tables built before the refusal")

    monkeypatch.setattr(ft, "boolean_truth_tables", no_tables)
    frag = enumerate_fragment(BooleanLattice(1), 2)
    with pytest.raises(ValueError, match="cross_check must be at least 1"):
        scott_solovay_suite(frag, cross_check=cross_check)


def test_scott_solovay_default_cross_check_is_180():
    frag = enumerate_fragment(BooleanLattice(1), 2)
    by_name = {s.schema: s for s in scott_solovay_suite(frag).sweeps}
    assert by_name["evaluator-cross-check"].instances == 180


# ------------------------------------------------- sweeps past the first row tile

@pytest.fixture(scope="module")
def b2_rank3():
    return enumerate_fragment(BooleanLattice(2), 3)  # 3125 members


def tile_row(n, where):
    """A row inside a middle row tile, or inside the last, partial one."""
    last = n // ROW_TILE * ROW_TILE
    assert 0 < n - last < ROW_TILE and last >= 3 * ROW_TILE
    start = last if where == "last" else n // ROW_TILE // 2 * ROW_TILE
    return start + min(ROW_TILE, n - start) // 2


def suite_witness(fragment, tables, schema):
    """The suite's witness for one schema when it reads the given tables,
    on a fresh fragment so that no memo of the shared one changes."""
    fresh = UniverseFragment(fragment.lattice, fragment.members)
    fresh.truth_tables = lambda: tables
    sweeps = {s.schema: s for s in scott_solovay_suite(fresh, cross_check=9).sweeps}
    return sweeps[schema].witness


def pair_witness(fragment, schema, mask):
    """The witness of the first nonzero entry of a whole-array mask."""
    i, j = (int(x) for x in np.argwhere(mask)[0])
    return (i, j), TheoremInstance(CATALOG_BY_NAME[schema], fragment.lattice,
                                   (fragment.members[i], fragment.members[j])).serialize()


@pytest.mark.parametrize("where", ["middle", "last"])
def test_eq_symmetry_witness_past_first_tile(b2_rank3, where):
    tables = b2_rank3.truth_tables()
    eq = tables.eq.copy()
    i = tile_row(len(eq), where)
    j = int(np.argmax(eq[i] == 0))  # unequal on both planes
    eq[i, j] |= 1  # now [[u=v]] has a bit that [[v=u]] lacks, at (i, j) only
    where_bad, expected = pair_witness(b2_rank3, "eq-symmetry", eq & (tables.top ^ eq.T))
    assert where_bad == (i, j)
    assert suite_witness(b2_rank3, dataclasses.replace(tables, eq=eq), "eq-symmetry") == expected


@pytest.mark.parametrize("where", ["middle", "last"])
def test_extensionality_witness_past_first_tile(b2_rank3, where):
    tables = b2_rank3.truth_tables()
    eq = tables.eq.copy()
    i = tile_row(len(eq), where)
    j = next(j for j in range(len(eq)) if j != i and eq[i, j] & 1)
    eq[i, j] &= ~np.uint8(1)  # both inclusions still hold on plane 0
    fwd = tables.fwd
    where_bad, expected = pair_witness(b2_rank3, "extensionality",
                                       fwd & fwd.T & (tables.top ^ eq))
    assert where_bad == (i, j)
    assert suite_witness(b2_rank3, dataclasses.replace(tables, eq=eq), "extensionality") == expected


def test_value_one_suite_memory_stays_near_the_tables(b2_rank3):
    # FWD, MEM and EQ take 3·n² bytes; every other array the suite and the
    # violation search make, the table build included, is one row tile
    fragment = UniverseFragment(b2_rank3.lattice, b2_rank3.members)  # no tables yet
    n = len(fragment)
    tracemalloc.start()
    try:
        assert scott_solovay_suite(fragment).passed()
        assert find_equality_axiom_violation(fragment) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n + 8 * 2 ** 20
