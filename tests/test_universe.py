"""Lattice-valued sets: construction, enumeration, truth values, JSON."""

import random
from fractions import Fraction

import pytest

from lvset.exactnum import gq
from lvset.formula import Environment, eval_formula, parse
from lvset.lattice import BooleanLattice, LatticeError, ProjectionLattice
from lvset.projections import proj_from_span
from lvset.universe import (EvalSession, QSet, UniverseFragment, check_embed,
                            empty_qset, enumerate_fragment,
                            fragment_from_json, fragment_to_json, make_qset,
                            numerals, predicted_fragment_size, qsets_from_json,
                            qsets_to_json, truth_equality, truth_membership)

TWO = BooleanLattice(1)
FOUR = BooleanLattice(2)


def dim2_pq():
    lat = ProjectionLattice(2)
    p = proj_from_span([(gq(1), gq(0))], 2)
    q = proj_from_span([(gq(1), gq(1))], 2)
    return lat, p, q


def test_rank_convention():
    lat = TWO
    e = empty_qset(lat)
    assert e.rank == 1
    s = make_qset(lat, [(e, lat.top())])
    assert s.rank == 2
    t = make_qset(lat, [(e, lat.top()), (s, lat.atom(0))])
    assert t.rank == 3


def test_make_qset_validation():
    lat = TWO
    other = FOUR
    e = empty_qset(lat)
    with pytest.raises(LatticeError):
        make_qset(lat, [("not a qset", lat.top())])
    with pytest.raises(LatticeError):
        make_qset(other, [(e, other.top())])  # key from a different lattice
    with pytest.raises(LatticeError):
        make_qset(lat, [(e, 99)])  # value outside the lattice
    with pytest.raises(AttributeError):
        e.rank = 5


def test_fragment_counts():
    # rank-r fragment sizes follow the tower (1 + |L|)^count
    assert predicted_fragment_size(2, 1) == 1
    assert predicted_fragment_size(2, 2) == 3
    assert predicted_fragment_size(2, 3) == 27
    assert predicted_fragment_size(4, 3) == 3125

    frag = enumerate_fragment(TWO, 3)
    assert len(frag) == 27
    assert len(frag.by_rank(1)) == 1
    assert len(frag.by_rank(2)) == 2
    assert len(frag.by_rank(3)) == 24

    frag4 = enumerate_fragment(FOUR, 2)
    assert len(frag4) == 5

    # structural dedup: no two members share a structural key
    keys = {m.structural_key() for m in frag}
    assert len(keys) == len(frag)


def test_fragment_limit_and_value_requirements():
    with pytest.raises(LatticeError):
        enumerate_fragment(FOUR, 4)  # would be astronomically large
    lat, p, q = dim2_pq()
    with pytest.raises(LatticeError):
        enumerate_fragment(lat, 2)  # needs an explicit value list
    frag = enumerate_fragment(lat, 2, values=[lat.bottom(), p, lat.top()])
    assert len(frag) == 4  # empty + 3 singletons


def test_reflexivity_and_symmetry_on_fragment():
    lat, p, q = dim2_pq()
    values = [lat.bottom(), p, lat.ortho(p), q, lat.top()]
    frag = enumerate_fragment(lat, 2, values=values)
    session = EvalSession(lat)
    for u in frag:
        assert session.truth_equality(u, u) == lat.top()
        for v in frag:
            assert session.truth_equality(u, v) == session.truth_equality(v, u)


def test_empty_set_truths():
    lat = FOUR
    e = empty_qset(lat)
    s = make_qset(lat, [(e, lat.atom(0))])
    assert truth_membership(e, s) == lat.atom(0)
    assert truth_membership(s, e) == lat.bottom()
    assert truth_equality(e, e) == lat.top()
    # [[ {e: a} = empty ]] = a -> 0 = ~a on a Boolean lattice
    assert truth_equality(s, e) == lat.ortho(lat.atom(0))


def test_zero_valued_entries_change_nothing():
    # appending an entry with value 0 never moves a truth value
    lat, p, q = dim2_pq()
    session = EvalSession(lat)
    e = empty_qset(lat)
    s = make_qset(lat, [(e, p)])
    t = make_qset(lat, [(s, q)])
    probes = [e, s, t, make_qset(lat, [(e, q), (s, lat.ortho(p))])]
    for base in probes:
        extended = make_qset(lat, tuple(base.entries) + ((t, lat.bottom()),))
        for other in probes:
            assert session.truth_membership(other, extended) == session.truth_membership(other, base)
            assert session.truth_equality(other, extended) == session.truth_equality(other, base)
            assert session.truth_membership(extended, other) == session.truth_membership(base, other)


def test_duplicate_domain_keys_change_nothing():
    # a structurally-equal duplicate key with the same value is redundant:
    # the clauses fold it into the same joins and meets
    lat = FOUR
    session = EvalSession(lat)
    e = empty_qset(lat)
    e2 = empty_qset(lat)  # distinct handle, structurally equal
    assert e is not e2 and e.structural_key() == e2.structural_key()
    base = make_qset(lat, [(e, lat.atom(0))])
    doubled = make_qset(lat, [(e, lat.atom(0)), (e2, lat.atom(0))])
    probes = [e, base, make_qset(lat, [(base, lat.top())]), empty_qset(lat)]
    for other in probes:
        assert session.truth_membership(other, doubled) == session.truth_membership(other, base)
        assert session.truth_equality(other, doubled) == session.truth_equality(other, base)
        assert session.truth_membership(doubled, other) == session.truth_membership(base, other)


def test_make_qset_refuses_a_repeated_key_handle():
    # a QSet is a function on its keys: {e: p, e: q} has no single value at e
    lat, p, q = dim2_pq()
    e = empty_qset(lat)
    with pytest.raises(LatticeError, match="appears twice"):
        make_qset(lat, [(e, p), (e, q)])
    with pytest.raises(LatticeError, match="appears twice"):
        make_qset(lat, [(e, p), (empty_qset(lat), q), (e, p)])
    with pytest.raises(LatticeError, match="appears twice"):
        qsets_from_json({"nodes": [{"entries": []},
                                   {"entries": [[0, 1], [0, 0]]}], "roots": [1]}, FOUR)
    # distinct handles with equal structure stay distinct keys
    assert len(make_qset(lat, [(e, p), (empty_qset(lat), q)]).entries) == 2


def test_check_embed_shapes():
    lat = FOUR
    zero = check_embed([], lat)
    one = check_embed([[]], lat)
    two = check_embed([[], [[]]], lat)
    assert zero.is_empty()
    assert one.rank == 2 and len(one.entries) == 1
    assert two.rank == 3 and len(two.entries) == 2
    for _, v in two.entries:
        assert v == lat.top()
    # duplicate members collapse to one entry
    dup = check_embed([[], []], lat)
    assert len(dup.entries) == 1
    # structural sharing: the [] inside both members is one handle
    inner_handles = {id(k) for k, _ in two.entries[1][0].entries}
    assert id(two.entries[0][0]) in inner_handles or two.entries[0][0] is two.entries[1][0].domain()[0]
    with pytest.raises(LatticeError):
        check_embed("not a set", lat)


def test_numerals_equal_nested_list_check_sets():
    nested: list = []
    for _ in range(5):
        nested.append(list(nested))
    for lat in (FOUR, ProjectionLattice(2)):
        nums = numerals(lat, 5)
        session = EvalSession(lat)
        for k, num in enumerate(nums):
            assert session.truth_equality(num, check_embed(nested[k], lat)) == lat.top()
            assert [m for m, _ in num.entries] == nums[:k]
        assert nums[4].rank == 5
    assert numerals(FOUR, 0) == []


def test_check_embed_truths_match_set_theory():
    # on check-sets, truth values are two-valued and match ordinary sets
    lat = FOUR
    sets = {
        "zero": [],
        "one": [[]],
        "two": [[], [[]]],
    }
    embedded = {name: check_embed(s, lat) for name, s in sets.items()}

    def as_frozen(x):
        return frozenset(as_frozen(m) for m in x)

    classical = {name: as_frozen(s) for name, s in sets.items()}
    session = EvalSession(lat)
    for a in sets:
        for b in sets:
            expect_in = classical[a] in classical[b]
            expect_eq = classical[a] == classical[b]
            got_in = session.truth_membership(embedded[a], embedded[b])
            got_eq = session.truth_equality(embedded[a], embedded[b])
            assert got_in == (lat.top() if expect_in else lat.bottom())
            assert got_eq == (lat.top() if expect_eq else lat.bottom())


def test_two_valued_degeneration_is_classical():
    # over the two-element algebra every enumerated set acts like a plain
    # hereditarily finite set: compare against a frozenset oracle
    lat = TWO
    frag = enumerate_fragment(lat, 3)
    session = EvalSession(lat)

    def to_classical(u: QSet):
        return frozenset(to_classical(k) for k, v in u.entries if v == lat.top())

    classical = {id(u): to_classical(u) for u in frag}
    for u in frag:
        for v in frag:
            want_eq = classical[id(u)] == classical[id(v)]
            want_in = classical[id(u)] in classical[id(v)]
            assert (session.truth_equality(u, v) == lat.top()) == want_eq
            assert (session.truth_membership(u, v) == lat.top()) == want_in


def test_membership_clause_agrees_with_negated_forall_on_boolean():
    # the primitive membership clause and the quantifier rendering
    # ~ forall x in v . ~(x = u) coincide over a Boolean lattice
    lat = FOUR
    frag = enumerate_fragment(lat, 2)
    session = EvalSession(lat)
    phi = parse("~(forall x in v . ~(x = u))")
    for u in frag:
        for v in frag:
            env = Environment(lat, bindings={"u": u, "v": v}, session=session)
            assert eval_formula(phi, env) == session.truth_membership(u, v)


def test_membership_clause_dominated_by_quantifier_form_on_projections():
    # with noncommuting values the quantifier rendering can only be larger
    lat, p, q = dim2_pq()
    values = [lat.bottom(), p, lat.ortho(p), q, lat.top()]
    frag = enumerate_fragment(lat, 2, values=values)
    session = EvalSession(lat)
    phi = parse("~(forall x in v . ~(x = u))")
    strict = 0
    for u in frag:
        for v in frag:
            env = Environment(lat, bindings={"u": u, "v": v}, session=session)
            rendered = eval_formula(phi, env)
            primitive = session.truth_membership(u, v)
            assert lat.leq(primitive, rendered)
            if rendered != primitive:
                strict += 1
    assert strict > 0  # they genuinely differ somewhere


def test_session_memoization_is_stable():
    lat = TWO
    frag = enumerate_fragment(lat, 3)
    session = EvalSession(lat)
    first = [session.truth_equality(u, v) for u in frag for v in frag]
    second = [session.truth_equality(u, v) for u in frag for v in frag]
    assert first == second
    eq_size, mem_size = session.cache_sizes()
    assert eq_size > 0 and mem_size > 0


def test_qsets_json_round_trip_preserves_sharing():
    lat = FOUR
    e = empty_qset(lat)
    s = make_qset(lat, [(e, lat.atom(0))])
    t = make_qset(lat, [(e, lat.atom(1)), (s, lat.top())])
    doc = qsets_to_json([s, t], lat)
    lat2, roots = qsets_from_json(doc)
    assert lat2 == lat
    s2, t2 = roots
    session = EvalSession(lat)
    assert session.truth_equality(s2, s) == lat.top()
    assert session.truth_equality(t2, t) == lat.top()
    # shared subterm stays shared after rebuilding
    inner = [k for k, _ in t2.entries]
    assert any(k is s2.domain()[0] for k in inner[0:1]) or inner[0] is s2.entries[0][0]


def test_deep_chain_structural_key_and_json_round_trip():
    # walks over a singleton chain far past the interpreter's recursion limit
    lat = TWO
    chain = [empty_qset(lat)]
    for _ in range(1499):
        chain.append(make_qset(lat, [(chain[-1], lat.top())]))
    top = chain[-1]
    assert top.rank == 1500
    key = top.structural_key()
    assert key == frozenset({(chain[-2].structural_key(), lat.top())})
    doc = qsets_to_json([top], lat)
    assert len(doc["nodes"]) == 1500 and doc["roots"] == [1499]
    _, (again,) = qsets_from_json(doc)
    assert again.rank == 1500
    assert qsets_to_json([again], lat) == doc
    # equal structure, equal hash; == on two deep keys would itself recurse
    assert hash(again.structural_key()) == hash(key)


def test_fragment_json_round_trip():
    lat, p, q = dim2_pq()
    frag = enumerate_fragment(lat, 2, values=[lat.bottom(), p, lat.top()])
    doc = fragment_to_json(frag)
    again = fragment_from_json(doc)
    assert len(again) == len(frag)
    assert again.lattice == lat
    session = EvalSession(lat)
    for a, b in zip(frag, again):
        assert session.truth_equality(a, b) == lat.top()


def test_fragment_validation_rejects_foreign_members():
    lat = TWO
    other = FOUR
    with pytest.raises(LatticeError):
        UniverseFragment(lat, [empty_qset(other)])


def test_session_checks_lattice_at_each_public_entry():
    lat, p, _ = dim2_pq()
    s = make_qset(lat, ((empty_qset(lat), p),))
    other = make_qset(FOUR, ((empty_qset(FOUR), 1),))
    session = EvalSession(lat)
    for call in (session.truth_membership, session.truth_equality):
        with pytest.raises(LatticeError):
            call(s, other)
        with pytest.raises(LatticeError):
            call(other, s)
    # the recursion below the entry points fills both memos
    assert session.truth_equality(s, s) == lat.top()
    assert all(size > 0 for size in session.cache_sizes())
