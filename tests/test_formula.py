"""Formula grammar, desugaring, and compiled truth evaluation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lvset.formula import (MAX_DEPTH, And, Environment, Eq, Exists, ExistsIn,
                           Forall, ForallIn, FormulaError, Implies, In, Not,
                           Or, Var, children, compile_core, desugar, eval_formula,
                           formula_from_json, formula_to_json, free_variables,
                           parse, parse_formula_lines, to_text)
from lvset.exactnum import gq
from lvset.generators import random_qset_pool
from lvset.lattice import BooleanLattice, ProjectionLattice
from lvset.projections import proj_from_span
from lvset.universe import (EvalSession, UniverseFragment, empty_qset,
                            enumerate_fragment, make_qset)


def test_parse_atoms():
    f = parse("x = y")
    assert f == Eq(Var("x"), Var("y"))
    f = parse("x in y")
    assert f == In(Var("x"), Var("y"))


def test_precedence_and_associativity():
    # ~ binds tighter than &, & tighter than |, | tighter than ->
    f = parse("~x = y & x in z")
    assert f == And(Not(Eq(Var("x"), Var("y"))), In(Var("x"), Var("z")))
    f = parse("x = y | x = z & y = z")
    assert isinstance(f, Or) and isinstance(f.right, And)
    f = parse("x = y -> x = z | y = z")
    assert isinstance(f, Implies) and isinstance(f.right, Or)
    # & and | associate to the left
    f = parse("x = x & y = y & z = z")
    assert isinstance(f, And) and isinstance(f.left, And)


def test_parse_quantifiers():
    f = parse("forall t in u . t in v")
    assert f == ForallIn("t", Var("u"), In(Var("t"), Var("v")))
    f = parse("exists t in u . t = v")
    assert f == ExistsIn("t", Var("u"), Eq(Var("t"), Var("v")))
    f = parse("forall t . t = t")
    assert f == Forall("t", Eq(Var("t"), Var("t")))
    f = parse("exists t . t in u")
    assert f == Exists("t", In(Var("t"), Var("u")))
    # quantifier body extends as far right as possible
    f = parse("forall t in u . t in v & t = w")
    assert isinstance(f.body, And)


def test_parse_errors():
    for bad in ("x =", "forall . x = y", "x in in y", "(x = y", "x & y",
                "", "x = y & & z = w", "forall x in . x = x"):
        with pytest.raises(FormulaError):
            parse(bad)


def test_to_text_round_trips():
    texts = [
        "x = y",
        "x in y",
        "~x = y",
        "x = y & y = z",
        "x = y | y = z",
        "x = y -> y = z",
        "forall t in u . t in v",
        "exists t in u . ~t = v",
        "forall t . exists s in t . s = t",
        "~(x = y & ~(x = y))",
        "(x = y | y = z) & x in w",
        "x = y -> (y = z -> x = z)",
    ]
    for text in texts:
        node = parse(text)
        assert parse(to_text(node)) == node


def test_parse_formula_lines():
    # blank lines and # comments are skipped; results carry line numbers
    lines = parse_formula_lines("x = y\n\n# just a note\nforall t in u . t = t\n")
    assert [(n, s) for n, s, _ in lines] == [(1, "x = y"), (4, "forall t in u . t = t")]
    assert lines[0][2] == Eq(Var("x"), Var("y"))
    with pytest.raises(FormulaError) as err:
        parse_formula_lines("x = y\nbogus & &\n")
    assert "line 2" in str(err.value)


def is_core(node) -> bool:
    """Whether a formula uses only variables and the six core node kinds."""
    return (isinstance(node, (Var, Eq, In, Not, And, ForallIn, Forall))
            and all(is_core(c) for c in children(node)))


def test_desugar_forms():
    # R5: or
    node = desugar(parse("a = b | c = d"))
    assert node == Not(And(Not(Eq(Var("a"), Var("b"))), Not(Eq(Var("c"), Var("d")))))
    # sasaki lift for ->
    node = desugar(parse("a = b -> c = d"))
    phi = Eq(Var("a"), Var("b"))
    psi = Eq(Var("c"), Var("d"))
    assert node == Not(And(phi, Not(And(phi, psi))))
    # R6: bounded exists
    node = desugar(parse("exists t in u . t = v"))
    assert node == Not(ForallIn("t", Var("u"), Not(Eq(Var("t"), Var("v")))))
    # R7: unbounded exists
    node = desugar(parse("exists t . t = v"))
    assert node == Not(Forall("t", Not(Eq(Var("t"), Var("v")))))
    # idempotent on core
    assert desugar(node) == node
    assert is_core(node)
    assert not is_core(parse("a = b | c = d"))


def test_free_variables():
    assert free_variables(parse("x = y & y in z")) == {"x", "y", "z"}
    assert free_variables(parse("forall t in u . t = v")) == {"u", "v"}
    assert free_variables(parse("exists t . t = t")) == set()
    # the bound of a quantifier is free even if it shadows elsewhere
    assert free_variables(parse("forall t in t . t = t")) == {"t"}


def test_eval_boolean_basics():
    lat = BooleanLattice(2)
    e = empty_qset(lat)
    s = make_qset(lat, [(e, lat.atom(0))])
    env = Environment(lat, bindings={"e": e, "s": s})
    assert eval_formula(parse("e = e"), env) == lat.top()
    assert eval_formula(parse("e in s"), env) == lat.atom(0)
    assert eval_formula(parse("~e in s"), env) == lat.ortho(lat.atom(0))
    assert eval_formula(parse("e in s & e = e"), env) == lat.atom(0)
    assert eval_formula(parse("e in s | ~e in s"), env) == lat.top()
    assert eval_formula(parse("e in s -> e = e"), env) == lat.top()
    # excluded middle in the lattice sense
    got = eval_formula(parse("~(e in s & ~e in s)"), env)
    assert got == lat.top()


NESTINGS = {
    "not": lambda k: "~" * k + "e = e",
    "and": lambda k: " & ".join(["e = e"] * (k + 1)),
    "or": lambda k: " | ".join(["e in s"] * (k + 1)),
    "implies": lambda k: " -> ".join(["e in s"] * (k + 1)),
    "parens": lambda k: "(" * k + "e = e" + ")" * k,
    "exists": lambda k: "exists t in s . " * k + "t = e",
    "forall-parens": lambda k: ("forall t in s . (" * (k // 2) + "~" * (k % 2) + "t = e"
                                + ")" * (k // 2)),
}


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_formulas_at_the_depth_limit_evaluate(kind):
    # the deepest accepted formula of each kind goes through every
    # recursive pass: parse, desugar, free_variables, evaluation, printing
    lat = BooleanLattice(2)
    e = empty_qset(lat)
    s = make_qset(lat, [(e, lat.atom(0))])
    env = Environment(lat, bindings={"e": e, "s": s})
    node = parse(NESTINGS[kind](MAX_DEPTH))
    assert parse(to_text(node)) == node
    assert free_variables(desugar(node)) <= {"e", "s"}
    trace = []
    assert eval_formula(node, env, trace) in lat.elements()
    assert trace


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_formulas_past_the_depth_limit_are_refused(kind):
    with pytest.raises(FormulaError, match=f"nested more than {MAX_DEPTH} levels"):
        parse(NESTINGS[kind](MAX_DEPTH + 1))
    with pytest.raises(FormulaError, match=f"nested more than {MAX_DEPTH} levels"):
        parse(NESTINGS[kind](10 * MAX_DEPTH))


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_formula_json_round_trips_at_the_depth_limit(kind):
    node = parse(NESTINGS[kind](MAX_DEPTH))
    assert formula_from_json(formula_to_json(node)) == node


def nested_not_doc(levels):
    doc = {"node": "eq", "left": {"node": "var", "name": "x"},
           "right": {"node": "var", "name": "y"}}
    for _ in range(levels):
        doc = {"node": "not", "body": doc}
    return doc


def test_formula_json_past_the_depth_limit_is_refused():
    assert formula_from_json(nested_not_doc(MAX_DEPTH)) == parse("~" * MAX_DEPTH + "x = y")
    for levels in (MAX_DEPTH + 1, 3000):
        with pytest.raises(FormulaError, match=f"nested more than {MAX_DEPTH} levels"):
            formula_from_json(nested_not_doc(levels))


@pytest.mark.parametrize("doc, message", [
    ({"node": "eq"}, "'eq' is missing key 'left'"),
    ({"node": "eq", "left": {"node": "var", "name": "x"}}, "'eq' is missing key 'right'"),
    ({"node": "forall", "var": "x", "body": {"node": "var", "name": "x"}, "bound": None},
     "'forall' has unknown key 'bound'"),
    ({"node": "var", "name": "x", "extra": 1}, "'var' has unknown key 'extra'"),
    ({"node": "var", "name": 3}, "'var' needs a string 'name'"),
    ({"node": "not", "body": {"name": "x"}}, "object with a 'node' key"),
    ({"node": "not", "body": ["var", "x"]}, "object with a 'node' key"),
    ({"node": ["not"]}, "unknown formula node kind"),
    ([], "object with a 'node' key"),
])
def test_formula_json_malformed_docs_are_refused(doc, message):
    with pytest.raises(FormulaError, match=message):
        formula_from_json(doc)


def test_chain_depth_counts_the_deepest_operand():
    # a left-deep chain puts its first operand deepest, so a nested first
    # operand uses up the levels the links leave
    chain = " & ".join(["e = e"] * (MAX_DEPTH // 2))
    parse("~" * (MAX_DEPTH // 2) + "e = e & " + chain)
    with pytest.raises(FormulaError, match="nested more than"):
        parse("~" * (MAX_DEPTH // 2 + 1) + "e = e & " + chain)


def test_eval_bounded_quantifiers():
    lat = BooleanLattice(2)
    e = empty_qset(lat)
    s = make_qset(lat, [(e, lat.atom(0))])
    u = make_qset(lat, [(e, lat.atom(0)), (s, lat.atom(1))])
    env = Environment(lat, bindings={"u": u, "e": e})
    # forall x in u . x = e: entry e contributes a0 -> 1 = 1,
    # entry s contributes a1 -> [[s = e]] = a1 -> a0 = a0 | ~a1 = a0
    want = lat.meet(lat.sasaki_arrow(lat.atom(0), lat.top()),
                    lat.sasaki_arrow(lat.atom(1), lat.ortho(lat.atom(0))))
    got = eval_formula(parse("forall x in u . x = e"), env)
    assert got == want
    # exists x in u . x = e is at least the membership value of e
    got = eval_formula(parse("exists x in u . x = e"), env)
    assert lat.leq(lat.atom(0), got)


def test_eval_unbounded_quantifier_needs_fragment():
    lat = BooleanLattice(1)
    env = Environment(lat, bindings={})
    with pytest.raises(FormulaError):
        eval_formula(parse("forall t . t = t"), env)
    frag = enumerate_fragment(lat, 2)
    env = Environment(lat, fragment=frag)
    assert eval_formula(parse("forall t . t = t"), env) == lat.top()
    # truncation is recorded once in the notes
    assert len(env.notes) == 1
    assert "truncation" in env.notes[0]
    eval_formula(parse("forall t . t = t"), env)
    assert len(env.notes) == 1


def test_eval_unbound_identifier():
    lat = BooleanLattice(1)
    env = Environment(lat, bindings={})
    with pytest.raises(FormulaError):
        eval_formula(parse("x = x"), env)


def test_environment_validation():
    lat = BooleanLattice(1)
    other = BooleanLattice(2)
    with pytest.raises(FormulaError):
        Environment(lat, bindings={"x": empty_qset(other)})
    with pytest.raises(FormulaError):
        Environment(lat, bindings={"x": "not a qset"})


def test_implies_is_sasaki_arrow():
    lat = ProjectionLattice(2)
    p = proj_from_span([(gq(1), gq(0))], 2)
    q = proj_from_span([(gq(1), gq(1))], 2)
    e = empty_qset(lat)
    sp = make_qset(lat, [(e, p)])
    sq = make_qset(lat, [(e, q)])
    env = Environment(lat, bindings={"a": sp, "b": sq, "e": e})
    # [[e in a]] = p, [[e in b]] = q
    direct = eval_formula(parse("e in a -> e in b"), env)
    assert direct == lat.sasaki_arrow(p, q)
    # noncommuting p, q: the arrow is p' here since p & q = 0
    assert direct == lat.ortho(p)


def test_trace_records_rules():
    lat = BooleanLattice(2)
    e = empty_qset(lat)
    s = make_qset(lat, [(e, lat.atom(0))])
    env = Environment(lat, bindings={"e": e, "s": s})
    trace = []
    eval_formula(parse("~(e in s & e = e)"), env, trace)
    rules = [entry["rule"] for entry in trace]
    assert "R8" in rules and "R9" in rules and "R2" in rules and "R1" in rules
    # innermost results are printed with the lattice's own repr
    r8 = next(entry for entry in trace if entry["rule"] == "R8")
    assert r8["result"] == lat.element_repr(lat.atom(0))
    assert r8["formula"] == "e in s"


def test_trace_records_desugaring():
    trace = []
    desugar(parse("exists t in u . t = v | t = w"), trace)
    rules = [entry["rule"] for entry in trace]
    assert "R6" in rules and "R5" in rules


def test_formula_json_round_trip():
    texts = [
        "x = y",
        "~(x = y & ~(x = y))",
        "forall t in u . exists s in t . s in v | s = w",
        "x = y -> exists t . t in x",
    ]
    for text in texts:
        node = parse(text)
        assert formula_from_json(formula_to_json(node)) == node
    with pytest.raises(FormulaError):
        formula_from_json({"node": "nonsense"})


def test_formula_json_exact_encoding():
    # one formula with all eleven node kinds, pinned key by key so a renamed
    # node name or field cannot hide behind a round trip
    node = parse("forall x . exists y . forall z in x . exists w in y . "
                 "(~(z = w) & z in y | w in x -> x = y)")
    x, y, z, w = ({"node": "var", "name": n} for n in "xyzw")
    assert formula_to_json(node) == {
        "node": "forall", "var": "x", "body": {
            "node": "exists", "var": "y", "body": {
                "node": "forall_in", "var": "z", "bound": x, "body": {
                    "node": "exists_in", "var": "w", "bound": y, "body": {
                        "node": "implies",
                        "left": {
                            "node": "or",
                            "left": {
                                "node": "and",
                                "left": {"node": "not",
                                         "body": {"node": "eq", "left": z, "right": w}},
                                "right": {"node": "in", "left": z, "right": y},
                            },
                            "right": {"node": "in", "left": w, "right": x},
                        },
                        "right": {"node": "eq", "left": x, "right": y},
                    },
                },
            },
        },
    }


def test_non_contradiction_instances_hold_everywhere():
    # concrete instances of ~(phi & ~phi) evaluate to 1 in both lattice kinds
    lat = BooleanLattice(2)
    frag = enumerate_fragment(lat, 2)
    session = EvalSession(lat)
    phi = parse("~(x = y & ~(x = y))")
    psi = parse("~(x in y & ~(x in y))")
    for u in frag:
        for v in frag:
            env = Environment(lat, bindings={"x": u, "y": v}, session=session)
            assert eval_formula(phi, env) == lat.top()
            assert eval_formula(psi, env) == lat.top()

    plat = ProjectionLattice(2)
    p = proj_from_span([(gq(1), gq(0))], 2)
    q = proj_from_span([(gq(1), gq(1))], 2)
    pfrag = enumerate_fragment(plat, 2, values=[plat.bottom(), p, q, plat.top()])
    session = EvalSession(plat)
    for u in pfrag:
        for v in pfrag:
            env = Environment(plat, bindings={"x": u, "y": v}, session=session)
            assert eval_formula(phi, env) == plat.top()
            assert eval_formula(psi, env) == plat.top()


# ------------------------------------------- compiled evaluator vs tree walk

def reference_eval(node, env, scope, trace):
    """The recursive tree walk that evaluated core formulas before they were
    compiled, kept as an oracle: one isinstance dispatch per node, atoms
    through the session's checked entry points."""
    lat = env.lattice
    if isinstance(node, Eq):
        rule, out = "R9", env.session.truth_equality(scope[node.left.name],
                                                     scope[node.right.name])
    elif isinstance(node, In):
        rule, out = "R8", env.session.truth_membership(scope[node.left.name],
                                                       scope[node.right.name])
    elif isinstance(node, Not):
        rule, out = "R1", lat.ortho(reference_eval(node.body, env, scope, trace))
    elif isinstance(node, And):
        rule, out = "R2", lat.meet(reference_eval(node.left, env, scope, trace),
                                   reference_eval(node.right, env, scope, trace))
    elif isinstance(node, ForallIn):
        rule, out = "R3", lat.big_meet(
            lat.sasaki_arrow(value, reference_eval(node.body, env, {**scope, node.var: x},
                                                   trace))
            for x, value in scope[node.bound.name].entries
        )
    elif isinstance(node, Forall):
        message = (f"unbounded quantifier evaluated over a {len(env.fragment)}-member "
                   f"fragment (truncation of the full universe)")
        if message not in env.notes:
            env.notes.append(message)
        rule, out = "R4", lat.big_meet(
            reference_eval(node.body, env, {**scope, node.var: m}, trace)
            for m in env.fragment
        )
    else:
        raise FormulaError(f"cannot evaluate {type(node).__name__} (not a core node)")
    if trace is not None:
        trace.append({"rule": rule, "formula": to_text(node),
                      "result": lat.element_repr(out)})
    return out


ORACLE_NAMES = ("a", "b", "x", "y")  # every name is bound, so quantifiers shadow
_oracle_var = st.sampled_from(ORACLE_NAMES).map(Var)
_quantified = st.sampled_from(("x", "y"))
core_formulas = st.recursive(
    st.builds(Eq, _oracle_var, _oracle_var) | st.builds(In, _oracle_var, _oracle_var),
    lambda inner: (st.builds(Not, inner) | st.builds(And, inner, inner)
                   | st.builds(ForallIn, _quantified, _oracle_var, inner)
                   | st.builds(Forall, _quantified, inner)),
    max_leaves=6)


def _oracle_lattices():
    plat = ProjectionLattice(2)
    p = proj_from_span([(gq(1), gq(0))], 2)
    q = proj_from_span([(gq(1), gq(1))], 2)
    blat = BooleanLattice(2)
    return {"boolean": (blat, list(blat.elements())),
            "projection": (plat, [plat.bottom(), plat.top(), p, plat.ortho(p), q])}


ORACLE_LATTICES = _oracle_lattices()  # shared, so the lattice memos carry over


@settings(max_examples=80, deadline=None)
@given(core=core_formulas, kind=st.sampled_from(sorted(ORACLE_LATTICES)),
       seed=st.integers(0, 2 ** 16), picks=st.lists(st.integers(0, 5), min_size=4,
                                                     max_size=4))
def test_compiled_evaluation_matches_the_tree_walk(core, kind, seed, picks):
    lat, values = ORACLE_LATTICES[kind]
    pool = random_qset_pool(random.Random(seed), lat, values, 6)
    fragment = UniverseFragment(lat, pool)  # a pool is dom-closed and ordered
    bindings = {name: pool[i] for name, i in zip(ORACLE_NAMES, picks)}
    free = free_variables(core)

    expected_env = Environment(lat, bindings, fragment=fragment)
    expected_trace = []
    expected = reference_eval(core, expected_env, expected_env.bindings, expected_trace)

    env = Environment(lat, bindings, fragment=fragment)
    trace = []
    assert compile_core(core, free, env, trace)(env.bindings) == expected
    assert trace == expected_trace
    assert env.notes == expected_env.notes
    # without a trace the same closures run, and the session memo is shared
    assert compile_core(core, free, env)(env.bindings) == expected


def test_compiled_evaluation_keeps_the_error_order():
    lat = BooleanLattice(1)
    e = empty_qset(lat)
    env = Environment(lat, {"e": e})
    # an unbound identifier is refused before anything runs
    trace = []
    with pytest.raises(FormulaError, match="unbound identifiers: z"):
        eval_formula(parse("e = e & z = e"), env, trace)
    assert trace == []
    # a missing fragment shows when the quantifier is reached, after its
    # left sibling has been traced
    with pytest.raises(FormulaError, match="ambient fragment"):
        eval_formula(parse("e = e & forall t . t = e"), env, trace)
    assert [step["rule"] for step in trace] == ["R9"]


def test_environment_refuses_a_session_or_fragment_of_another_lattice():
    lat, other = BooleanLattice(1), BooleanLattice(2)
    with pytest.raises(FormulaError, match="session"):
        Environment(lat, session=EvalSession(other))
    with pytest.raises(FormulaError, match="fragment"):
        Environment(lat, fragment=enumerate_fragment(other, 1))
