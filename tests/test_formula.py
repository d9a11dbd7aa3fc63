"""Formula grammar, desugaring, and recursive truth evaluation."""

import pytest

from lvset.formula import (MAX_DEPTH, And, Environment, Eq, Exists, ExistsIn,
                           Forall, ForallIn, FormulaError, Implies, In, Not,
                           Or, Var, desugar, eval_formula, formula_from_json,
                           formula_to_json, free_variables, is_core, parse,
                           parse_formula_lines, to_text)
from lvset.exactnum import gq
from lvset.lattice import BooleanLattice, ProjectionLattice
from lvset.projections import proj_from_span
from lvset.universe import (EvalSession, empty_qset, enumerate_fragment,
                            make_qset)


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
