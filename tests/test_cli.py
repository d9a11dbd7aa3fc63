"""End-to-end CLI behavior: session files, outputs, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from lvset import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def session(tmp_path):
    return str(tmp_path / "session.json")


def test_lattice_and_session_round_trip(session, capsys, tmp_path):
    code, out, err = run(capsys, "lattice", "B", "--boolean", "2", "--session", session)
    assert code == 0 and "B" in out
    code, out, err = run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    assert code == 0
    doc = json.loads(open(session).read())
    assert set(doc["lattices"]) == {"B", "P"}
    assert set(doc) == {"lattices", "sets", "observables", "states", "fragments"}


def test_lattice_usage_errors(session, capsys):
    code, out, err = run(capsys, "lattice", "X", "--session", session)
    assert code == 2
    code, out, err = run(capsys, "lattice", "X", "--boolean", "2",
                         "--projection", "2", "--session", session)
    assert code == 2
    code, out, err = run(capsys, "lattice", "X", "--boolean", "99", "--session", session)
    assert code == 4  # data validation: too many atoms


def test_set_literal_and_eval(session, capsys):
    run(capsys, "lattice", "B", "--boolean", "2", "--session", session)
    code, out, err = run(capsys, "set", "e", "--lattice", "B", "--empty",
                         "--session", session)
    assert code == 0
    code, out, err = run(capsys, "set", "u", "--lattice", "B",
                         "--literal", '{e: "a0"}', "--session", session)
    assert code == 0
    code, out, err = run(capsys, "eval", "e in u", "--session", session)
    assert code == 0
    assert out.strip() == "a0"
    code, out, err = run(capsys, "eval", "~(e in u)", "--session", session)
    assert out.strip() == "a1"
    # boolean literal values use display forms: "1" is the top element
    code, out, err = run(capsys, "set", "v", "--lattice", "B",
                         "--literal", '{e: "1", u: "a1"}', "--session", session)
    assert code == 0
    code, out, err = run(capsys, "eval", "e in v", "--session", session)
    assert out.strip() == "1"


def test_eval_trace_and_json(session, capsys):
    run(capsys, "lattice", "B", "--boolean", "2", "--session", session)
    run(capsys, "set", "e", "--lattice", "B", "--empty", "--session", session)
    run(capsys, "set", "u", "--lattice", "B", "--literal", '{e: "a0"}',
        "--session", session)
    code, out, err = run(capsys, "eval", "~(e in u & e = e)", "--trace",
                         "--session", session)
    assert code == 0
    assert "R8" in out and "R9" in out and "R1" in out
    code, out, err = run(capsys, "eval", "e in u", "--json", "--session", session)
    doc = json.loads(out)
    assert doc["repr"] == "a0"
    assert doc["value"] == 1  # raw atom bitmask

    # unbound identifier: usage error
    code, out, err = run(capsys, "eval", "nosuch in u", "--session", session)
    assert code == 2
    # parse error: one `error:` line, like every other usage error
    code, out, err = run(capsys, "eval", "e in in u", "--session", session)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("formula", [
    "~" * 1000 + "e = e",
    " & ".join(["e = e"] * 700),
], ids=["1000-negations", "700-conjuncts"])
def test_eval_refuses_formulas_nested_too_deep(session, capsys, formula):
    run(capsys, "lattice", "B", "--boolean", "1", "--session", session)
    run(capsys, "set", "e", "--lattice", "B", "--empty", "--session", session)
    code, out, err = run(capsys, "eval", formula, "--session", session)
    assert code == 2 and out == ""
    assert "nested more than 100 levels deep" in _one_line_error(err)


def test_eval_closed_formula_needs_lattice(session, capsys):
    run(capsys, "lattice", "B", "--boolean", "1", "--session", session)
    code, out, err = run(capsys, "eval", "forall t . t = t", "--session", session)
    assert code == 2
    run(capsys, "enumerate", "F", "--lattice", "B", "--max-rank", "2",
        "--session", session)
    code, out, err = run(capsys, "eval", "forall t . t = t", "--fragment", "F",
                         "--session", session)
    assert code == 0
    assert out.splitlines()[0] == "1"
    assert "truncation" in out


def test_check_set_numerals(session, capsys):
    run(capsys, "lattice", "B", "--boolean", "2", "--session", session)
    code, out, err = run(capsys, "set", "two", "--lattice", "B", "--check", "2",
                         "--json", "--session", session)
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3 and doc["entries"] == 2
    code, out, err = run(capsys, "eval", "two = two", "--session", session)
    assert out.strip() == "1"


def test_enumerate_boolean_counts(session, capsys):
    run(capsys, "lattice", "B", "--boolean", "1", "--session", session)
    code, out, err = run(capsys, "enumerate", "F", "--lattice", "B",
                         "--max-rank", "3", "--json", "--session", session)
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == 27
    assert doc["by_rank"] == {"1": 1, "2": 2, "3": 24}
    # too large: data validation error with the computed size
    code, out, err = run(capsys, "enumerate", "G", "--lattice", "B",
                         "--max-rank", "5", "--session", session)
    assert code == 4


def test_enumerate_projection_values_from(session, capsys):
    run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    run(capsys, "obs", "A", "--diag", "1,2", "--session", session)
    code, out, err = run(capsys, "enumerate", "F", "--lattice", "P",
                         "--max-rank", "2", "--values-from", "A",
                         "--json", "--session", session)
    assert code == 0
    doc = json.loads(out)
    # values {0, P1, P2, 1}: the two eigenprojections are complements,
    # so the fragment is empty set + 4 singletons
    assert doc["members"] == 5
    # a projection fragment without values is refused
    code, out, err = run(capsys, "enumerate", "G", "--lattice", "P",
                         "--max-rank", "2", "--session", session)
    assert code == 4


def test_obs_and_state_and_prob(session, capsys):
    run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    code, out, err = run(capsys, "obs", "A", "--diag", "1,2", "--session", session)
    assert code == 0
    code, out, err = run(capsys, "obs", "B", "--diag", "1,3", "--session", session)
    assert code == 0
    code, out, err = run(capsys, "state", "psi", "--vector", "1,1",
                         "--session", session)
    assert code == 0

    # the worked example: [[A = B]] projects on e1, Pr = 1/2 exactly
    code, out, err = run(capsys, "prob", "A=B", "--state", "psi",
                         "--session", session)
    assert code == 0
    assert out.strip() == "1/2  (exact)"

    code, out, err = run(capsys, "prob", "A=B", "--state", "psi", "--json",
                         "--session", session)
    doc = json.loads(out)
    assert doc["probability"] == "1/2"
    assert doc["kind"] == "exact"
    assert doc["model_dependent"] is False

    # point spectrum query
    code, out, err = run(capsys, "prob", "A=1", "--state", "psi",
                         "--session", session)
    assert out.strip() == "1/2  (exact)"
    code, out, err = run(capsys, "prob", "A=7", "--state", "psi",
                         "--session", session)
    assert out.strip() == "0  (exact)"

    # show the truth-value projection
    code, out, err = run(capsys, "prob", "A=B", "--state", "psi",
                         "--show-projection", "--session", session)
    assert "projection:" in out

    # unknown observable name
    code, out, err = run(capsys, "prob", "A=C", "--state", "psi",
                         "--session", session)
    assert code == 2
    # malformed spec
    code, out, err = run(capsys, "prob", "A", "--state", "psi",
                         "--session", session)
    assert code == 2


def test_prob_model_dependent_tag(session, capsys, tmp_path):
    run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    run(capsys, "obs", "A", "--diag", "1,2", "--session", session)
    # rotated observable: eigenvectors (1,1) and (1,-1)
    rot = {
        "dim": 2,
        "eigen": [
            {"value": "1", "proj": [["1/2", "1/2"], ["1/2", "1/2"]]},
            {"value": "2", "proj": [["1/2", "-1/2"], ["-1/2", "1/2"]]},
        ],
    }
    obs_file = tmp_path / "rot.json"
    obs_file.write_text(json.dumps(rot))
    code, out, err = run(capsys, "obs", "R", "--file", str(obs_file),
                         "--session", session)
    assert code == 0
    run(capsys, "state", "psi", "--vector", "1,0", "--session", session)
    code, out, err = run(capsys, "prob", "A=R", "--state", "psi",
                         "--session", session)
    assert code == 0
    assert "model-dependent" in out


def test_check_laws_boolean_and_projection(session, capsys):
    run(capsys, "lattice", "B", "--boolean", "3", "--session", session)
    code, out, err = run(capsys, "check", "laws", "--lattice", "B",
                         "--session", session)
    assert code == 0
    assert "distributivity" in out

    run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    code, out, err = run(capsys, "check", "laws", "--lattice", "P",
                         "--session", session)
    assert code == 0  # the violation is expected, so the suite passes
    assert "violation found, as expected" in out

    code, out, err = run(capsys, "check", "laws", "--session", session)
    assert code == 2  # missing --lattice


def test_check_laws_failure_exit_code(session, capsys, monkeypatch):
    # wire a fabricated failing report through to confirm the exit code
    from lvset.lattice import LawReport
    run(capsys, "lattice", "B", "--boolean", "2", "--session", session)

    def broken(lattice, sample=None, max_triples=400):
        return LawReport(kind="boolean", laws={"complement-meet": False},
                         distributive=True, distributivity_witness=None,
                         orthomodular=True, pairs_checked=1, triples_checked=1)

    monkeypatch.setattr(cli, "verify_laws", broken)
    code, out, err = run(capsys, "check", "laws", "--lattice", "B",
                         "--session", session)
    assert code == 3


def test_check_scott_solovay_cli(session, capsys, tmp_path):
    run(capsys, "lattice", "B", "--boolean", "1", "--session", session)
    run(capsys, "enumerate", "F", "--lattice", "B", "--max-rank", "3",
        "--session", session)
    out_file = tmp_path / "report.json"
    code, out, err = run(capsys, "check", "scott-solovay", "--fragment", "F",
                         "--cross-check", "20", "--out", str(out_file),
                         "--session", session)
    assert code == 0
    assert "overall: pass" in out
    doc = json.loads(out_file.read_text())
    assert doc["passed"] is True
    # missing fragment name
    code, out, err = run(capsys, "check", "scott-solovay", "--session", session)
    assert code == 2


@pytest.mark.parametrize("sample", ["0", "-3"])
def test_check_transfer_refuses_a_sample_below_one(session, capsys, sample):
    run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    run(capsys, "obs", "A", "--diag", "1,2", "--session", session)
    run(capsys, "enumerate", "F", "--lattice", "P", "--max-rank", "2",
        "--values-from", "A", "--session", session)
    code, out, err = run(capsys, "check", "transfer", "--fragment", "F",
                         "--sample", sample, "--session", session)
    assert code == 2 and out == ""
    assert "at least 1" in _one_line_error(err)


def test_check_transfer_cli(session, capsys):
    run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    run(capsys, "obs", "A", "--diag", "1,2", "--session", session)
    run(capsys, "enumerate", "F", "--lattice", "P", "--max-rank", "2",
        "--values-from", "A", "--session", session)
    code, out, err = run(capsys, "check", "transfer", "--fragment", "F",
                         "--sample", "60", "--session", session)
    assert code == 0
    assert "overall: pass" in out


# Literal outputs, pinned when formulas were still evaluated by a tree walk:
# the compiled evaluator must write the same notes in the same order.
PINNED_FORMULA = "exists t . t in u -> forall y in u . y = t | ~y in t"
PINNED_TRACE = "\n".join([
    "1",
    "note: unbounded quantifier evaluated over a 1-member fragment "
    "(truncation of the full universe)",
    "  R7     exists t . t in u -> (forall y in u . y = t | ~y in t)  =>  ~ forall x . ~phi",
    "  sasaki t in u -> (forall y in u . y = t | ~y in t)  =>  ~(phi & ~(phi & psi))",
    "  R5     y = t | ~y in t  =>  ~(~phi & ~psi)",
    "  R8     t in u  =>  a0",
    "  R8     t in u  =>  a0",
    "  R9     y = t  =>  1",
    "  R1     ~y = t  =>  0",
    "  R8     y in t  =>  0",
    "  R1     ~y in t  =>  1",
    "  R1     ~~y in t  =>  0",
    "  R2     ~y = t & ~~y in t  =>  0",
    "  R1     ~(~y = t & ~~y in t)  =>  1",
    "  R3     forall y in u . ~(~y = t & ~~y in t)  =>  1",
    "  R2     t in u & (forall y in u . ~(~y = t & ~~y in t))  =>  a0",
    "  R1     ~(t in u & (forall y in u . ~(~y = t & ~~y in t)))  =>  a1",
    "  R2     t in u & ~(t in u & (forall y in u . ~(~y = t & ~~y in t)))  =>  0",
    "  R1     ~(t in u & ~(t in u & (forall y in u . ~(~y = t & ~~y in t))))  =>  1",
    "  R1     ~~(t in u & ~(t in u & (forall y in u . ~(~y = t & ~~y in t))))  =>  0",
    "  R4     forall t . ~~(t in u & ~(t in u & (forall y in u . ~(~y = t & ~~y in t))))"
    "  =>  0",
    "  R1     ~(forall t . ~~(t in u & ~(t in u & (forall y in u . ~(~y = t & ~~y in t)))))"
    "  =>  1",
]) + "\n"
PINNED_TRACE_JSON = (
    '{"formula": "exists t . t in u -> forall y in u . y = t | ~y in t", "not'
    'es": ["unbounded quantifier evaluated over a 1-member fragment (truncati'
    'on of the full universe)"], "repr": "1", "trace": [{"formula": "exists t'
    ' . t in u -> (forall y in u . y = t | ~y in t)", "result": "~ forall x .'
    ' ~phi", "rule": "R7"}, {"formula": "t in u -> (forall y in u . y = t | ~'
    'y in t)", "result": "~(phi & ~(phi & psi))", "rule": "sasaki"}, {"formul'
    'a": "y = t | ~y in t", "result": "~(~phi & ~psi)", "rule": "R5"}, {"form'
    'ula": "t in u", "result": "a0", "rule": "R8"}, {"formula": "t in u", "re'
    'sult": "a0", "rule": "R8"}, {"formula": "y = t", "result": "1", "rule": '
    '"R9"}, {"formula": "~y = t", "result": "0", "rule": "R1"}, {"formula": "'
    'y in t", "result": "0", "rule": "R8"}, {"formula": "~y in t", "result": '
    '"1", "rule": "R1"}, {"formula": "~~y in t", "result": "0", "rule": "R1"}'
    ', {"formula": "~y = t & ~~y in t", "result": "0", "rule": "R2"}, {"formu'
    'la": "~(~y = t & ~~y in t)", "result": "1", "rule": "R1"}, {"formula": "'
    'forall y in u . ~(~y = t & ~~y in t)", "result": "1", "rule": "R3"}, {"f'
    'ormula": "t in u & (forall y in u . ~(~y = t & ~~y in t))", "result": "a'
    '0", "rule": "R2"}, {"formula": "~(t in u & (forall y in u . ~(~y = t & ~'
    '~y in t)))", "result": "a1", "rule": "R1"}, {"formula": "t in u & ~(t in'
    ' u & (forall y in u . ~(~y = t & ~~y in t)))", "result": "0", "rule": "R'
    '2"}, {"formula": "~(t in u & ~(t in u & (forall y in u . ~(~y = t & ~~y '
    'in t))))", "result": "1", "rule": "R1"}, {"formula": "~~(t in u & ~(t in'
    ' u & (forall y in u . ~(~y = t & ~~y in t))))", "result": "0", "rule": "'
    'R1"}, {"formula": "forall t . ~~(t in u & ~(t in u & (forall y in u . ~('
    '~y = t & ~~y in t))))", "result": "0", "rule": "R4"}, {"formula": "~(for'
    'all t . ~~(t in u & ~(t in u & (forall y in u . ~(~y = t & ~~y in t)))))'
    '", "result": "1", "rule": "R1"}], "value": 3}\n')
PINNED_TRANSFER_JSON = (
    '{"lattice": {"dim": 2, "kind": "projection"}, "notes": [], "passed": tru'
    'e, "suite": "transfer", "sweeps": [{"coverage": "all tuples", "instances'
    '": 5, "notes": [], "passed": true, "schema": "eq-reflexivity", "witness"'
    ': null}, {"coverage": "all tuples", "instances": 25, "notes": [], "passe'
    'd": true, "schema": "eq-symmetry", "witness": null}, {"coverage": "all t'
    'uples", "instances": 125, "notes": [], "passed": true, "schema": "eq-tra'
    'nsitivity", "witness": null}, {"coverage": "all tuples", "instances": 25'
    ', "notes": [], "passed": true, "schema": "extensionality", "witness": nu'
    'll}, {"coverage": "all tuples", "instances": 125, "notes": [], "passed":'
    ' true, "schema": "and-weakening", "witness": null}, {"coverage": "all tu'
    'ples", "instances": 1, "notes": [], "passed": true, "schema": "empty-set'
    '", "witness": null}, {"coverage": "all tuples", "instances": 25, "notes"'
    ': [], "passed": true, "schema": "pairing", "witness": null}, {"coverage"'
    ': "all tuples", "instances": 125, "notes": [], "passed": true, "schema":'
    ' "subst-membership-left", "witness": null}, {"coverage": "all tuples", "'
    'instances": 125, "notes": [], "passed": true, "schema": "subst-membershi'
    'p-right", "witness": null}]}\n')


def test_eval_trace_output_is_pinned(session, capsys):
    run(capsys, "lattice", "B", "--boolean", "2", "--session", session)
    run(capsys, "set", "e", "--lattice", "B", "--empty", "--session", session)
    run(capsys, "set", "u", "--lattice", "B", "--literal", '{e: "a0"}',
        "--session", session)
    run(capsys, "enumerate", "G", "--lattice", "B", "--max-rank", "1", "--session", session)
    code, out, err = run(capsys, "eval", PINNED_FORMULA, "--fragment", "G", "--trace",
                         "--session", session)
    assert (code, out, err) == (0, PINNED_TRACE, "")
    code, out, err = run(capsys, "eval", PINNED_FORMULA, "--fragment", "G", "--trace",
                         "--json", "--session", session)
    assert (code, out, err) == (0, PINNED_TRACE_JSON, "")


def test_check_transfer_json_is_pinned(session, capsys):
    run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    run(capsys, "obs", "A", "--diag", "1,2", "--session", session)
    run(capsys, "enumerate", "F", "--lattice", "P", "--max-rank", "2",
        "--values-from", "A", "--session", session)
    code, out, err = run(capsys, "check", "transfer", "--fragment", "F", "--json",
                         "--session", session)
    assert (code, out, err) == (0, PINNED_TRANSFER_JSON, "")


def test_check_equality_axiom_demo_and_boolean(session, capsys):
    code, out, err = run(capsys, "check", "equality-axiom", "--demo",
                         "--session", session)
    assert code == 0
    assert "violation witness" in out

    run(capsys, "lattice", "B", "--boolean", "1", "--session", session)
    run(capsys, "enumerate", "F", "--lattice", "B", "--max-rank", "3",
        "--session", session)
    code, out, err = run(capsys, "check", "equality-axiom", "--fragment", "F",
                         "--session", session)
    assert code == 0
    assert "no equality-axiom violation" in out

    code, out, err = run(capsys, "check", "equality-axiom", "--session", session)
    assert code == 2


def test_json_outputs_are_byte_deterministic(session, capsys):
    run(capsys, "lattice", "B", "--boolean", "1", "--session", session)
    run(capsys, "enumerate", "F", "--lattice", "B", "--max-rank", "3",
        "--session", session)
    first = run(capsys, "check", "scott-solovay", "--fragment", "F", "--json",
                "--seed", "7", "--session", session)
    second = run(capsys, "check", "scott-solovay", "--fragment", "F", "--json",
                 "--seed", "7", "--session", session)
    assert first == second
    a = run(capsys, "eval", "forall t . t = t", "--fragment", "F", "--json",
            "--session", session)
    b = run(capsys, "eval", "forall t . t = t", "--fragment", "F", "--json",
            "--session", session)
    assert a == b


def test_state_decimal_and_validation(session, capsys):
    run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    code, out, err = run(capsys, "state", "d", "--vector",
                         "0.70710678118655,0.70710678118655i", "--decimal",
                         "--session", session)
    assert code == 0
    # unnormalized decimal state: data validation error
    code, out, err = run(capsys, "state", "bad", "--vector", "0.5,0.5",
                         "--decimal", "--session", session)
    assert code == 4
    # unparseable exact entry: usage error
    code, out, err = run(capsys, "state", "bad", "--vector", "1,zebra",
                         "--session", session)
    assert code == 2


def test_missing_session_file_starts_fresh(tmp_path, capsys):
    session = str(tmp_path / "does-not-exist-yet.json")
    code, out, err = run(capsys, "lattice", "B", "--boolean", "1",
                         "--session", session)
    assert code == 0
    # unknown names against a fresh session are usage errors
    code, out, err = run(capsys, "eval", "x = x", "--session", session)
    assert code == 2
    code, out, err = run(capsys, "check", "scott-solovay", "--fragment", "F",
                         "--session", session)
    assert code == 2


def _one_line_error(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err
    return lines[0]


def test_malformed_documents_exit_4(tmp_path, capsys):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    bad_sessions = {
        '{"lattices": {"B": {"kind": "boolean"}}}': "missing key 'atoms'",
        '["not", "a", "session"]': "session file",
        '{"sets": {"s": {"lattice_name": "B", "nodes": [{}], "roots": [0]}}}': "missing key",
        '{"lattices": {"P": {"kind": "projection", "dim": 2}},'
        ' "observables": {"A": {"dim": 2, "eigen": [{"value": "x/y", "proj": []}]}}}':
            "malformed document",
        '{"lattices": {"B": {"kind": "boolean", "atoms": 1}}': "not valid JSON",
        '': "not valid JSON",
    }
    for text, fragment in bad_sessions.items():
        session = write("bad-session.json", text)
        code, out, err = run(capsys, "lattice", "list", "--boolean", "1",
                             "--session", session)
        assert code == 4, text
        assert fragment in _one_line_error(err)
        assert open(session).read() == text  # a failed load saves nothing

    session = str(tmp_path / "session.json")
    run(capsys, "lattice", "B", "--boolean", "2", "--session", session)
    run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    bad_files = [
        ("set", "--lattice", "B", '{"nodes": [], "roots": [0]}'),
        ("set", "--lattice", "B", '{"nodes": [{"entries": [[0]]}], "roots": [0]}'),
        ("set", "--lattice", "B", '{"nodes": '),
        ("obs", None, None, '{"eigen": []}'),
        ("obs", None, None, '{"dim": 2, "eigen": [{"value": "1", "proj": [["zebra"]]}]}'),
        ("obs", None, None, '{dim: 2}'),
        ("state", None, None, '{"kind": "exact"}'),
        ("state", None, None, '{"kind": "exact", "entries": ["1", [1, 2, 3]]}'),
        ("state", None, None, '[1, 0'),
    ]
    for command, flag, value, text in bad_files:
        path = write(f"bad-{command}.json", text)
        argv = [command, "x", "--file", path, "--session", session]
        if flag:
            argv += [flag, value]
        code, out, err = run(capsys, *argv)
        assert code == 4, (command, text)
        assert path in _one_line_error(err)

    # a literal on the command line is a usage error, not a file error
    code, out, err = run(capsys, "set", "x", "--lattice", "P",
                         "--literal", "{x: [[1, 0]", "--session", session)
    assert code == 2


@pytest.mark.parametrize("literal", ["{e: 1}", "{e: [1]}", '{e: "1"}', "{e: {}}",
                                     "{e: [[1, 0]]}"])
def test_projection_literal_that_is_not_a_square_matrix_exits_4(session, capsys, literal):
    run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    run(capsys, "set", "e", "--lattice", "P", "--empty", "--session", session)
    code, out, err = run(capsys, "set", "f", "--lattice", "P", "--literal", literal,
                         "--session", session)
    assert code == 4, literal
    assert "matri" in _one_line_error(err)


def test_set_with_a_repeated_key_exits_4(tmp_path, session, capsys):
    run(capsys, "lattice", "P", "--projection", "2", "--session", session)
    run(capsys, "set", "e", "--lattice", "P", "--empty", "--session", session)
    saved = open(session).read()
    literal = '{e: [[1, 0], [0, 0]], e: [["1/2", "1/2"], ["1/2", "1/2"]]}'
    code, out, err = run(capsys, "set", "u", "--lattice", "P", "--literal", literal,
                         "--session", session)
    assert code == 4 and out == ""
    assert "appears twice" in _one_line_error(err)
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"nodes": [{"entries": []},
                                          {"entries": [[0, [[1, 0], [0, 0]]],
                                                       [0, [[0, 0], [0, 1]]]]}],
                                "roots": [1]}))
    code, out, err = run(capsys, "set", "u", "--lattice", "P", "--file", str(path),
                         "--session", session)
    assert code == 4 and out == ""
    assert "appears twice" in _one_line_error(err)
    assert open(session).read() == saved


def test_trace_is_an_eval_option_only(session, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lattice", "B", "--boolean", "1", "--trace", "--session", session])
    assert exc.value.code == 2
    assert "--trace" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [-1, 0])
def test_spectral_file_with_dimension_below_one_exits_4(tmp_path, session, capsys, dim):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"dim": dim, "eigen": []}))
    code, out, err = run(capsys, "obs", "Z", "--file", str(path), "--session", session)
    assert code == 4 and out == ""
    assert "dimension >= 1" in _one_line_error(err)


@pytest.mark.parametrize("failing", ["serialize", "replace"])
def test_writes_are_atomic(tmp_path, capsys, monkeypatch, failing):
    session = str(tmp_path / "session.json")
    report = str(tmp_path / "report.json")
    run(capsys, "lattice", "B", "--boolean", "1", "--session", session)
    code, _, _ = run(capsys, "check", "laws", "--lattice", "B", "--out", report,
                     "--session", session)
    assert code == 0
    before = {p: open(p).read() for p in (session, report)}

    def boom(*args, **kwargs):
        raise OSError("disk gone")

    if failing == "serialize":
        monkeypatch.setattr(cli, "_dumps", boom)
    else:
        monkeypatch.setattr(cli.os, "replace", boom)
    code, _, err = run(capsys, "lattice", "C", "--boolean", "2", "--session", session)
    assert code == 4 and "disk gone" in err
    code, _, err = run(capsys, "check", "laws", "--lattice", "B", "--out", report,
                       "--session", session)
    assert code == 4 and "disk gone" in err
    assert {p: open(p).read() for p in (session, report)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "session.json"]


def test_python_dash_m_runs_the_cli(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    session = str(tmp_path / "s.json")
    done = subprocess.run([sys.executable, "-m", "lvset", "lattice", "B", "--boolean", "2",
                           "--json", "--session", session],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"lattice": {"atoms": 2, "kind": "boolean"}, "name": "B"}
    assert json.loads(open(session).read())["lattices"] == {"B": {"atoms": 2, "kind": "boolean"}}
    done = subprocess.run([sys.executable, "-m", "lvset", "eval", "x = x"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2


# Literal stdout of two reports, pinned so that caching in the lattice,
# the seeded generators or any interning of values cannot change them.
LAWS_P3_RANDOM6_SEED3 = (
    '{"distributive": false, "distributivity_witness": [[["1", "0", '
    '"0"], ["0", "0", "0"], ["0", "0", "0"]], [["1/2", "1/2", "0"], '
    '["1/2", "1/2", "0"], ["0", "0", "0"]], [["1/2", "-1/2", "0"], '
    '["-1/2", "1/2", "0"], ["0", "0", "1"]]], "kind": "projection", '
    '"laws": {"absorption": true, "commutes-vs-matrix": true, '
    '"complement-join": true, "complement-meet": true, '
    '"de-morgan": true, "double-complement": true, '
    '"meet-join-duality": true, "order-reversal": true, '
    '"orthomodularity": true}, '
    '"notes": ["sampled 8 projections in dimension 3"], '
    '"orthomodular": true, "pairs_checked": 64, "triples_checked": 1}'
    "\n")

EQUALITY_AXIOM_DEMO = (
    '{"lattice": {"dim": 2, "kind": "projection"}, '
    '"suite": "equality-axiom", "witness": {"equality": [["0", "0"], '
    '["0", "1"]], "kind": "membership-left", "lhs_meet": [["0", "0"], '
    '["0", "1"]], "phi_u": [["1", "0"], ["0", "1"]], "phi_v": [["0", '
    '"0"], ["0", "0"]], "sets": {"lattice": {"dim": 2, '
    '"kind": "projection"}, "nodes": [{"entries": []}, {"entries": [[0, '
    '[["1", "0"], ["0", "0"]]]]}, {"entries": [[0, [["0", "0"], ["0", '
    '"1"]]]]}, {"entries": [[0, [["1/2", "1/2"], ["1/2", "1/2"]]]]}, '
    '{"entries": [[2, [["1", "0"], ["0", "0"]]], [3, [["1/2", "-1/2"], '
    '["-1/2", "1/2"]]]]}], "roots": [0, 1, 4]}}}'
    "\n")


def test_golden_laws_and_equality_axiom_outputs(session, capsys):
    run(capsys, "lattice", "P", "--projection", "3", "--session", session)
    code, out, err = run(capsys, "check", "laws", "--lattice", "P", "--random", "6",
                         "--seed", "3", "--json", "--session", session)
    assert code == 0
    assert out == LAWS_P3_RANDOM6_SEED3
    code, out, err = run(capsys, "check", "equality-axiom", "--demo", "--json",
                         "--session", session)
    assert code == 0
    assert out == EQUALITY_AXIOM_DEMO
