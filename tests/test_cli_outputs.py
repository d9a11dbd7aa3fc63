"""Literal output of every subcommand, and which commands may write files.

The pinned runs go in order through one session in a fresh directory: each
define command in text and --json form, then eval, the four check suites and
prob reading what they defined. Every check run in --json form also writes
its report with --out, which must hold the same bytes as stdout.
"""

import hashlib
import json
import os

import pytest

from lvset import cli

SET_FILE = {"nodes": [{"entries": []}, {"entries": [[0, "a1"]]}], "roots": [1]}
ROT_FILE = {"dim": 2, "eigen": [
    {"value": "1", "proj": [["1/2", "1/2"], ["1/2", "1/2"]]},
    {"value": "2", "proj": [["1/2", "-1/2"], ["-1/2", "1/2"]]}]}

DEFINE_COMMANDS = ("lattice", "set", "obs", "state", "enumerate")
READ_ONLY_COMMANDS = ("eval", "check", "prob")

PINNED_RUNS = [
    (["lattice", "B", "--boolean", "2"],
     'lattice B: {"atoms": 2, "kind": "boolean"}\n'),
    (["lattice", "B", "--boolean", "2", "--json"],
     '{"lattice": {"atoms": 2, "kind": "boolean"}, "name": "B"}\n'),
    (["lattice", "B1", "--boolean", "1"],
     'lattice B1: {"atoms": 1, "kind": "boolean"}\n'),
    (["lattice", "P", "--projection", "2", "--json"],
     '{"lattice": {"dim": 2, "kind": "projection"}, "name": "P"}\n'),
    (["set", "e", "--lattice", "B", "--empty"],
     'set e: rank 1, 0 entries\n'),
    (["set", "e", "--lattice", "B", "--empty", "--json"],
     '{"entries": 0, "name": "e", "rank": 1}\n'),
    (["set", "u", "--lattice", "B", "--literal", '{e: "a0"}'],
     'set u: rank 2, 1 entries\n'),
    (["set", "u", "--lattice", "B", "--literal", "{e: 1}", "--json"],
     '{"entries": 1, "name": "u", "rank": 2}\n'),
    (["set", "f", "--lattice", "B", "--file", "set.json"],
     'set f: rank 2, 1 entries\n'),
    (["set", "f", "--lattice", "B", "--file", "set.json", "--json"],
     '{"entries": 1, "name": "f", "rank": 2}\n'),
    (["set", "two", "--lattice", "B", "--check", "2"],
     'set two: rank 3, 2 entries\n'),
    (["set", "two", "--lattice", "B", "--check", "2", "--json"],
     '{"entries": 2, "name": "two", "rank": 3}\n'),
    (["obs", "A", "--diag", "1,2"],
     'observable A: dim 2, eigenvalues 1, 2\n'),
    (["obs", "A", "--diag", "1,2", "--json"],
     '{"dim": 2, "eigenvalues": ["1", "2"], "name": "A"}\n'),
    (["obs", "B", "--diag", "1,3"],
     'observable B: dim 2, eigenvalues 1, 3\n'),
    (["obs", "R", "--file", "rot.json"],
     'observable R: dim 2, eigenvalues 1, 2\n'),
    (["obs", "R", "--file", "rot.json", "--json"],
     '{"dim": 2, "eigenvalues": ["1", "2"], "name": "R"}\n'),
    (["state", "psi", "--vector", "1,1"],
     'state psi: dim 2, exact\n'),
    (["state", "psi", "--vector", "1,1", "--json"],
     '{"dim": 2, "kind": "exact", "name": "psi"}\n'),
    (["state", "d", "--vector", "0.6,0.8i", "--decimal"],
     'state d: dim 2, decimal\n'),
    (["state", "d", "--vector", "0.6,0.8i", "--decimal", "--json"],
     '{"dim": 2, "kind": "decimal", "name": "d"}\n'),
    (["enumerate", "F", "--lattice", "B1", "--max-rank", "2"],
     'fragment F: 3 members (rank 1: 1, rank 2: 2)\n'),
    (["enumerate", "F", "--lattice", "B1", "--max-rank", "2", "--json"],
     '{"by_rank": {"1": 1, "2": 2}, "members": 3, "name": "F"}\n'),
    (["enumerate", "G", "--lattice", "P", "--max-rank", "2", "--values-from", "A"],
     'fragment G: 5 members (rank 1: 1, rank 2: 4)\n'),
    (["enumerate", "G", "--lattice", "P", "--max-rank", "2", "--values-from", "A,R",
      "--json"],
     '{"by_rank": {"1": 1, "2": 6}, "members": 7, "name": "G"}\n'),
    (["eval", "forall t . t = t", "--fragment", "F"],
     ('1\n'
      'note: unbounded quantifier evaluated over a 3-member fragment (truncation of t'
      'he full universe)\n')),
    (["eval", "forall t . t = t", "--fragment", "F", "--json"],
     ('{"formula": "forall t . t = t", "notes": ["unbounded quantifier evaluated over'
      ' a 3-member fragment (truncation of the full universe)"], "repr": "1", "value"'
      ': 1}\n')),
    (["eval", "e in f | two = two"],
     '1\n'),
    (["check", "laws", "--lattice", "B"],
     ('lattice kind: boolean\n'
      '  complement-meet        holds\n'
      '  complement-join        holds\n'
      '  double-complement      holds\n'
      '  order-reversal         holds\n'
      '  de-morgan              holds\n'
      '  absorption             holds\n'
      '  orthomodularity        holds\n'
      '  meet-join-duality      holds\n'
      '  distributivity         holds\n'
      '  pairs checked: 16, triples checked: 64\n'
      '  note: full enumeration of 4 elements\n')),
    (["check", "laws", "--lattice", "B", "--json", "--out", "report.json"],
     ('{"distributive": true, "distributivity_witness": null, "kind": "boolean", "law'
      's": {"absorption": true, "complement-join": true, "complement-meet": true, "de'
      '-morgan": true, "double-complement": true, "meet-join-duality": true, "order-r'
      'eversal": true, "orthomodularity": true}, "notes": ["full enumeration of 4 ele'
      'ments"], "orthomodular": true, "pairs_checked": 16, "triples_checked": 64}\n')),
    (["check", "laws", "--lattice", "P", "--random", "4", "--triples", "40"],
     ('lattice kind: projection\n'
      '  complement-meet        holds\n'
      '  complement-join        holds\n'
      '  double-complement      holds\n'
      '  order-reversal         holds\n'
      '  de-morgan              holds\n'
      '  absorption             holds\n'
      '  orthomodularity        holds\n'
      '  meet-join-duality      holds\n'
      '  commutes-vs-matrix     holds\n'
      '  distributivity         violated\n'
      '    witness: a=Projection(dim=2, rank=1), b=Projection(dim=2, rank=1), c=Proje'
      'ction(dim=2, rank=1)\n'
      '    a∧(b∨c) ≠ (a∧b)∨(a∧c)\n'
      '  pairs checked: 36, triples checked: 1\n'
      '  note: sampled 6 projections in dimension 2\n'
      'distributivity violation found, as expected for projections\n')),
    (["check", "laws", "--lattice", "P", "--random", "4", "--triples", "40", "--json",
      "--out", "report.json"],
     ('{"distributive": false, "distributivity_witness": [[["1", "0"], ["0", "0"]], ['
      '["1/2", "1/2"], ["1/2", "1/2"]], [["1/2", "-1/2"], ["-1/2", "1/2"]]], "kind": '
      '"projection", "laws": {"absorption": true, "commutes-vs-matrix": true, "comple'
      'ment-join": true, "complement-meet": true, "de-morgan": true, "double-compleme'
      'nt": true, "meet-join-duality": true, "order-reversal": true, "orthomodularity'
      '": true}, "notes": ["sampled 6 projections in dimension 2"], "orthomodular": t'
      'rue, "pairs_checked": 36, "triples_checked": 1}\n')),
    (["check", "scott-solovay", "--fragment", "F", "--cross-check", "5"],
     ('suite: scott-solovay   lattice: {"kind": "boolean", "atoms": 1}\n'
      '  eq-reflexivity             pass  all members            instances=3\n'
      '  eq-symmetry                pass  all pairs              instances=9\n'
      '  eq-transitivity            pass  all triples (plane method) instances=27\n'
      '  extensionality             pass  all pairs              instances=9\n'
      '  and-weakening              pass  all triples (vanishing core) instances=27\n'
      '  empty-set                  pass  single instance        instances=1\n'
      '  pairing                    pass  all pairs (via reflexivity) instances=9\n'
      '      note: membership in the constructed pair contains [[x=x]]\n'
      '  subst-membership-left      pass  all triples (plane method) instances=27\n'
      '  subst-membership-right     pass  all triples (plane method) instances=27\n'
      '  evaluator-cross-check      pass  sampled tuples         instances=9\n'
      '      note: 9 random instances re-evaluated generically\n'
      '  control-distinct           pass  sensitivity control    instances=1\n'
      '      note: distinct check-sets evaluate to 0, verdict not-a-theorem-control\n'
      '  overall: pass\n')),
    (["check", "scott-solovay", "--fragment", "F", "--cross-check", "5", "--json",
      "--out", "report.json"],
     ('{"lattice": {"atoms": 1, "kind": "boolean"}, "notes": [], "passed": true, "sui'
      'te": "scott-solovay", "sweeps": [{"coverage": "all members", "instances": 3, "'
      'notes": [], "passed": true, "schema": "eq-reflexivity", "witness": null}, {"co'
      'verage": "all pairs", "instances": 9, "notes": [], "passed": true, "schema": "'
      'eq-symmetry", "witness": null}, {"coverage": "all triples (plane method)", "in'
      'stances": 27, "notes": [], "passed": true, "schema": "eq-transitivity", "witne'
      'ss": null}, {"coverage": "all pairs", "instances": 9, "notes": [], "passed": t'
      'rue, "schema": "extensionality", "witness": null}, {"coverage": "all triples ('
      'vanishing core)", "instances": 27, "notes": [], "passed": true, "schema": "and'
      '-weakening", "witness": null}, {"coverage": "single instance", "instances": 1,'
      ' "notes": [], "passed": true, "schema": "empty-set", "witness": null}, {"cover'
      'age": "all pairs (via reflexivity)", "instances": 9, "notes": ["membership in '
      'the constructed pair contains [[x=x]]"], "passed": true, "schema": "pairing", '
      '"witness": null}, {"coverage": "all triples (plane method)", "instances": 27, '
      '"notes": [], "passed": true, "schema": "subst-membership-left", "witness": nul'
      'l}, {"coverage": "all triples (plane method)", "instances": 27, "notes": [], "'
      'passed": true, "schema": "subst-membership-right", "witness": null}, {"coverag'
      'e": "sampled tuples", "instances": 9, "notes": ["9 random instances re-evaluat'
      'ed generically"], "passed": true, "schema": "evaluator-cross-check", "witness"'
      ': null}, {"coverage": "sensitivity control", "instances": 1, "notes": ["distin'
      'ct check-sets evaluate to 0, verdict not-a-theorem-control"], "passed": true, '
      '"schema": "control-distinct", "witness": null}]}\n')),
    (["check", "transfer", "--fragment", "G", "--sample", "3"],
     ('suite: transfer   lattice: {"kind": "projection", "dim": 2}\n'
      '  eq-reflexivity             pass  sampled tuples         instances=3\n'
      '  eq-symmetry                pass  sampled tuples         instances=3\n'
      '  eq-transitivity            pass  sampled tuples         instances=3\n'
      '  extensionality             pass  sampled tuples         instances=3\n'
      '  and-weakening              pass  sampled tuples         instances=3\n'
      '  empty-set                  pass  all tuples             instances=1\n'
      '  pairing                    pass  sampled tuples         instances=3\n'
      '  subst-membership-left      pass  sampled tuples         instances=3\n'
      '  subst-membership-right     pass  sampled tuples         instances=3\n'
      '  overall: pass\n')),
    (["check", "transfer", "--fragment", "G", "--sample", "3", "--json", "--out",
      "report.json"],
     ('{"lattice": {"dim": 2, "kind": "projection"}, "notes": [], "passed": true, "su'
      'ite": "transfer", "sweeps": [{"coverage": "sampled tuples", "instances": 3, "n'
      'otes": [], "passed": true, "schema": "eq-reflexivity", "witness": null}, {"cov'
      'erage": "sampled tuples", "instances": 3, "notes": [], "passed": true, "schema'
      '": "eq-symmetry", "witness": null}, {"coverage": "sampled tuples", "instances"'
      ': 3, "notes": [], "passed": true, "schema": "eq-transitivity", "witness": null'
      '}, {"coverage": "sampled tuples", "instances": 3, "notes": [], "passed": true,'
      ' "schema": "extensionality", "witness": null}, {"coverage": "sampled tuples", '
      '"instances": 3, "notes": [], "passed": true, "schema": "and-weakening", "witne'
      'ss": null}, {"coverage": "all tuples", "instances": 1, "notes": [], "passed": '
      'true, "schema": "empty-set", "witness": null}, {"coverage": "sampled tuples", '
      '"instances": 3, "notes": [], "passed": true, "schema": "pairing", "witness": n'
      'ull}, {"coverage": "sampled tuples", "instances": 3, "notes": [], "passed": tr'
      'ue, "schema": "subst-membership-left", "witness": null}, {"coverage": "sampled'
      ' tuples", "instances": 3, "notes": [], "passed": true, "schema": "subst-member'
      'ship-right", "witness": null}]}\n')),
    (["check", "equality-axiom", "--demo"],
     ('equality-axiom violation witness:\n'
      '  membership-left: meet([[u=v]]=proj(rank 1 of 2), [[phi(u)]]=1) is not below '
      '[[phi(v)]]=0\n'
      '  {"equality": [["0", "0"], ["0", "1"]], "kind": "membership-left", "lhs_meet"'
      ': [["0", "0"], ["0", "1"]], "phi_u": [["1", "0"], ["0", "1"]], "phi_v": [["0",'
      ' "0"], ["0", "0"]], "sets": {"lattice": {"dim": 2, "kind": "projection"}, "nod'
      'es": [{"entries": []}, {"entries": [[0, [["1", "0"], ["0", "0"]]]]}, {"entries'
      '": [[0, [["0", "0"], ["0", "1"]]]]}, {"entries": [[0, [["1/2", "1/2"], ["1/2",'
      ' "1/2"]]]]}, {"entries": [[2, [["1", "0"], ["0", "0"]]], [3, [["1/2", "-1/2"],'
      ' ["-1/2", "1/2"]]]]}], "roots": [0, 1, 4]}}\n')),
    (["check", "equality-axiom", "--fragment", "F"],
     'no equality-axiom violation: equal sets are intersubstitutable here\n'),
    (["check", "equality-axiom", "--sets", "e,u,f", "--json", "--out", "report.json"],
     ('{"lattice": {"atoms": 2, "kind": "boolean"}, "suite": "equality-axiom", "witne'
      'ss": null}\n')),
    (["prob", "A=B", "--state", "psi", "--show-projection"],
     ('1/2  (exact)\n'
      'projection: [["1", "0"], ["0", "0"]]\n')),
    (["prob", "A=B", "--state", "psi", "--show-projection", "--json"],
     ('{"kind": "exact", "model_dependent": false, "probability": "1/2", "projection"'
      ': [["1", "0"], ["0", "0"]], "spec": "A=B"}\n')),
    (["prob", "A=R", "--state", "psi"],
     '0  (model-dependent: operators do not commute)  (exact)\n'),
    (["prob", "A=1", "--state", "psi"],
     '1/2  (exact)\n'),
    (["prob", "A=1", "--state", "d", "--json"],
     ('{"kind": "decimal", "model_dependent": false, "probability": 0.36, "spec": "A='
      '1"}\n')),
]

# the session file the pinned runs leave behind
SESSION_SHA256 = "d0653d081893e9fa252c86c6d00477530a42a7d3683819c0054a7c0b7904c846"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "set.json").write_text(json.dumps(SET_FILE))
    (tmp_path / "rot.json").write_text(json.dumps(ROT_FILE))
    return tmp_path


def test_every_subcommand_output_is_pinned(workdir, capsys):
    for argv, expected in PINNED_RUNS:
        assert run(capsys, *argv, "--session", "session.json") == (0, expected, ""), argv
        if "--out" in argv:
            assert (workdir / "report.json").read_text() == expected, argv
    session = (workdir / "session.json").read_bytes()
    assert hashlib.sha256(session).hexdigest() == SESSION_SHA256
    assert sorted(os.listdir(workdir)) == ["report.json", "rot.json", "session.json",
                                           "set.json"]


def test_read_only_commands_never_create_a_session(workdir, capsys):
    for argv, _ in PINNED_RUNS:
        if argv[0] in READ_ONLY_COMMANDS:
            code, _, _ = run(capsys, *argv, "--session", "missing.json")
            # the demo needs no names; every other run names something unknown
            assert code == (0 if "--demo" in argv else 2), argv
    assert sorted(os.listdir(workdir)) == ["rot.json", "set.json"]


def test_read_only_commands_leave_the_session_bytes_alone(workdir, capsys):
    for argv, _ in PINNED_RUNS:
        if argv[0] in DEFINE_COMMANDS:
            run(capsys, *argv, "--session", "session.json")
    # the same document, laid out as no save would write it
    session = workdir / "session.json"
    session.write_text(json.dumps(json.loads(session.read_text()), indent=1))
    before = session.read_bytes()
    for argv, expected in PINNED_RUNS:
        if argv[0] in READ_ONLY_COMMANDS:
            assert run(capsys, *argv, "--session", "session.json") == (0, expected, ""), argv
            assert session.read_bytes() == before, argv
    assert sorted(os.listdir(workdir)) == ["report.json", "rot.json", "session.json",
                                           "set.json"]


# one pinned run of each command that is not check
OTHER_COMMANDS = {argv[0]: argv for argv, _ in PINNED_RUNS if argv[0] != "check"}


@pytest.mark.parametrize("command", sorted(OTHER_COMMANDS))
def test_out_is_a_check_option_only(workdir, capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([*OTHER_COMMANDS[command], "--out", "report.json",
                  "--session", "session.json"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert sorted(os.listdir(workdir)) == ["rot.json", "set.json"]
