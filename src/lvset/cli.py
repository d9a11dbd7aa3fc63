"""Command-line surface for the toolkit.

Build lattices, sets, observables, states and fragments into a session file,
evaluate formulas against them, run the check suites, and compute Born-rule
probabilities. All output is deterministic for fixed inputs and flags; JSON
documents are emitted with sorted keys.

Exit codes: 0 success, 2 usage or parse error, 3 check failure,
4 data validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from typing import Optional

from . import verification as vf
from .exactnum import ONE, ZERO, parse_entry
from .formula import FormulaError, eval_formula, free_variables, parse
from .formula import Environment
from .lattice import (BooleanLattice, Lattice, LatticeError, ProjectionLattice,
                      lattice_from_json, lattice_to_json, verify_laws)
from .projections import (SpectralData, proj_from_span, projection_to_json,
                          spectral_from_json, spectral_to_json)
from .qreals import (ProbabilityResult, StateVector, born_probability,
                     observational_atom, prob_equal)
from .universe import (QSet, UniverseFragment, empty_qset, enumerate_fragment,
                       fragment_from_json, fragment_to_json, make_qset,
                       numerals, qsets_from_json, qsets_to_json)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK = 3
EXIT_DATA = 4


class UsageError(Exception):
    """Bad arguments or unresolved names; exits with code 2."""


class DataError(Exception):
    """A file that does not hold a valid document; exits with code 4."""


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def _read_document(path: str, what: str, build):
    """Decode the JSON file at `path` and build it with `build`.

    Invalid JSON and documents of the wrong shape (a missing key, a value of
    the wrong type or an entry that does not parse) raise DataError naming
    the file; LatticeError from the builder passes through unchanged.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{what} file {path}: not valid JSON: {exc}") from None
    try:
        return build(doc)
    except KeyError as exc:
        raise DataError(f"{what} file {path}: missing key {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"{what} file {path}: malformed document: {exc}") from None


def _write_atomic(path: str, text: str) -> None:
    """Replace the file at `path` by `text` in one step.

    The text goes to a temporary file in the same directory, which is
    flushed to disk and renamed over the target, so a failure at any point
    leaves the old file whole.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# ------------------------------------------------------------- workspace

class Workspace:
    """Named lattices, sets, observables, states and fragments, loaded from
    and saved to a single session JSON document."""

    def __init__(self):
        self.lattices: dict = {}
        self.sets: dict = {}        # name -> (lattice_name, QSet)
        self.observables: dict = {}
        self.states: dict = {}
        self.fragments: dict = {}   # name -> (lattice_name, UniverseFragment)

    # -- name resolution

    def lattice(self, name: str) -> Lattice:
        if name not in self.lattices:
            raise UsageError(f"unknown lattice {name!r}")
        return self.lattices[name]

    def qset(self, name: str) -> QSet:
        if name not in self.sets:
            raise UsageError(f"unknown set {name!r}")
        return self.sets[name][1]

    def observable(self, name: str) -> SpectralData:
        if name not in self.observables:
            raise UsageError(f"unknown observable {name!r}")
        return self.observables[name]

    def state(self, name: str) -> StateVector:
        if name not in self.states:
            raise UsageError(f"unknown state {name!r}")
        return self.states[name]

    def fragment(self, name: str) -> UniverseFragment:
        if name not in self.fragments:
            raise UsageError(f"unknown fragment {name!r}")
        return self.fragments[name][1]

    # -- persistence

    def to_json(self) -> dict:
        sets_doc = {}
        for name, (lat_name, q) in self.sets.items():
            doc = qsets_to_json([q], q.lattice)
            doc["lattice_name"] = lat_name
            sets_doc[name] = doc
        frag_doc = {}
        for name, (lat_name, frag) in self.fragments.items():
            doc = fragment_to_json(frag)
            doc["lattice_name"] = lat_name
            frag_doc[name] = doc
        return {
            "lattices": {n: lattice_to_json(l) for n, l in self.lattices.items()},
            "sets": sets_doc,
            "observables": {n: spectral_to_json(s) for n, s in self.observables.items()},
            "states": {n: s.to_json() for n, s in self.states.items()},
            "fragments": frag_doc,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Workspace":
        ws = cls()
        for name, lat_doc in doc.get("lattices", {}).items():
            ws.lattices[name] = lattice_from_json(lat_doc)
        for name, set_doc in doc.get("sets", {}).items():
            lat_name = set_doc.get("lattice_name")
            lattice = ws.lattices.get(lat_name)
            lattice, roots = qsets_from_json(set_doc, lattice)
            if len(roots) != 1:
                raise LatticeError(f"set {name!r} must have exactly one root")
            ws.sets[name] = (lat_name, roots[0])
        for name, sd_doc in doc.get("observables", {}).items():
            ws.observables[name] = spectral_from_json(sd_doc)
        for name, st_doc in doc.get("states", {}).items():
            ws.states[name] = StateVector.from_json(st_doc)
        for name, fr_doc in doc.get("fragments", {}).items():
            lat_name = fr_doc.get("lattice_name")
            frag = fragment_from_json(fr_doc)
            ws.fragments[name] = (lat_name, frag)
        return ws

    def save(self, path: str) -> None:
        _write_atomic(path, _dumps(self.to_json()) + "\n")

    @classmethod
    def load(cls, path: str) -> "Workspace":
        return _read_document(path, "session", cls.from_json)


def _load_workspace(args) -> Workspace:
    path = getattr(args, "session", None)
    if path:
        try:
            return Workspace.load(path)
        except FileNotFoundError:
            return Workspace()
    return Workspace()


def _save_workspace(ws: Workspace, args) -> None:
    path = getattr(args, "session", None)
    if path:
        ws.save(path)


# ------------------------------------------------------- set literals

def _split_top_level(text: str) -> list:
    """Split on commas that are not nested inside brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p for p in (part.strip() for part in parts) if p]


def parse_set_literal(text: str, lattice: Lattice, ws: Workspace) -> QSet:
    """Literals look like {} or {name: element, ...}; keys are previously
    defined set names. Boolean elements use the display forms 0, 1, a0|a1
    (quoted or bare); projection elements are JSON matrices."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise UsageError("set literal must be enclosed in braces")
    body = text[1:-1].strip()
    if not body:
        return empty_qset(lattice)
    entries = []
    for part in _split_top_level(body):
        if ":" not in part:
            raise UsageError(f"expected 'name: element' in set literal, got {part!r}")
        key_name, value_text = part.split(":", 1)
        key = ws.qset(key_name.strip())
        value_text = value_text.strip()
        if isinstance(lattice, BooleanLattice):
            # always read the display form, so that 1 means the unit of the
            # lattice rather than the raw bitmask of atom a0
            try:
                loaded = json.loads(value_text)
            except json.JSONDecodeError:
                loaded = value_text
            token = loaded if isinstance(loaded, str) else value_text
            entries.append((key, lattice.element_from_json(token)))
        else:
            try:
                value_doc = json.loads(value_text)
            except json.JSONDecodeError:
                raise UsageError(f"cannot parse element {value_text!r} as JSON")
            entries.append((key, lattice.element_from_json(value_doc)))
    return make_qset(lattice, entries)


# ---------------------------------------------------------- subcommands

def cmd_lattice(args) -> int:
    ws = _load_workspace(args)
    if (args.boolean is None) == (args.projection is None):
        raise UsageError("specify exactly one of --boolean ATOMS or --projection DIM")
    if args.boolean is not None:
        lat: Lattice = BooleanLattice(args.boolean)
    else:
        lat = ProjectionLattice(args.projection)
    ws.lattices[args.name] = lat
    _save_workspace(ws, args)
    if args.json:
        print(_dumps({"name": args.name, "lattice": lat.describe()}))
    else:
        print(f"lattice {args.name}: {_dumps(lat.describe())}")
    return EXIT_OK


def cmd_set(args) -> int:
    ws = _load_workspace(args)
    lattice = ws.lattice(args.lattice)
    sources = [s for s in (args.literal, args.file) if s is not None]
    if args.empty:
        sources.append("{}")
    if args.check is not None:
        sources.append(str(args.check))
    if len(sources) != 1:
        raise UsageError("specify exactly one of --literal, --file, --empty, --check")
    if args.empty:
        q = empty_qset(lattice)
    elif args.check is not None:
        if args.check < 0:
            raise UsageError("check sets are defined for nonnegative integers")
        q = numerals(lattice, args.check + 1)[args.check]
    elif args.literal is not None:
        q = parse_set_literal(args.literal, lattice, ws)
    else:
        _, roots = _read_document(args.file, "set",
                                  lambda doc: qsets_from_json(doc, lattice))
        if len(roots) != 1:
            raise LatticeError("set file must contain exactly one root")
        q = roots[0]
    ws.sets[args.name] = (args.lattice, q)
    _save_workspace(ws, args)
    summary = {"name": args.name, "rank": q.rank, "entries": len(q.entries)}
    if args.json:
        print(_dumps(summary))
    else:
        print(f"set {args.name}: rank {q.rank}, {len(q.entries)} entries")
    return EXIT_OK


def _diag_spectral(text: str) -> SpectralData:
    values = [Fraction(part.strip()) for part in text.split(",")]
    dim = len(values)
    eigen = []
    for v in sorted(set(values)):
        vecs = []
        for i, x in enumerate(values):
            if x == v:
                basis = [ZERO] * dim
                basis[i] = ONE
                vecs.append(tuple(basis))
        eigen.append((v, proj_from_span(vecs, dim)))
    return SpectralData(dim=dim, eigen=tuple(eigen))


def cmd_obs(args) -> int:
    ws = _load_workspace(args)
    if (args.diag is None) == (args.file is None):
        raise UsageError("specify exactly one of --diag or --file")
    if args.diag is not None:
        sd = _diag_spectral(args.diag)
    else:
        sd = _read_document(args.file, "spectral", spectral_from_json)
    ws.observables[args.name] = sd
    _save_workspace(ws, args)
    eigenvals = [str(v) for v in sd.eigenvalues()]
    if args.json:
        print(_dumps({"name": args.name, "dim": sd.dim, "eigenvalues": eigenvals}))
    else:
        print(f"observable {args.name}: dim {sd.dim}, eigenvalues {', '.join(eigenvals)}")
    return EXIT_OK


def cmd_state(args) -> int:
    ws = _load_workspace(args)
    if (args.vector is None) == (args.file is None):
        raise UsageError("specify exactly one of --vector or --file")
    if args.vector is not None:
        parts = [p.strip() for p in args.vector.split(",")]
        if args.decimal:
            st = StateVector([complex(p.replace("i", "j")) for p in parts], exact=False)
        else:
            st = StateVector([parse_entry(p) for p in parts], exact=True)
    else:
        st = _read_document(args.file, "state", StateVector.from_json)
    ws.states[args.name] = st
    _save_workspace(ws, args)
    mode = "exact" if st.exact else "decimal"
    if args.json:
        print(_dumps({"name": args.name, "dim": st.dim, "kind": mode}))
    else:
        print(f"state {args.name}: dim {st.dim}, {mode}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    ws = _load_workspace(args)
    lattice = ws.lattice(args.lattice)
    values = None
    if args.values_from:
        if not isinstance(lattice, ProjectionLattice):
            raise UsageError("--values-from applies to projection lattices")
        values = [lattice.bottom(), lattice.top()]
        for obs_name in args.values_from.split(","):
            sd = ws.observable(obs_name.strip())
            if sd.dim != lattice.dim:
                raise LatticeError(
                    f"observable {obs_name!r} has dimension {sd.dim}, lattice has {lattice.dim}")
            for _, p in sd.eigen:
                values.append(p)
                values.append(p.complement())
    frag = enumerate_fragment(lattice, args.max_rank, values=values, limit=args.limit)
    ws.fragments[args.name] = (args.lattice, frag)
    _save_workspace(ws, args)
    by_rank = {str(r): len(frag.by_rank(r)) for r in range(1, frag.max_rank() + 1)}
    if args.json:
        print(_dumps({"name": args.name, "members": len(frag), "by_rank": by_rank}))
    else:
        per = ", ".join(f"rank {r}: {c}" for r, c in by_rank.items())
        print(f"fragment {args.name}: {len(frag)} members ({per})")
    return EXIT_OK


def cmd_eval(args) -> int:
    ws = _load_workspace(args)
    formula = parse(args.formula)

    names = sorted(free_variables(formula))
    bindings = {}
    lattice: Optional[Lattice] = None
    fragment = None
    if args.fragment:
        fragment = ws.fragment(args.fragment)
        lattice = fragment.lattice
    for name in names:
        q = ws.qset(name)
        bindings[name] = q
        if lattice is None:
            lattice = q.lattice
        elif q.lattice != lattice:
            raise UsageError(f"set {name!r} belongs to a different lattice")
    if lattice is None:
        if args.lattice:
            lattice = ws.lattice(args.lattice)
        else:
            raise UsageError(
                "closed formulas need --fragment or --lattice to fix the lattice")

    env = Environment(lattice, bindings, fragment=fragment)
    trace: Optional[list] = [] if args.trace else None
    value = eval_formula(formula, env, trace)

    doc = {
        "formula": args.formula,
        "value": lattice.element_to_json(value),
        "repr": lattice.element_repr(value),
        "notes": list(env.notes),
    }
    if trace is not None:
        doc["trace"] = trace
    if args.json:
        print(_dumps(doc))
        return EXIT_OK
    print(lattice.element_repr(value))
    for note in env.notes:
        print(f"note: {note}")
    if trace is not None:
        for step in trace:
            print(f"  {step['rule']:<6} {step['formula']}  =>  {step['result']}")
    return EXIT_OK


def _report_out(args, doc: dict) -> None:
    if getattr(args, "out", None):
        _write_atomic(args.out, _dumps(doc) + "\n")


def _check_laws(args, ws: Workspace) -> int:
    if args.random < 0:
        raise ValueError(f"--random must be at least 0, got {args.random}")
    lattice = ws.lattice(args.lattice)
    sample = None
    if isinstance(lattice, ProjectionLattice):
        from .generators import random_projection
        rng = random.Random(args.seed)
        sample = [lattice.bottom(), lattice.top()]
        sample += [random_projection(rng, lattice.dim) for _ in range(args.random)]
    report = verify_laws(lattice, sample=sample, max_triples=args.triples)
    doc = report.to_json(lattice)
    _report_out(args, doc)
    if args.json:
        print(_dumps(doc))
    else:
        print(report.render())
    failed = not report.ortholattice_ok() or not report.orthomodular
    if isinstance(lattice, BooleanLattice) and not report.distributive:
        failed = True
    if isinstance(lattice, ProjectionLattice) and lattice.dim >= 2:
        if report.distributive or report.distributivity_witness is None:
            failed = True  # the violation is expected; missing it is a failure
        elif not args.json:
            print("distributivity violation found, as expected for projections")
    return EXIT_CHECK if failed else EXIT_OK


def _check_scott_solovay(args, ws: Workspace) -> int:
    fragment = ws.fragment(args.fragment)
    rep = vf.scott_solovay_suite(fragment, cross_check=args.cross_check,
                                 rng=random.Random(args.seed))
    doc = rep.to_json()
    _report_out(args, doc)
    print(_dumps(doc) if args.json else rep.render())
    return EXIT_OK if rep.passed() else EXIT_CHECK


def _check_transfer(args, ws: Workspace) -> int:
    fragment = ws.fragment(args.fragment)
    rep = vf.transfer_suite(fragment.members, fragment.lattice,
                            rng=random.Random(args.seed),
                            max_tuples_per_schema=args.sample)
    doc = rep.to_json()
    _report_out(args, doc)
    print(_dumps(doc) if args.json else rep.render())
    return EXIT_OK if rep.passed() else EXIT_CHECK


def _check_equality_axiom(args, ws: Workspace) -> int:
    if args.demo:
        lattice = ProjectionLattice(2)
        from .exactnum import gq
        p = proj_from_span([(gq(1), gq(0))], 2)
        q = proj_from_span([(gq(1), gq(1))], 2)
        collection = vf.violation_demo_collection(lattice, p, q)
    elif args.sets:
        collection = [ws.qset(name.strip()) for name in args.sets.split(",")]
        if not collection:
            raise UsageError("--sets needs at least one set name")
        lattice = collection[0].lattice
    else:
        if not args.fragment:
            raise UsageError("check equality-axiom needs --fragment, --sets or --demo")
        collection = ws.fragment(args.fragment)
        lattice = collection.lattice
    witness = vf.find_equality_axiom_violation(collection)
    boolean = isinstance(lattice, BooleanLattice)
    doc = {
        "suite": "equality-axiom",
        "lattice": lattice.describe(),
        "witness": witness.to_json() if witness else None,
    }
    _report_out(args, doc)
    if args.json:
        print(_dumps(doc))
    elif witness is None:
        print("no equality-axiom violation: equal sets are intersubstitutable here")
    else:
        print("equality-axiom violation witness:")
        print(f"  {witness.describe()}")
        print(f"  {_dumps(witness.to_json())}")
    if boolean and witness is not None:
        return EXIT_CHECK  # must never happen over a Boolean lattice
    return EXIT_OK


def cmd_check(args) -> int:
    ws = _load_workspace(args)
    if args.suite == "laws":
        if not args.lattice:
            raise UsageError("check laws needs --lattice")
        return _check_laws(args, ws)
    if args.suite == "equality-axiom":
        return _check_equality_axiom(args, ws)
    if not args.fragment:
        raise UsageError(f"check {args.suite} needs --fragment")
    if args.suite == "scott-solovay":
        return _check_scott_solovay(args, ws)
    return _check_transfer(args, ws)


def cmd_prob(args) -> int:
    ws = _load_workspace(args)
    state = ws.state(args.state)
    if "=" not in args.spec:
        raise UsageError("probability spec must look like A=B or A=value")
    left, right = (part.strip() for part in args.spec.split("=", 1))
    a = ws.observable(left)
    extra = [Fraction(p) for p in args.extra_grid.split(",")] if args.extra_grid else ()
    if right in ws.observables:
        result = prob_equal(a, ws.observable(right), state, extra_grid=extra)
    else:
        try:
            value = Fraction(right)
        except ValueError:
            raise UsageError(f"{right!r} is neither an observable nor a rational value")
        atom = observational_atom(a, value)
        result = ProbabilityResult(value=born_probability(atom, state),
                                   exact=state.exact, model_dependent=False,
                                   element=atom)
    tag = "exact" if result.exact else "decimal"
    doc = {
        "spec": args.spec,
        "probability": (str(result.value) if result.exact else float(result.value)),
        "kind": tag,
        "model_dependent": result.model_dependent,
    }
    if args.show_projection and result.element is not None:
        doc["projection"] = projection_to_json(result.element)
    if args.json:
        print(_dumps(doc))
        return EXIT_OK
    print(f"{result.render()}  ({tag})")
    if args.show_projection and result.element is not None:
        print(f"projection: {_dumps(projection_to_json(result.element))}")
    return EXIT_OK


# --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--session", help="session JSON file to load and save")
    common.add_argument("--json", action="store_true", help="emit JSON output")

    parser = argparse.ArgumentParser(
        prog="lvset",
        description="lattice-valued set theory at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", parents=[common], help="define a lattice")
    p.add_argument("name")
    p.add_argument("--boolean", type=int, metavar="ATOMS")
    p.add_argument("--projection", type=int, metavar="DIM")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("set", parents=[common], help="define a lattice-valued set")
    p.add_argument("name")
    p.add_argument("--lattice", required=True)
    p.add_argument("--literal", help="{} or {name: element, ...}")
    p.add_argument("--file", help="set JSON file")
    p.add_argument("--empty", action="store_true", help="the empty set")
    p.add_argument("--check", type=int, metavar="N",
                   help="canonical copy of the numeral N")
    p.set_defaults(func=cmd_set)

    p = sub.add_parser("obs", parents=[common], help="define an observable")
    p.add_argument("name")
    p.add_argument("--diag", help="comma-separated rational eigenvalues")
    p.add_argument("--file", help="spectral-data JSON file")
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser("state", parents=[common], help="define a state vector")
    p.add_argument("name")
    p.add_argument("--vector", help="comma-separated entries")
    p.add_argument("--decimal", action="store_true",
                   help="parse entries as decimal complex numbers")
    p.add_argument("--file", help="state JSON file")
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("enumerate", parents=[common],
                       help="enumerate a universe fragment")
    p.add_argument("name")
    p.add_argument("--lattice", required=True)
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--values-from",
                   help="comma-separated observables supplying projection values")
    p.add_argument("--limit", type=int, default=5000)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("eval", parents=[common], help="evaluate a formula")
    p.add_argument("formula")
    p.add_argument("--fragment", help="fragment for unbounded quantifiers")
    p.add_argument("--lattice", help="lattice for closed formulas")
    p.add_argument("--trace", action="store_true",
                   help="show evaluation rule applications")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", parents=[common], help="run a check suite")
    p.add_argument("suite", choices=["laws", "scott-solovay", "transfer",
                                     "equality-axiom"])
    p.add_argument("--lattice")
    p.add_argument("--fragment")
    p.add_argument("--out", help="write the JSON report to this file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=int, default=32,
                   help="random projections added to the law-check sample")
    p.add_argument("--triples", type=int, default=400,
                   help="distributivity triples tried in projection law checks")
    p.add_argument("--cross-check", type=int, default=vf.DEFAULT_CROSS_CHECK,
                   help="sampled instances re-run through the generic evaluator")
    p.add_argument("--sample", type=int, default=None,
                   help="cap argument tuples per schema in the transfer suite")
    p.add_argument("--sets", help="comma-separated set names for equality-axiom")
    p.add_argument("--demo", action="store_true",
                   help="equality-axiom: use the built-in dim-2 demo collection")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("prob", parents=[common],
                       help="Born-rule probability of A=B or A=value")
    p.add_argument("spec")
    p.add_argument("--state", required=True)
    p.add_argument("--extra-grid", help="extra rational grid points")
    p.add_argument("--show-projection", action="store_true")
    p.set_defaults(func=cmd_prob)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FormulaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LatticeError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
