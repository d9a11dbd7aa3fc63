"""The set-theory formula language: lexer, parser, desugaring, and an
evaluator that compiles each formula once to closures.

Grammar (precedence low to high: -> | & ~; quantifier bodies extend
maximally right):

    formula := or ('->' formula)?
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '~' unary | quantifier | primary
    quantifier := ('forall' | 'exists') IDENT ('in' IDENT)? '.' formula
    primary := '(' formula ')' | IDENT ('=' | 'in') IDENT
    IDENT   := [a-z][a-z0-9_]*

The core language is ~, &, bounded/unbounded forall, =, in. Or, exists and
-> are abbreviations removed by desugar(). Evaluation rules are numbered for
trace output:

    R1  [[~phi]]            = [[phi]] orthocomplement
    R2  [[phi & psi]]       = [[phi]] meet [[psi]]
    R3  [[forall x in u.p]] = big_meet over dom(u) of u(x) sasaki-arrow [[p(x)]]
    R4  [[forall x.p]]      = big_meet over the ambient fragment of [[p(x)]]
    R5  phi | psi           desugars to ~(~phi & ~psi)
    R6  exists x in u. p    desugars to ~ forall x in u. ~p
    R7  exists x. p         desugars to ~ forall x. ~p
    R8  [[u in v]]          membership truth value
    R9  [[u = v]]           equality truth value

The connective -> desugars to ~(phi & ~(phi & psi)), which evaluates to the
Sasaki arrow of the two truth values; this connective-level lift is a
convention of this toolkit, and checkers avoid -> in core forms.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import AbstractSet, Optional

from .universe import EvalSession, QSet, UniverseFragment


class FormulaError(Exception):
    """Parse errors (with position) and evaluation-time binding errors."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


# ---------------------------------------------------------------- AST nodes

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Eq:
    left: Var
    right: Var


@dataclass(frozen=True)
class In:
    left: Var
    right: Var


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class ForallIn:
    var: str
    bound: Var
    body: object


@dataclass(frozen=True)
class ExistsIn:
    var: str
    bound: Var
    body: object


@dataclass(frozen=True)
class Forall:
    var: str
    body: object


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


# The JSON name of each node kind. A node's JSON keys are its dataclass
# fields: the name fields hold strings, every other field a child node.
_NODE_NAMES = {Var: "var", Eq: "eq", In: "in", Not: "not", And: "and", Or: "or",
              Implies: "implies", ForallIn: "forall_in", ExistsIn: "exists_in",
              Forall: "forall", Exists: "exists"}
_NODE_CLASSES = {name: cls for cls, name in _NODE_NAMES.items()}
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _NODE_NAMES}
_NAME_FIELDS = ("name", "var")


def children(node) -> tuple:
    """The child nodes of a formula node, in field order."""
    return tuple(getattr(node, f) for f in _FIELDS[type(node)] if f not in _NAME_FIELDS)


# -------------------------------------------------------------------- lexer

KEYWORDS = {"forall", "exists", "in"}
_PUNCT = [("->", "ARROW"), ("~", "NOT"), ("&", "AND"), ("|", "OR"),
          ("=", "EQ"), (".", "DOT"), ("(", "LPAREN"), (")", "RPAREN")]


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    i = 0
    line, col = 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.islower():
            j = i
            while j < n and (text[j].islower() or text[j].isdigit() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word.upper() if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for punct, kind in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(Token(kind, punct, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise FormulaError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ------------------------------------------------------------------- parser

MAX_DEPTH = 100


class _Parser:
    """Recursive descent that measures nesting as it goes. Each method gets
    the depth of the construct it parses and returns (node, height); each
    ~, quantifier, pair of parentheses and each link of an &, | or -> chain
    is one level. A formula nested more than MAX_DEPTH levels deep is
    refused here, before this parser or any later recursive pass (desugar,
    free_variables, evaluation, printing) can run out of stack."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaError(f"expected {kind}, found {tok.text or 'end of input'!r}",
                               tok.line, tok.col)
        return self.next()

    def within(self, depth: int, tok: Token) -> None:
        if depth > MAX_DEPTH:
            raise FormulaError(f"formula nested more than {MAX_DEPTH} levels deep",
                               tok.line, tok.col)

    def parse(self):
        f, _ = self.formula(0)
        tok = self.peek()
        if tok.kind != "EOF":
            raise FormulaError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return f

    def formula(self, depth: int):
        left, height = self.chain(depth, "OR", Or, self.and_level)
        if self.peek().kind == "ARROW":
            tok = self.next()
            right, right_height = self.formula(depth + 1)  # right associative
            height = 1 + max(height, right_height)
            self.within(depth + height, tok)
            return Implies(left, right), height
        return left, height

    def and_level(self, depth: int):
        return self.chain(depth, "AND", And, self.unary)

    def chain(self, depth: int, kind: str, node, operand):
        """operand (kind operand)*, built left-deep: each link puts every
        earlier operand one level deeper."""
        out, height = operand(depth)
        while self.peek().kind == kind:
            tok = self.next()
            right, right_height = operand(depth + 1)
            out, height = node(out, right), 1 + max(height, right_height)
            self.within(depth + height, tok)
        return out, height

    def unary(self, depth: int):
        tok = self.peek()
        self.within(depth, tok)
        if tok.kind == "NOT":
            self.next()
            body, height = self.unary(depth + 1)
            return Not(body), height + 1
        if tok.kind in ("FORALL", "EXISTS"):
            return self.quantifier(depth)
        return self.primary(depth)

    def quantifier(self, depth: int):
        head = self.next()
        name = self.expect("IDENT").text
        bound = None
        if self.peek().kind == "IN":
            self.next()
            bound = Var(self.expect("IDENT").text)
        self.expect("DOT")
        body, height = self.formula(depth + 1)  # maximally right
        if head.kind == "FORALL":
            node = Forall(name, body) if bound is None else ForallIn(name, bound, body)
        else:
            node = Exists(name, body) if bound is None else ExistsIn(name, bound, body)
        return node, height + 1

    def primary(self, depth: int):
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.next()
            inner, height = self.formula(depth + 1)
            self.expect("RPAREN")
            return inner, height + 1
        if tok.kind == "IDENT":
            left = Var(self.next().text)
            op = self.next()
            if op.kind not in ("EQ", "IN"):
                raise FormulaError("expected '=' or 'in' after identifier", op.line, op.col)
            right = Var(self.expect("IDENT").text)
            return (Eq(left, right) if op.kind == "EQ" else In(left, right)), 0
        raise FormulaError(f"expected a formula, found {tok.text or 'end of input'!r}",
                           tok.line, tok.col)


def parse(text: str):
    """Parse one formula; raises FormulaError with line/column on bad input,
    a formula nested more than MAX_DEPTH levels deep included."""
    return _Parser(text).parse()


def parse_formula_lines(text: str) -> list:
    """Formula files: one formula per line, blank lines and # comments skipped.
    Returns [(line_number, source, Formula)]."""
    out = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            out.append((idx, stripped, parse(stripped)))
        except FormulaError as exc:
            raise FormulaError(f"line {idx}: {exc}") from exc
    return out


# ------------------------------------------------------------------ printer

_PREC = {Implies: 1, Or: 2, And: 3, Not: 4}
_ATOM_PREC = 100


def to_text(node) -> str:
    return _print(node, 0)


def _print(node, ctx: int) -> str:
    """Parenthesize whenever this node binds weaker than the context needs,
    so parse(to_text(f)) rebuilds f exactly."""
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Eq):
        return f"{node.left.name} = {node.right.name}"
    if isinstance(node, In):
        return f"{node.left.name} in {node.right.name}"
    if isinstance(node, Not):
        return "~" + _print(node.body, _PREC[Not])
    if isinstance(node, (And, Or, Implies)):
        prec = _PREC[type(node)]
        op = {And: "&", Or: "|", Implies: "->"}[type(node)]
        if isinstance(node, Implies):  # right associative
            left_ctx, right_ctx = prec + 1, prec
        else:  # parsed left associative
            left_ctx, right_ctx = prec, prec + 1
        text = f"{_print(node.left, left_ctx)} {op} {_print(node.right, right_ctx)}"
        return f"({text})" if prec < ctx else text
    if isinstance(node, (ForallIn, ExistsIn)):
        word = "forall" if isinstance(node, ForallIn) else "exists"
        text = f"{word} {node.var} in {node.bound.name} . {_print(node.body, 0)}"
        return f"({text})" if ctx > 0 else text
    if isinstance(node, (Forall, Exists)):
        word = "forall" if isinstance(node, Forall) else "exists"
        text = f"{word} {node.var} . {_print(node.body, 0)}"
        return f"({text})" if ctx > 0 else text
    raise FormulaError(f"cannot print {type(node).__name__}")


# ------------------------------------------------------------------ desugar

def desugar(node, trace: Optional[list] = None):
    """Eliminate Or, Implies, ExistsIn, Exists; idempotent on core forms."""
    recurse = lambda n: desugar(n, trace)
    if isinstance(node, Var):
        return node
    if isinstance(node, (Eq, In)):
        return node
    if isinstance(node, Not):
        return Not(recurse(node.body))
    if isinstance(node, And):
        return And(recurse(node.left), recurse(node.right))
    if isinstance(node, Or):
        _note(trace, "R5", node, "~(~phi & ~psi)")
        return Not(And(Not(recurse(node.left)), Not(recurse(node.right))))
    if isinstance(node, Implies):
        _note(trace, "sasaki", node, "~(phi & ~(phi & psi))")
        left = recurse(node.left)
        right = recurse(node.right)
        return Not(And(left, Not(And(left, right))))
    if isinstance(node, ForallIn):
        return ForallIn(node.var, node.bound, recurse(node.body))
    if isinstance(node, ExistsIn):
        _note(trace, "R6", node, "~ forall x in u . ~phi")
        return Not(ForallIn(node.var, node.bound, Not(recurse(node.body))))
    if isinstance(node, Forall):
        return Forall(node.var, recurse(node.body))
    if isinstance(node, Exists):
        _note(trace, "R7", node, "~ forall x . ~phi")
        return Not(Forall(node.var, Not(recurse(node.body))))
    raise FormulaError(f"cannot desugar {type(node).__name__}")


def free_variables(node, bound=frozenset()) -> set:
    if isinstance(node, Var):
        return set() if node.name in bound else {node.name}
    if isinstance(node, (Eq, In)):
        return free_variables(node.left, bound) | free_variables(node.right, bound)
    if isinstance(node, Not):
        return free_variables(node.body, bound)
    if isinstance(node, (And, Or, Implies)):
        return free_variables(node.left, bound) | free_variables(node.right, bound)
    if isinstance(node, (ForallIn, ExistsIn)):
        return free_variables(node.bound, bound) | free_variables(node.body, bound | {node.var})
    if isinstance(node, (Forall, Exists)):
        return free_variables(node.body, bound | {node.var})
    raise FormulaError(f"unknown node {type(node).__name__}")


# --------------------------------------------------------------- evaluation

class Environment:
    """Variable bindings plus the ambient fragment for unbounded quantifiers.

    One EvalSession serves the whole evaluation, so memoized membership and
    equality values are reused across quantifier bindings.
    """

    def __init__(self, lattice, bindings=None, fragment: Optional[UniverseFragment] = None,
                 session: Optional[EvalSession] = None):
        self.lattice = lattice
        self.bindings = dict(bindings or {})
        self.fragment = fragment
        self.session = session or EvalSession(lattice)
        self.notes: list = []
        for name, q in self.bindings.items():
            if not isinstance(q, QSet):
                raise FormulaError(f"binding {name!r} is not a QSet")
            if q.lattice != lattice:
                raise FormulaError(f"binding {name!r} belongs to a different lattice")
        if self.session.lattice != lattice:
            raise FormulaError("the session belongs to a different lattice")
        if fragment is not None and fragment.lattice != lattice:
            raise FormulaError("the fragment belongs to a different lattice")


def eval_formula(formula, env: Environment, trace: Optional[list] = None):
    """Truth value of a closed formula under the environment."""
    core = desugar(formula, trace)
    return compile_core(core, free_variables(core), env, trace)(env.bindings)


def compile_core(core, free: AbstractSet[str], env: Environment,
                 trace: Optional[list] = None):
    """Compile a desugared formula with free variables `free`, once, into
    nested closures. The result maps a scope that binds every free variable,
    as env.bindings must, to the formula's truth value.

    The closures hold the lattice operations and the session's memoized
    membership and equality recursion, so a run dispatches on no node type. Atoms skip the session's lattice
    check: every QSet in a scope must already belong to env.lattice.
    Trace notes are appended in post-order, as each node's value is known."""
    missing = free - set(env.bindings)
    if missing:
        raise FormulaError(f"unbound identifiers: {', '.join(sorted(missing))}")
    lat = env.lattice
    meet, ortho, big_meet, arrow = lat.meet, lat.ortho, lat.big_meet, lat.sasaki_arrow
    relations = {Eq: ("R9", env.session._equality_value),
                 In: ("R8", env.session._membership_value)}

    def build(node):
        kind = type(node)
        if kind in relations:
            rule, relation = relations[kind]
            left, right = node.left.name, node.right.name

            def run(scope):
                return relation(scope[left], scope[right])
        elif kind is Not:
            rule, body = "R1", build(node.body)

            def run(scope):
                return ortho(body(scope))
        elif kind is And:
            rule, left, right = "R2", build(node.left), build(node.right)

            def run(scope):
                return meet(left(scope), right(scope))
        elif kind is ForallIn:
            rule, var, bound, body = "R3", node.var, node.bound.name, build(node.body)

            def run(scope):
                return big_meet(arrow(value, body({**scope, var: x}))
                                for x, value in scope[bound].entries)
        elif kind is Forall:
            rule, var, body = "R4", node.var, build(node.body)
            fragment, notes = env.fragment, env.notes

            def run(scope):
                if fragment is None:
                    raise FormulaError(
                        "unbounded quantifier needs an ambient fragment in the environment")
                message = (f"unbounded quantifier evaluated over a {len(fragment)}-member "
                           f"fragment (truncation of the full universe)")
                if message not in notes:
                    notes.append(message)
                return big_meet(body({**scope, var: m}) for m in fragment)
        else:
            raise FormulaError(f"cannot evaluate {kind.__name__} (not a core node)")
        if trace is None:
            return run
        return _traced(run, rule, node, lat, trace)

    return build(core)


def _traced(run, rule: str, node, lattice, trace: list):
    def traced(scope):
        out = run(scope)
        # element_repr can cost a row reduction, so only a trace pays it
        _note(trace, rule, node, lattice.element_repr(out))
        return out
    return traced


def _note(trace, rule: str, node, result: str):
    if trace is not None:
        trace.append({"rule": rule, "formula": to_text(node), "result": result})


# ----------------------------------------------------------------- AST JSON

def formula_to_json(node) -> dict:
    name = _NODE_NAMES.get(type(node))
    if name is None:
        raise FormulaError(f"cannot serialize {type(node).__name__}")
    doc = {"node": name}
    for f in _FIELDS[type(node)]:
        value = getattr(node, f)
        doc[f] = value if f in _NAME_FIELDS else formula_to_json(value)
    return doc


def formula_from_json(doc: dict):
    """The inverse of formula_to_json. A doc with a missing, unknown or
    ill-typed key, or nested more than MAX_DEPTH connectives deep (the
    parser's limit), is refused with one FormulaError."""
    return _from_json(doc, 0)


def _from_json(doc, depth: int):
    if not isinstance(doc, dict) or "node" not in doc:
        raise FormulaError("formula JSON node must be an object with a 'node' key")
    kind = doc["node"]
    cls = _NODE_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise FormulaError(f"unknown formula node kind {kind!r}")
    if cls is not Var and depth > MAX_DEPTH:
        raise FormulaError(f"formula JSON nested more than {MAX_DEPTH} levels deep")
    keys = _FIELDS[cls]
    for key in doc:
        if key != "node" and key not in keys:
            raise FormulaError(f"formula JSON node {kind!r} has unknown key {key!r}")
    values = []
    for key in keys:
        if key not in doc:
            raise FormulaError(f"formula JSON node {kind!r} is missing key {key!r}")
        value = doc[key]
        if key in _NAME_FIELDS:
            if not isinstance(value, str):
                raise FormulaError(f"formula JSON node {kind!r} needs a string {key!r}")
        else:
            value = _from_json(value, depth + 1)
        values.append(value)
    return cls(*values)
