"""The set-theory formula language: lexer, parser, desugaring, evaluator.

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

from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

from .lattice import LatticeError
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
    span: Optional[tuple] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Eq:
    left: Var
    right: Var
    span: Optional[tuple] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class In:
    left: Var
    right: Var
    span: Optional[tuple] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Not:
    body: object
    span: Optional[tuple] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class And:
    left: object
    right: object
    span: Optional[tuple] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Or:
    left: object
    right: object
    span: Optional[tuple] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Implies:
    left: object
    right: object
    span: Optional[tuple] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class ForallIn:
    var: str
    bound: Var
    body: object
    span: Optional[tuple] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class ExistsIn:
    var: str
    bound: Var
    body: object
    span: Optional[tuple] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Forall:
    var: str
    body: object
    span: Optional[tuple] = field(default=None, compare=False, kw_only=True)


@dataclass(frozen=True)
class Exists:
    var: str
    body: object
    span: Optional[tuple] = field(default=None, compare=False, kw_only=True)


CORE_NODES = (Eq, In, Not, And, ForallIn, Forall)
SUGAR_NODES = (Or, Implies, ExistsIn, Exists)

# The JSON name of each node kind. A node's JSON keys are its dataclass
# fields (span aside): the name fields hold strings, every other field a
# child node.
_NODE_NAMES = {Var: "var", Eq: "eq", In: "in", Not: "not", And: "and", Or: "or",
              Implies: "implies", ForallIn: "forall_in", ExistsIn: "exists_in",
              Forall: "forall", Exists: "exists"}
_NODE_CLASSES = {name: cls for cls, name in _NODE_NAMES.items()}
_FIELDS = {cls: tuple(f.name for f in fields(cls) if f.name != "span") for cls in _NODE_NAMES}
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
    pos: int
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
            tokens.append(Token(kind, word, i, line, col))
            col += j - i
            i = j
            continue
        for punct, kind in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(Token(kind, punct, i, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise FormulaError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", n, line, col))
    return tokens


# ------------------------------------------------------------------- parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
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

    def parse(self):
        f = self.formula()
        tok = self.peek()
        if tok.kind != "EOF":
            raise FormulaError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return f

    def formula(self):
        left = self.or_level()
        if self.peek().kind == "ARROW":
            self.next()
            right = self.formula()  # right associative
            return Implies(left, right, span=_join(left, right))
        return left

    def or_level(self):
        out = self.and_level()
        while self.peek().kind == "OR":
            self.next()
            rhs = self.and_level()
            out = Or(out, rhs, span=_join(out, rhs))
        return out

    def and_level(self):
        out = self.unary()
        while self.peek().kind == "AND":
            self.next()
            rhs = self.unary()
            out = And(out, rhs, span=_join(out, rhs))
        return out

    def unary(self):
        tok = self.peek()
        if tok.kind == "NOT":
            self.next()
            body = self.unary()
            return Not(body, span=(tok.pos, _end(body)))
        if tok.kind in ("FORALL", "EXISTS"):
            return self.quantifier()
        return self.primary()

    def quantifier(self):
        head = self.next()
        name_tok = self.expect("IDENT")
        bound = None
        if self.peek().kind == "IN":
            self.next()
            bound_tok = self.expect("IDENT")
            bound = Var(bound_tok.text, span=(bound_tok.pos, bound_tok.pos + len(bound_tok.text)))
        self.expect("DOT")
        body = self.formula()  # maximally right
        span = (head.pos, _end(body))
        if head.kind == "FORALL":
            if bound is None:
                return Forall(name_tok.text, body, span=span)
            return ForallIn(name_tok.text, bound, body, span=span)
        if bound is None:
            return Exists(name_tok.text, body, span=span)
        return ExistsIn(name_tok.text, bound, body, span=span)

    def primary(self):
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.next()
            inner = self.formula()
            self.expect("RPAREN")
            return inner
        if tok.kind == "IDENT":
            left_tok = self.next()
            left = Var(left_tok.text, span=(left_tok.pos, left_tok.pos + len(left_tok.text)))
            op = self.peek()
            if op.kind == "EQ":
                self.next()
                right_tok = self.expect("IDENT")
                right = Var(right_tok.text, span=(right_tok.pos, right_tok.pos + len(right_tok.text)))
                return Eq(left, right, span=(left_tok.pos, _end(right)))
            if op.kind == "IN":
                self.next()
                right_tok = self.expect("IDENT")
                right = Var(right_tok.text, span=(right_tok.pos, right_tok.pos + len(right_tok.text)))
                return In(left, right, span=(left_tok.pos, _end(right)))
            raise FormulaError("expected '=' or 'in' after identifier", op.line, op.col)
        raise FormulaError(f"expected a formula, found {tok.text or 'end of input'!r}",
                           tok.line, tok.col)


def _end(node) -> int:
    return node.span[1] if getattr(node, "span", None) else 0


def _join(a, b) -> Optional[tuple]:
    if getattr(a, "span", None) and getattr(b, "span", None):
        return (a.span[0], b.span[1])
    return None


def parse(text: str):
    """Parse one formula; raises FormulaError with line/column on bad input."""
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
    so parse(to_text(f)) rebuilds f exactly (spans aside)."""
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
        return Not(recurse(node.body), span=node.span)
    if isinstance(node, And):
        return And(recurse(node.left), recurse(node.right), span=node.span)
    if isinstance(node, Or):
        _note(trace, "R5", node, "~(~phi & ~psi)")
        return Not(And(Not(recurse(node.left)), Not(recurse(node.right))), span=node.span)
    if isinstance(node, Implies):
        _note(trace, "sasaki", node, "~(phi & ~(phi & psi))")
        left = recurse(node.left)
        right = recurse(node.right)
        return Not(And(left, Not(And(left, right))), span=node.span)
    if isinstance(node, ForallIn):
        return ForallIn(node.var, node.bound, recurse(node.body), span=node.span)
    if isinstance(node, ExistsIn):
        _note(trace, "R6", node, "~ forall x in u . ~phi")
        return Not(ForallIn(node.var, node.bound, Not(recurse(node.body))), span=node.span)
    if isinstance(node, Forall):
        return Forall(node.var, recurse(node.body), span=node.span)
    if isinstance(node, Exists):
        _note(trace, "R7", node, "~ forall x . ~phi")
        return Not(Forall(node.var, Not(recurse(node.body))), span=node.span)
    raise FormulaError(f"cannot desugar {type(node).__name__}")


def is_core(node) -> bool:
    return isinstance(node, (Var, *CORE_NODES)) and all(is_core(c) for c in children(node))


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

    One EvalSession is shared through rebindings, so memoized membership and
    equality values are reused across the whole evaluation.
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

    def bound(self, name: str, value: QSet) -> "Environment":
        child = Environment.__new__(Environment)
        child.lattice = self.lattice
        child.bindings = {**self.bindings, name: value}
        child.fragment = self.fragment
        child.session = self.session
        child.notes = self.notes
        return child

    def resolve(self, var: Var) -> QSet:
        q = self.bindings.get(var.name)
        if q is None:
            raise FormulaError(f"unbound identifier {var.name!r}")
        return q


def eval_formula(formula, env: Environment, trace: Optional[list] = None):
    """Truth value of a closed formula under the environment."""
    core = desugar(formula, trace)
    missing = free_variables(core) - set(env.bindings)
    if missing:
        raise FormulaError(f"unbound identifiers: {', '.join(sorted(missing))}")
    return _eval(core, env, trace)


def eval_implies(antecedent, consequent, env: Environment,
                 trace: Optional[list] = None):
    """sasaki_arrow([[antecedent]], [[consequent]]); equals the desugared
    '->' connective."""
    a = eval_formula(antecedent, env, trace)
    b = eval_formula(consequent, env, trace)
    return env.lattice.sasaki_arrow(a, b)


def _eval(node, env: Environment, trace):
    lat = env.lattice
    if isinstance(node, Eq):
        rule, out = "R9", env.session.truth_equality(env.resolve(node.left),
                                                     env.resolve(node.right))
    elif isinstance(node, In):
        rule, out = "R8", env.session.truth_membership(env.resolve(node.left),
                                                       env.resolve(node.right))
    elif isinstance(node, Not):
        rule, out = "R1", lat.ortho(_eval(node.body, env, trace))
    elif isinstance(node, And):
        rule, out = "R2", lat.meet(_eval(node.left, env, trace), _eval(node.right, env, trace))
    elif isinstance(node, ForallIn):
        u = env.resolve(node.bound)
        rule, out = "R3", lat.big_meet(
            lat.sasaki_arrow(value, _eval(node.body, env.bound(node.var, x), trace))
            for x, value in u.entries
        )
    elif isinstance(node, Forall):
        if env.fragment is None:
            raise FormulaError(
                "unbounded quantifier needs an ambient fragment in the environment")
        message = (f"unbounded quantifier evaluated over a {len(env.fragment)}-member "
                   f"fragment (truncation of the full universe)")
        if message not in env.notes:
            env.notes.append(message)
        rule, out = "R4", lat.big_meet(
            _eval(node.body, env.bound(node.var, m), trace)
            for m in env.fragment
        )
    else:
        raise FormulaError(f"cannot evaluate {type(node).__name__} (not a core node)")
    if trace is not None:  # element_repr can cost a row reduction
        _note(trace, rule, node, lat.element_repr(out))
    return out


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
    kind = doc["node"]
    cls = _NODE_CLASSES.get(kind)
    if cls is None:
        raise FormulaError(f"unknown formula node kind {kind!r}")
    return cls(*(doc[f] if f in _NAME_FIELDS else formula_from_json(doc[f])
                 for f in _FIELDS[cls]))
