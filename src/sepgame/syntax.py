"""Grammars for programs, formulas, proof scripts and universe configs.

This module owns the shared AST vocabulary.  Program variables start with a
lowercase letter, logical (ghost) variables with an uppercase one.  All AST
nodes are frozen dataclasses, so they hash and compare structurally and can be
used as cache keys everywhere else.

The test of an `if`, `while` or `with` is a formula over true, false, and, or
and `=` of expressions: the logic reads it as the formula B of its rules, and
the machine evaluates it (`machine.eval_bool`).  Its grammar stays the
program's own (`and`/`or` group to the right, as in formulas), so a test
parses to the formula `parse_formula` reads from the same text.
"""

from __future__ import annotations

import re
from dataclasses import astuple, dataclass, is_dataclass
from fractions import Fraction

from .maps import fmap


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        self.line, self.col = line, col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(message + where)


# --- arithmetic expressions --------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: int

@dataclass(frozen=True)
class Var:
    name: str

@dataclass(frozen=True)
class Add:
    left: object
    right: object

@dataclass(frozen=True)
class Mul:
    left: object
    right: object


# --- commands ----------------------------------------------------------------

@dataclass(frozen=True)
class Assign:
    var: str
    expr: object

@dataclass(frozen=True)
class Load:
    var: str
    addr: object

@dataclass(frozen=True)
class Store:
    addr: object
    expr: object

@dataclass(frozen=True)
class Skip:
    pass

@dataclass(frozen=True)
class SeqC:
    first: object
    second: object

@dataclass(frozen=True)
class ParC:
    left: object
    right: object

@dataclass(frozen=True)
class While:
    cond: object
    body: object

@dataclass(frozen=True)
class ResourceC:
    lock: str
    body: object

@dataclass(frozen=True)
class WithWhen:
    lock: str
    cond: object
    body: object

@dataclass(frozen=True)
class IfC:
    cond: object
    then: object
    orelse: object

@dataclass(frozen=True)
class AllocC:
    var: str
    expr: object

@dataclass(frozen=True)
class DisposeC:
    addr: object


# --- formulas ----------------------------------------------------------------

@dataclass(frozen=True)
class Emp:
    pass

@dataclass(frozen=True)
class FTrue:
    pass

@dataclass(frozen=True)
class FFalse:
    pass

@dataclass(frozen=True)
class FOr:
    left: object
    right: object

@dataclass(frozen=True)
class FAnd:
    left: object
    right: object

@dataclass(frozen=True)
class FNot:
    body: object

@dataclass(frozen=True)
class Forall:
    var: str
    body: object

@dataclass(frozen=True)
class Exists:
    var: str
    body: object

@dataclass(frozen=True)
class Star:
    left: object
    right: object

@dataclass(frozen=True)
class Own:
    perm: Fraction
    var: str

@dataclass(frozen=True)
class PointsTo:
    addr: object
    perm: Fraction
    value: object

@dataclass(frozen=True)
class FEq:
    left: object
    right: object

@dataclass(frozen=True)
class FImplies:
    left: object
    right: object


def is_logical_name(name: str) -> bool:
    return name[0].isupper()


def subterms(node):
    """The node and every command, expression and test below it."""
    yield node
    for child in (v for v in vars(node).values() if is_dataclass(v)):
        yield from subterms(child)


def expr_vars(e) -> frozenset:
    """All variable names (program and logical) in an expression or a test."""
    match e:
        case Var(name):
            return frozenset([name])
        case Lit() | FTrue() | FFalse():
            return frozenset()
        case Add(a, b) | Mul(a, b) | FAnd(a, b) | FOr(a, b) | FEq(a, b):
            return expr_vars(a) | expr_vars(b)
    raise TypeError(e)


def expr_program_vars(e) -> frozenset:
    return frozenset(v for v in expr_vars(e) if not is_logical_name(v))


def formula_free_logical_vars(f, bound=frozenset()) -> frozenset:
    """Free logical variables of a formula."""
    match f:
        case Emp() | FTrue() | FFalse() | Own():
            return frozenset()
        case FOr(l, r) | FAnd(l, r) | Star(l, r) | FImplies(l, r):
            return formula_free_logical_vars(l, bound) | formula_free_logical_vars(r, bound)
        case FNot(b):
            return formula_free_logical_vars(b, bound)
        case Forall(v, b) | Exists(v, b):
            return formula_free_logical_vars(b, bound | {v})
        case FEq(l, r):
            vs = expr_vars(l) | expr_vars(r)
            return frozenset(v for v in vs if is_logical_name(v)) - bound
        case PointsTo(a, _, v):
            vs = expr_vars(a) | expr_vars(v)
            return frozenset(x for x in vs if is_logical_name(x)) - bound
    raise TypeError(f)


# --- derivation trees ---------------------------------------------------------

RULE_ARITY = {
    "aff": 0, "store": 0, "load": 0,
    "seq": 2, "if": 2, "conj": 2, "par": 2,
    "res": 1, "with": 1, "frame": 1,
    "ext_skip": 0, "ext_alloc": 0, "ext_dispose": 0,
    "ext_while": 1, "ext_conseq": 1,
}
EXTENSION_RULES = frozenset(t for t in RULE_ARITY if t.startswith("ext_"))


@dataclass(frozen=True)
class ProofNode:
    """One derivation-tree node: rule tag, claimed conclusion, parameters, children."""
    tag: str
    ctx: fmap            # lockname -> Formula
    pre: object
    cmd: object
    post: object
    params: fmap         # rule-specific: "R", "r", "inv", "val"
    children: tuple = ()


@dataclass(frozen=True)
class Universe:
    """Finite enumeration bounds: alphabets, value range, permissions, policy."""
    variables: tuple
    locations: tuple
    values: tuple
    perms: tuple
    locks: tuple
    maxlen: int = 6
    env_policy: str = "passive"
    env_moves_text: tuple = ()

    def __post_init__(self):
        if not self.variables:
            raise ParseError("empty variable alphabet")
        if not self.locations:
            raise ParseError("empty location alphabet")
        if not self.values:
            raise ParseError("empty value range")
        if not self.locks:
            raise ParseError("empty resource alphabet")
        if not self.perms:
            raise ParseError("empty permission set")
        for kind, items in (("variable", self.variables),
                            ("location", self.locations),
                            ("value", self.values), ("permission", self.perms),
                            ("lock", self.locks)):
            repeated = [x for i, x in enumerate(items) if x in items[:i]]
            if repeated:
                raise ParseError(f"repeated {kind} {repeated[0]}")
        if Fraction(1) not in self.perms:
            raise ParseError("permission set must contain 1")
        for p in self.perms:
            if not (0 < p <= 1):
                raise ParseError(f"permission {p} outside (0,1]")
        if self.env_policy not in ("passive", "move-list", "exhaustive"):
            raise ParseError(f"unknown env policy {self.env_policy!r}")
        if self.maxlen < 0:
            raise ParseError("maxlen must be >= 0")
        object.__setattr__(self, "_hash", hash(astuple(self)))   # a cache key

    def __hash__(self):
        return self._hash


# --- tokenizer ----------------------------------------------------------------

_SYMBOLS = ["|->", "||", ":=", "=>", "..", "->", "(", ")", "{", "}", "[", "]",
            ";", ",", ".", ":", "=", "+", "*", "|", "-", "@", "/"]
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OWN_RE = re.compile(r"own_(\d+)(?:/(\d+))?")
_INT_RE = re.compile(r"\d+")


@dataclass(frozen=True)
class Token:
    kind: str          # "name" | "int" | "own" | "sym" | "eof"
    text: str
    value: object
    line: int
    col: int


def tokenize(text: str) -> list:
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _OWN_RE.match(text, i)
        if m:
            num, den = int(m.group(1)), int(m.group(2) or 1)
            toks.append(Token("own", m.group(0), Fraction(num, den), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            toks.append(Token("name", m.group(0), m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _INT_RE.match(text, i)
        if m:
            toks.append(Token("int", m.group(0), int(m.group(0)), line, col))
            col += m.end() - i
            i = m.end()
            continue
        for s in _SYMBOLS:
            if text.startswith(s, i):
                toks.append(Token("sym", s, s, line, col))
                i += len(s)
                col += len(s)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", None, line, col))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at_sym(self, s, ahead=0):
        t = self.peek(ahead)
        return t.kind == "sym" and t.text == s

    def at_name(self, s=None, ahead=0):
        t = self.peek(ahead)
        return t.kind == "name" and (s is None or t.text == s)

    def expect_sym(self, s) -> Token:
        t = self.next()
        if t.kind != "sym" or t.text != s:
            raise ParseError(f"expected {s!r}, found {t.text!r}", t.line, t.col)
        return t

    def expect_name(self, s=None) -> str:
        t = self.next()
        if t.kind != "name" or (s is not None and t.text != s):
            raise ParseError(f"expected {s or 'a name'}, found {t.text!r}", t.line, t.col)
        return t.text

    def fail(self, msg):
        t = self.peek()
        raise ParseError(msg + f" (found {t.text!r})", t.line, t.col)

    # arithmetic expressions

    def expr(self):
        e = self.expr_mul()
        while self.at_sym("+"):
            self.next()
            e = Add(e, self.expr_mul())
        return e

    def expr_mul(self):
        e = self.expr_atom()
        while self.at_sym("*"):
            save = self.pos
            self.next()
            try:
                e = Mul(e, self.expr_atom())
            except ParseError:
                # `*` belonged to an enclosing formula, not to this expression
                self.pos = save
                break
        return e

    def expr_atom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Lit(t.value)
        if t.kind == "name" and t.text not in _KEYWORDS:
            self.next()
            return Var(t.text)
        if self.at_sym("("):
            self.next()
            e = self.expr()
            self.expect_sym(")")
            return e
        self.fail("expected an expression")

    # tests: formulas over true, false, and, or and =

    def bexpr(self):
        b = self.bexpr_and()
        if self.at_name("or"):
            self.next()
            return FOr(b, self.bexpr())
        return b

    def bexpr_and(self):
        b = self.bexpr_atom()
        if self.at_name("and"):
            self.next()
            return FAnd(b, self.bexpr_and())
        return b

    def bexpr_atom(self):
        if self.at_name("true"):
            self.next()
            return FTrue()
        if self.at_name("false"):
            self.next()
            return FFalse()
        if self.at_sym("("):
            save = self.pos
            self.next()
            try:
                b = self.bexpr()
                self.expect_sym(")")
                return b
            except ParseError:
                self.pos = save
        left = self.expr()
        self.expect_sym("=")
        right = self.expr()
        return FEq(left, right)

    # commands

    def command(self):
        c = self.command_seq()
        if self.at_sym("||"):
            self.next()
            return ParC(c, self.command())
        return c

    def command_seq(self):
        c = self.command_atom()
        if self.at_sym(";"):
            self.next()
            return SeqC(c, self.command_seq())
        return c

    def command_atom(self):
        t = self.peek()
        if self.at_name("skip"):
            self.next()
            return Skip()
        if self.at_sym("{"):
            self.next()
            c = self.command()
            self.expect_sym("}")
            return c
        if self.at_name("while"):
            self.next()
            cond = self.bexpr()
            self.expect_name("do")
            return While(cond, self.command_atom())
        if self.at_name("resource"):
            self.next()
            lock = self.expect_name()
            self.expect_name("do")
            return ResourceC(lock, self.command_atom())
        if self.at_name("with"):
            self.next()
            lock = self.expect_name()
            self.expect_name("when")
            cond = self.bexpr()
            self.expect_name("do")
            return WithWhen(lock, cond, self.command_atom())
        if self.at_name("if"):
            self.next()
            cond = self.bexpr()
            self.expect_name("then")
            then = self.command_atom()
            self.expect_name("else")
            return IfC(cond, then, self.command_atom())
        if self.at_name("dispose"):
            self.next()
            self.expect_sym("(")
            e = self.expr()
            self.expect_sym(")")
            return DisposeC(e)
        if self.at_sym("["):
            self.next()
            addr = self.expr()
            self.expect_sym("]")
            self.expect_sym(":=")
            return Store(addr, self.expr())
        if t.kind == "name" and t.text not in _KEYWORDS:
            var = self.expect_name()
            if is_logical_name(var):
                raise ParseError(f"program variable expected, found {var!r}",
                                 t.line, t.col)
            self.expect_sym(":=")
            if self.at_name("alloc"):
                self.next()
                self.expect_sym("(")
                e = self.expr()
                self.expect_sym(")")
                return AllocC(var, e)
            if self.at_sym("["):
                self.next()
                addr = self.expr()
                self.expect_sym("]")
                return Load(var, addr)
            return Assign(var, self.expr())
        self.fail("expected a command")

    # formulas

    def formula(self):
        f = self.formula_or()
        if self.at_sym("=>"):
            self.next()
            return FImplies(f, self.formula())
        return f

    def formula_or(self):
        f = self.formula_and()
        if self.at_name("or"):
            self.next()
            return FOr(f, self.formula_or())
        return f

    def formula_and(self):
        f = self.formula_star()
        if self.at_name("and"):
            self.next()
            return FAnd(f, self.formula_and())
        return f

    def formula_star(self):
        f = self.formula_unary()
        if self.at_sym("*"):
            self.next()
            return Star(f, self.formula_star())
        return f

    def formula_unary(self):
        if self.at_name("not"):
            self.next()
            return FNot(self.formula_unary())
        if self.at_name("forall") or self.at_name("exists"):
            kw = self.next().text
            t = self.peek()
            v = self.expect_name()
            if not is_logical_name(v):
                raise ParseError(f"logical variable expected, found {v!r}",
                                 t.line, t.col)
            self.expect_sym(".")
            body = self.formula()
            return Forall(v, body) if kw == "forall" else Exists(v, body)
        return self.formula_atom()

    def formula_atom(self):
        t = self.peek()
        if self.at_name("emp"):
            self.next()
            return Emp()
        if self.at_name("true"):
            self.next()
            return FTrue()
        if self.at_name("false"):
            self.next()
            return FFalse()
        if t.kind == "own":
            self.next()
            if not (0 < t.value <= 1):
                raise ParseError(f"permission {t.value} outside (0,1]", t.line, t.col)
            self.expect_sym("(")
            v = self.expect_name()
            self.expect_sym(")")
            return Own(t.value, v)
        if self.at_sym("("):
            save = self.pos
            self.next()
            try:
                f = self.formula()
                self.expect_sym(")")
                return f
            except ParseError:
                self.pos = save
        left = self.expr()
        if self.at_sym("="):
            self.next()
            return FEq(left, self.expr())
        if self.at_sym("|->"):
            self.next()
            perm = Fraction(1)
            if self.at_sym("["):
                self.next()
                perm = self.perm_literal()
                self.expect_sym("]")
            if self.at_sym("-"):
                self.next()
                fresh = _fresh_logical(expr_vars(left))
                return Exists(fresh, PointsTo(left, perm, Var(fresh)))
            return PointsTo(left, perm, self.expr())
        self.fail("expected '=' or '|->' after expression in formula")

    def perm_literal(self) -> Fraction:
        t = self.next()
        if t.kind != "int":
            raise ParseError("expected a permission literal", t.line, t.col)
        num, den = t.value, 1
        if self.at_sym("/"):
            self.next()
            d = self.next()
            if d.kind != "int":
                raise ParseError("expected a denominator", d.line, d.col)
            den = d.value
        p = Fraction(num, den)
        if not (0 < p <= 1):
            raise ParseError(f"permission {p} outside (0,1]", t.line, t.col)
        return p

    # proof scripts

    def proof(self):
        open_tok = self.expect_sym("(")
        tag_tok = self.next()
        if tag_tok.kind != "name" or tag_tok.text not in RULE_ARITY:
            raise ParseError(f"unknown rule tag {tag_tok.text!r}",
                             tag_tok.line, tag_tok.col)
        tag = tag_tok.text
        fields = {}
        children = []
        while not self.at_sym(")"):
            if self.at_sym("("):
                children.append(self.proof())
                continue
            key_tok = self.peek()
            if key_tok.kind != "name" or key_tok.text not in _FIELD_KEYS:
                self.fail("expected a field key or a child proof")
            key = self.next().text
            self.expect_sym(":")
            if key in fields:
                raise ParseError(f"duplicate field {key!r}", key_tok.line, key_tok.col)
            if key == "ctx":
                fields[key] = self.context_value()
            elif key == "val":
                fields[key] = self.valuation_value()
            elif key == "cmd":
                fields[key] = self.command()
            elif key == "r":
                fields[key] = self.expect_name()
            else:  # pre, post, R, inv
                fields[key] = self.formula()
        self.expect_sym(")")
        for required in ("pre", "cmd", "post"):
            if required not in fields:
                raise ParseError(f"rule {tag}: missing {required!r} in conclusion",
                                 open_tok.line, open_tok.col)
        want = RULE_ARITY[tag]
        if len(children) != want:
            raise ParseError(
                f"rule {tag}: expected {want} premise(s), found {len(children)}",
                open_tok.line, open_tok.col)
        if tag == "frame" and "R" not in fields:
            raise ParseError("rule frame: missing R", open_tok.line, open_tok.col)
        if tag == "res" and ("r" not in fields or "inv" not in fields):
            raise ParseError("rule res: missing r or inv", open_tok.line, open_tok.col)
        params = {k: v for k, v in fields.items()
                  if k in ("R", "r", "inv", "val")}
        return ProofNode(
            tag=tag,
            ctx=fields.get("ctx", fmap()),
            pre=fields["pre"],
            cmd=fields["cmd"],
            post=fields["post"],
            params=fmap(params),
            children=tuple(children),
        )

    def context_value(self) -> fmap:
        self.expect_sym("[")
        entries = {}
        while not self.at_sym("]"):
            t = self.peek()
            name = self.expect_name()
            if name in entries:
                raise ParseError(f"repeated binding {name} in context",
                                 t.line, t.col)
            self.expect_sym(":")
            entries[name] = self.formula()
            if self.at_sym(","):
                self.next()
        self.expect_sym("]")
        return fmap(entries)

    def valuation_value(self) -> fmap:
        self.expect_sym("[")
        entries = {}
        while not self.at_sym("]"):
            t = self.peek()
            name = self.expect_name()
            if not is_logical_name(name):
                raise ParseError(f"logical variable expected, found {name!r}",
                                 t.line, t.col)
            if name in entries:
                raise ParseError(f"repeated binding {name} in valuation",
                                 t.line, t.col)
            self.expect_sym("=")
            v = self.next()
            if v.kind != "int":
                raise ParseError("expected an integer value", v.line, v.col)
            entries[name] = v.value
            if self.at_sym(","):
                self.next()
        self.expect_sym("]")
        return fmap(entries)

    def eof(self):
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r}", t.line, t.col)


_KEYWORDS = frozenset([
    "skip", "while", "do", "resource", "with", "when", "if", "then", "else",
    "alloc", "dispose", "true", "false", "and", "or", "not", "forall",
    "exists", "emp",
])
_FIELD_KEYS = frozenset(["ctx", "pre", "cmd", "post", "R", "r", "inv", "val"])


def _fresh_logical(avoid) -> str:
    k = 1
    while f"X_{k}" in avoid:
        k += 1
    return f"X_{k}"


def parse_program(text: str):
    p = _Parser(text)
    c = p.command()
    p.eof()
    return c


def parse_formula(text: str):
    p = _Parser(text)
    f = p.formula()
    p.eof()
    return f


def parse_proof(text: str) -> ProofNode:
    p = _Parser(text)
    node = p.proof()
    p.eof()
    return node


def parse_universe(text: str) -> Universe:
    """Parse a key=value universe config (one key per line, # comments)."""
    entries = {}
    moves = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, found {line!r}", lineno, 1)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "move":
            if "->" not in value:
                raise ParseError("move line needs 'pre -> post'", lineno, 1)
            pre, _, post = value.partition("->")
            moves.append((pre.strip(), post.strip()))
            continue
        if key in entries:
            raise ParseError(f"duplicate key {key!r}", lineno, 1)
        entries[key] = (value, lineno)

    def split_list(s):
        return [part.strip() for part in s.split(",") if part.strip()]

    def get(key, default=None):
        if key in entries:
            return entries.pop(key)[0]
        return default

    def number(kind, text, key):
        try:
            return kind(text)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad {key} entry {text!r}") from None

    variables = tuple(split_list(get("vars", "")))
    locations = tuple(number(int, x, "locs") for x in split_list(get("locs", "")))
    vals_text = get("vals", "")
    if ".." in vals_text:
        lo, _, hi = vals_text.partition("..")
        try:
            lo, hi = int(lo.strip()), int(hi.strip())
        except ValueError:
            raise ParseError(f"bad value range {vals_text!r}")
        values = tuple(range(lo, hi + 1))
    else:
        values = tuple(number(int, x, "vals") for x in split_list(vals_text))
    perms = tuple(sorted(number(Fraction, x, "perms")
                         for x in split_list(get("perms", ""))))
    locks = tuple(split_list(get("locks", "")))
    maxlen = number(int, get("maxlen", "6"), "maxlen")
    env = get("env", "passive")
    if entries:
        key, (_, lineno) = next(iter(entries.items()))
        raise ParseError(f"unknown key {key!r}", lineno, 1)
    if moves and env != "move-list":
        raise ParseError("move lines require env = move-list")
    return Universe(variables=variables, locations=locations, values=values,
                    perms=perms, locks=locks, maxlen=maxlen, env_policy=env,
                    env_moves_text=tuple(moves))


# --- printers ------------------------------------------------------------------

def perm_to_text(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


def expr_to_text(e, level=0) -> str:
    # level 0 = sum position, 1 = product position, 2 = atom position
    match e:
        case Lit(v):
            return str(v)
        case Var(name):
            return name
        case Add(a, b):
            s = f"{expr_to_text(a, 0)} + {expr_to_text(b, 1)}"
            return f"({s})" if level > 0 else s
        case Mul(a, b):
            s = f"{expr_to_text(a, 1)} * {expr_to_text(b, 2)}"
            return f"({s})" if level > 1 else s
    raise TypeError(e)


def program_to_text(c, level=0) -> str:
    # level 0 = par position, 1 = seq position, 2 = single-command position
    match c:
        case ParC(l, r):
            s = f"{program_to_text(l, 1)} || {program_to_text(r, 0)}"
            return "{ %s }" % s if level > 0 else s
        case SeqC(a, b):
            s = f"{program_to_text(a, 2)} ; {program_to_text(b, 1)}"
            return "{ %s }" % s if level > 1 else s
        case Skip():
            return "skip"
        case Assign(x, e):
            return f"{x} := {expr_to_text(e)}"
        case Load(x, a):
            return f"{x} := [{expr_to_text(a)}]"
        case Store(a, e):
            return f"[{expr_to_text(a)}] := {expr_to_text(e)}"
        case While(b, body):
            return f"while {formula_to_text(b)} do {program_to_text(body, 2)}"
        case ResourceC(r, body):
            return f"resource {r} do {program_to_text(body, 2)}"
        case WithWhen(r, b, body):
            return f"with {r} when {formula_to_text(b)} do {program_to_text(body, 2)}"
        case IfC(b, t, e):
            return (f"if {formula_to_text(b)} then {program_to_text(t, 2)}"
                    f" else {program_to_text(e, 2)}")
        case AllocC(x, e):
            return f"{x} := alloc({expr_to_text(e)})"
        case DisposeC(e):
            return f"dispose({expr_to_text(e)})"
    raise TypeError(c)


def formula_to_text(f, level=0) -> str:
    # levels: 0 implies, 1 or, 2 and, 3 star, 4 unary/atom
    match f:
        case Emp():
            return "emp"
        case FTrue():
            return "true"
        case FFalse():
            return "false"
        case FImplies(l, r):
            s = f"{formula_to_text(l, 1)} => {formula_to_text(r, 0)}"
            return f"({s})" if level > 0 else s
        case FOr(l, r):
            s = f"{formula_to_text(l, 2)} or {formula_to_text(r, 1)}"
            return f"({s})" if level > 1 else s
        case FAnd(l, r):
            s = f"{formula_to_text(l, 3)} and {formula_to_text(r, 2)}"
            return f"({s})" if level > 2 else s
        case Star(l, r):
            s = f"{formula_to_text(l, 4)} * {formula_to_text(r, 3)}"
            return f"({s})" if level > 3 else s
        case FNot(b):
            return f"not {formula_to_text(b, 4)}"
        case Forall(v, b):
            s = f"forall {v}. {formula_to_text(b, 0)}"
            return f"({s})" if level > 0 else s
        case Exists(v, b):
            s = f"exists {v}. {formula_to_text(b, 0)}"
            return f"({s})" if level > 0 else s
        case Own(p, x):
            return f"own_{perm_to_text(p)}({x})"
        case FEq(l, r):
            return f"({expr_to_text(l)} = {expr_to_text(r)})"
        case PointsTo(a, p, v):
            if p == 1:
                return f"({expr_to_text(a)} |-> {expr_to_text(v)})"
            return f"({expr_to_text(a)} |->[{perm_to_text(p)}] {expr_to_text(v)})"
    raise TypeError(f)


def proof_to_text(node: ProofNode, indent=0) -> str:
    pad = "  " * indent
    parts = [f"{pad}({node.tag}"]
    if len(node.ctx):
        ctx = ", ".join(f"{r}: {formula_to_text(j)}" for r, j in node.ctx.items())
        parts.append(f"{pad}  ctx: [{ctx}]")
    parts.append(f"{pad}  pre: {formula_to_text(node.pre)}")
    parts.append(f"{pad}  cmd: {program_to_text(node.cmd)}")
    parts.append(f"{pad}  post: {formula_to_text(node.post)}")
    for key in ("R", "inv"):
        if key in node.params:
            parts.append(f"{pad}  {key}: {formula_to_text(node.params[key])}")
    if "r" in node.params:
        parts.append(f"{pad}  r: {node.params['r']}")
    if "val" in node.params:
        val = ", ".join(f"{k} = {v}" for k, v in node.params["val"].items())
        parts.append(f"{pad}  val: [{val}]")
    for child in node.children:
        parts.append(proof_to_text(child, indent + 1))
    parts.append(f"{pad})")
    return "\n".join(parts)


def universe_to_text(u: Universe) -> str:
    lines = [
        "vars = " + ", ".join(u.variables),
        "locs = " + ", ".join(str(x) for x in u.locations),
        "vals = " + ", ".join(str(v) for v in u.values),
        "perms = " + ", ".join(perm_to_text(p) for p in u.perms),
        "locks = " + ", ".join(u.locks),
        f"maxlen = {u.maxlen}",
        f"env = {u.env_policy}",
    ]
    lines += [f"move = {pre} -> {post}" for pre, post in u.env_moves_text]
    return "\n".join(lines) + "\n"
