"""Grammars for programs, formulas, proof scripts and universe configs.

This module owns the shared AST vocabulary.  Program variables start with a
lowercase letter, logical (ghost) variables with an uppercase one.  All AST
nodes are `maps.Node` records, so they hash (once) and compare structurally
and can be used as cache keys everywhere else.

The test of an `if`, `while` or `with` is a formula over true, false, and, or
and `=` of expressions: the logic reads it as the formula B of its rules, and
the machine evaluates it (`machine.eval_bool`).  It is parsed with the
formula grammar and checked for that shape, so it is the formula
`parse_formula` reads from the same text; any other formula is rejected at
the test's first token.  Programs, formulas and proof scripts share one token
pattern (`tokenize`); universe configs are read line by line.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .maps import Node, fmap


class ParseError(Exception):
    def __init__(self, message, line=None, col=None):
        self.line, self.col = line, col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(message + where)


# --- arithmetic expressions --------------------------------------------------

class Lit(Node):
    value: int

class Var(Node):
    name: str

class Add(Node):
    left: object
    right: object

class Mul(Node):
    left: object
    right: object


# --- commands ----------------------------------------------------------------

class Assign(Node):
    var: str
    expr: object

class Load(Node):
    var: str
    addr: object

class Store(Node):
    addr: object
    expr: object

class Skip(Node):
    pass

class SeqC(Node):
    first: object
    second: object

class ParC(Node):
    left: object
    right: object

class While(Node):
    cond: object
    body: object

class ResourceC(Node):
    lock: str
    body: object

class WithWhen(Node):
    lock: str
    cond: object
    body: object

class IfC(Node):
    cond: object
    then: object
    orelse: object

class AllocC(Node):
    var: str
    expr: object

class DisposeC(Node):
    addr: object


# --- formulas ----------------------------------------------------------------

class Emp(Node):
    pass

class FTrue(Node):
    pass

class FFalse(Node):
    pass

class FOr(Node):
    left: object
    right: object

class FAnd(Node):
    left: object
    right: object

class FNot(Node):
    body: object

class Forall(Node):
    var: str
    body: object

class Exists(Node):
    var: str
    body: object

class Star(Node):
    left: object
    right: object

class Own(Node):
    perm: Fraction
    var: str

class PointsTo(Node):
    addr: object
    perm: Fraction
    value: object

class FEq(Node):
    left: object
    right: object

class FImplies(Node):
    left: object
    right: object


def is_logical_name(name: str) -> bool:
    return name[0].isupper()


def subterms(node):
    """The node and every command, expression, test and formula below it."""
    yield node
    for field in node.__match_args__:
        child = getattr(node, field)
        if isinstance(child, Node):
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


class ProofNode(Node):
    """One derivation-tree node: rule tag, claimed conclusion, parameters, children."""
    tag: str
    ctx: fmap            # lockname -> Formula
    pre: object
    cmd: object
    post: object
    params: fmap         # rule-specific: "R", "r", "inv", "val"
    children: tuple = ()


class Universe(Node):
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
        for items, what in ((self.variables, "variable alphabet"),
                            (self.locations, "location alphabet"),
                            (self.values, "value range"),
                            (self.locks, "resource alphabet"),
                            (self.perms, "permission set")):
            if not items:
                raise ParseError(f"empty {what}")
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


# --- tokenizer ----------------------------------------------------------------

_SYMBOLS = ["|->", "||", ":=", "=>", "..", "->", "(", ")", "{", "}", "[", "]",
            ";", ",", ".", ":", "=", "+", "*", "|", "-", "@", "/"]   # longest first
_TOKEN_RE = re.compile("|".join([
    r"(?P<newline>\n)",
    r"(?P<blank>[ \t\r]+|#[^\n]*)",
    r"(?P<own>own_(?P<num>\d+)(?:/(?P<den>\d+))?)",
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)",
    r"(?P<int>\d+)",
    "(?P<sym>%s)" % "|".join(map(re.escape, _SYMBOLS)),
    r"(?P<error>.)",
]))


class Token(Node):
    kind: str          # "name" | "int" | "own" | "sym" | "eof"
    text: str
    value: object
    line: int
    col: int


def tokenize(text: str) -> list:
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, s, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "own":
            num, den = int(m["num"]), int(m["den"] or 1)
            if not den:
                raise ParseError(f"permission {num}/0 has a zero denominator", line, col)
            toks.append(Token("own", s, Fraction(num, den), line, col))
        elif kind == "int":
            toks.append(Token("int", s, int(s), line, col))
        elif kind in ("name", "sym"):
            toks.append(Token(kind, s, s, line, col))
        elif kind == "error":
            raise ParseError(f"unexpected character {s!r}", line, col)
    toks.append(Token("eof", "", None, line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[min(self.pos, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at_sym(self, s):
        t = self.peek()
        return t.kind == "sym" and t.text == s

    def at_name(self, s=None):
        t = self.peek()
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

    def test(self):
        t = self.peek()
        b = self.formula()
        if not _is_test(b):
            raise ParseError(f"expected a test, found {formula_to_text(b)!r}",
                             t.line, t.col)
        return b

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
            cond = self.test()
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
            cond = self.test()
            self.expect_name("do")
            return WithWhen(lock, cond, self.command_atom())
        if self.at_name("if"):
            self.next()
            cond = self.test()
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
        if not den:
            raise ParseError(f"permission {num}/0 has a zero denominator", t.line, t.col)
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
        params = fmap({k: v for k, v in fields.items() if k in ("R", "r", "inv", "val")})
        return ProofNode(tag, fields.get("ctx", fmap()), fields["pre"], fields["cmd"],
                         fields["post"], params, tuple(children))

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


def _is_test(f) -> bool:
    """Whether a formula is a test: true, false and `=` under and and or."""
    if isinstance(f, (FAnd, FOr)):
        return _is_test(f.left) and _is_test(f.right)
    return isinstance(f, (FTrue, FFalse, FEq))


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
