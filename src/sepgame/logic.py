"""Permissions, logical states, the separation tensor and formula satisfaction.

Permissions are rationals in (0,1] under addition; 1 is the write permission
and admits no multiple.  Quantifiers and substate splits range over a declared
universe.  Satisfaction, precision and entailment are decided on models: the
set of universe states satisfying a formula, a bitmask over the states'
indices, built from the formula's structure (atoms state by state,
connectives and quantifiers as bit operations, `*` over each state's splits
as index pairs); a state satisfies a formula when its index's bit is set.
Only a state outside the table (a cell whose share is no permission, such as
3/4 under 1/4, 1/2 and 1, or whose value or variable the universe does not
declare) or a logical variable the valuation leaves unbound is decided state
by state, so that the variable is reported where it is met.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .maps import fmap
from .syntax import (Add, Emp, Exists, FAnd, FEq, FFalse, FImplies, FNot,
                     FOr, Forall, FTrue, Lit, Mul, Own, ParseError, PointsTo,
                     Star, Universe, Var, expr_program_vars,
                     formula_free_logical_vars, is_logical_name, perm_to_text)
from .machine import MemoryState

TOP = Fraction(1)


class UncoveredLogicalVariable(Exception):
    pass


def perm_add(p: Fraction, q: Fraction):
    """Sum of two permissions, or None when the sum leaves (0,1]."""
    s = p + q
    return s if s <= 1 else None


@dataclass(frozen=True)
class LogicalState:
    stack: fmap = fmap()   # var -> (value, perm)
    heap: fmap = fmap()    # loc -> (value, perm)

    def is_empty(self):
        return not self.stack and not self.heap


EMPTY_LSTATE = LogicalState()


def lstate(stack=(), heap=()) -> LogicalState:
    norm = lambda m: fmap({k: (v, Fraction(p)) for k, (v, p) in dict(m).items()})
    return LogicalState(norm(stack), norm(heap))


def _join(a: fmap, b: fmap):
    out = dict(a.items())
    for k, (v, p) in b.items():
        if k not in out:
            out[k] = (v, p)
            continue
        v0, p0 = out[k]
        if v0 != v:
            return None
        s = perm_add(p0, p)
        if s is None:
            return None
        out[k] = (v, s)
    return fmap(out)


def tensor(a: LogicalState, b: LogicalState):
    """Separation product; None when values disagree or permissions overflow."""
    stack = _join(a.stack, b.stack)
    if stack is None:
        return None
    heap = _join(a.heap, b.heap)
    if heap is None:
        return None
    return LogicalState(stack, heap)


def tensor_all(states) -> LogicalState | None:
    acc = EMPTY_LSTATE
    for s in states:
        acc = tensor(acc, s)
        if acc is None:
            return None
    return acc


def erase(sigma: LogicalState) -> MemoryState:
    """Forget the permissions."""
    return MemoryState(fmap({k: v for k, (v, _) in sigma.stack.items()}),
                       fmap({k: v for k, (v, _) in sigma.heap.items()}))


# --- substate enumeration -------------------------------------------------------

def _slot_splits(p: Fraction, perms) -> list:
    """Ordered ways of splitting one slot's permission: left share ascending."""
    out = [(Fraction(0), p)]
    for p1 in perms:
        p2 = p - p1
        if p2 > 0 and p2 in perms:
            out.append((p1, p2))
    out.append((p, Fraction(0)))
    return out


def slots(sigma: LogicalState) -> list:
    """The cells as (kind, key, value, share), stack ("s") before heap ("h")."""
    return ([("s", k, v, p) for k, (v, p) in sigma.stack.items()]
            + [("h", k, v, p) for k, (v, p) in sigma.heap.items()])


def from_slots(cells) -> LogicalState:
    """The logical state of (kind, key, value, share) cells with a share."""
    stack = {k: (v, p) for kind, k, v, p in cells if kind == "s" and p > 0}
    heap = {k: (v, p) for kind, k, v, p in cells if kind == "h" and p > 0}
    return LogicalState(fmap(stack), fmap(heap))


@functools.lru_cache(maxsize=None)
def _sub_pairs(sigma: LogicalState, u: Universe) -> tuple:
    cells = slots(sigma)
    choices = [_slot_splits(p, u.perms) for _, _, _, p in cells]
    out = []
    for combo in itertools.product(*choices):
        left = [(kind, k, v, p1) for (kind, k, v, _), (p1, _) in zip(cells, combo)]
        right = [(kind, k, v, p2) for (kind, k, v, _), (_, p2) in zip(cells, combo)]
        out.append((from_slots(left), from_slots(right)))
    return tuple(out)


def substates(sigma: LogicalState, u: Universe):
    """All ordered pairs (a, b) with a * b == sigma, permissions drawn from
    the universe's declared set (or transferred whole); smallest left part
    first."""
    return iter(_sub_pairs(sigma, u))


# --- satisfaction ----------------------------------------------------------------

def eval_formula_expr(e, sigma: LogicalState, rho: fmap):
    """Expression value inside a formula; None when a program variable is not
    in the state's stack, an exception for an uninstantiated logical variable."""
    match e:
        case Lit(v):
            return v
        case Var(name):
            if is_logical_name(name):
                try:
                    return rho[name]
                except KeyError:
                    raise UncoveredLogicalVariable(name) from None
            entry = sigma.stack._dict.get(name)
            return None if entry is None else entry[0]
        case Add(a, b):
            va = eval_formula_expr(a, sigma, rho)
            vb = eval_formula_expr(b, sigma, rho)
            return None if va is None or vb is None else va + vb
        case Mul(a, b):
            va = eval_formula_expr(a, sigma, rho)
            vb = eval_formula_expr(b, sigma, rho)
            return None if va is None or vb is None else va * vb
    raise TypeError(e)


def satisfies(sigma: LogicalState, f, rho: fmap, u: Universe) -> bool:
    """The satisfaction judgement between a logical state and a formula: the
    state's bit of the formula's models; `_sat` for a state outside the
    universe table, or when the models meet a variable rho leaves unbound."""
    table = universe_table(u)
    i = table.index.get(sigma)
    if i is not None:
        try:
            return table.models(f, rho) >> i & 1 == 1
        except UncoveredLogicalVariable:
            pass
    return _sat(sigma, f, rho, u)


@functools.lru_cache(maxsize=None)
def _sat(sigma, f, rho, u) -> bool:
    match f:
        case FTrue():
            return True
        case FFalse():
            return False
        case FAnd(l, r):
            return _sat(sigma, l, rho, u) and _sat(sigma, r, rho, u)
        case FOr(l, r):
            return _sat(sigma, l, rho, u) or _sat(sigma, r, rho, u)
        case FNot(b):
            return not _sat(sigma, b, rho, u)
        case FImplies(l, r):
            return (not _sat(sigma, l, rho, u)) or _sat(sigma, r, rho, u)
        case Forall(x, body):
            return all(_sat(sigma, body, rho.set(x, v), u) for v in u.values)
        case Exists(x, body):
            return any(_sat(sigma, body, rho.set(x, v), u) for v in u.values)
        case Star(l, r):
            for a, b in _sub_pairs(sigma, u):
                if _sat(a, l, rho, u) and _sat(b, r, rho, u):
                    return True
            return False
    return _atom(sigma, f, rho)


def _atom(sigma: LogicalState, f, rho: fmap) -> bool:
    """Satisfaction of emp, ownership, equality and points-to."""
    match f:
        case Emp():
            return sigma.is_empty()
        case Own(p, x):
            entry = sigma.stack._dict.get(x)
            return entry is not None and entry[1] == p
        case FEq(l, r):
            fv = expr_program_vars(l) | expr_program_vars(r)
            if not fv.issubset(set(sigma.stack)):
                return False
            return eval_formula_expr(l, sigma, rho) == eval_formula_expr(r, sigma, rho)
        case PointsTo(a, p, v):
            va = eval_formula_expr(a, sigma, rho)
            vv = eval_formula_expr(v, sigma, rho)
            if va is None or vv is None:
                return False
            return sigma.heap._dict.get(va) == (vv, p)
    raise TypeError(f)


# --- the indexed universe: states, splits and models -------------------------------

def all_logical_states(u: Universe) -> tuple:
    """Every logical state over the universe's alphabets, values and permissions."""
    slot_options = []
    for x in u.variables:
        slot_options.append([None] + [("s", x, v, p) for v in u.values for p in u.perms])
    for loc in u.locations:
        slot_options.append([None] + [("h", loc, v, p) for v in u.values for p in u.perms])
    out = []
    for combo in itertools.product(*slot_options):
        chosen = [c for c in combo if c is not None]
        out.append(from_slots(chosen))
    return tuple(out)


_ZERO_ONE = bytes.maketrans(b"01", b"\x00\x01")
_ONE_ZERO = bytes.maketrans(b"\x00\x01", b"01")


def _flags(mask: int, n: int) -> bytes:
    """Byte i is 1 when bit i of the mask is set."""
    return format(mask, f"0{n}b")[::-1].encode().translate(_ZERO_ONE)


def _mask(flags) -> int:
    """The bitmask whose bit i is set when flags[i] is true."""
    return int(bytes(flags).translate(_ONE_ZERO)[::-1], 2)


class UniverseTable:
    """A universe indexed once: its states in `all_logical_states` order, each
    state's index, the splits of each state as (left index, right index)
    pairs in `_sub_pairs` order, and the models of formulas as bitmasks over
    the state indices.  A state's index has one mixed-radix digit per slot,
    variables before locations: 0 for an absent cell, else 1 + value index *
    |perms| + perm index; `parts` holds each cell's digits times its weight."""

    def __init__(self, u: Universe):
        self.u = u
        self.states = all_logical_states(u)
        self.full = (1 << len(self.states)) - 1
        self.radix = 1 + len(u.values) * len(u.perms)
        self.cells = [("s", x) for x in u.variables] + [("h", loc) for loc in u.locations]
        # (kind, key, value) -> index parts at share 0, then at each permission
        self.parts = {(kind, key, value): (0,) + tuple(
            (1 + v * len(u.perms) + i) * self.radix ** (len(self.cells) - 1 - k)
            for i in range(len(u.perms)))
            for k, (kind, key) in enumerate(self.cells) for v, value in enumerate(u.values)}
        self.splits = self._index_splits()
        self._models = {}

    @functools.cached_property
    def index(self) -> dict:
        return {sigma: i for i, sigma in enumerate(self.states)}

    def _index_splits(self) -> tuple:
        """Each slot's `_slot_splits` gives the digit pairs of its share."""
        u, cells = self.u, self.cells
        # `slots` lists cells by sorted key, stack before heap
        order = sorted(range(len(cells)), key=lambda k: (cells[k][0] == "h", cells[k][1]))
        options = []           # options[k][digit]: (left, right) index parts
        for kind, key in cells:
            per_digit = [((0, 0),)]
            for value in u.values:
                part = dict(zip((0,) + u.perms, self.parts[kind, key, value]))
                for p in u.perms:
                    per_digit.append(tuple((part[p1], part[p2])
                                           for p1, p2 in _slot_splits(p, u.perms)))
            options.append(per_digit)
        out = []
        for digits in itertools.product(range(self.radix), repeat=len(cells)):
            pairs = [(0, 0)]
            for k in order:
                if digits[k]:
                    pairs = [(a + x, b + y) for a, b in pairs
                             for x, y in options[k][digits[k]]]
            out.append(tuple(pairs))
        return tuple(out)

    def models(self, f, rho: fmap = fmap()) -> int:
        """The states satisfying f under rho, as a bitmask over their indices."""
        key = (f, rho)
        found = self._models.get(key)
        if found is None:
            found = self._models[key] = self._decide(f, rho)
        return found

    def _decide(self, f, rho: fmap) -> int:
        match f:
            case FTrue():
                return self.full
            case FFalse():
                return 0
            case FAnd(l, r):
                return self.models(l, rho) & self.models(r, rho)
            case FOr(l, r):
                return self.models(l, rho) | self.models(r, rho)
            case FNot(b):
                return self.full & ~self.models(b, rho)
            case FImplies(l, r):
                return (self.full & ~self.models(l, rho)) | self.models(r, rho)
            case Forall(x, body):
                return functools.reduce(operator.and_, (self.models(body, rho.set(x, v))
                                                        for v in self.u.values))
            case Exists(x, body):
                return functools.reduce(operator.or_, (self.models(body, rho.set(x, v))
                                                       for v in self.u.values))
            case Star(l, r):
                return self._star(self.models(l, rho), self.models(r, rho))
        return _mask(_atom(sigma, f, rho) for sigma in self.states)

    def _star(self, left: int, right: int) -> int:
        """Bit i is set iff some split (a, b) of state i has a in left and b
        in right."""
        if not left or not right:
            return 0
        n = len(self.states)
        lf, rf = _flags(left, n), _flags(right, n)
        return _mask(any(lf[a] and rf[b] for a, b in pairs) for pairs in self.splits)


@functools.lru_cache(maxsize=None)
def universe_table(u: Universe) -> UniverseTable:
    return UniverseTable(u)


def _unbound(rho: fmap, *formulas) -> bool:
    """Whether a formula has a free logical variable that rho does not bind."""
    return any(formula_free_logical_vars(f).difference(rho) for f in formulas)


# --- precision and entailment --------------------------------------------------------

def is_precise(f, u: Universe, rho: fmap = fmap()) -> bool:
    """At most one substate of any enumerable state satisfies the formula."""
    table = universe_table(u)
    if _unbound(rho, f):
        for sigma in table.states:
            found = None
            for cand, _ in _sub_pairs(sigma, u):
                if _sat(cand, f, rho, u):
                    if found is not None and cand != found:
                        return False
                    found = cand
        return True
    flags = _flags(table.models(f, rho), len(table.states))
    return all(sum(flags[a] for a, _ in pairs) <= 1 for pairs in table.splits)


def entails(p, q, u: Universe, rho: fmap = fmap()) -> bool:
    """Bounded semantic entailment: every enumerable state satisfying p
    satisfies q."""
    table = universe_table(u)
    if _unbound(rho, p, q):
        return all(_sat(sigma, q, rho, u) for sigma in table.states
                   if _sat(sigma, p, rho, u))
    return table.models(p, rho) & ~table.models(q, rho) == 0


def def_formula(b, u: Universe):
    """Ownership of every free variable of a boolean expression, at any
    permission from the universe's set."""
    conjuncts = []
    for x in sorted(expr_program_vars(b)):
        owns = None
        for p in u.perms:
            owns = Own(p, x) if owns is None else FOr(owns, Own(p, x))
        conjuncts.append(owns)
    out = FTrue()
    for c in conjuncts:
        out = c if isinstance(out, FTrue) else FAnd(out, c)
    return out


# --- textual form -----------------------------------------------------------------

def lstate_to_text(sigma: LogicalState) -> str:
    stack = ",".join(f"{k}={v}@{perm_to_text(p)}" for k, (v, p) in sigma.stack.items())
    heap = ",".join(f"{k}={v}@{perm_to_text(p)}" for k, (v, p) in sigma.heap.items())
    return "{%s|%s}" % (stack, heap)


def lstate_from_text(text: str) -> LogicalState:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError(f"bad logical state {text!r}")
    sections = body[1:-1].split("|")
    if len(sections) != 2:
        raise ParseError(f"logical state needs 2 sections: {text!r}")

    def pairs(section, key_is_int):
        out = {}
        for chunk in section.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            k, _, rest = chunk.partition("=")
            v, _, p = rest.partition("@")
            try:
                key = int(k) if key_is_int else k
                value, perm = int(v), Fraction(p)
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad binding {chunk!r} in {text!r}") from None
            if not 0 < perm <= 1:
                raise ParseError(f"permission {perm} outside (0,1] in {text!r}")
            if key in out:
                raise ParseError(f"repeated binding {key} in {text!r}")
            out[key] = (value, perm)
        return out

    return LogicalState(fmap(pairs(sections[0], False)),
                        fmap(pairs(sections[1], True)))
