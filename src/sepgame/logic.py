"""Permissions, logical states, the separation tensor and formula satisfaction.

Permissions are rationals in (0,1] under addition; 1 is the write permission
and admits no multiple.  Quantifiers and substate splits range over a declared
universe.  Satisfaction, precision and entailment are decided on models: the
set of universe states satisfying a formula, a bitmask over the states'
indices, built from the formula's structure.  Connectives and quantifiers
are bit operations.  An atom or a `*` reads only the cells of its support,
so it is decided on the states that hold no other cell (`*` over their
splits as index pairs) and the answers are widened to every state.  A state
satisfies a formula when its index's bit is set.
A state outside the enumerated ones (a cell whose share is no permission,
such as 3/4 under 1/4, 1/2 and 1, or whose value or variable the universe
does not declare) is interned: the table gives it the next index past them
the first time it is met.  Only such a state, or a logical variable the
valuation leaves unbound, is decided state by state by `_sat`, so that the
variable is reported where it is met.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from .maps import Node, fmap
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


class LogicalState(Node):
    stack: fmap = fmap()   # var -> (value, perm)
    heap: fmap = fmap()    # loc -> (value, perm)

    def is_empty(self):
        return not (self.stack._dict or self.heap._dict)


def _join(a: fmap, b: fmap):
    if not b._dict:
        return a
    if not a._dict:
        return b
    out = dict(a._dict)
    for k, (v, p) in b._dict.items():
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
    """Separation product; None when values disagree or permissions overflow.
    `emp` is its unit: with an empty operand it returns the other one."""
    if b.is_empty():
        return a
    if a.is_empty():
        return b
    stack = _join(a.stack, b.stack)
    if stack is None:
        return None
    heap = _join(a.heap, b.heap)
    if heap is None:
        return None
    return LogicalState(stack, heap)


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
    """The satisfaction judgement between a logical state and a formula, on
    the state's index (`UniverseTable.holds`)."""
    table = universe_table(u)
    return table.holds(table.intern(sigma), f, rho)


def first_split(i: int, fa, fb, rho: fmap, u: Universe):
    """The first split (a, b) of state i in `_sub_pairs` order with a
    satisfying fa and b satisfying fb, as a pair of indices, or None: a scan
    of the index splits against the models, or, for an interned state or a
    variable rho leaves unbound, of `_sub_pairs` asking `satisfies`."""
    table = universe_table(u)
    left = table.mask(fa, rho) if i < len(table.states) else None
    right = None if left is None else table.mask(fb, rho)
    if right is not None:
        for a, b in table.splits[i]:
            if left >> a & 1 and right >> b & 1:
                return a, b
        return None
    for a, b in _sub_pairs(table.state(i), u):
        if satisfies(a, fa, rho, u) and satisfies(b, fb, rho, u):
            return table.intern(a), table.intern(b)
    return None


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


class _Splits:
    """State i's splits at [i], built by `build(i)` on first use and kept."""

    def __init__(self, build, n: int):
        self.build, self.found = build, [None] * n

    def __getitem__(self, i: int) -> tuple:
        if self.found[i] is None:
            self.found[i] = self.build(i)
        return self.found[i]


class UniverseTable:
    """A universe indexed once: its states in `all_logical_states` order, each
    state's index, and per formula its support, its models under a valuation
    (a bitmask over the state indices) and whether the valuation leaves a
    variable of it unbound.  A state's index has one mixed-radix digit per
    cell, variables before locations: 0 for an absent cell, else 1 + value
    index * |perms| + perm index.  `parts` holds each cell's digits times its
    weight; `digits[k][d]` is the mask of the states whose cell k has digit
    d; `splits[i]`, built on first use, is state i's splits as (left index,
    right index) pairs in `_sub_pairs` order.  A state past the enumerated
    ones gets its index from `intern`, which `state` reads back; equal
    indices name one state.

    A formula's support is the cells its truth can read: none for true and
    false; a variable's cell for `own`; the program variables' cells for
    `=`, and every heap cell too for `|->`; every cell for `emp`; the union
    of the parts' supports otherwise.  An undeclared name has no cell.  An
    atom or a `*` is decided only on the states holding no cell outside its
    support, each answer widened to the states agreeing with that state on
    the support (the AND of its digits' masks).  For `*`, let C be the union
    of the operands' supports.  If sigma = a * b, the parts of a and b inside
    C split sigma's part inside C.  Conversely a split (a, b) of sigma's part
    inside C extends to a split of sigma by giving every other cell whole to
    the left (`_slot_splits` always offers (p, 0)), which leaves the left
    part's truth as a's."""

    def __init__(self, u: Universe):
        self.u = u
        self.states = all_logical_states(u)
        n = len(self.states)
        self.full = (1 << n) - 1
        self.radix = r = 1 + len(u.values) * len(u.perms)
        self.cells = [("s", x) for x in u.variables] + [("h", loc) for loc in u.locations]
        self.weights = [r ** (len(self.cells) - 1 - k) for k in range(len(self.cells))]
        # (kind, key, value) -> index parts at share 0, then at each permission
        self.parts = {(kind, key, value): (0,) + tuple(
            (1 + v * len(u.perms) + i) * w for i in range(len(u.perms)))
            for (kind, key), w in zip(self.cells, self.weights)
            for v, value in enumerate(u.values)}
        self.digits = [[_mask((bytes(d * w) + b"\x01" * w + bytes((r - 1 - d) * w))
                              * (n // (r * w))) for d in range(r)] for w in self.weights]
        # each slot's `_slot_splits` gives the digit pairs of its share:
        # options[k][digit] holds the (left, right) index parts
        self._options = []
        for kind, key in self.cells:
            per_digit = [((0, 0),)]
            for value in u.values:
                part = dict(zip((0,) + u.perms, self.parts[kind, key, value]))
                per_digit += [tuple((part[p1], part[p2]) for p1, p2 in _slot_splits(p, u.perms))
                              for p in u.perms]
            self._options.append(per_digit)
        # `slots` lists cells by sorted key, stack before heap
        self._order = sorted(range(len(self.cells)),
                             key=lambda k: (self.cells[k][0] == "h", self.cells[k][1]))
        self.splits = _Splits(self._state_splits, n)
        self._models, self._unbound, self._support = {}, {}, {}
        self.extra, self._masks, self.joins, self.wholes = [], {}, {}, {}  # joins: separation

    @functools.cached_property
    def index(self) -> dict:
        return {sigma: i for i, sigma in enumerate(self.states)}

    def intern(self, sigma: LogicalState) -> int:
        """sigma's index; a state not enumerated gets the next free one."""
        i = self.index.get(sigma)
        if i is None:
            i = self.index[sigma] = len(self.states) + len(self.extra)
            self.extra.append(sigma)
        return i

    def state(self, i: int) -> LogicalState:
        return self.states[i] if i < len(self.states) else self.extra[i - len(self.states)]

    def mask(self, f, rho: fmap):
        """f's models under rho, None when rho leaves a variable of f unbound;
        kept per object pair, as equal formulas parsed apart compare deeply."""
        hit = self._masks.get((id(f), id(rho)))
        if hit is None or hit[0] is not f or hit[1] is not rho:
            hit = self._masks[id(f), id(rho)] = (
                f, rho, None if self.unbound(rho, f) else self.models(f, rho))
        return hit[2]

    def holds(self, i: int, f, rho: fmap) -> bool:
        """State i's bit of `mask`; `_sat` for an interned state or None mask."""
        mask = self.mask(f, rho) if i < len(self.states) else None
        return _sat(self.state(i), f, rho, self.u) if mask is None else mask >> i & 1 == 1

    def _state_splits(self, i: int) -> tuple:
        pairs = [(0, 0)]
        for k in self._order:
            digit = i // self.weights[k] % self.radix
            if digit:
                pairs = [(a + x, b + y) for a, b in pairs for x, y in self._options[k][digit]]
        return tuple(pairs)

    def models(self, f, rho: fmap = fmap()) -> int:
        """The states satisfying f under rho, as a bitmask over their indices."""
        key = (f, rho)
        found = self._models.get(key)
        if found is None:
            found = self._models[key] = self._decide(f, rho)
        return found

    def unbound(self, rho: fmap, *formulas) -> bool:
        """Whether a formula has a free logical variable that rho does not
        bind; scanned once per (formula, rho)."""
        found = self._unbound
        for f in formulas:
            if (f, rho) not in found:
                found[f, rho] = bool(formula_free_logical_vars(f).difference(rho))
        return any(found[f, rho] for f in formulas)

    def support(self, f) -> tuple:
        """The numbers of the cells f's truth can read, ascending."""
        found = self._support.get(f)
        if found is None:
            match f:
                case FAnd(l, r) | FOr(l, r) | FImplies(l, r) | Star(l, r):
                    read = {*self.support(l), *self.support(r)}
                case FNot(b) | Forall(_, b) | Exists(_, b):
                    read = self.support(b)
                case FTrue() | FFalse():
                    read = ()
                case Own(_, x):
                    read = self._cells({x})
                case FEq(a, v) | PointsTo(a, _, v):
                    read = self._cells(expr_program_vars(a) | expr_program_vars(v),
                                       heap=isinstance(f, PointsTo))
                case _:
                    read = range(len(self.cells))
            found = self._support[f] = tuple(sorted(read))
        return found

    def _cells(self, names, heap=False) -> list:
        """The named variables' cells, and every heap cell when heap is set."""
        return [k for k, (kind, key) in enumerate(self.cells)
                if (heap if kind == "h" else key in names)]

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
                left, right = self.models(l, rho), self.models(r, rho)
                if not left or not right:
                    return 0
                lf, rf = _flags(left, len(self.states)), _flags(right, len(self.states))
                holds = lambda i: any(lf[a] and rf[b] for a, b in self.splits[i])
            case _:
                holds = lambda i: _atom(self.states[i], f, rho)
        # the states holding no cell outside the support, in index order
        support, over = self.support(f), [0]
        for k in support:
            over = [i + d * self.weights[k] for i in over for d in range(self.radix)]
        answers = [holds(i) for i in over]
        if len(support) == len(self.cells):
            return _mask(answers)
        cubes = [self.full]     # cubes[j]: the states agreeing with over[j] on the support
        for k in support:
            cubes = [m & digit for m in cubes for digit in self.digits[k]]
        return functools.reduce(operator.or_, itertools.compress(cubes, answers), 0)


@functools.lru_cache(maxsize=None)
def universe_table(u: Universe) -> UniverseTable:
    return UniverseTable(u)


# --- precision and entailment --------------------------------------------------------

def is_precise(f, u: Universe, rho: fmap = fmap()) -> bool:
    """At most one substate of any enumerable state satisfies the formula.

    A satisfiable formula whose support misses some cell c is not precise:
    take a state satisfying it, drop its cells outside the support and add c
    whole; that state's substates without c and with c both satisfy the
    formula, as they agree on the support.  So only a formula that reads
    every cell has its splits scanned."""
    table = universe_table(u)
    if table.unbound(rho, f):
        for sigma in table.states:
            found = None
            for cand, _ in _sub_pairs(sigma, u):
                if _sat(cand, f, rho, u):
                    if found is not None and cand != found:
                        return False
                    found = cand
        return True
    models = table.models(f, rho)
    if len(table.support(f)) < len(table.cells):
        return models == 0
    flags = _flags(models, len(table.states))
    return all(sum(flags[a] for a, _ in pairs) <= 1 for pairs in table.splits)


def entails(p, q, u: Universe, rho: fmap = fmap()) -> bool:
    """Bounded semantic entailment: every enumerable state satisfying p
    satisfies q."""
    table = universe_table(u)
    if table.unbound(rho, p, q):
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
