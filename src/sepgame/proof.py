"""Checker for the concurrent-separation-logic sequent calculus.

Rule schemas are matched syntactically, up to associativity/commutativity of
the separating and the classical conjunction and up to renaming of bound
logical variables.  Semantic side conditions (definedness of branch tests,
precision of context invariants, consequence entailments) are discharged by
bounded enumeration over the declared universe.

Each rule is a schema (`_SCHEMAS`) that yields the rule's obligations on a
node as (holds, reason) pairs, in report order; `check_proof` reports the
pairs that fail.  Conflicting valuations come first, for the whole tree.
Then, node by node in pre-order: an extension rule used without the flag,
logical variables left uninstantiated, and either a command of the wrong
shape for the rule (the one table `_SHAPES`) or the failing obligations.
Premise commands and premise contexts are one obligation each
(`_premises`).  A schema stops early, reporting one reason for its node,
where the rest cannot be stated: `res` on a lock other than the command's,
`with` on a lock the context does not bind, an axiom whose precondition
does not match, and `load` when x occurs in the address.

The core calculus covers assignment, store, load, seq, if, conj, res, with,
par and frame.  Extension rules (skip, while, alloc, dispose, consequence)
are not part of that core and are quarantined behind an explicit flag; every
use is reported.
"""
from __future__ import annotations

from .logic import (TOP, UncoveredLogicalVariable, def_formula, entails,
                    is_precise)
from .maps import fmap
from .syntax import (Add, AllocC, Assign, DisposeC, Emp, Exists, EXTENSION_RULES,
                     FAnd, FEq, FFalse, FImplies, FNot, FOr, Forall, FTrue,
                     IfC, Lit, Load, Mul, Own, ParC, PointsTo, ProofNode,
                     ResourceC, SeqC, Skip, Star, Store, Universe, Var, While,
                     WithWhen, expr_program_vars,
                     formula_free_logical_vars, is_logical_name)


# --- normalization: AC of * and /\, canonical bound names --------------------------

def _subst_expr(e, env):
    match e:
        case Lit():
            return e
        case Var(name):
            return Var(env.get(name, name))
        case Add(a, b):
            return Add(_subst_expr(a, env), _subst_expr(b, env))
        case Mul(a, b):
            return Mul(_subst_expr(a, env), _subst_expr(b, env))
    raise TypeError(e)


def _flatten(f, cls):
    if isinstance(f, cls):
        return _flatten(f.left, cls) + _flatten(f.right, cls)
    return [f]


def _rebuild(parts, cls):
    out = parts[0]
    for p in parts[1:]:
        out = cls(out, p)
    return out


def _norm(f, env, depth):
    match f:
        case Emp() | FTrue() | FFalse() | Own():
            return f
        case Star(_, _) | FAnd(_, _):
            cls = type(f)
            parts = sorted((_norm(p, env, depth) for p in _flatten(f, cls)),
                           key=repr)
            return _rebuild(parts, cls)
        case FOr(l, r):
            return FOr(_norm(l, env, depth), _norm(r, env, depth))
        case FImplies(l, r):
            return FImplies(_norm(l, env, depth), _norm(r, env, depth))
        case FNot(b):
            return FNot(_norm(b, env, depth))
        case Forall(x, b):
            nm = f"_B{depth}"
            return Forall(nm, _norm(b, {**env, x: nm}, depth + 1))
        case Exists(x, b):
            nm = f"_B{depth}"
            return Exists(nm, _norm(b, {**env, x: nm}, depth + 1))
        case FEq(l, r):
            return FEq(_subst_expr(l, env), _subst_expr(r, env))
        case PointsTo(a, p, v):
            return PointsTo(_subst_expr(a, env), p, _subst_expr(v, env))
    raise TypeError(f)


def normalize(f):
    return _norm(f, {}, 0)


def formulas_match(a, b) -> bool:
    return normalize(a) == normalize(b)


def star_parts(f) -> list:
    return _flatten(normalize(f), Star)


def ctx_match(a: fmap, b: fmap) -> bool:
    if set(a) != set(b):
        return False
    return all(formulas_match(a[r], b[r]) for r in a)


# --- the checker ---------------------------------------------------------------------

class ProofCheckResult:
    def __init__(self, ok: bool, valuation: fmap, violations: list,
                 extensions_used: tuple):
        self.ok, self.valuation = ok, valuation
        self.violations, self.extensions_used = violations, extensions_used

    def report(self, universe_label="") -> list:
        return [{"node_path": path, "rule": rule, "reason": reason,
                 "universe": universe_label}
                for path, rule, reason in self.violations]


def check_proof(node: ProofNode, u: Universe,
                allow_extensions: bool = False) -> ProofCheckResult:
    violations = []
    extensions = []
    valuation = {}

    def complain(path, rule, reason):
        violations.append((path, rule, reason))

    def collect_valuation(n, path):
        for x, v in n.params._dict.get("val", fmap()).items():
            if x in valuation and valuation[x] != v:
                complain(path, n.tag, f"conflicting valuation for {x}")
            else:
                valuation[x] = v
        for child_i, child in enumerate(n.children):
            collect_valuation(child, f"{path}.{child_i}")

    collect_valuation(node, "root")
    rho = fmap(valuation)

    def node_formulas(n):
        yield n.pre
        yield n.post
        for _, j in n.ctx.items():
            yield j
        for key in ("R", "inv"):
            if key in n.params:
                yield n.params[key]

    undecided, reported = [], []

    def check(n: ProofNode, path: str):
        if n.tag in EXTENSION_RULES:
            extensions.append((path, n.tag))
            if not allow_extensions:
                complain(path, n.tag, "extension rule used without allow-extensions")
        free = set()
        for f in node_formulas(n):
            free |= formula_free_logical_vars(f)
        missing = sorted(free - set(valuation))
        if missing:
            reported.append(path)
            complain(path, n.tag, f"logical variables not instantiated: {missing}")
        shape = _SHAPES.get(n.tag)
        if shape and not isinstance(n.cmd, shape[0]):
            complain(path, n.tag, f"{n.tag} applies to {shape[1]}")
        else:
            try:
                for holds, reason in _SCHEMAS[n.tag](n, u, rho):
                    if not holds:
                        complain(path, n.tag, reason)
            except UncoveredLogicalVariable as exc:
                # A side condition over an uninstantiated variable cannot be
                # decided; the node whose formula holds it reports the variable.
                undecided.append(exc)
        for i, child in enumerate(n.children):
            check(child, f"{path}.{i}")

    check(node, "root")
    if undecided and not reported:
        raise undecided[0]
    return ProofCheckResult(not violations, rho, violations, tuple(extensions))


# --- rule schemas ----------------------------------------------------------------------
# A schema sees only nodes whose command has its rule's shape.  It stops early by
# yielding a failing pair and returning.

_SHAPES = {
    "aff": (Assign, "an assignment"), "store": (Store, "a heap write"),
    "load": (Load, "a heap read"), "seq": (SeqC, "a sequential composition"),
    "if": (IfC, "a conditional"), "res": (ResourceC, "a resource declaration"),
    "with": (WithWhen, "a with-when block"), "par": (ParC, "a parallel composition"),
    "ext_skip": (Skip, "skip"), "ext_while": (While, "a while loop"),
    "ext_alloc": (AllocC, "an allocation"), "ext_dispose": (DisposeC, "a disposal"),
}


def _premises(n, cmds, cmd_reason, ctx=None, ctx_reason=None):
    """The premises prove cmds, in that order, each in context ctx (by default
    the conclusion's)."""
    if ctx is None:
        ctx = n.ctx
        ctx_reason = ("premise contexts differ from the conclusion's" if len(cmds) == 2
                      else "premise context differs from the conclusion's")
    yield all(c.cmd == cmd for c, cmd in zip(n.children, cmds)), cmd_reason
    yield all(ctx_match(c.ctx, ctx) for c in n.children), ctx_reason


def _conclusion(n, pre, post, pre_shown, post_shown):
    yield formulas_match(n.pre, pre), f"conclusion precondition is not {pre_shown}"
    yield formulas_match(n.post, post), f"conclusion postcondition is not {post_shown}"


def _match_ghost_eq(pre, x, e):
    """Find the ghost X with pre == own_T(x) * (X = e), up to AC."""
    for cand in sorted(formula_free_logical_vars(pre)):
        if formulas_match(pre, Star(Own(TOP, x), FEq(Var(cand), e))):
            return cand
    return None


def _ghost_axiom(post, shown):
    """{own_T(x) * (X = E)} x := ...E... {own_T(x) * post(x, X)}: aff, ext_alloc."""
    def schema(n, u, rho):
        x = n.cmd.var
        ghost = _match_ghost_eq(n.pre, x, n.cmd.expr)
        if ghost is None:
            yield False, "precondition is not own_T(x) * (X = E)"
            return
        yield (formulas_match(n.post, Star(Own(TOP, x), post(Var(x), Var(ghost)))),
               f"postcondition is not own_T(x) * ({shown})")
    return schema


def _cell_axiom(post, shown):
    """{E |-> -} C {post(C)} for a command C on the cell at E: store, ext_dispose."""
    def schema(n, u, rho):
        if not formulas_match(n.pre, Exists("X_1", PointsTo(n.cmd.addr, TOP, Var("X_1")))):
            yield False, "precondition is not E |-> -"
            return
        yield formulas_match(n.post, post(n.cmd)), f"postcondition is not {shown}"
    return schema


def _load(n, u, rho):
    x, e = n.cmd.var, n.cmd.addr
    if x in expr_program_vars(e):
        yield False, f"side condition violated: {x} occurs in the address"
        return
    parts = star_parts(n.pre)
    cells = [part for part in parts if isinstance(part, PointsTo)
             and isinstance(part.value, Var) and is_logical_name(part.value.name)]
    pre = cells and Star(PointsTo(e, cells[-1].perm, cells[-1].value), Own(TOP, x))
    if len(parts) != 2 or not cells or not formulas_match(n.pre, pre):
        yield False, "precondition is not E |->[p] v * own_T(x)"
        return
    yield (formulas_match(n.post, Star(pre, FEq(Var(x), cells[-1].value))),
           "postcondition is not E |->[p] v * own_T(x) * (x = v)")


def _seq(n, u, rho):
    c1, c2 = n.children
    yield from _premises(n, (n.cmd.first, n.cmd.second),
                         "premise commands do not match the composition")
    yield formulas_match(c1.pre, n.pre), "first premise precondition mismatch"
    yield formulas_match(c1.post, c2.pre), "midpoint mismatch between the premises"
    yield formulas_match(c2.post, n.post), "second premise postcondition mismatch"


def _if(n, u, rho):
    b = n.cmd.cond
    c1, c2 = n.children
    yield entails(n.pre, def_formula(b, u), u, rho), "side condition P => def(B) fails"
    yield from _premises(n, (n.cmd.then, n.cmd.orelse),
                         "premise commands do not match the branches")
    yield formulas_match(c1.pre, FAnd(n.pre, b)), "then-premise precondition is not P /\\ B"
    yield (formulas_match(c2.pre, FAnd(n.pre, FNot(b))),
           "else-premise precondition is not P /\\ not B")
    yield (formulas_match(c1.post, n.post) and formulas_match(c2.post, n.post),
           "premise postconditions differ from the conclusion's")


def _conj(n, u, rho):
    c1, c2 = n.children
    for r, j in n.ctx.items():
        yield is_precise(j, u, rho), f"context invariant for {r} is not precise"
    yield from _premises(n, (n.cmd, n.cmd), "premises must prove the same command")
    yield from _conclusion(n, FAnd(c1.pre, c2.pre), FAnd(c1.post, c2.post),
                           "P1 /\\ P2", "Q1 /\\ Q2")


def _res(n, u, rho):
    r, j, child = n.params["r"], n.params["inv"], n.children[0]
    if r != n.cmd.lock:
        yield False, "declared resource differs from the command's"
        return
    yield r not in n.ctx, f"resource {r} already bound in the context"
    yield from _premises(n, (n.cmd.body,), "premise command is not the resource body",
                         n.ctx.set(r, j),
                         "premise context is not the conclusion's plus r:J")
    yield from _conclusion(n, Star(child.pre, j), Star(child.post, j), "P * J", "Q * J")


def _with(n, u, rho):
    r, b, child = n.cmd.lock, n.cmd.cond, n.children[0]
    if r not in n.ctx:
        yield False, f"resource {r} is not bound in the context"
        return
    j = n.ctx[r]
    yield entails(n.pre, def_formula(b, u), u, rho), "side condition P => def(B) fails"
    yield from _premises(n, (n.cmd.body,), "premise command is not the block body",
                         n.ctx.remove(r), "premise context is not the conclusion's minus r")
    yield (formulas_match(child.pre, FAnd(Star(n.pre, j), b)),
           "premise precondition is not (P * J) /\\ B")
    yield formulas_match(child.post, Star(n.post, j)), "premise postcondition is not Q * J"


def _par(n, u, rho):
    c1, c2 = n.children
    yield from _premises(n, (n.cmd.left, n.cmd.right),
                         "premise commands do not match the composition")
    yield from _conclusion(n, Star(c1.pre, c2.pre), Star(c1.post, c2.post),
                           "P1 * P2", "Q1 * Q2")


def _frame(n, u, rho):
    r, child = n.params["R"], n.children[0]
    yield from _premises(n, (n.cmd,), "premise command differs from the conclusion's")
    yield from _conclusion(n, Star(child.pre, r), Star(child.post, r), "P * R", "Q * R")


def _skip(n, u, rho):
    yield formulas_match(n.pre, n.post), "skip must keep its precondition"


def _while(n, u, rho):
    b, inv, child = n.cmd.cond, n.pre, n.children[0]
    yield entails(inv, def_formula(b, u), u, rho), "side condition I => def(B) fails"
    yield from _premises(n, (n.cmd.body,), "premise command is not the loop body")
    yield formulas_match(child.pre, FAnd(inv, b)), "premise precondition is not I /\\ B"
    yield formulas_match(child.post, inv), "premise must re-establish the invariant"
    yield (formulas_match(n.post, FAnd(inv, FNot(b))),
           "conclusion postcondition is not I /\\ not B")


def _conseq(n, u, rho):
    child = n.children[0]
    yield from _premises(n, (n.cmd,), "premise command differs from the conclusion's")
    yield entails(n.pre, child.pre, u, rho), "precondition entailment fails"
    yield entails(child.post, n.post, u, rho), "postcondition entailment fails"


_SCHEMAS = {
    "aff": _ghost_axiom(FEq, "x = X"),
    "store": _cell_axiom(lambda c: PointsTo(c.addr, TOP, c.expr), "E |-> E'"),
    "load": _load, "seq": _seq, "if": _if, "conj": _conj, "res": _res, "with": _with,
    "par": _par, "frame": _frame, "ext_skip": _skip, "ext_while": _while,
    "ext_conseq": _conseq,
    "ext_alloc": _ghost_axiom(lambda x, ghost: PointsTo(x, TOP, ghost), "x |-> X"),
    "ext_dispose": _cell_axiom(lambda c: Emp(), "emp"),
}
