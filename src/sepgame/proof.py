"""Checker for the concurrent-separation-logic sequent calculus.

Rule schemas are matched syntactically, up to associativity/commutativity of
the separating and the classical conjunction and up to renaming of bound
logical variables.  Semantic side conditions (definedness of branch tests,
precision of context invariants, consequence entailments) are discharged by
bounded enumeration over the declared universe.

The core calculus covers assignment, store, load, seq, if, conj, res, with,
par and frame.  Extension rules (skip, while, alloc, dispose, consequence)
are not part of that core and are quarantined behind an explicit flag; every
use is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .logic import (TOP, UncoveredLogicalVariable, def_formula, entails,
                    is_precise)
from .maps import fmap
from .syntax import (Add, AllocC, Assign, DisposeC, Emp, Exists, EXTENSION_RULES,
                     FAnd, FEq, FFalse, FImplies, FNot, FOr, Forall, FTrue,
                     IfC, Lit, Load, Mul, Own, ParC, PointsTo, ProofNode,
                     ResourceC, SeqC, Skip, Star, Store, Universe, Var, While,
                     WithWhen, bexpr_to_formula, expr_program_vars,
                     formula_free_logical_vars, is_logical_name)


@dataclass(frozen=True)
class Sequent:
    ctx: fmap
    pre: object
    cmd: object
    post: object


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

@dataclass
class ProofCheckResult:
    ok: bool
    sequent: Sequent | None
    valuation: fmap
    violations: list = field(default_factory=list)
    extensions_used: tuple = ()

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
            complain(path, n.tag, f"logical variables not instantiated: {missing}")
        handler = _HANDLERS.get(n.tag)
        try:
            handler(n, path, u, rho, complain)
        except UncoveredLogicalVariable:
            # A side condition over an uninstantiated variable cannot be
            # decided; the variable is reported above.
            if not missing:
                raise
        for i, child in enumerate(n.children):
            check(child, f"{path}.{i}")

    check(node, "root")
    ok = not violations
    sequent = Sequent(node.ctx, node.pre, node.cmd, node.post) if ok else None
    return ProofCheckResult(ok, sequent, rho, violations, tuple(extensions))


# --- per-rule schema checks ------------------------------------------------------------

def _match_ghost_eq(pre, x, e):
    """Find the ghost X with pre == own_T(x) * (X = e), up to AC."""
    for cand in sorted(formula_free_logical_vars(pre)):
        want = Star(Own(TOP, x), FEq(Var(cand), e))
        if formulas_match(pre, want):
            return cand
    return None


def _check_aff(n, path, u, rho, complain):
    if not isinstance(n.cmd, Assign):
        complain(path, n.tag, "aff applies to an assignment")
        return
    x, e = n.cmd.var, n.cmd.expr
    ghost = _match_ghost_eq(n.pre, x, e)
    if ghost is None:
        complain(path, n.tag, "precondition is not own_T(x) * (X = E)")
        return
    want_post = Star(Own(TOP, x), FEq(Var(x), Var(ghost)))
    if not formulas_match(n.post, want_post):
        complain(path, n.tag, "postcondition is not own_T(x) * (x = X)")


def _check_store(n, path, u, rho, complain):
    if not isinstance(n.cmd, Store):
        complain(path, n.tag, "store applies to a heap write")
        return
    e, e2 = n.cmd.addr, n.cmd.expr
    want_pre = Exists("X_1", PointsTo(e, TOP, Var("X_1")))
    if not formulas_match(n.pre, want_pre):
        complain(path, n.tag, "precondition is not E |-> -")
        return
    if not formulas_match(n.post, PointsTo(e, TOP, e2)):
        complain(path, n.tag, "postcondition is not E |-> E'")


def _check_load(n, path, u, rho, complain):
    if not isinstance(n.cmd, Load):
        complain(path, n.tag, "load applies to a heap read")
        return
    x, e = n.cmd.var, n.cmd.addr
    if x in expr_program_vars(e):
        complain(path, n.tag, f"side condition violated: {x} occurs in the address")
        return
    parts = star_parts(n.pre)
    cell = None
    for part in parts:
        if isinstance(part, PointsTo) and isinstance(part.value, Var) \
                and is_logical_name(part.value.name):
            cell = part
    if cell is None or len(parts) != 2:
        complain(path, n.tag, "precondition is not E |->[p] v * own_T(x)")
        return
    p, v = cell.perm, cell.value.name
    if not formulas_match(n.pre, Star(PointsTo(e, p, Var(v)), Own(TOP, x))):
        complain(path, n.tag, "precondition is not E |->[p] v * own_T(x)")
        return
    want_post = Star(Star(PointsTo(e, p, Var(v)), Own(TOP, x)),
                     FEq(Var(x), Var(v)))
    if not formulas_match(n.post, want_post):
        complain(path, n.tag, "postcondition is not E |->[p] v * own_T(x) * (x = v)")


def _check_seq(n, path, u, rho, complain):
    if not isinstance(n.cmd, SeqC):
        complain(path, n.tag, "seq applies to a sequential composition")
        return
    c1, c2 = n.children
    if c1.cmd != n.cmd.first or c2.cmd != n.cmd.second:
        complain(path, n.tag, "premise commands do not match the composition")
    if not (ctx_match(c1.ctx, n.ctx) and ctx_match(c2.ctx, n.ctx)):
        complain(path, n.tag, "premise contexts differ from the conclusion's")
    if not formulas_match(c1.pre, n.pre):
        complain(path, n.tag, "first premise precondition mismatch")
    if not formulas_match(c1.post, c2.pre):
        complain(path, n.tag, "midpoint mismatch between the premises")
    if not formulas_match(c2.post, n.post):
        complain(path, n.tag, "second premise postcondition mismatch")


def _check_if(n, path, u, rho, complain):
    if not isinstance(n.cmd, IfC):
        complain(path, n.tag, "if applies to a conditional")
        return
    b = n.cmd.cond
    if not entails(n.pre, def_formula(b, u), u, rho):
        complain(path, n.tag, "side condition P => def(B) fails")
    c1, c2 = n.children
    bf = bexpr_to_formula(b)
    if c1.cmd != n.cmd.then or c2.cmd != n.cmd.orelse:
        complain(path, n.tag, "premise commands do not match the branches")
    if not (ctx_match(c1.ctx, n.ctx) and ctx_match(c2.ctx, n.ctx)):
        complain(path, n.tag, "premise contexts differ from the conclusion's")
    if not formulas_match(c1.pre, FAnd(n.pre, bf)):
        complain(path, n.tag, "then-premise precondition is not P /\\ B")
    if not formulas_match(c2.pre, FAnd(n.pre, FNot(bf))):
        complain(path, n.tag, "else-premise precondition is not P /\\ not B")
    if not (formulas_match(c1.post, n.post) and formulas_match(c2.post, n.post)):
        complain(path, n.tag, "premise postconditions differ from the conclusion's")


def _check_conj(n, path, u, rho, complain):
    c1, c2 = n.children
    for r, j in n.ctx.items():
        if not is_precise(j, u, rho):
            complain(path, n.tag, f"context invariant for {r} is not precise")
    if c1.cmd != n.cmd or c2.cmd != n.cmd:
        complain(path, n.tag, "premises must prove the same command")
    if not (ctx_match(c1.ctx, n.ctx) and ctx_match(c2.ctx, n.ctx)):
        complain(path, n.tag, "premise contexts differ from the conclusion's")
    if not formulas_match(n.pre, FAnd(c1.pre, c2.pre)):
        complain(path, n.tag, "conclusion precondition is not P1 /\\ P2")
    if not formulas_match(n.post, FAnd(c1.post, c2.post)):
        complain(path, n.tag, "conclusion postcondition is not Q1 /\\ Q2")


def _check_res(n, path, u, rho, complain):
    if not isinstance(n.cmd, ResourceC):
        complain(path, n.tag, "res applies to a resource declaration")
        return
    r = n.params["r"]
    j = n.params["inv"]
    if r != n.cmd.lock:
        complain(path, n.tag, "declared resource differs from the command's")
        return
    if r in n.ctx:
        complain(path, n.tag, f"resource {r} already bound in the context")
    child = n.children[0]
    if child.cmd != n.cmd.body:
        complain(path, n.tag, "premise command is not the resource body")
    if not ctx_match(child.ctx, n.ctx.set(r, j)):
        complain(path, n.tag, "premise context is not the conclusion's plus r:J")
    if not formulas_match(n.pre, Star(child.pre, j)):
        complain(path, n.tag, "conclusion precondition is not P * J")
    if not formulas_match(n.post, Star(child.post, j)):
        complain(path, n.tag, "conclusion postcondition is not Q * J")


def _check_with(n, path, u, rho, complain):
    if not isinstance(n.cmd, WithWhen):
        complain(path, n.tag, "with applies to a with-when block")
        return
    r, b = n.cmd.lock, n.cmd.cond
    if r not in n.ctx:
        complain(path, n.tag, f"resource {r} is not bound in the context")
        return
    j = n.ctx[r]
    if not entails(n.pre, def_formula(b, u), u, rho):
        complain(path, n.tag, "side condition P => def(B) fails")
    child = n.children[0]
    if child.cmd != n.cmd.body:
        complain(path, n.tag, "premise command is not the block body")
    if not ctx_match(child.ctx, n.ctx.remove(r)):
        complain(path, n.tag, "premise context is not the conclusion's minus r")
    if not formulas_match(child.pre, FAnd(Star(n.pre, j), bexpr_to_formula(b))):
        complain(path, n.tag, "premise precondition is not (P * J) /\\ B")
    if not formulas_match(child.post, Star(n.post, j)):
        complain(path, n.tag, "premise postcondition is not Q * J")


def _check_par(n, path, u, rho, complain):
    if not isinstance(n.cmd, ParC):
        complain(path, n.tag, "par applies to a parallel composition")
        return
    c1, c2 = n.children
    if c1.cmd != n.cmd.left or c2.cmd != n.cmd.right:
        complain(path, n.tag, "premise commands do not match the composition")
    if not (ctx_match(c1.ctx, n.ctx) and ctx_match(c2.ctx, n.ctx)):
        complain(path, n.tag, "premise contexts differ from the conclusion's")
    if not formulas_match(n.pre, Star(c1.pre, c2.pre)):
        complain(path, n.tag, "conclusion precondition is not P1 * P2")
    if not formulas_match(n.post, Star(c1.post, c2.post)):
        complain(path, n.tag, "conclusion postcondition is not Q1 * Q2")


def _check_frame(n, path, u, rho, complain):
    r = n.params["R"]
    child = n.children[0]
    if child.cmd != n.cmd:
        complain(path, n.tag, "premise command differs from the conclusion's")
    if not ctx_match(child.ctx, n.ctx):
        complain(path, n.tag, "premise context differs from the conclusion's")
    if not formulas_match(n.pre, Star(child.pre, r)):
        complain(path, n.tag, "conclusion precondition is not P * R")
    if not formulas_match(n.post, Star(child.post, r)):
        complain(path, n.tag, "conclusion postcondition is not Q * R")


def _check_ext_skip(n, path, u, rho, complain):
    if not isinstance(n.cmd, Skip):
        complain(path, n.tag, "ext_skip applies to skip")
        return
    if not formulas_match(n.pre, n.post):
        complain(path, n.tag, "skip must keep its precondition")


def _check_ext_while(n, path, u, rho, complain):
    if not isinstance(n.cmd, While):
        complain(path, n.tag, "ext_while applies to a while loop")
        return
    b = n.cmd.cond
    inv = n.pre
    if not entails(inv, def_formula(b, u), u, rho):
        complain(path, n.tag, "side condition I => def(B) fails")
    child = n.children[0]
    if child.cmd != n.cmd.body:
        complain(path, n.tag, "premise command is not the loop body")
    if not ctx_match(child.ctx, n.ctx):
        complain(path, n.tag, "premise context differs from the conclusion's")
    if not formulas_match(child.pre, FAnd(inv, bexpr_to_formula(b))):
        complain(path, n.tag, "premise precondition is not I /\\ B")
    if not formulas_match(child.post, inv):
        complain(path, n.tag, "premise must re-establish the invariant")
    if not formulas_match(n.post, FAnd(inv, FNot(bexpr_to_formula(b)))):
        complain(path, n.tag, "conclusion postcondition is not I /\\ not B")


def _check_ext_conseq(n, path, u, rho, complain):
    child = n.children[0]
    if child.cmd != n.cmd:
        complain(path, n.tag, "premise command differs from the conclusion's")
    if not ctx_match(child.ctx, n.ctx):
        complain(path, n.tag, "premise context differs from the conclusion's")
    if not entails(n.pre, child.pre, u, rho):
        complain(path, n.tag, "precondition entailment fails")
    if not entails(child.post, n.post, u, rho):
        complain(path, n.tag, "postcondition entailment fails")


def _check_ext_alloc(n, path, u, rho, complain):
    if not isinstance(n.cmd, AllocC):
        complain(path, n.tag, "ext_alloc applies to an allocation")
        return
    x, e = n.cmd.var, n.cmd.expr
    ghost = _match_ghost_eq(n.pre, x, e)
    if ghost is None:
        complain(path, n.tag, "precondition is not own_T(x) * (X = E)")
        return
    want_post = Star(Own(TOP, x), PointsTo(Var(x), TOP, Var(ghost)))
    if not formulas_match(n.post, want_post):
        complain(path, n.tag, "postcondition is not own_T(x) * (x |-> X)")


def _check_ext_dispose(n, path, u, rho, complain):
    if not isinstance(n.cmd, DisposeC):
        complain(path, n.tag, "ext_dispose applies to a disposal")
        return
    e = n.cmd.addr
    want_pre = Exists("X_1", PointsTo(e, TOP, Var("X_1")))
    if not formulas_match(n.pre, want_pre):
        complain(path, n.tag, "precondition is not E |-> -")
        return
    if not formulas_match(n.post, Emp()):
        complain(path, n.tag, "postcondition is not emp")


_HANDLERS = {
    "aff": _check_aff,
    "store": _check_store,
    "load": _check_load,
    "seq": _check_seq,
    "if": _check_if,
    "conj": _check_conj,
    "res": _check_res,
    "with": _check_with,
    "par": _check_par,
    "frame": _check_frame,
    "ext_skip": _check_ext_skip,
    "ext_while": _check_ext_while,
    "ext_conseq": _check_ext_conseq,
    "ext_alloc": _check_ext_alloc,
    "ext_dispose": _check_ext_dispose,
}
