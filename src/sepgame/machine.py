"""Memory states, machine states and the labelled machine-step relation.

The instructions that label steps are the syntax's atomic commands (assign,
load, store, alloc, dispose) plus nop, acquire and release, which no command
is written as.  Steps either return a successor state or produce a runtime
error; a blocked lock instruction produces no step at all, which is how
`with` waits.
"""

from __future__ import annotations

from .maps import Node, fmap
from .syntax import (Add, AllocC, Assign, DisposeC, FAnd, FEq, FFalse, FOr,
                     FTrue, Lit, Load, Mul, ParseError, Store, Universe, Var,
                     program_to_text)


class _Abort:
    def __repr__(self):
        return "ABORT"


ABORT = _Abort()


class MemoryState(Node):
    stack: fmap = fmap()   # var -> value
    heap: fmap = fmap()    # location -> value

    def set_var(self, x, v):
        return MemoryState(self.stack.set(x, v), self.heap)

    def set_cell(self, loc, v):
        return MemoryState(self.stack, self.heap.set(loc, v))

    def drop_cell(self, loc):
        return MemoryState(self.stack, self.heap.remove(loc))


class MachineState(Node):
    """Keeps its `text` (`mstate_to_text`), rendered when first asked for and
    never compared, hashed or shown in the repr; unset until then, since
    every machine step builds a state."""
    __slots__ = ("text",)
    memory: MemoryState = MemoryState()
    locked: frozenset = frozenset()

    def with_memory(self, mu):
        return MachineState(mu, self.locked)

    def with_locked(self, locked):
        return MachineState(self.memory, frozenset(locked))


# --- instructions -------------------------------------------------------------

# The atomic commands of the syntax (Assign, Load, Store, AllocC, DisposeC)
# label their own steps; the three instructions below have no command form.

class INop(Node):
    pass

class IAcquire(Node):
    lock: str

class IRelease(Node):
    lock: str


class Return(Node):
    state: MachineState

class Error(Node):
    pass

ERROR = Error()


def eval_expr(e, mu: MemoryState):
    """Value of an arithmetic expression, or ABORT if a variable is unallocated."""
    match e:
        case Lit(v):
            return v
        case Var(name):
            try:
                return mu.stack[name]
            except KeyError:
                return ABORT
        case Add(a, b):
            va, vb = eval_expr(a, mu), eval_expr(b, mu)
            return ABORT if va is ABORT or vb is ABORT else va + vb
        case Mul(a, b):
            va, vb = eval_expr(a, mu), eval_expr(b, mu)
            return ABORT if va is ABORT or vb is ABORT else va * vb
    raise TypeError(e)


def eval_bool(b, mu: MemoryState):
    """Three-valued evaluation of a test: True, False or ABORT.

    Evaluation is strict: every subexpression is evaluated, so an unallocated
    variable aborts even under `true or ...`.
    """
    match b:
        case FTrue():
            return True
        case FFalse():
            return False
        case FAnd(l, r):
            vl, vr = eval_bool(l, mu), eval_bool(r, mu)
            return ABORT if vl is ABORT or vr is ABORT else (vl and vr)
        case FOr(l, r):
            vl, vr = eval_bool(l, mu), eval_bool(r, mu)
            return ABORT if vl is ABORT or vr is ABORT else (vl or vr)
        case FEq(l, r):
            vl, vr = eval_expr(l, mu), eval_expr(r, mu)
            return ABORT if vl is ABORT or vr is ABORT else (vl == vr)
    raise TypeError(b)


def locks_plus(m) -> frozenset:
    return frozenset([m.lock]) if isinstance(m, IAcquire) else frozenset()


def locks_minus(m) -> frozenset:
    return frozenset([m.lock]) if isinstance(m, IRelease) else frozenset()


def locks(m) -> frozenset:
    return locks_plus(m) | locks_minus(m)


def machine_step(s: MachineState, m, u: Universe) -> frozenset:
    """All outcomes of executing one instruction.

    The empty set means no step exists (a blocked lock), which is distinct
    from {Error}.  Values written outside the universe's range are an Error;
    alloc returns one outcome per free location.
    """
    mu, L = s.memory, s.locked
    match m:
        case Assign(x, e):
            v = eval_expr(e, mu)
            if v is ABORT or v not in u.values:
                return frozenset([ERROR])
            return frozenset([Return(s.with_memory(mu.set_var(x, v)))])
        case Load(x, e):
            loc = eval_expr(e, mu)
            if loc is ABORT or loc not in mu.heap:
                return frozenset([ERROR])
            return frozenset([Return(s.with_memory(mu.set_var(x, mu.heap[loc])))])
        case Store(a, e):
            loc, v = eval_expr(a, mu), eval_expr(e, mu)
            if loc is ABORT or v is ABORT or loc not in mu.heap or v not in u.values:
                return frozenset([ERROR])
            return frozenset([Return(s.with_memory(mu.set_cell(loc, v)))])
        case INop():
            return frozenset([Return(s)])
        case AllocC(x, e):
            v = eval_expr(e, mu)
            if v is ABORT or v not in u.values:
                return frozenset([ERROR])
            outs = []
            for loc in u.locations:
                if loc not in mu.heap:
                    mu2 = MemoryState(mu.stack.set(x, loc), mu.heap.set(loc, v))
                    outs.append(Return(s.with_memory(mu2)))
            return frozenset(outs)
        case DisposeC(e):
            loc = eval_expr(e, mu)
            if loc is ABORT or loc not in mu.heap:
                return frozenset([ERROR])
            return frozenset([Return(s.with_memory(mu.drop_cell(loc)))])
        case IAcquire(r):
            if r in L:
                return frozenset()
            return frozenset([Return(s.with_locked(L | {r}))])
        case IRelease(r):
            if r not in L:
                return frozenset()
            return frozenset([Return(s.with_locked(L - {r}))])
    raise TypeError(m)


# --- textual form of states and instructions ----------------------------------

def mstate_to_text(s: MachineState) -> str:
    """Rendered once per state; the state keeps the text."""
    try:
        return s.text
    except AttributeError:
        text = _render_mstate(s)
        object.__setattr__(s, "text", text)
        return text


def _render_mstate(s: MachineState) -> str:
    stack = " ".join(f"{k}={v}" for k, v in s.memory.stack.items())
    heap = " ".join(f"{k}={v}" for k, v in s.memory.heap.items())
    locked = " ".join(sorted(s.locked))
    return "{%s | %s | %s}" % (stack, heap, locked)


def instr_to_text(m) -> str:
    match m:
        case INop():
            return "nop"
        case IAcquire(r):
            return f"acquire({r})"
        case IRelease(r):
            return f"release({r})"
    return program_to_text(m)


def parse_mstate(text: str) -> MachineState:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError(f"bad machine state {text!r}")
    sections = body[1:-1].split("|")
    if len(sections) != 3:
        raise ParseError(f"machine state needs 3 sections: {text!r}")

    def pairs(section, key_is_int):
        out = {}
        for chunk in section.split():
            if "=" not in chunk:
                raise ParseError(f"bad binding {chunk!r}")
            k, _, v = chunk.partition("=")
            try:
                key, value = int(k) if key_is_int else k, int(v)
            except ValueError:
                raise ParseError(f"bad binding {chunk!r} in {text!r}") from None
            if key in out:
                raise ParseError(f"repeated binding {key} in {text!r}")
            out[key] = value
        return out

    stack = pairs(sections[0], key_is_int=False)
    heap = pairs(sections[1], key_is_int=True)
    locked = frozenset(sections[2].split())
    return MachineState(MemoryState(fmap(stack), fmap(heap)), locked)


def resolve_env_moves(u: Universe) -> tuple:
    """Parse the move-list pairs of a universe into machine states."""
    return tuple((parse_mstate(a), parse_mstate(b)) for a, b in u.env_moves_text)
