"""Constructors and definitions the tests write states and checks with, which
the package itself does not need: it builds its states from the universe
table's indices and enumerates moves directly."""

from fractions import Fraction

from sepgame.logic import (LogicalState, _sub_pairs, erase, first_split, tensor,
                           universe_table)
from sepgame.machine import MachineState, MemoryState, Return
from sepgame.maps import fmap
from sepgame.separation import Available, HeldBy, SeparatedState, machine_key
from sepgame.syntax import _Parser, _parse
from sepgame.traces import Trace

EMPTY_LSTATE = LogicalState()       # emp, the unit of the tensor


def lstate(stack=(), heap=()) -> LogicalState:
    """A logical state from {key: (value, share)} maps; shares may be ints."""
    norm = lambda m: fmap({k: (v, Fraction(p)) for k, (v, p) in dict(m).items()})
    return LogicalState(norm(stack), norm(heap))


def mstate(stack=(), heap=(), locked=()) -> MachineState:
    return MachineState(MemoryState(fmap(stack), fmap(heap)), frozenset(locked))


def parse_formula(text: str):
    return _parse(text, _Parser.formula)


def prefix(t: Trace, k: int) -> Trace:
    """The length-k path prefix of t; its target is the next code state."""
    if k == len(t.steps):
        return t
    return Trace(t.source, t.steps[:k], t.steps[k].pre)


def tensor_all(states):
    """The tensor of the logical states, emp for none; None when undefined."""
    acc = EMPTY_LSTATE
    for s in states:
        acc = tensor(acc, s)
        if acc is None:
            return None
    return acc


def sep_state(u, code=EMPTY_LSTATE, resources=(), frame=EMPTY_LSTATE) -> SeparatedState:
    """The separated state of these logical pieces on u's table; an
    available resource is given as Available(logical state)."""
    table = universe_table(u)
    entries = {r: Available(table.intern(e.state)) if isinstance(e, Available) else e
               for r, e in dict(resources).items()}
    return SeparatedState.build(table, table.intern(code), fmap(entries),
                                table.intern(frame))


def pieces(s: SeparatedState) -> tuple:
    """The logical states of s's code fragment, resources (None where held)
    and frame."""
    state = s.table.state
    return (state(s.code),
            {r: state(e.state) if isinstance(e, Available) else None
             for r, e in s.resources.items()},
            state(s.frame))


def combine(s: SeparatedState) -> MachineState:
    """The machine state s combines into: its tensor, permissions
    forgotten, locking exactly the held resources."""
    return MachineState(erase(s.table.state(s.tensor)), frozenset(
        r for r, e in s.resources.items() if isinstance(e, HeldBy)))


def return_keys(outcomes, table) -> frozenset:
    """The machine keys of the returned states among `machine_step`
    outcomes, as `TraceGame.returns` holds them."""
    return frozenset(machine_key(o.state, table) for o in outcomes if isinstance(o, Return))


def legal_adam_move(s: SeparatedState, s2: SeparatedState) -> bool:
    """The paper's definition of Adam's moves, which the game enumerates
    directly: an Adam move keeps the code fragment and the set of code-held
    resources."""
    return s.code == s2.code and s.dom_code() == s2.dom_code()


def first_split_states(sigma: LogicalState, fa, fb, rho, u):
    """`logic.first_split` on a logical state, its split as logical states."""
    table = universe_table(u)
    found = first_split(table.intern(sigma), fa, fb, rho, u)
    return found and tuple(map(table.state, found))


def substates(sigma: LogicalState, u):
    """All ordered pairs (a, b) with a * b == sigma, permissions drawn from
    the universe's declared set (or transferred whole); smallest left part
    first."""
    return iter(_sub_pairs(sigma, u))
