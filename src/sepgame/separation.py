"""Separated states and the legality of Eve and Adam moves.

A separated state splits one logical state between the code, a per-resource
table and the frame; it combines into a machine state by tensoring the pieces,
forgetting permissions and locking exactly the held resources.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .logic import (EMPTY_LSTATE, LogicalState, erase, from_slots, lstate_to_text,
                    satisfies, slots, tensor_all, universe_table)
from .machine import MachineState, MemoryState, Return, locks, locks_minus, \
    locks_plus
from .maps import Node, fmap
from .syntax import Universe


class SeparationError(Exception):
    pass


class Available(Node):
    state: LogicalState


class HeldBy(Node):
    owner: str   # "C" or "F"


HELD_BY_CODE = HeldBy("C")
HELD_BY_FRAME = HeldBy("F")


class SeparatedState(Node):
    """Immutable, so the `separations` memo hands out shared states.  Keeps,
    none of them compared or hashed: the `tensor` of its pieces, and, each
    computed once when first asked for, its `combined` machine state
    (`combine`), its `text` (`sep_state_to_text`), its `code_locks`
    (`dom_code`) and, per instruction, its `kept` tensors (`kept_tensor`).
    The states `separations` builds come with their tensor and combined
    state (`known`), read off `component_assignments`' per-cell totals; any
    other state tensors its pieces when built, and raises SeparationError
    when that is undefined."""
    __slots__ = ("tensor", "combined", "text", "code_locks", "kept")
    code: LogicalState
    resources: fmap          # lockname -> Available | HeldBy
    frame: LogicalState

    def __post_init__(self):
        tensor = tensor_all([self.code, *(e.state for _, e in self.resources.items()
                                          if isinstance(e, Available)), self.frame])
        if tensor is None:
            raise SeparationError("separated-state tensor is undefined")
        object.__setattr__(self, "tensor", tensor)
        for name in ("combined", "text", "code_locks", "kept"):
            object.__setattr__(self, name, None)

    @classmethod
    def known(cls, code, resources, frame, tensor, combined) -> SeparatedState:
        """The state of these pieces, whose tensor and combined machine state
        the caller knows; nothing is computed or checked."""
        s = object.__new__(cls)
        for name, value in (("_hash", None), ("code", code), ("resources", resources),
                            ("frame", frame), ("tensor", tensor),
                            ("combined", combined), ("text", None),
                            ("code_locks", None), ("kept", None)):
            object.__setattr__(s, name, value)
        return s

    def dom_code(self) -> frozenset:
        d = self.code_locks
        if d is None:
            d = frozenset(r for r, e in self.resources.items() if e == HELD_BY_CODE)
            object.__setattr__(self, "code_locks", d)
        return d

    def kept_tensor(self, m) -> LogicalState:
        """The tensor of the pieces an Eve move labelled m keeps (see
        `enumerate_eve_moves`): the frame and the available resources m
        does not acquire.  Computed once per label."""
        kept = self.kept
        if kept is None:
            kept = {}
            object.__setattr__(self, "kept", kept)
        t = kept.get(m)
        if t is None:
            acquired = locks_plus(m)
            t = kept[m] = tensor_all([self.frame, *(
                e.state for r, e in self.resources.items()
                if r not in acquired and isinstance(e, Available))])
        return t


def sep_state(code=EMPTY_LSTATE, resources=(), frame=EMPTY_LSTATE) -> SeparatedState:
    return SeparatedState(code, fmap(resources), frame)


def combine(s: SeparatedState) -> MachineState:
    """The homomorphism to machine states, computed once per state."""
    m = s.combined
    if m is None:
        held = frozenset(r for r, e in s.resources.items() if isinstance(e, HeldBy))
        m = MachineState(erase(s.tensor), held)
        object.__setattr__(s, "combined", m)
    return m


def legal_eve_move(s: SeparatedState, m, s2: SeparatedState, outcomes) -> bool:
    """An Eve move keeps the frame, combines into a successful machine step,
    one of the `outcomes` of `machine_step(combine(s), m, u)`, and respects
    the lock conditions of the instruction.  Every state at a position of a
    play combines into the same machine state, so callers step it once.

    Under those outcomes the two `Available` checks below never fail once
    the outcome test has passed.  A state locks exactly its held resources
    (`combine`).  An acquire of r returns only from a machine state where r
    is unlocked, so s's entry for r is not held, hence available; a release
    of r returns only states where r is unlocked, such as combine(s2), so
    s2's entry for r is available.  They stay for outcomes made by hand."""
    if s.frame != s2.frame:
        return False
    if Return(combine(s2)) not in outcomes:
        return False
    lk = locks(m)
    for r in s.resources:
        if r not in lk and s.resources[r] != s2.resources[r]:
            return False
    for r in locks_plus(m):
        if not isinstance(s.resources[r], Available):
            return False
        if s2.resources[r] != HELD_BY_CODE:
            return False
    for r in locks_minus(m):
        if s.resources[r] != HELD_BY_CODE:
            return False
        if not isinstance(s2.resources[r], Available):
            return False
    return True


def legal_adam_move(s: SeparatedState, s2: SeparatedState) -> bool:
    """An Adam move keeps the code fragment and the set of code-held resources."""
    return s.code == s2.code and s.dom_code() == s2.dom_code()


# --- bounded enumeration of separated states over a machine state ----------------
# `separations` builds them all: Adam's refinements (game._refinements) and
# Eve's moves (enumerate_eve_moves) differ only in the pieces they fix.  A
# position's predicate says what the pieces must satisfy (piece_test).

class SeparatedPredicate(Node):
    pre: object
    ctx: fmap        # lockname -> Formula


def piece_test(sp: SeparatedPredicate, rho: fmap):
    """The pair (formula, rho) a piece of a separated state must satisfy, as
    `test(piece)`: pre for the code (piece None), the context invariant for
    an available resource (its lock name); None for the frame and for a
    resource the context does not name."""
    def test(piece):
        f = sp.pre if piece is None else sp.ctx._dict.get(piece)
        return None if f is None else (f, rho)
    return test


def component_assignments(mu: MemoryState, fixed: LogicalState, n: int,
                          u: Universe, tests=()):
    """Distribute the memory's slots over n unknown logical components, next to
    a fixed component, so that everything tensors and erases exactly to mu.

    Each component is chosen, in order, as an index into
    `universe_table(u).states`, a cell's share adding its `parts` entry;
    a cell no universe state holds (an undeclared value, such as an
    allocated location, or variable) adds a digit above the table's indices.
    Shares are integers over the lcm of the permission and fixed-share
    denominators.  A cell takes a share from {0} and the permissions that
    keeps its total at most 1, and above 0 after the last component.
    tests[i], when given, is None or a pair (formula, rho) that component i
    must satisfy (a table state: its bit of the models) as soon as it is
    chosen; one that does not is dropped before the next is chosen.

    Yields pairs (n-tuple of LogicalStates, tensor of them and the fixed
    component), the table's own states where it holds them, cell-major: by
    the first cell's shares of components 0..n-1, then the second cell's,
    and so on, each share ordered as 0 and then the permissions.  The tensor
    is read off the per-cell totals: from the table when every total is a
    permission of a table cell, else built once per totals vector.  Yields
    nothing when the fixed component disagrees with mu.
    """
    table = universe_table(u)
    size = len(table.states)
    cells = ([("s", k, v) for k, v in mu.stack.items()]
             + [("h", k, v) for k, v in mu.heap.items()])
    fixed_cells = {(kind, k): (v, p) for kind, k, v, p in slots(fixed)}
    if not fixed_cells.keys() <= {(kind, k) for kind, k, _ in cells}:
        return
    scale = math.lcm(*(p.denominator for p in u.perms),
                     *(p.denominator for _, p in fixed_cells.values()))
    shares = (0,) + tuple(int(p * scale) for p in u.perms)
    totals, parts, off_table = [], [], []
    for kind, k, v in cells:
        v0, p0 = fixed_cells.get((kind, k), (v, 0))
        if v0 != v:
            return
        totals.append(int(p0 * scale))
        part = table.parts.get((kind, k, v))
        if part is None:
            weight = size * len(shares) ** len(off_table)
            part = tuple(j * weight for j in range(len(shares)))
            off_table.append((kind, k, v))
        parts.append(part)

    def piece(a):
        if a < size:
            return table.states[a]
        rest, a = divmod(a, size)
        return from_slots(slots(table.states[a]) + [
            (*cell, ((0,) + u.perms)[rest // len(shares) ** m % len(shares)])
            for m, cell in enumerate(off_table)])

    # (indices so far, per-cell totals, sort key: one digit per share, cell-major)
    partial = [((), tuple(totals), 0)]
    for i, test in enumerate(tests or [None] * n):
        last = i == n - 1
        places = [len(shares) ** ((len(cells) - c) * n - 1 - i)
                  for c in range(len(cells))]
        f, rho = test or (None, None)
        mask = None if test is None else table.models(f, rho)
        grown = []
        for chosen, totals, order in partial:
            picks = [(0, (), order)]
            for t, part, place in zip(totals, parts, places):
                options = [(part[j], t + q, j * place) for j, q in enumerate(shares)
                           if t + q <= scale and (t + q > 0 or not last)]
                picks = [(a + x, ts + (t2,), o + y)
                         for a, ts, o in picks for x, t2, y in options]
            grown += [(chosen + (a,), ts, o) for a, ts, o in picks
                      if mask is None or (mask >> a & 1 if a < size
                                          else satisfies(piece(a), f, rho, u))]
        partial = grown
    partial.sort(key=lambda a: a[2])
    digit = {q: j for j, q in enumerate(shares)}
    wholes = {}
    for chosen, totals, _ in partial:
        if all(totals):
            whole = wholes.get(totals)
            if whole is None:
                digits = [digit.get(t) for t in totals]
                whole = wholes[totals] = (
                    from_slots([(*cell, Fraction(t, scale))
                                for cell, t in zip(cells, totals)])
                    if off_table or None in digits else
                    table.states[sum(part[j] for part, j in zip(parts, digits))])
            yield tuple(piece(a) for a in chosen), whole


@functools.lru_cache(maxsize=None)
def separations(target: MachineState, code, resources: fmap, frame, u: Universe,
                pred: SeparatedPredicate = None, rho: fmap = fmap()) -> tuple:
    """The separated states that combine into `target` and agree with the
    given code fragment, resource entries and frame.

    When `pred` is given, every piece but the frame must pass its
    `piece_test(pred, rho)`.  The given code and available resources are
    tested once, before anything is enumerated.  A piece given as None is
    filled in by component_assignments, in the order code, resources by
    name, frame, and must pass its test as soon as it is chosen.  Every
    state returned thus passes the test on every piece, and comes with
    the tensor that component_assignments yields and the target's memory
    as its combined state (`SeparatedState.known`).  Memoised: a pure
    function of immutable arguments, so all traces share each family.  The
    given pieces always tensor: a lone code fragment (`_refinements`), or
    pieces of a built, hence defined, `SeparatedState` (`enumerate_eve_moves`).
    """
    missing = sorted(r for r, e in resources.items() if e is None)
    given = [part for part in (code, frame) if part is not None]
    given += [e.state for _, e in resources.items() if isinstance(e, Available)]
    fixed = tensor_all(given)
    pieces = ([None] if code is None else []) + missing
    tests = [None] * (len(pieces) + (frame is None))
    if pred is not None:
        test = piece_test(pred, rho)
        known = [(test(None), code)] if code is not None else []
        known += [(test(r), e.state) for r, e in resources.items()
                  if isinstance(e, Available)]
        if not all(t is None or satisfies(part, *t, u) for t, part in known):
            return ()
        tests[:len(pieces)] = [test(piece) for piece in pieces]
    held = frozenset(r for r, e in resources.items() if isinstance(e, HeldBy))
    combined = MachineState(target.memory, held)
    out = []
    for parts, whole in component_assignments(target.memory, fixed, len(tests), u,
                                               tests):
        parts = iter(parts)
        code_part = next(parts) if code is None else code
        entries = dict(resources.items())
        entries |= {r: Available(next(parts)) for r in missing}
        frame_part = next(parts) if frame is None else frame
        out.append(SeparatedState.known(code_part, fmap(entries), frame_part,
                                        whole, combined))
    return tuple(out)


def enumerate_eve_moves(s: SeparatedState, m, outcomes, target: MachineState,
                        u: Universe, pred=None, rho: fmap = fmap()):
    """An iterator over the separated states reachable by a legal Eve move
    labelled m (whose `outcomes` are as in legal_eve_move) that combine into
    the given machine state and whose code fragment and available resources
    pass their tests under `pred` (see separations)."""
    if Return(target) not in outcomes:
        return iter(())
    entries = dict(s.resources.items())
    for r in locks_plus(m):
        if not isinstance(entries.get(r), Available):
            return iter(())
        entries[r] = HELD_BY_CODE
    for r in locks_minus(m):
        if entries.get(r) != HELD_BY_CODE:
            return iter(())
        entries[r] = None
    return iter(separations(target, None, fmap(entries), s.frame, u, pred, rho))


# --- textual form ------------------------------------------------------------------

def sep_state_to_text(s: SeparatedState) -> str:
    """Rendered once per state; the state keeps the text."""
    if s.text is not None:
        return s.text
    parts = []
    for r, e in s.resources.items():
        if isinstance(e, Available):
            parts.append(f"{r}:avail{lstate_to_text(e.state)}")
        else:
            parts.append(f"{r}:{e.owner}")
    res = " ".join(parts)
    text = (f"code={lstate_to_text(s.code)} ; res=[{res}] ; "
            f"frame={lstate_to_text(s.frame)}")
    object.__setattr__(s, "text", text)
    return text
