"""Separated states and the legality of Eve and Adam moves.

A separated state cuts one logical state into pieces (the code's, one per
available resource, the frame's) and combines into a machine state by
tensoring them, forgetting permissions and locking exactly the held
resources.  Each piece, and the tensor, is an index into the universe's
`UniverseTable`, which spells its cells, one digit each, so equal indices
are equal states.  Permissions form a partial commutative monoid (Bornat et
al., POPL 2005), closed in the universe under its defined sums: a tensor
joins digits cell by cell (`join`) and stays in the table.
"""

from __future__ import annotations

import functools
import math

from .logic import erase, lstate_to_text, slots, universe_table
from .machine import MachineState, MemoryState, Return, locks, locks_minus, \
    locks_plus
from .maps import Node, fmap
from .syntax import Universe


class SeparationError(Exception):
    pass


class Available(Node):
    state: int       # the resource's content


class HeldBy(Node):
    owner: str   # "C" or "F"


HELD_BY_CODE = HeldBy("C")
HELD_BY_FRAME = HeldBy("F")


class SeparatedState(Node):
    """Pieces indexed into `table`; immutable, so memos share states.  Keeps,
    not compared or hashed: `table`, `tensor` and, computed once when asked
    for, `combined` (`machine_key`), `text`, `code_locks` and `kept`."""
    __slots__ = ("table", "tensor", "combined", "text", "code_locks", "kept")
    code: int
    resources: fmap          # lockname -> Available | HeldBy
    frame: int

    @classmethod
    def build(cls, table, code, resources, frame, tensor=None,
              combined=None) -> SeparatedState:
        """The state of these pieces; SeparationError when they do not tensor."""
        if tensor is None:
            tensor = tensor_of(table, [code, frame, *(
                e.state for _, e in resources.items() if isinstance(e, Available))])
            if tensor is None:
                raise SeparationError("separated-state tensor is undefined")
        s = cls(code, resources, frame)
        for name, value in zip(("table", "tensor", "combined", "text", "code_locks", "kept"),
                               (table, tensor, combined, None, None, {})):
            object.__setattr__(s, name, value)
        return s

    def dom_code(self) -> frozenset:
        d = self.code_locks
        if d is None:
            d = frozenset(r for r, e in self.resources.items() if e == HELD_BY_CODE)
            object.__setattr__(self, "code_locks", d)
        return d

    def machine_key(self) -> tuple:
        key = self.combined
        if key is None:
            key = (whole(self.table, self.tensor), frozenset(
                r for r, e in self.resources.items() if isinstance(e, HeldBy)))
            object.__setattr__(self, "combined", key)
        return key

    def kept_tensor(self, m) -> int:
        """The tensor of what an Eve move labelled m keeps: the frame and the
        available resources m does not acquire; computed once per label."""
        t = self.kept.get(m)
        if t is None:
            acquired = locks_plus(m)
            t = self.kept[m] = tensor_of(self.table, [self.frame, *(
                e.state for r, e in self.resources.items()
                if r not in acquired and isinstance(e, Available))])
        return t


# --- index arithmetic, memoised on the table ------------------------------------------

def join(table, a: int, b: int):
    """The index of the tensor of states a and b, or None when undefined."""
    if not a or not b:      # index 0 is emp, the unit
        return a + b
    key = (a, b) if a < b else (b, a)
    found = table.joins.get(key, False)
    if found is False:
        found = table.joins[key] = _join(table, *key)
    return found


def _join(table, a: int, b: int):
    r, perms = table.radix, table.u.perms
    out = 0
    for w in table.weights:
        da, db = a // w % r, b // w % r
        if da and db:       # digit 1 + value index * |perms| + perm index
            pa, pb = (da - 1) % len(perms), (db - 1) % len(perms)
            total = perms[pa] + perms[pb]
            if da - pa != db - pb or total > 1:
                return None
            da += perms.index(total) - pa
        out += (da or db) * w
    return out


def tensor_of(table, pieces):
    return functools.reduce(lambda acc, p: acc if acc is None else join(table, acc, p),
                            pieces, 0)


def whole(table, i: int) -> int:
    """The index of state i's memory held whole (equal iff equal erasures)."""
    found = table.wholes.get(i)
    if found is None:
        found = table.wholes[i] = _held_whole(table, erase(table.state(i)))
    return found


def _held_whole(table, mu: MemoryState) -> int:
    """The index of mu held whole: its cells' digits at the write permission."""
    return (sum(table.parts["s", k, v][-1] for k, v in mu.stack._dict.items())
            + sum(table.parts["h", k, v][-1] for k, v in mu.heap._dict.items()))


def machine_key(m: MachineState, table) -> tuple:
    return _held_whole(table, m.memory), m.locked      # a machine state as integers


def legal_eve_move(s: SeparatedState, m, s2: SeparatedState, returns) -> bool:
    """An Eve move keeps the frame, combines into a successful machine step
    (its machine key is in `returns`, those of m's outcomes from the state s
    combines into, shared by s's position) and respects the lock conditions.

    Under those outcomes the `Available` tests never fail (an acquire of r
    returns only from a state where r is unlocked, a release only to one),
    so they serve outcomes made by hand."""
    if s.frame != s2.frame or s2.machine_key() not in returns:
        return False
    lk, res2 = locks(m), s2.resources._dict
    return (all(r in lk or e == res2[r] for r, e in s.resources.items())
            and all(isinstance(s.resources[r], Available) and res2[r] == HELD_BY_CODE
                    for r in locks_plus(m))
            and all(s.resources[r] == HELD_BY_CODE and isinstance(res2[r], Available)
                    for r in locks_minus(m)))


# --- bounded enumeration of separated states over a machine state ----------------
# `separations` builds Adam's refinements and Eve's moves alike.

class SeparatedPredicate(Node):
    pre: object
    ctx: fmap        # lockname -> Formula


def piece_test(sp: SeparatedPredicate, rho: fmap):
    """`test(piece)`, the pair (formula, rho) a piece must satisfy: pre for
    the code (None), the invariant for an available resource (its lock
    name); None for the frame and a resource the context does not name."""
    def test(piece):
        f = sp.pre if piece is None else sp.ctx._dict.get(piece)
        return None if f is None else (f, rho)
    return test


def component_assignments(mu: MemoryState, fixed: int, n: int,
                          u: Universe, tests=()):
    """Distribute the memory's slots over n unknown logical components, next to
    a fixed component, so that everything tensors and erases exactly to mu.

    Each component is chosen, in order, as a table index, a cell's share
    adding its `parts` entry.  Shares are integers over the lcm of the
    permissions' denominators; a cell takes 0 or a permission that keeps its
    total at most 1, and above 0 after the last component.  tests[i], when
    given, is None or a pair (formula, rho) component i must satisfy (its
    models bit), dropped as soon as it does not.

    Yields pairs (n-tuple of indices, index of the tensor of them and the
    fixed component), cell-major: by the first cell's shares of components
    0..n-1, then the second cell's, and so on, each share ordered as 0 and
    then the permissions.  The tensor is read off the per-cell totals, each
    a permission, as the set is closed under its sums.  Yields nothing when
    the fixed component disagrees with mu.
    """
    table = universe_table(u)
    cells = ([("s", k, v) for k, v in mu.stack.items()]
             + [("h", k, v) for k, v in mu.heap.items()])
    fixed_cells = {(kind, k): (v, p) for kind, k, v, p in slots(table.state(fixed))}
    if not fixed_cells.keys() <= {(kind, k) for kind, k, _ in cells}:
        return
    scale = math.lcm(*(p.denominator for p in u.perms))
    shares = (0,) + tuple(int(p * scale) for p in u.perms)
    totals, parts = [], []
    for kind, k, v in cells:
        v0, p0 = fixed_cells.get((kind, k), (v, 0))
        if v0 != v:
            return
        totals.append(int(p0 * scale))
        parts.append(table.parts[kind, k, v])

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
                      if mask is None or mask >> a & 1]
        partial = grown
    partial.sort(key=lambda a: a[2])
    digit = {q: j for j, q in enumerate(shares)}
    for chosen, totals, _ in partial:
        if all(totals):
            yield chosen, sum(part[digit[t]] for part, t in zip(parts, totals))


@functools.lru_cache(maxsize=None)
def separations(target: MachineState, code, resources: fmap, frame, u: Universe,
                pred: SeparatedPredicate = None, rho: fmap = fmap()) -> tuple:
    """The separated states that combine into `target` and agree with the
    given code fragment, resource entries and frame.

    When `pred` is given, every piece but the frame must pass its
    `piece_test(pred, rho)`: the given ones once, before anything is
    enumerated, and a piece given as None, filled in by
    component_assignments (code, resources by name, frame), as soon as it
    is chosen.  Each state comes with the tensor component_assignments
    yields and the target's machine key.  Memoised: a pure function of
    immutable arguments.  The given pieces always tensor: a lone code
    fragment (`_refinements`), or pieces of a built `SeparatedState`.
    """
    table = universe_table(u)
    missing = sorted(r for r, e in resources.items() if e is None)
    given = [part for part in (code, frame) if part is not None]
    given += [e.state for _, e in resources.items() if isinstance(e, Available)]
    fixed = tensor_of(table, given)
    pieces = ([None] if code is None else []) + missing
    tests = [None] * (len(pieces) + (frame is None))
    if pred is not None:
        test = piece_test(pred, rho)
        known = [(test(None), code)] if code is not None else []
        known += [(test(r), e.state) for r, e in resources.items()
                  if isinstance(e, Available)]
        if not all(t is None or table.holds(part, *t) for t, part in known):
            return ()
        tests[:len(pieces)] = [test(piece) for piece in pieces]
    held = frozenset(r for r, e in resources.items() if isinstance(e, HeldBy))
    combined = (_held_whole(table, target.memory), held)        # the machine key
    out = []
    for parts, joined in component_assignments(target.memory, fixed, len(tests), u,
                                                tests):
        parts = iter(parts)
        code_part = next(parts) if code is None else code
        entries = resources if not missing else fmap(    # shared when none is missing
            resources._dict | {r: Available(next(parts)) for r in missing})
        frame_part = next(parts) if frame is None else frame
        out.append(SeparatedState.build(table, code_part, entries, frame_part,
                                        joined, combined))
    return tuple(out)


def enumerate_eve_moves(s: SeparatedState, m, outcomes, target: MachineState,
                        u: Universe, pred=None, rho: fmap = fmap()):
    """An iterator over the separated states reachable by a legal Eve move
    labelled m, given its `machine_step` outcomes, that combine into target
    and whose code and available resources pass their tests under `pred`."""
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
    if s.text is None:
        text = lambda i: lstate_to_text(s.table.state(i))
        res = " ".join(f"{r}:avail{text(e.state)}" if isinstance(e, Available)
                       else f"{r}:{e.owner}" for r, e in s.resources.items())
        object.__setattr__(s, "text", f"code={text(s.code)} ; res=[{res}] ; "
                                      f"frame={text(s.frame)}")
    return s.text
