"""Separation games: winning conditions, strategy checking and a brute-force
Eve solver used as an independent oracle.

A play over a trace of length p visits positions 1..2p+2; odd-to-even moves
are Adam's (environment), even-to-odd moves are Eve's (one code step).
`TraceGame` is the one owner of a trace's rules, read by the checker, the
solver, the extracted strategy and `drive_play`: the positions and their
machine states, the initial refinements, Adam's moves (the refinements of the
next machine state that keep the code fragment and satisfy the next
predicate, within the universe's finite bounds), Eve's moves and their judge.

A position's predicate has one definition, `separation.piece_test`: the code
against pre, an available resource against its context invariant; the frame
is unconstrained.  `sat_sep` asks it of every piece of a whole state.  Both
Adam's refinements and Eve's moves are built by `separation.separations`,
which tests the pieces it is given once and chooses the unknown ones one at
a time (code, then resources by name, then frame), dropping a piece as soon
as it fails its test (a universe-table state: its bit of the formula's
models), so every state it builds satisfies the predicate.
`separations` is memoised per process, which is sound since it is a pure
function of immutable arguments returning immutable states: the checker and
solver of every trace share its families, and traces that are prefixes of
one another build each once.  A solver keeps Eve's moves per Adam state.
"""

from __future__ import annotations

import functools

from .logic import satisfies
from .machine import MachineState, instr_to_text, machine_step
from .maps import Node, fmap
from .semantics import EnumerationBudget
from .separation import (Available, HELD_BY_CODE, HELD_BY_FRAME,
                         SeparatedPredicate, SeparatedState, combine,
                         enumerate_eve_moves, legal_eve_move, piece_test,
                         sep_state_to_text, separations)
from .syntax import FTrue, Universe
from .traces import Trace


class WinningSpec(Node):
    """The indexed family of separated predicates for one trace: the
    initial, middle and final predicates are built once, with the spec."""
    __slots__ = ("predicates",)
    pre: object
    ctx: fmap
    post: object
    trace_len: int
    returning: bool
    rho: fmap = fmap()

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple(
            SeparatedPredicate(f, self.ctx) for f in (self.pre, FTrue(), self.post)))

    def predicate_at(self, i: int) -> SeparatedPredicate:
        if i == 1:
            return self.predicates[0]
        if i == 2 * self.trace_len + 2 and self.returning:
            return self.predicates[2]
        return self.predicates[1]


def winning_spec(pre, ctx, post, t: Trace, returning: bool,
                 rho: fmap = fmap()) -> WinningSpec:
    return WinningSpec(pre, fmap(ctx), post, len(t), returning, rho)


def sat_sep(s: SeparatedState, sp: SeparatedPredicate, rho: fmap,
            u: Universe) -> bool:
    """Every piece of the state satisfies its `piece_test`."""
    test = piece_test(sp, rho)
    pieces = [(test(None), s.code)]
    pieces += [(test(r), e.state) for r, e in s.resources.items()
               if isinstance(e, Available)]
    return all(t is None or satisfies(part, *t, u) for t, part in pieces)


def trace_state(t: Trace, i: int) -> MachineState:
    """The machine state at position i (1-based) of the trace's path: the
    source, then each code step's pre- and post-state, then the target."""
    if i == 1:
        return t.source
    k = i // 2      # the code step whose pre- (i even) or post-state it is
    if k > len(t):
        return t.target
    return t.steps[k - 1].pre if i % 2 == 0 else t.steps[k - 1].post


# --- bounded enumeration of Adam's choices ----------------------------------------

@functools.lru_cache(maxsize=None)
def _refinements(target: MachineState, code, dom_code: frozenset,
                 pred: SeparatedPredicate, rho: fmap, u: Universe) -> tuple:
    """Separated states combining into `target` with the given code fragment
    (None: any) and code-held resources that satisfy `pred`."""
    if not dom_code <= target.locked:
        return ()
    entries = {r: None for r in set(u.locks) - target.locked}
    entries |= {r: HELD_BY_FRAME for r in target.locked - dom_code}
    entries |= {r: HELD_BY_CODE for r in dom_code}
    return separations(target, code, fmap(entries), None, u, pred, rho)


def adam_extensions(s: SeparatedState, target: MachineState,
                    pred: SeparatedPredicate, rho: fmap, u: Universe) -> tuple:
    """Legal Adam moves from s landing on refinements of the target state
    that satisfy `pred`."""
    return _refinements(target, s.code, s.dom_code(), pred, rho, u)


def empty_winning_plays(source: MachineState, spec: WinningSpec,
                        u: Universe) -> tuple:
    """All separated states refining the trace's source that satisfy the
    initial predicate.  No command returns without a step, so an empty
    trace never owes the final predicate at position 1."""
    dom_candidates = [frozenset()]
    for r in sorted(source.locked):
        dom_candidates = [d | extra for d in dom_candidates
                          for extra in (frozenset(), frozenset([r]))]
    return tuple(sorted((cand for dom_code in dom_candidates
                         for cand in _refinements(source, None, dom_code,
                                                  spec.predicate_at(1), spec.rho, u)),
                        key=sep_state_to_text))


# --- the game of one trace ------------------------------------------------------------

class TraceGame:
    """The separation game of trace t under spec.  Positions run from 1 to
    `last`: Adam moves at an odd position i < last, Eve plays code step i // 2
    at an even one.  `outcomes` holds each code step's `machine_step`
    outcomes from its pre-state, which every Adam state before it combines
    into."""

    def __init__(self, t: Trace, spec: WinningSpec, u: Universe):
        self.t, self.spec, self.u = t, spec, u
        self.last = 2 * len(t) + 2
        self.outcomes = tuple(machine_step(st.pre, st.instr, u) for st in t.steps)
        self.initials = empty_winning_plays(t.source, spec, u)
        self._eve = {}       # (position, Adam's state) -> Eve's moves

    def state(self, i: int) -> MachineState:
        return trace_state(self.t, i)

    def adam(self, i: int, s: SeparatedState) -> tuple:
        """Adam's moves from s at odd position i, in enumeration order."""
        return adam_extensions(s, self.state(i + 1), self.spec.predicate_at(i + 1),
                               self.spec.rho, self.u)

    def eve(self, i: int, s: SeparatedState) -> tuple:
        """Every legal Eve move from Adam's state s at even position i that
        stays on the trace and satisfies the next predicate."""
        hit = self._eve.get((i, s))
        if hit is None:
            step = self.t.steps[i // 2 - 1]
            hit = self._eve[i, s] = tuple(enumerate_eve_moves(
                s, step.instr, self.outcomes[i // 2 - 1], self.state(i + 1),
                self.u, self.spec.predicate_at(i + 1), self.spec.rho))
        return hit

    def eve_fault(self, i: int, s: SeparatedState, s2: SeparatedState):
        """What is wrong with Eve's move from s to s2 at even position i, or
        None; whether s2 satisfies the next predicate is the caller's to ask."""
        k = i // 2
        if not legal_eve_move(s, self.t.steps[k - 1].instr, s2, self.outcomes[k - 1]):
            return "illegal Eve move"
        if combine(s2) != self.state(i + 1):
            return "Eve move leaves the trace"
        return None


# --- strategy checking --------------------------------------------------------------

class CheckResult:
    def __init__(self, verdict: str, reason: str = "", counterexample: tuple = ()):
        # verdict: "pass" | "fail" | "unknown"
        self.verdict, self.reason, self.counterexample = verdict, reason, counterexample

    def __bool__(self):
        return self.verdict == "pass"


def check_winning_strategy(strat, t: Trace, spec: WinningSpec, u: Universe,
                           budget: int = None) -> CheckResult:
    """Verify that a strategy is winning for the separation game of t.

    Checks: (a) every reachable play is winning and every Eve response is a
    legal move combining into the trace, (b) every empty winning play is
    accepted, (c) every winning Adam extension with a pending code step gets
    an Eve response.
    """
    game = TraceGame(t, spec, u)
    accepted = dict(strat.initial_nodes())
    for s in game.initials:
        if s not in accepted:
            return CheckResult("fail", "missing empty winning play", (s,))
    for s in accepted:
        if combine(s) != t.source:
            return CheckResult("fail", "initial state does not refine the source", (s,))
        if s not in game.initials:
            return CheckResult("fail", "accepted initial play is not winning", (s,))

    visited = set()
    frontier = [(1, s, accepted[s], (s,)) for s in game.initials]
    explored = 0
    while frontier:
        i, s, key, play = frontier.pop()
        if (i, s, key) in visited:
            continue
        visited.add((i, s, key))
        explored += 1
        if budget is not None and explored > budget:
            return CheckResult("unknown", "enumeration budget exceeded", play)
        if i == game.last - 1:
            continue  # only the final Adam move remains; any refinement wins
        for s2 in game.adam(i, s):
            responses = list(strat.respond(key, i + 1, s2))
            if not responses:
                return CheckResult(
                    "fail", f"no Eve response at position {i + 1}", play + (s2,))
            for s3, key2 in responses:
                fault = game.eve_fault(i + 1, s2, s3)
                if fault is None and not sat_sep(s3, spec.predicate_at(i + 2),
                                                 spec.rho, u):
                    fault = "losing Eve move"
                if fault is not None:
                    return CheckResult("fail", fault, play + (s2, s3))
                if (i + 2, s3, key2) not in visited:
                    frontier.append((i + 2, s3, key2, play + (s2, s3)))
    return CheckResult("pass", f"explored {explored} play nodes")


# --- brute-force solver ----------------------------------------------------------------

class NoWin:
    def __init__(self, counterexample):
        self.counterexample = counterexample

    def __bool__(self):
        return False


class SolvedStrategy:
    """Maximal winning strategy computed by backward induction over the game."""

    def __init__(self, t: Trace, spec: WinningSpec, u: Universe, budget=None):
        self.game = TraceGame(t, spec, u)
        self.initials = self.game.initials
        self.budget = budget
        self._explored = 0
        self._memo = {}

    def survives(self, i: int, s: SeparatedState) -> bool:
        """Eve can keep every winning Adam continuation alive from position i."""
        key = (i, s)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._explored += 1
        if self.budget is not None and self._explored > self.budget:
            raise EnumerationBudget(f"more than {self.budget} solver nodes")
        if i >= self.game.last - 1:
            return True
        ok = self._memo[key] = all(
            any(self.survives(i + 2, s3) for s3 in self.game.eve(i + 1, s2))
            for s2 in self.game.adam(i, s))
        return ok

    def initial_nodes(self):
        return [(s, ()) for s in self.initials]

    def respond(self, key, position, state):
        return [(s3, ()) for s3 in self.game.eve(position, state)
                if self.survives(position + 1, s3)]


def solve_eve(t: Trace, spec: WinningSpec, u: Universe, budget=None):
    """Exhaustive search for a winning Eve strategy; returns a strategy,
    NoWin with a counterexample initial state, or "unknown" on budget."""
    strat = SolvedStrategy(t, spec, u, budget)
    try:
        for s in strat.initials:
            if not strat.survives(1, s):
                return NoWin(s)
    except EnumerationBudget:
        return "unknown"
    return strat


# --- replay logs --------------------------------------------------------------------

def replay_lines(play: tuple, t: Trace, spec: WinningSpec, u: Universe) -> list:
    """One line per move: polarity, label, state, predicate index, verdict."""
    lines = []
    for i, s in enumerate(play, start=1):
        verdict = "pass" if sat_sep(s, spec.predicate_at(i), spec.rho, u) else "fail"
        if i == 1:
            label = "I start"
        elif i % 2 == 0:
            label = "A env"
        else:
            label = "E " + instr_to_text(t.steps[i // 2 - 1].instr)
        lines.append(f"{label} -> {sep_state_to_text(s)} ; P{i} ; {verdict}")
    return lines
