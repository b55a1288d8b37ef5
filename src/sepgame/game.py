"""Separation games: winning conditions, strategy checking and a brute-force
Eve solver used as an independent oracle.

A play over a trace of length p visits positions 1..2p+2; odd-to-even moves
are Adam's (environment), even-to-odd moves are Eve's (one code step).  The
checker and the solver enumerate Adam's choices as the separated-state
refinements of the trace's next machine state that keep the code fragment and
satisfy the next position's predicate, so everything stays within the
universe's finite bounds.

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
    """The machine state at position i (1-based) of the trace's path."""
    p = len(t)
    if i == 1:
        return t.source
    if i == 2 * p + 2:
        return t.target
    if i % 2 == 0:
        return t.steps[i // 2 - 1].pre
    return t.steps[(i - 1) // 2 - 1].post


def step_outcomes(t: Trace, u: Universe) -> tuple:
    """The `machine_step` outcomes of each code step of the trace from its
    pre-state, which every Adam state before that step combines into: what
    Eve's move at the step may combine into."""
    return tuple(machine_step(st.pre, st.instr, u) for st in t.steps)


def is_winning_play(states: tuple, spec: WinningSpec, u: Universe) -> bool:
    """Every visited state satisfies its position's predicate.  A single-state
    play over an empty returning trace must satisfy the final predicate too."""
    if not states:
        return True
    if len(states) == 1 and spec.trace_len == 0 and spec.returning:
        if not sat_sep(states[0], spec.predicate_at(2), spec.rho, u):
            return False
    return all(sat_sep(s, spec.predicate_at(i), spec.rho, u)
               for i, s in enumerate(states, start=1))


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
    initial predicate (and the final one, for an empty returning trace)."""
    out = []
    dom_candidates = [frozenset()]
    for r in sorted(source.locked):
        dom_candidates = [d | extra for d in dom_candidates
                          for extra in (frozenset(), frozenset([r]))]
    for dom_code in dom_candidates:
        for cand in _refinements(source, None, dom_code,
                                 spec.predicate_at(1), spec.rho, u):
            if is_winning_play((cand,), spec, u):
                out.append(cand)
    return tuple(sorted(out, key=sep_state_to_text))


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
    p = len(t)
    last = 2 * p + 2
    expected = empty_winning_plays(t.source, spec, u)
    accepted = {}
    for s, key in strat.initial_nodes():
        accepted[s] = key
    for s in expected:
        if s not in accepted:
            return CheckResult("fail", "missing empty winning play", (s,))
    for s in accepted:
        if combine(s) != t.source:
            return CheckResult("fail", "initial state does not refine the source", (s,))
        if s not in expected:
            return CheckResult("fail", "accepted initial play is not winning", (s,))

    outcomes = step_outcomes(t, u)
    visited = set()
    frontier = [(1, s, accepted[s], (s,)) for s in expected]
    explored = 0
    while frontier:
        i, s, key, play = frontier.pop()
        if (i, s, key) in visited:
            continue
        visited.add((i, s, key))
        explored += 1
        if budget is not None and explored > budget:
            return CheckResult("unknown", "enumeration budget exceeded", play)
        if i == last - 1:
            continue  # only the final Adam move remains; any refinement wins
        if i >= last:
            continue
        target = trace_state(t, i + 1)
        pred = spec.predicate_at(i + 1)
        k = (i + 1) // 2
        step = t.steps[k - 1]
        for s2 in adam_extensions(s, target, pred, spec.rho, u):
            responses = list(strat.respond(key, i + 1, s2))
            if not responses:
                return CheckResult(
                    "fail", f"no Eve response at position {i + 1}", play + (s2,))
            for s3, key2 in responses:
                if not legal_eve_move(s2, step.instr, s3, outcomes[k - 1]):
                    return CheckResult("fail", "illegal Eve move",
                                       play + (s2, s3))
                if combine(s3) != trace_state(t, i + 2):
                    return CheckResult("fail", "Eve move leaves the trace",
                                       play + (s2, s3))
                if not sat_sep(s3, spec.predicate_at(i + 2), spec.rho, u):
                    return CheckResult("fail", "losing Eve move",
                                       play + (s2, s3))
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
        self.t = t
        self.spec = spec
        self.u = u
        self.budget = budget
        self._explored = 0
        self._memo = {}
        self._candidates = {}    # (position, Adam's state) -> Eve's moves
        self.initials = empty_winning_plays(t.source, spec, u)
        self.outcomes = step_outcomes(t, u)

    def _eve_candidates(self, position, state):
        key = (position, state)
        hit = self._candidates.get(key)
        if hit is None:
            k = position // 2
            target = trace_state(self.t, position + 1)
            pred = self.spec.predicate_at(position + 1)
            hit = self._candidates[key] = tuple(enumerate_eve_moves(
                state, self.t.steps[k - 1].instr, self.outcomes[k - 1], target,
                self.u, pred, self.spec.rho))
        return hit

    def survives(self, i: int, s: SeparatedState) -> bool:
        """Eve can keep every winning Adam continuation alive from position i."""
        key = (i, s)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._explored += 1
        if self.budget is not None and self._explored > self.budget:
            raise EnumerationBudget(f"more than {self.budget} solver nodes")
        p = len(self.t)
        if i >= 2 * p + 1:
            return True
        target = trace_state(self.t, i + 1)
        pred = self.spec.predicate_at(i + 1)
        ok = True
        for s2 in adam_extensions(s, target, pred, self.spec.rho, self.u):
            if not any(self.survives(i + 2, s3)
                       for s3 in self._eve_candidates(i + 1, s2)):
                ok = False
                break
        self._memo[key] = ok
        return ok

    def initial_nodes(self):
        return [(s, ()) for s in self.initials]

    def respond(self, key, position, state):
        return [(s3, ()) for s3 in self._eve_candidates(position, state)
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
        ok = sat_sep(s, spec.predicate_at(i), spec.rho, u)
        if i == 1 and spec.trace_len == 0 and spec.returning and len(play) == 1:
            ok = ok and sat_sep(s, spec.predicate_at(2), spec.rho, u)
        verdict = "pass" if ok else "fail"
        if i == 1:
            label = "I start"
        elif i % 2 == 0:
            label = "A env"
        else:
            label = "E " + instr_to_text(t.steps[i // 2 - 1].instr)
        lines.append(f"{label} -> {sep_state_to_text(s)} ; P{i} ; {verdict}")
    return lines
