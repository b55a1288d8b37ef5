"""Separation games: winning conditions, strategy checking and a brute-force
Eve solver used as an independent oracle.

A play over a trace of length p visits positions 1..2p+2; odd-to-even moves
are Adam's (environment), even-to-odd moves are Eve's (one code step).
`TraceGame` is the one owner of a trace's rules, built once by the trace's
`WinningSpec` and read by the checker, the solver and the extracted
strategy: the positions and their machine states, the initial refinements,
Adam's moves (the refinements of the next machine state that keep the code
fragment and satisfy the next predicate), Eve's moves and their judge.  The
checker is the one walker of a strategy's plays, and the play its verdict
rests on is the replay that `game` and `verify --emit-replays` print.

A position's predicate has one definition, `separation.piece_test`: the code
against pre, an available resource against its context invariant; the frame
is unconstrained.  `sat_sep` asks it of every piece, one models bit each: a
piece is an index into the universe's table (`separation`), so equal
indices are equal states and the judge of Eve's moves compares integers.  Adam's
refinements and Eve's moves are built by the memoised
`separation.separations`, which tests each piece as soon as it is chosen,
so every state it builds satisfies the predicate.  Adam's moves from a
state read only its code fragment and code-held locks, and Eve's only its
resources and frame: the game keeps Eve's moves under the latter, and the
solver whether Eve survives under the former.  Whether some Eve move
survives reads only the tensor of what the move keeps
(`SeparatedState.kept_tensor`) and the code-held locks.
"""

from __future__ import annotations

import functools

from .logic import universe_table
from .machine import MachineState, Return, instr_to_text, machine_step
from .maps import Node, fmap
from .semantics import EnumerationBudget
from .separation import (Available, HELD_BY_CODE, HELD_BY_FRAME,
                         SeparatedPredicate, SeparatedState, enumerate_eve_moves,
                         legal_eve_move, machine_key, piece_test,
                         sep_state_to_text, separations)
from .syntax import FTrue, Universe
from .traces import Trace


class WinningSpec(Node):
    """The initial, middle and final separated predicates of one trace,
    built once; `last` is its final position, 2p+2 for p code steps.  The
    spec owns the rules of its trace's game (`game`)."""
    __slots__ = ("predicates", "trace_game")
    pre: object
    ctx: fmap
    post: object
    last: int
    returning: bool
    rho: fmap = fmap()

    def __post_init__(self):
        object.__setattr__(self, "predicates", tuple(
            SeparatedPredicate(f, self.ctx) for f in (self.pre, FTrue(), self.post)))
        object.__setattr__(self, "trace_game", None)

    def predicate_at(self, i: int) -> SeparatedPredicate:
        if i == 1:
            return self.predicates[0]
        if i == self.last and self.returning:
            return self.predicates[2]
        return self.predicates[1]

    def game(self, t: Trace, u: Universe) -> TraceGame:
        """The game of trace t under this spec, built on first request and
        reused for the identical trace and universe objects.  The game is the
        rules, so the spec owns it and the checker judges a strategy by it."""
        g = self.trace_game
        if g is None or g.t is not t or g.u is not u:
            g = TraceGame(t, self, u)
            object.__setattr__(self, "trace_game", g)
        return g


def winning_spec(pre, ctx, post, t: Trace, returning: bool,
                 rho: fmap = fmap()) -> WinningSpec:
    return WinningSpec(pre, fmap(ctx), post, 2 * len(t) + 2, returning, rho)


def sat_sep(s: SeparatedState, sp: SeparatedPredicate, rho: fmap,
            u: Universe) -> bool:
    """Every piece of the state satisfies its `piece_test` (`UniverseTable.holds`)."""
    test, holds = piece_test(sp, rho), universe_table(u).holds
    pieces = [(test(None), s.code)] + [(test(r), e.state) for r, e in s.resources.items()
                                       if isinstance(e, Available)]
    return all(t is None or holds(part, *t) for t, part in pieces)


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
    """The separation game of trace t under spec, a spec built for t, which
    builds it (`WinningSpec.game`).  Positions run from 1 to the spec's
    `last`: Adam moves at an odd position i < last, Eve plays code step
    i // 2 at an even one.  `outcomes` holds each code step's `machine_step`
    outcomes from its pre-state, which every Adam state before it combines
    into, `returns` their machine keys, and `keys[i]` that of position i.
    Eve owes the post: on a returning trace, a play at last - 1 is won only
    if Adam can move to the final position, keeping Eve's code fragment.
    Elsewhere a position with no Adam move ends the play, won by Eve."""

    def __init__(self, t: Trace, spec: WinningSpec, u: Universe):
        self.t, self.spec, self.u = t, spec, u
        self.last = spec.last
        self.table = universe_table(u)
        self.outcomes = tuple(machine_step(st.pre, st.instr, u) for st in t.steps)
        self.returns = tuple(frozenset(machine_key(o.state, self.table) for o in outs
                                       if isinstance(o, Return)) for outs in self.outcomes)
        self.keys = [None] + [machine_key(trace_state(t, i), self.table)
                              for i in range(1, self.last + 1)]
        self.initials = empty_winning_plays(t.source, spec, u)
        self._eve = {}       # (position, resources, frame) -> Eve's moves

    def state(self, i: int) -> MachineState:
        return trace_state(self.t, i)

    def adam(self, i: int, s: SeparatedState) -> tuple:
        """Adam's moves from s at odd position i, in enumeration order."""
        return adam_extensions(s, self.state(i + 1), self.spec.predicate_at(i + 1),
                               self.spec.rho, self.u)

    def eve(self, i: int, s: SeparatedState) -> tuple:
        """Every legal Eve move from Adam's state s at even position i that
        stays on the trace and satisfies the next predicate, kept under s's
        resources and frame, all that `enumerate_eve_moves` reads of s."""
        key = (i, s.resources, s.frame)
        hit = self._eve.get(key)
        if hit is None:
            step = self.t.steps[i // 2 - 1]
            hit = self._eve[key] = tuple(enumerate_eve_moves(
                s, step.instr, self.outcomes[i // 2 - 1], self.state(i + 1),
                self.u, self.spec.predicate_at(i + 1), self.spec.rho))
        return hit

    def eve_fault(self, i: int, s: SeparatedState, s2: SeparatedState):
        """What is wrong with Eve's move from s to s2 at even position i, or
        None; whether s2 satisfies the next predicate is the caller's to ask."""
        k = i // 2
        if not legal_eve_move(s, self.t.steps[k - 1].instr, s2, self.returns[k - 1]):
            return "illegal Eve move"
        if s2.machine_key() != self.keys[i + 1]:
            return "Eve move leaves the trace"
        return None


# --- strategy checking --------------------------------------------------------------

class CheckResult:
    def __init__(self, verdict: str, reason: str = "", play: tuple = (), explored: int = 0):
        # verdict: "pass" | "fail" | "unknown" | "vacuous" (no initial refinement)
        # explored: play nodes visited; 0 when vacuous, budget + 1 when unknown
        self.verdict, self.reason, self.play = verdict, reason, play
        self.explored = explored

    def __bool__(self):
        return self.verdict == "pass"


def check_winning_strategy(strat, t: Trace, spec: WinningSpec, u: Universe,
                           budget: int = None) -> CheckResult:
    """Verify that a strategy is winning for the separation game of t.

    Checks: (a) every reachable play is winning and every Eve response is a
    legal move combining into the trace, (b) every empty winning play is
    accepted, (c) every winning Adam extension with a pending code step gets
    an Eve response, (d) on a returning trace, every play at last - 1 has an
    Adam move to the final position, since Eve owes the post there; elsewhere
    a position with no Adam move ends the play.  A game with no initial
    refinement is vacuous, not won.

    The result's play is the one its verdict rests on: on a fail or an
    unknown, the play at the node that failed or broke the budget; on a
    pass, the first play the search ends, at last - 1 with Adam's first
    move to the final position when he has one, or at an odd position
    where Adam has no move; on a vacuous game, none.

    A strategy is a function of (key, position, state): each question is
    asked and judged once, and a play node that meets it again pushes
    nothing, since under the LIFO frontier all it would push is already
    visited (tests/test_checker_memo.py says why).
    """
    game = spec.game(t, u)
    accepted = dict(strat.initial_nodes())
    for s in game.initials:
        if s not in accepted:
            return CheckResult("fail", "missing empty winning play", (s,))
    for s in accepted:
        if s.machine_key() != game.keys[1]:
            return CheckResult("fail", "initial state does not refine the source", (s,))
        if s not in game.initials:
            return CheckResult("fail", "accepted initial play is not winning", (s,))
    if not game.initials:
        return CheckResult("vacuous", "no initial refinement")

    visited = set()
    judged = set()       # (position, Adam state, key) asked and judged
    frontier = [(1, s, accepted[s], (s,)) for s in game.initials]
    explored, ended = 0, ()     # ended: the first play the search ends
    while frontier:
        i, s, key, play = frontier.pop()
        if (i, s, key) in visited:
            continue
        visited.add((i, s, key))
        explored += 1
        if budget is not None and explored > budget:
            return CheckResult("unknown", "enumeration budget exceeded", play, explored)
        if i == game.last - 1:
            moves = game.adam(i, s) if spec.returning or not ended else ()
            if spec.returning and not moves:
                reason = f"no refinement satisfies the post at position {i + 1}"
                return CheckResult("fail", reason, play, explored)
            ended = ended or play + moves[:1]
            continue
        moves = game.adam(i, s)
        if not moves:
            ended = ended or play
        for s2 in moves:
            if (i + 1, s2, key) in judged:
                continue
            judged.add((i + 1, s2, key))
            responses = list(strat.respond(key, i + 1, s2))
            if not responses:
                return CheckResult("fail", f"no Eve response at position {i + 1}",
                                   play + (s2,), explored)
            for s3, key2 in responses:
                fault = game.eve_fault(i + 1, s2, s3)
                if fault is None and not sat_sep(s3, spec.predicate_at(i + 2),
                                                 spec.rho, u):
                    fault = "losing Eve move"
                if fault is not None:
                    return CheckResult("fail", fault, play + (s2, s3), explored)
                if (i + 2, s3, key2) not in visited:
                    frontier.append((i + 2, s3, key2, play + (s2, s3)))
    return CheckResult("pass", f"explored {explored} play nodes", ended, explored)


# --- brute-force solver ----------------------------------------------------------------

class NoWin:
    def __init__(self, counterexample):
        self.counterexample = counterexample

    def __bool__(self):
        return False


class SolvedStrategy:
    """Maximal winning strategy computed by backward induction over the game.

    Each question is asked once per thing it depends on.  Adam's moves from
    s are `_refinements` of the next state with s's code fragment and
    code-held locks, so whether Eve survives from (i, s) is kept per
    (i, s.code, s.dom_code()): one solver node is one such question.

    Whether some Eve move from an Adam state s2 at position i survives is
    kept per (i, s2.kept_tensor(m), s2.dom_code()), m the instruction of
    step i // 2.  The Adam states at i combine into one machine state, so the
    code-held locks fix every resource's entry after the step and whether
    m's lock conditions hold.  `enumerate_eve_moves` reads what the move
    keeps only through its tensor and its invariants, which every Adam
    state satisfies.  So equal keys give moves with the same code fragments
    and code-held locks in the same order, and `any` asks the same
    questions.  The acquired resource goes to the code, not
    to the kept tensor: splitting one tensor differently between it and the
    frame changes the code fragments."""

    def __init__(self, t: Trace, spec: WinningSpec, u: Universe, budget=None):
        self.game = spec.game(t, u)
        self.initials = self.game.initials
        self.budget = budget
        self._explored = 0
        self._adam = {}      # (position, code, code-held locks) -> survives
        self._eve = {}       # (position, kept tensor, code-held locks) -> some survives

    def survives(self, i: int, s: SeparatedState) -> bool:
        """Eve can keep every winning Adam continuation alive from position i."""
        key = (i, s.code, s.dom_code())
        hit = self._adam.get(key)
        if hit is not None:
            return hit
        self._explored += 1
        if self.budget is not None and self._explored > self.budget:
            raise EnumerationBudget(f"more than {self.budget} solver nodes")
        if i < self.game.last - 1:
            ok = all(self._some_move_survives(i + 1, s2) for s2 in self.game.adam(i, s))
        else:       # Eve owes the post at the final position of a returning trace
            ok = not self.game.spec.returning or bool(self.game.adam(i, s))
        self._adam[key] = ok
        return ok

    def _some_move_survives(self, i: int, s2: SeparatedState) -> bool:
        key = (i, s2.kept_tensor(self.game.t.steps[i // 2 - 1].instr), s2.dom_code())
        hit = self._eve.get(key)
        if hit is None:
            hit = self._eve[key] = any(self.survives(i + 1, s3)
                                       for s3 in self.game.eve(i, s2))
        return hit

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
