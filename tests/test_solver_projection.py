"""The brute-force solver asks each question once per thing it depends on.
Whether Eve survives from an Adam state at position i is kept per
(i, code fragment, code-held locks), and whether some Eve move from an Adam
state survives per (i, kept tensor, code-held locks): the kept tensor is the
tensor of what the move keeps, the frame and the available resources it
does not acquire (`SeparatedState.kept_tensor`).
`_solver_without_projection` is the solver as it was before, memoised per
whole separated state, with Eve's moves kept per (position, Adam state).
Both must give the same verdict, the same NoWin counterexample and the same
responses at every position the checker asks about.  The facts the keys
rest on are checked against the paper's definitions of the moves: Adam's
moves keep the code fragment and the code-held locks (`legal_adam_move`),
Eve's moves are the legal ones (`legal_eve_move`), and Adam states with
equal Eve keys get Eve moves with equal code fragments and code-held locks,
in the same order.  Games with an acquire and a release, built by hand,
show that the acquired resource's content is not kept.
"""

import itertools

import pytest

from sepgame.game import (NoWin, SolvedStrategy, TraceGame, check_winning_strategy,
                          sat_sep, solve_eve, winning_spec)
from sepgame.logic import universe_table
from sepgame.maps import fmap
from sepgame.separation import (Available, HELD_BY_CODE, HELD_BY_FRAME, SeparatedState,
                                enumerate_eve_moves, legal_eve_move)
from sepgame.syntax import FTrue, Lit, Store, parse_proof, parse_universe
from sepgame.machine import IAcquire, IRelease, machine_step
from sepgame.traces import ERR, CodeTransition, Trace

from .builders import legal_adam_move, mstate, parse_formula
from .test_checker_memo import (_Asking, _chain_games, _extracted_games,
                                _strategy_chain_games)
from .test_game import _every_assignment
from .test_soundness import CHAIN, SEQ_PROOF, _load


class _SolverWithoutProjection:
    """`SolvedStrategy` before the projection: whether Eve survives is kept
    per (position, separated state), and Eve's moves per (position, Adam
    state)."""

    def __init__(self, t, spec, u):
        self.game = TraceGame(t, spec, u)
        self.initials = self.game.initials
        self._explored = 0
        self._memo, self._eve = {}, {}

    def eve(self, i, s):
        hit = self._eve.get((i, s))
        if hit is None:
            game, k = self.game, i // 2 - 1
            hit = self._eve[i, s] = tuple(enumerate_eve_moves(
                s, game.t.steps[k].instr, game.outcomes[k], game.state(i + 1),
                game.u, game.spec.predicate_at(i + 1), game.spec.rho))
        return hit

    def survives(self, i, s):
        hit = self._memo.get((i, s))
        if hit is not None:
            return hit
        self._explored += 1
        if i >= self.game.last - 1:
            return True
        ok = self._memo[i, s] = all(
            any(self.survives(i + 2, s3) for s3 in self.eve(i + 1, s2))
            for s2 in self.game.adam(i, s))
        return ok

    def initial_nodes(self):
        return [(s, ()) for s in self.initials]

    def respond(self, key, position, state):
        return [(s3, ()) for s3 in self.eve(position, state)
                if self.survives(position + 1, s3)]


def _solver_without_projection(t, spec, u):
    strat = _SolverWithoutProjection(t, spec, u)
    for s in strat.initials:
        if not strat.survives(1, s):
            return NoWin(s)
    return strat


def _same_solutions(t, spec, u):
    """Both solvers agree on the game of t, and the projected solver answers
    every question the old one asked as it did; returns their node counts
    and the number of questions the checker asked."""
    new, old = solve_eve(t, spec, u), _solver_without_projection(t, spec, u)
    if isinstance(old, NoWin):
        assert isinstance(new, NoWin) and new.counterexample == old.counterexample
        return None
    assert not isinstance(new, (NoWin, str))
    for (i, s), ok in old._memo.items():
        assert new.survives(i, s) == ok
    for i, s2 in old._eve:
        assert new._some_move_survives(i, s2) == any(
            old.survives(i + 1, s3) for s3 in old.eve(i, s2))
    asking = _Asking(new)
    result = check_winning_strategy(asking, t, spec, u)
    again = check_winning_strategy(old, t, spec, u)
    assert (result.verdict, result.reason) == (again.verdict, again.reason)
    for position, state, key in asking.asked:
        assert new.respond(key, position, state) == old.respond(key, position, state)
    return new._explored, old._explored, len(asking.asked)


def _seq_games():
    u, _, _, inits = _load("par_writes")
    return _extracted_games(u, parse_proof(SEQ_PROOF), inits)


GAMES = {**{name: (lambda name=name: _chain_games(name)) for name in sorted(CHAIN)},
         "seq": _seq_games, "strategy-chain": _strategy_chain_games}


@pytest.mark.parametrize("name", sorted(GAMES))
def test_the_projection_changes_no_solution(name):
    u, games = GAMES[name]()
    fewer = asked = 0
    for _, t, spec in games:
        new, old, n = _same_solutions(t, spec, u)
        assert new <= old
        fewer += new < old
        asked += n
    assert asked and (fewer or name == "framed_assign")


def test_the_projection_keeps_the_losing_initial_state():
    """A store to an unallocated cell errs, Eve has no move, and the first
    initial state is the counterexample of both solvers."""
    u = parse_universe("vars = x, y\nlocs = 2\nvals = 0..1\n"
                       "perms = 1/2, 1\nlocks = r\nmaxlen = 2\n")
    pre = mstate(stack={"x": 0})
    t = Trace(pre, (CodeTransition(pre, Store(Lit(2), Lit(1)), pre, ERR),), pre)
    spec = winning_spec(FTrue(), fmap(), FTrue(), t, returning=False)
    assert _same_solutions(t, spec, u) is None
    assert solve_eve(t, spec, u).counterexample == TraceGame(t, spec, u).initials[0]


def test_code_held_locks_are_part_of_the_key():
    """Only the code can release a lock: from a locked state, the Adam
    states whose code holds the lock win and their twins with the same code
    fragment, whose frame holds it, lose."""
    u = parse_universe("vars = x, y\nlocs = 2\nvals = 0..1\n"
                       "perms = 1/2, 1\nlocks = r\nmaxlen = 2\n")
    pre = mstate(stack={"x": 0}, locked={"r"})
    (out,) = machine_step(pre, IRelease("r"), u)
    t = Trace(pre, (CodeTransition(pre, IRelease("r"), out.state),), out.state)
    spec = winning_spec(FTrue(), fmap(), FTrue(), t, returning=True)
    initials = TraceGame(t, spec, u).initials
    framed = [s for s in initials if s.resources["r"] == HELD_BY_FRAME]
    assert initials[0].resources["r"] == HELD_BY_CODE
    assert initials[0].code == framed[0].code
    assert _same_solutions(t, spec, u) is None
    assert solve_eve(t, spec, u).counterexample == framed[0]


def _hand_made_game(source, instrs, ctx, u):
    """The returning trace of the instructions from source, under true with
    the given context invariants."""
    steps, pre = [], source
    for m in instrs:
        (out,) = machine_step(pre, m, u)
        steps.append(CodeTransition(pre, m, out.state))
        pre = out.state
    t = Trace(source, tuple(steps), pre)
    ctx = fmap({r: parse_formula(f) for r, f in ctx.items()})
    return t, winning_spec(FTrue(), ctx, FTrue(), t, returning=True)


def _adam_states(game):
    """Every Adam state the game reaches at an even position below last - 1,
    by position, in the order the moves list them."""
    reached = {}
    frontier = [(1, s) for s in game.initials]
    while frontier:
        i, s = frontier.pop(0)
        if i >= game.last - 1:
            continue
        for s2 in game.adam(i, s):
            if s2 not in reached.setdefault(i + 1, {}):
                reached[i + 1][s2] = None
                frontier += [(i + 2, s3) for s3 in game.eve(i + 1, s2)]
    return reached


def _eve_key(t, i, s2):
    """The key of the solver's Eve question at Adam state s2, position i."""
    return i, s2.kept_tensor(t.steps[i // 2 - 1].instr), s2.dom_code()


def _keys_decide_eve(t, spec, u):
    """At every reached Adam state, states with equal Eve keys get Eve moves
    with equal code fragments and code-held locks in the same order, and the
    solver's answer is whether one of those moves survives; returns the
    number of Adam states and of their distinct keys."""
    solver = SolvedStrategy(t, spec, u)
    game = solver.game
    moves_of = {}
    states = 0
    for i, reached in _adam_states(game).items():
        for s2 in reached:
            moves = [(s3.code, s3.dom_code()) for s3 in game.eve(i, s2)]
            assert moves_of.setdefault(_eve_key(t, i, s2), moves) == moves
            assert solver._some_move_survives(i, s2) == any(
                solver.survives(i + 1, s3) for s3 in game.eve(i, s2))
            states += 1
    return states, len(moves_of)


LOCKS_UNIVERSE = ("vars = x, y\nlocs = 2\nvals = 0..1\n"
                  "perms = 1/2, 1\nlocks = q, r\nmaxlen = 2\n")


def test_the_acquired_resource_is_not_kept():
    """acquire(r) hands r's content to the code, and release(q) then needs
    all of x for q's invariant: Eve wins from the Adam states whose code
    holds q and whose frame holds no x.  At the acquire, the kept tensor is
    the frame alone, so states that split x differently between r and the
    frame have different keys.  Keeping r in the tensor would make them
    equal, and the solver would give the second the first one's answer."""
    u = parse_universe(LOCKS_UNIVERSE)
    source = mstate(stack={"x": 0}, locked={"q"})
    t, spec = _hand_made_game(source, [IAcquire("r"), IRelease("q")],
                              {"q": "own_1(x)", "r": "true"}, u)
    states, keys = _keys_decide_eve(t, spec, u)
    assert (states, keys) == (28, 12)
    solved = solve_eve(t, spec, u)
    assert isinstance(solved, NoWin)
    assert solved.counterexample.resources["q"] == HELD_BY_CODE
    assert _same_solutions(t, spec, u) is None


def test_a_release_reads_the_kept_tensor_and_the_code_held_locks():
    """release(r) needs all of x for r's invariant, so Eve wins from the
    Adam states whose code holds r and whose frame and q hold no x.  States
    that split one tensor between q and the frame share a key; those whose
    frame holds r have no move."""
    u = parse_universe(LOCKS_UNIVERSE)
    source = mstate(stack={"x": 0, "y": 1}, locked={"r"})
    t, spec = _hand_made_game(source, [IRelease("r")],
                              {"q": "true", "r": "own_1(x)"}, u)
    states, keys = _keys_decide_eve(t, spec, u)
    assert (states, keys) == (162, 18)
    assert _same_solutions(t, spec, u) is None


def test_the_budget_counts_projected_questions():
    """`solve --budget n` explores at most n (position, code fragment,
    code-held locks) questions."""
    u, games = _chain_games("lock_pair")
    for _, t, spec in games:
        explored = solve_eve(t, spec, u)._explored
        assert solve_eve(t, spec, u, budget=explored)._explored == explored
        assert solve_eve(t, spec, u, budget=explored - 1) == "unknown"


# --- the facts the keys rest on ---------------------------------------------------------

def _every_separated_state(target, u):
    """Every separated state combining into the machine state, in no
    particular order, with no test on its pieces."""
    free = sorted(set(u.locks) - target.locked)
    held = sorted(target.locked)
    table = universe_table(u)
    for owners in itertools.product((HELD_BY_CODE, HELD_BY_FRAME), repeat=len(held)):
        for (code, *avail, frame), _ in _every_assignment(
                target.memory, 0, 2 + len(free), u):
            entries = dict(zip(held, owners)) | {
                r: Available(p) for r, p in zip(free, avail)}
            yield SeparatedState.build(table, code, fmap(entries), frame)


@pytest.mark.parametrize("name", ["lock_transfer", "lock_pair", "strategy-chain"])
def test_moves_depend_only_on_their_keys(name):
    """At every position the old solver visits, Adam's moves are the
    separated states of the next machine state that satisfy its predicate
    and keep the code fragment and the code-held locks, and Eve's moves are
    the legal ones that satisfy it; Adam states with equal resources and
    frames get equal moves, and those with equal Eve keys get moves with
    equal code fragments and code-held locks, in the same order."""
    u, games = GAMES[name]()
    winning = {}     # (target, predicate, rho) -> its separated states satisfying it
    shared = 0
    for _, t, spec in games:
        solver = _SolverWithoutProjection(t, spec, u)
        for s in solver.initials:
            solver.survives(1, s)
        game = solver.game

        def satisfying(i):
            key = (game.state(i), spec.predicate_at(i), spec.rho)
            if key not in winning:
                winning[key] = [s for s in _every_separated_state(game.state(i), u)
                                if sat_sep(s, spec.predicate_at(i), spec.rho, u)]
            return winning[key]

        keys, keyed = {}, {}
        for i, s in solver._memo:
            assert set(game.adam(i, s)) == {
                s2 for s2 in satisfying(i + 1) if legal_adam_move(s, s2)}
            keys.setdefault((i, s.code, s.dom_code()), set()).add(s)
        for i, s2 in solver._eve:
            k = i // 2 - 1
            moves = game.eve(i, s2)
            assert set(moves) == {s3 for s3 in satisfying(i + 1) if legal_eve_move(
                s2, t.steps[k].instr, s3, game.returns[k])}
            assert moves == solver.eve(i, s2)
            codes = [(s3.code, s3.dom_code()) for s3 in moves]
            key = _eve_key(t, i, s2)
            assert keyed.setdefault(key, codes) == codes
            keys.setdefault(key, set()).add(s2)
        shared += sum(len(states) > 1 for states in keys.values())
    assert shared
