"""The strategy checker asks and judges each (position, Adam state, key)
once.  `_checker_without_memo` is the checker as it was before: it asks the
strategy about every edge of the play graph and judges every answer again.
Both must return the same verdict, reason and play, the passing play
included, on passing strategies, on strategies that fail in each of the ways the judge
knows, and under every budget.

Why a question met again may push nothing: its first asker, a node at
position i, pushed its entries (at i + 2) above every entry at i or below.
While any of them is on the frontier, the nodes popped are those entries or
their descendants, at i + 2 or beyond, and they push only at i + 4 or
beyond.  So no node at i is pushed or popped until all of them are popped,
that is visited, and the node that meets the question again, at i, comes
later: everything it would push is visited.
"""

import zlib
from fractions import Fraction

import pytest

from sepgame.game import (CheckResult, TraceGame, check_winning_strategy, sat_sep,
                          solve_eve, winning_spec)
from sepgame.logic import all_logical_states, satisfies
from sepgame.maps import fmap
from sepgame.proof import check_proof
from sepgame.semantics import enumerate_traces
from sepgame.separation import (Available, SeparatedState, enumerate_eve_moves, join,
                                sep_state_to_text)
from sepgame.soundness import ExtractedStrategy
from sepgame.syntax import (FTrue, Own, Star, parse_program, parse_proof,
                            parse_universe)

from .builders import combine, mstate
from .conftest import corpus_inits, corpus_text
from .test_soundness import CHAIN, FALSE_TRIPLE, _checked_traces


def _checker_without_memo(strat, t, spec, u, budget=None) -> CheckResult:
    """`check_winning_strategy` before the memo of judged responses."""
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
    if not game.initials:
        return CheckResult("vacuous", "no initial refinement")

    visited = set()
    frontier = [(1, s, accepted[s], (s,)) for s in game.initials]
    explored, ended = 0, ()
    while frontier:
        i, s, key, play = frontier.pop()
        if (i, s, key) in visited:
            continue
        visited.add((i, s, key))
        explored += 1
        if budget is not None and explored > budget:
            return CheckResult("unknown", "enumeration budget exceeded", play)
        moves = game.adam(i, s)
        if i == game.last - 1:
            if spec.returning and not moves:
                return CheckResult(
                    "fail", f"no refinement satisfies the post at position {i + 1}", play)
            ended = ended or play + moves[:1]
            continue
        if not moves:
            ended = ended or play
        for s2 in moves:
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
    return CheckResult("pass", f"explored {explored} play nodes", ended)


def _both(strat, t, spec, u, budget=None):
    """The results of the checker and of the oracle, as comparable tuples."""
    new = check_winning_strategy(strat, t, spec, u, budget)
    old = _checker_without_memo(strat, t, spec, u, budget)
    return ((new.verdict, new.reason, new.play), (old.verdict, old.reason, old.play))


def _extracted_games(u, node, inits):
    """(extracted strategy, trace, spec) on every non-error passive trace
    from the inits."""
    rho = check_proof(node, u, allow_extensions=True).valuation
    return u, [(strat, t, strat.spec)
               for t, _, strat, _ in _checked_traces(u, node, rho, inits)]


def _chain_games(name):
    """The games of a corpus program from its corpus inits."""
    return _extracted_games(parse_universe(corpus_text(f"{name}.uni")),
                            parse_proof(corpus_text(f"{name}.proof")),
                            corpus_inits(name))


def _strategy_chain_games():
    """The games of the strategy-chain inputs: par_writes over values 0..1
    from every full-permission state satisfying P * true."""
    u = parse_universe(corpus_text("par_writes.uni").replace("vals = 0..3", "vals = 0..1"))
    node = parse_proof(corpus_text("par_writes.proof"))
    rho = check_proof(node, u, allow_extensions=True).valuation
    want = Star(node.pre, FTrue())
    inits = [sigma for sigma in all_logical_states(u)
             if all(p == 1 for _, (_, p) in sigma.stack.items() + sigma.heap.items())
             and satisfies(sigma, want, rho, u)]
    return _extracted_games(u, node, inits)


class _Asking:
    """A strategy that records every question the checker asks it."""

    def __init__(self, strat):
        self.strat, self.asked = strat, []

    def initial_nodes(self):
        return self.strat.initial_nodes()

    def respond(self, key, position, state):
        self.asked.append((position, state, key))
        return self.strat.respond(key, position, state)


@pytest.mark.parametrize("name", sorted(CHAIN))
def test_the_memo_changes_no_verdict_on_the_chain(name):
    u, games = _chain_games(name)
    for strat, t, spec in games:
        new, old = _both(strat, t, spec, u)
        assert new == old and new[0] == "pass"


def test_the_memo_changes_no_verdict_on_the_false_triple():
    """Both checkers fail the false triple's returning traces at the final
    position, with the same play."""
    u = parse_universe(corpus_text("framed_assign.uni"))
    _, games = _extracted_games(u, parse_proof(FALSE_TRIPLE),
                                corpus_inits("framed_assign"))
    verdicts = []
    for strat, t, spec in games:
        new, old = _both(strat, t, spec, u)
        assert new == old
        verdicts.append(new[0])
    assert sorted(verdicts) == ["fail", "fail", "pass", "pass"]


@pytest.mark.parametrize("name", sorted(CHAIN))
def test_respond_is_asked_once_per_distinct_question(name):
    """The checker asks each (position, Adam state, key) once, and asks
    about exactly the questions the checker without the memo asked."""
    u, games = _chain_games(name)
    for strat, t, spec in games:
        new, old = _Asking(strat), _Asking(strat)
        check_winning_strategy(new, t, spec, u)
        _checker_without_memo(old, t, spec, u)
        assert len(new.asked) == len(set(new.asked))
        assert set(new.asked) == set(old.asked)


def test_every_budget_cuts_the_search_at_the_same_node():
    u, games = _chain_games("lock_pair")
    for strat, t, spec in games:
        explored = check_winning_strategy(strat, t, spec, u).explored
        for budget in range(explored + 2):
            new, old = _both(strat, t, spec, u, budget)
            assert new == old
            assert new[0] == ("unknown" if budget < explored else "pass")


class _Tagged:
    """A strategy's moves under keys tagged with the index of the initial
    play they descend from; plays from initial play `mute` get no answer at
    `position`.  Its answers depend on the key, not only on the state."""

    def __init__(self, strat, mute, position):
        self.strat, self.mute, self.position = strat, mute, position

    def initial_nodes(self):
        return [(s, (key, j)) for j, (s, key) in enumerate(self.strat.initial_nodes())]

    def respond(self, key, position, state):
        key, j = key
        if (j, position) == (self.mute, self.position):
            return []
        return [(s3, (key3, j)) for s3, key3 in self.strat.respond(key, position, state)]


def test_the_memo_keeps_questions_under_different_keys_apart():
    """Plays from different initial states meet at the same Adam states on
    the strategy-chain inputs; a strategy that answers them differently by
    key is judged as the checker without the memo judges it."""
    u, games = _strategy_chain_games()
    runs = fails = 0
    for strat, t, spec in games:
        for mute in range(len(strat.initials)):
            for position in range(2, spec.last, 2):
                new, old = _both(_Tagged(strat, mute, position), t, spec, u)
                assert new == old
                runs += 1
                fails += new[0] == "fail"
    assert fails == runs    # every initial play reaches every Eve position


# --- strategies that fail ------------------------------------------------------------

def _mute(game, position, state, s3):
    return None


def _code_to_frame(game, position, state, s3):
    """An illegal move: the code fragment handed to the frame."""
    if not s3.code:     # index 0 is emp
        return s3
    return SeparatedState.build(s3.table, 0, s3.resources, join(s3.table, s3.code, s3.frame))


def _other_outcome(game, position, state, s3):
    """A legal move onto an outcome of the step that the trace did not take."""
    k = position // 2
    for o in game.outcomes[k - 1]:
        if o.state != game.state(position + 1):
            return next(enumerate_eve_moves(state, game.t.steps[k - 1].instr,
                                            game.outcomes[k - 1], o.state, game.u))
    return s3


def _empty_resources(game, position, state, s3):
    """A legal move that keeps every released resource's content in the code,
    which breaks an invariant that emp does not satisfy."""
    resources = {r: Available(0) if isinstance(e, Available)
                 and not isinstance(state.resources[r], Available) else e
                 for r, e in s3.resources.items()}
    if resources == dict(s3.resources):
        return s3
    code = s3.code
    for r, e in s3.resources.items():
        if resources[r] != e:
            code = join(s3.table, code, e.state)
    return SeparatedState.build(s3.table, code, fmap(resources), s3.frame)


class _Corrupted:
    """A strategy's moves, with its first answer at `position` replaced by
    `corrupt(game, position, state, answer)` (None: no answer) on the Adam
    states that `pick` chooses by their text."""

    def __init__(self, strat, game, position, corrupt, pick):
        self.strat, self.game = strat, game
        self.position, self.corrupt, self.pick = position, corrupt, pick

    def initial_nodes(self):
        return self.strat.initial_nodes()

    def respond(self, key, position, state):
        out = list(self.strat.respond(key, position, state))
        if position != self.position or not out or \
                not self.pick(sep_state_to_text(state)):
            return out
        s3 = self.corrupt(self.game, position, state, out[0][0])
        return [] if s3 is None else [(s3, out[0][1])] + out[1:]


PICKS = {"every": lambda text: True,
         "some": lambda text: zlib.crc32(text.encode()) % 3 == 0}


def _alloc_games():
    """Three allocations on three locations: the first two steps can land on
    a location the trace did not take.  The solver's strategy answers with
    every winning move."""
    u = parse_universe("vars = x\nlocs = 2, 3, 4\nvals = 0, 2, 3, 4\nperms = 1\n"
                       "locks = r\nmaxlen = 3\nenv = passive\n")
    prog = parse_program("x := alloc(0) ; x := alloc(0) ; x := alloc(0)")
    out = []
    for t, ret, _ in enumerate_traces(prog, [mstate(stack={"x": 0})], u,
                                      policy="passive"):
        if len(t) == 3:
            spec = winning_spec(Own(Fraction(1), "x"), fmap(), FTrue(), t, ret)
            out.append((solve_eve(t, spec, u), t, spec))
    return u, out


def _release_games():
    """The `with` premise of lock_transfer, whose context holds x in r: its
    release step can leave r empty."""
    u = parse_universe(corpus_text("lock_transfer.uni"))
    node = parse_proof(corpus_text("lock_transfer.proof"))
    rho = check_proof(node, u, allow_extensions=True).valuation
    with_node = node.children[0].children[0]
    out = []
    for t, _, _ in enumerate_traces(with_node.cmd, [mstate(stack={"x": 0})], u,
                                    policy="passive"):
        strat = ExtractedStrategy(with_node, t, u, rho)
        out.append((strat, t, strat.spec))
    return u, out


SCENARIOS = {
    "no response": (_mute, "no Eve response at position {}",
                    ["lock_pair", "par_writes", "alloc", "release"]),
    "illegal": (_code_to_frame, "illegal Eve move", ["lock_pair", "par_writes", "release"]),
    "off the trace": (_other_outcome, "Eve move leaves the trace", ["alloc"]),
    "losing": (_empty_resources, "losing Eve move", ["release"]),
}
GAMES = {"alloc": _alloc_games, "release": _release_games,
         "lock_pair": lambda: _chain_games("lock_pair"),
         "par_writes": lambda: _chain_games("par_writes")}

# (corruption, pick) -> the positions at which some corrupted strategy fails
FAILING = {("no response", "every"): [2, 4, 6, 8, 10, 12],
           ("no response", "some"): [4, 6],
           ("illegal", "every"): [2, 4, 6, 8, 10, 12],
           ("illegal", "some"): [4],
           ("off the trace", "every"): [2, 4],
           ("losing", "every"): [6]}


@pytest.mark.parametrize("kind, pick", sorted(FAILING))
def test_failing_strategies_fail_alike(kind, pick):
    """At every position of every trace, a strategy corrupted there gets the
    same result from both checkers, and fails for the corruption's reason."""
    corrupt, reason, where = SCENARIOS[kind]
    failed = set()
    for source in where:
        u, games = GAMES[source]()
        for strat, t, spec in games:
            game = TraceGame(t, spec, u)
            for position in range(2, spec.last, 2):
                bad = _Corrupted(strat, game, position, corrupt, PICKS[pick])
                new, old = _both(bad, t, spec, u)
                assert new == old
                if new[0] == "fail":
                    assert new[1] == reason.format(position)
                    failed.add(position)
                else:
                    assert new[0] == "pass"
    assert sorted(failed) == FAILING[kind, pick]


# --- the initial plays and the pop-time check ----------------------------------------

class _Extra:
    """A strategy's moves, accepting one more initial play."""

    def __init__(self, strat, extra):
        self.strat, self.extra = strat, extra

    def initial_nodes(self):
        return [*self.strat.initial_nodes(), (self.extra, None)]

    def respond(self, key, position, state):
        return self.strat.respond(key, position, state)


def test_an_accepted_initial_play_outside_the_game_fails():
    """framed_assign's games from its two corpus inits: an initial play of
    the other init's game does not refine the source, and the initial play
    with its code and frame swapped refines it but is not winning."""
    u, games = _chain_games("framed_assign")
    (strat, t, spec), other = games[0], games[-1][0]
    assert combine(next(iter(other.initials))).memory != t.source.memory
    s = next(iter(strat.initials))
    swapped = SeparatedState.build(s.table, s.frame, s.resources, s.code)
    assert combine(swapped) == t.source
    for extra, reason in [
            (next(iter(other.initials)), "initial state does not refine the source"),
            (swapped, "accepted initial play is not winning")]:
        new, old = _both(_Extra(strat, extra), t, spec, u)
        assert new == old == ("fail", reason, (extra,))


class _Twice:
    """A strategy's moves, each listed twice."""

    def __init__(self, strat):
        self.strat = strat

    def initial_nodes(self):
        return self.strat.initial_nodes()

    def respond(self, key, position, state):
        out = list(self.strat.respond(key, position, state))
        return out + out


@pytest.mark.parametrize("name", sorted(CHAIN))
def test_a_move_listed_twice_is_visited_once(name):
    """Each of `_Twice`'s moves is pushed twice before it is popped; the
    pop-time check visits it once, so the checker explores as many play
    nodes as it does for the strategy itself."""
    u, games = _chain_games(name)
    for strat, t, spec in games:
        new, old = _both(_Twice(strat), t, spec, u)
        assert new == old
        assert new == _both(strat, t, spec, u)[0]
