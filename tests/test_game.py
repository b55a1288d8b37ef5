from fractions import Fraction

import pytest

from sepgame.game import (CheckResult, NoWin, SeparatedPredicate, WinningSpec,
                          adam_extensions, check_winning_strategy,
                          empty_winning_plays, is_winning_play, replay_lines,
                          sat_sep, solve_eve, trace_state, winning_spec)
from sepgame.logic import EMPTY_LSTATE, lstate
from sepgame.machine import machine_step, mstate
from sepgame.maps import fmap
from sepgame.separation import (Available, HELD_BY_CODE, combine, sep_state,
                                sep_state_to_text)
from sepgame.syntax import (Assign, FTrue, Lit, Own, Store, Var, parse_formula,
                            parse_universe)
from sepgame.traces import ERR, OK, CodeTransition, Trace

TOP = Fraction(1)


@pytest.fixture(scope="module")
def u():
    return parse_universe("vars = x, y\nlocs = 2\nvals = 0..1\n"
                          "perms = 1/2, 1\nlocks = r\nmaxlen = 2\n")


def _assign_trace(u, var="x", value=1, start=0):
    pre = mstate(stack={var: start})
    (out,) = machine_step(pre, Assign(var, Lit(value)), u)
    step = CodeTransition(pre, Assign(var, Lit(value)), out.state, OK)
    return Trace(pre, (step,), out.state)


def test_winning_spec_indexing(u):
    t0 = Trace(mstate(stack={"x": 0}), (), mstate(stack={"x": 0}))
    spec = winning_spec(Own(TOP, "x"), fmap(), parse_formula("own_1(x) and (x = 0)"),
                        t0, returning=True)
    assert spec.predicate_at(1).pre == Own(TOP, "x")
    assert spec.predicate_at(2).pre == parse_formula("own_1(x) and (x = 0)")
    t1 = _assign_trace(u)
    spec1 = winning_spec(Own(TOP, "x"), fmap(), Own(TOP, "x"), t1, returning=False)
    assert spec1.predicate_at(4).pre == FTrue()       # non-returning last
    assert spec1.predicate_at(2).pre == FTrue()       # interior
    assert spec1.predicate_at(3).post == FTrue()


def test_sat_sep(u):
    ctx = fmap({"r": Own(TOP, "y")})
    sp = SeparatedPredicate(Own(TOP, "x"), ctx, FTrue())
    good = sep_state(code=lstate(stack={"x": (0, TOP)}),
                     resources={"r": Available(lstate(stack={"y": (0, TOP)}))})
    assert sat_sep(good, sp, fmap(), u)
    bad = sep_state(code=lstate(stack={"x": (0, TOP)}),
                    resources={"r": Available(EMPTY_LSTATE)})
    assert not sat_sep(bad, sp, fmap(), u)
    held = sep_state(code=lstate(stack={"x": (0, TOP)}),
                     resources={"r": HELD_BY_CODE})
    assert sat_sep(held, sp, fmap(), u)   # held resources are unconstrained


def test_winning_play_prefix_closure(u):
    t = _assign_trace(u)
    spec = winning_spec(Own(TOP, "x"), fmap(), Own(TOP, "x"), t, returning=True)
    s1 = sep_state(code=lstate(stack={"x": (0, TOP)}),
                   resources={"r": Available(EMPTY_LSTATE)})
    s3 = sep_state(code=lstate(stack={"x": (1, TOP)}),
                   resources={"r": Available(EMPTY_LSTATE)})
    play = (s1, s1, s3, s3)
    assert is_winning_play(play, spec, u)
    for k in range(1, len(play) + 1):
        assert is_winning_play(play[:k], spec, u)


def test_empty_play_special_case_on_empty_returning_trace(u):
    t0 = Trace(mstate(stack={"x": 0}), (), mstate(stack={"x": 0}))
    spec = winning_spec(Own(TOP, "x"), fmap(),
                        parse_formula("own_1(x) and (x = 1)"), t0, returning=True)
    s = sep_state(code=lstate(stack={"x": (0, TOP)}),
                  resources={"r": Available(EMPTY_LSTATE)})
    # satisfies the precondition but not the final predicate
    assert not is_winning_play((s,), spec, u)


class _Silent:
    """Accepts nothing: fails the empty-winning-play requirement."""

    def initial_nodes(self):
        return []

    def respond(self, key, position, state):
        return []


class _Mute:
    """Accepts all empty winning plays but never responds."""

    def __init__(self, initials):
        self._initials = initials

    def initial_nodes(self):
        return [(s, ()) for s in self._initials]

    def respond(self, key, position, state):
        return []


def test_checker_requires_empty_winning_plays(u):
    t = _assign_trace(u)
    spec = winning_spec(Own(TOP, "x"), fmap(), Own(TOP, "x"), t, returning=True)
    res = check_winning_strategy(_Silent(), t, spec, u)
    assert res.verdict == "fail" and "empty winning play" in res.reason


def test_checker_requires_responses(u):
    t = _assign_trace(u)
    spec = winning_spec(Own(TOP, "x"), fmap(), Own(TOP, "x"), t, returning=True)
    initials = empty_winning_plays(t.source, spec, u)
    res = check_winning_strategy(_Mute(initials), t, spec, u)
    assert res.verdict == "fail" and "no Eve response" in res.reason
    assert res.counterexample   # the stuck play comes back


def test_solver_finds_assignment_strategy(u):
    t = _assign_trace(u)
    spec = winning_spec(Own(TOP, "x"), fmap(), Own(TOP, "x"), t, returning=True)
    strat = solve_eve(t, spec, u)
    assert not isinstance(strat, NoWin) and strat != "unknown"
    res = check_winning_strategy(strat, t, spec, u)
    assert res.verdict == "pass"


def test_solver_reports_unliftable_error_step(u):
    # storing to an unallocated cell: the step errors, Eve has no move,
    # yet true-preconditioned initial plays exist, so no strategy can win
    pre = mstate(stack={"x": 0})
    step = CodeTransition(pre, Store(Lit(2), Lit(1)), pre, ERR)
    t = Trace(pre, (step,), pre)
    spec = winning_spec(FTrue(), fmap(), FTrue(), t, returning=False)
    verdict = solve_eve(t, spec, u)
    assert isinstance(verdict, NoWin)


def test_solver_budget_unknown(u):
    t = _assign_trace(u)
    spec = winning_spec(FTrue(), fmap(), FTrue(), t, returning=True)
    assert solve_eve(t, spec, u, budget=1) == "unknown"


def test_solver_strategy_plays_combine_into_the_trace(u):
    t = _assign_trace(u)
    spec = winning_spec(Own(TOP, "x"), fmap(), Own(TOP, "x"), t, returning=True)
    strat = solve_eve(t, spec, u)
    for s, key in strat.initial_nodes():
        assert combine(s) == t.source
        for s2 in adam_extensions(s, trace_state(t, 2),
                                       spec.predicate_at(2), fmap(), u):
            for s3, _ in strat.respond(key, 2, s2):
                assert combine(s3) == trace_state(t, 3)


def test_replay_lines_shape(u):
    t = _assign_trace(u)
    spec = winning_spec(Own(TOP, "x"), fmap(), Own(TOP, "x"), t, returning=True)
    s1 = sep_state(code=lstate(stack={"x": (0, TOP)}),
                   resources={"r": Available(EMPTY_LSTATE)})
    s3 = sep_state(code=lstate(stack={"x": (1, TOP)}),
                   resources={"r": Available(EMPTY_LSTATE)})
    lines = replay_lines((s1, s1, s3, s3), t, spec, u)
    assert lines[0].startswith("I start")
    assert lines[1].startswith("A env")
    assert lines[2].startswith("E x := 1")
    assert lines[3].startswith("A env")
    assert all(line.endswith("pass") for line in lines)


# The order of Adam's moves is part of the contract: `drive_play` takes the
# first refinement when the identity move does not satisfy the predicate.

_ANY = SeparatedPredicate(FTrue(), fmap(), FTrue())
_HALF_X = sep_state(code=lstate(stack={"x": (0, Fraction(1, 2))}),
                    resources={"r": Available(EMPTY_LSTATE)},
                    frame=lstate(stack={"x": (0, Fraction(1, 2))}))


def test_adam_extension_order_unlocked(u):
    target = mstate(stack={"x": 0}, heap={2: 1})
    assert [sep_state_to_text(s) for s in
            adam_extensions(_HALF_X, target, _ANY, fmap(), u)] == [
        "code={x=0@1/2|} ; res=[r:avail{|}] ; frame={|2=1@1/2}",
        "code={x=0@1/2|} ; res=[r:avail{|}] ; frame={|2=1@1}",
        "code={x=0@1/2|} ; res=[r:avail{|2=1@1/2}] ; frame={|}",
        "code={x=0@1/2|} ; res=[r:avail{|2=1@1/2}] ; frame={|2=1@1/2}",
        "code={x=0@1/2|} ; res=[r:avail{|2=1@1}] ; frame={|}",
        "code={x=0@1/2|} ; res=[r:avail{|}] ; frame={x=0@1/2|2=1@1/2}",
        "code={x=0@1/2|} ; res=[r:avail{|}] ; frame={x=0@1/2|2=1@1}",
        "code={x=0@1/2|} ; res=[r:avail{|2=1@1/2}] ; frame={x=0@1/2|}",
        "code={x=0@1/2|} ; res=[r:avail{|2=1@1/2}] ; frame={x=0@1/2|2=1@1/2}",
        "code={x=0@1/2|} ; res=[r:avail{|2=1@1}] ; frame={x=0@1/2|}",
        "code={x=0@1/2|} ; res=[r:avail{x=0@1/2|}] ; frame={|2=1@1/2}",
        "code={x=0@1/2|} ; res=[r:avail{x=0@1/2|}] ; frame={|2=1@1}",
        "code={x=0@1/2|} ; res=[r:avail{x=0@1/2|2=1@1/2}] ; frame={|}",
        "code={x=0@1/2|} ; res=[r:avail{x=0@1/2|2=1@1/2}] ; frame={|2=1@1/2}",
        "code={x=0@1/2|} ; res=[r:avail{x=0@1/2|2=1@1}] ; frame={|}",
    ]


def test_adam_extension_order_locked(u):
    target = mstate(stack={"x": 0, "y": 1}, locked={"r"})
    assert [sep_state_to_text(s) for s in
            adam_extensions(_HALF_X, target, _ANY, fmap(), u)] == [
        "code={x=0@1/2|} ; res=[r:F] ; frame={y=1@1/2|}",
        "code={x=0@1/2|} ; res=[r:F] ; frame={y=1@1|}",
        "code={x=0@1/2|} ; res=[r:F] ; frame={x=0@1/2,y=1@1/2|}",
        "code={x=0@1/2|} ; res=[r:F] ; frame={x=0@1/2,y=1@1|}",
    ]
