"""Lifted moves whose pieces the universe table does not enumerate.

Pieces are universe-table indices, and a state the table does not enumerate
(a share sum that is no permission, a value the universe does not declare)
is interned past the enumerated ones.  The judge of Eve's moves, the
predicate test, the extracted strategy's response and the text must then
give the answers of their definitions on logical states, spelled out here
with `tensor`, `erase`, `_sat` and `lstate_to_text`."""

import random
from fractions import Fraction

import pytest

from sepgame.game import SeparatedPredicate, sat_sep, winning_spec
from sepgame.logic import _sat, erase, lstate_to_text, tensor, universe_table
from sepgame.machine import MachineState, Return, machine_step
from sepgame.maps import fmap
from sepgame.proof import check_proof
from sepgame.separation import Available, join, sep_state_to_text, whole
from sepgame.soundness import ExtractedStrategy
from sepgame.syntax import FTrue, Own, Star, parse_proof, parse_universe
from sepgame.traces import CodeTransition, Trace

from .builders import (EMPTY_LSTATE, lstate, mstate, parse_formula, pieces, sep_state,
                       tensor_all)

TOP = Fraction(1)


def _fault_by_value(game, i, s, s2):
    """`TraceGame.eve_fault` on logical pieces, for an instruction that
    takes and frees no lock: the move keeps the frame and the resources and
    combines into an outcome of the step, and into the next state."""
    code, res, frame = pieces(s)
    code2, res2, frame2 = pieces(s2)
    held = frozenset(r for r, p in res2.items() if p is None)
    combined = MachineState(erase(tensor_all([code2, *(p for p in res2.values()
                                                       if p is not None), frame2])), held)
    if frame2 != frame or res2 != res or Return(combined) not in game.outcomes[i // 2 - 1]:
        return "illegal Eve move"
    if combined != game.state(i + 1):
        return "Eve move leaves the trace"
    return None


def _sat_sep_by_value(s, pre, ctx, rho, u):
    code, res, _ = pieces(s)
    return _sat(code, pre, rho, u) and all(
        _sat(res[r], f, rho, u) for r, f in ctx.items() if res[r] is not None)


CASES = {
    # x's share stays 1; y keeps the 3/4 a frame of 1/4 leaves, no permission
    "no permission": (
        "vars = x, y\nlocs = 2\nvals = 0..1\nperms = 1/4, 1/2, 1\nlocks = r\n",
        "(aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X) val: [X = 1])",
        mstate(stack={"x": 0, "y": 0}),
        lstate(stack={"x": (0, 1), "y": (0, Fraction(3, 4))}),
        lstate(stack={"y": (0, Fraction(1, 4))}),
        lstate(stack={"x": (1, 1), "y": (0, Fraction(3, 4))}),
        "code={x=1@1,y=0@3/4|} ; res=[r:avail{|}] ; frame={y=0@1/4|}"),
    # x holds the allocated location 2, a value vals does not declare
    "allocated location": (
        "vars = x\nlocs = 2\nvals = 0..1\nperms = 1/2, 1\nlocks = r\n",
        "(ext_alloc pre: own_1(x) * (X = 0) cmd: x := alloc(0) "
        "post: own_1(x) * (x |-> X) val: [X = 0])",
        mstate(stack={"x": 0}),
        lstate(stack={"x": (0, 1)}),
        EMPTY_LSTATE,
        lstate(stack={"x": (2, 1)}, heap={2: (0, 1)}),
        "code={x=2@1|2=0@1} ; res=[r:avail{|}] ; frame={|}"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_judge_of_an_interned_move_agrees_with_its_definition(case):
    text, proof, source, code, frame, moved, rendered = CASES[case]
    u = parse_universe(text)
    node = parse_proof(proof)
    rho = check_proof(node, u, allow_extensions=True).valuation
    (out,) = machine_step(source, node.cmd, u)
    t = Trace(source, (CodeTransition(source, node.cmd, out.state),), out.state)
    strat = ExtractedStrategy(node, t, u, rho)
    game = strat.game
    s = sep_state(u, code, {"r": Available(EMPTY_LSTATE)}, frame)
    ((s2, _),) = strat.respond((), 2, s)

    # the response: the step's cells held whole, beside the untouched ones
    assert pieces(s2) == (moved, {"r": EMPTY_LSTATE}, frame)
    assert s2.code >= len(game.table.states)      # interned past the table
    assert sep_state_to_text(s2) == rendered == (
        f"code={lstate_to_text(moved)} ; res=[r:avail{lstate_to_text(EMPTY_LSTATE)}] ; "
        f"frame={lstate_to_text(frame)}")

    assert game.eve_fault(2, s, s2) is _fault_by_value(game, 2, s, s2) is None
    # a move that hands its code fragment to the frame is illegal either way
    handed = sep_state(u, EMPTY_LSTATE, {"r": Available(EMPTY_LSTATE)}, moved)
    assert game.eve_fault(2, s, handed) == _fault_by_value(game, 2, s, handed) \
        == "illegal Eve move"

    ctx = fmap({"r": parse_formula("emp")})
    for f in [node.pre, node.post, Star(Own(TOP, "x"), FTrue()), FTrue(),
              parse_formula("exists V. own_1(x) * true")]:
        pred = SeparatedPredicate(f, ctx)
        assert sat_sep(s2, pred, rho, u) == _sat_sep_by_value(s2, f, ctx, rho, u)
    spec = winning_spec(node.pre, fmap(), node.post, t, returning=True, rho=rho)
    assert sat_sep(s2, spec.predicate_at(4), rho, u) == _sat(moved, node.post, rho, u)


def test_the_index_join_and_whole_agree_with_the_logical_tensor():
    """On every pair of a sample of states, enumerated and interned (shares
    summing to 3/4, an undeclared value), `join` is the interned `tensor` of
    the logical states or None with it, and `whole` names one state exactly
    for equal erasures."""
    u = parse_universe("vars = x, y\nlocs = 2\nvals = 0..1\nperms = 1/4, 1/2, 1\n"
                       "locks = r\n")
    table = universe_table(u)
    rng = random.Random(26)
    sample = rng.sample(range(len(table.states)), 60) + [
        table.intern(lstate(stack={"x": (1, Fraction(3, 4))})),
        table.intern(lstate(stack={"x": (5, 1)}, heap={2: (0, Fraction(1, 4))}))]
    undefined = interned = 0
    for a in sample:
        for b in sample:
            sigma = tensor(table.state(a), table.state(b))
            joined = join(table, a, b)
            assert joined == (None if sigma is None else table.intern(sigma))
            undefined += joined is None
            interned += joined is not None and joined >= len(table.states)
            assert (whole(table, a) == whole(table, b)) == \
                (erase(table.state(a)) == erase(table.state(b)))
    assert undefined and interned
