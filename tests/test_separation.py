import random
from fractions import Fraction

import pytest

from sepgame.game import TraceGame, winning_spec
from sepgame.logic import erase, universe_table
from sepgame.machine import IAcquire, INop, IRelease, MachineState, Return, machine_step
from sepgame.maps import fmap
from sepgame.separation import (Available, HELD_BY_CODE, HELD_BY_FRAME,
                                SeparationError, enumerate_eve_moves, join,
                                legal_eve_move, sep_state_to_text, separations, whole)
from sepgame.syntax import Assign, FTrue, Lit, parse_universe
from sepgame.traces import CodeTransition, Trace

from .builders import (EMPTY_LSTATE, combine, legal_adam_move, lstate, mstate, pieces,
                       return_keys, sep_state, tensor, tensor_all)

HALF = Fraction(1, 2)
TOP = Fraction(1)
U = parse_universe("vars = x, y\nlocs = 2\nvals = 0..3\n"
                   "perms = 1/2, 1\nlocks = r\nmaxlen = 4\n")


@pytest.fixture(scope="module")
def u():
    return U


def _perm_profile(s):
    tensor = s.table.state(s.tensor)
    return {("s", k): p for k, (_, p) in tensor.stack.items()} | \
           {("h", k): p for k, (_, p) in tensor.heap.items()}


def permission_conserving(s, s2) -> bool:
    """The paper's permission-conservation condition on moves, a diagnostic
    beside legal_eve_move: move legality as defined does not require it."""
    a, b = _perm_profile(s), _perm_profile(s2)
    return all(a[k] == b[k] for k in set(a) & set(b))


def _outcomes(s, m, u):
    """What an Eve move labelled m from s may combine into."""
    return machine_step(combine(s), m, u)


def _legal(s, m, s2, outcomes):
    """legal_eve_move under the machine keys of these outcomes."""
    return legal_eve_move(s, m, s2, return_keys(outcomes, s.table))


def test_combine_example(u):
    s = sep_state(u, code=lstate(stack={"x": (1, HALF)}),
                  resources={"r": Available(lstate(stack={"y": (2, TOP)}))},
                  frame=lstate(stack={"x": (1, HALF)}))
    assert combine(s) == mstate(stack={"x": 1, "y": 2})
    assert s.machine_key() == (s.table.index[lstate(stack={"x": (1, TOP), "y": (2, TOP)})],
                               frozenset())


def test_held_resources_are_locked(u):
    s = sep_state(u, resources={"r": HELD_BY_CODE})
    assert combine(s).locked == frozenset(["r"])
    s2 = sep_state(u, resources={"r": HELD_BY_FRAME})
    assert combine(s2).locked == frozenset(["r"])


def test_invariant_violation_rejected(u):
    with pytest.raises(SeparationError):
        sep_state(u, code=lstate(stack={"x": (1, TOP)}),
                  frame=lstate(stack={"x": (2, TOP)}))


def test_acquire_move_legality(u):
    inv = lstate(stack={"y": (2, TOP)})
    code = lstate(stack={"x": (0, TOP)})
    s = sep_state(u, code=code, resources={"r": Available(inv)})
    absorbed = tensor(code, inv)
    s2 = sep_state(u, absorbed, {"r": HELD_BY_CODE})
    m = IAcquire("r")
    assert _legal(s, m, s2, _outcomes(s, m, u))
    # leaving the resource available violates the acquire condition
    bad = sep_state(u, absorbed, {"r": Available(EMPTY_LSTATE)})
    assert not _legal(s, m, bad, _outcomes(s, m, u))


def test_eve_moves_never_error(u):
    # an assignment whose value leaves the range has only an error step
    s = sep_state(u, code=lstate(stack={"x": (0, TOP)}),
                  resources={"r": Available(EMPTY_LSTATE)})
    m = Assign("x", Lit(9))
    assert not _legal(s, m, s, _outcomes(s, m, u))


def test_adam_moves(u):
    code, frame = lstate(stack={"x": (0, TOP)}), lstate(stack={"y": (0, TOP)})
    empty = {"r": Available(EMPTY_LSTATE)}
    s = sep_state(u, code, empty, frame)
    # the frame may rewrite its own variables
    s2 = sep_state(u, code, empty, lstate(stack={"y": (3, TOP)}))
    assert legal_adam_move(s, s2)
    # the frame may take an available resource
    s3 = sep_state(u, code, {"r": HELD_BY_FRAME}, frame)
    assert legal_adam_move(s, s3)
    # it may not free a code-held one
    held = sep_state(u, code, {"r": HELD_BY_CODE}, frame)
    freed = sep_state(u, code, empty, frame)
    assert not legal_adam_move(held, freed)
    # and never touches the code fragment
    s4 = sep_state(u, lstate(stack={"x": (1, TOP)}), empty, frame)
    assert not legal_adam_move(s, s4)


def test_enumerate_eve_moves_nop_identity(u):
    s = sep_state(u, code=lstate(stack={"x": (0, TOP)}),
                  resources={"r": Available(EMPTY_LSTATE)})
    m = INop()
    moves = list(enumerate_eve_moves(s, m, _outcomes(s, m, u), combine(s), u))
    assert s in moves


def test_enumerate_eve_moves_release_splits(u):
    code = lstate(stack={"x": (0, TOP), "y": (1, TOP)})
    s = sep_state(u, code=code, resources={"r": HELD_BY_CODE})
    target = combine(s).with_locked(frozenset())
    m = IRelease("r")
    moves = list(enumerate_eve_moves(s, m, _outcomes(s, m, u), target, u))
    assert moves
    for s2 in moves:
        assert isinstance(s2.resources["r"], Available)
        assert combine(s2) == target
    # every split of the code fragment shows up, including keep-all and give-all
    released = {pieces(s2)[1]["r"] for s2 in moves}
    assert EMPTY_LSTATE in released
    assert code in released


def test_eve_moves_map_to_code_transitions(u):
    s = sep_state(u, code=lstate(stack={"x": (0, TOP)}),
                  resources={"r": Available(EMPTY_LSTATE)})
    m = Assign("x", Lit(1))
    outcomes = _outcomes(s, m, u)
    (out,) = outcomes
    moves = list(enumerate_eve_moves(s, m, outcomes, out.state, u))
    for s2 in moves:
        assert _legal(s, m, s2, outcomes)
        assert Return(combine(s2)) in machine_step(combine(s), m, u)
        assert s2.frame == s.frame        # Eve preserves the frame
    # legality as defined does not force permission conservation; the
    # diagnostic tells the conserving moves apart
    conserving = [s2 for s2 in moves if permission_conserving(s, s2)]
    assert sep_state(u, code=lstate(stack={"x": (1, TOP)}),
                     resources={"r": Available(EMPTY_LSTATE)}) in conserving
    assert len(conserving) < len(moves)


# The order in which Eve's moves are enumerated is part of the contract: the
# solver's strategy answers with its surviving moves in this order.

@pytest.fixture(scope="module")
def u2():
    return parse_universe("vars = x, y\nlocs = 2\nvals = 0..1\n"
                          "perms = 1/2, 1\nlocks = r\nmaxlen = 2\n")


def _eve_texts(s, m, target, u):
    return [sep_state_to_text(s2)
            for s2 in enumerate_eve_moves(s, m, _outcomes(s, m, u), target, u)]


def test_eve_move_order_assign(u2):
    s = sep_state(u2, code=lstate(stack={"x": (0, TOP)}),
                  resources={"r": Available(EMPTY_LSTATE)})
    assert _eve_texts(s, Assign("x", Lit(1)), mstate(stack={"x": 1}), u2) == [
        "code={x=1@1/2|} ; res=[r:avail{|}] ; frame={|}",
        "code={x=1@1|} ; res=[r:avail{|}] ; frame={|}",
    ]


def test_eve_move_order_acquire(u2):
    s = sep_state(u2, code=lstate(stack={"x": (0, TOP)}),
                  resources={"r": Available(lstate(stack={"y": (1, TOP)}))})
    target = mstate(stack={"x": 0, "y": 1}, locked={"r"})
    assert _eve_texts(s, IAcquire("r"), target, u2) == [
        "code={x=0@1/2,y=1@1/2|} ; res=[r:C] ; frame={|}",
        "code={x=0@1/2,y=1@1|} ; res=[r:C] ; frame={|}",
        "code={x=0@1,y=1@1/2|} ; res=[r:C] ; frame={|}",
        "code={x=0@1,y=1@1|} ; res=[r:C] ; frame={|}",
    ]


def test_eve_move_order_release(u2):
    s = sep_state(u2, code=lstate(stack={"x": (0, TOP)}), resources={"r": HELD_BY_CODE})
    assert _eve_texts(s, IRelease("r"), mstate(stack={"x": 0}), u2) == [
        "code={|} ; res=[r:avail{x=0@1/2|}] ; frame={|}",
        "code={|} ; res=[r:avail{x=0@1|}] ; frame={|}",
        "code={x=0@1/2|} ; res=[r:avail{|}] ; frame={|}",
        "code={x=0@1/2|} ; res=[r:avail{x=0@1/2|}] ; frame={|}",
        "code={x=0@1|} ; res=[r:avail{|}] ; frame={|}",
    ]


# --- each lock condition of an Eve move --------------------------------------------
# Each case is (Adam state, instruction, a legal move or None, the move that
# breaks the condition, extra outcomes).  Both moves keep the frame and
# combine into an outcome, so the lock condition is what rejects the second.
# Under the step's own outcomes, as every caller passes them, the outcome test
# would reject the moves of "acquire from a held entry" (the acquire of a held
# resource is blocked) and "release into a held entry" (a release unlocks)
# first; those two cases add the outcomes of another step from the same
# memory.  A release by a frame that holds the resource has no legal move.

def _cases():
    x0, y2 = lstate(stack={"x": (0, TOP)}), lstate(stack={"y": (2, TOP)})
    xy = tensor(x0, y2)
    x1 = lstate(stack={"x": (1, TOP)})
    empty = Available(EMPTY_LSTATE)

    def st(code, r, frame=EMPTY_LSTATE):
        return sep_state(U, code, {"r": r}, frame)

    memory = {"x": 0, "y": 2}
    return {
        "untouched resource changes": (
            st(xy, empty), Assign("x", Lit(1)),
            st(tensor(x1, y2), empty), st(x1, Available(y2)), ()),
        "acquire from a held entry": (
            st(x0, HELD_BY_FRAME, y2), IAcquire("r"),
            None, st(x0, HELD_BY_CODE, y2),
            machine_step(mstate(stack=memory), IAcquire("r"), None)),
        "acquire not handed to the code": (
            st(x0, Available(y2)), IAcquire("r"),
            st(xy, HELD_BY_CODE), st(xy, HELD_BY_FRAME), ()),
        "release of a resource the code does not hold": (
            st(xy, HELD_BY_FRAME), IRelease("r"),
            None, st(x0, Available(y2)), ()),
        "release into a held entry": (
            st(xy, HELD_BY_CODE), IRelease("r"),
            st(x0, Available(y2)), st(xy, HELD_BY_CODE),
            machine_step(mstate(stack=memory, locked={"r"}), INop(), None)),
    }


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_lock_condition_rejects_its_move(u, case):
    s, m, good, bad, extra = CASES[case]
    outcomes = _outcomes(s, m, u) | frozenset(extra)
    assert Return(combine(bad)) in outcomes and bad.frame == s.frame
    assert not _legal(s, m, bad, outcomes)
    if good is not None:
        assert _legal(s, m, good, outcomes)


def _one_step_game(s, m, u):
    """The game of the one-step trace of m from combine(s), under true."""
    (out,) = _outcomes(s, m, u)
    t = Trace(combine(s), (CodeTransition(combine(s), m, out.state),), out.state)
    return TraceGame(t, winning_spec(FTrue(), fmap(), FTrue(), t, True), u)


@pytest.mark.parametrize("case", ["untouched resource changes",
                                  "acquire not handed to the code",
                                  "release of a resource the code does not hold"])
def test_the_game_judges_a_broken_lock_condition_illegal(u, case):
    """Where the game reaches the Adam state (an initial play, then Adam's
    identity move), `eve_fault` names the move illegal."""
    s, m, _, bad, _ = CASES[case]
    game = _one_step_game(s, m, u)
    assert s in game.initials and s in game.adam(1, s)
    assert game.eve_fault(2, s, bad) == "illegal Eve move"


# --- the states separations builds come with their tensor ----------------------------

def _known_tensor_cases():
    return {
        "on the table": (mstate(stack={"x": 0, "y": 1}, heap={2: 0}, locked={"q"}),
                         {"q": HELD_BY_FRAME, "r": None}),
        # held entries the target does not lock, as an off-trace Eve move asks
        "held, not locked": (mstate(stack={"x": 0, "y": 1}),
                             {"q": HELD_BY_CODE, "r": None}),
    }


@pytest.mark.parametrize("case", sorted(_known_tensor_cases()))
def test_separations_states_come_with_their_tensor(case):
    """Every state's kept tensor is the tensor of its pieces, read off the
    universe table, and it combines into the machine state its pieces do."""
    target, entries = _known_tensor_cases()[case]
    u = parse_universe("vars = x, y\nlocs = 2\nvals = 0..1\nperms = 1/2, 1\n"
                       "locks = q, r\n")
    table = universe_table(u)
    states = separations(target, None, fmap(entries), None, u)
    assert len(states) > 10
    for s in states:
        code, resources, frame = pieces(s)
        whole = tensor_all([code, *(p for p in resources.values() if p is not None), frame])
        held = frozenset(r for r, e in s.resources.items()
                         if not isinstance(e, Available))
        assert s.tensor == table.index[whole]
        assert combine(s) == MachineState(erase(whole), held)
        assert s.machine_key() == (table.index[lstate(
            {k: (v, 1) for k, v in target.memory.stack.items()},
            {k: (v, 1) for k, v in target.memory.heap.items()})], held)


def test_the_index_join_and_whole_agree_with_the_logical_tensor():
    """On every pair of a sample of table states, `join` is the index of the
    logical `tensor` of the states, or None with it, and `whole` names one
    state exactly for equal erasures.  Shares of 1/4 and 1/2 join to 3/4."""
    u = parse_universe("vars = x, y\nlocs = 2\nvals = 0..1\nperms = 1/4, 1/2, 3/4, 1\n"
                       "locks = r\n")
    table = universe_table(u)
    sample = random.Random(26).sample(range(len(table.states)), 60)
    undefined = defined = 0
    for a in sample:
        for b in sample:
            sigma = tensor(table.state(a), table.state(b))
            joined = join(table, a, b)
            assert joined == (None if sigma is None else table.index[sigma])
            undefined += joined is None
            defined += joined is not None
            assert (whole(table, a) == whole(table, b)) == \
                (erase(table.state(a)) == erase(table.state(b)))
    assert undefined and defined
    quarter, half = (table.index[lstate(stack={"x": (1, Fraction(n, 4))})] for n in (1, 2))
    assert table.state(join(table, quarter, half)) == lstate(stack={"x": (1, Fraction(3, 4))})


# --- the lock conditions enumerate_eve_moves tests before it builds anything -------

def test_no_eve_move_acquires_a_resource_that_is_not_available(u):
    """An acquire whose outcome test passes, from an Adam state whose frame
    holds the resource, has no move."""
    s = sep_state(u, code=lstate(stack={"x": (0, TOP)}), resources={"r": HELD_BY_FRAME})
    m = IAcquire("r")
    outcomes = machine_step(mstate(stack={"x": 0}), m, u)
    target = mstate(stack={"x": 0}, locked={"r"})
    assert Return(target) in outcomes
    assert list(enumerate_eve_moves(s, m, outcomes, target, u)) == []


def test_no_eve_move_releases_a_resource_the_code_does_not_hold(u):
    """A release whose outcome test passes, from an Adam state whose frame
    holds the resource, has no move."""
    s = sep_state(u, code=lstate(stack={"x": (0, TOP)}), resources={"r": HELD_BY_FRAME})
    m = IRelease("r")
    outcomes = machine_step(mstate(stack={"x": 0}, locked={"r"}), m, u)
    target = mstate(stack={"x": 0})
    assert Return(target) in outcomes
    assert list(enumerate_eve_moves(s, m, outcomes, target, u)) == []
