import contextlib
import itertools
import random
from fractions import Fraction

import pytest

from sepgame import game, logic, separation, soundness
from sepgame.game import (NoWin, SeparatedPredicate, SolvedStrategy, TraceGame,
                          adam_extensions, check_winning_strategy,
                          empty_winning_plays, replay_lines, sat_sep,
                          solve_eve, trace_state, winning_spec)
from sepgame.logic import (EMPTY_LSTATE, _sat, erase, from_slots, lstate,
                           lstate_from_text, lstate_to_text, slots,
                           universe_table)
from sepgame.machine import MachineState, MemoryState, machine_step, mstate
from sepgame.maps import fmap
from sepgame.proof import check_proof
from sepgame.semantics import enumerate_traces
from sepgame.separation import (Available, HELD_BY_CODE, HELD_BY_FRAME,
                                combine, enumerate_eve_moves, sep_state,
                                sep_state_to_text, separations)
from sepgame.soundness import SoundnessAlarm, drive_play
from sepgame.syntax import (AllocC, Assign, FTrue, Lit, Own, Store, parse_formula,
                            parse_proof, parse_universe)
from sepgame.traces import ERR, OK, CodeTransition, Trace

from .conftest import CORPUS, PROGRAMS, bench_script, corpus_text
from .test_logic import _random_formula

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
    assert spec1.predicate_at(2) is spec1.predicate_at(4)   # built once per spec


def test_sat_sep(u):
    ctx = fmap({"r": Own(TOP, "y")})
    sp = SeparatedPredicate(Own(TOP, "x"), ctx)
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
    for k in range(1, len(play) + 1):
        assert all(line.endswith(" ; pass")
                   for line in replay_lines(play[:k], t, spec, u))


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


class _Faulty:
    """Accepts every empty winning play and answers every Adam state with
    `move(game, position, state)`, a move the game forbids."""

    def __init__(self, t, spec, u, move):
        self.game, self.move = TraceGame(t, spec, u), move

    def initial_nodes(self):
        return [(s, ()) for s in self.game.initials]

    def respond(self, key, position, state):
        return [(self.move(self.game, position, state), ())]


def _frame_changed(game, position, state):
    """Eve's first move, with its code fragment handed to the frame."""
    s3 = game.eve(position, state)[0]
    return sep_state(resources=s3.resources, frame=s3.code)


def _off_the_trace(game, position, state):
    """A legal move onto the allocation the trace did not take."""
    k = position // 2
    outcomes = game.outcomes[k - 1]
    (other,) = (o.state for o in outcomes if o.state != game.state(position + 1))
    return next(enumerate_eve_moves(state, game.t.steps[k - 1].instr, outcomes,
                                    other, game.u))


@pytest.mark.parametrize("move, fault", [(_frame_changed, "illegal Eve move"),
                                         (_off_the_trace, "Eve move leaves the trace")])
def test_the_game_judges_every_eve_move_it_is_given(move, fault):
    """`TraceGame.eve_fault` is the one judge of a strategy's moves: the
    checker fails on a faulty move and `drive_play` raises on it."""
    u = parse_universe("vars = x\nlocs = 2, 3\nvals = 0..1\nperms = 1\nlocks = r\n")
    pre, m = mstate(stack={"x": 0}), AllocC("x", Lit(0))
    post = min((o.state for o in machine_step(pre, m, u)),
               key=lambda s: s.memory.stack["x"])
    t = Trace(pre, (CodeTransition(pre, m, post, OK),), post)
    spec = winning_spec(Own(TOP, "x"), fmap(), FTrue(), t, returning=True)
    strat = _Faulty(t, spec, u, move)
    res = check_winning_strategy(strat, t, spec, u)
    assert (res.verdict, res.reason) == ("fail", fault)
    with pytest.raises(SoundnessAlarm, match=f"^extracted move: {fault}$"):
        drive_play(strat)


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

_ANY = SeparatedPredicate(FTrue(), fmap())
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


# --- building pieces under their tests changes no answer ----------------------------

def _every_assignment(mu, fixed, n, u, tests=()):
    """component_assignments without tests, written out the plain way: every
    vector of n shares per cell whose total lies in (0,1], cell-major."""
    cells = ([("s", k, v) for k, v in mu.stack.items()]
             + [("h", k, v) for k, v in mu.heap.items()])
    fixed_cells = {(kind, k): (v, p) for kind, k, v, p in slots(fixed)}
    if not fixed_cells.keys() <= {(kind, k) for kind, k, _ in cells}:
        return
    shares = (Fraction(0),) + tuple(u.perms)
    options = []
    for kind, k, v in cells:
        v0, p0 = fixed_cells.get((kind, k), (v, Fraction(0)))
        if v0 != v:
            return
        options.append([qs for qs in itertools.product(shares, repeat=n)
                        if 0 < p0 + sum(qs) <= 1])
    for choice in itertools.product(*options):
        yield tuple(from_slots([(kind, k, v, qs[i])
                                for (kind, k, v), qs in zip(cells, choice)])
                    for i in range(n))


@pytest.mark.parametrize("perms", ["1/4, 1/2, 1", "1/3, 2/3, 1"])
def test_indexed_builder_equals_the_filtered_product(perms):
    """On permissions the corpus never uses, component_assignments (pieces as
    universe-table indices, tests as model bits) yields the plain share
    product filtered by _sat, in the same order, as the table's own states
    wherever the table holds them.  Memories may hold cells no universe state
    holds: a value outside vals (an allocated location) or an undeclared
    variable."""
    u = parse_universe(f"vars = x, y\nlocs = 1\nvals = 0..1\nperms = {perms}\n"
                       "locks = r\n")
    table = universe_table(u)
    rng = random.Random(2017)
    cells = [("s", x) for x in u.variables] + [("h", loc) for loc in u.locations]
    # fixed shares include sums that are no permission, such as 3/4
    sums = sorted({p + q for p in u.perms for q in (0, *u.perms) if p + q <= 1})
    yielded = off_table = 0
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        held = {cell: rng.choice(u.values) if rng.random() < 0.9 else 2
                for cell in rng.sample(cells + [("s", "z")],
                                       rng.randint(0, 3 if n < 3 else 2))}
        mu = MemoryState(fmap({k: v for (kind, k), v in held.items() if kind == "s"}),
                         fmap({k: v for (kind, k), v in held.items() if kind == "h"}))
        # mostly agreeing with mu; now and then a value or a cell it lacks
        fixed = from_slots([(kind, k, held.get((kind, k), 0) if rng.random() < 0.9
                             else rng.choice(u.values), rng.choice(sums))
                            for kind, k in rng.sample(cells, rng.randint(0, 2))
                            if (kind, k) in held or rng.random() < 0.1])
        tests = [None if rng.random() < 0.5 else (_random_formula(rng, u, 2), fmap())
                 for _ in range(n)]
        got = list(separation.component_assignments(mu, fixed, n, u, tests))
        assert got == [parts for parts in _every_assignment(mu, fixed, n, u)
                       if all(t is None or _sat(part, *t, u)
                              for part, t in zip(parts, tests))]
        for part in (part for parts in got for part in parts):
            if part in table.index:
                assert part is table.states[table.index[part]]
            else:
                off_table += 1
        yielded += len(got)
    assert yielded > 2000 and off_table > 100


@contextlib.contextmanager
def _unpruned():
    """separations as it builds every separated state and tests none, through
    the function under its memo, so nothing is read from or left in it."""
    real = separation.component_assignments, separation.separations
    separation.component_assignments = _every_assignment
    separation.separations = separations.__wrapped__
    try:
        yield
    finally:
        separation.component_assignments, separation.separations = real


def _unpruned_refinements(target, code, dom_code, pred, rho, u):
    """Adam's refinements as every separated state, filtered by sat_sep."""
    if not dom_code <= target.locked:
        return ()
    entries = {r: None for r in set(u.locks) - target.locked}
    entries |= {r: HELD_BY_FRAME for r in target.locked - dom_code}
    entries |= {r: HELD_BY_CODE for r in dom_code}
    with _unpruned():
        return tuple(cand for cand in separation.separations(
            target, code, fmap(entries), None, u) if sat_sep(cand, pred, rho, u))


def _unpruned_eve_moves(t, spec, position, s, u):
    """Eve's moves as every separated state, filtered by sat_sep."""
    pred = spec.predicate_at(position + 1)
    step = t.steps[position // 2 - 1]
    with _unpruned():
        return tuple(cand for cand in enumerate_eve_moves(
            s, step.instr, machine_step(combine(s), step.instr, u),
            trace_state(t, position + 1), u)
            if sat_sep(cand, pred, spec.rho, u))


class _Recording:
    """A strategy that records the Adam states the checker asks it about."""

    def __init__(self, strat):
        self.strat = strat
        self.asked = []

    def initial_nodes(self):
        return self.strat.initial_nodes()

    def respond(self, key, position, state):
        self.asked.append((position, state))
        return self.strat.respond(key, position, state)


@pytest.mark.parametrize("name", PROGRAMS)
def test_pruned_moves_equal_filtered_separations(name, monkeypatch):
    """At every position the checker and the solver visit, on every
    non-error trace from the corpus inits, Adam's refinements and the
    solver's Eve moves equal the unpruned separations filtered by sat_sep,
    in the same order."""
    u = parse_universe(corpus_text(f"{name}.uni"))
    node = parse_proof(corpus_text(f"{name}.proof"))
    rho = check_proof(node, u, allow_extensions=True).valuation
    inits = [lstate_from_text(line)
             for line in corpus_text(f"{name}.inits").splitlines() if line.strip()]
    adam_calls = []
    real_adam_extensions = game.adam_extensions

    def recording(s, target, pred, rho, u):
        out = real_adam_extensions(s, target, pred, rho, u)
        adam_calls.append((s, target, pred, rho, out))
        return out
    monkeypatch.setattr(game, "adam_extensions", recording)

    eve_checked = 0
    for init in sorted(inits, key=lstate_to_text):
        start = MachineState(erase(init), frozenset())
        for t, returning, _ in enumerate_traces(node.cmd, [start], u,
                                                policy="passive"):
            if t.errored:
                continue
            spec = winning_spec(node.pre, node.ctx, node.post, t, returning, rho)
            pred = spec.predicate_at(1)
            assert game._refinements(t.source, None, frozenset(), pred, rho, u) \
                == _unpruned_refinements(t.source, None, frozenset(), pred, rho, u)
            solver = SolvedStrategy(t, spec, u)
            strat = _Recording(solver)
            check_winning_strategy(strat, t, spec, u)
            for position, s in strat.asked:
                assert solver.game.eve(position, s) \
                    == _unpruned_eve_moves(t, spec, position, s, u)
            eve_checked += len(strat.asked)
    for s, target, pred, rho, out in adam_calls:
        assert out == _unpruned_refinements(target, s.code, s.dom_code(), pred, rho, u)
    assert adam_calls and eve_checked


def test_eve_moves_step_the_machine_once_per_position(monkeypatch, tmp_path, capsys):
    """The checker, the extracted strategy and the solver each step the
    machine once per code step of a trace, not once per Eve move they judge:
    on the strategy-chain inputs, 3 calls for each of the 72 steps of the 60
    non-error traces (4,760 calls when every move stepped it), for 24
    distinct (machine state, instruction) pairs."""
    calls = []

    def counting(s, m, u):
        calls.append((s, m))
        return machine_step(s, m, u)
    monkeypatch.setattr(game, "machine_step", counting)
    monkeypatch.setattr(separation, "machine_step", counting, raising=False)
    uni = tmp_path / "strategy-chain.uni"
    uni.write_text(corpus_text("par_writes.uni").replace("vals = 0..3", "vals = 0..1"))
    code = bench_script("chain").main([str(CORPUS / "par_writes.csl"),
                                       str(CORPUS / "par_writes.proof"), "-u", str(uni)])
    out = capsys.readouterr().out
    assert code == 0 and out.endswith("total 60 traces, 836 play nodes, all pass\n")
    steps = sum(int(line.split("length=")[1].split()[0])
                for line in out.splitlines() if line.startswith("trace "))
    assert steps == 72
    assert len(calls) == 3 * steps
    assert len(set(calls)) == 24


def test_each_eve_move_is_judged_once(monkeypatch, tmp_path, capsys):
    """On the strategy-chain inputs the checker asks the extracted strategy
    for 1,704 moves, and `legal_eve_move` runs once for each, in the game's
    judge (3,408 calls when the strategy judged its own moves too)."""
    calls = [0]
    legal = separation.legal_eve_move

    def counting(*args):
        calls[0] += 1
        return legal(*args)
    monkeypatch.setattr(game, "legal_eve_move", counting)
    monkeypatch.setattr(soundness, "legal_eve_move", counting, raising=False)
    uni = tmp_path / "strategy-chain.uni"
    uni.write_text(corpus_text("par_writes.uni").replace("vals = 0..3", "vals = 0..1"))
    code = bench_script("chain").main([str(CORPUS / "par_writes.csl"),
                                       str(CORPUS / "par_writes.proof"), "-u", str(uni)])
    assert code == 0 and capsys.readouterr().out.endswith(", all pass\n")
    assert calls[0] == 1704


def test_the_chain_joins_half_as_often_and_renders_each_state_once(
        monkeypatch, tmp_path, capsys):
    """`emp` is the tensor's unit and a separated state keeps its text: on
    the strategy-chain inputs, from cold memos, the per-cell join runs at
    most half of the 24,224 times it ran when every `*` merged both maps
    (11,344), and each of the separated states the sort keys and reports ask
    about is rendered once (76 states, 1,900 renderings when each was
    rendered afresh)."""
    joins, asked, pieces = [0], [], [0]
    join, render, piece = logic._join, separation.sep_state_to_text, lstate_to_text

    def counting_join(a, b):
        joins[0] += 1
        return join(a, b)

    def asking(s):
        asked.append(s)
        return render(s)

    def counting_piece(sigma):
        pieces[0] += 1
        return piece(sigma)
    monkeypatch.setattr(logic, "_join", counting_join)
    monkeypatch.setattr(separation, "lstate_to_text", counting_piece)
    monkeypatch.setattr(game, "sep_state_to_text", asking)
    separation.separations.cache_clear()
    game._refinements.cache_clear()
    uni = tmp_path / "strategy-chain.uni"
    uni.write_text(corpus_text("par_writes.uni").replace("vals = 0..3", "vals = 0..1"))
    code = bench_script("chain").main([str(CORPUS / "par_writes.csl"),
                                       str(CORPUS / "par_writes.proof"), "-u", str(uni)])
    assert code == 0 and capsys.readouterr().out.endswith(", all pass\n")
    assert 0 < joins[0] <= 24224 // 2
    states = set(asked)
    assert len(asked) > 1000 and len(states) == 76
    # a rendering renders the code, each available resource and the frame
    assert pieces[0] == sum(2 + sum(isinstance(e, Available) for e in s.resources.values())
                            for s in states)
