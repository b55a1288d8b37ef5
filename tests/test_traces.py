import itertools
import math

import pytest

from sepgame.machine import INop, IAcquire, instr_to_text
from sepgame.semantics import enumerate_traces
from sepgame.syntax import Assign, Lit, parse_program, parse_universe
from sepgame.traces import (ERR, OK, CodeTransition, Trace, TraceError, restrict,
                            shuffles, step_to_text, trace_to_lines)
from .builders import mstate
from .conftest import EXHAUSTIVE_UNIVERSE, TraceGen
from .trace_algebra import hide, par_compose, par_compose_by_shuffle, seq_compose
from .test_machine import _oracle_mstate_to_text


S0 = mstate(stack={"x": 0})
S1 = mstate(stack={"x": 1})
S2 = mstate(stack={"x": 2})


def _step(pre, post, instr=None):
    return CodeTransition(pre, instr or Assign("x", Lit(1)), post, OK)


def test_seq_compose_concatenates():
    t1 = Trace(S0, (_step(S0, S1),), S1)
    t2 = Trace(S1, (_step(S1, S2), _step(S2, S0)), S0)
    t = seq_compose(t1, t2)
    assert len(t) == 3
    assert t.steps == t1.steps + t2.steps
    assert t.source == S0 and t.target == S0


def test_seq_compose_empty_unit():
    t = Trace(S0, (_step(S0, S1),), S1)
    unit = Trace(S1, (), S2)
    out = seq_compose(t, unit)
    assert out.steps == t.steps and out.target == S2


def test_seq_compose_endpoint_mismatch():
    with pytest.raises(TraceError):
        seq_compose(Trace(S0, (), S1), Trace(S2, (), S0))


def test_restrict_identity_and_empty():
    t = Trace(S0, (_step(S0, S1), _step(S1, S2)), S2)
    assert restrict((1, 2), t) == t
    empty = restrict((), t)
    assert empty.steps == () and empty.source == S0 and empty.target == S2
    one = restrict((2,), t)
    assert one.steps == (t.steps[1],)


def test_restrict_not_increasing():
    t = Trace(S0, (_step(S0, S1), _step(S1, S2)), S2)
    with pytest.raises(TraceError):
        restrict((2, 1), t)


def test_shuffle_counts_small():
    assert len(shuffles(1, 1)) == 2
    assert len(shuffles(2, 1)) == 3
    assert len(shuffles(0, 5)) == 1


def test_shuffle_counts_exhaustive():
    for total in range(9):
        for p in range(total + 1):
            assert len(shuffles(p, total - p)) == math.comb(total, p)


def test_par_compose_not_coinitial():
    t1 = Trace(S0, (), S1)
    t2 = Trace(S1, (), S1)
    assert par_compose(t1, t2) == frozenset()


def test_par_compose_with_empty():
    t1 = Trace(S0, (_step(S0, S1),), S1)
    empty = Trace(S0, (), S1)
    assert par_compose(t1, empty) == frozenset([t1])


def _oracle_par(t1, t2):
    """Definition-level brute force: candidate interleavings verified through
    restriction."""
    if t1.source != t2.source or t1.target != t2.target:
        return {}
    out = {}
    p, q = len(t1), len(t2)
    for omega in shuffles(p, q):
        steps = [None] * (p + q)
        for i, k in enumerate(omega.left_positions()):
            steps[k - 1] = t1.steps[i]
        for i, k in enumerate(omega.right_positions()):
            steps[k - 1] = t2.steps[i]
        if any(s.status == ERR for s in steps[:-1]):
            continue
        cand = Trace(t1.source, tuple(steps), t1.target)
        assert restrict(omega.left_positions(), cand) == t1
        assert restrict(omega.right_positions(), cand) == t2
        out[omega] = cand
    return out


def test_par_compose_two_singletons():
    a = Trace(S0, (_step(S0, S1),), S2)
    b = Trace(S0, (_step(S1, S2, INop()),), S2)
    by_shuffle = par_compose_by_shuffle(a, b)
    assert len(by_shuffle) == 2
    assert by_shuffle == _oracle_par(a, b)


def test_par_compose_against_oracle_random():
    gen = TraceGen(seed=11)
    for _ in range(200):
        src, tgt = gen.state(), gen.state()
        t1 = gen.trace(max_len=3, source=src, target=tgt)
        t2 = gen.trace(max_len=3, source=src, target=tgt)
        assert par_compose_by_shuffle(t1, t2) == _oracle_par(t1, t2)


def test_par_length_invariant():
    gen = TraceGen(seed=13)
    for _ in range(200):
        src, tgt = gen.state(), gen.state()
        t1 = gen.trace(max_len=3, source=src, target=tgt)
        t2 = gen.trace(max_len=3, source=src, target=tgt)
        for t in par_compose(t1, t2):
            assert len(t) == len(t1) + len(t2)


def test_hide_relabels_and_unlocks():
    pre = mstate(stack={"x": 0})
    post = mstate(stack={"x": 0}, locked={"r"})
    t = Trace(pre, (CodeTransition(pre, IAcquire("r"), post, OK),), post)
    h = hide("r", t)
    assert h.steps[0].instr == INop()
    assert h.steps[0].post.locked == frozenset()
    assert h.target.locked == frozenset()


def test_hide_noop_and_idempotent():
    gen = TraceGen(seed=17)
    for _ in range(100):
        t = gen.trace()
        h = hide("r", t)
        assert hide("r", h) == h
        assert hide("q", t) == t  # q never occurs


def test_seq_associative_where_defined():
    gen = TraceGen(seed=19)
    for _ in range(200):
        a = gen.state()
        b = gen.state()
        t1 = gen.trace(target=a)
        t2 = gen.trace(source=a, target=b)
        t3 = gen.trace(source=b)
        assert seq_compose(seq_compose(t1, t2), t3) == \
            seq_compose(t1, seq_compose(t2, t3))


def test_restrict_functorial():
    gen = TraceGen(seed=23)
    for _ in range(200):
        t = gen.trace(max_len=5)
        q = len(t)
        gs = list(itertools.combinations(range(1, q + 1), min(3, q)))
        for g in gs[:5]:
            sub = restrict(g, t)
            for f in itertools.combinations(range(1, len(g) + 1), min(2, len(g))):
                composed = tuple(g[i - 1] for i in f)
                assert restrict(f, sub) == restrict(composed, t)


def test_hide_commutes_with_seq_and_restrict():
    gen = TraceGen(seed=29)
    for _ in range(200):
        t1, t2 = gen.chained_pair()
        assert hide("r", seq_compose(t1, t2)) == \
            seq_compose(hide("r", t1), hide("r", t2))
        t = gen.trace(max_len=4)
        for f in itertools.combinations(range(1, len(t) + 1), min(2, len(t))):
            assert hide("r", restrict(f, t)) == restrict(f, hide("r", t))


def test_error_step_must_be_last():
    err = CodeTransition(S0, Assign("x", Lit(9)), S0, ERR)
    with pytest.raises(TraceError):
        Trace(S0, (err, _step(S0, S1)), S1)
    Trace(S0, (_step(S0, S1), CodeTransition(S1, Assign("x", Lit(9)), S1, ERR)), S1)


def test_error_keeps_pre_state():
    with pytest.raises(TraceError):
        CodeTransition(S0, Assign("x", Lit(9)), S1, ERR)


def test_seq_compose_rejects_steps_after_error():
    err = Trace(S0, (CodeTransition(S0, Assign("x", Lit(9)), S0, ERR),), S1)
    cont = Trace(S1, (_step(S1, S2),), S2)
    with pytest.raises(TraceError):
        seq_compose(err, cont)


def _oracle_trace_to_lines(t):
    """The lines as they were before steps and states kept their text."""
    lines = [f"source {_oracle_mstate_to_text(t.source)}"]
    for st in t.steps:
        lines.append(f"step {st.status} {_oracle_mstate_to_text(st.pre)} ; "
                     f"{instr_to_text(st.instr)} ; {_oracle_mstate_to_text(st.post)}")
    lines.append(f"target {_oracle_mstate_to_text(t.target)}")
    return lines


def test_every_exhaustive_trace_prints_as_before_and_steps_keep_their_line():
    u = parse_universe(EXHAUSTIVE_UNIVERSE)
    inits = [mstate(), mstate(stack={"x": 0}), mstate(stack={"x": 1})]
    steps = {}
    for t, _, _ in enumerate_traces(parse_program("x := 1"), inits, u):
        assert trace_to_lines(t) == _oracle_trace_to_lines(t)
        for st in t.steps:
            steps[id(st)] = st
    assert len(steps) == 18
    for st in steps.values():
        assert st.text is step_to_text(st)
        fresh = CodeTransition(st.pre, st.instr, st.post, st.status)
        assert not hasattr(fresh, "text")
        assert fresh == st and hash(fresh) == hash(st) and repr(fresh) == repr(st)
