import random

import pytest

from sepgame import cli, machine
from sepgame.machine import (ABORT, ERROR, IAcquire, INop, IRelease, MachineState,
                             MemoryState, Return, eval_bool, eval_expr, instr_to_text,
                             locks, locks_minus, locks_plus, machine_step,
                             mstate_to_text, parse_mstate)
from sepgame.maps import fmap
from sepgame.semantics import all_machine_states, instruction_alphabet
from sepgame.syntax import (Add, AllocC, Assign, DisposeC, FAnd, FEq, FFalse,
                            FOr, FTrue, Lit, Load, Store, Var,
                            parse_program, parse_universe)

from .builders import mstate
from .conftest import EXHAUSTIVE_UNIVERSE, PROGRAMS, corpus_text


def test_eval_expr_examples():
    mu = MemoryState(fmap({"x": 2}), fmap())
    assert eval_expr(Add(Var("x"), Lit(1)), mu) == 3
    assert eval_expr(Lit(7), MemoryState()) == 7
    assert eval_expr(Var("y"), mu) is ABORT


# independent three-valued evaluator used as the oracle for eval_bool
def _oracle_bool(b, mu):
    def expr(e):
        if isinstance(e, Lit):
            return e.value
        if isinstance(e, Var):
            return mu.stack[e.name] if e.name in mu.stack else ABORT
        a, c = expr(e.left), expr(e.right)
        if a is ABORT or c is ABORT:
            return ABORT
        return a + c if isinstance(e, Add) else a * c

    table = {
        FTrue: lambda: True,
        FFalse: lambda: False,
    }
    if type(b) in table:
        return table[type(b)]()
    if isinstance(b, FEq):
        l, r = expr(b.left), expr(b.right)
        return ABORT if ABORT in (l, r) else l == r
    l, r = _oracle_bool(b.left, mu), _oracle_bool(b.right, mu)
    if l is ABORT or r is ABORT:
        return ABORT
    return (l and r) if isinstance(b, FAnd) else (l or r)


def test_eval_bool_examples():
    mu1 = MemoryState(fmap({"x": 1}), fmap())
    assert eval_bool(FEq(Var("x"), Lit(1)), mu1) is True
    # strict evaluation aborts even under a true disjunct
    assert eval_bool(FOr(FTrue(), FEq(Var("y"), Lit(0))), MemoryState()) is ABORT
    assert eval_bool(FFalse(), mu1) is False


def test_eval_bool_against_truth_table_oracle():
    rng = random.Random(5)
    atoms = [FTrue(), FFalse(), FEq(Var("x"), Lit(0)), FEq(Var("y"), Lit(1)),
             FEq(Add(Var("x"), Var("y")), Lit(1))]
    stacks = [fmap(), fmap({"x": 0}), fmap({"y": 1}), fmap({"x": 0, "y": 1})]

    def rand_bexpr(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(atoms)
        cls = rng.choice([FAnd, FOr])
        return cls(rand_bexpr(depth - 1), rand_bexpr(depth - 1))

    for _ in range(500):
        b = rand_bexpr(3)
        for stack in stacks:
            mu = MemoryState(stack, fmap())
            assert eval_bool(b, mu) is _oracle_bool(b, mu)


@pytest.fixture(scope="module")
def u():
    return parse_universe("vars = x, y\nlocs = 2, 3\nvals = 0..3\n"
                          "perms = 1/2, 1\nlocks = r\nmaxlen = 4\n")


def test_assign_step(u):
    s = mstate(stack={"x": 0})
    outs = machine_step(s, Assign("x", Lit(3)), u)
    assert outs == frozenset([Return(mstate(stack={"x": 3}))])


def test_assign_out_of_range_is_error(u):
    s = mstate(stack={"x": 0})
    assert machine_step(s, Assign("x", Lit(9)), u) == frozenset([ERROR])


def test_lock_side_conditions(u):
    s = mstate(stack={"x": 0})
    taken = machine_step(s, IAcquire("r"), u)
    assert taken == frozenset([Return(mstate(stack={"x": 0}, locked={"r"}))])
    assert machine_step(mstate(stack={"x": 0}, locked={"r"}), IAcquire("r"), u) \
        == frozenset()
    assert machine_step(s, IRelease("r"), u) == frozenset()


def test_store_unallocated_is_error(u):
    # reference interpreter: a store succeeds iff the location is a live cell
    s = mstate()
    assert machine_step(s, Store(Lit(2), Lit(1)), u) == frozenset([ERROR])
    s2 = mstate(heap={2: 0})
    assert machine_step(s2, Store(Lit(2), Lit(1)), u) == \
        frozenset([Return(mstate(heap={2: 1}))])


def test_load_and_dispose(u):
    s = mstate(stack={"x": 0}, heap={2: 3})
    assert machine_step(s, Load("x", Lit(2)), u) == \
        frozenset([Return(mstate(stack={"x": 3}, heap={2: 3}))])
    assert machine_step(s, Load("x", Lit(3)), u) == frozenset([ERROR])
    assert machine_step(s, DisposeC(Lit(2)), u) == \
        frozenset([Return(mstate(stack={"x": 0}))])


def test_alloc_nondeterminism(u):
    s = mstate(stack={"x": 0})
    outs = machine_step(s, AllocC("x", Lit(1)), u)
    assert len(outs) == 2  # one per free location
    posts = {out.state for out in outs}
    assert mstate(stack={"x": 2}, heap={2: 1}) in posts
    assert mstate(stack={"x": 3}, heap={3: 1}) in posts


def test_locks_examples():
    assert locks_plus(IAcquire("r")) == frozenset(["r"])
    assert locks_minus(IAcquire("r")) == frozenset()
    assert locks_plus(INop()) == locks_minus(INop()) == frozenset()
    assert locks_minus(IRelease("r")) == frozenset(["r"])
    assert locks(IRelease("r")) == frozenset(["r"])


def _all_states(u):
    for x in [None] + list(u.values):
        stack = fmap() if x is None else fmap({"x": x})
        for c in [None, 0]:
            heap = fmap() if c is None else fmap({2: c})
            for locked in (frozenset(), frozenset(["r"])):
                yield mstate(stack=stack._dict, heap=heap._dict, locked=locked)


_ALPHABET = [Assign("x", Lit(1)), Assign("x", Add(Var("x"), Lit(1))),
             Load("x", Lit(2)), Store(Lit(2), Var("x")), INop(),
             AllocC("x", Lit(0)), DisposeC(Lit(2)), IAcquire("r"),
             IRelease("r")]


def test_never_both_error_and_return(u):
    for s in _all_states(u):
        for m in _ALPHABET:
            outs = machine_step(s, m, u)
            if ERROR in outs:
                assert outs == frozenset([ERROR])


def test_acquire_release_round_trip(u):
    for s in _all_states(u):
        for out in machine_step(s, IAcquire("r"), u):
            back = machine_step(out.state, IRelease("r"), u)
            assert Return(s) in back


def test_memory_and_lock_preservation(u):
    for s in _all_states(u):
        for m in _ALPHABET:
            for out in machine_step(s, m, u):
                if out is ERROR:
                    continue
                if isinstance(m, (IAcquire, IRelease)):
                    assert out.state.memory == s.memory
                else:
                    assert out.state.locked == s.locked


def test_state_and_instr_text_round_trip(u):
    for s in _all_states(u):
        assert parse_mstate(mstate_to_text(s)) == s
    assert [instr_to_text(m) for m in _ALPHABET] == [
        "x := 1", "x := x + 1", "x := [2]", "[2] := x", "nop", "x := alloc(0)",
        "dispose(2)", "acquire(r)", "release(r)"]
    assert {name: [instr_to_text(m) for m in instruction_alphabet(
                parse_program(corpus_text(f"{name}.csl")))]
            for name in PROGRAMS} == {
        "par_writes": ["nop", "x := 1", "y := 1"],
        "framed_assign": ["nop", "x := 1"],
        "lock_transfer": ["acquire(r)", "nop", "release(r)", "x := 1"],
        "lock_pair": ["acquire(r)", "nop", "release(r)", "x := 1", "x := 2"],
        "seq_load_store": ["[3] := x", "nop", "x := [2]"],
        "conj_precise": ["nop", "x := 1"],
        "if_def": ["nop", "y := 0", "y := 1"],
        "while_count": ["nop", "x := 1"],
    }


# --- the kept text -----------------------------------------------------------------

def _oracle_mstate_to_text(s):
    """The rendering as it was before states kept their text."""
    stack = " ".join(f"{k}={v}" for k, v in s.memory.stack.items())
    heap = " ".join(f"{k}={v}" for k, v in s.memory.heap.items())
    locked = " ".join(sorted(s.locked))
    return "{%s | %s | %s}" % (stack, heap, locked)


def test_every_universe_state_keeps_the_text_a_fresh_rendering_gives():
    states = all_machine_states(parse_universe(EXHAUSTIVE_UNIVERSE))
    assert len(states) == 18 and {s.locked for s in states} == {
        frozenset(), frozenset({"r"})}
    for s in states:
        text = mstate_to_text(s)
        assert text == _oracle_mstate_to_text(s) and s.text is text
        assert mstate_to_text(s) is text
        fresh = MachineState(s.memory, s.locked)
        assert mstate_to_text(fresh) == text


def test_the_kept_text_takes_no_part_in_equality_hash_or_repr():
    s, t = (mstate(stack={"x": 1}, heap={2: 0}, locked={"r"}) for _ in range(2))
    assert mstate_to_text(s) == "{x=1 | 2=0 | r}"
    assert not hasattr(t, "text")
    assert s == t and t == s and hash(s) == hash(t) and repr(s) == repr(t)
    assert "text" not in repr(s)
    with pytest.raises(AttributeError):
        s.text = "other"


def test_printing_the_exhaustive_traces_renders_each_state_once(
        tmp_path, capsys, monkeypatch):
    """`run` on the enumerate-exhaustive benchmark's inputs asks for the text
    of 45 machine-state objects (18 values) and renders each one once; every
    trace rendered them all again, 11,988 renderings in all."""
    rendered = []

    def counting(s, render=machine._render_mstate):
        rendered.append(s)
        return render(s)

    monkeypatch.setattr(machine, "_render_mstate", counting)
    (tmp_path / "x.csl").write_text("x := 1\n")
    (tmp_path / "x.uni").write_text(EXHAUSTIVE_UNIVERSE)
    assert cli.main(["run", str(tmp_path / "x.csl"),
                     "-u", str(tmp_path / "x.uni")]) == 0
    assert capsys.readouterr().out.endswith("total 3078 traces, 2916 returning\n")
    assert len(rendered) == len({id(s) for s in rendered}) == 45
    assert len(set(rendered)) == 18
