import pytest

from sepgame import machine
from sepgame.logic import erase
from sepgame.machine import (ABORT, ERROR, IAcquire, INop, IRelease, MachineState,
                             Return, eval_bool, instr_to_text, machine_step)
from sepgame.semantics import (IN, NOTIN, RETURNS, AtomTS, EnumerationBudget,
                               AtomW, GuardTS, GuardW, HideTS, HideW, ParTS, ParW,
                               SeqLeftW, SeqSplitW, SeqTS,
                               all_machine_states, denote, enumerate_traces,
                               instruction_alphabet)
from sepgame.syntax import (Assign, FEq, FTrue, Lit, Var, parse_program,
                            parse_universe)
from sepgame.traces import ERR, OK, CodeTransition, Trace, restrict, shuffles

from .builders import mstate, prefix
from .conftest import PROGRAMS, corpus_inits, corpus_text
from .trace_algebra import hide, par_compose, seq_compose


@pytest.fixture(scope="module")
def u():
    return parse_universe("vars = x, y\nlocs = 2\nvals = 0..3\n"
                          "perms = 1/2, 1\nlocks = r\nmaxlen = 4\n")


@pytest.fixture(scope="module")
def u_micro():
    return parse_universe("vars = x\nlocs = 2\nvals = 0..1\n"
                          "perms = 1\nlocks = r\nmaxlen = 2\n")


@pytest.fixture(scope="module")
def u_moves():
    """u_micro at maxlen 6, with an environment that flips x either way."""
    return parse_universe("vars = x\nlocs = 2\nvals = 0..1\nperms = 1\nlocks = r\n"
                          "maxlen = 6\nenv = move-list\n"
                          "move = {x=0 | | } -> {x=1 | | }\nmove = {x=1 | | } -> {x=0 | | }\n")


S0 = mstate(stack={"x": 0})
S5 = mstate(stack={"x": 1})


def _ok_step(pre, m, u):
    (out,) = [o for o in machine_step(pre, m, u) if o is not None]
    return CodeTransition(pre, m, out.state, OK)


def test_atom_verdicts(u):
    atom = AtomTS(Assign("x", Lit(1)), u)
    step = _ok_step(S0, Assign("x", Lit(1)), u)
    t1 = Trace(S0, (step,), step.post)
    assert atom.member(t1)[0] == RETURNS
    empty = Trace(S0, (), S0)
    assert atom.member(empty)[0] == IN
    t2 = Trace(S0, (step, _ok_step(step.post, Assign("x", Lit(1)), u)), step.post)
    assert atom.member(t2)[0] == NOTIN


def test_atom_error_step_is_in_not_returns(u):
    bad = Assign("x", Lit(9))
    t = Trace(S0, (CodeTransition(S0, bad, S0, ERR),), S0)
    assert AtomTS(bad, u).member(t)[0] == IN


def test_seq_split_matches_brute_force_over_intermediates(u):
    # oracle: try every split point and every universe state as the midpoint
    prog = parse_program("x := 1 ; x := 2")
    sys = denote(prog, u)
    first = denote(parse_program("x := 1"), u)
    second = denote(parse_program("x := 2"), u)
    s1 = _ok_step(S0, Assign("x", Lit(1)), u)
    s2 = _ok_step(s1.post, Assign("x", Lit(2)), u)
    candidates = [
        Trace(S0, (s1, s2), s2.post),
        Trace(S0, (s1,), s1.post),
        Trace(S0, (s2,), s2.post),
        Trace(S0, (), S0),
    ]
    for t in candidates:
        def oracle(t):
            best = NOTIN
            for k in range(len(t) + 1):
                for mid in all_machine_states(u):
                    t1 = Trace(t.source, t.steps[:k], mid)
                    t2 = Trace(mid, t.steps[k:], t.target)
                    if first.member(t1)[0] != RETURNS:
                        continue
                    v2 = second.member(t2)[0]
                    if v2 == RETURNS:
                        return RETURNS
                    if v2 == IN:
                        best = IN
            if first.member(t)[0] != NOTIN:
                best = max(best, IN)
            return best
        assert sys.member(t)[0] == oracle(t)
    v, w = sys.member(candidates[0])
    assert v == RETURNS and isinstance(w, SeqSplitW) and w.k == 1


def test_seq_asks_its_first_command_once_per_split(u):
    sys = denote(parse_program("x := 1 ; y := 1"), u)
    first, calls = sys.first, []

    class Counting:
        start, step = first.start, first.step

        def answer(self, r, target):
            calls.append(target)
            return first.answer(r, target)

    sys.first = Counting()
    s1 = _ok_step(S0, Assign("x", Lit(1)), u)
    for t in (Trace(S0, (), S0), Trace(S0, (s1,), s1.post)):
        calls.clear()
        assert sys.member(t)[0] == IN
        assert len(calls) == len(t) + 1


def _when(cond, u):
    """The guard that runs nop when cond holds and has no arm otherwise."""
    return GuardTS(cond, {True: (INop(), None)}, u)


def test_when_gates_on_first_code_state(u):
    gated = _when(FEq(Var("x"), Lit(0)), u)
    step = _ok_step(S0, INop(), u)
    t = Trace(S0, (step,), S0)
    assert gated.member(t)[0] == RETURNS
    t_wrong = Trace(S5, (_ok_step(S5, INop(), u),), S5)
    assert gated.member(t_wrong)[0] == NOTIN


def test_when_true_passthrough(u):
    sys = _when(FTrue(), u)
    plain = AtomTS(INop(), u)
    step = _ok_step(S0, INop(), u)
    for t in [Trace(S0, (), S0), Trace(S0, (step,), S0)]:
        assert sys.member(t)[0] == plain.member(t)[0]


def test_when_abort_recognizes_failed_tests(u):
    def branch(cond):
        return GuardTS(cond, {True: (INop(), None), False: (INop(), None)}, u)

    sys = branch(FEq(Var("y"), Lit(0)))
    t = Trace(S0, (CodeTransition(S0, INop(), S0, ERR),), S0)
    v, w = sys.member(t)
    assert v == IN
    assert sys.member(Trace(S0, (), S0))[0] == IN  # prefix
    ok_t = Trace(S0, (_ok_step(S0, INop(), u),), S0)
    assert sys.member(ok_t)[0] == NOTIN
    # a true test never aborts
    assert branch(FTrue()).member(t)[0] == NOTIN


# (program, traces, returning, errored) from the empty state and from x = 0
# under an exhaustive environment
GUARD_COUNTS = [
    ("if x = 0 then x := 1 else skip", 8460, 7776, 216),
    ("while x = 0 do x := 1", 4572, 216, 216),
    ("with r when x = 0 do x := 1", 2304, 0, 216),
    ("resource r do with r when x = 1 do x := 0", 612, 0, 54),
]


# the same for parallel composition and a resource around it
PAR_COUNTS = [
    ("skip || while x = 0 do skip", 15156, 6480, 4104),
    ("x := 1 || x := 0", 24660, 23328, 0),
    ("resource r do { skip || with r when true do skip }", 1638, 0, 0),
]


@pytest.mark.parametrize("text, traces, returning, errored", GUARD_COUNTS)
def test_guard_trace_counts(u_micro, text, traces, returning, errored):
    found = list(enumerate_traces(parse_program(text), [mstate(), S0], u_micro,
                                  policy="exhaustive"))
    assert (len(found), sum(ret for _, ret, _ in found),
            sum(t.errored for t, _, _ in found)) == (traces, returning, errored)


@pytest.mark.parametrize("text, traces, returning, errored", PAR_COUNTS)
def test_par_trace_counts(u_micro, text, traces, returning, errored):
    test_guard_trace_counts(u_micro, text, traces, returning, errored)


def test_returning_is_not_final(u_micro, u_moves):
    """A returning trace can have member extensions: the loop's test may
    come after skip returned, so neither member nor the enumeration may stop
    at RETURNS."""
    prog = parse_program("skip || while x = 0 do skip")
    sys = denote(prog, u_micro)
    nop0, nop1 = _ok_step(S0, INop(), u_micro), _ok_step(S5, INop(), u_micro)
    t = Trace(S0, (nop0, nop1), S5)
    longer = Trace(S0, (nop0, nop1, nop1), S5)
    assert (sys.member(t)[0], sys.member(longer)[0]) == (RETURNS, IN)
    found = {t: ret for t, ret, _ in enumerate_traces(prog, [S0], u_moves)}
    assert (found[t], found[longer]) == (True, False)


def test_denote_skip_is_nop(u):
    sys = denote(parse_program("skip"), u)
    step = _ok_step(S0, INop(), u)
    assert sys.member(Trace(S0, (step,), S0))[0] == RETURNS


def test_par_contains_both_interleavings(u):
    traces = list(enumerate_traces(parse_program("x := 1 || y := 1"),
                                   [mstate(stack={"x": 0, "y": 0})], u))
    rets = [t for t, ret, _ in traces if ret]
    assert len(rets) == 2
    orders = {tuple(type(s.instr).__name__ + repr(s.post.memory.stack._dict)
                    for s in t.steps) for t in rets}
    assert len(orders) == 2


def test_while_false_returns_single_nop(u):
    prog = parse_program("while x = 1 do skip")
    traces = list(enumerate_traces(prog, [S0], u))
    rets = [t for t, ret, _ in traces if ret]
    assert len(rets) == 1
    assert len(rets[0]) == 1 and isinstance(rets[0].steps[0].instr, INop)


def test_enumerate_maxlen_zero(u):
    traces = list(enumerate_traces(parse_program("x := 1"), [S0], u, maxlen=0))
    assert len(traces) == 1
    t, ret, _ = traces[0]
    assert len(t) == 0 and not ret


def test_enumerate_parallel_assign_counts(u):
    traces = list(enumerate_traces(parse_program("x := 1 || x := 2"),
                                   [S0], u))
    rets = [(t, w) for t, ret, w in traces if ret]
    assert len(rets) == 2
    finals = sorted(t.target.memory.stack["x"] for t, _ in rets)
    assert finals == [1, 2]


def test_enumerate_budget_is_loud(u):
    with pytest.raises(EnumerationBudget):
        list(enumerate_traces(parse_program("x := 1 || x := 2"), [S0], u,
                              max_traces=2))


def test_prefix_closure_on_enumerated_traces(u):
    prog = parse_program("if x = 0 then { x := 1 ; x := 2 } else skip")
    sys = denote(prog, u)
    for t, ret, _ in enumerate_traces(prog, [S0], u):
        for k in range(len(t)):
            assert sys.member(prefix(t, k))[0] != NOTIN


def test_returns_decompose_through_witnesses(u):
    prog = parse_program("x := 1 ; x := 2")
    sys = denote(prog, u)
    first = denote(parse_program("x := 1"), u)
    second = denote(parse_program("x := 2"), u)
    for t, ret, w in enumerate_traces(prog, [S0], u):
        if not ret:
            continue
        assert isinstance(w, SeqSplitW)
        t1 = Trace(t.source, t.steps[:w.k], w.mid)
        t2 = Trace(w.mid, t.steps[w.k:], t.target)
        assert first.member(t1)[0] == RETURNS
        assert second.member(t2)[0] == RETURNS
        assert seq_compose(t1, t2) == t


def test_enumerate_and_member_agree(u_micro):
    # exhaustive candidate sweep on a micro universe
    prog = parse_program("with r when true do x := 1")
    sys = denote(prog, u_micro)
    inits = [mstate(stack={"x": 0})]
    enumerated = {t for t, _, _ in enumerate_traces(prog, inits, u_micro)}
    alphabet = instruction_alphabet(prog)

    def all_candidates(source, length):
        if length == 0:
            yield Trace(source, (), source)
            return
        for shorter in all_candidates(source, length - 1):
            if shorter.errored or len(shorter) < length - 1:
                continue
            cur = shorter.target
            for m in alphabet:
                for out in machine_step(cur, m, u_micro):
                    if out is None:
                        continue
                    from sepgame.machine import ERROR
                    if out is ERROR:
                        step = CodeTransition(cur, m, cur, ERR)
                    else:
                        step = CodeTransition(cur, m, out.state, OK)
                    yield Trace(source, shorter.steps + (step,), step.post)
                step = CodeTransition(cur, INop(), cur, ERR)
                yield Trace(source, shorter.steps + (step,), step.post)

    candidates = set()
    for n in range(3):
        candidates |= set(all_candidates(inits[0], n))
    for cand in candidates:
        in_denotation = sys.member(cand)[0] != NOTIN
        assert in_denotation == (cand in enumerated), cand


def test_resource_traces_never_mention_lock(u):
    prog = parse_program("resource r do with r when true do x := 1")
    for t, _, _ in enumerate_traces(prog, [S0], u):
        states = [t.source, t.target] + \
            [s for st in t.steps for s in (st.pre, st.post)]
        assert all("r" not in s.locked for s in states)


def test_move_lines_are_parsed_once_per_enumeration(monkeypatch):
    """Under `env = move-list` the move lines are resolved into machine
    states once, not again at every environment step."""
    u = parse_universe(corpus_text("lock_transfer.uni").replace(
        "env = passive", "env = move-list\n"
        "move = {x=0 | | } -> {x=1 | | }\n"
        "move = {x=1 | | r} -> {x=0 | | r}"))
    calls = []
    real_parse_mstate = machine.parse_mstate

    def counting(text):
        calls.append(text)
        return real_parse_mstate(text)
    monkeypatch.setattr(machine, "parse_mstate", counting)
    prog = parse_program(corpus_text("lock_transfer.csl"))
    traces = [t for t, _, _ in enumerate_traces(prog, [mstate(stack={"x": 0})], u)]
    moved = [t for t in traces
             if any(a.post != b.pre for a, b in zip(t.steps, t.steps[1:]))]
    assert moved, "no trace takes an environment move"
    assert len(calls) == 4


# --- waiting threads and the trace algebra as oracle -------------------------------

LOCK_PAIR = "with r when true do x := 1 || with r when true do x := 2"


def _labels(t):
    return " ; ".join(instr_to_text(st.instr) for st in t.steps)


def test_waiting_threads_keep_their_empty_prefix():
    """A thread blocked on its sibling's lock, or on a `when` test that is
    still false, has run nothing: its empty prefix is in its denotation, so
    the parallel composition keeps the trace."""
    u = parse_universe(corpus_text("lock_transfer.uni"))
    held = mstate(stack={"x": 0}, locked={"r"})
    assert AtomTS(IAcquire("r"), u).member(Trace(S0, (), held))[0] == IN
    gate = _when(FEq(Var("x"), Lit(1)), u)
    assert gate.member(Trace(S0, (), S0))[0] == IN

    traces = list(enumerate_traces(parse_program(LOCK_PAIR), [S0], u))
    assert len(traces) == 12
    serial = "acquire(r) ; x := {} ; release(r) ; acquire(r) ; x := {} ; release(r)"
    assert sorted((_labels(t), t.target.memory.stack["x"])
                  for t, ret, _ in traces if ret) == [
        (serial.format(1, 2), 2), (serial.format(2, 1), 1)]

    traces = list(enumerate_traces(
        parse_program("with r when x = 1 do x := 2 || x := 1"), [S0], u))
    assert len(traces) == 5
    assert [_labels(t) for t, ret, _ in traces if ret] == [
        "x := 1 ; acquire(r) ; x := 2 ; release(r)"]


def test_interleavings_of_thread_traces_are_members():
    """Oracle: every interleaving (par_compose) of a returning trace of each
    thread returns in the parallel composition, and each of its prefixes is
    a member.  Thread 2 starts from thread 1's final state; the environment
    carries the state across the gap."""
    u = parse_universe(corpus_text("lock_transfer.uni"))
    prog = parse_program(LOCK_PAIR)
    whole = denote(prog, u)
    (t1,) = [t for t, ret, _ in enumerate_traces(prog.left, [S0], u) if ret]
    (t2,) = [t for t, ret, _ in enumerate_traces(prog.right, [t1.target], u)
             if ret]
    end = t2.target
    interleavings = par_compose(Trace(S0, t1.steps, end), Trace(S0, t2.steps, end))
    assert len(interleavings) == 20
    for t in interleavings:
        assert whole.member(t)[0] == RETURNS, _labels(t)
        for k in range(len(t)):
            assert whole.member(prefix(t, k))[0] != NOTIN, (_labels(t), k)


def _well_bracketed(r, t):
    """r is free at the source and changes only at the trace's own acquire
    and release steps of r."""
    held = False
    if r in t.source.locked:
        return False
    for st in t.steps:
        if (r in st.pre.locked) != held:
            return False
        if st.instr == IAcquire(r):
            held = True
        elif st.instr == IRelease(r):
            held = False
        if (r in st.post.locked) != held:
            return False
    return (r in t.target.locked) == held


@pytest.mark.parametrize("name", ["lock_transfer", "lock_pair"])
def test_hide_preimages_are_well_bracketed(name):
    """Oracle: the pre-image in every HideW witness keeps the bound lock on
    the code's side, and hiding it gives back the trace."""
    u = parse_universe(corpus_text(f"{name}.uni"))
    prog = parse_program(corpus_text(f"{name}.csl"))
    inits = [MachineState(erase(init), frozenset()) for init in corpus_inits(name)]
    seen = 0
    for t, _, w in enumerate_traces(prog, inits, u):
        assert isinstance(w, HideW)
        assert _well_bracketed(prog.lock, w.preimage), _labels(w.preimage)
        assert hide(prog.lock, w.preimage) == t
        seen += 1
    assert seen > 1


# --- the search-based membership of earlier versions as oracle ------------------

def _search_member(sys, t):
    """(verdict, witness) of t by search: every split point of a sequential
    composition, every shuffle of a parallel one, every pre-image under
    hiding, each asked about from scratch."""
    if isinstance(sys, AtomTS):
        if len(t) == 0:
            return (IN, AtomW())
        if len(t) == 1:
            st = t.steps[0]
            if st.instr != sys.instr:
                return (NOTIN, None)
            outs = machine_step(st.pre, sys.instr, sys.u)
            if st.status == OK and Return(st.post) in outs:
                return (RETURNS, AtomW())
            if st.status == ERR and ERROR in outs:
                return (IN, AtomW())
        return (NOTIN, None)
    if isinstance(sys, SeqTS):
        best = (NOTIN, None)
        for k in range(len(t) + 1):
            mid = t.steps[k].pre if k < len(t.steps) else t.target
            t1, t2 = Trace(t.source, t.steps[:k], mid), Trace(mid, t.steps[k:], t.target)
            a1 = _search_member(sys.first, t1)
            if a1[0] != RETURNS:
                continue
            a2 = _search_member(sys.second, t2)
            if a2[0] == RETURNS:
                return (RETURNS, SeqSplitW(k, mid, a1, a2))
            if a2[0] == IN and best[0] == NOTIN:
                best = (IN, SeqSplitW(k, mid, a1, a2))
        if a1[0] != NOTIN:
            return (IN, SeqLeftW(a1))
        return best
    if isinstance(sys, ParTS):
        best = (NOTIN, None)
        n = len(t)
        for p in range(n + 1):
            for omega in shuffles(p, n - p):
                a1 = _search_member(sys.left, restrict(omega.left_positions(), t))
                if a1[0] == NOTIN:
                    continue
                a2 = _search_member(sys.right, restrict(omega.right_positions(), t))
                if a2[0] == NOTIN:
                    continue
                if a1[0] == RETURNS and a2[0] == RETURNS:
                    return (RETURNS, ParW(omega, a1, a2))
                if best[0] == NOTIN:
                    best = (IN, ParW(omega, a1, a2))
        return best
    if isinstance(sys, GuardTS):
        if len(t) == 0:
            return (IN, GuardW(None, None))
        st = t.steps[0]
        value = eval_bool(sys.cond, st.pre.memory)
        if value is ABORT:
            if len(t) == 1 and st.status == ERR and isinstance(st.instr, INop):
                return (IN, GuardW(ABORT, None))
            return (NOTIN, None)
        if value not in sys.arms:
            return (NOTIN, None)
        instr, cont = sys.arms[value]
        if not (st.instr == instr and st.status == OK
                and Return(st.post) in machine_step(st.pre, instr, sys.u)):
            return (NOTIN, None)
        if len(t) == 1:
            return (RETURNS if cont is None else IN, GuardW(value, None))
        if cont is None:
            return (NOTIN, None)
        a = _search_member(cont, Trace(t.steps[1].pre, t.steps[1:], t.target))
        return (a[0], GuardW(value, a)) if a[0] != NOTIN else (NOTIN, None)
    assert isinstance(sys, HideTS)
    r = sys.lock
    states = [t.source] + [x for st in t.steps for x in (st.pre, st.post)] + [t.target]
    if any(r in s.locked for s in states):
        return (NOTIN, None)

    def add(s, held):
        return s.with_locked(s.locked | {r}) if held else s

    def preimages(k, held, acc):
        if k == len(t.steps):
            yield Trace(t.source, tuple(acc), add(t.target, held))
            return
        st = t.steps[k]
        options = [(st.instr, held)]
        if st.status == OK and isinstance(st.instr, INop):
            options.append((IRelease(r), False) if held else (IAcquire(r), True))
        for instr, after in options:
            acc.append(CodeTransition(add(st.pre, held), instr, add(st.post, after),
                                      st.status))
            yield from preimages(k + 1, after, acc)
            acc.pop()

    best = (NOTIN, None)
    for cand in preimages(0, False, []):
        a = _search_member(sys.inner, cand)
        if a[0] == RETURNS:
            return (RETURNS, HideW(cand, a))
        if a[0] == IN and best[0] == NOTIN:
            best = (IN, HideW(cand, a))
    return best


def _agrees_with_search(prog, inits, u, policy=None):
    """The enumerated traces hold every prefix of each of them, and on each
    one enumerate_traces, member and the search give one (verdict, witness);
    returns how many traces were checked."""
    sys = denote(prog, u)
    found = {t: (RETURNS if ret else IN, w)
             for t, ret, w in enumerate_traces(prog, inits, u, policy=policy)}
    for t, answer in found.items():
        assert all(prefix(t, k) in found for k in range(len(t))), _labels(t)
        assert sys.member(t) == answer == _search_member(sys, t), _labels(t)
    return len(found)


@pytest.mark.parametrize("name", PROGRAMS)
def test_member_agrees_with_search_on_the_corpus(name):
    u = parse_universe(corpus_text(f"{name}.uni"))
    inits = [MachineState(erase(init), frozenset()) for init in corpus_inits(name)]
    assert _agrees_with_search(parse_program(corpus_text(f"{name}.csl")), inits, u)


@pytest.mark.parametrize("text", [text for text, *_ in PAR_COUNTS + GUARD_COUNTS])
def test_member_agrees_with_search_under_exhaustive_environment(u_micro, text):
    assert _agrees_with_search(parse_program(text), [mstate(), S0], u_micro,
                               policy="exhaustive")


# sequences whose first command returns and goes on (live splits side by
# side, a split that returns against a first command still in), and guard
# and sequence continuations whose first step changes the state, which the
# source of a pre-image records
CRAFTED = [
    "{ skip || while x = 0 do skip } ; while x = 1 do skip",
    "{ skip || while x = 0 do skip } ; skip ; skip",
    "if x = 0 then resource r do x := 1 else skip",
    "skip ; resource r do { x := 1 || skip }",
]


@pytest.mark.parametrize("text", CRAFTED)
def test_member_agrees_with_search_under_environment_moves(u_moves, text):
    assert _agrees_with_search(parse_program(text), [S0, S5], u_moves)


def test_no_command_returns_without_a_step(u_micro, u_moves):
    """Every command takes a step to return, so no length-0 trace returns and
    the game never asks an empty trace's one position for the postcondition:
    every corpus command from every machine state of its universe, and the
    systems above under their environments."""
    found = []
    for name in PROGRAMS:
        u = parse_universe(corpus_text(f"{name}.uni"))
        found += enumerate_traces(parse_program(corpus_text(f"{name}.csl")),
                                  all_machine_states(u), u, maxlen=0)
    for text, *_ in GUARD_COUNTS + PAR_COUNTS:
        found += enumerate_traces(parse_program(text), [mstate(), S0], u_micro,
                                  maxlen=0, policy="exhaustive")
    for text in CRAFTED:
        found += enumerate_traces(parse_program(text), [S0, S5], u_moves, maxlen=0)
    assert len(found) == 1573 and not any(ret for _, ret, _ in found)
