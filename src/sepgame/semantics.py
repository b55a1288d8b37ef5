"""Transition systems as trace recognizers and enumerators.

Each combinator decides membership of a trace by the defining set equation and
produces a witness explaining how the trace was recognized; witnesses drive
strategy extraction later.  Every system's member(t) returns an answer
(verdict, witness or None), with three verdicts: NOTIN, IN (running) and
RETURNS (finished successfully).

Membership is a pure function of the system and the trace, recomputed on every
call and never stored.  A combinator's witness nests the answers its children
gave for the sub-traces it asked about, verdict and witness together, so a
consumer of the witness never has to ask a child again; the module keeps no
state between calls.

Every system holds every length-0 trace, whatever its target: a thread that
waits for a lock its sibling holds, or for a `when` test to become true, has
run nothing yet, so atomic commands accept their empty prefix where they are
blocked and a guard tests only a trace that has a step.

`if`, `while` and `with` are one system, GuardTS: the test's value at the
first step picks an arm, a first instruction (nop, or the acquire of `with`)
followed by a continuation.  Its witness GuardW holds the value (ABORT for the
single error step of a failing test) and the continuation's answer on the rest
of the trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .machine import (ABORT, ERROR, IAcquire, INop, IRelease, MachineState,
                      MemoryState, Return, eval_bool, instr_to_text,
                      machine_step, mstate_to_text, resolve_env_moves)
from .maps import fmap
from .syntax import (AllocC, Assign, DisposeC, IfC, Load, ParC, ResourceC,
                     SeqC, Skip, Store, Universe, While, WithWhen)
from .traces import CodeTransition, ERR, OK, Trace, restrict, shuffles

NOTIN, IN, RETURNS = 0, 1, 2


class EnumerationBudget(Exception):
    """Raised when an enumeration exceeds its explicit budget."""


# --- membership witnesses -------------------------------------------------------
# Fields other than k, mid, shuffle, preimage and value hold a child's answer.

@dataclass(frozen=True)
class AtomW:
    pass

@dataclass(frozen=True)
class SeqLeftW:
    inner: object

@dataclass(frozen=True)
class SeqSplitW:
    k: int
    mid: MachineState
    left: object
    right: object

@dataclass(frozen=True)
class ParW:
    shuffle: object
    left: object
    right: object

@dataclass(frozen=True)
class HideW:
    preimage: Trace
    inner: object

@dataclass(frozen=True)
class GuardW:
    value: object    # the test's value at the first step; None before it
    rest: object     # the continuation's answer after the test step, or None


# --- transition systems -----------------------------------------------------------

class AtomTS:
    """Traces executing a single instruction, plus their length-0 prefixes,
    which may end where the instruction is blocked."""

    def __init__(self, instr, u: Universe):
        self.instr = instr
        self.u = u

    def member(self, t):
        if len(t) == 0:
            return (IN, AtomW())
        if len(t) == 1:
            st = t.steps[0]
            if st.instr != self.instr:
                return (NOTIN, None)
            outs = machine_step(st.pre, self.instr, self.u)
            if st.status == OK and Return(st.post) in outs:
                return (RETURNS, AtomW())
            if st.status == ERR and ERROR in outs:
                return (IN, AtomW())
        return (NOTIN, None)


def _split(t: Trace, k: int):
    """Split at step k; the intermediate state is the pre-state of the suffix's
    first step (or the target), which is sound because environment edges are
    total."""
    mid = t.steps[k].pre if k < len(t.steps) else t.target
    return Trace(t.source, t.steps[:k], mid), Trace(mid, t.steps[k:], t.target), mid


class SeqTS:
    def __init__(self, first, second):
        self.first = first
        self.second = second

    def member(self, t):
        best = (NOTIN, None)
        for k in range(len(t) + 1):
            t1, t2, mid = _split(t, k)
            a1 = self.first.member(t1)
            if a1[0] != RETURNS:
                continue
            a2 = self.second.member(t2)
            if a2[0] == RETURNS:
                return (RETURNS, SeqSplitW(k, mid, a1, a2))
            if a2[0] == IN and best[0] == NOTIN:
                best = (IN, SeqSplitW(k, mid, a1, a2))
        # the last split, k = len(t), left a1 as first's answer on all of t
        if a1[0] != NOTIN:
            return (IN, SeqLeftW(a1))
        return best


class ParTS:
    def __init__(self, left, right):
        self.left = left
        self.right = right

    def member(self, t):
        best = (NOTIN, None)
        n = len(t)
        for p in range(n + 1):
            for omega in shuffles(p, n - p):
                t1 = restrict(omega.left_positions(), t)
                t2 = restrict(omega.right_positions(), t)
                a1 = self.left.member(t1)
                if a1[0] == NOTIN:
                    continue
                a2 = self.right.member(t2)
                if a2[0] == NOTIN:
                    continue
                if a1[0] == RETURNS and a2[0] == RETURNS:
                    return (RETURNS, ParW(omega, a1, a2))
                if best[0] == NOTIN:
                    best = (IN, ParW(omega, a1, a2))
        return best


class GuardTS:
    """A guarded command: the test's value at the pre-state of the first step
    picks an arm (first instruction, continuation or None) from `arms`.

    A length-0 trace is in, since a thread waiting on a false test has run
    nothing.  A test that aborts has one trace more: a single error step
    labelled nop.  Otherwise the first step is the arm's instruction,
    stepping ok; without a continuation the one-step trace returns, and with
    one the rest of the trace takes the continuation's answer, a one-step
    trace being in.  A loop is the guard whose True arm continues into the
    guard itself: each unfolding consumes a step, so recursion ends.
    """

    def __init__(self, cond, arms: dict, u: Universe):
        self.cond = cond
        self.arms = arms
        self.u = u

    def member(self, t):
        if len(t) == 0:
            return (IN, GuardW(None, None))
        st = t.steps[0]
        value = eval_bool(self.cond, st.pre.memory)
        if value is ABORT:
            if len(t) == 1 and st.status == ERR and isinstance(st.instr, INop):
                return (IN, GuardW(ABORT, None))
            return (NOTIN, None)
        if value not in self.arms:
            return (NOTIN, None)
        instr, cont = self.arms[value]
        if not (st.instr == instr and st.status == OK
                and Return(st.post) in machine_step(st.pre, instr, self.u)):
            return (NOTIN, None)
        if len(t) == 1:
            return (RETURNS if cont is None else IN, GuardW(value, None))
        if cont is None:
            return (NOTIN, None)
        a = cont.member(Trace(t.steps[1].pre, t.steps[1:], t.target))
        return (a[0], GuardW(value, a)) if a[0] != NOTIN else (NOTIN, None)


class HideTS:
    """Pre-image search under lock hiding.

    The hidden lock belongs to the code: only the body's own acquire and
    release move it (Brookes, TCS 2007).  So a pre-image is well-bracketed:
    the lock is free at the source, an ok nop step may instead be an acquire
    of it while it is free or a release while it is held, and every other
    step, every environment gap and the target keep it as it was.  At each
    step the plain nop comes first.
    """

    def __init__(self, lock, inner):
        self.lock = lock
        self.inner = inner

    def member(self, t):
        r = self.lock
        states = [t.source] + [x for st in t.steps for x in (st.pre, st.post)] \
            + [t.target]
        if any(r in s.locked for s in states):
            return (NOTIN, None)
        best = (NOTIN, None)
        for cand in self._preimages(t):
            a = self.inner.member(cand)
            if a[0] == RETURNS:
                return (RETURNS, HideW(cand, a))
            if a[0] == IN and best[0] == NOTIN:
                best = (IN, HideW(cand, a))
        return best

    def _preimages(self, t):
        r = self.lock

        def add(s, held):
            return s.with_locked(s.locked | {r}) if held else s

        def gen(k, held, acc):
            if k == len(t.steps):
                yield Trace(t.source, tuple(acc), add(t.target, held))
                return
            st = t.steps[k]
            options = [(st.instr, held)]
            if st.status == OK and isinstance(st.instr, INop):
                options.append((IRelease(r), False) if held else (IAcquire(r), True))
            for instr, after in options:
                acc.append(CodeTransition(add(st.pre, held), instr,
                                          add(st.post, after), st.status))
                yield from gen(k + 1, after, acc)
                acc.pop()

        yield from gen(0, False, [])


# --- denotation --------------------------------------------------------------------

def denote(c, u: Universe):
    """The transition system of a command.  The recursion stays inside, so a
    wrapper around `denote` sees one call per system built, not one per
    sub-command (bench/tracer.py counts membership tests on what it returns)."""

    def ts(c):
        match c:
            case Assign() | Load() | Store() | AllocC() | DisposeC():
                return AtomTS(c, u)
            case Skip():
                return AtomTS(INop(), u)
            case SeqC(a, b):
                return SeqTS(ts(a), ts(b))
            case ParC(a, b):
                return ParTS(ts(a), ts(b))
            case ResourceC(r, body):
                return HideTS(r, ts(body))
            case WithWhen(r, b, body):
                inside = SeqTS(ts(body), AtomTS(IRelease(r), u))
                return GuardTS(b, {True: (IAcquire(r), inside)}, u)
            case IfC(b, then, orelse):
                return GuardTS(b, {True: (INop(), ts(then)),
                                   False: (INop(), ts(orelse))}, u)
            case While(b, body):
                loop = GuardTS(b, {}, u)
                loop.arms = {True: (INop(), SeqTS(ts(body), loop)),
                             False: (INop(), None)}
                return loop
        raise TypeError(c)

    return ts(c)


def instruction_alphabet(c) -> tuple:
    """The instructions that can label steps of the command's traces."""
    out = {INop()}

    def walk(node):
        match node:
            case Assign() | Load() | Store() | AllocC() | DisposeC():
                out.add(node)
            case Skip():
                pass
            case SeqC(a, b) | ParC(a, b):
                walk(a)
                walk(b)
            case ResourceC(_, body):
                walk(body)
            case WithWhen(r, _, body):
                out.add(IAcquire(r))
                out.add(IRelease(r))
                walk(body)
            case IfC(_, a, b):
                walk(a)
                walk(b)
            case While(_, body):
                walk(body)
            case _:
                raise TypeError(node)

    walk(c)
    return tuple(sorted(out, key=instr_to_text))


def all_machine_states(u: Universe) -> tuple:
    """Every machine state over the universe (exhaustive environments only)."""
    var_opts = [[None] + [(x, v) for v in u.values] for x in u.variables]
    loc_opts = [[None] + [(l, v) for v in u.values] for l in u.locations]
    lock_opts = []
    for k in range(len(u.locks) + 1):
        lock_opts.extend(itertools.combinations(sorted(u.locks), k))
    out = []
    for vs in itertools.product(*var_opts):
        stack = fmap({x: v for item in vs if item is not None for x, v in [item]})
        for ls in itertools.product(*loc_opts):
            heap = fmap({l: v for item in ls if item is not None for l, v in [item]})
            mu = MemoryState(stack, heap)
            for locks in lock_opts:
                out.append(MachineState(mu, frozenset(locks)))
    return tuple(sorted(out, key=mstate_to_text))


def env_successors(state: MachineState, policy: str, env: tuple) -> tuple:
    """The states the environment may move to from `state`; `env` is the
    policy's environment resolved once per enumeration: every machine state
    (exhaustive) or the move list as machine-state pairs (move-list)."""
    if policy == "passive":
        return (state,)
    if policy == "exhaustive":
        return env
    if policy == "move-list":
        listed = tuple(post for pre, post in env if pre == state)
        return (state,) + tuple(s for s in listed if s != state)
    raise ValueError(f"unknown env policy {policy!r}")


def enumerate_traces(c, inits, u: Universe, maxlen=None, policy=None,
                     max_traces=None):
    """All traces of the command's denotation from the given initial states,
    under the universe's environment policy.

    Yields (trace, returns, witness) in a fixed order.  Exceeding max_traces
    raises EnumerationBudget rather than truncating silently.
    """
    sys = denote(c, u)
    maxlen = u.maxlen if maxlen is None else maxlen
    policy = policy or u.env_policy
    env = (all_machine_states(u) if policy == "exhaustive"
           else resolve_env_moves(u) if policy == "move-list" else ())
    alphabet = instruction_alphabet(c)
    yielded = 0

    def candidates(cur):
        for m in alphabet:
            for out in sorted(machine_step(cur, m, u),
                              key=lambda o: "" if o is ERROR
                              else mstate_to_text(o.state)):
                if out is ERROR:
                    yield CodeTransition(cur, m, cur, ERR)
                else:
                    yield CodeTransition(cur, m, out.state, OK)
        yield CodeTransition(cur, INop(), cur, ERR)

    def walk(source, steps, cur):
        nonlocal yielded
        t = Trace(source, steps, cur)
        v, w = sys.member(t)
        if v == NOTIN:
            return
        if max_traces is not None and yielded >= max_traces:
            raise EnumerationBudget(f"more than {max_traces} traces")
        yielded += 1
        yield t, v == RETURNS, w
        if len(steps) >= maxlen or t.errored:
            return
        for step in candidates(cur):
            for nxt in env_successors(step.post, policy, env):
                yield from walk(source, steps + (step,), nxt)

    for s0 in sorted(inits, key=mstate_to_text):
        for c0 in env_successors(s0, policy, env):
            yield from walk(s0, (), c0)
