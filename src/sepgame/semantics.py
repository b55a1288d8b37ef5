"""Transition systems as trace recognizers and enumerators.

Each combinator decides membership of a trace by the defining set equation and
produces a witness explaining how the trace was recognized; witnesses drive
strategy extraction later.  Every system's member(t) returns (verdict, witness
or None), with three verdicts: NOTIN, IN (running) and RETURNS (finished
successfully).

Membership is a pure function of the system and the trace, recomputed on every
call and never stored: a combinator's witness nests the witnesses its children
answered for the sub-traces it asked about, and the module keeps no state
between calls.
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
class GateW:
    inner: object

@dataclass(frozen=True)
class AbortW:
    pass

@dataclass(frozen=True)
class BranchW:
    index: int
    inner: object


# --- transition systems -----------------------------------------------------------

class AtomTS:
    """Traces executing a single instruction, plus their length-0 prefixes."""

    def __init__(self, instr, u: Universe):
        self.instr = instr
        self.u = u

    def member(self, t):
        if len(t) == 0:
            outs = machine_step(t.target, self.instr, self.u)
            return (IN, AtomW()) if outs else (NOTIN, None)
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
            v1, w1 = self.first.member(t1)
            if v1 != RETURNS:
                continue
            v2, w2 = self.second.member(t2)
            if v2 == RETURNS:
                return (RETURNS, SeqSplitW(k, mid, w1, w2))
            if v2 == IN and best[0] == NOTIN:
                best = (IN, SeqSplitW(k, mid, w1, w2))
        v1, w1 = self.first.member(t)
        if v1 != NOTIN:
            return (IN, SeqLeftW(w1))
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
                v1, w1 = self.left.member(t1)
                if v1 == NOTIN:
                    continue
                v2, w2 = self.right.member(t2)
                if v2 == NOTIN:
                    continue
                if v1 == RETURNS and v2 == RETURNS:
                    return (RETURNS, ParW(omega, w1, w2))
                if best[0] == NOTIN:
                    best = (IN, ParW(omega, w1, w2))
        return best


class WhenTS:
    """Gate a system on the boolean value at the first code-visible state."""

    def __init__(self, cond, want: bool, inner):
        self.cond = cond
        self.want = want
        self.inner = inner

    def member(self, t):
        state = t.steps[0].pre if t.steps else t.target
        if eval_bool(self.cond, state.memory) is not self.want:
            return (NOTIN, None)
        v, w = self.inner.member(t)
        return (v, GateW(w)) if v != NOTIN else (NOTIN, None)


class WhenAbortTS:
    """The dedicated system for a failing boolean test: a single non-returning
    error step labelled nop at a state where the test aborts."""

    def __init__(self, cond):
        self.cond = cond

    def member(self, t):
        if len(t) == 0:
            if eval_bool(self.cond, t.target.memory) is ABORT:
                return (IN, AbortW())
            return (NOTIN, None)
        if len(t) == 1:
            st = t.steps[0]
            if (st.status == ERR and isinstance(st.instr, INop)
                    and eval_bool(self.cond, st.pre.memory) is ABORT):
                return (IN, AbortW())
        return (NOTIN, None)


class UnionTS:
    def __init__(self, branches):
        self.branches = tuple(branches)

    def member(self, t):
        best = (NOTIN, None)
        for i, sys in enumerate(self.branches):
            v, w = sys.member(t)
            if v == RETURNS:
                return (RETURNS, BranchW(i, w))
            if v == IN and best[0] == NOTIN:
                best = (IN, BranchW(i, w))
        return best


class WhileTS:
    """Least fixpoint of the loop functional, computed exactly on finite traces:
    each unfolding consumes the branch-test nop, so recursion strictly shortens
    the trace."""

    def __init__(self, cond, body, u: Universe):
        self.cond = cond
        self.body = body
        self.u = u
        nop = AtomTS(INop(), u)
        self.unfolding = UnionTS((
            SeqTS(WhenTS(cond, True, nop), SeqTS(body, self)),
            WhenTS(cond, False, nop),
            WhenAbortTS(cond),
        ))

    def member(self, t):
        return self.unfolding.member(t)


class HideTS:
    """Pre-image search under lock hiding.

    For every state slot the search decides whether the hidden lock is held,
    and every ok nop step may have been an acquire or a release of it.  Slots
    prefer continuity with the previous slot, which makes the first witness
    the well-bracketed one.
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
            v, w = self.inner.member(cand)
            if v == RETURNS:
                return (RETURNS, HideW(cand, w))
            if v == IN and best[0] == NOTIN:
                best = (IN, HideW(cand, w))
        return best

    def _preimages(self, t):
        r = self.lock

        def add(s, held):
            return s.with_locked(s.locked | {r}) if held else s

        def step_options(st, prev):
            if st.status == OK and isinstance(st.instr, INop):
                free = [(st.pre, INop(), st.post, OK),
                        (st.pre, IAcquire(r), add(st.post, True), OK)]
                held = [(add(st.pre, True), INop(), add(st.post, True), OK),
                        (add(st.pre, True), IRelease(r), st.post, OK)]
                return held + free if prev else free + held
            # any other instruction keeps its label; its lock footprint does
            # not involve r, so pre and post agree on r
            return [(add(st.pre, h), st.instr, add(st.post, h), st.status)
                    for h in (prev, not prev)]

        def gen(k, prev, acc):
            if k == len(t.steps):
                for held in (prev, not prev):
                    yield tuple(acc), add(t.target, held)
                return
            for pre, instr, post, status in step_options(t.steps[k], prev):
                acc.append(CodeTransition(pre, instr, post, status))
                yield from gen(k + 1, r in post.locked, acc)
                acc.pop()

        for src_held in (False, True):
            source = add(t.source, src_held)
            for steps, target in gen(0, src_held, []):
                yield Trace(source, steps, target)


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
                inside = SeqTS(AtomTS(IAcquire(r), u),
                               SeqTS(ts(body), AtomTS(IRelease(r), u)))
                return UnionTS((WhenTS(b, True, inside), WhenAbortTS(b)))
            case IfC(b, then, orelse):
                nop = lambda: AtomTS(INop(), u)
                return UnionTS((SeqTS(WhenTS(b, True, nop()), ts(then)),
                                SeqTS(WhenTS(b, False, nop()), ts(orelse)),
                                WhenAbortTS(b)))
            case While(b, body):
                return WhileTS(b, ts(body), u)
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
