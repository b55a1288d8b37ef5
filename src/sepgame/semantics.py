"""Transition systems as incremental trace recognizers, and trace enumeration.

A system reads a trace from left to right: start(source) gives a residual,
step(residual, transition) the residual after one more code step, or None
when no trace with these steps is a member, and answer(residual, target) the
answer (verdict, witness or None) on the trace ending at target, with three
verdicts: NOTIN, IN (running) and RETURNS (finished successfully).  member(t)
folds step over the steps of t; enumerate_traces carries the residual down
its walk, reading each candidate step once and skipping every extension of a
step that left no residual.  Returning is not final: a returning trace may
extend to members.

A residual holds the live alternatives of the defining set equation (split
points, shuffles, pre-images) in witness preference order: the first that
returns wins, else the first that is in.  A witness drives strategy
extraction and nests its children's answers, so no consumer asks a child
again.  The module keeps no state between calls.

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

from .machine import (ABORT, ERROR, IAcquire, INop, IRelease, MachineState,
                      MemoryState, Return, eval_bool, instr_to_text,
                      machine_step, mstate_to_text, resolve_env_moves)
from .maps import Node, fmap
from .syntax import (AllocC, Assign, DisposeC, IfC, Load, ParC, ResourceC,
                     SeqC, Skip, Store, Universe, While, WithWhen, subterms)
from .traces import CodeTransition, ERR, OK, Trace, shuffles

NOTIN, IN, RETURNS = 0, 1, 2


class EnumerationBudget(Exception):
    """Raised when an enumeration exceeds its explicit budget."""


# --- membership witnesses -------------------------------------------------------
# Fields other than k, mid, shuffle, preimage and value hold a child's answer.

class AtomW(Node):
    pass

class SeqLeftW(Node):
    inner: object

class SeqSplitW(Node):
    k: int
    mid: MachineState
    left: object
    right: object

class ParW(Node):
    shuffle: object
    left: object
    right: object

class HideW(Node):
    preimage: Trace
    inner: object

class GuardW(Node):
    value: object    # the test's value at the first step; None before it
    rest: object     # the continuation's answer after the test step, or None


# --- transition systems -----------------------------------------------------------

def _prefer(answers):
    """The first returning answer, else the first that is in, else NOTIN."""
    best = (NOTIN, None)
    for a in answers:
        if a[0] == RETURNS:
            return a
        if a[0] == IN and best[0] == NOTIN:
            best = a
    return best


class _System:
    def start(self, source):
        return ()

    def member(self, t):
        r = self.start(t.source)
        for st in t.steps:
            r = self.step(r, st)
            if r is None:
                return (NOTIN, None)
        return self.answer(r, t.target)


class AtomTS(_System):
    """Traces executing a single instruction, plus their length-0 prefixes,
    which may end where the instruction is blocked.  The residual is () before
    the step and (the one-step trace's verdict,) after it."""

    def __init__(self, instr, u: Universe):
        self.instr = instr
        self.u = u

    def step(self, r, st):
        if r or st.instr != self.instr:
            return None
        outs = machine_step(st.pre, self.instr, self.u)
        if st.status == OK and Return(st.post) in outs:
            return (RETURNS,)
        return (IN,) if st.status == ERR and ERROR in outs else None

    def answer(self, r, target):
        return (r[0] if r else IN, AtomW())


class SeqTS(_System):
    """The residual is (steps read, first's residual or None, splits).  A split
    (k, mid, first's answer, second's residual) opens at each k where first
    returns, mid being step k's pre-state or the target (environment edges
    are total)."""

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def start(self, source):
        return (0, self.first.start(source), ())

    def step(self, r, st):
        n, left, splits = r
        if left is not None:
            a1 = self.first.answer(left, st.pre)
            if a1[0] == RETURNS:
                splits += ((n, st.pre, a1, self.second.start(st.pre)),)
            left = self.first.step(left, st)
        splits = tuple((k, mid, a1, nxt) for k, mid, a1, right in splits
                       for nxt in (self.second.step(right, st),) if nxt is not None)
        return (n + 1, left, splits) if left is not None or splits else None

    def answer(self, r, target):
        n, left, splits = r
        a1 = (NOTIN, None) if left is None else self.first.answer(left, target)
        if a1[0] == RETURNS:
            splits += ((n, target, a1, self.second.start(target)),)
        best = _prefer((a2[0], SeqSplitW(k, mid, b1, a2)) for k, mid, b1, right in splits
                       for a2 in (self.second.answer(right, target),))
        return (IN, SeqLeftW(a1)) if best[0] != RETURNS and a1[0] != NOTIN else best


class ParTS(_System):
    """The residual maps the shuffle tags of each live interleaving to the
    pair of its threads' residuals; answers come in the order of `shuffles`."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def start(self, source):
        return {(): (self.left.start(source), self.right.start(source))}

    def step(self, r, st):
        live = {tags + (1,): (n1, r2) for tags, (r1, r2) in r.items()
                for n1 in (self.left.step(r1, st),) if n1 is not None}
        live.update({tags + (2,): (r1, n2) for tags, (r1, r2) in r.items()
                     for n2 in (self.right.step(r2, st),) if n2 is not None})
        return live or None

    def answer(self, r, target):
        n = len(next(iter(r)))
        return _prefer((min(a1[0], a2[0]), ParW(omega, a1, a2))
                       for p in range(n + 1) for omega in shuffles(p, n - p)
                       if omega.tags in r
                       for a1 in (self.left.answer(r[omega.tags][0], target),)
                       if a1[0] != NOTIN
                       for a2 in (self.right.answer(r[omega.tags][1], target),))


class GuardTS(_System):
    """A guarded command: the test's value at the pre-state of the first step
    picks an arm (first instruction, continuation or None) from `arms`.

    A length-0 trace is in, since a thread waiting on a false test has run
    nothing.  A test that aborts has one trace more: a single error step
    labelled nop.  Otherwise the first step is the arm's instruction,
    stepping ok; without a continuation the one-step trace returns, and with
    one the rest of the trace takes the continuation's answer, a one-step
    trace being in.  A loop is the guard whose True arm continues into the
    guard itself: each unfolding consumes a step, so recursion ends.  The
    residual is () before the test step, then (value, the continuation's
    residual, or None until its first step).
    """

    def __init__(self, cond, arms: dict, u: Universe):
        self.cond = cond
        self.arms = arms
        self.u = u

    def step(self, r, st):
        if r:
            value, rest = r
            cont = self.arms.get(value, (None, None))[1]
            rest = None if cont is None else cont.step(
                cont.start(st.pre) if rest is None else rest, st)
            return None if rest is None else (value, rest)
        value = eval_bool(self.cond, st.pre.memory)
        if value is ABORT:
            return (ABORT, None) if st.status == ERR and st.instr == INop() else None
        instr = self.arms.get(value, (None, None))[0]
        if (st.instr == instr and st.status == OK
                and Return(st.post) in machine_step(st.pre, instr, self.u)):
            return (value, None)
        return None

    def answer(self, r, target):
        if not r:
            return (IN, GuardW(None, None))
        value, rest = r
        cont = self.arms.get(value, (None, None))[1]
        if rest is None:
            return (IN if cont or value is ABORT else RETURNS, GuardW(value, None))
        a = cont.answer(rest, target)
        return (a[0], GuardW(value, a)) if a[0] != NOTIN else (NOTIN, None)


class HideTS(_System):
    """Pre-images under lock hiding.

    The hidden lock belongs to the code: only the body's own acquire and
    release move it (Brookes, TCS 2007).  So a pre-image is well-bracketed:
    the lock is free at the source, an ok nop step may instead be an acquire
    of it while it is free or a release while it is held, and every other
    step, every environment gap and the target keep it as it was.  At each
    step the plain nop comes first.  The residual is the source and the live
    pre-images in that order: (held, pre-image steps, the body's residual).
    """

    def __init__(self, lock, inner):
        self.lock = lock
        self.inner = inner

    def _add(self, s, held):
        return s.with_locked(s.locked | {self.lock}) if held else s

    def start(self, source):
        free = self.lock not in source.locked
        return (source, ((False, (), self.inner.start(source)),) if free else ())

    def step(self, r, st):
        source, alts = r
        if self.lock in st.pre.locked or self.lock in st.post.locked:
            return None
        live = []
        for held, steps, r1 in alts:
            options = [(st.instr, held)]
            if st.status == OK and isinstance(st.instr, INop):
                options.append((IRelease(self.lock), False) if held
                               else (IAcquire(self.lock), True))
            for instr, after in options:
                image = CodeTransition(self._add(st.pre, held), instr,
                                       self._add(st.post, after), st.status)
                nxt = self.inner.step(r1, image)
                if nxt is not None:
                    live.append((after, steps + (image,), nxt))
        return (source, tuple(live)) if live else None

    def answer(self, r, target):
        source, alts = r
        if self.lock in target.locked:
            return (NOTIN, None)
        return _prefer((a[0], HideW(Trace(source, steps, end), a))
                       for held, steps, r1 in alts for end in (self._add(target, held),)
                       for a in (self.inner.answer(r1, end),))


# --- denotation --------------------------------------------------------------------

def denote(c, u: Universe):
    """The transition system of a command.  The recursion stays inside, so a
    wrapper around `denote` sees one call per system built, not one per
    sub-command (bench/tracer.py counts membership tests on what it returns,
    through a wrapper that offers only `member`; enumerate_traces builds
    through `_system`, which that wrapper leaves alone)."""

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


_system = denote


def instruction_alphabet(c) -> tuple:
    """The instructions that can label steps of the command's traces."""
    out = {INop()}
    for node in subterms(c):
        if isinstance(node, (Assign, Load, Store, AllocC, DisposeC)):
            out.add(node)
        elif isinstance(node, WithWhen):
            out |= {IAcquire(node.lock), IRelease(node.lock)}
    return tuple(sorted(out, key=instr_to_text))


def all_machine_states(u: Universe) -> tuple:
    """Every machine state over the universe (exhaustive environments only)."""
    def maps(keys):
        return [fmap(item for item in items if item) for items in itertools.product(
            *([None] + [(k, v) for v in u.values] for k in keys))]
    locks = [frozenset(c) for k in range(len(u.locks) + 1)
             for c in itertools.combinations(sorted(u.locks), k)]
    return tuple(sorted((MachineState(MemoryState(stack, heap), held)
                         for stack in maps(u.variables) for heap in maps(u.locations)
                         for held in locks), key=mstate_to_text))


def env_successors(state: MachineState, policy: str, env: tuple) -> tuple:
    """The states the environment may move to from `state`; `env` is the
    policy's environment resolved once per enumeration: every machine state
    (exhaustive) or the move list as machine-state pairs (move-list)."""
    if policy == "passive":
        return (state,)
    if policy == "exhaustive":
        return env
    if policy == "move-list":
        return (state,) + tuple(post for pre, post in env if pre == state != post)
    raise ValueError(f"unknown env policy {policy!r}")


def enumerate_traces(c, inits, u: Universe, maxlen=None, policy=None,
                     max_traces=None):
    """All traces of the command's denotation from the given initial states,
    under the universe's environment policy.

    Yields (trace, returns, witness) in a fixed order.  Exceeding max_traces
    raises EnumerationBudget rather than truncating silently.
    """
    sys = _system(c, u)
    maxlen = u.maxlen if maxlen is None else maxlen
    policy = policy or u.env_policy
    env = (all_machine_states(u) if policy == "exhaustive"
           else resolve_env_moves(u) if policy == "move-list" else ())
    alphabet = instruction_alphabet(c)
    yielded = 0
    memo = {}

    def candidates(cur):
        if cur not in memo:
            memo[cur] = [CodeTransition(cur, m, cur, ERR) if out is ERROR
                         else CodeTransition(cur, m, out.state, OK)
                         for m in alphabet
                         for out in sorted(machine_step(cur, m, u),
                                           key=lambda o: "" if o is ERROR
                                           else mstate_to_text(o.state))
                         ] + [CodeTransition(cur, INop(), cur, ERR)]
        return memo[cur]

    def walk(source, steps, cur, r):
        nonlocal yielded
        v, w = sys.answer(r, cur)
        if v == NOTIN:
            return
        if max_traces is not None and yielded >= max_traces:
            raise EnumerationBudget(f"more than {max_traces} traces")
        yielded += 1
        t = Trace(source, steps, cur)
        yield t, v == RETURNS, w
        if len(steps) >= maxlen or t.errored:
            return
        for step in candidates(cur):
            nxt = sys.step(r, step)
            if nxt is not None:
                for c1 in env_successors(step.post, policy, env):
                    yield from walk(source, steps + (step,), c1, nxt)

    for s0 in sorted(inits, key=mstate_to_text):
        for c0 in env_successors(s0, policy, env):
            yield from walk(s0, (), c0, sys.start(s0))
