"""The trace algebra the tests check the semantics against: sequential
composition, parallel composition by shuffles and lock hiding.  The package
enumerates traces directly and uses none of them."""

from sepgame.machine import INop, IAcquire, IRelease, MachineState
from sepgame.traces import ERR, CodeTransition, Trace, TraceError, shuffles


def seq_compose(t1: Trace, t2: Trace) -> Trace:
    if t1.target != t2.source:
        raise TraceError("sequential composition needs matching endpoints")
    if t1.errored and t2.steps:
        raise TraceError("no steps may follow an error step")
    return Trace(t1.source, t1.steps + t2.steps, t2.target)


def par_compose_by_shuffle(t1: Trace, t2: Trace) -> dict:
    """Interleavings of two coinitial, cofinal traces, keyed by shuffle.

    Interleavings that would put a step after an error step are not traces
    and are skipped.
    """
    out = {}
    if t1.source != t2.source or t1.target != t2.target:
        return out
    for omega in shuffles(len(t1), len(t2)):
        steps = []
        i = j = 0
        for tag in omega.tags:
            if tag == 1:
                steps.append(t1.steps[i])
                i += 1
            else:
                steps.append(t2.steps[j])
                j += 1
        if any(st.status == ERR for st in steps[:-1]):
            continue
        out[omega] = Trace(t1.source, tuple(steps), t1.target)
    return out


def par_compose(t1: Trace, t2: Trace) -> frozenset:
    return frozenset(par_compose_by_shuffle(t1, t2).values())


def hide_state(r: str, s: MachineState) -> MachineState:
    return s.with_locked(s.locked - {r})


def hide(r: str, t: Trace) -> Trace:
    steps = []
    for st in t.steps:
        instr = st.instr
        if isinstance(instr, (IAcquire, IRelease)) and instr.lock == r:
            instr = INop()
        steps.append(CodeTransition(hide_state(r, st.pre), instr,
                                    hide_state(r, st.post), st.status))
    return Trace(hide_state(r, t.source), tuple(steps), hide_state(r, t.target))
