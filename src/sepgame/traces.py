"""Execution traces, their restriction along an increasing map and the
shuffles that interleave two of them (the rest of the trace algebra, the
oracle the semantics is tested against, is in tests/trace_algebra.py).

A trace stores its source, its code transitions and its target; environment
transitions are implicit because the environment may move between any two
machine states.  An error step, when present, is always the last step and
keeps its pre-state as post-state.

Each code transition keeps its rendered `step` line, and each machine state
its text, so printing the traces that share them renders each once.
"""

from __future__ import annotations

import itertools

from .machine import MachineState, instr_to_text, mstate_to_text
from .maps import Node

OK = "ok"
ERR = "err"


class TraceError(Exception):
    pass


class CodeTransition(Node):
    """Keeps its `step ...` line (`step_to_text`) the way a machine state
    keeps its text."""
    __slots__ = ("text",)
    pre: MachineState
    instr: object
    post: MachineState
    status: str = OK

    def __post_init__(self):
        if self.status not in (OK, ERR):
            raise TraceError(f"bad status {self.status!r}")
        if self.status == ERR and self.post != self.pre:
            raise TraceError("an error step keeps its pre-state")


class Trace(Node):
    source: MachineState
    steps: tuple
    target: MachineState

    def __post_init__(self):
        for k, st in enumerate(self.steps):
            if st.status == ERR and k != len(self.steps) - 1:
                raise TraceError("an error step must be the last step")

    def __len__(self):
        return len(self.steps)

    @property
    def errored(self) -> bool:
        return bool(self.steps) and self.steps[-1].status == ERR


# --- algebra -------------------------------------------------------------------

def restrict(f, t: Trace) -> Trace:
    """Restriction along an increasing map, given as a sequence of indices (1-based)."""
    f = tuple(f)
    for a, b in zip(f, f[1:]):
        if a >= b:
            raise TraceError("restriction map must be increasing")
    steps = []
    for k in f:
        if not (1 <= k <= len(t.steps)):
            raise TraceError(f"restriction index {k} out of range")
        steps.append(t.steps[k - 1])
    return Trace(t.source, tuple(steps), t.target)


class Shuffle(Node):
    """A monotone bijection {1..p} + {1..q} -> {1..p+q}, stored as fiber tags."""
    tags: tuple   # each tag is 1 or 2

    def left_positions(self) -> tuple:
        return tuple(i + 1 for i, t in enumerate(self.tags) if t == 1)

    def right_positions(self) -> tuple:
        return tuple(i + 1 for i, t in enumerate(self.tags) if t == 2)


def shuffles(p: int, q: int) -> tuple:
    """All C(p+q, p) shuffles, in a fixed order."""
    out = []
    for left in itertools.combinations(range(p + q), p):
        tags = [2] * (p + q)
        for i in left:
            tags[i] = 1
        out.append(Shuffle(tuple(tags)))
    return tuple(out)


# --- line-oriented serialization -------------------------------------------------

def step_to_text(st: CodeTransition) -> str:
    """Rendered once per code transition; the transition keeps the line."""
    try:
        return st.text
    except AttributeError:
        text = (f"step {st.status} {mstate_to_text(st.pre)} ; "
                f"{instr_to_text(st.instr)} ; {mstate_to_text(st.post)}")
        object.__setattr__(st, "text", text)
        return text


def trace_to_lines(t: Trace) -> list:
    lines = [f"source {mstate_to_text(t.source)}"]
    lines.extend(map(step_to_text, t.steps))
    lines.append(f"target {mstate_to_text(t.target)}")
    return lines
