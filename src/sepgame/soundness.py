"""Strategy extraction: a checked derivation tree turned into a winning
strategy for the separation game of any trace of its program.

Every rule becomes a lifter that translates moves between the parent's view
of the separated state and its premises' views:

  * axioms update the code fragment by the instruction's footprint;
  * par splits the code fragment once at the start and routes each step
    through the witness's shuffle, the idle sibling acting as extra frame;
    frame is the same ParLifter with one premise taking every step, its
    framed fragment a sibling that never moves;
  * res replays the child on the hide pre-image from the witness, keeping the
    bound resource's content virtually inside the code fragment so the
    projected moves are identities on the visible state; the semantics only
    offers well-bracketed pre-images, so the virtual resource is locked
    exactly while the child holds it;
  * seq, if, while and with are one GuardLifter, which cuts the trace into
    segments at the witness's split points and hands each segment to its
    premise, started on the segment's first step: seq's left premise, then
    its right premise once the left has returned; a guard's test value
    picks the premise (the arm of if, the body of while and with, lifted
    once per unfolding); the guard's own steps move by their instruction:
    the test nop is an identity, with's acquire absorbs the resource's
    content and its release splits off a fragment satisfying the invariant
    (smallest candidate first);
  * conj plays its first premise and audits the second's claims, raising an
    alarm on divergence;
  * consequence changes no move, so its premise lifts in its place.
Code fragments are universe-table indices (see `separation`).

Membership is decided once, for the root: a lifter takes its trace's answer
(verdict and witness) from its parent, which reads it off its own witness,
and frame, conj and consequence hand their own answer to their premise.

All choice points are resolved by deterministic search in enumeration order.
A failed search raises ExtractionFailure naming the rule node; an
inconsistent reconstruction raises SoundnessAlarm.  Eve has no move at a
code step that errs, a trace's last step: `ExtractedStrategy.respond` says
so without asking a lifter, and every `eve` returns a move.  The
corollary's one walk, `judged_traces`, checks the strategy extracted on
every trace that does not err.
"""

from __future__ import annotations

from . import game as game_layer
from .game import CheckResult, replay_lines, winning_spec
from .logic import (TOP, erase, first_split, from_slots, lstate_to_text, satisfies,
                    slots, universe_table)
from .machine import ABORT, IAcquire, IRelease, MachineState, eval_expr
from .maps import fmap
from .proof import ProofCheckResult
from .semantics import (HideW, NOTIN, ParW, RETURNS, SeqLeftW, SeqSplitW,
                        denote, enumerate_traces)
from .separation import (Available, HELD_BY_CODE, HELD_BY_FRAME,
                         SeparatedState, SeparationError, join)
from .syntax import FTrue, Star, Universe, formula_to_text
from .traces import Trace, restrict


class ExtractionFailure(Exception):
    def __init__(self, path, rule, reason):
        self.path, self.rule, self.reason = path, rule, reason
        super().__init__(f"{path} ({rule}): {reason}")


class SoundnessAlarm(Exception):
    """The reconstructed lifting broke one of its own invariants."""


class _Lifter:
    """One proof node driving one (sub)trace."""

    def __init__(self, node, path, t: Trace, u: Universe, rho: fmap, answer):
        self.node = node
        self.path = path
        self.t = t
        self.u = u
        self.rho = rho
        self.table = universe_table(u)
        self.answer = answer
        self.returning = answer[0] == RETURNS
        self.witness = answer[1]
        self._setup()

    def _setup(self):
        pass

    def _fail(self, reason):
        raise ExtractionFailure(self.path, self.node.tag, reason)

    def _join(self, a: int, b: int, reason):
        merged = join(self.table, a, b)
        if merged is None:
            raise SoundnessAlarm(f"{self.path}: {reason}")
        return merged

    def _child(self, index, t, answer):
        node = self.node.children[index]
        return build_lifter(node, f"{self.path}.{index}", t, self.u, self.rho,
                            answer)

    def _first_split(self, code, fa, fb, reason):
        """The first split (a, b) of the code fragment with a satisfying fa
        and b satisfying fb."""
        found = first_split(code, fa, fb, self.rho, self.u)
        if found is None:
            self._fail(reason)
        return found

    def start(self, code: int):
        raise NotImplementedError

    def eve(self, residue, k, code, resources):
        """Lift code step k, which does not err; returns (code', resource
        updates, residue')."""
        raise NotImplementedError


class AtomLifter(_Lifter):
    def start(self, code):
        return ()

    def _owned_cell(self, e, code, what):
        sigma = self.table.state(code)
        loc = eval_expr(e, erase(sigma))
        if loc is ABORT:
            raise SoundnessAlarm(
                f"{self.path}: footprint expression not covered by the code fragment")
        if loc not in sigma.heap:
            raise SoundnessAlarm(f"{self.path}: {what} cell not owned")
        return loc

    def _put(self, code: int, kind, key, value=None) -> int:
        """The code with cell (kind, key) held whole at value, or dropped."""
        table, cell = self.table, (kind, key)
        part = None if value is None else table.parts.get((kind, key, value))
        if code < len(table.states) and cell in table.cells and (value is None or part):
            w = table.weights[table.cells.index(cell)]
            return code - code // w % table.radix * w + (part[-1] if part else 0)
        cells = {(c_kind, c_key): (v, p) for c_kind, c_key, v, p in slots(table.state(code))}
        cells.pop(cell, None)
        if value is not None:
            cells[cell] = (value, TOP)
        return table.intern(from_slots([(*c, v, p) for c, (v, p) in cells.items()]))

    def eve(self, residue, k, code, resources):
        post = self.t.steps[0].post.memory
        cmd = self.node.cmd
        tag = self.node.tag
        if tag in ("aff", "load"):
            new_code = self._put(code, "s", cmd.var, post.stack[cmd.var])
        elif tag == "store":
            loc = self._owned_cell(cmd.addr, code, "stored")
            new_code = self._put(code, "h", loc, post.heap[loc])
        elif tag == "ext_alloc":
            loc = post.stack[cmd.var]
            new_code = self._put(self._put(code, "s", cmd.var, loc), "h", loc, post.heap[loc])
        elif tag == "ext_dispose":
            new_code = self._put(code, "h", self._owned_cell(cmd.addr, code, "disposed"))
        else:       # ext_skip: `_LIFTERS` gives this class no other axiom
            new_code = code
        return new_code, {}, ()


class ParLifter(_Lifter):
    """par and frame: the code fragment is split once at the start into one
    part per premise, and each step moves the part the witness's shuffle
    routes it to.  frame has one premise and routes every step to it; its
    second part is the framed fragment, which no step moves."""

    def _setup(self):
        if self.node.tag == "frame":
            self.route = (1,) * len(self.t)
            self.lifters = (self._child(0, self.t, self.answer),)
            self.pres = (self.node.children[0].pre, self.node.params["R"])
            self.no_split = "no split of the code fragment matches P * R"
            self.apart = "framed fragment no longer composes"
            return
        w = self.witness
        if not isinstance(w, ParW):
            self._fail(f"unexpected witness {type(w).__name__}")
        self.route = w.shuffle.tags
        t1 = restrict(w.shuffle.left_positions(), self.t)
        t2 = restrict(w.shuffle.right_positions(), self.t)
        self.lifters = (self._child(0, t1, w.left), self._child(1, t2, w.right))
        self.pres = (self.node.children[0].pre, self.node.children[1].pre)
        self.no_split = "no split of the code fragment satisfies both preconditions"
        self.apart = "parallel components no longer compose"

    def start(self, code):
        parts = self._first_split(code, *self.pres, self.no_split)
        return (*parts, *(lifter.start(part)
                          for lifter, part in zip(self.lifters, parts)))

    def eve(self, residue, k, code, resources):
        tag = self.route[k - 1]
        local = sum(1 for x in self.route[:k] if x == tag)
        side = tag - 1       # shuffle tags are 1 (left) and 2 (right)
        parts, inners = list(residue[:2]), list(residue[2:])
        parts[side], updates, inners[side] = self.lifters[side].eve(
            inners[side], local, parts[side], resources)
        return self._join(*parts, self.apart), updates, (*parts, *inners)


class ConjLifter(_Lifter):
    def _setup(self):
        self.inner = self._child(0, self.t, self.answer)
        self.audit_pre = self.node.children[1].pre
        self.audit_post = self.node.children[1].post

    def start(self, code):
        if not self.table.holds(code, self.audit_pre, self.rho):
            raise SoundnessAlarm(
                f"{self.path}: conj audit failed on the second precondition")
        return (self.inner.start(code),)

    def eve(self, residue, k, code, resources):
        code2, updates, inner2 = self.inner.eve(residue[0], k, code, resources)
        if self.returning and k == len(self.t) and \
                not self.table.holds(code2, self.audit_post, self.rho):
            raise SoundnessAlarm(
                f"{self.path}: conj audit failed on the second postcondition")
        return code2, updates, (inner2,)


class ResLifter(_Lifter):
    def _setup(self):
        w = self.witness
        if not isinstance(w, HideW):
            self._fail(f"unexpected witness {type(w).__name__}")
        self.r = self.node.params["r"]
        self.inv = self.node.params["inv"]
        self.inner = self._child(0, w.preimage, w.inner)

    def start(self, code):
        j, a = self._first_split(code, self.inv, self.node.children[0].pre,
                                 "no split of the code fragment matches P * J")
        return (Available(j), a, self.inner.start(a))

    def eve(self, residue, k, code, resources):
        virt, a, r1 = residue
        a2, updates, r1b = self.inner.eve(r1, k, a, resources.set(self.r, virt))
        updates = dict(updates)
        if self.r in updates:
            virt = updates.pop(self.r)
            if virt == HELD_BY_FRAME:
                raise SoundnessAlarm(f"{self.path}: virtual resource went to the frame")
        if isinstance(virt, Available):
            merged = self._join(a2, virt.state,
                                "virtual resource content no longer composes")
        else:
            merged = a2
        return merged, updates, (virt, a2, r1b)


class GuardLifter(_Lifter):
    """seq, if, while and with: the witness unfolded into segments (premise
    lifter or None, length).  seq has the left premise's run, then the right
    premise's once the left has returned.  Each unfolding of a guard has the
    guard's own step, then the premise's run (if: the arm the test's value
    picks; while and with: the body part of the continuation), then with's
    release or while's next unfolding.  A premise starts on the first step
    of its segment; a step without a premise moves as its instruction says."""

    def _setup(self):
        self.segments = []
        w, t = self.witness, self.t
        if self.node.tag == "seq":
            t1, a1, t2, a2 = self._seq_parts(w, t)
            self.segments.append((self._child(0, t1, a1), len(t1)))
            if t2 is not None:
                self.segments.append((self._child(1, t2, a2), len(t2)))
            return
        while w.value is not None:
            self.segments.append((None, 1))
            if w.rest is None:
                return
            rest_t = Trace(t.steps[1].pre, t.steps[1:], t.target)
            if self.node.tag == "if":
                self.segments.append(
                    (self._child(0 if w.value else 1, rest_t, w.rest), len(rest_t)))
                return
            body_t, body, t, after = self._seq_parts(w.rest[1], rest_t)
            self.segments.append((self._child(0, body_t, body), len(body_t)))
            if t is None:
                return
            if self.node.tag == "with":
                self.segments.append((None, 1))
                return
            w = after[1]

    def _seq_parts(self, w, t: Trace):
        """Decode the witness of a sequential composition on t into the first
        command's sub-trace and answer and the second's; the last two are None
        while the first command has not returned."""
        if isinstance(w, SeqSplitW):
            return (Trace(t.source, t.steps[:w.k], w.mid), w.left,
                    Trace(w.mid, t.steps[w.k:], t.target), w.right)
        if isinstance(w, SeqLeftW):
            return t, w.inner, None, None
        self._fail(f"unexpected witness {type(w).__name__}")

    def start(self, code):
        return (None, None)     # no segment yet: the first step starts one

    def eve(self, residue, k, code, resources):
        seg_idx, inner = residue
        offset = k
        for idx, (lifter, length) in enumerate(self.segments):
            if offset <= length:
                break
            offset -= length
        if lifter is None:
            return self._own_step(self.t.steps[k - 1].instr, idx, code, resources)
        if idx != seg_idx:
            inner = lifter.start(code)
        code2, updates, inner2 = lifter.eve(inner, offset, code, resources)
        return code2, updates, (idx, inner2)

    def _own_step(self, m, idx, code, resources):
        """The guard's test, acquire or release step, m its instruction."""
        if isinstance(m, IAcquire):
            entry = resources[m.lock]
            if not isinstance(entry, Available):
                raise SoundnessAlarm(
                    f"{self.path}: acquire move without an available resource")
            merged = self._join(code, entry.state,
                                "resource content does not compose with the code")
            return merged, {m.lock: HELD_BY_CODE}, (idx, None)
        if isinstance(m, IRelease):
            j, q = self._first_split(
                code, self.node.ctx[m.lock], self.node.post,
                "no release split satisfies the invariant and postcondition")
            return q, {m.lock: Available(j)}, (idx, None)
        return code, {}, (idx, None)


_LIFTERS = {
    "aff": AtomLifter, "store": AtomLifter, "load": AtomLifter,
    "ext_alloc": AtomLifter, "ext_dispose": AtomLifter, "ext_skip": AtomLifter,
    "seq": GuardLifter, "par": ParLifter, "frame": ParLifter,
    "conj": ConjLifter, "res": ResLifter,
    "with": GuardLifter, "if": GuardLifter, "ext_while": GuardLifter,
}


def build_lifter(node, path, t, u, rho, answer) -> _Lifter:
    """The lifter of a proof node on trace t, whose answer (verdict, witness)
    from the node's command the caller already holds.  `_LIFTERS` and
    ext_conseq cover `RULE_ARITY`, every tag the parser admits."""
    if node.tag == "ext_conseq":
        return build_lifter(node.children[0], f"{path}.0", t, u, rho, answer)
    return _LIFTERS[node.tag](node, path, t, u, rho, answer)


# --- the extracted strategy ---------------------------------------------------------

class ExtractedStrategy:
    """Winning strategy induced by a derivation tree on one trace."""

    def __init__(self, node, t: Trace, u: Universe, rho: fmap):
        self.u = u
        self.rho = rho
        answer = denote(node.cmd, u).member(t)
        if answer[0] == NOTIN:
            raise ExtractionFailure("root", node.tag,
                                    "trace is not in the command's denotation")
        self.lifter = build_lifter(node, "root", t, u, rho, answer)
        self.spec = winning_spec(node.pre, node.ctx, node.post, t,
                                 self.lifter.returning, rho)
        self.game = self.spec.game(t, u)
        self.initials = {s: self.lifter.start(s.code) for s in self.game.initials}

    def initial_nodes(self):
        return self.initials.items()

    def respond(self, key, position, state):
        """Eve's lifted move from an Adam state at an even position, neither
        checked here: both callers pass only states satisfying the position's
        predicate and judge the move with `TraceGame.eve_fault`; none at an
        erring code step (one with no successful outcome)."""
        k = position // 2
        if not self.game.returns[k - 1]:
            return []
        code2, updates, key2 = self.lifter.eve(key, k, state.code, state.resources)
        res2 = state.resources
        for r, entry in updates.items():
            res2 = res2.set(r, entry)
        try:
            s2 = SeparatedState.build(self.game.table, code2, res2, state.frame)
        except SeparationError as exc:
            raise SoundnessAlarm(f"extracted move is not separated: {exc}")
        return [(s2, key2)]


# --- the corollary -------------------------------------------------------------------

def initial_condition(node):
    """P * I_1 * ... * I_n * true for the proof's precondition P and its
    context's invariants I_r: the initial states whose games have an
    initial position (the rest of the state goes to the frame)."""
    f = node.pre
    for _, inv in node.ctx.items():
        f = Star(f, inv)
    return Star(f, FTrue())


def judged_traces(node, inits, u: Universe, rho: fmap, maxlen=None):
    """The corollary's walk: (init, trace, returning, strategy, verdict) per
    passive trace of each init in turn.  The verdict is the checker's on the
    extracted strategy, or the ExtractionFailure or SoundnessAlarm raised
    (the strategy is None if building it raised); on an error trace both
    are None."""
    for init in inits:
        start = MachineState(erase(init), frozenset())
        for t, returning, _ in enumerate_traces(node.cmd, [start], u,
                                                maxlen=maxlen, policy="passive"):
            strat = verdict = None
            try:
                if not t.errored:
                    strat = ExtractedStrategy(node, t, u, rho)
                    # read off the module, so that a wrapper patched onto it sees the call
                    verdict = game_layer.check_winning_strategy(strat, t, strat.spec, u)
            except (ExtractionFailure, SoundnessAlarm) as exc:
                verdict = exc
            yield init, t, returning, strat, verdict


def verify_corollary(check: ProofCheckResult, node, inits, u: Universe,
                     maxlen=None, emit_replays=False,
                     program_label="", proof_label="") -> dict:
    """Check the corollary of an accepted proof (`sepgame verify` reports a
    rejected one itself) under the passive environment, by the game alone:
    from every initial state satisfying `initial_condition`, no trace errs,
    and on every other trace the extracted strategy passes
    `check_winning_strategy` (the records of `judged_traces`), which holds
    Eve to the post at the final position and fails a vacuous game.

    Failures list the initial states outside that condition first, then the
    failing traces in enumeration order.  A strategy that cannot be
    extracted or breaks its own invariants on a trace is a failure of that
    trace.  The replay of a checked trace is the play the checker's verdict
    rests on (`CheckResult.play`).
    """
    report = {
        "program": program_label,
        "proof": proof_label,
        "universe": {"maxlen": u.maxlen if maxlen is None else maxlen,
                     "env": "passive"},
        "traces_checked": 0,
        "returning": 0,
        "failures": [],
        "extension_rules_used": sorted({tag for _, tag in check.extensions_used}),
    }
    rho = check.valuation
    condition = initial_condition(node)
    inits = sorted(inits, key=lstate_to_text)
    starts = [init for init in inits if satisfies(init, condition, rho, u)]
    rejected = f"initial state does not satisfy {formula_to_text(condition)}"
    report["failures"] += [{"init": lstate_to_text(init), "reason": rejected}
                           for init in inits if init not in starts]
    replays = []
    for init, t, returning, strat, verdict in judged_traces(node, starts, u, rho, maxlen):
        report["traces_checked"] += 1
        report["returning"] += int(returning)
        if verdict is None:
            reason = "error step in a passive-environment trace"
        elif isinstance(verdict, ExtractionFailure):
            reason = f"extraction failed: {verdict}"
        elif isinstance(verdict, SoundnessAlarm):
            reason = f"soundness alarm: {verdict}"
        else:
            reason = None if verdict else verdict.reason
        where = {"init": lstate_to_text(init), "trace_len": len(t)}
        if reason is not None:
            report["failures"].append({**where, "reason": reason})
        if emit_replays and isinstance(verdict, CheckResult):
            replays.append({**where,
                            "lines": replay_lines(verdict.play, t, strat.spec, u)})
    if emit_replays:
        report["replays"] = replays
    return report
