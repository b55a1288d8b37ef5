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
    once per unfolding) and a failed test admits no move; the guard's own
    steps move by their instruction: the test nop is an identity, with's
    acquire absorbs the resource's content and its release splits off a
    fragment satisfying the invariant (smallest candidate first);
  * conj plays its first premise and audits the second's claims, raising an
    alarm on divergence;
  * consequence changes no move, so its premise lifts in its place.

Membership is decided once, for the root: a lifter takes its trace's answer
(verdict and witness) from its parent, which reads it off its own witness,
and frame, conj and consequence hand their own answer to their premise.

All choice points are resolved by deterministic search in enumeration order,
so extraction is reproducible.  A failed search raises ExtractionFailure
naming the rule node; an inconsistent reconstruction raises SoundnessAlarm.
Traces ending in an error step admit no lifted move; such positions simply
have no response, and the game makes them unreachable for provable programs.
"""

from __future__ import annotations

from .game import TraceGame, replay_lines, sat_sep, winning_spec
from .logic import (EMPTY_LSTATE, TOP, LogicalState, erase, lstate_to_text,
                    satisfies, substates, tensor)
from .machine import ABORT, IAcquire, IRelease, MachineState, eval_expr
from .maps import fmap
from .proof import ProofCheckResult, Sequent
from .semantics import (HideW, NOTIN, ParW, RETURNS, SeqLeftW, SeqSplitW,
                        denote, enumerate_traces)
from .separation import (Available, HELD_BY_CODE, HELD_BY_FRAME,
                         SeparatedState, SeparationError, combine)
from .syntax import FTrue, Star, Universe
from .traces import ERR, Trace, restrict


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
        self.answer = answer
        self.returning = answer[0] == RETURNS
        self.witness = answer[1]
        self._setup()

    def _setup(self):
        pass

    def _fail(self, reason):
        raise ExtractionFailure(self.path, self.node.tag, reason)

    def _sat(self, sigma, f):
        return satisfies(sigma, f, self.rho, self.u)

    def _child(self, index, t, answer):
        node = self.node.children[index]
        return build_lifter(node, f"{self.path}.{index}", t, self.u, self.rho,
                            answer)

    def _first_split(self, code, fa, fb, reason):
        """The first split (a, b) of the code fragment with a satisfying fa
        and b satisfying fb."""
        for a, b in substates(code, self.u):
            if self._sat(a, fa) and self._sat(b, fb):
                return a, b
        self._fail(reason)

    def start(self, code: LogicalState):
        raise NotImplementedError

    def eve(self, residue, k, code, resources):
        """Lift code step k; returns (code', resource updates, residue')
        or None when no lifted move exists."""
        raise NotImplementedError


class AtomLifter(_Lifter):
    def _setup(self):
        self.dead = bool(self.t.steps) and self.t.steps[0].status == ERR

    def start(self, code):
        return ()

    def _eval(self, e, code):
        v = eval_expr(e, erase(code))
        if v is ABORT:
            raise SoundnessAlarm(
                f"{self.path}: footprint expression not covered by the code fragment")
        return v

    def eve(self, residue, k, code, resources):
        if self.dead or not self.t.steps:
            return None
        step = self.t.steps[0]
        post = step.post.memory
        cmd = self.node.cmd
        tag = self.node.tag
        if tag in ("aff", "load"):
            x = cmd.var
            new_code = LogicalState(code.stack.set(x, (post.stack[x], TOP)),
                                    code.heap)
        elif tag == "store":
            loc = self._eval(cmd.addr, code)
            if loc not in code.heap:
                raise SoundnessAlarm(f"{self.path}: stored cell not owned")
            new_code = LogicalState(code.stack,
                                    code.heap.set(loc, (post.heap[loc], TOP)))
        elif tag == "ext_alloc":
            x = cmd.var
            loc = post.stack[x]
            new_code = LogicalState(code.stack.set(x, (loc, TOP)),
                                    code.heap.set(loc, (post.heap[loc], TOP)))
        elif tag == "ext_dispose":
            loc = self._eval(cmd.addr, code)
            if loc not in code.heap:
                raise SoundnessAlarm(f"{self.path}: disposed cell not owned")
            new_code = LogicalState(code.stack, code.heap.remove(loc))
        elif tag == "ext_skip":
            new_code = code
        else:
            raise SoundnessAlarm(f"{self.path}: unexpected axiom {tag}")
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
        out = self.lifters[side].eve(inners[side], local, parts[side], resources)
        if out is None:
            return None
        parts[side], updates, inners[side] = out
        merged = tensor(*parts)
        if merged is None:
            raise SoundnessAlarm(f"{self.path}: {self.apart}")
        return merged, updates, (*parts, *inners)


class ConjLifter(_Lifter):
    def _setup(self):
        self.inner = self._child(0, self.t, self.answer)
        self.audit_pre = self.node.children[1].pre
        self.audit_post = self.node.children[1].post

    def start(self, code):
        if not self._sat(code, self.audit_pre):
            raise SoundnessAlarm(
                f"{self.path}: conj audit failed on the second precondition")
        return (self.inner.start(code),)

    def eve(self, residue, k, code, resources):
        out = self.inner.eve(residue[0], k, code, resources)
        if out is None:
            return None
        code2, updates, inner2 = out
        if self.returning and k == len(self.t) and \
                not self._sat(code2, self.audit_post):
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
        out = self.inner.eve(r1, k, a, resources.set(self.r, virt))
        if out is None:
            return None
        a2, updates, r1b = out
        updates = dict(updates)
        if self.r in updates:
            virt = updates.pop(self.r)
            if virt == HELD_BY_FRAME:
                raise SoundnessAlarm(f"{self.path}: virtual resource went to the frame")
        if isinstance(virt, Available):
            merged = tensor(a2, virt.state)
            if merged is None:
                raise SoundnessAlarm(
                    f"{self.path}: virtual resource content no longer composes")
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
        else:
            return None
        if lifter is None:
            return self._own_step(self.t.steps[k - 1], idx, code, resources)
        if idx != seg_idx:
            inner = lifter.start(code)
        out = lifter.eve(inner, offset, code, resources)
        if out is None:
            return None
        code2, updates, inner2 = out
        return code2, updates, (idx, inner2)

    def _own_step(self, step, idx, code, resources):
        """The guard's test, acquire or release step; an error step (a
        failed test) has no move."""
        if step.status == ERR:
            return None
        m = step.instr
        if isinstance(m, IAcquire):
            entry = resources[m.lock]
            if not isinstance(entry, Available):
                raise SoundnessAlarm(
                    f"{self.path}: acquire move without an available resource")
            merged = tensor(code, entry.state)
            if merged is None:
                raise SoundnessAlarm(
                    f"{self.path}: resource content does not compose with the code")
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
    from the node's command the caller already holds."""
    if node.tag == "ext_conseq":
        return build_lifter(node.children[0], f"{path}.0", t, u, rho, answer)
    cls = _LIFTERS.get(node.tag)
    if cls is None:
        raise ExtractionFailure(path, node.tag, "no lifting for this rule")
    return cls(node, path, t, u, rho, answer)


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
        self.game = TraceGame(t, self.spec, u)
        self.initials = {s: self.lifter.start(s.code) for s in self.game.initials}

    def initial_nodes(self):
        return self.initials.items()

    def respond(self, key, position, state):
        """Eve's lifted move from an Adam state at an even position, neither
        checked here: both callers pass only states satisfying the position's
        predicate and judge the move with `TraceGame.eve_fault`, on which
        `check_winning_strategy` fails and `drive_play` raises SoundnessAlarm."""
        out = self.lifter.eve(key, position // 2, state.code, state.resources)
        if out is None:
            return []
        code2, updates, key2 = out
        res2 = state.resources
        for r, entry in updates.items():
            res2 = res2.set(r, entry)
        try:
            s2 = SeparatedState(code2, res2, state.frame)
        except SeparationError as exc:
            raise SoundnessAlarm(f"extracted move is not separated: {exc}")
        return [(s2, key2)]


# --- driving plays and the corollary -------------------------------------------------

def drive_play(strat, initial=None):
    """Unfold one play of the strategy along its game's trace, preferring
    identity Adam moves; returns the tuple of visited states (possibly
    partial).  Each of the strategy's moves is judged by the game, and a
    faulty one raises SoundnessAlarm."""
    initials = dict(strat.initial_nodes())
    state = next(iter(initials), None) if initial is None else initial
    if state not in initials:
        return ()
    key = initials[state]
    play = (state,)
    game = strat.game
    spec = game.spec
    for i in range(1, game.last, 2):
        pred = spec.predicate_at(i + 1)
        if combine(state) == game.state(i + 1) and sat_sep(state, pred, spec.rho, game.u):
            nxt = state
        else:
            nxt = next(iter(game.adam(i, state)), None)
        if nxt is None:
            break
        state = nxt
        play += (state,)
        if i + 1 == game.last:
            break
        responses = strat.respond(key, i + 1, state)
        if not responses:
            break
        state, key = responses[0]
        fault = game.eve_fault(i + 1, play[-1], state)
        if fault is not None:
            raise SoundnessAlarm(f"extracted move: {fault}")
        play += (state,)
    return play


def verify_corollary(check: ProofCheckResult, node, inits, u: Universe,
                     maxlen=None, emit_replays=False,
                     program_label="", proof_label="") -> dict:
    """Check both consequences of a proof with an empty context under the
    passive environment: no error steps, and returning traces end in a memory
    satisfying the postcondition star true, witnessed by the extracted play's
    final code fragment.

    Failures list the initial states outside P * true first, then the failing
    traces in enumeration order.  A strategy that cannot be extracted or
    breaks its own invariants on a trace is a failure of that trace.
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
    if not check.ok:
        report["failures"].append({"reason": "proof rejected"})
        return report
    seq = check.sequent
    if len(seq.ctx):
        report["failures"].append(
            {"reason": "context is not empty; use game-level checking"})
        return report
    rho = check.valuation
    pre_true = Star(seq.pre, FTrue())
    starts = []
    for init in sorted(inits, key=lstate_to_text):
        label = lstate_to_text(init)
        if satisfies(init, pre_true, rho, u):
            starts.append((init, label))
        else:
            report["failures"].append(
                {"init": label, "reason": "initial state does not satisfy P * true"})

    replays = []
    for init, label in starts:
        start = MachineState(erase(init), frozenset())
        for t, returning, _ in enumerate_traces(node.cmd, [start], u,
                                                maxlen=maxlen, policy="passive"):
            report["traces_checked"] += 1
            if returning:
                report["returning"] += 1
            reason, play, spec = _trace_failure(node, seq, init, t, u, rho)
            if reason is not None:
                report["failures"].append(
                    {"init": label, "trace_len": len(t), "reason": reason})
            if emit_replays and play is not None:
                replays.append({"init": label, "trace_len": len(t),
                                "lines": replay_lines(play, t, spec, u)})
    if emit_replays:
        report["replays"] = replays
    return report


def _trace_failure(node, seq: Sequent, init, t: Trace, u: Universe, rho: fmap):
    """Why one passive trace breaks the corollary, or None; and the play
    driven along it with its spec, when there is one."""
    if t.errored:
        return "error step in a passive-environment trace", None, None
    try:
        strat = ExtractedStrategy(node, t, u, rho)
        canonical = _canonical_initial(init, seq, strat, u, rho)
        if canonical is None:
            return "no accepted initial refinement", None, None
        play = drive_play(strat, initial=canonical)
    except ExtractionFailure as exc:
        return f"extraction failed: {exc}", None, None
    except SoundnessAlarm as exc:
        return f"soundness alarm: {exc}", None, None
    spec = strat.spec
    if len(play) != strat.game.last:
        return f"play stalled after {len(play)} states", play, spec
    if spec.returning and not satisfies(play[-1].code, seq.post, rho, u):
        return "final code fragment violates the postcondition", play, spec
    return None, play, spec


def _canonical_initial(init, seq: Sequent, strat: ExtractedStrategy,
                       u: Universe, rho: fmap):
    """The designated refinement: split the initial logical state into a
    fragment satisfying the precondition plus frame, resources all empty."""
    resources = fmap({r: Available(EMPTY_LSTATE) for r in u.locks})
    for a, b in substates(init, u):
        if satisfies(a, seq.pre, rho, u):
            cand = SeparatedState(a, resources, b)
            if cand in strat.initials:
                return cand
    return None
