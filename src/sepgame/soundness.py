"""Strategy extraction: a checked derivation tree turned into a winning
strategy for the separation game of any trace of its program.

Every rule becomes a lifter that translates moves between the parent's view
of the separated state and its premises' views:

  * axioms update the code fragment by the instruction's footprint;
  * seq delegates to its first premise until the witness's split point;
  * par splits the code fragment once at the start and routes each step
    through the witness's shuffle, the idle sibling acting as extra frame;
  * frame carries a framed fragment untouched through the whole play;
  * res replays the child on the hide pre-image from the witness, keeping the
    bound resource's content virtually inside the code fragment so the
    projected moves are identities on the visible state;
  * with absorbs the resource's content on acquire and splits off a fragment
    satisfying the invariant on release (smallest candidate first);
  * conj plays its first premise and audits the second's claims, raising an
    alarm on divergence;
  * consequence changes no move, so its premise lifts in its place.

All choice points are resolved by deterministic search in enumeration order,
so extraction is reproducible.  A failed search raises ExtractionFailure
naming the rule node; an inconsistent reconstruction raises SoundnessAlarm.
Traces ending in an error step admit no lifted move; such positions simply
have no response, and the game makes them unreachable for provable programs.
"""

from __future__ import annotations

from .game import (adam_extensions, empty_winning_plays, sat_sep,
                   trace_state, winning_spec, replay_lines)
from .logic import (EMPTY_LSTATE, TOP, LogicalState, erase, lstate_to_text,
                    satisfies, substates, tensor)
from .machine import ABORT, IAcquire, IRelease, MachineState, eval_expr
from .maps import fmap
from .proof import ProofCheckResult, Sequent
from .semantics import (BranchW, GateW, HideW, NOTIN, ParW, RETURNS, SeqLeftW,
                        SeqSplitW, denote, enumerate_traces)
from .separation import (Available, HELD_BY_CODE, HELD_BY_FRAME,
                         SeparatedState, SeparationError, combine,
                         legal_eve_move, sep_state_to_text)
from .syntax import FTrue, Star, Universe
from .traces import ERR, Trace


class ExtractionFailure(Exception):
    def __init__(self, path, rule, reason):
        self.path, self.rule, self.reason = path, rule, reason
        super().__init__(f"{path} ({rule}): {reason}")


class SoundnessAlarm(Exception):
    """The reconstructed lifting broke one of its own invariants."""


class _Lifter:
    """One proof node driving one (sub)trace."""

    def __init__(self, node, path, t: Trace, u: Universe, rho: fmap):
        self.node = node
        self.path = path
        self.t = t
        self.u = u
        self.rho = rho
        verdict, witness = denote(node.cmd, u).member(t)
        if verdict == NOTIN:
            raise ExtractionFailure(path, node.tag,
                                    "trace is not in the command's denotation")
        self.returning = verdict == RETURNS
        self.witness = witness
        self._setup()

    def _setup(self):
        pass

    def _fail(self, reason):
        raise ExtractionFailure(self.path, self.node.tag, reason)

    def _sat(self, sigma, f):
        return satisfies(sigma, f, self.rho, self.u)

    def _child(self, index, t):
        node = self.node.children[index]
        return build_lifter(node, f"{self.path}.{index}", t, self.u, self.rho)

    def _seq_parts(self, w, t: Trace):
        """Decode the witness of a sequential composition on t into the first
        command's sub-trace, the second's sub-trace and the second's witness;
        the last two are None while the first command has not returned."""
        if isinstance(w, SeqSplitW):
            return (Trace(t.source, t.steps[:w.k], w.mid),
                    Trace(w.mid, t.steps[w.k:], t.target), w.right)
        if isinstance(w, SeqLeftW):
            return t, None, None
        self._fail(f"unexpected witness {type(w).__name__}")

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


class SeqLifter(_Lifter):
    def _setup(self):
        t1, t2, _ = self._seq_parts(self.witness, self.t)
        self.left = self._child(0, t1)
        self.k0 = self.right = None
        if t2 is not None:
            self.k0 = len(t1)
            self.right = self._child(1, t2)

    def start(self, code):
        return ("L", self.left.start(code))

    def eve(self, residue, k, code, resources):
        phase, inner = residue
        if phase == "L":
            out = self.left.eve(inner, k, code, resources)
            if out is None:
                return None
            code2, updates, inner2 = out
            if self.k0 is not None and k == self.k0:
                return code2, updates, ("R", self.right.start(code2))
            return code2, updates, ("L", inner2)
        out = self.right.eve(inner, k - self.k0, code, resources)
        if out is None:
            return None
        code2, updates, inner2 = out
        return code2, updates, ("R", inner2)


class ParLifter(_Lifter):
    def _setup(self):
        w = self.witness
        if not isinstance(w, ParW):
            self._fail(f"unexpected witness {type(w).__name__}")
        self.route = w.shuffle.tags
        from .traces import restrict
        t1 = restrict(w.shuffle.left_positions(), self.t)
        t2 = restrict(w.shuffle.right_positions(), self.t)
        self.left = self._child(0, t1)
        self.right = self._child(1, t2)

    def start(self, code):
        a, b = self._first_split(
            code, self.node.children[0].pre, self.node.children[1].pre,
            "no split of the code fragment satisfies both preconditions")
        return (a, b, self.left.start(a), self.right.start(b))

    def eve(self, residue, k, code, resources):
        a, b, r1, r2 = residue
        tag = self.route[k - 1]
        local = sum(1 for x in self.route[:k] if x == tag)
        if tag == 1:
            out = self.left.eve(r1, local, a, resources)
            if out is None:
                return None
            a2, updates, r1b = out
            merged = tensor(a2, b)
            if merged is None:
                raise SoundnessAlarm(f"{self.path}: parallel components no longer compose")
            return merged, updates, (a2, b, r1b, r2)
        out = self.right.eve(r2, local, b, resources)
        if out is None:
            return None
        b2, updates, r2b = out
        merged = tensor(a, b2)
        if merged is None:
            raise SoundnessAlarm(f"{self.path}: parallel components no longer compose")
        return merged, updates, (a, b2, r1, r2b)


class FrameLifter(_Lifter):
    def _setup(self):
        self.inner = self._child(0, self.t)
        self.frame_formula = self.node.params["R"]

    def start(self, code):
        a, b = self._first_split(code, self.node.children[0].pre,
                                 self.frame_formula,
                                 "no split of the code fragment matches P * R")
        return (a, b, self.inner.start(a))

    def eve(self, residue, k, code, resources):
        a, framed, r1 = residue
        out = self.inner.eve(r1, k, a, resources)
        if out is None:
            return None
        a2, updates, r1b = out
        merged = tensor(a2, framed)
        if merged is None:
            raise SoundnessAlarm(f"{self.path}: framed fragment no longer composes")
        return merged, updates, (a2, framed, r1b)


class ConjLifter(_Lifter):
    def _setup(self):
        self.inner = self._child(0, self.t)
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
        self.pre_t = w.preimage
        self._check_bracketing()
        self.inner = self._child(0, self.pre_t)

    def _check_bracketing(self):
        """The virtual resource must be locked exactly while the child holds it."""
        r = self.r
        held = False
        if r in self.pre_t.source.locked:
            self._fail("pre-image starts with the bound resource locked")
        for st in self.pre_t.steps:
            if (r in st.pre.locked) != held:
                self._fail("pre-image locks the bound resource outside the code's hold")
            if isinstance(st.instr, IAcquire) and st.instr.lock == r:
                held = True
            elif isinstance(st.instr, IRelease) and st.instr.lock == r:
                held = False
            if (r in st.post.locked) != held:
                self._fail("pre-image locks the bound resource outside the code's hold")
        if (r in self.pre_t.target.locked) != held:
            self._fail("pre-image locks the bound resource outside the code's hold")

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


class WithLifter(_Lifter):
    def _setup(self):
        self.r = self.node.cmd.lock
        self.inv = self.node.ctx[self.r]
        self.dead = False
        self.body = None
        self.body_len = 0
        w = self.witness
        if isinstance(w, BranchW) and w.index == 1:
            self.dead = True
            return
        if not (isinstance(w, BranchW) and w.index == 0
                and isinstance(w.inner, GateW)):
            self._fail(f"unexpected witness {type(w).__name__}")
        acquire, rest, w2 = self._seq_parts(w.inner.inner, self.t)
        if rest is None:
            return  # at most the acquire step
        if len(acquire) != 1:
            self._fail("unexpected inside witness")
        body_t, _, _ = self._seq_parts(w2, rest)
        self.body = self._child(0, body_t)
        self.body_len = len(body_t)

    def start(self, code):
        return ("pre", None)

    def eve(self, residue, k, code, resources):
        if self.dead:
            return None
        if k == 1:
            entry = resources[self.r]
            if not isinstance(entry, Available):
                raise SoundnessAlarm(
                    f"{self.path}: acquire move without an available resource")
            merged = tensor(code, entry.state)
            if merged is None:
                raise SoundnessAlarm(
                    f"{self.path}: resource content does not compose with the code")
            inner = self.body.start(merged) if self.body is not None else None
            return merged, {self.r: HELD_BY_CODE}, ("body", inner)
        if k <= 1 + self.body_len:
            _, inner = residue
            out = self.body.eve(inner, k - 1, code, resources)
            if out is None:
                return None
            code2, updates, inner2 = out
            return code2, updates, ("body", inner2)
        # the release step
        j, q = self._first_split(
            code, self.inv, self.node.post,
            "no release split satisfies the invariant and postcondition")
        return q, {self.r: Available(j)}, ("done", None)


class IfLifter(_Lifter):
    def _setup(self):
        w = self.witness
        self.dead = isinstance(w, BranchW) and w.index == 2
        self.body = None
        if self.dead:
            return
        if not isinstance(w, BranchW):
            self._fail(f"unexpected witness {type(w).__name__}")
        test, rest, _ = self._seq_parts(w.inner, self.t)
        if rest is None:
            return  # only the branch-test step so far
        if len(test) != 1:
            self._fail("unexpected branch witness")
        self.body = self._child(w.index, rest)

    def start(self, code):
        return ("test", None)

    def eve(self, residue, k, code, resources):
        if self.dead:
            return None
        if k == 1:
            inner = self.body.start(code) if self.body is not None else None
            return code, {}, ("branch", inner)
        _, inner = residue
        out = self.body.eve(inner, k - 1, code, resources)
        if out is None:
            return None
        code2, updates, inner2 = out
        return code2, updates, ("branch", inner2)


class WhileLifter(_Lifter):
    def _setup(self):
        self.segments = []   # ("nop", None) | ("body", lifter) | ("dead", None)
        self._walk(self.witness, self.t)

    def _walk(self, w, t_cur):
        if len(t_cur) == 0:
            return
        if not isinstance(w, BranchW):
            self._fail(f"unexpected witness {type(w).__name__}")
        if w.index == 1:
            self.segments.append(("nop", None, 1))
            return
        if w.index == 2:
            self.segments.append(("dead", None, 1))
            return
        test, rest, w2 = self._seq_parts(w.inner, t_cur)
        if rest is not None and len(test) != 1:
            self._fail("unexpected loop witness")
        self.segments.append(("nop", None, 1))
        if rest is None:
            return
        body_t, loop_t, w3 = self._seq_parts(w2, rest)
        self.segments.append(("body", self._child(0, body_t), len(body_t)))
        if loop_t is not None:
            self._walk(w3, loop_t)

    def start(self, code):
        return (0, None)

    def eve(self, residue, k, code, resources):
        seg_idx, inner = residue
        offset = k
        for idx, (kind, lifter, length) in enumerate(self.segments):
            if offset <= length:
                break
            offset -= length
        else:
            return None
        if kind == "dead":
            return None
        if kind == "nop":
            return code, {}, (idx, None)
        if inner is None or idx != seg_idx:
            inner = lifter.start(code)
        out = lifter.eve(inner, offset, code, resources)
        if out is None:
            return None
        code2, updates, inner2 = out
        return code2, updates, (idx, inner2)


_LIFTERS = {
    "aff": AtomLifter, "store": AtomLifter, "load": AtomLifter,
    "ext_alloc": AtomLifter, "ext_dispose": AtomLifter, "ext_skip": AtomLifter,
    "seq": SeqLifter, "par": ParLifter, "frame": FrameLifter,
    "conj": ConjLifter, "res": ResLifter,
    "with": WithLifter, "if": IfLifter, "ext_while": WhileLifter,
}


def build_lifter(node, path, t, u, rho) -> _Lifter:
    if node.tag == "ext_conseq":
        return build_lifter(node.children[0], f"{path}.0", t, u, rho)
    cls = _LIFTERS.get(node.tag)
    if cls is None:
        raise ExtractionFailure(path, node.tag, "no lifting for this rule")
    return cls(node, path, t, u, rho)


# --- the extracted strategy ---------------------------------------------------------

class ExtractedStrategy:
    """Winning strategy induced by a derivation tree on one trace."""

    def __init__(self, node, t: Trace, u: Universe, rho: fmap):
        self.node = node
        self.t = t
        self.u = u
        self.rho = rho
        self.lifter = build_lifter(node, "root", t, u, rho)
        self.spec = winning_spec(node.pre, node.ctx, node.post, t,
                                 self.lifter.returning, rho)
        self.initials = {}
        for s in empty_winning_plays(t.source, self.spec, u):
            self.initials[s] = self.lifter.start(s.code)

    def initial_nodes(self):
        return sorted(self.initials.items(),
                      key=lambda kv: sep_state_to_text(kv[0]))

    def respond(self, key, position, state):
        if not sat_sep(state, self.spec.predicate_at(position), self.rho, self.u):
            return []
        k = position // 2
        out = self.lifter.eve(key, k, state.code, state.resources)
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
        step = self.t.steps[k - 1]
        if not legal_eve_move(state, step.instr, s2, self.u):
            raise SoundnessAlarm("extracted move is not a legal Eve move")
        if combine(s2) != trace_state(self.t, position + 1):
            raise SoundnessAlarm("extracted move leaves the trace")
        return [(s2, key2)]


# --- driving plays and the corollary -------------------------------------------------

def drive_play(strat, t: Trace, spec, u: Universe, initial=None):
    """Unfold one play of the strategy along the trace, preferring identity
    Adam moves; returns the tuple of visited states (possibly partial)."""
    initials = dict(strat.initial_nodes())
    if not initials:
        return ()
    if initial is None:
        state = sorted(initials, key=sep_state_to_text)[0]
    else:
        state = initial
        if state not in initials:
            return ()
    key = initials[state]
    play = (state,)
    p = len(t)
    for i in range(1, 2 * p + 2, 2):
        target = trace_state(t, i + 1)
        pred = spec.predicate_at(i + 1)
        if combine(state) == target and sat_sep(state, pred, spec.rho, u):
            nxt = state
        else:
            nxt = next(iter(adam_extensions(state, target, pred, spec.rho, u)),
                       None)
        if nxt is None:
            break
        state = nxt
        play += (state,)
        if i + 1 == 2 * p + 2:
            break
        responses = strat.respond(key, i + 1, state)
        if not responses:
            break
        state, key = responses[0]
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
            reason, play = _trace_failure(node, seq, init, t, returning, u, rho)
            if reason is not None:
                report["failures"].append(
                    {"init": label, "trace_len": len(t), "reason": reason})
            if emit_replays and play is not None:
                spec = winning_spec(seq.pre, seq.ctx, seq.post, t, returning, rho)
                replays.append({"init": label, "trace_len": len(t),
                                "lines": replay_lines(play, t, spec, u)})
    if emit_replays:
        report["replays"] = replays
    return report


def _trace_failure(node, seq: Sequent, init, t: Trace, returning: bool,
                   u: Universe, rho: fmap):
    """Why one passive trace breaks the corollary, or None; and the play
    driven along it, when there is one."""
    if t.errored:
        return "error step in a passive-environment trace", None
    try:
        strat = ExtractedStrategy(node, t, u, rho)
        canonical = _canonical_initial(init, seq, strat, u, rho)
        if canonical is None:
            return "no accepted initial refinement", None
        play = drive_play(strat, t, strat.spec, u, initial=canonical)
    except ExtractionFailure as exc:
        return f"extraction failed: {exc}", None
    except SoundnessAlarm as exc:
        return f"soundness alarm: {exc}", None
    if len(play) != 2 * len(t) + 2:
        return f"play stalled after {len(play)} states", play
    if returning and not satisfies(play[-1].code, seq.post, rho, u):
        return "final code fragment violates the postcondition", play
    return None, play


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
