"""The soundness chain on the corpus: accepted proof, extracted strategy on
every non-error trace, the strategy checker, the brute-force solver as the
oracle, and the corollary.

The play-node, solver-node and initial-refinement counts pin what the
checker and the solver explore, so a refactor of the game or the lifters
that changes the search shows here.
"""

import re

import pytest

from sepgame import game, separation
from sepgame.game import CheckResult, NoWin, TraceGame, solve_eve, winning_spec
from sepgame.logic import erase, lstate_from_text, lstate_to_text, satisfies, universe_table
from sepgame.machine import MachineState
from sepgame.proof import check_proof
from sepgame.semantics import enumerate_traces
from sepgame.separation import (HELD_BY_CODE, Available, SeparatedState, machine_key,
                                sep_state_to_text)
from sepgame.soundness import (ExtractedStrategy, ExtractionFailure, SoundnessAlarm,
                               initial_condition, judged_traces, verify_corollary)
from sepgame.syntax import parse_proof, parse_universe
from sepgame.traces import Trace

from .builders import combine, pieces, tensor_all
from .conftest import CORPUS, bench_script, corpus_inits, corpus_text

# program -> (non-error traces, play nodes the checker explores over them,
#             (position, code fragment, code-held locks) questions the
#             solver asks, initial refinements of the extracted strategies)
CHAIN = {
    "par_writes": (10, 22, 56, 10),
    "framed_assign": (4, 6, 12, 4),
    "lock_transfer": (8, 20, 30, 8),
    "lock_pair": (12, 53, 95, 12),
    "if_def": (6, 12, 28, 6),
    "while_count": (6, 13, 19, 6),
}

# Both fail because `own_1(x) * (x = X)` holds on no state (ROADMAP item 1).
KNOWN_DEFECTS = [
    pytest.param("seq_load_store", marks=pytest.mark.xfail(
        raises=ExtractionFailure, strict=True,
        reason="ROADMAP item 1: extraction fails at root.0.1 (frame)")),
    pytest.param("conj_precise", marks=pytest.mark.xfail(
        raises=SoundnessAlarm, strict=True,
        reason="ROADMAP item 1: conj audit fails on the second postcondition")),
]


# ROADMAP item 1's false triple: the framed_assign proof with x = 2 in its
# outer post.  `check --allow-extensions` accepts it; `verify` refutes it.
FALSE_TRIPLE = corpus_text("framed_assign.proof").replace("and (x = 1)", "and (x = 2)")
assert FALSE_TRIPLE.count("and (x = 2)") == 1


def _load(name):
    u = parse_universe(corpus_text(f"{name}.uni"))
    node = parse_proof(corpus_text(f"{name}.proof"))
    check = check_proof(node, u, allow_extensions=True)
    assert check.ok, check.violations
    return u, node, check, corpus_inits(name)


def _chain(name):
    """Run the chain on every non-error passive trace from the corpus inits;
    returns (traces, play nodes, solver nodes, initial refinements)."""
    return _chain_of(*_load(name))


def _checked_traces(u, node, rho, inits):
    """`judged_traces` from the inits sorted by text, without the error traces
    or the init; a verdict that is an exception is raised."""
    for _, t, returning, strat, verdict in judged_traces(
            node, sorted(inits, key=lstate_to_text), u, rho):
        if isinstance(verdict, Exception):
            raise verdict
        if verdict is not None:
            yield t, returning, strat, verdict


def _chain_of(u, node, check, inits):
    traces = nodes = solver_nodes = initials = 0
    for t, _, strat, result in _checked_traces(u, node, check.valuation, inits):
        assert strat.initials, "no initial refinement"
        assert result.verdict == "pass", result.reason
        assert result.reason == f"explored {result.explored} play nodes"
        solved = solve_eve(t, strat.spec, u)
        assert not isinstance(solved, (NoWin, str)), solved
        traces += 1
        nodes += result.explored
        solver_nodes += solved._explored
        initials += len(strat.initials)
    return traces, nodes, solver_nodes, initials


@pytest.mark.parametrize("name", sorted(CHAIN))
def test_chain_holds_on_every_trace(name):
    assert _chain(name) == CHAIN[name]


@pytest.mark.parametrize("name", KNOWN_DEFECTS)
def test_chain_known_defects(name):
    _chain(name)


def test_the_game_chain_refutes_the_false_triple():
    """Eve owes the post at the final position: on the two returning traces,
    where `x := 1` breaks the post's x = 2, the checker fails at position 4
    with the play as its counterexample and the solver finds no win; the
    two traces that stop before the step pass both."""
    u, _, _, inits = _load("framed_assign")
    node = parse_proof(FALSE_TRIPLE)
    check = check_proof(node, u, allow_extensions=True)
    assert check.ok, check.violations
    verdicts = []
    for t, returning, strat, result in _checked_traces(u, node, check.valuation, inits):
        solved = solve_eve(t, strat.spec, u)
        verdicts.append((returning, result.verdict, isinstance(solved, NoWin)))
        if returning:
            assert result.reason == "no refinement satisfies the post at position 4"
            assert len(result.play) == 3
            assert not satisfies(universe_table(u).state(
                result.play[-1].code), node.post, check.valuation, u)
    assert sorted(verdicts) == [(False, "pass", False)] * 2 + [(True, "fail", True)] * 2


def _kind(verdict):
    """A record's verdict as text: the checker's verdict, or the exception's type."""
    return verdict.verdict if isinstance(verdict, CheckResult) else type(verdict).__name__


SEQ_LOAD_STORE_INITS = ["{x=0@1|2=1@1,3=0@1}", "{x=3@1|2=1@1,3=2@1}"]


@pytest.mark.parametrize("name, records", [
    ("seq_load_store", [(init, n, "ExtractionFailure" if n == 2 else "pass")
                        for init in SEQ_LOAD_STORE_INITS for n in range(3)]),
    ("conj_precise", [("{x=0@1,y=0@1|}", 0, "pass"),
                      ("{x=0@1,y=0@1|}", 1, "SoundnessAlarm")]),
])
def test_judged_traces_are_the_traces_verify_reports(name, records):
    """One record per (init, trace) from the corpus inits, in order: item
    1's two known defects are a record's verdict, not an escape, and the
    failing records are `verify_corollary`'s failures."""
    u, node, check, inits = _load(name)
    judged = [(lstate_to_text(init), len(t), _kind(verdict)) for init, t, _, _, verdict
              in judged_traces(node, sorted(inits, key=lstate_to_text), u, check.valuation)]
    assert judged == records
    report = verify_corollary(check, node, inits, u)
    assert report["traces_checked"] == len(records)
    assert [(f["init"], f["trace_len"]) for f in report["failures"]] == [
        (init, n) for init, n, kind in records if kind != "pass"]


def test_an_error_trace_is_judged_by_no_strategy():
    """The `store` axiom owns no share of the x it stores (ROADMAP item 1):
    from a state without x its step errs, and that trace's record has no
    strategy and no verdict.  The empty trace before it is checked."""
    u = parse_universe(corpus_text("seq_load_store.uni"))
    node = parse_proof("(store pre: 3 |-> - cmd: [3] := x post: 3 |-> x)")
    rho = check_proof(node, u).valuation
    (_, empty, _, strat, verdict), (_, erring, returning, *rest) = judged_traces(
        node, [lstate_from_text("{|3=0@1}")], u, rho, maxlen=1)
    assert (len(empty), isinstance(strat, ExtractedStrategy), _kind(verdict)) == (
        0, True, "pass")
    assert (len(erring), erring.errored, returning, rest) == (1, True, False, [None, None])


# No accepted corpus proof goes through seq (seq_load_store fails at its
# frame, ROADMAP item 1): both premises of this one are framed assignments
# weakened by consequence, as in framed_assign.
SEQ_PROOF = """(seq pre: own_1(x) * own_1(y) cmd: x := 1 ; y := 1 post: own_1(x) * own_1(y)
  (ext_conseq pre: own_1(x) * own_1(y) cmd: x := 1 post: own_1(x) * own_1(y)
    (frame pre: (own_1(x) * (X = 1)) * own_1(y) cmd: x := 1
           post: (own_1(x) * (x = X)) * own_1(y) R: own_1(y)
      (aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X) val: [X = 1])))
  (ext_conseq pre: own_1(x) * own_1(y) cmd: y := 1 post: own_1(x) * own_1(y)
    (frame pre: (own_1(y) * (Y = 1)) * own_1(x) cmd: y := 1
           post: (own_1(y) * (y = Y)) * own_1(x) R: own_1(x)
      (aff pre: own_1(y) * (Y = 1) cmd: y := 1 post: own_1(y) * (y = Y) val: [Y = 1]))))
"""


def test_chain_holds_through_seq():
    """The right premise of seq starts once the left has returned."""
    u, _, _, inits = _load("par_writes")
    node = parse_proof(SEQ_PROOF)
    check = check_proof(node, u, allow_extensions=True)
    assert check.ok, check.violations
    assert _chain_of(u, node, check, inits) == (6, 12, 28, 6)
    report = verify_corollary(check, node, inits, u)
    assert (report["failures"], report["returning"]) == ([], 2)


@pytest.mark.parametrize("name", sorted(CHAIN))
def test_corollary_reports_no_failures(name):
    u, node, check, inits = _load(name)
    report = verify_corollary(check, node, inits, u)
    assert report["failures"] == []
    assert report["traces_checked"] > 0


@pytest.mark.parametrize("name", sorted(CHAIN) + ["seq_load_store", "conj_precise"])
def test_verify_starts_at_an_initial_position_and_ends_in_the_post(name):
    """Why `verify_corollary` is never vacuous: from every state satisfying
    `initial_condition`, P * I_1 * ... * I_n * true (every share, not only
    the full ones `verify` picks by default), every non-error passive trace
    has an initial refinement.  The context's resources are available and
    hold states satisfying their invariants, the code a state satisfying P,
    and the frame the rest.  Under P * true alone, conj_precise's inits
    without y would have none: its invariant owns y.  That the plays end in
    the post is the checker's to judge: Eve owes it at the final position
    (`test_the_game_chain_refutes_the_false_triple`)."""
    u, node, _, _ = _load(name)
    rho = check_proof(node, u, allow_extensions=True).valuation
    table = universe_table(u)
    models = table.models(initial_condition(node), rho)
    inits = [sigma for i, sigma in enumerate(table.states) if models >> i & 1]
    starts = 0
    for init in inits:
        start = MachineState(erase(init), frozenset())
        for t, returning, _ in enumerate_traces(node.cmd, [start], u, policy="passive"):
            if t.errored:
                continue
            spec = winning_spec(node.pre, node.ctx, node.post, t, returning, rho)
            assert TraceGame(t, spec, u).initials, (lstate_to_text(init), len(t))
            starts += 1
    assert starts > len(inits) > 0


def test_extraction_decides_membership_at_the_root():
    """A trace outside the program's denotation fails at the root, before
    any lifter is built: one more step after the program has returned."""
    u, node, check, inits = _load("lock_transfer")
    start = MachineState(erase(inits[0]), frozenset())
    t = next(t for t, ret, _ in enumerate_traces(node.cmd, [start], u) if ret)
    longer = Trace(t.source, t.steps + t.steps[-1:], t.target)
    with pytest.raises(ExtractionFailure) as info:
        ExtractedStrategy(node, longer, u, check.valuation)
    assert (info.value.path, info.value.rule) == ("root", "ext_conseq")
    assert info.value.reason == "trace is not in the command's denotation"


def test_chain_with_a_lock_named_code(tmp_path, capsys):
    """The piece tests of a separated state are keyed by the piece, not by a
    name: a lock named `code` takes its context invariant, not the code's
    precondition.  lock_transfer with its lock `r` renamed gives the same
    chain as the original."""
    for ext in ("csl", "uni", "inits", "proof"):
        text = corpus_text(f"lock_transfer.{ext}")
        # every `r` but the (res ...) node's `r:` field label
        (tmp_path / f"lock_transfer.{ext}").write_text(
            re.sub(r"(?m)(?<!^    )\br\b", "code", text))
    renamed = (tmp_path / "lock_transfer.proof").read_text()
    assert "r: code" in renamed and "[code: own_1(x)]" in renamed
    assert "locks = code" in (tmp_path / "lock_transfer.uni").read_text()

    chain = bench_script("chain")
    code = chain.main([str(tmp_path / "lock_transfer.csl"),
                       str(tmp_path / "lock_transfer.proof"),
                       "-u", str(tmp_path / "lock_transfer.uni")])
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "total 80 traces, 1480 play nodes, all pass"
    assert code == 0


def test_memo_and_stored_tensors_are_never_stale(tmp_path, capsys, monkeypatch):
    """After the chain over par_writes on the strategy-chain universe
    (vals = 0..1) and over lock_transfer from its inits, every memoised
    separations tuple equals a fresh enumeration, in order, and every state
    it holds keeps the tensor of its pieces and combines as that tensor
    does (`machine_key`)."""
    memo = separation.separations
    calls = set()

    def recording(*args):
        calls.add(args)
        return memo(*args)
    monkeypatch.setattr(separation, "separations", recording)
    monkeypatch.setattr(game, "separations", recording)
    memo.cache_clear()
    game._refinements.cache_clear()
    uni = tmp_path / "strategy-chain.uni"
    uni.write_text(corpus_text("par_writes.uni").replace("vals = 0..3", "vals = 0..1"))
    code = bench_script("chain").main([str(CORPUS / "par_writes.csl"),
                                       str(CORPUS / "par_writes.proof"), "-u", str(uni)])
    assert code == 0 and capsys.readouterr().out.endswith(", all pass\n")
    assert _chain("lock_transfer") == CHAIN["lock_transfer"]
    assert len(calls) == memo.cache_info().currsize
    held = 0
    for args in calls:
        cached = memo(*args)
        assert cached == memo.__wrapped__(*args)
        for s in cached:
            code, resources, frame = pieces(s)
            whole = tensor_all([code, *(p for p in resources.values() if p is not None),
                                frame])
            locked = frozenset(r for r, e in s.resources.items()
                               if not isinstance(e, Available))
            assert s.tensor == s.table.index[whole]
            assert combine(s) == MachineState(erase(whole), locked)
            assert s.machine_key() == machine_key(combine(s), s.table)
        held += len(cached)
    assert held > 1000


def test_kept_texts_and_code_locks_are_never_stale(tmp_path, capsys, monkeypatch):
    """After the chain over par_writes on the strategy-chain universe, every
    state the separations memo holds and every response of an extracted
    strategy renders as a fresh state of the same pieces does, and names the
    same code-held locks as a fresh frozenset."""
    memo = separation.separations
    respond = ExtractedStrategy.respond
    calls, responses = set(), []

    def recording(*args):
        calls.add(args)
        return memo(*args)

    def recording_respond(self, *args):
        out = respond(self, *args)
        responses.extend(s for s, _ in out)
        return out
    monkeypatch.setattr(separation, "separations", recording)
    monkeypatch.setattr(game, "separations", recording)
    monkeypatch.setattr(ExtractedStrategy, "respond", recording_respond)
    memo.cache_clear()
    game._refinements.cache_clear()
    uni = tmp_path / "strategy-chain.uni"
    uni.write_text(corpus_text("par_writes.uni").replace("vals = 0..3", "vals = 0..1"))
    code = bench_script("chain").main([str(CORPUS / "par_writes.csl"),
                                       str(CORPUS / "par_writes.proof"), "-u", str(uni)])
    assert code == 0 and capsys.readouterr().out.endswith(", all pass\n")
    states = [s for args in calls for s in memo(*args)] + responses
    assert len(responses) > 100 and len(states) > 1000
    assert sum(s.text is not None for s in states) >= 76
    for s in states:
        fresh = SeparatedState.build(s.table, s.code, s.resources, s.frame)
        assert sep_state_to_text(s) == sep_state_to_text(fresh)
        assert s.dom_code() == frozenset(
            r for r, e in s.resources.items() if e == HELD_BY_CODE)


def test_respond_is_asked_only_about_states_of_its_predicate(
        tmp_path, capsys, monkeypatch):
    """`ExtractedStrategy.respond` does not check the Adam state against its
    position's predicate, because its callers never pass one that fails it:
    on the strategy-chain inputs the checker asks it 456 times, once per
    distinct (position, Adam state, key), each time about a state satisfying
    `strat.spec.predicate_at(position)`."""
    respond = ExtractedStrategy.respond
    asked = []

    def recording(self, key, position, state):
        asked.append(game.sat_sep(state, self.spec.predicate_at(position),
                                  self.rho, self.u))
        return respond(self, key, position, state)
    monkeypatch.setattr(ExtractedStrategy, "respond", recording)
    uni = tmp_path / "strategy-chain.uni"
    uni.write_text(corpus_text("par_writes.uni").replace("vals = 0..3", "vals = 0..1"))
    code = bench_script("chain").main([str(CORPUS / "par_writes.csl"),
                                       str(CORPUS / "par_writes.proof"), "-u", str(uni)])
    assert code == 0 and capsys.readouterr().out.endswith(", all pass\n")
    assert len(asked) == 456 and all(asked)
