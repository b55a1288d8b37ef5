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
from sepgame.game import (NoWin, TraceGame, check_winning_strategy, solve_eve,
                          winning_spec)
from sepgame.logic import (EMPTY_LSTATE, erase, lstate_from_text, lstate_to_text,
                           satisfies, substates, universe_table)
from sepgame.machine import MachineState
from sepgame.maps import fmap
from sepgame.proof import check_proof
from sepgame.semantics import enumerate_traces
from sepgame.separation import (HELD_BY_CODE, Available, SeparatedState, machine_key,
                                sep_state_to_text)
from sepgame.soundness import (ExtractedStrategy, ExtractionFailure,
                               SoundnessAlarm, drive_play, verify_corollary)
from sepgame.syntax import FTrue, Star, parse_proof, parse_universe
from sepgame.traces import Trace

from .builders import combine, pieces, tensor_all
from .conftest import CORPUS, bench_script, corpus_text

# program -> (non-error traces, play nodes the checker explores over them,
#             (position, code fragment, code-held locks) questions the
#             solver asks, initial refinements of the extracted strategies)
CHAIN = {
    "par_writes": (10, 22, 32, 10),
    "framed_assign": (4, 6, 6, 4),
    "lock_transfer": (8, 20, 26, 8),
    "lock_pair": (12, 53, 91, 12),
    "if_def": (6, 12, 16, 6),
    "while_count": (6, 13, 16, 6),
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
    inits = [lstate_from_text(line)
             for line in corpus_text(f"{name}.inits").splitlines() if line.strip()]
    return u, node, check, inits


def _chain(name):
    """Run the chain on every non-error passive trace from the corpus inits;
    returns (traces, play nodes, solver nodes, initial refinements)."""
    return _chain_of(*_load(name))


def _chain_of(u, node, check, inits):
    traces = nodes = solver_nodes = initials = 0
    for init in sorted(inits, key=lstate_to_text):
        start = MachineState(erase(init), frozenset())
        for t, _, _ in enumerate_traces(node.cmd, [start], u, policy="passive"):
            if t.errored:
                continue
            strat = ExtractedStrategy(node, t, u, check.valuation)
            assert strat.initials, "no initial refinement"
            result = check_winning_strategy(strat, t, strat.spec, u)
            assert result.verdict == "pass", result.reason
            solved = solve_eve(t, strat.spec, u)
            assert not isinstance(solved, (NoWin, str)), solved
            traces += 1
            nodes += int(result.reason.split()[1])
            solver_nodes += solved._explored
            initials += len(strat.initials)
    return traces, nodes, solver_nodes, initials


@pytest.mark.parametrize("name", sorted(CHAIN))
def test_chain_holds_on_every_trace(name):
    assert _chain(name) == CHAIN[name]


@pytest.mark.parametrize("name", KNOWN_DEFECTS)
def test_chain_known_defects(name):
    _chain(name)


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
    "ROADMAP item 3: the checker and the solver let a play whose last code "
    "fragment violates the post win, so only verify refutes the false triple"))
def test_the_game_chain_refutes_the_false_triple():
    u, _, _, inits = _load("framed_assign")
    node = parse_proof(FALSE_TRIPLE)
    check = check_proof(node, u, allow_extensions=True)
    assert check.ok, check.violations
    verdicts = []
    for init in inits:
        start = MachineState(erase(init), frozenset())
        for t, _, _ in enumerate_traces(node.cmd, [start], u, policy="passive"):
            if not t.errored:
                strat = ExtractedStrategy(node, t, u, check.valuation)
                verdicts.append(bool(check_winning_strategy(strat, t, strat.spec, u))
                                and not isinstance(solve_eve(t, strat.spec, u), NoWin))
    assert len(verdicts) == 4 and not all(verdicts)


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
    assert _chain_of(u, node, check, inits) == (6, 12, 16, 6)
    report = verify_corollary(check, node, inits, u)
    assert (report["failures"], report["returning"]) == ([], 2)


@pytest.mark.parametrize("name", sorted(CHAIN))
def test_corollary_reports_no_failures(name):
    u, node, check, inits = _load(name)
    report = verify_corollary(check, node, inits, u)
    assert report["failures"] == []
    assert report["traces_checked"] > 0


@pytest.mark.parametrize("name", sorted(CHAIN) + ["seq_load_store", "false triple"])
def test_verify_starts_at_an_initial_position_and_ends_in_the_post(name):
    """Why `verify_corollary` needs neither a search for its initial play nor
    a last check of the post.  From every state satisfying P * true (every
    share, not only full ones), on every non-error passive trace:

    * the first split (a, b) in `substates` order with a satisfying P exists,
      since the state satisfies P * true.  Code a, every resource available
      and empty, and frame b is an initial position of the trace's game: the
      shares of a and b come from `_slot_splits`, so each lies in {0} or
      perms, which `component_assignments` enumerates, and the empty context
      constrains no resource.  Were it not one, `drive_play` would return no
      state and the trace would fail as "play stalled after 0 states";
    * a play of full length driven from there ends in Adam's move to the
      final position, which satisfies that position's predicate, so on a
      returning trace its code fragment satisfies the post.
    """
    if name == "false triple":
        u = parse_universe(corpus_text("framed_assign.uni"))
        node = parse_proof(FALSE_TRIPLE)
    else:
        u, node, _, _ = _load(name)
    assert not len(node.ctx)
    rho = check_proof(node, u, allow_extensions=True).valuation
    table = universe_table(u)
    models = table.models(Star(node.pre, FTrue()), rho)
    inits = [sigma for i, sigma in enumerate(table.states) if models >> i & 1]
    starts = full = 0
    for init in inits:
        a, b = next((a, b) for a, b in substates(init, u) if satisfies(a, node.pre, rho, u))
        initial = SeparatedState.build(table, table.intern(a), fmap(
            {r: Available(table.intern(EMPTY_LSTATE)) for r in u.locks}), table.intern(b))
        start = MachineState(erase(init), frozenset())
        for t, returning, _ in enumerate_traces(node.cmd, [start], u, policy="passive"):
            if t.errored:
                continue
            spec = winning_spec(node.pre, node.ctx, node.post, t, returning, rho)
            assert initial in TraceGame(t, spec, u).initials
            starts += 1
            try:
                play = drive_play(ExtractedStrategy(node, t, u, rho), initial=initial)
            except ExtractionFailure:
                continue
            if len(play) == spec.last and returning:
                assert satisfies(table.state(play[-1].code), node.post, rho, u)
                full += 1
    assert starts > len(inits) > 0
    assert (full > 0) == (name in CHAIN)     # seq_load_store: ROADMAP item 1


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
            assert s.tensor == s.table.intern(whole)
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
