"""The documented exit codes of the command line, through `cli.main`.

A return from `main` (rather than an exception escaping it) is what keeps a
traceback off the terminal.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from sepgame import cli

from .conftest import CORPUS, EXHAUSTIVE_UNIVERSE, corpus_text
from .test_soundness import FALSE_TRIPLE

UNIVERSE = "vars = x\nlocs = 2\nvals = 0..1\nperms = 1/2, 1\nlocks = r\nmaxlen = 2\n"


def _corpus(name, ext):
    return str(CORPUS / f"{name}{ext}")


def _verb(verb, name, *extra):
    """argv for game, solve or verify on a corpus program."""
    return [verb, _corpus(name, ".csl"), _corpus(name, ".proof"),
            "-u", _corpus(name, ".uni"), "--allow-extensions", *extra]


def _main(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("line", ["maxlen = abc", "locs = 2, q", "perms = 1/0",
                                  "perms = 1/2, x", "vals = 0, b"])
def test_malformed_universe_exits_2(tmp_path, capsys, line):
    key, value = (part.strip() for part in line.split("="))
    uni = tmp_path / "bad.uni"
    uni.write_text("\n".join(line if ln.startswith(key) else ln
                             for ln in UNIVERSE.splitlines()))
    code, out, err = _main(["run", _corpus("framed_assign", ".csl"), "-u", str(uni)],
                           capsys)
    assert code == 2
    assert err.startswith("sepgame: ") and len(err.splitlines()) == 1
    assert repr(value.split(",")[-1].strip()) in err


@pytest.mark.parametrize("state", ["{x=0@1|2=zz@1}", "{x=0@0|}", "{x=0@3/2|}",
                                   "{x=0@1/0|}", "{x=0|}", "{q=1@1|x=0@1}"])
def test_malformed_init_exits_2(capsys, state):
    code, out, err = _main(["run", _corpus("framed_assign", ".csl"),
                            "-u", _corpus("framed_assign", ".uni"), "--init", state],
                           capsys)
    assert code == 2
    assert err.startswith("sepgame: ") and len(err.splitlines()) == 1


def test_malformed_inits_file_exits_2(tmp_path, capsys):
    inits = tmp_path / "bad.inits"
    inits.write_text("{x=0@1,y=0@1|}\n{x=0@1|2=zz@1}\n")
    code, out, err = _main(_verb("verify", "par_writes", "--inits", str(inits)),
                           capsys)
    assert code == 2
    assert out == "" and err.startswith("sepgame: ")


def test_parallel_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(_verb("verify", "par_writes", "--parallel", "2"))
    assert exc.value.code == 2


def test_first_init_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", _corpus("par_writes", ".csl"), "-u",
                  _corpus("par_writes", ".uni"), "--first-init"])
    assert exc.value.code == 2


def test_check_has_no_maxlen(capsys):
    """check runs no program, so it has no trace length to bound."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", _corpus("par_writes", ".proof"), "-u",
                  _corpus("par_writes", ".uni"), "--maxlen", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --maxlen 3" in capsys.readouterr().err


def _verify_report(name, failures, extension_rules_used):
    """A report of verify on a corpus program that checks no trace."""
    return {"extension_rules_used": extension_rules_used, "failures": failures,
            "program": _corpus(name, ".csl"), "proof": _corpus(name, ".proof"),
            "returning": 0, "traces_checked": 0,
            "universe": {"env": "passive", "maxlen": 6}}


def _verify_rejects(tmp_path, capsys, name, states, condition, extension_rules_used):
    """verify from inits none of which satisfies `initial_condition`: each
    is a failure that names the condition."""
    inits = tmp_path / "outside.inits"
    inits.write_text("".join(f"{state}\n" for state in states))
    code, out, err = _main(_verb("verify", name, "--inits", str(inits)), capsys)
    assert (code, err) == (1, "")
    assert json.loads(out) == _verify_report(name, [
        {"init": state, "reason": f"initial state does not satisfy {condition}"}
        for state in states], extension_rules_used)


def test_verify_rejects_inits_outside_the_precondition(tmp_path, capsys):
    _verify_rejects(tmp_path, capsys, "framed_assign", ["{x=0@1/2,y=3@1|}", "{|}"],
                    "(own_1(x) * own_1(y)) * true", ["ext_conseq"])


def test_verify_rejects_inits_outside_the_context_invariants(tmp_path, capsys):
    """The init owns x, but not the y that r's invariant owns."""
    _verify_rejects(tmp_path, capsys, "conj_precise", ["{x=0@1|}"],
                    "((own_1(x) * (X = 1) and own_1(x) * (Z = 1)) * "
                    "(own_1(y) and not (own_1(y) * not emp))) * true", [])


def test_verify_rejects_inits_outside_a_points_to_precondition(tmp_path, capsys):
    """The reason prints the precondition's `3 |-> -` as written."""
    _verify_rejects(tmp_path, capsys, "seq_load_store", ["{x=0@1|2=1@1}", "{|}"],
                    "((2 |->[1/2] 1) * own_1(x) * (3 |-> -)) * true", ["ext_conseq"])


def test_verify_plays_the_game_of_a_proof_with_a_context(capsys):
    """The game puts the context's resources into its initial positions, so
    `verify` picks the inits satisfying P * I_r * true: every one of
    conj_precise's 160 traces has an initial refinement, and its 80
    returning traces raise the conj audit's alarm (ROADMAP item 1)."""
    code, out, err = _main(_verb("verify", "conj_precise"), capsys)
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert (report["traces_checked"], report["returning"]) == (160, 80)
    assert Counter((f["reason"], f["trace_len"]) for f in report["failures"]) == {
        ("soundness alarm: root: conj audit failed on the second postcondition", 1): 80}


def store_axiom_argv(tmp_path, verb, *extra):
    """argv for a verb on the `store` axiom {3 |-> -} [3] := x {3 |-> x}
    over seq_load_store's universe at maxlen 3."""
    program, proof = tmp_path / "store.csl", tmp_path / "store.proof"
    program.write_text("[3] := x\n")
    proof.write_text("(store pre: 3 |-> - cmd: [3] := x post: 3 |-> x)\n")
    return [verb, str(program), str(proof), "-u", _corpus("seq_load_store", ".uni"),
            "--maxlen", "3", *extra]


def test_verify_reports_the_error_steps_of_the_store_axiom(tmp_path, capsys):
    """`verify`'s error-step failure.  The `store` axiom owns no share of
    the x it stores (ROADMAP item 1): from each of the 20 inits without x
    its step errs, and its 80 returning traces fail at the final position.
    Item 1's store fix makes the axiom own x, so it will have to move this
    test onto an input that still reaches the error-step path."""
    code, out, err = _main(store_axiom_argv(tmp_path, "verify"), capsys)
    assert (code, err) == (1, "")
    report = json.loads(out)
    assert (report["traces_checked"], report["returning"]) == (200, 80)
    assert Counter((f["reason"], f["trace_len"]) for f in report["failures"]) == {
        ("error step in a passive-environment trace", 1): 20,
        ("no refinement satisfies the post at position 4", 1): 80}
    assert all("x=" not in f["init"] for f in report["failures"]
               if f["reason"].startswith("error step"))


def test_eve_has_no_move_at_the_error_step_of_the_store_axiom(tmp_path, capsys):
    """Eve's one no-move: the store axiom's trace 3 is one erring step, from
    an init without x, so the extracted strategy answers nothing at
    position 2 and the solver finds no winning strategy.  Item 1's store fix
    makes the axiom own x, so it will have to move this test onto another
    erring input."""
    code, out, err = _main(store_axiom_argv(tmp_path, "game", "--trace-index", "3"),
                           capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "trace 3 length=1 returning=no",
        "source { | 2=0 3=0 | }",
        "step err { | 2=0 3=0 | } ; [3] := x ; { | 2=0 3=0 | }",
        "target { | 2=0 3=0 | }",
        "",
        "replay:",
        "I start -> code={|3=0@1} ; res=[r:avail{|}] ; frame={|2=0@1} ; P1 ; pass",
        "A env -> code={|3=0@1} ; res=[r:avail{|}] ; frame={|2=0@1/2} ; P2 ; pass",
        "",
        "strategy check: fail (no Eve response at position 2)"]
    code, out, err = _main(store_axiom_argv(tmp_path, "solve", "--trace-index", "3"),
                           capsys)
    assert (code, err) == (1, "")
    assert out.splitlines()[0] == "solver verdict: no winning strategy"


def test_emit_replays_under_a_context(capsys):
    """A replay is the checker's play, so under a context it starts at an
    initial position of the game: r holds y, which its invariant owns."""
    code, out, err = _main(_verb("verify", "conj_precise", "--emit-replays", "--inits",
                                 _corpus("conj_precise", ".inits")), capsys)
    assert (code, err) == (1, "")
    (replay,) = json.loads(out)["replays"]
    assert (replay["init"], replay["trace_len"]) == ("{x=0@1,y=0@1|}", 0)
    assert replay["lines"] == [
        f"{label} -> code={{x=0@1|}} ; res=[r:avail{{y=0@1|}}] ; frame={{|}} ; P{i} ; pass"
        for i, label in enumerate(["I start", "A env"], start=1)]


def test_extraction_failure_is_a_report_entry(capsys):
    code, out, err = _main(_verb("verify", "seq_load_store",
                                 "--inits", _corpus("seq_load_store", ".inits")),
                           capsys)
    assert code == 1
    report = json.loads(out)
    assert report["failures"]
    assert report["failures"][0]["reason"] == (
        "extraction failed: root.0.1 (frame): "
        "no split of the code fragment matches P * R")
    assert err == ""


def _verify_false_triple(tmp_path, capsys, *extra):
    """verify of ROADMAP item 1's false triple from framed_assign's corpus
    inits at maxlen 3: exit code, report and stderr."""
    proof = tmp_path / "false_triple.proof"
    proof.write_text(FALSE_TRIPLE)
    code, out, err = _main(["verify", _corpus("framed_assign", ".csl"), str(proof),
                            "-u", _corpus("framed_assign", ".uni"), "--allow-extensions",
                            "--maxlen", "3", "--inits", _corpus("framed_assign", ".inits"),
                            *extra], capsys)
    return code, json.loads(out), err


FALSE_TRIPLE_FAILURES = [
    {"init": "{x=0@1,y=3@1|}", "trace_len": 1,
     "reason": "no refinement satisfies the post at position 4"},
    {"init": "{x=2@1,y=0@1|}", "trace_len": 1,
     "reason": "no refinement satisfies the post at position 4"}]


def test_verify_refutes_the_false_triple(tmp_path, capsys):
    code, report, err = _verify_false_triple(tmp_path, capsys)
    assert (code, err) == (1, "")
    assert report["failures"] == FALSE_TRIPLE_FAILURES
    assert (report["traces_checked"], report["returning"]) == (4, 2)
    assert "replays" not in report


def _replay(*lines):
    """Replay lines of a play that keeps r available and empty, and the frame empty."""
    return [f"{line} ; res=[r:avail{{|}}] ; frame={{|}} ; P{i} ; pass"
            for i, line in enumerate(lines, start=1)]


FALSE_TRIPLE_REPLAYS = [
    {"init": "{x=0@1,y=3@1|}", "trace_len": 0, "lines": _replay(
        "I start -> code={x=0@1,y=3@1|}",
        "A env -> code={x=0@1,y=3@1|}")},
    {"init": "{x=0@1,y=3@1|}", "trace_len": 1, "lines": _replay(
        "I start -> code={x=0@1,y=3@1|}",
        "A env -> code={x=0@1,y=3@1|}",
        "E x := 1 -> code={x=1@1,y=3@1|}")},
    {"init": "{x=2@1,y=0@1|}", "trace_len": 0, "lines": _replay(
        "I start -> code={x=2@1,y=0@1|}",
        "A env -> code={x=2@1,y=0@1|}")},
    {"init": "{x=2@1,y=0@1|}", "trace_len": 1, "lines": _replay(
        "I start -> code={x=2@1,y=0@1|}",
        "A env -> code={x=2@1,y=0@1|}",
        "E x := 1 -> code={x=1@1,y=0@1|}")},
]


def test_emit_replays_of_the_false_triple(tmp_path, capsys):
    """A replay of every checked trace, the refuted ones included: the play
    the checker's verdict rests on.  A refuted length-1 trace replays as the
    checker's counterexample, three lines, all pass: Adam has no move from
    its last state to the final position 4, so the post fails there
    (ROADMAP item 12)."""
    code, report, err = _verify_false_triple(tmp_path, capsys, "--emit-replays")
    assert (code, err, report["failures"]) == (1, "", FALSE_TRIPLE_FAILURES)
    assert report["replays"] == FALSE_TRIPLE_REPLAYS


def _play_false_triple(tmp_path, capsys, verb):
    """game or solve on trace 11 of the false triple at maxlen 3."""
    proof = tmp_path / "false_triple.proof"
    proof.write_text(FALSE_TRIPLE)
    return _main([verb, _corpus("framed_assign", ".csl"), str(proof),
                  "-u", _corpus("framed_assign", ".uni"), "--allow-extensions",
                  "--maxlen", "3", "--trace-index", "11"], capsys)


def test_game_replays_the_counterexample_of_the_false_triple(tmp_path, capsys):
    """`game` prints the checker's play as its replay: on a refuted trace,
    the counterexample that ends where Adam has no move to the post."""
    code, out, err = _play_false_triple(tmp_path, capsys, "game")
    assert (code, err) == (1, "")
    assert out.split("replay:\n")[1].splitlines() == _replay(
        "I start -> code={x=0@1,y=0@1|}",
        "A env -> code={x=0@1,y=0@1|}",
        "E x := 1 -> code={x=1@1,y=0@1|}") + [
        "", "strategy check: fail (no refinement satisfies the post at position 4)"]


@pytest.mark.parametrize("verb, line", [
    ("game", "strategy check: fail (no refinement satisfies the post at position 4)"),
    ("solve", "counterexample initial: code={x=0@1,y=0@1|} ; res=[r:avail{|}] ; frame={|}"),
])
def test_game_and_solve_refute_the_false_triple(tmp_path, capsys, verb, line):
    """Trace 11 runs `x := 1` from x = 0, y = 0: Eve's code fragment breaks
    the post's x = 2, so Adam has no move to the final position 4."""
    code, out, err = _play_false_triple(tmp_path, capsys, verb)
    assert (code, out.splitlines()[-1], err) == (1, line, "")


@pytest.mark.parametrize("name, index, message", [
    ("seq_load_store", "89", "sepgame: root.0.1 (frame): "),
    ("conj_precise", "11", "sepgame: root: conj audit failed"),
])
def test_game_extraction_errors_exit_1(capsys, name, index, message):
    code, out, err = _main(_verb("game", name, "--trace-index", index,
                                 "--maxlen", "2"), capsys)
    assert code == 1
    assert err.startswith(message) and len(err.splitlines()) == 1


@pytest.mark.parametrize("verb, line", [
    ("game", "strategy check: vacuous (no initial refinement)"),
    ("solve", "solver verdict: vacuous (no initial refinement)"),
])
def test_vacuous_game_and_solve_exit_1(capsys, verb, line):
    code, out, err = _main(_verb(verb, "if_def", "--trace-index", "0"), capsys)
    assert code == 1
    assert out.splitlines()[-1] == line


def test_vacuous_verify_exits_1(capsys):
    code, out, err = _main(_verb("verify", "par_writes", "--inits", "/dev/null"),
                           capsys)
    assert code == 1
    assert json.loads(out)["traces_checked"] == 0
    assert err == "verify: vacuous (no trace checked)\n"


@pytest.mark.parametrize("argv", [
    ["run", _corpus("par_writes", ".csl"), "-u", _corpus("par_writes", ".uni"),
     "--maxlen", "-2"],
    ["run", _corpus("par_writes", ".csl"), "-u", _corpus("par_writes", ".uni"),
     "--max-traces", "-1"],
    _verb("game", "if_def", "--trace-index", "10", "--budget", "-3"),
    _verb("solve", "if_def", "--trace-index", "10", "--budget", "-3"),
], ids=["maxlen", "max-traces", "game-budget", "solve-budget"])
def test_negative_count_option_exits_2(capsys, argv):
    option = argv[-2]
    code, out, err = _main(argv, capsys)
    assert code == 2
    assert out == "" and err == f"sepgame: {option} must be >= 0\n"
    assert _main(argv[:-1] + ["0"], capsys)[0] != 2


@pytest.mark.parametrize("verb, line", [
    ("game", "strategy check: pass (explored 1 play nodes)"),
    ("solve", "solver verdict: winning strategy found (1 initial states)"),
])
def test_covered_game_and_solve_exit_0(capsys, verb, line):
    code, out, err = _main(_verb(verb, "if_def", "--trace-index", "10"), capsys)
    assert code == 0
    assert out.splitlines()[-1] == line


# ext_alloc's own post has no model (ROADMAP item 1), so the proof weakens
# it to one that has
ALLOC_PROOF = """(ext_conseq pre: own_1(x) * (X = 0) cmd: x := alloc(0)
             post: own_1(x) and (x |-> X) val: [X = 0]
  (ext_alloc pre: own_1(x) * (X = 0) cmd: x := alloc(0)
             post: own_1(x) * (x |-> X) val: [X = 0]))
"""


@pytest.mark.parametrize("verb, line", [
    ("game", "strategy check: pass (explored 18 play nodes)"),
    ("solve", "solver verdict: winning strategy found (9 initial states)"),
])
def test_game_and_solve_past_an_allocation(tmp_path, capsys, verb, line):
    """After `x := alloc(0)` on tiny.uni widened to vals = 0..3, x holds
    location 2, a declared value: Eve moves onto the allocated cell."""
    (tmp_path / "a.csl").write_text("x := alloc(0)\n")
    (tmp_path / "a.proof").write_text(ALLOC_PROOF)
    (tmp_path / "a.uni").write_text(corpus_text("tiny.uni").replace("vals = 0..1",
                                                                     "vals = 0..3"))
    code, out, err = _main([verb, str(tmp_path / "a.csl"), str(tmp_path / "a.proof"),
                            "-u", str(tmp_path / "a.uni"), "--allow-extensions",
                            "--trace-index", "36"], capsys)
    assert (code, out.splitlines()[-1], err) == (0, line, "")
    assert verb == "solve" or "step ok {x=0 y=0 |  | } ; x := alloc(0) ; {x=2 y=0 | 2=0 | }" in out


def test_an_allocation_outside_the_values_errs(tmp_path, capsys):
    """On tiny.uni the free locations 2 and 3 are no declared values, so
    `x := alloc(0)` errs instead of making a state `run --init` would refuse."""
    (tmp_path / "a.csl").write_text("x := alloc(0)\n")
    code, out, err = _main(["run", str(tmp_path / "a.csl"), "-u", _corpus("tiny", ".uni"),
                            "--init", "{x=0@1,y=0@1|}"], capsys)
    assert (code, err) == (0, "")
    assert "step err {x=0 y=0 |  | } ; x := alloc(0) ; {x=0 y=0 |  | }" in out.splitlines()
    assert out.splitlines()[-1] == "total 2 traces, 0 returning"


def test_a_permission_set_not_closed_under_sums_exits_2(tmp_path, capsys):
    uni = tmp_path / "open.uni"
    uni.write_text(UNIVERSE.replace("perms = 1/2, 1", "perms = 1/4, 1/2, 1"))
    code, out, err = _main(["check", _corpus("framed_assign", ".proof"), "-u", str(uni),
                            "--allow-extensions"], capsys)
    assert code == 2
    assert out == "" and err == ("sepgame: permission set is not closed under sums: "
                                 "1/4 + 1/2 = 3/4\n")


MOVE_UNIVERSE = UNIVERSE.replace("maxlen = 2\n", "maxlen = 2\nenv = move-list\n")


@pytest.mark.parametrize("move", ["{x=a | | } -> {x=1 | | }",
                                  "{x=0 | 2=1/2 | } -> {x=1 | | }"])
def test_malformed_move_line_exits_2(tmp_path, capsys, move):
    uni = tmp_path / "moves.uni"
    uni.write_text(MOVE_UNIVERSE + f"move = {move}\n")
    code, out, err = _main(["run", _corpus("framed_assign", ".csl"), "-u", str(uni)],
                           capsys)
    assert code == 2
    assert out == "" and err.startswith("sepgame: bad binding ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("move, what", [
    ("{x=0 | | } -> {x=7 | | }", "value 7"),
    ("{x=0 | | } -> {x=1 | | q}", "lock q"),
    ("{q=0 | | } -> {x=1 | | }", "variable q"),
    ("{x=0 | 9=0 | } -> {x=1 | | }", "location 9"),
])
def test_move_outside_the_universe_exits_2(tmp_path, capsys, move, what):
    uni = tmp_path / "moves.uni"
    uni.write_text(MOVE_UNIVERSE + f"move = {move}\n")
    code, out, err = _main(["run", _corpus("framed_assign", ".csl"), "-u", str(uni)],
                           capsys)
    assert code == 2
    assert out == "" and err.startswith(f"sepgame: {what} of state ")


@pytest.mark.parametrize("state, what", [
    ("{q=7@1|9=9@1}", "variable q"),
    ("{x=0@1|9=0@1}", "location 9"),
    ("{x=7@1|}", "value 7"),
    ("{x=0@1/3|}", "permission 1/3"),
])
def test_init_outside_the_universe_exits_2(capsys, state, what):
    code, out, err = _main(["run", _corpus("framed_assign", ".csl"),
                            "-u", _corpus("framed_assign", ".uni"), "--init", state],
                           capsys)
    assert code == 2
    assert out == "" and err.startswith(f"sepgame: {what} of state {state!r}")


def test_inits_file_outside_the_universe_exits_2(tmp_path, capsys):
    inits = tmp_path / "outside.inits"
    inits.write_text("{x=0@1,y=0@1|}\n{x=0@1,y=0@1,z=0@1|}\n")
    code, out, err = _main(_verb("verify", "par_writes", "--inits", str(inits)),
                           capsys)
    assert code == 2
    assert out == "" and err.startswith("sepgame: variable z of state ")


@pytest.mark.parametrize("verb", ["run", "verify", "game", "solve"])
def test_program_outside_the_universe_exits_2(tmp_path, capsys, verb):
    prog = tmp_path / "undeclared.csl"
    prog.write_text("x := 1 ; z := 1\n")
    proof = [] if verb == "run" else [_corpus("if_def", ".proof")]
    index = ["--trace-index", "0"] if verb in ("game", "solve") else []
    code, out, err = _main([verb, str(prog), *proof, "-u", _corpus("if_def", ".uni"),
                            *index], capsys)
    assert code == 2
    assert out == "" and err == "sepgame: variable z of the program is not in the universe\n"


@pytest.mark.parametrize("pre, col", [("own_1/0(x)", 16), ("2 |->[1/0] 1", 22)])
def test_zero_denominator_exits_2(tmp_path, capsys, pre, col):
    proof = tmp_path / "zero.proof"
    proof.write_text(f"(ext_skip pre: {pre} cmd: skip post: emp)\n")
    code, out, err = _main(["check", str(proof), "-u", _corpus("if_def", ".uni")], capsys)
    assert code == 2 and out == ""
    assert err == f"sepgame: permission 1/0 has a zero denominator at 1:{col}\n"

@pytest.mark.parametrize("verb", ["run", "verify", "game", "solve"])
@pytest.mark.parametrize("program", ["with q when true do x := 1",
                                     "resource q do skip"])
def test_program_lock_outside_the_universe_exits_2(tmp_path, capsys, verb, program):
    # game once ended in a KeyError on the undeclared lock
    prog, uni = tmp_path / "undeclared.csl", tmp_path / "r.uni"
    prog.write_text(program + "\n")
    uni.write_text(UNIVERSE)
    proof = tmp_path / "with_q.proof"
    proof.write_text("(with ctx: [q: own_1(x)] pre: emp cmd: with q when true do x := 1"
                     " post: emp (ext_conseq pre: (emp * own_1(x)) and true cmd: x := 1"
                     " post: emp * own_1(x) (aff pre: own_1(x) * (X = 1) cmd: x := 1"
                     " post: own_1(x) * (x = X) val: [X = 1])))\n")
    rest = ([] if verb == "run" else [str(proof), "--allow-extensions"]) + (
        ["--trace-index", "1"] if verb in ("game", "solve") else [])
    code, out, err = _main([verb, str(prog), "-u", str(uni), *rest], capsys)
    assert code == 2
    assert out == "" and err == "sepgame: lock q of the program is not in the universe\n"


# z is no variable and q no lock of UNIVERSE; each proof names one of them
# in its formulas and commands, its context or its res rule
UNDECLARED = {
    "z": ("(ext_conseq pre: own_1(z) cmd: z := 1 post: own_1(z) and z = 1 "
          "(aff pre: own_1(z) * (X = 1) cmd: z := 1 post: own_1(z) * (z = X) "
          "val: [X = 1]))\n"),
    "ctx_q": ("(aff ctx: [q: emp] pre: own_1(x) * (X = 1) cmd: x := 1 "
              "post: own_1(x) * (x = X) val: [X = 1])\n"),
    "res_q": ("(res r: q inv: emp pre: own_1(x) cmd: resource q do x := 1 "
              "post: own_1(x) * (x = X) (aff pre: own_1(x) * (X = 1) cmd: x := 1 "
              "post: own_1(x) * (x = X) val: [X = 1]))\n"),
}


@pytest.mark.parametrize("verb, name, what", [
    ("check", "z", "variable z"), ("check", "ctx_q", "lock q"),
    ("check", "res_q", "lock q"), ("verify", "z", "variable z"),
    ("game", "z", "variable z"), ("solve", "z", "variable z"),
])
def test_proof_outside_the_universe_exits_2(tmp_path, capsys, verb, name, what):
    # check once accepted the proof of z with exit 0
    prog, uni, proof = (tmp_path / "x.csl", tmp_path / "r.uni",
                        tmp_path / "undeclared.proof")
    prog.write_text("x := 1\n")
    uni.write_text(UNIVERSE)
    proof.write_text(UNDECLARED[name])
    program = [] if verb == "check" else [str(prog)]
    index = ["--trace-index", "1"] if verb in ("game", "solve") else []
    code, out, err = _main([verb, *program, str(proof), "-u", str(uni),
                            "--allow-extensions", *index], capsys)
    assert code == 2
    assert out == "" and err == f"sepgame: {what} of the proof is not in the universe\n"


@pytest.mark.parametrize("line, what", [
    ("vars = x, x", "variable x"), ("locs = 2, 2", "location 2"),
    ("vals = 0, 1, 1", "value 1"), ("perms = 1/2, 1, 1", "permission 1"),
    ("perms = 1/2, 2/4, 1", "permission 1/2"), ("locks = r, r", "lock r"),
])
def test_repeated_universe_entry_exits_2(tmp_path, capsys, line, what):
    key = line.split("=")[0].strip()
    uni = tmp_path / "repeated.uni"
    uni.write_text("\n".join(line if ln.startswith(key) else ln
                             for ln in UNIVERSE.splitlines()))
    code, out, err = _main(["run", _corpus("framed_assign", ".csl"), "-u", str(uni)],
                           capsys)
    assert code == 2
    assert out == "" and err == f"sepgame: repeated {what}\n"


AFF = ("(aff {ctx}pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X) "
       "val: [{val}])\n")


@pytest.mark.parametrize("kind, text, message", [
    ("init", "{x=0@1,x=1@1|}", "repeated binding x in '{x=0@1,x=1@1|}'"),
    ("init", "{x=0@1|2=0@1,2=1@1}", "repeated binding 2 in '{x=0@1|2=0@1,2=1@1}'"),
    ("move", "{x=0 x=1 | | } -> {x=1 | | }", "repeated binding x in '{x=0 x=1 | | }'"),
    ("proof", AFF.format(ctx="", val="X = 2, X = 1"),
     "repeated binding X in valuation at 1:"),
    ("proof", AFF.format(ctx="ctx: [r: emp, r: own_1(x)] ", val="X = 1"),
     "repeated binding r in context at 1:"),
])
def test_repeated_binding_exits_2(tmp_path, capsys, kind, text, message):
    program, uni = _corpus("framed_assign", ".csl"), _corpus("framed_assign", ".uni")
    if kind == "init":
        argv = ["run", program, "-u", uni, "--init", text]
    elif kind == "move":
        moves = tmp_path / "moves.uni"
        moves.write_text(MOVE_UNIVERSE + f"move = {text}\n")
        argv = ["run", program, "-u", str(moves)]
    else:
        proof = tmp_path / "repeated.proof"
        proof.write_text(text)
        argv = ["check", str(proof), "-u", uni]
    code, out, err = _main(argv, capsys)
    assert code == 2
    assert out == "" and err.startswith(f"sepgame: {message}")
    assert len(err.splitlines()) == 1


UNINSTANTIATED = """(ext_conseq pre: own_1(x) * (X = 1) cmd: x := 1
  post: own_1(x) * (x = X)
  (aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X)))
"""


# only the premise names X, so the consequence's side condition at the root
# cannot be decided; the premise reports the variable
PREMISE_ONLY = """(ext_conseq pre: own_1(x) cmd: x := 1 post: own_1(x)
  (aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X)))
"""


def _check_framed_assign(tmp_path, capsys, verb, text):
    """check or verify of a proof text on framed_assign: exit code, the
    violations as (node path, rule, reason) and stderr."""
    proof = tmp_path / "no_val.proof"
    proof.write_text(text)
    program = [_corpus("framed_assign", ".csl")] if verb == "verify" else []
    code, out, err = _main([verb, *program, str(proof), "-u",
                            _corpus("framed_assign", ".uni"), "--allow-extensions"],
                           capsys)
    return code, [(v["node_path"], v["rule"], v["reason"]) for v in json.loads(out)], err


@pytest.mark.parametrize("verb", ["check", "verify"])
def test_uninstantiated_logical_variable_is_reported(tmp_path, capsys, verb):
    assert _check_framed_assign(tmp_path, capsys, verb, UNINSTANTIATED) == (1, [
        ("root", "ext_conseq", "logical variables not instantiated: ['X']"),
        ("root.0", "aff", "logical variables not instantiated: ['X']")], "")


@pytest.mark.parametrize("verb", ["check", "verify"])
def test_variable_of_a_premise_alone_is_reported(tmp_path, capsys, verb):
    assert _check_framed_assign(tmp_path, capsys, verb, PREMISE_ONLY) == (1, [
        ("root.0", "aff", "logical variables not instantiated: ['X']")], "")


@pytest.mark.parametrize("verb", ["check", "verify", "run"])
def test_unwritable_output_exits_2(tmp_path, capsys, verb):
    """A missing directory (check, verify) or a directory (run) as --output
    is an I/O error."""
    path = tmp_path if verb == "run" else tmp_path / "missing" / "out"
    argv = {"check": ["check", _corpus("framed_assign", ".proof"),
                      "-u", _corpus("framed_assign", ".uni")],
            "verify": _verb("verify", "framed_assign"),
            "run": ["run", _corpus("framed_assign", ".csl"),
                    "-u", _corpus("framed_assign", ".uni")]}[verb]
    code, out, err = _main([*argv, "--output", str(path)], capsys)
    assert code == 2
    assert out == "" and err.startswith(f"sepgame: cannot write {path}: ")
    assert len(err.splitlines()) == 1


def test_a_reader_that_leaves_early_gets_exit_2_and_one_line(tmp_path):
    """`run ... | head -1`: the output (about 360 kB) outgrows the pipe, so
    the write fails once the reader has closed it."""
    (tmp_path / "x.csl").write_text("x := 1\n")
    (tmp_path / "x.uni").write_text(EXHAUSTIVE_UNIVERSE)
    src = str(Path(cli.__file__).parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sepgame.cli", "run", str(tmp_path / "x.csl"),
         "-u", str(tmp_path / "x.uni")], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline() == b"trace 0 returning=no length=0\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "sepgame: cannot write output: Broken pipe\n"


@pytest.mark.parametrize("which", ["program", "proof", "universe", "inits"])
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, which):
    bad = tmp_path / f"bad.{which}"
    bad.write_bytes(b"\xff\xfe x := 1\n")
    argv = {"program": ["run", str(bad), "-u", _corpus("par_writes", ".uni")],
            "proof": ["check", str(bad), "-u", _corpus("par_writes", ".uni")],
            "universe": ["run", _corpus("par_writes", ".csl"), "-u", str(bad)],
            "inits": _verb("verify", "par_writes", "--inits", str(bad))}[which]
    code, out, err = _main(argv, capsys)
    assert code == 2
    assert out == "" and err.startswith(f"sepgame: cannot read {bad}: ")
    assert len(err.splitlines()) == 1


DEEP = {"sequence": " ; ".join(["x := 1"] * 1000),
        "parentheses": "x := " + "(" * 500 + "1" + ")" * 500}


@pytest.mark.parametrize("shape", sorted(DEEP))
@pytest.mark.parametrize("verb", ["run", "check"])
def test_input_nested_too_deeply_exits_2(tmp_path, capsys, verb, shape):
    if verb == "run":
        (tmp_path / "deep.csl").write_text(DEEP[shape])
        argv = ["run", str(tmp_path / "deep.csl"), "-u", _corpus("par_writes", ".uni")]
    else:
        (tmp_path / "deep.proof").write_text(
            f"(ext_skip pre: emp cmd: {DEEP[shape]} post: emp)")
        argv = ["check", str(tmp_path / "deep.proof"), "-u", _corpus("par_writes", ".uni")]
    code, out, err = _main(argv, capsys)
    assert (code, out, err) == (2, "", "sepgame: input nested too deeply\n")


def test_a_long_sequence_still_runs(tmp_path, capsys):
    """800 statements parse within the recursion limit and run."""
    (tmp_path / "long.csl").write_text(" ; ".join(["x := 1"] * 800))
    (tmp_path / "x.uni").write_text(UNIVERSE)
    code, out, err = _main(["run", str(tmp_path / "long.csl"), "-u",
                            str(tmp_path / "x.uni")], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("total 27 traces, 0 returning\n")
