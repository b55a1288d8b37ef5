"""A statement ledger per module (ROADMAP items 9 and 10): every statement
in a function body of the module runs under the module's fixed in-process
sweep, or is listed in its UNREACHED table with the reason no input of the
sweep reaches it.

`soundness.py`'s sweep: `verify_corollary` with replays on each corpus
program from its .inits at maxlen 3, then on ROADMAP item 1's false
triple, then the `store` axiom through `verify` and through `game
--trace-index 3`, whose one step errs.  `separation.py`'s sweep is that
one, then `solve_eve` on every trace `judged_traces` extracts a strategy
on, from each corpus program's .inits at maxlen 3.  The memos that would
let a sweep skip a module's bodies are emptied first.  Only frames of the
module are traced, line by line; the tracer in place before is restored
afterwards.  A statement is keyed by its function's qualified name and its
first source line, stripped, so a table survives edits elsewhere in the
module.  The test fails on a statement that neither ran nor is listed, and
on a listed one that ran: the tables only shrink.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

from sepgame import cli, game, separation, soundness
from sepgame.logic import universe_table
from sepgame.proof import check_proof
from sepgame.syntax import parse_proof, parse_universe

from .conftest import CORPUS, PROGRAMS, corpus_inits, corpus_text
from .test_cli import store_axiom_argv
from .test_soundness import FALSE_TRIPLE

SOUND = "the lifting stays consistent on every sweep input; only an unsound lifting reaches it"
ABSTRACT = "abstract: every lifter class overrides it"
WITNESS = ("a lifter is built on its node's own command's membership answer, and the "
           "semantics answers that command's shape with this witness type")

# Statement key -> why no input of the sweep runs it.
SOUNDNESS_UNREACHED = {
    '_Lifter._join: raise SoundnessAlarm(f"{self.path}: {reason}")': SOUND,
    "_Lifter.start: raise NotImplementedError": ABSTRACT,
    "_Lifter.eve: raise NotImplementedError": ABSTRACT,
    "AtomLifter._owned_cell: raise SoundnessAlarm(":
        "every corpus store and the store axiom write a literal address",
    'AtomLifter._owned_cell: raise SoundnessAlarm(f"{self.path}: {what} cell not owned")':
        "a checked store's precondition owns its cell whole, so the code fragment holds it",
    'AtomLifter.eve: elif tag == "ext_alloc":':
        "no corpus proof uses ext_alloc, ext_dispose or ext_skip",
    "AtomLifter.eve: loc = post.stack[cmd.var]": "no corpus proof uses ext_alloc",
    'AtomLifter.eve: new_code = self._put(self._put(code, "s", cmd.var, loc), "h", loc, '
    "post.heap[loc])": "no corpus proof uses ext_alloc",
    'AtomLifter.eve: elif tag == "ext_dispose":': "no corpus proof uses ext_dispose",
    'AtomLifter.eve: new_code = self._put(code, "h", self._owned_cell(cmd.addr, code, '
    '"disposed"))': "no corpus proof uses ext_dispose",
    "AtomLifter.eve: new_code = code": "no corpus proof uses ext_skip",
    'ParLifter._setup: self._fail(f"unexpected witness {type(w).__name__}")': WITNESS,
    'ResLifter._setup: self._fail(f"unexpected witness {type(w).__name__}")': WITNESS,
    'GuardLifter._seq_parts: self._fail(f"unexpected witness {type(w).__name__}")': WITNESS,
    "ConjLifter.start: raise SoundnessAlarm(":
        "the fragment a conj node starts on satisfies its pre, P1 and P2, so P2 holds",
    "ConjLifter.eve: return code2, updates, (inner2,)":
        "conj_precise's returning traces all raise the post audit (ROADMAP item 1) "
        "and its other traces have no step",
    "GuardLifter._own_step: raise SoundnessAlarm(":
        "an acquire step needs its lock free, and the game keeps a free lock's "
        "resource Available",
    'ExtractedStrategy.__init__: raise ExtractionFailure("root", node.tag,':
        "every caller extracts on a trace enumerated from the proof's own command",
    "ExtractedStrategy.respond: res2 = res2.set(r, entry)":
        "no corpus proof takes a lock of its root context: each with sits under "
        "a res, which keeps its resource's updates",
    'ExtractedStrategy.respond: raise SoundnessAlarm(f"extracted move is not separated: '
    '{exc}")': SOUND,
}

NO_LOCK_STEP = "no root game takes a lock step: every corpus `with` sits under a `res`"

SEPARATION_UNREACHED = {
    'SeparatedState.build: raise SeparationError("separated-state tensor is undefined")':
        "`separations` passes the tensor it read off, and every move the sweep's "
        "extracted strategies make has pieces that tensor",
    "_join: return None":
        "every join the sweep asks for is of pieces of one state that tensors",
    "component_assignments: return":
        "the fixed pieces are the code of a state refining the target, or what an Eve "
        "move keeps of a state the step's outcome holds, so the target holds their cells",
    "legal_eve_move: return False":
        "`eve_fault` judges only the extracted strategies' moves, which keep the frame "
        "and combine into an outcome of the step on every sweep input",
    "enumerate_eve_moves: return iter(())":
        "Eve's moves are asked for only onto the trace's next state at a step that "
        "does not err, and the trace's step returns that state",
    "enumerate_eve_moves: if not isinstance(entries.get(r), Available):": NO_LOCK_STEP,
    "enumerate_eve_moves: return iter(()) #2": NO_LOCK_STEP,
    "enumerate_eve_moves: entries[r] = HELD_BY_CODE": NO_LOCK_STEP,
    "enumerate_eve_moves: if entries.get(r) != HELD_BY_CODE:": NO_LOCK_STEP,
    "enumerate_eve_moves: return iter(()) #3": NO_LOCK_STEP,
    "enumerate_eve_moves: entries[r] = None": NO_LOCK_STEP,
}


def _statements(source):
    """(key, first line) of every statement inside a function body of the
    source file, docstrings excluded; a key's n-th repeat ends in ` #n`."""
    text = source.read_text(encoding="utf-8")
    lines, tree = text.splitlines(), ast.parse(text)
    docstrings = {f.body[0] for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and ast.get_docstring(f) is not None}
    found, seen = [], Counter()

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.stmt) and child not in docstrings:
                key = f"{scope}: {lines[child.lineno - 1].strip()}"
                seen[key] += 1
                if seen[key] > 1:
                    key += f" #{seen[key]}"
                found.append((key, child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."),
                      isinstance(child, ast.FunctionDef))
            else:
                visit(child, scope, in_function)

    visit(tree, "", False)
    return found


def _soundness_sweep(tmp_path):
    for name in PROGRAMS:
        _verify(name, corpus_text(f"{name}.proof"))
    _verify("framed_assign", FALSE_TRIPLE)
    cli.main(store_axiom_argv(tmp_path, "verify"))
    cli.main(store_axiom_argv(tmp_path, "game", "--trace-index", "3"))


def _separation_sweep(tmp_path):
    _soundness_sweep(tmp_path)
    for name in PROGRAMS:
        u, node, check = _checked(name, corpus_text(f"{name}.proof"))
        for _, t, _, strat, _ in soundness.judged_traces(node, corpus_inits(name), u,
                                                         check.valuation, maxlen=3):
            if strat is not None:
                game.solve_eve(t, strat.spec, u)


def _checked(name, proof):
    u = parse_universe(corpus_text(f"{name}.uni"))
    node = parse_proof(proof)
    return u, node, check_proof(node, u, allow_extensions=True)


def _verify(name, proof):
    u, node, check = _checked(name, proof)
    soundness.verify_corollary(check, node, corpus_inits(name), u, maxlen=3,
                               emit_replays=True)


# (module, sweep, UNREACHED) per module the ledger covers
LEDGERS = [(soundness, _soundness_sweep, SOUNDNESS_UNREACHED),
           (separation, _separation_sweep, SEPARATION_UNREACHED)]


def _forget_memos():
    """Empty the memos of separated states and of index joins and wholes,
    so that a sweep runs the bodies it asks about."""
    separation.separations.cache_clear()
    game._refinements.cache_clear()
    for uni in CORPUS.glob("*.uni"):
        table = universe_table(parse_universe(uni.read_text()))
        table.joins.clear()
        table.wholes.clear()


def _lines_run(module, sweep, tmp_path):
    """The lines of the module that run under the sweep."""
    ran, path = set(), module.__file__

    def on_line(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == path else None

    _forget_memos()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        sweep(tmp_path)
    finally:
        sys.settrace(previous)
    return ran


def test_every_statement_runs_or_is_listed(tmp_path):
    for module, sweep, unreached in LEDGERS:
        ran = _lines_run(module, sweep, tmp_path)
        unrun = {key for key, line in _statements(Path(module.__file__)) if line not in ran}
        where = module.__name__
        assert sorted(unrun - unreached.keys()) == [], f"{where}: neither run nor listed"
        assert sorted(unreached.keys() - unrun) == [], f"{where}: listed, but ran or gone"
