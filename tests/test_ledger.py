"""A statement ledger for `soundness.py` (ROADMAP items 9 and 10): every
statement in a function body runs under one fixed in-process sweep, or is
listed in UNREACHED with the reason no input of the sweep reaches it.

The sweep: `verify_corollary` with replays on each corpus program from its
.inits at maxlen 3, then on ROADMAP item 1's false triple, then the `store`
axiom through `verify` and through `game --trace-index 3`, whose one step
errs.  Only frames of `soundness.py` are traced, line by line; the tracer
in place before is restored afterwards.  A statement is keyed by its
function's qualified name and its first source line, stripped, so the table
survives edits elsewhere in the module.  The test fails on a statement that
neither ran nor is listed, and on a listed one that ran: the table only
shrinks.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

from sepgame import cli, soundness
from sepgame.proof import check_proof
from sepgame.syntax import parse_proof, parse_universe

from .conftest import PROGRAMS, corpus_inits, corpus_text
from .test_cli import store_axiom_argv
from .test_soundness import FALSE_TRIPLE

SOURCE = Path(soundness.__file__)

SOUND = "the lifting stays consistent on every sweep input; only an unsound lifting reaches it"
OFF_TABLE = ("every code fragment the sweep writes to is one the universe table "
             "enumerates, and the written cell and value are the table's own")
ABSTRACT = "abstract: every lifter class overrides it"
WITNESS = ("a lifter is built on its node's own command's membership answer, and the "
           "semantics answers that command's shape with this witness type")

# Statement key -> why no input of the sweep runs it.
UNREACHED = {
    '_Lifter._join: raise SoundnessAlarm(f"{self.path}: {reason}")': SOUND,
    "_Lifter.start: raise NotImplementedError": ABSTRACT,
    "_Lifter.eve: raise NotImplementedError": ABSTRACT,
    "AtomLifter._owned_cell: raise SoundnessAlarm(":
        "every corpus store and the store axiom write a literal address",
    'AtomLifter._owned_cell: raise SoundnessAlarm(f"{self.path}: {what} cell not owned")':
        "a checked store's precondition owns its cell whole, so the code fragment holds it",
    "AtomLifter._put: cells = {(c_kind, c_key): (v, p) for c_kind, c_key, v, p in "
    "slots(table.state(code))}": OFF_TABLE,
    "AtomLifter._put: cells.pop(cell, None)": OFF_TABLE,
    "AtomLifter._put: if value is not None:": OFF_TABLE,
    "AtomLifter._put: cells[cell] = (value, TOP)": OFF_TABLE,
    "AtomLifter._put: return table.intern(from_slots([(*c, v, p) for c, (v, p) in "
    "cells.items()]))": OFF_TABLE,
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
    'ResLifter.eve: raise SoundnessAlarm(f"{self.path}: virtual resource went to the frame")':
        "no lifter makes a HELD_BY_FRAME update: `_own_step` gives HELD_BY_CODE or "
        "Available (ROADMAP item 9)",
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


def _statements():
    """(key, first line) of every statement inside a function body of
    soundness.py, docstrings excluded; a key's n-th repeat ends in ` #n`."""
    text = SOURCE.read_text(encoding="utf-8")
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


def _sweep(tmp_path):
    for name in PROGRAMS:
        _verify(name, corpus_text(f"{name}.proof"))
    _verify("framed_assign", FALSE_TRIPLE)
    cli.main(store_axiom_argv(tmp_path, "verify"))
    cli.main(store_axiom_argv(tmp_path, "game", "--trace-index", "3"))


def _verify(name, proof):
    u = parse_universe(corpus_text(f"{name}.uni"))
    node = parse_proof(proof)
    check = check_proof(node, u, allow_extensions=True)
    soundness.verify_corollary(check, node, corpus_inits(name), u, maxlen=3,
                               emit_replays=True)


def _lines_run(tmp_path):
    """The lines of soundness.py that run under the sweep."""
    ran, path = set(), soundness.__file__

    def on_line(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == path else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        _sweep(tmp_path)
    finally:
        sys.settrace(previous)
    return ran


def test_every_statement_runs_or_is_listed(tmp_path):
    ran = _lines_run(tmp_path)
    unrun = {key for key, line in _statements() if line not in ran}
    assert sorted(unrun - UNREACHED.keys()) == [], "neither run nor listed"
    assert sorted(UNREACHED.keys() - unrun) == [], "listed, but ran or gone"
