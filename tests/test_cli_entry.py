"""The process entry: `python -m sepgame.cli` and the `sepgame` script run
`cli.process_main`, which freezes the heap once `main` has written the
verdict.  `main` called in process freezes nothing, and importing the package
registers nothing, so a test or a tracer that calls `main` keeps its heap
collectable."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sepgame import cli

from .conftest import CORPUS
from .test_cli_layers import CHECK, RUN, VERIFY

SRC = Path(cli.__file__).parent.parent
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# Runs the module as `python -m` does and, once the interpreter exits,
# prints the freeze count to stderr.
PROBED = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("freeze count", gc.get_freeze_count(), file=sys.stderr))
runpy.run_module("sepgame.cli", run_name="__main__", alter_sys=True)
"""


def _par_writes(*extra):
    return ["verify", str(CORPUS / "par_writes.csl"), str(CORPUS / "par_writes.proof"),
            "-u", str(CORPUS / "par_writes.uni"), "--allow-extensions", *extra]


@pytest.mark.parametrize("argv", [RUN, CHECK, VERIFY], ids=["run", "check", "verify"])
def test_main_in_process_freezes_nothing(capsys, argv):
    before = gc.get_freeze_count()
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_importing_the_package_registers_nothing():
    probe = ("import atexit, gc; n = atexit._ncallbacks(); import sepgame.cli; "
             "print(atexit._ncallbacks() - n, gc.get_freeze_count())")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, env=ENV)
    assert (proc.stdout, proc.stderr) == ("0 0\n", "")


def test_the_module_run_as_a_program_freezes_before_exit():
    proc = subprocess.run([sys.executable, "-c", PROBED, *CHECK], capture_output=True,
                          text=True, timeout=120, env=ENV)
    assert proc.returncode == 0
    *_, last = proc.stderr.splitlines()
    assert last.startswith("freeze count ") and int(last.split()[-1]) > 0


@pytest.mark.parametrize("argv, code", [
    ([*CHECK, "--output", "{out}"], 0),
    (_par_writes("--inits", os.devnull), 1),
    (_par_writes("--maxlen", "-2"), 2),
], ids=["check-output", "vacuous-verify", "negative-maxlen"])
def test_the_process_writes_what_main_returns(tmp_path, capsysbinary, argv, code):
    """The child's stdout, stderr, --output file and exit code are main's."""
    runs = []
    for side in ("main", "process"):
        out = tmp_path / side
        args = [a.replace("{out}", str(out)) for a in argv]
        if side == "main":
            got = (cli.main(args), *capsysbinary.readouterr())
        else:
            proc = subprocess.run([sys.executable, "-m", "sepgame.cli", *args],
                                  capture_output=True, timeout=120, env=ENV)
            got = (proc.returncode, proc.stdout, proc.stderr)
        runs.append((*got, out.read_bytes() if out.exists() else None))
    assert runs[0][0] == code
    assert runs[0] == runs[1]


def test_the_console_script_is_the_process_entry():
    text = (SRC.parent / "pyproject.toml").read_text()
    table = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert table.split() == ["sepgame", "=", '"sepgame.cli:process_main"']
