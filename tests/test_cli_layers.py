"""Each CLI verb imports only the layers it runs, and the names the
benchmark's tracer (bench/tracer.py) patches on `sepgame.cli` are the ones
the verbs call."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sepgame import cli, proof

from .conftest import CORPUS, bench_script

PACKAGE = Path(cli.__file__).parent


def _corpus(ext):
    return str(CORPUS / f"framed_assign{ext}")


RUN = ["run", _corpus(".csl"), "-u", _corpus(".uni"), "--maxlen", "3"]
CHECK = ["check", _corpus(".proof"), "-u", _corpus(".uni"), "--allow-extensions"]
VERIFY = ["verify", _corpus(".csl"), _corpus(".proof"), "-u", _corpus(".uni"),
          "--allow-extensions", "--inits", _corpus(".inits")]

IMPORTED = {"sepgame", "sepgame.cli", "sepgame.syntax", "sepgame.maps"}
FOOTPRINTS = {
    "import": ([], IMPORTED),
    "run": (RUN, IMPORTED | {"sepgame.machine", "sepgame.logic",
                             "sepgame.semantics", "sepgame.traces"}),
    "check": (CHECK, IMPORTED | {"sepgame.machine", "sepgame.logic", "sepgame.proof"}),
    "verify": (VERIFY, {"sepgame"} | {f"sepgame.{p.stem}" for p in PACKAGE.glob("*.py")
                                      if p.stem != "__init__"}),
}

# Runs the verb given on its command line, if any, in a fresh interpreter
# and prints the exit code and the sepgame modules loaded.
FOOTPRINT = """
import contextlib, io, sys
import sepgame.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = sepgame.cli.main(sys.argv[1:])
print(code)
print(" ".join(sorted(m for m in sys.modules if m.partition(".")[0] == "sepgame")))
"""


@pytest.mark.parametrize("case", sorted(FOOTPRINTS))
def test_a_verb_loads_only_its_layers(case):
    argv, expected = FOOTPRINTS[case]
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.stderr == ""
    code, modules = proc.stdout.splitlines()
    assert code == ("None" if case == "import" else "0")
    assert set(modules.split()) == expected


def test_the_module_hook_knows_the_layer_table_alone():
    """The tracer asks getattr(cli, name, None): a name the verbs read from a
    layer resolves, and any other name is None rather than an error."""
    assert cli.__getattr__("check_proof") is proof.check_proof
    with pytest.raises(AttributeError):
        cli.__getattr__("satisfies")


def test_the_verbs_call_the_tracers_wrappers(capsys):
    """Spans the tracer places only on `sepgame.cli` names (traces.format,
    soundness.verify_corollary) count calls, as do those it also places on
    the layers' own modules."""
    tracer_module = bench_script("tracer")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in (RUN, CHECK, VERIFY)]
    finally:
        for (place, attr), fn in tracer.originals.items():
            setattr(tracer_module._resolve(place), attr, fn)
    capsys.readouterr()
    assert codes == [0, 0, 0]
    calls = dict(zip(tracer.names, tracer.calls))
    for name in ("traces.format", "proof.check_proof", "semantics.enumerate",
                 "soundness.verify_corollary"):
        assert calls.get(name, 0) > 0, name
