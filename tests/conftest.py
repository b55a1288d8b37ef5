import importlib.util
import random
import sys
from pathlib import Path

from sepgame.logic import lstate_from_text
from sepgame.machine import IAcquire, INop, IRelease, MachineState, MemoryState
from sepgame.maps import fmap
from sepgame.syntax import Assign, Lit, Var
from sepgame.traces import OK, CodeTransition, Trace

CORPUS = Path(__file__).parent / "corpus"
BENCH = Path(__file__).parent.parent / "bench"

# the enumerate-exhaustive benchmark's universe; its program is `x := 1`
EXHAUSTIVE_UNIVERSE = ("vars = x\nlocs = 2\nvals = 0..1\nperms = 1/2, 1\n"
                       "locks = r\nmaxlen = 2\nenv = exhaustive\n")

PROGRAMS = ["par_writes", "framed_assign", "lock_transfer", "lock_pair",
            "seq_load_store", "conj_precise", "if_def", "while_count"]


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text()


def corpus_inits(name: str) -> list:
    """The logical states of the corpus program's .inits file."""
    return [lstate_from_text(line)
            for line in corpus_text(f"{name}.inits").splitlines() if line.strip()]


def bench_script(name: str):
    """The script bench/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TraceGen:
    """Seeded random traces for the algebra tests; steps need not chain."""

    def __init__(self, seed=0):
        self.rng = random.Random(seed)
        self.states = []
        for x in (0, 1):
            for locks in (frozenset(), frozenset(["r"])):
                self.states.append(
                    MachineState(MemoryState(fmap({"x": x}), fmap()), locks))
        self.instrs = [INop(), Assign("x", Lit(1)), Assign("x", Var("x")),
                       IAcquire("r"), IRelease("r")]

    def state(self):
        return self.rng.choice(self.states)

    def step(self):
        return CodeTransition(self.state(), self.rng.choice(self.instrs),
                              self.state(), OK)

    def trace(self, max_len=4, source=None, target=None):
        n = self.rng.randrange(max_len + 1)
        steps = tuple(self.step() for _ in range(n))
        return Trace(source or self.state(), steps, target or self.state())

    def chained_pair(self):
        mid = self.state()
        return (self.trace(target=mid), self.trace(source=mid))
