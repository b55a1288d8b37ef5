"""The immutable value base `maps.Node` and the start-up cost it saves.

Every record type of the package is a Node: it must compare and hash as the
frozen dataclasses it replaced did (so every set and dict order, and with it
every output, stays the same), match positionally, print like a dataclass
and refuse assignment.  No module imports `dataclasses`, whose import alone
pulls in `inspect`, `dis`, `tokenize` and `ast`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepgame
from sepgame.logic import EMPTY_LSTATE, LogicalState, lstate
from sepgame.machine import MachineState, MemoryState
from sepgame.maps import Node, fmap
from sepgame.separation import (HELD_BY_CODE, HELD_BY_FRAME, Available,
                                SeparatedState, sep_state, sep_state_to_text)
from sepgame.syntax import (Add, Emp, FTrue, Lit, ParseError, Universe, Var,
                            parse_universe)

SRC = Path(sepgame.__file__).parent


def test_equality_needs_the_same_type_and_hash_is_the_field_tuple():
    assert FTrue() != Emp()
    assert FTrue() == FTrue()
    assert hash(FTrue()) == hash(())
    assert hash(Lit(1)) == hash((1,))
    assert hash(Add(Var("x"), Lit(2))) == hash((("x",), (2,)))
    assert Add(Var("x"), Lit(2)) == Add(Var("x"), Lit(2))
    assert Add(Var("x"), Lit(2)) != Add(Lit(2), Var("x"))


def test_equal_hashes_still_compare_fields():
    # hash(-1) == hash(-2) in CPython, so the cached hashes agree
    a, b = Lit(-1), Lit(-2)
    assert hash(a) == hash(b)
    assert a != b
    assert a == Lit(-1) and hash(a) == hash(Lit(-1))


def test_assignment_and_deletion_raise():
    x = Lit(1)
    with pytest.raises(AttributeError):
        x.value = 2
    with pytest.raises(AttributeError):
        del x.value
    with pytest.raises(AttributeError):
        x.other = 2
    assert x == Lit(1)


def test_positional_match():
    match Add(Var("x"), Lit(2)):
        case Add(Var(name), Lit(value)):
            assert (name, value) == ("x", 2)
        case _:
            pytest.fail("no positional match")
    assert Add.__match_args__ == ("left", "right")


def test_repr_is_the_dataclass_repr():
    assert repr(Lit(1)) == "Lit(value=1)"
    assert repr(Add(Var("x"), FTrue())) == "Add(left=Var(name='x'), right=FTrue())"


def test_defaults_and_keyword_construction():
    assert LogicalState() == EMPTY_LSTATE == LogicalState(fmap(), fmap())
    assert MachineState() == MachineState(MemoryState(fmap(), fmap()), frozenset())
    u = Universe(variables=("x",), locations=(1,), values=(0, 1),
                 perms=(1,), locks=("r",))
    assert (u.maxlen, u.env_policy, u.env_moves_text) == (6, "passive", ())
    assert u == parse_universe("vars = x\nlocs = 1\nvals = 0..1\nperms = 1\n"
                               "locks = r\n")
    with pytest.raises(TypeError):
        Lit()


def test_universe_validation_still_raises():
    with pytest.raises(ParseError, match="empty variable alphabet"):
        Universe(variables=(), locations=(1,), values=(0,), perms=(1,), locks=("r",))
    with pytest.raises(ParseError, match="maxlen"):
        Universe(("x",), (1,), (0,), (1,), ("r",), maxlen=-1)


def test_fmap_order_is_only_among_fmaps():
    assert fmap({1: 2}) < fmap({1: 3}) and not fmap({1: 3}) < fmap({1: 2})
    assert fmap({1: 2}).__lt__(3) is NotImplemented
    with pytest.raises(TypeError):
        fmap({1: 2}) < 3
    with pytest.raises(TypeError):
        sorted([fmap({1: 2}), (1, 2)])


def test_separated_state_equality_and_hash_ignore_its_tensor():
    code = lstate(stack={"x": (1, 1)})
    s = sep_state(code=code, resources={"r": Available(EMPTY_LSTATE)})
    t = SeparatedState(code, fmap({"r": Available(EMPTY_LSTATE)}), EMPTY_LSTATE)
    assert s == t and hash(s) == hash(t)
    assert s.tensor == code
    assert hash(s) == hash((code, s.resources, EMPTY_LSTATE))
    assert SeparatedState.__match_args__ == ("code", "resources", "frame")
    assert "tensor" not in repr(s)


def test_a_separated_state_keeps_its_text_and_code_locks():
    s = sep_state(code=lstate(stack={"x": (1, 1)}),
                  resources={"p": Available(EMPTY_LSTATE), "q": HELD_BY_FRAME,
                             "r": HELD_BY_CODE})
    assert s.text is None and s.code_locks is None
    text, locks = sep_state_to_text(s), s.dom_code()
    assert text == "code={x=1@1|} ; res=[p:avail{|} q:F r:C] ; frame={|}"
    assert locks == {"r"}
    assert sep_state_to_text(s) is text and s.dom_code() is locks
    t = SeparatedState(s.code, s.resources, s.frame)
    assert s == t and hash(s) == hash(t) and "text" not in repr(s)


def test_a_node_subclass_may_keep_derived_slots():
    class Pair(Node):
        __slots__ = ("total",)
        left: int
        right: int = 0

        def __post_init__(self):
            object.__setattr__(self, "total", self.left + self.right)

    assert Pair(1, 2).total == 3 and Pair(left=4).total == 4
    assert Pair(1, 2) == Pair(1, 2) and hash(Pair(1, 2)) == hash((1, 2))
    assert not hasattr(Pair(1), "__dict__")


# --- start-up ------------------------------------------------------------------

def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, path.name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = ("import sys, sepgame.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, cwd=SRC.parent,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout == "[]\n"
