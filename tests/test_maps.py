"""The immutable value base `maps.Node` and the start-up cost it saves.

Every record type of the package is a Node: it must compare and hash as the
frozen dataclasses it replaced did (so every set and dict order, and with it
every output, stays the same), match positionally, print like a dataclass
and refuse assignment.  No module imports `dataclasses`, whose import alone
pulls in `inspect`, `dis`, `tokenize` and `ast`.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepgame
import sepgame.soundness   # with what it imports, defines every Node subclass
from sepgame import maps
from sepgame.logic import LogicalState, universe_table
from sepgame.machine import INop, MachineState, MemoryState
from sepgame.maps import Node, fmap
from sepgame.separation import (HELD_BY_CODE, HELD_BY_FRAME, Available, SeparatedState,
                                SeparationError, sep_state_to_text)
from sepgame.syntax import (Add, Emp, FTrue, Lit, ParseError, Universe, Var,
                            parse_universe)
from sepgame.traces import CodeTransition, TraceError

from .builders import EMPTY_LSTATE, lstate, mstate, sep_state

SRC = Path(sepgame.__file__).parent
U = parse_universe("vars = x\nlocs = 2\nvals = 0..1\nperms = 1/2, 1\nlocks = p, q, r\n")


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
    table = universe_table(U)
    code = table.intern(lstate(stack={"x": (1, 1)}))
    s = sep_state(U, code=lstate(stack={"x": (1, 1)}),
                  resources={"r": Available(EMPTY_LSTATE)})
    t = SeparatedState.build(table, code, fmap({"r": Available(0)}), 0)
    assert s == t and hash(s) == hash(t)
    assert s.tensor == code and s.table is table
    assert hash(s) == hash((code, s.resources, 0))
    assert SeparatedState.__match_args__ == ("code", "resources", "frame")
    assert "tensor" not in repr(s) and "table" not in repr(s)


def test_a_separated_state_keeps_its_text_and_code_locks():
    s = sep_state(U, code=lstate(stack={"x": (1, 1)}),
                  resources={"p": Available(EMPTY_LSTATE), "q": HELD_BY_FRAME,
                             "r": HELD_BY_CODE})
    assert s.text is None and s.code_locks is None
    text, locks = sep_state_to_text(s), s.dom_code()
    assert text == "code={x=1@1|} ; res=[p:avail{|} q:F r:C] ; frame={|}"
    assert locks == {"r"}
    assert sep_state_to_text(s) is text and s.dom_code() is locks
    t = SeparatedState.build(s.table, s.code, s.resources, s.frame)
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


# --- methods compiled once per shape ----------------------------------------------

_OLD_NODE_METHODS = """def make(_set, _d):
    def __init__(self, {params}):
        {sets}_set(self, "_hash", None){post}
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        h, g = self._hash, other._hash
        if h is not None and g is not None and h != g:
            return False
        return self is other or ({mine}) == ({theirs})
    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(({mine}))
            _set(self, "_hash", h)
        return h
    return __init__, __eq__, __hash__"""


def _oracle_methods(cls):
    """__init__, __eq__ and __hash__ as each class compiled them from its own
    source before classes shared a shape's."""
    fields = cls.__match_args__
    defaults = cls.__init__.__defaults__ or ()
    required = len(fields) - len(defaults)
    scope = {}
    exec(_OLD_NODE_METHODS.format(
        params=", ".join(fields[:required] + tuple(
            f"{f}=_d[{i}]" for i, f in enumerate(fields[required:]))),
        sets="".join(f"_set(self, {f!r}, {f}); " for f in fields),
        post="; self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        mine="".join(f"self.{f}, " for f in fields),
        theirs="".join(f"other.{f}, " for f in fields)), scope)
    return scope["make"](object.__setattr__, defaults)


def _node_classes(cls=Node):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("sepgame."):
            yield sub
        yield from _node_classes(sub)


NODE_CLASSES = sorted(_node_classes(), key=lambda c: (c.__module__, c.__name__))

# field values that pass the classes' __post_init__ checks
_VALID = {
    "Universe": (("x",), (1,), (0, 1), (1,), ("r",)),
    "CodeTransition": (mstate(), INop(), mstate(), "ok"),
    "Trace": (mstate(), (), mstate()),
    "SeparatedState": (0, fmap(), 0),
    "WinningSpec": (FTrue(), fmap(), FTrue(), 2, True),
}


def _args(cls):
    return _VALID.get(cls.__name__) or tuple(
        f"v{i}" for i in range(len(cls.__match_args__) - len(
            cls.__init__.__defaults__ or ())))


def test_the_package_has_the_expected_node_classes_and_fewer_shapes():
    assert len(NODE_CLASSES) == 54
    shapes = {(len(c.__match_args__), hasattr(c, "__post_init__"))
              for c in NODE_CLASSES}
    assert shapes <= set(maps._SHAPES) and len(shapes) == 11
    assert len(maps._SHAPES) < len(NODE_CLASSES)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_shape_methods_match_the_per_class_oracle(cls):
    init, eq, hash_ = _oracle_methods(cls)
    assert inspect.signature(cls.__init__) == inspect.signature(init)
    assert cls.__init__.__defaults__ == init.__defaults__
    for mine, old in ((cls.__init__, init), (cls.__eq__, eq), (cls.__hash__, hash_)):
        for attr in ("co_code", "co_names", "co_varnames", "co_consts"):
            assert getattr(mine.__code__, attr) == getattr(old.__code__, attr)

    args = _args(cls)
    by_position, by_keyword = cls(*args), cls(**dict(zip(cls.__match_args__, args)))
    oracle = object.__new__(cls)
    init(oracle, *args)
    values = [[getattr(x, f) for f in cls.__match_args__]
              for x in (by_position, by_keyword, oracle)]
    assert values[0] == values[1] == values[2]
    assert by_position == by_keyword == oracle and eq(oracle, by_position)
    assert hash(by_position) == hash_(oracle) == hash(tuple(values[0]))
    other = Lit(0) if cls is not Lit else Var("x")
    assert by_position.__eq__(other) is eq(oracle, other) is NotImplemented
    if args and cls.__name__ not in _VALID:
        changed = cls(*args[:-1], "changed")
        assert (by_position == changed) is eq(oracle, changed) is False


def test_post_init_still_runs():
    full = lstate(stack={"x": (1, 1)})
    with pytest.raises(SeparationError):
        sep_state(U, full, (), full)
    with pytest.raises(TraceError):
        CodeTransition(mstate(), INop(), mstate(), "maybe")
    with pytest.raises(TraceError):
        CodeTransition(pre=mstate(), instr=INop(), post=mstate(stack={"x": 0}),
                       status="err")


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
