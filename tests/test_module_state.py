"""What the modules keep between calls: trace membership keeps nothing, and
the only module-level caches are the five that are hit thousands of times."""

import ast
import gc
from pathlib import Path

from sepgame.machine import mstate
from sepgame.semantics import enumerate_traces
from sepgame.syntax import parse_program, parse_universe
from sepgame.traces import Trace

SRC = Path(__file__).parent.parent / "src" / "sepgame"

CACHED = {("game", "_refinements"), ("logic", "_sat"), ("logic", "_sub_pairs"),
          ("logic", "all_logical_states"), ("separation", "_big_tensor_cached")}


def _live_traces():
    gc.collect()
    return sum(isinstance(obj, Trace) for obj in gc.get_objects())


def test_enumeration_keeps_no_trace_alive():
    u = parse_universe("vars = x\nlocs = 2\nvals = 0..1\nperms = 1/2, 1\n"
                       "locks = r\nmaxlen = 2\nenv = exhaustive\n")
    before = _live_traces()
    n = sum(1 for _ in enumerate_traces(parse_program("x := 1"),
                                        [mstate(stack={"x": 0})], u))
    assert n == 342
    assert _live_traces() == before


def _is_cache(name_node):
    return (getattr(name_node, "attr", None) in ("lru_cache", "cache")
            or getattr(name_node, "id", None) in ("lru_cache", "cache"))


def test_module_level_caches_are_the_five_that_pay():
    found, mentions = set(), 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mentions += sum(_is_cache(node) for node in ast.walk(tree))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and any(
                    _is_cache(d.func if isinstance(d, ast.Call) else d)
                    for d in node.decorator_list):
                found.add((path.stem, node.name))
    assert found == CACHED
    assert mentions == len(CACHED)
