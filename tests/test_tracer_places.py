"""The benchmark's tracer (bench/tracer.py) patches sepgame functions by
module and attribute name and skips a place it cannot find without a word.
These tests fail instead when a rename leaves a place behind, which would
otherwise zero that place's per-layer metrics."""

import ast

import pytest

from .conftest import BENCH, bench_script

tracer = bench_script("tracer")

SPANS = tracer.FUNCTION_SPANS | tracer.GENERATOR_SPANS

# Places the tracer still lists although nothing calls through them any more.
# game stopped calling component_assignments when separation.separations
# became the one builder of separated states; the span keeps its live place,
# separation's own module global.  cli stopped calling satisfies when the
# corollary's initial states came to be read off the universe table's models;
# the logic.satisfies span keeps its places in game, soundness and logic.
# soundness stopped calling adam_extensions and empty_winning_plays when
# every walker of a play came to read the rules from game.TraceGame; both
# spans keep their places in game.
GONE = {("sepgame.game", "component_assignments"), ("sepgame.cli", "satisfies"),
        ("sepgame.soundness", "adam_extensions"),
        ("sepgame.soundness", "empty_winning_plays")}

SPAN_PLACES = sorted({(name, place, attr)
                      for name, places in SPANS.items()
                      for place, attr in places if (place, attr) not in GONE})


def _attr(place, attr):
    owner = tracer._resolve(place)
    return None if owner is None else getattr(owner, attr, None)


def _patched_places():
    """The (place, attribute) literals of every Tracer.patch call."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    return sorted({(call.args[0].value, call.args[1].value)
                   for call in ast.walk(tree)
                   if isinstance(call, ast.Call)
                   and isinstance(call.func, ast.Attribute)
                   and call.func.attr == "patch"
                   and len(call.args) == 3
                   and all(isinstance(a, ast.Constant) for a in call.args[:2])})


@pytest.mark.parametrize("name, place, attr", SPAN_PLACES)
def test_span_place_resolves_to_a_callable(name, place, attr):
    assert callable(_attr(place, attr)), f"{name}: {place}.{attr} is gone"


@pytest.mark.parametrize("place, attr", sorted(GONE))
def test_gone_place_is_gone_and_its_span_lives_on(place, attr):
    assert _attr(place, attr) is None, f"{place}.{attr} is back: drop it from GONE"
    names = [name for name, places in SPANS.items() if (place, attr) in places]
    assert names, f"the tracer no longer lists {place}.{attr}: drop it from GONE"
    for name in names:
        assert any(callable(_attr(*p)) for p in SPANS[name]), f"{name} has no live place"


@pytest.mark.parametrize("name", sorted(tracer.CACHE_COUNTERS))
def test_cache_counter_reads_an_lru_cache(name):
    modname, attr, field = tracer.CACHE_COUNTERS[name]
    fn = _attr(modname, attr)
    assert callable(fn), f"{name}: {modname}.{attr} is gone"
    assert hasattr(fn.cache_info(), field), f"{name}: no cache_info().{field}"


def test_counter_places_resolve_to_callables():
    places = _patched_places()
    assert places, "no literal Tracer.patch calls found"
    for place, attr in places:
        assert callable(_attr(place, attr)), f"{place}.{attr} is gone"
