"""The soundness chain on the corpus: accepted proof, extracted strategy on
every non-error trace, the strategy checker, the brute-force solver as the
oracle, and the corollary.

The play-node counts pin what the checker explores, so a refactor of the
game or the lifters that changes the search shows here.
"""

import pytest

from sepgame.game import NoWin, check_winning_strategy, solve_eve
from sepgame.logic import erase, lstate_from_text, lstate_to_text
from sepgame.machine import MachineState
from sepgame.proof import check_proof
from sepgame.semantics import enumerate_traces
from sepgame.soundness import (ExtractedStrategy, ExtractionFailure,
                               SoundnessAlarm, verify_corollary)
from sepgame.syntax import parse_proof, parse_universe

from .conftest import corpus_text

# program -> (non-error traces, play nodes the checker explores over them)
CHAIN = {
    "par_writes": (10, 22),
    "framed_assign": (4, 6),
    "lock_transfer": (8, 20),
    "if_def": (6, 12),
    "while_count": (6, 13),
}

# Both fail because `own_1(x) * (x = X)` holds on no state (ROADMAP item 1).
KNOWN_DEFECTS = [
    pytest.param("seq_load_store", marks=pytest.mark.xfail(
        raises=ExtractionFailure, strict=True,
        reason="ROADMAP item 1: extraction fails at root.0.1 (frame)")),
    pytest.param("conj_precise", marks=pytest.mark.xfail(
        raises=SoundnessAlarm, strict=True,
        reason="ROADMAP item 1: conj audit fails on the second postcondition")),
]


def _load(name):
    u = parse_universe(corpus_text(f"{name}.uni"))
    node = parse_proof(corpus_text(f"{name}.proof"))
    check = check_proof(node, u, allow_extensions=True)
    assert check.ok, check.violations
    inits = [lstate_from_text(line)
             for line in corpus_text(f"{name}.inits").splitlines() if line.strip()]
    return u, node, check, inits


def _chain(name):
    """Run the chain on every non-error passive trace from the corpus inits;
    returns (traces, play nodes explored)."""
    u, node, check, inits = _load(name)
    traces = nodes = 0
    for init in sorted(inits, key=lstate_to_text):
        start = MachineState(erase(init), frozenset())
        for t, _, _ in enumerate_traces(node.cmd, [start], u, policy="passive"):
            if t.errored:
                continue
            strat = ExtractedStrategy(node, t, u, check.valuation)
            assert strat.initials, f"{name}: no initial refinement"
            result = check_winning_strategy(strat, t, strat.spec, u)
            assert result.verdict == "pass", (name, result.reason)
            solved = solve_eve(t, strat.spec, u)
            assert not isinstance(solved, (NoWin, str)), (name, solved)
            traces += 1
            nodes += int(result.reason.split()[1])
    return traces, nodes


@pytest.mark.parametrize("name", sorted(CHAIN))
def test_chain_holds_on_every_trace(name):
    assert _chain(name) == CHAIN[name]


@pytest.mark.parametrize("name", KNOWN_DEFECTS)
def test_chain_known_defects(name):
    _chain(name)


@pytest.mark.parametrize("name", sorted(CHAIN))
def test_corollary_reports_no_failures(name):
    u, node, check, inits = _load(name)
    report = verify_corollary(check, node, inits, u)
    assert report["failures"] == []
    assert report["traces_checked"] > 0
