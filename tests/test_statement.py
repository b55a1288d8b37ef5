"""The soundness corollary's statement, checked with no strategy involved.

An empty-context triple {P} c {Q} holds on the bounded universe when, from
every full-permission machine state in P * true, no passive trace errs and
every returning trace's target, held whole, satisfies Q * true.  Both sets
are read off `UniverseTable.models`; the traces come from
`semantics.enumerate_traces`.  Nothing here reads the game, the lifters, the
checker or the solver, so the check judges them rather than shares their
faults.  A precondition with no full-permission model makes the statement
vacuous, which is reported as such and not as a pass.
"""

import pytest

from sepgame.logic import UniverseTable
from sepgame.machine import MachineState, MemoryState
from sepgame.maps import fmap
from sepgame.proof import check_proof
from sepgame.semantics import enumerate_traces
from sepgame.syntax import FTrue, Star, parse_proof, parse_universe

from .conftest import CORPUS, PROGRAMS, corpus_text
from .test_soundness import FALSE_TRIPLE


def _memories(table):
    """Each full-permission state's index by its memory, held whole."""
    out = {}
    for i, sigma in enumerate(table.states):
        cells = [*sigma.stack.items(), *sigma.heap.items()]
        if all(p == 1 for _, (_, p) in cells):
            out[MemoryState(fmap({k: v for k, (v, _) in sigma.stack.items()}),
                            fmap({k: v for k, (v, _) in sigma.heap.items()}))] = i
    return out


def statement(node, u, maxlen=None, rho=None):
    """(inits, traces, failing traces) of the triple node concludes; inits
    are the full-permission states in P * true.  rho defaults to the
    valuation of node's own check."""
    assert not len(node.ctx)
    if rho is None:
        rho = check_proof(node, u, allow_extensions=True).valuation
    table = UniverseTable(u)
    pre = table.models(Star(node.pre, FTrue()), rho)
    post = table.models(Star(node.post, FTrue()), rho)
    memories = _memories(table)
    inits = sorted((i, memory) for memory, i in memories.items() if pre >> i & 1)
    traces = failing = 0
    for _, memory in inits:
        start = MachineState(memory, frozenset())
        for t, returning, _ in enumerate_traces(node.cmd, [start], u, maxlen=maxlen,
                                                policy="passive"):
            traces += 1
            if t.errored:
                failing += 1
            elif returning:
                # every target has an index: machine writes stay in the range
                whole = memories[t.target.memory]
                failing += not post >> whole & 1
    return len(inits), traces, failing


def verdict(inits, traces, failing):
    return "vacuous" if inits == 0 else "fail" if failing else "pass"


def _root(name):
    return (parse_proof(corpus_text(f"{name}.proof")),
            parse_universe(corpus_text(f"{name}.uni")))


def _paths(node, path="root"):
    """(path, node) of node and every node above it, premises in order."""
    yield path, node
    for i, child in enumerate(node.children):
        yield from _paths(child, f"{path}.{i}")


ROOTS = {
    "framed_assign": (80, 160, 0),
    "if_def": (80, 240, 0),
    "lock_pair": (12, 144, 0),
    "lock_transfer": (20, 80, 0),
    "par_writes": (80, 400, 0),
    "seq_load_store": (16, 48, 0),
    "while_count": (20, 50, 0),
}


@pytest.mark.parametrize("name", sorted(ROOTS))
def test_every_empty_context_root_holds(name):
    node, u = _root(name)
    assert statement(node, u) == ROOTS[name]


def test_the_false_triple_fails_on_half_its_traces():
    """ROADMAP item 1's false triple: every returning trace ends in x = 1,
    where its post wants x = 2."""
    node = parse_proof(FALSE_TRIPLE)
    u = parse_universe(corpus_text("framed_assign.uni"))
    assert statement(node, u, maxlen=3) == (80, 160, 80)


def test_a_precondition_with_no_model_is_vacuous():
    """`check` accepts neg/race_two_top, whose precondition holds on no
    state, so the statement covers nothing: vacuous, not a pass."""
    node = parse_proof((CORPUS / "neg/race_two_top.proof").read_text())
    u = parse_universe((CORPUS / "neg/neg.uni").read_text())
    inits, traces, failing = statement(node, u)
    assert (verdict(inits, traces, failing), traces) == ("vacuous", 0)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: conj_precise's post puts `x = X` beside own_1(x) with *, "
    "which holds on no state"))
def test_conj_precise_post_has_a_model():
    node, u = _root("conj_precise")
    rho = check_proof(node, u, allow_extensions=True).valuation
    assert UniverseTable(u).models(node.post, rho) != 0


# Every corpus node with an empty context, judged at maxlen 3 under its
# root's valuation (a node's own check may leave a variable unbound that the
# root binds: seq_load_store's root.0.1 leaves V), with its statement's
# (inits, traces, failing traces).
NODES_HOLD = {
    ("framed_assign", "root"): (80, 160, 0),
    ("if_def", "root"): (80, 240, 0),
    ("if_def", "root.0"): (20, 40, 0),
    ("if_def", "root.1"): (60, 120, 0),
    ("lock_pair", "root"): (12, 72, 0),
    ("lock_pair", "root.0"): (12, 72, 0),
    ("lock_pair", "root.0.0.0.0"): (12, 24, 0),
    ("lock_pair", "root.0.0.1.0"): (12, 24, 0),
    ("lock_transfer", "root"): (20, 80, 0),
    ("lock_transfer", "root.0"): (20, 80, 0),
    ("lock_transfer", "root.0.0.0"): (20, 40, 0),
    ("par_writes", "root"): (80, 400, 0),
    ("seq_load_store", "root"): (16, 48, 0),
    ("while_count", "root"): (20, 50, 0),
    ("while_count", "root.0"): (5, 10, 0),
}
# a frame whose pre puts `x = V` beside own_1(x) with *, which no state holds
NODES_VACUOUS = {("seq_load_store", "root.0.1"): (0, 0, 0)}
# ROADMAP item 1: the 9 `aff` axioms, seq_load_store's `load` and `store`, and
# the `frame`, `par` and `seq` rules above them conclude false triples; each
# sits under an `ext_conseq` whose conclusion holds.  The list only shrinks.
NODES_FALSE = [
    ("framed_assign", "root.0"), ("framed_assign", "root.0.0"),
    ("if_def", "root.0.0"), ("if_def", "root.0.0.0"),
    ("if_def", "root.1.0"), ("if_def", "root.1.0.0"),
    ("lock_pair", "root.0.0.0.0.0"), ("lock_pair", "root.0.0.1.0.0"),
    ("lock_transfer", "root.0.0.0.0"),
    ("par_writes", "root.0"), ("par_writes", "root.0.0"), ("par_writes", "root.0.1"),
    ("seq_load_store", "root.0"), ("seq_load_store", "root.0.0"),
    ("seq_load_store", "root.0.0.0"), ("seq_load_store", "root.0.1.0"),
    ("while_count", "root.0.0"),
]


def _node_statement(name, path):
    root, u = _root(name)
    rho = check_proof(root, u, allow_extensions=True).valuation
    node = dict(_paths(root))[path]
    return statement(node, u, maxlen=3, rho=rho)


def test_every_empty_context_node_is_judged():
    judged = [*NODES_HOLD, *NODES_VACUOUS, *NODES_FALSE]
    nodes = [(name, path) for name in PROGRAMS
             for path, node in _paths(_root(name)[0]) if not len(node.ctx)]
    assert sorted(judged) == sorted(nodes)


@pytest.mark.parametrize("name, path", sorted(NODES_HOLD | NODES_VACUOUS))
def test_empty_context_node_holds_or_is_vacuous(name, path):
    expected = (NODES_HOLD | NODES_VACUOUS)[name, path]
    found = _node_statement(name, path)
    assert found == expected
    assert verdict(*found) == ("vacuous" if (name, path) in NODES_VACUOUS else "pass")


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: an axiom at or below the node concludes a false triple, "
    "hidden by an ext_conseq above it"))
@pytest.mark.parametrize("name, path", NODES_FALSE)
def test_empty_context_node_that_concludes_a_false_triple(name, path):
    assert verdict(*_node_statement(name, path)) == "pass"
