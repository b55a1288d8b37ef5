import itertools
import random
from fractions import Fraction

import pytest

from sepgame import logic
from sepgame.logic import (LogicalState, UniverseTable, UncoveredLogicalVariable, _sat,
                           _slot_splits, all_logical_states, def_formula, entails, erase,
                           is_precise, lstate_from_text, lstate_to_text, perm_add,
                           satisfies, tensor, universe_table)
from sepgame.machine import MemoryState
from sepgame.maps import fmap
from sepgame.proof import check_proof
from sepgame.syntax import (Emp, Exists, FAnd, FEq, FFalse, FImplies, FNot, FOr, Forall,
                            FTrue, Lit, Own, PointsTo, Star, Var, parse_proof,
                            parse_universe)

from .builders import (EMPTY_LSTATE, first_split_states, lstate, parse_formula, substates,
                       tensor_all)
from .conftest import PROGRAMS, corpus_text

HALF = Fraction(1, 2)
TOP = Fraction(1)


@pytest.fixture(scope="module")
def u():
    return parse_universe("vars = x, y\nlocs = 2\nvals = 0..3\n"
                          "perms = 1/2, 1\nlocks = r\n")


@pytest.fixture(scope="module")
def u1():
    # single variable, tiny values: exhaustive sweeps stay cheap
    return parse_universe("vars = x\nlocs = 2\nvals = 0..1\n"
                          "perms = 1/2, 1\nlocks = r\n")


def test_perm_add():
    assert perm_add(HALF, HALF) == TOP
    assert perm_add(TOP, HALF) is None
    assert perm_add(HALF, Fraction(1, 4)) == Fraction(3, 4)


def test_tensor_examples():
    a = lstate(stack={"x": (3, HALF)})
    assert tensor(a, a) == lstate(stack={"x": (3, TOP)})
    b = lstate(stack={"x": (4, HALF)})
    assert tensor(a, b) is None
    c = lstate(stack={"x": (3, TOP)})
    d = lstate(stack={"y": (0, TOP)})
    assert tensor(c, d) == lstate(stack={"x": (3, TOP), "y": (0, TOP)})


def test_erase_examples():
    assert erase(lstate(stack={"x": (3, HALF)})) == \
        MemoryState(fmap({"x": 3}), fmap())
    assert erase(EMPTY_LSTATE) == MemoryState()
    assert erase(lstate(heap={2: (7, TOP)})) == MemoryState(fmap(), fmap({2: 7}))


def test_satisfies_own_exact_permission(u):
    full = lstate(stack={"x": (5, TOP)})
    half = lstate(stack={"x": (5, HALF)})
    assert satisfies(full, Own(TOP, "x"), fmap(), u)
    assert not satisfies(half, Own(TOP, "x"), fmap(), u)


def test_satisfies_star_of_halves(u):
    sigma = lstate(stack={"x": (1, HALF), "y": (1, HALF)})
    f = Star(Own(HALF, "x"), Own(HALF, "y"))
    assert satisfies(sigma, f, fmap(), u)


def _oracle_splits(sigma, u):
    """All ordered tensor factorizations drawn from universe states."""
    pool = all_logical_states(u)
    return {(a, b) for a in pool for b in pool if tensor(a, b) == sigma}


def test_substates_against_oracle(u1):
    for sigma in [lstate(stack={"x": (1, TOP)}),
                  lstate(stack={"x": (0, HALF)}),
                  lstate(stack={"x": (1, TOP)}, heap={2: (0, TOP)}),
                  EMPTY_LSTATE]:
        got = set(substates(sigma, u1))
        assert got == _oracle_splits(sigma, u1)


def test_substates_counts_frozen(u):
    # oracle-computed: one key at full permission has 3 ordered splits,
    # two keys have 3 * 3
    sigma1 = lstate(stack={"x": (3, TOP)})
    assert len(list(substates(sigma1, u))) == 3
    sigma2 = lstate(stack={"x": (3, TOP), "y": (0, TOP)})
    assert len(list(substates(sigma2, u))) == 9
    assert list(substates(EMPTY_LSTATE, u)) == [(EMPTY_LSTATE, EMPTY_LSTATE)]


def test_substates_recombine(u):
    sigma = lstate(stack={"x": (1, TOP)}, heap={2: (2, HALF)})
    for a, b in substates(sigma, u):
        assert tensor(a, b) == sigma


def test_pointsto_exact(u):
    sigma = lstate(stack={"x": (2, TOP)}, heap={2: (3, HALF)})
    assert satisfies(sigma, PointsTo(Var("x"), HALF, Lit(3)), fmap(), u)
    assert not satisfies(sigma, PointsTo(Var("x"), TOP, Lit(3)), fmap(), u)
    assert not satisfies(sigma, PointsTo(Lit(3), HALF, Lit(3)), fmap(), u)


def test_eq_needs_program_vars_in_stack(u):
    sigma = lstate(stack={"x": (1, HALF)})
    assert satisfies(sigma, FEq(Var("x"), Lit(1)), fmap(), u)
    assert not satisfies(EMPTY_LSTATE, FEq(Var("x"), Lit(1)), fmap(), u)
    # logical variables resolve through the valuation
    assert satisfies(EMPTY_LSTATE, FEq(Var("X"), Lit(3)), fmap({"X": 3}), u)


def test_quantifiers_range_over_values(u1):
    sigma = lstate(stack={"x": (1, TOP)})
    assert satisfies(sigma, Exists("X", FEq(Var("x"), Var("X"))), fmap(), u1)
    assert not satisfies(sigma, Forall("X", FEq(Var("x"), Var("X"))), fmap(), u1)


def test_is_precise_verdicts(u1):
    assert is_precise(Emp(), u1)
    assert not is_precise(FTrue(), u1)
    # own is non-exact on the domain, so bare ownership is imprecise
    assert not is_precise(Own(TOP, "x"), u1)
    exact_own = parse_formula("own_1(x) and not (own_1(x) * not emp)")
    assert is_precise(exact_own, u1)


def test_entails_examples(u):
    p = FAnd(Own(TOP, "x"), FEq(Var("x"), Lit(1)))
    assert entails(p, def_formula(parse_formula("x = 2"), u), u)
    assert not entails(Emp(), def_formula(parse_formula("x = 0"), u), u)
    assert entails(p, p, u)


# --- models on the indexed universe against the state-by-state scan ---------------

ORACLE_UNIVERSES = [
    "vars = y, x\nlocs = 1\nvals = 0..1\nperms = 1/2, 1\nlocks = r\n",
    "vars = x\nlocs = 1\nvals = 0..1\nperms = 1/3, 2/3, 1\nlocks = r\n",
]


def _random_formula(rng, u, depth, bound=()):
    """A formula over the universe's variables, locations and values and the
    logical variables its quantifiers bind, nested at most `depth` deep."""
    def expr():
        return rng.choice([Lit(rng.choice(u.values)), Lit(rng.choice(u.locations)),
                           Var(rng.choice(u.variables)), *map(Var, bound)])

    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            lambda: Own(rng.choice(u.perms), rng.choice(u.variables)),
            lambda: PointsTo(expr(), rng.choice(u.perms), expr()),
            lambda: FEq(expr(), expr()),
            Emp, FTrue, FFalse])()
    sub = lambda: _random_formula(rng, u, depth - 1, bound)
    kind = rng.choice(["and", "or", "not", "implies", "star", "exists", "forall"])
    if kind in ("exists", "forall"):
        name = "XYZ"[len(bound)]
        body = _random_formula(rng, u, depth - 1, bound + (name,))
        return (Exists if kind == "exists" else Forall)(name, body)
    if kind == "not":
        return FNot(sub())
    op = {"and": FAnd, "or": FOr, "implies": FImplies, "star": Star}[kind]
    return op(sub(), sub())


# the scans decide satisfaction state by state (`_sat`), not on the models
def _scan_entails(p, q, u, rho=fmap()):
    return all(_sat(sigma, q, rho, u) for sigma in all_logical_states(u)
               if _sat(sigma, p, rho, u))


def _scan_precise(f, u, rho=fmap()):
    return all(sum(_sat(a, f, rho, u) for a, _ in substates(sigma, u)) <= 1
               for sigma in all_logical_states(u))


@pytest.mark.parametrize("text", ORACLE_UNIVERSES, ids=["halves", "thirds"])
def test_models_entails_and_precision_match_the_scan(text):
    u = parse_universe(text)
    table = universe_table(u)
    assert table.states == all_logical_states(u)
    for sigma, pairs in zip(table.states, table.splits):
        assert [(table.states[a], table.states[b]) for a, b in pairs] == \
            list(substates(sigma, u))
    rng = random.Random(2017)
    formulas = [_random_formula(rng, u, 3) for _ in range(40)]
    # two satisfying substates in a state with x at 1: imprecise
    formulas.append(parse_formula("emp or (own_1(x) and not (own_1(x) * not emp))"))
    for f in formulas:
        models = table.models(f)
        scan = [_sat(sigma, f, fmap(), u) for sigma in table.states]
        assert [bool(models >> i & 1) for i in range(len(table.states))] == scan, f
        # satisfaction of a table state is a bit test that agrees with the scan
        assert [satisfies(sigma, f, fmap(), u) for sigma in table.states] == scan, f
    pairs = list(zip(formulas, formulas[1:]))
    pairs += [(f, FOr(f, g)) for f, g in pairs[:10]]
    entailed = [entails(p, q, u) for p, q in pairs]
    assert entailed == [_scan_entails(p, q, u) for p, q in pairs]
    precise = [is_precise(f, u) for f in formulas]
    assert precise == [_scan_precise(f, u) for f in formulas]
    assert len(set(entailed)) == 2 and len(set(precise)) == 2


def test_unbound_logical_variable_is_met_as_in_the_scan(u1):
    free = FEq(Var("X"), Lit(1))
    never = FAnd(Own(TOP, "x"), Emp())
    # no state satisfies the premise, so the scan never evaluates X
    assert entails(never, free, u1) and _scan_entails(never, free, u1)
    assert is_precise(FAnd(never, free), u1)
    assert _scan_precise(FAnd(never, free), u1)
    with pytest.raises(UncoveredLogicalVariable):
        entails(FTrue(), free, u1)
    with pytest.raises(UncoveredLogicalVariable):
        is_precise(free, u1)
    # bound by the valuation, the same formulas are decided on models
    rho = fmap({"X": 1})
    assert entails(FTrue(), free, u1, rho) == _scan_entails(FTrue(), free, u1, rho)
    assert is_precise(free, u1, rho) == _scan_precise(free, u1, rho)


def test_satisfies_off_the_table():
    u = parse_universe("vars = x\nlocs = 1\nvals = 0..1\n"
                       "perms = 1/4, 1/2, 1\nlocks = r\n")
    three_quarters = lstate(stack={"x": (1, Fraction(3, 4))})
    assert universe_table(u).intern(three_quarters) >= len(universe_table(u).states)
    quarter, half = Own(Fraction(1, 4), "x"), Own(HALF, "x")
    assert satisfies(three_quarters, Star(quarter, half), fmap(), u)
    assert not satisfies(three_quarters, Star(half, half), fmap(), u)
    assert satisfies(three_quarters, Own(Fraction(3, 4), "x"), fmap(), u)
    # a value the universe does not declare, such as an allocated location
    located = lstate(stack={"x": (2, TOP)})
    assert located not in universe_table(u).index
    assert satisfies(located, Own(TOP, "x"), fmap(), u)
    assert not satisfies(located, Star(Own(TOP, "x"), Own(TOP, "x")), fmap(), u)
    # an unbound logical variable is reported only where an evaluation meets it
    free = FEq(Var("x"), Var("X"))
    assert not satisfies(lstate(heap={1: (0, TOP)}), free, fmap(), u)
    with pytest.raises(UncoveredLogicalVariable):
        satisfies(lstate(stack={"x": (0, TOP)}), free, fmap(), u)
    assert satisfies(lstate(stack={"x": (0, TOP)}), free, fmap({"X": 0}), u)


def test_an_unbound_formula_is_never_decided_on_the_table(u, monkeypatch):
    """With a variable rho leaves unbound, `satisfies` and `first_split` do
    not ask the universe table, whose failed decision stores nothing and
    would be made over every state again on each call.  The answers, or the
    exception, are `_sat`'s and the substates scan's."""
    decided = []
    decide = UniverseTable._decide
    monkeypatch.setattr(UniverseTable, "_decide",
                        lambda self, f, rho: decided.append(f) or decide(self, f, rho))
    free = FAnd(Own(TOP, "x"), FEq(Var("x"), Var("X")))
    states = universe_table(u).states
    for _ in range(2):
        outcomes = [_outcome(satisfies, sigma, free, fmap(), u) for sigma in states]
        assert outcomes == [_outcome(_sat, sigma, free, fmap(), u) for sigma in states]
        assert {False, ("raises", UncoveredLogicalVariable, "X")} == set(outcomes)
    assert decided == []
    splits = [_outcome(first_split_states, sigma, Emp(), free, fmap(), u) for sigma in states]
    assert splits == [_outcome(_scan_first_split, sigma, Emp(), free, fmap(), u)
                      for sigma in states]
    assert free not in decided


def test_tensor_commutative_associative_cancellative(u1):
    pool = all_logical_states(u1)
    small = [s for s in pool if len(s.stack) + len(s.heap) <= 1]
    for a in small:
        for b in small:
            assert tensor(a, b) == tensor(b, a)
    for a in small:
        for b in small:
            for c in small:
                ab = tensor(a, b)
                bc = tensor(b, c)
                left = tensor(ab, c) if ab is not None else None
                right = tensor(a, bc) if bc is not None else None
                assert left == right
    for a in small:
        for b1 in small:
            for b2 in small:
                x1, x2 = tensor(a, b1), tensor(a, b2)
                if x1 is not None and x1 == x2:
                    assert b1 == b2


# --- the per-cell join of earlier versions as oracle ------------------------------

def _cell_join(a, b):
    """Both maps copied and merged cell by cell, whatever their size."""
    out = dict(a.items())
    for k, (v, p) in b.items():
        if k not in out:
            out[k] = (v, p)
            continue
        v0, p0 = out[k]
        if v0 != v:
            return None
        s = perm_add(p0, p)
        if s is None:
            return None
        out[k] = (v, s)
    return fmap(out)


def _cell_tensor(a, b):
    stack, heap = _cell_join(a.stack, b.stack), _cell_join(a.heap, b.heap)
    return None if stack is None or heap is None else LogicalState(stack, heap)


def _cell_tensor_all(states):
    acc = EMPTY_LSTATE
    for s in states:
        acc = _cell_tensor(acc, s)
        if acc is None:
            return None
    return acc


def test_tensor_matches_the_cell_join_on_every_table_pair(u1):
    pool = universe_table(u1).states
    defined = 0
    for a in pool:
        for b in pool:
            got, want = tensor(a, b), _cell_tensor(a, b)
            assert got == want
            defined += got is not None
    assert len(pool) == 25 and 0 < defined < len(pool) ** 2
    for a in pool:
        assert tensor(a, EMPTY_LSTATE) is a
        assert tensor(EMPTY_LSTATE, a) is a or a.is_empty()


def test_tensor_matches_the_cell_join_off_the_table():
    q = lambda n: Fraction(n, 4)
    three = lstate(stack={"x": (1, q(3))})
    assert tensor(three, lstate(stack={"x": (1, q(1))})) == lstate(stack={"x": (1, TOP)})
    undeclared = lstate(heap={7: (0, HALF)})
    defined = [(three, lstate(stack={"x": (1, q(1))})),
               (three, lstate(stack={"y": (1, HALF)}, heap={1: (0, TOP)})),
               (three, EMPTY_LSTATE), (EMPTY_LSTATE, three), (undeclared, undeclared),
               (undeclared, lstate(stack={"x": (0, TOP)}, heap={1: (0, TOP)}))]
    # value clashes and share overflow, on the stack and the heap
    undefined = [(three, lstate(stack={"x": (1, HALF)})),
                 (undeclared, lstate(heap={7: (1, HALF)})),
                 (lstate(stack={"x": (0, HALF)}), lstate(stack={"x": (1, HALF)})),
                 (lstate(heap={1: (0, TOP)}), lstate(heap={1: (0, q(1))})),
                 (lstate(stack={"x": (0, TOP)}, heap={1: (0, TOP)}),
                  lstate(stack={"y": (0, TOP)}, heap={1: (1, HALF)}))]
    for a, b in defined + undefined:
        assert tensor(a, b) == _cell_tensor(a, b)
        assert tensor(b, a) == _cell_tensor(b, a)
    assert all(tensor(a, b) is not None for a, b in defined)
    assert all(tensor(a, b) is None and tensor(b, a) is None for a, b in undefined)


def test_tensor_all_matches_the_cell_fold():
    a = lstate(stack={"x": (1, HALF)})
    b = lstate(heap={1: (0, TOP)})
    clash = lstate(stack={"x": (0, HALF)})
    assert tensor_all([]) is EMPTY_LSTATE
    assert tensor_all(iter([a])) is a
    for states in ([], [a], [EMPTY_LSTATE], [a, b], [a, EMPTY_LSTATE, a, b],
                   [a, clash, b], [a, b, clash, EMPTY_LSTATE], [a, a, a]):
        assert tensor_all(states) == _cell_tensor_all(states)
    assert tensor_all([a, clash, b]) is None and tensor_all([a, a, a]) is None


def test_erase_is_homomorphic(u1):
    pool = [s for s in all_logical_states(u1)
            if len(s.stack) + len(s.heap) <= 2]
    for a in pool:
        for b in pool:
            ab = tensor(a, b)
            if ab is None:
                continue
            ea, eb, eab = erase(a), erase(b), erase(ab)
            for k, v in ea.stack.items():
                assert eab.stack[k] == v
            for k, v in eb.stack.items():
                assert eab.stack[k] == v
            assert set(eab.stack) == set(ea.stack) | set(eb.stack)


def test_star_emp_is_neutral(u1):
    f = parse_formula("own_1(x)")
    g = Star(f, Emp())
    for sigma in all_logical_states(u1):
        assert satisfies(sigma, f, fmap(), u1) == satisfies(sigma, g, fmap(), u1)


def test_lstate_text_round_trip(u):
    for sigma in [EMPTY_LSTATE, lstate(stack={"x": (1, HALF)}),
                  lstate(stack={"x": (0, TOP), "y": (3, HALF)},
                         heap={2: (1, TOP)})]:
        assert lstate_from_text(lstate_to_text(sigma)) == sigma


# --- the split search ---------------------------------------------------------------

def _scan_first_split(sigma, fa, fb, rho, u):
    """The split search as a scan of `substates`, asking `satisfies`."""
    for a, b in substates(sigma, u):
        if satisfies(a, fa, rho, u) and satisfies(b, fb, rho, u):
            return a, b
    return None


def _outcome(search, *args):
    try:
        return search(*args)
    except UncoveredLogicalVariable as exc:
        return ("raises", type(exc), str(exc))


def _rule_split_pairs():
    """(left formula, right formula, valuation) for every split the lifted
    strategies of the corpus proofs search: par's two preconditions, frame's
    P and R, res's invariant and precondition, and with's invariant and
    postcondition at the release."""
    pairs = set()
    for name in PROGRAMS:
        node = parse_proof(corpus_text(f"{name}.proof"))
        rho = check_proof(node, parse_universe(corpus_text(f"{name}.uni")),
                          allow_extensions=True).valuation
        nodes = [node]
        for n in nodes:          # the list grows by each node's premises
            nodes.extend(n.children)
            if n.tag == "par":
                pairs.add((n.children[0].pre, n.children[1].pre, rho))
            elif n.tag == "frame":
                pairs.add((n.children[0].pre, n.params["R"], rho))
            elif n.tag == "res":
                pairs.add((n.params["inv"], n.children[0].pre, rho))
            elif n.tag == "with":
                pairs.add((n.ctx[n.cmd.lock], n.post, rho))
    return sorted(pairs, key=repr)


SPLIT_UNIVERSES = {   # strategy-chain's universe, and check-large's
    "strategy-chain": "vars = x, y\nlocs = 2\nvals = 0..1\nperms = 1/2, 1\nlocks = r\n",
    "check-large": "vars = x, y\nlocs = 2, 3\nvals = 0..1\nperms = 1/2, 1\nlocks = r\n",
}


@pytest.mark.parametrize("name", sorted(SPLIT_UNIVERSES))
def test_first_split_equals_the_substates_scan(name):
    """On every state of the universe, with the splits the corpus rules
    search, the table scan finds the scan's split or finds none; a found
    split is a pair of the table's own states."""
    u = parse_universe(SPLIT_UNIVERSES[name])
    table = universe_table(u)
    pairs = _rule_split_pairs()
    assert {type(fa).__name__ for fa, _, _ in pairs} >= {"Own", "Star", "Emp"}
    found = missing = 0
    for sigma in table.states:
        for fa, fb, rho in pairs:
            split = first_split_states(sigma, fa, fb, rho, u)
            assert split == _scan_first_split(sigma, fa, fb, rho, u)
            if split is None:
                missing += 1
                continue
            found += 1
            assert all(part is table.states[table.index[part]] for part in split)
    assert found and missing


def test_first_split_off_the_table_and_unbound():
    """A state outside the table (a 3/4 share under perms 1/4, 1/2 and 1) and
    a logical variable the valuation leaves unbound: the same split, the same
    failure, or the same exception as the scan."""
    u = parse_universe("vars = x, y\nlocs = 2\nvals = 0..1\n"
                       "perms = 1/4, 1/2, 1\nlocks = r\n")
    quarter, half = Own(Fraction(1, 4), "x"), Own(HALF, "x")
    three_quarters = lstate(stack={"x": (1, Fraction(3, 4))})
    assert universe_table(u).intern(three_quarters) >= len(universe_table(u).states)
    free = FEq(Var("x"), Var("X"))
    cases = [(three_quarters, half, quarter, fmap()),
             (three_quarters, quarter, half, fmap()),
             (three_quarters, half, half, fmap()),
             (three_quarters, free, FTrue(), fmap({"X": 1})),
             (three_quarters, free, FTrue(), fmap())]
    outcomes = [_outcome(first_split_states, *case, u) for case in cases]
    assert outcomes == [_outcome(_scan_first_split, *case, u) for case in cases]
    assert outcomes[:5] == [
        (lstate(stack={"x": (1, HALF)}), lstate(stack={"x": (1, Fraction(1, 4))})),
        (lstate(stack={"x": (1, Fraction(1, 4))}), lstate(stack={"x": (1, HALF)})),
        None,
        (lstate(stack={"x": (1, Fraction(1, 4))}), lstate(stack={"x": (1, HALF)})),
        ("raises", UncoveredLogicalVariable, "X")]
    # on the table, the unbound variable is met only where the scan meets it
    u = parse_universe(SPLIT_UNIVERSES["strategy-chain"])
    cases = [(sigma, FAnd(Own(TOP, "x"), free), FTrue(), fmap())
             for sigma in universe_table(u).states]
    cases += [(sigma, Emp(), FEq(Var("y"), Var("Y")), fmap())
              for sigma in universe_table(u).states]
    outcomes = [_outcome(first_split_states, *case, u) for case in cases]
    assert outcomes == [_outcome(_scan_first_split, *case, u) for case in cases]
    assert None in outcomes
    assert ("raises", UncoveredLogicalVariable, "X") in outcomes
    assert ("raises", UncoveredLogicalVariable, "Y") in outcomes


# --- supports: atoms and `*` decided on the cells a formula reads ------------------

def _table_universes():
    """Every corpus universe and check-large's, one per table they index.  The
    negative proofs' universe (6,561 states) is left out: the scan takes
    about a second per formula there."""
    texts = [corpus_text(f"{name}.uni") for name in PROGRAMS + ["tiny"]]
    found = {}
    for text in texts + [SPLIT_UNIVERSES["check-large"]]:
        u = parse_universe(text)
        found.setdefault((u.variables, u.locations, u.values, u.perms), u)
    return list(found.values())


TABLE_UNIVERSES = _table_universes()
TABLE_IDS = ["{}-{}-{}".format("".join(u.variables), "".join(map(str, u.locations)),
                               len(u.values)) for u in TABLE_UNIVERSES]


def _scan_models(f, u, rho=fmap()):
    return sum(1 << i for i, sigma in enumerate(universe_table(u).states)
               if _sat(sigma, f, rho, u))


def _split_scan_precise(f, u):
    """Precision as a scan of every state's splits against the models."""
    table = universe_table(u)
    models = table.models(f)
    return all(sum(models >> a & 1 for a, _ in pairs) <= 1 for pairs in table.splits)


def _index_splits(table):
    """Every state's splits as index pairs, all built at once by digits: the
    table's eager construction before splits were built on demand."""
    u, cells = table.u, table.cells
    order = sorted(range(len(cells)), key=lambda k: (cells[k][0] == "h", cells[k][1]))
    options = []           # options[k][digit]: (left, right) index parts
    for kind, key in cells:
        per_digit = [((0, 0),)]
        for value in u.values:
            part = dict(zip((0,) + u.perms, table.parts[kind, key, value]))
            for p in u.perms:
                per_digit.append(tuple((part[p1], part[p2])
                                       for p1, p2 in _slot_splits(p, u.perms)))
        options.append(per_digit)
    out = []
    for digits in itertools.product(range(table.radix), repeat=len(cells)):
        pairs = [(0, 0)]
        for k in order:
            if digits[k]:
                pairs = [(a + x, b + y) for a, b in pairs
                         for x, y in options[k][digits[k]]]
        out.append(tuple(pairs))
    return tuple(out)


@pytest.mark.parametrize("u", TABLE_UNIVERSES, ids=TABLE_IDS)
def test_models_on_the_support_equal_the_scan(u):
    """Seeded random formulas: the models equal `_sat` state by state, and
    `is_precise`, which scans splits only for a formula reading every cell,
    equals the scan of every state's splits."""
    table = universe_table(u)
    rng = random.Random(1710)
    formulas = [_random_formula(rng, u, 3) for _ in range(20)]
    for f in formulas:
        assert table.models(f) == _scan_models(f, u), f
    precise = [is_precise(f, u) for f in formulas]
    assert precise == [_split_scan_precise(f, u) for f in formulas]
    partial = [p for f, p in zip(formulas, precise)
               if len(table.support(f)) < len(table.cells)]
    assert set(partial) == {False, True}


@pytest.mark.parametrize("u", TABLE_UNIVERSES, ids=TABLE_IDS)
def test_splits_built_on_demand_equal_the_eager_index_splits(u):
    table = UniverseTable(u)
    assert [table.splits[i] for i in reversed(range(len(table.states)))] == \
        list(reversed(_index_splits(table)))


X = Var("X")
SUPPORTS = [   # formula, valuation, the cells (x, y, location 2, location 3) read
    (FTrue(), fmap(), ()),
    (FFalse(), fmap(), ()),
    (Own(HALF, "y"), fmap(), (1,)),
    (Own(TOP, "z"), fmap(), ()),                           # undeclared variable
    (FEq(Var("z"), Lit(1)), fmap(), ()),
    (FEq(Var("y"), Var("x")), fmap(), (0, 1)),
    (FEq(X, Lit(1)), fmap({"X": 1}), ()),
    (PointsTo(Var("x"), TOP, Lit(1)), fmap(), (0, 2, 3)),  # variable address
    (PointsTo(Lit(2), HALF, Var("y")), fmap(), (1, 2, 3)),
    (PointsTo(Lit(5), TOP, Lit(0)), fmap(), (2, 3)),       # address outside locs
    (Emp(), fmap(), (0, 1, 2, 3)),
    (FNot(Own(TOP, "x")), fmap(), (0,)),
    (FAnd(Own(TOP, "x"), FEq(Var("x"), Lit(1))), fmap(), (0,)),
    (FOr(Own(TOP, "x"), Own(TOP, "y")), fmap(), (0, 1)),
    (FImplies(Own(TOP, "x"), Emp()), fmap(), (0, 1, 2, 3)),
    (Exists("X", FEq(Var("x"), X)), fmap(), (0,)),
    (Forall("X", FImplies(FEq(Var("y"), X), Own(TOP, "x"))), fmap(), (0, 1)),
    (Star(Own(HALF, "x"), Own(HALF, "x")), fmap(), (0,)),
    (Star(Own(TOP, "x"), Own(HALF, "y")), fmap(), (0, 1)),
    (Star(Own(TOP, "x"), Star(Own(HALF, "y"), PointsTo(Lit(3), TOP, Lit(1)))),
     fmap(), (0, 1, 2, 3)),
    (Star(Star(FEq(Var("x"), Lit(0)), Own(HALF, "y")), FTrue()), fmap(), (0, 1)),
    (Star(Emp(), Own(TOP, "x")), fmap(), (0, 1, 2, 3)),
    (Star(Own(TOP, "x"), Emp()), fmap(), (0, 1, 2, 3)),
]


def test_support_of_each_formula_kind_and_its_models():
    u = parse_universe(SPLIT_UNIVERSES["check-large"])
    table = universe_table(u)
    assert table.cells == [("s", "x"), ("s", "y"), ("h", 2), ("h", 3)]
    for f, rho, cells in SUPPORTS:
        assert table.support(f) == cells, f
        assert table.models(f, rho) == _scan_models(f, u, rho), f
    models = {f: table.models(f, rho) for f, rho, _ in SUPPORTS}
    # an undeclared name, or an address outside the locations: false everywhere
    assert models[Own(TOP, "z")] == models[FEq(Var("z"), Lit(1))] == 0
    assert models[PointsTo(Lit(5), TOP, Lit(0))] == 0
    assert models[Emp()] == 1 and models[FEq(X, Lit(1))] == table.full
    # emp is the unit of *
    assert models[Star(Emp(), Own(TOP, "x"))] == models[Star(Own(TOP, "x"), Emp())] \
        == table.models(Own(TOP, "x"))
    assert models[Star(Own(HALF, "x"), Own(HALF, "x"))] == table.models(Own(TOP, "x"))


def test_check_large_if_def_reads_few_cells(monkeypatch):
    """Checking the `if_def` proof on check-large's universe judges 32 atoms
    on states and builds 25 states' splits; deciding every atom on every
    state and building every state's splits took 5,000 and 625."""
    atoms = []
    atom = logic._atom
    monkeypatch.setattr(logic, "_atom", lambda *args: atoms.append(args) or atom(*args))
    u = parse_universe(SPLIT_UNIVERSES["check-large"])
    table = UniverseTable(u)
    monkeypatch.setattr(logic, "universe_table", lambda _: table)
    assert check_proof(parse_proof(corpus_text("if_def.proof")), u,
                       allow_extensions=True).ok
    assert len(table.states) == 625
    assert len(atoms) == 32
    assert sum(pairs is not None for pairs in table.splits.found) == 25
