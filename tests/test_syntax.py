import random
from fractions import Fraction

import pytest

from sepgame.syntax import (Add, AllocC, Assign, DisposeC, Emp, Exists, FAnd,
                            FEq, FFalse, FImplies, FNot, FOr, Forall, FTrue,
                            IfC, Lit, Load, Mul, Own, ParC, ParseError,
                            PointsTo, ResourceC, SeqC, Skip, Star, Store, Var,
                            While, WithWhen,
                            formula_to_text, parse_formula,
                            parse_program, parse_proof, parse_universe,
                            program_to_text, proof_to_text, universe_to_text)

from .conftest import PROGRAMS, corpus_text


def test_parse_parallel_assigns():
    c = parse_program("x := 1 || x := 2")
    assert c == ParC(Assign("x", Lit(1)), Assign("x", Lit(2)))


def test_parse_resource_with():
    c = parse_program("resource r do with r when true do x := x + 1")
    assert c == ResourceC("r", WithWhen("r", FTrue(),
                                        Assign("x", Add(Var("x"), Lit(1)))))


def test_parse_malformed_equality():
    with pytest.raises(ParseError):
        parse_program("while x = do skip")


def test_seq_binds_tighter_than_par():
    c = parse_program("x := 1 ; y := 1 || x := 2")
    assert isinstance(c, ParC)
    assert isinstance(c.left, SeqC)


def test_parse_formula_star_eq():
    f = parse_formula("own_1(x) * x = 3")
    assert f == Star(Own(Fraction(1), "x"), FEq(Var("x"), Lit(3)))


def test_points_to_dash_sugar():
    f = parse_formula("x |-> -")
    assert isinstance(f, Exists)
    assert f.body == PointsTo(Var("x"), Fraction(1), Var(f.var))


def test_permission_out_of_range():
    with pytest.raises(ParseError):
        parse_formula("own_3/2(x)")


def test_annotated_points_to():
    f = parse_formula("2 |->[1/2] y")
    assert f == PointsTo(Lit(2), Fraction(1, 2), Var("y"))


def test_parse_proof_children_and_params():
    node = parse_proof("""
    (frame
      pre: (own_1(x) * (X = 1)) * own_1(y)
      cmd: x := 1
      post: (own_1(x) * (x = X)) * own_1(y)
      R: own_1(y)
      (aff pre: own_1(x) * (X = 1) cmd: x := 1
           post: own_1(x) * (x = X) val: [X = 1]))
    """)
    assert node.tag == "frame"
    assert node.params["R"] == Own(Fraction(1), "y")
    assert len(node.children) == 1
    assert node.children[0].params["val"]["X"] == 1


def test_parse_proof_wrong_arity():
    with pytest.raises(ParseError):
        parse_proof("(conj pre: emp cmd: skip post: emp "
                    "(aff pre: emp cmd: skip post: emp))")


def test_parse_proof_unknown_tag():
    with pytest.raises(ParseError):
        parse_proof("(magic pre: emp cmd: skip post: emp)")


def test_parse_universe_basic():
    u = parse_universe("vars = x, y\nlocs = 2\nvals = 0..3\n"
                       "perms = 1/2, 1\nlocks = r\n")
    assert u.values == (0, 1, 2, 3)
    assert u.perms == (Fraction(1, 2), Fraction(1))
    assert u.maxlen == 6 and u.env_policy == "passive"


def test_parse_universe_missing_top():
    with pytest.raises(ParseError):
        parse_universe("vars = x\nlocs = 2\nvals = 0..3\nperms = 1/2\nlocks = r\n")


def test_parse_universe_empty_range():
    with pytest.raises(ParseError):
        parse_universe("vars = x\nlocs = 2\nvals = 0..-1\nperms = 1\nlocks = r\n")


# --- round-trips over randomly generated ASTs ---------------------------------

def _rand_expr(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([Lit(rng.randrange(4)), Var(rng.choice("xyz")),
                           Var(rng.choice(["X", "Y"]))])
    cls = rng.choice([Add, Mul])
    return cls(_rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))


def _rand_prog_expr(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([Lit(rng.randrange(4)), Var(rng.choice("xyz"))])
    cls = rng.choice([Add, Mul])
    return cls(_rand_prog_expr(rng, depth - 1), _rand_prog_expr(rng, depth - 1))


def _rand_bexpr(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([FTrue(), FFalse(),
                           FEq(_rand_prog_expr(rng, 1), _rand_prog_expr(rng, 1))])
    cls = rng.choice([FAnd, FOr])
    return cls(_rand_bexpr(rng, depth - 1), _rand_bexpr(rng, depth - 1))


def _rand_command(rng, depth):
    leaves = [
        lambda: Skip(),
        lambda: Assign(rng.choice("xyz"), _rand_prog_expr(rng, 1)),
        lambda: Load(rng.choice("xyz"), _rand_prog_expr(rng, 1)),
        lambda: Store(_rand_prog_expr(rng, 1), _rand_prog_expr(rng, 1)),
        lambda: AllocC(rng.choice("xyz"), _rand_prog_expr(rng, 1)),
        lambda: DisposeC(_rand_prog_expr(rng, 1)),
    ]
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(leaves)()
    builders = [
        lambda: SeqC(_rand_command(rng, depth - 1), _rand_command(rng, depth - 1)),
        lambda: ParC(_rand_command(rng, depth - 1), _rand_command(rng, depth - 1)),
        lambda: While(_rand_bexpr(rng, 1), _rand_command(rng, depth - 1)),
        lambda: ResourceC(rng.choice("rs"), _rand_command(rng, depth - 1)),
        lambda: WithWhen(rng.choice("rs"), _rand_bexpr(rng, 1),
                         _rand_command(rng, depth - 1)),
        lambda: IfC(_rand_bexpr(rng, 1), _rand_command(rng, depth - 1),
                    _rand_command(rng, depth - 1)),
    ]
    return rng.choice(builders)()


def _rand_formula(rng, depth):
    perms = [Fraction(1), Fraction(1, 2)]
    leaves = [
        lambda: Emp(), lambda: FTrue(), lambda: FFalse(),
        lambda: Own(rng.choice(perms), rng.choice("xyz")),
        lambda: PointsTo(_rand_expr(rng, 1), rng.choice(perms), _rand_expr(rng, 1)),
        lambda: FEq(_rand_expr(rng, 1), _rand_expr(rng, 1)),
    ]
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(leaves)()
    builders = [
        lambda: FAnd(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1)),
        lambda: FOr(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1)),
        lambda: Star(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1)),
        lambda: FImplies(_rand_formula(rng, depth - 1), _rand_formula(rng, depth - 1)),
        lambda: FNot(_rand_formula(rng, depth - 1)),
        lambda: Forall(rng.choice(["X", "Y"]), _rand_formula(rng, depth - 1)),
        lambda: Exists(rng.choice(["X", "Y"]), _rand_formula(rng, depth - 1)),
    ]
    return rng.choice(builders)()


def test_program_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        c = _rand_command(rng, 3)
        assert parse_program(program_to_text(c)) == c


def test_formula_round_trip_random():
    rng = random.Random(8)
    for _ in range(300):
        f = _rand_formula(rng, 3)
        assert parse_formula(formula_to_text(f)) == f


def _tests_of(c):
    """The tests of every if, while and with in a command."""
    match c:
        case IfC(b, then, orelse):
            return [b] + _tests_of(then) + _tests_of(orelse)
        case While(b, body) | WithWhen(_, b, body):
            return [b] + _tests_of(body)
        case SeqC(a, b) | ParC(a, b):
            return _tests_of(a) + _tests_of(b)
        case ResourceC(_, body):
            return _tests_of(body)
    return []


def _test_of(text):
    return parse_program(f"while {text} do skip").cond


def test_tests_parse_as_formulas():
    corpus = [b for name in PROGRAMS
              for b in _tests_of(parse_program(corpus_text(f"{name}.csl")))]
    assert len(corpus) == 5
    rng = random.Random(9)
    for b in corpus + [_rand_bexpr(rng, 3) for _ in range(300)]:
        text = formula_to_text(b)
        assert _test_of(text) == parse_formula(text) == b
    for text in ("x = 0 or y = 1 and true", "true and false and x = y",
                 "(x = 0 or y = 0) or x + 1 = y * 2"):
        assert _test_of(text) == parse_formula(text)


def test_proof_round_trip():
    for name in ("par_writes", "lock_transfer", "seq_load_store", "if_def"):
        node = parse_proof(corpus_text(f"{name}.proof"))
        assert parse_proof(proof_to_text(node)) == node


def test_universe_round_trip():
    u = parse_universe("vars = x, y\nlocs = 2, 3\nvals = 0..3\n"
                       "perms = 1/2, 1\nlocks = r\nmaxlen = 4\nenv = exhaustive\n")
    assert parse_universe(universe_to_text(u)) == u
