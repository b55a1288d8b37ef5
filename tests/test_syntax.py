import collections
import random
import re
from fractions import Fraction

import pytest

from sepgame.syntax import (Add, AllocC, Assign, DisposeC, Emp, Exists, FAnd, FEq,
                            FFalse, FImplies, FNot, FOr, Forall, FTrue, IfC, Lit, Load,
                            Mul, Own, ParC, ParseError, PointsTo, ResourceC, SeqC, Skip,
                            Star, Store, Token, Var, While, WithWhen, formula_to_text,
                            parse_program, parse_proof, parse_universe, program_to_text,
                            tokenize)

from .builders import parse_formula
from .conftest import CORPUS, PROGRAMS, corpus_text
from .printers import proof_to_text, universe_to_text


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


def test_parse_universe_permissions_closed_under_sums():
    """Every sum of two permissions that stays at most 1 is a permission, so
    every piece of a state is a universe state; the first pair in ascending
    order that breaks this is named."""
    text = "vars = x\nlocs = 2\nvals = 0..1\nperms = {}\nlocks = r\n"
    with pytest.raises(ParseError) as exc:
        parse_universe(text.format("1/4, 1/2, 1"))
    assert str(exc.value) == "permission set is not closed under sums: 1/4 + 1/2 = 3/4"
    for perms in ("1/4, 1/2, 3/4, 1", "1/3, 2/3, 1", "1/2, 1", "1"):
        assert parse_universe(text.format(perms)).perms[-1] == 1


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


def _node_formulas(node):
    """The pre, post, context invariants and formula parameters of every
    node of a derivation tree."""
    yield node.pre
    yield node.post
    yield from (inv for _, inv in node.ctx.items())
    yield from (node.params[k] for k in ("R", "inv") if k in node.params)
    for child in node.children:
        yield from _node_formulas(child)


def test_corpus_formulas_round_trip():
    """Every formula of the corpus proofs, `E |-> -` sugar included, prints
    to a text that re-parses to itself."""
    formulas = [f for path in sorted(CORPUS.rglob("*.proof"))
                for f in _node_formulas(parse_proof(path.read_text()))]
    texts = [formula_to_text(f) for f in formulas]
    assert (len(formulas), sum("|-> -" in text for text in texts)) == (160, 7)
    assert [parse_formula(text) for text in texts] == formulas


@pytest.mark.parametrize("text, printed", [
    ("3 |-> -", "(3 |-> -)"),
    ("x + 1 |->[1/2] -", "(x + 1 |->[1/2] -)"),
    ("exists X_1. (3 |-> X_1)", "(3 |-> -)"),
    ("exists X_1. (X_1 |-> X_1)", "exists X_1. (X_1 |-> X_1)"),
    ("exists X_2. (3 |-> X_2)", "exists X_2. (3 |-> X_2)"),
])
def test_points_to_sugar_prints_back(text, printed):
    """`E |-> -` is the parser's `exists X_k. (E |-> X_k)` for the first
    X_k that E does not name; the printer writes exactly those back."""
    assert formula_to_text(parse_formula(text)) == printed


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


@pytest.mark.parametrize("text, col", [
    ("while emp do skip", 7),
    ("if not x = 0 then skip else skip", 4),
    ("with r when own_1(x) do skip", 13),
    ("while x = 0 * emp do skip", 7),
    ("if 2 |-> 1 then skip else skip", 4),
    ("while x = 0 => true do skip", 7),
    ("while exists X. x = X do skip", 7),
])
def test_a_formula_that_is_not_a_test_is_rejected_at_its_start(text, col):
    with pytest.raises(ParseError, match="^expected a test") as exc:
        parse_program(text)
    assert (exc.value.line, exc.value.col) == (1, col)


# --- the lexer against the character loop it replaced ---------------------------

_OLD_SYMBOLS = ["|->", "||", ":=", "=>", "..", "->", "(", ")", "{", "}", "[", "]",
                ";", ",", ".", ":", "=", "+", "*", "|", "-", "@", "/"]
_OLD_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OLD_OWN_RE = re.compile(r"own_(\d+)(?:/(\d+))?")
_OLD_INT_RE = re.compile(r"\d+")


def _old_tokenize(text):
    """The lexer as a loop over characters, the oracle of `tokenize`."""
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _OLD_OWN_RE.match(text, i)
        if m:
            num, den = int(m.group(1)), int(m.group(2) or 1)
            try:
                value = Fraction(num, den)
            except ZeroDivisionError as exc:
                exc.at = (line, col)   # where the lexer now reports a ParseError
                raise
            toks.append(Token("own", m.group(0), value, line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _OLD_NAME_RE.match(text, i)
        if m:
            toks.append(Token("name", m.group(0), m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _OLD_INT_RE.match(text, i)
        if m:
            toks.append(Token("int", m.group(0), int(m.group(0)), line, col))
            col += m.end() - i
            i = m.end()
            continue
        for s in _OLD_SYMBOLS:
            if text.startswith(s, i):
                toks.append(Token("sym", s, s, line, col))
                i += len(s)
                col += len(s)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", None, line, col))
    return toks


def _lexed(lex, text):
    """The token stream as (kind, text, value, line, col) tuples, or the
    exception's type and message."""
    try:
        return [(t.kind, t.text, t.value, t.line, t.col) for t in lex(text)]
    except ParseError as exc:
        return type(exc).__name__, str(exc)
    except ZeroDivisionError as exc:
        return type(exc).__name__, exc.at


def _assert_lexes_as_before(text) -> str:
    """Check both lexers on the text; say whether it failed to lex, ended in
    a comment (the one case the streams differ) or lexed alike.  Where the
    old lexer divided by a zero denominator, the new one reports a ParseError
    at the same token."""
    old, new = _lexed(_old_tokenize, text), _lexed(tokenize, text)
    if old[0] == "ZeroDivisionError":
        assert new[0] == "ParseError" and new[1].endswith(
            " has a zero denominator at %d:%d" % old[1])
        return "error"
    if isinstance(old, tuple):
        assert new == old
        return "error"
    # the loop never advanced the column over a comment, so after a comment
    # on the last line its end-of-input column is the comment's start
    last = text.rsplit("\n", 1)[-1]
    assert old[-1][4] == (last.find("#") + 1 if "#" in last else len(last) + 1)
    assert new[-1][4] == len(last) + 1
    assert new[:-1] == old[:-1] and new[-1][:4] == old[-1][:4]
    return "comment" if new != old else "equal"


def test_tokens_equal_the_character_loop_on_the_corpus():
    files = [p for p in sorted(CORPUS.rglob("*")) if p.is_file()]
    assert len(files) > 30
    for path in files:
        _assert_lexes_as_before(path.read_text())


_PIECES = ["x", "y1", "X_2", "own_", "own_1", "own_1/2", "own_3/", "own_2/0",
           "0", "12", "7", "٣", " ", "  ", "\t", "\r", "\n", "#", "# note",
           "!", "$", "é", "'", "\f", *_OLD_SYMBOLS, "|-", ":", "..."]


def test_tokens_equal_the_character_loop_on_random_text():
    rng = random.Random(16)
    outcomes = collections.Counter(
        _assert_lexes_as_before("".join(rng.choice(_PIECES)
                                        for _ in range(rng.randrange(12))))
        for _ in range(30000))
    assert min(outcomes[k] for k in ("error", "comment", "equal")) > 3000


@pytest.mark.parametrize("text, col", [("own_2/0(x) * emp", 1), ("2 |->[1/0] 1", 7),
                                       ("emp * own_0/0(y)", 7)])
def test_a_zero_denominator_is_a_parse_error_at_the_permission(text, col):
    with pytest.raises(ParseError, match="has a zero denominator") as exc:
        parse_formula(text)
    assert (exc.value.line, exc.value.col) == (1, col)


def test_end_of_input_after_a_trailing_comment():
    assert _lexed(_old_tokenize, "x := # note")[-1] == ("eof", "", None, 1, 6)
    assert _lexed(tokenize, "x := # note")[-1] == ("eof", "", None, 1, 12)
    with pytest.raises(ParseError, match="at 1:12$"):
        parse_program("x := # note")


def test_proof_round_trip():
    for name in ("par_writes", "lock_transfer", "seq_load_store", "if_def"):
        node = parse_proof(corpus_text(f"{name}.proof"))
        assert parse_proof(proof_to_text(node)) == node


def test_universe_round_trip():
    u = parse_universe("vars = x, y\nlocs = 2, 3\nvals = 0..3\n"
                       "perms = 1/2, 1\nlocks = r\nmaxlen = 4\nenv = exhaustive\n")
    assert parse_universe(universe_to_text(u)) == u
