import pytest

from sepgame.logic import entails
from sepgame.proof import check_proof, formulas_match, normalize
from sepgame.syntax import (parse_formula, parse_proof, parse_universe,
                            proof_to_text)
from .conftest import CORPUS, PROGRAMS, corpus_text


@pytest.fixture(scope="module")
def u():
    return parse_universe("vars = x, y\nlocs = 2, 3\nvals = 0..3\n"
                          "perms = 1/2, 1\nlocks = r, s\nmaxlen = 4\n")


def _check_text(text, u, allow_extensions=True):
    return check_proof(parse_proof(text), u, allow_extensions=allow_extensions)


# --- matching up to AC and bound renaming -------------------------------------

def test_formulas_match_ac():
    a = parse_formula("own_1(x) * own_1(y) * (x = 1)")
    b = parse_formula("(x = 1) * (own_1(y) * own_1(x))")
    assert formulas_match(a, b)
    c = parse_formula("own_1(x) and (own_1(y) and (x = 1))")
    d = parse_formula("((x = 1) and own_1(y)) and own_1(x)")
    assert formulas_match(c, d)
    assert not formulas_match(a, c)   # star and conjunction stay distinct


def test_formulas_match_alpha():
    a = parse_formula("exists X. (x |-> X)")
    b = parse_formula("exists Y. (x |-> Y)")
    assert formulas_match(a, b)
    assert not formulas_match(a, parse_formula("exists X. (y |-> X)"))


def test_normalization_is_sound_semantically(u):
    pairs = [
        ("(own_1(x) and x = 1) * own_1(y)", "own_1(y) * (own_1(x) and x = 1)"),
        ("emp and true", "true and emp"),
        ("exists X. own_1(x) * (X = 1)", "exists Z. (Z = 1) * own_1(x)"),
    ]
    for left, right in pairs:
        fl, fr = parse_formula(left), parse_formula(right)
        assert normalize(fl) == normalize(fr)
        assert entails(fl, fr, u) and entails(fr, fl, u)


# --- acceptance of the corpus and minimal instances -----------------------------

def test_corpus_proofs_accepted():
    for name in PROGRAMS:
        uni = parse_universe(corpus_text(f"{name}.uni"))
        res = check_proof(parse_proof(corpus_text(f"{name}.proof")), uni,
                          allow_extensions=True)
        assert res.ok, (name, res.violations)


def test_aff_instance_with_expression(u):
    # ghost records the assigned expression's value
    res = _check_text("""
    (aff pre: own_1(x) * (X = x + 1) cmd: x := x + 1
         post: own_1(x) * (x = X) val: [X = 3])
    """, u)
    assert res.ok


def test_store_minimal_and_near_miss(u):
    good = _check_text("(store pre: 2 |-> - cmd: [2] := x + 1 post: 2 |-> x + 1)", u)
    assert good.ok
    bad = _check_text("(store pre: 2 |-> - cmd: [2] := x + 1 post: 2 |-> x)", u)
    assert not bad.ok and "postcondition" in bad.violations[0][2]


def test_load_minimal(u):
    res = _check_text("""
    (load pre: (2 |->[1/2] V) * own_1(x) cmd: x := [2]
          post: (2 |->[1/2] V) * own_1(x) * (x = V) val: [V = 0])
    """, u)
    assert res.ok


def test_seq_midpoint_mismatch(u):
    res = _check_text("""
    (seq pre: own_1(x) * (X = 1) cmd: x := 1 ; x := 2
         post: own_1(x) * (x = Z)
      (aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X) val: [X = 1])
      (aff pre: own_1(x) * (Z = 2) cmd: x := 2 post: own_1(x) * (x = Z) val: [Z = 2]))
    """, u)
    assert not res.ok
    assert any("midpoint" in reason for _, _, reason in res.violations)


def test_ext_skip(u):
    assert _check_text("(ext_skip pre: own_1(x) cmd: skip post: own_1(x))", u).ok
    bad = _check_text("(ext_skip pre: own_1(x) cmd: skip post: emp)", u)
    assert not bad.ok


def test_ext_conseq_false_entailment(u):
    res = _check_text("""
    (ext_conseq pre: emp cmd: x := 1 post: emp
      (aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X) val: [X = 1]))
    """, u)
    assert not res.ok
    assert any("entailment" in reason for _, _, reason in res.violations)


def test_ext_while_def_side_condition(u):
    res = _check_text("""
    (ext_while pre: own_1(x) cmd: while y = 0 do x := 1
               post: own_1(x) and not (y = 0)
      (ext_conseq pre: own_1(x) and (y = 0) cmd: x := 1 post: own_1(x)
        (aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X) val: [X = 1])))
    """, u)
    assert not res.ok
    assert any("def(B)" in reason for _, _, reason in res.violations)


def test_ext_alloc_and_dispose(u):
    good = _check_text("""
    (ext_alloc pre: own_1(x) * (X = 0) cmd: x := alloc(0)
               post: own_1(x) * (x |-> X) val: [X = 0])
    """, u)
    assert good.ok
    good2 = _check_text("(ext_dispose pre: 2 |-> - cmd: dispose(2) post: emp)", u)
    assert good2.ok
    bad = _check_text("(ext_dispose pre: 2 |-> - cmd: dispose(2) post: 2 |-> -)", u)
    assert not bad.ok


def test_extension_rules_are_quarantined(u):
    res = _check_text("(ext_skip pre: emp cmd: skip post: emp)", u,
                      allow_extensions=False)
    assert not res.ok
    assert any("extension" in reason for _, _, reason in res.violations)
    assert res.extensions_used == (("root", "ext_skip"),)


def test_uninstantiated_logical_variable(u):
    res = _check_text("""
    (aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X))
    """, u)
    assert not res.ok
    assert any("not instantiated" in reason for _, _, reason in res.violations)


def test_conflicting_valuations(u):
    res = _check_text("""
    (seq pre: own_1(x) * (X = 1) cmd: x := 1 ; x := 2
         post: own_1(x) * (x = X)
      (aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X) val: [X = 1])
      (aff pre: own_1(x) * (X = 2) cmd: x := 2 post: own_1(x) * (x = X) val: [X = 2]))
    """, u)
    assert not res.ok
    assert any("conflicting valuation" in reason for _, _, reason in res.violations)


# --- negative corpus -------------------------------------------------------------

NEG_EXPECT = {
    "load_fv": "occurs in the address",
    "if_def": "def(B)",
    "with_def": "def(B)",
    "conj_imprecise": "not precise",
    "par_ctx": "contexts differ",
    "frame_shape": "P * R",
    "res_shape": "Q * J",
    "with_shape": "not bound in the context",
    "axiom_mismatch": "postcondition",
}


def test_negative_corpus_rejections():
    uni = parse_universe((CORPUS / "neg/neg.uni").read_text())
    for stem, needle in NEG_EXPECT.items():
        res = check_proof(parse_proof((CORPUS / f"neg/{stem}.proof").read_text()),
                          uni, allow_extensions=True)
        assert not res.ok, stem
        assert any(needle in reason for _, _, reason in res.violations), \
            (stem, res.violations)
        assert all(path.startswith("root") for path, _, _ in res.violations)


def test_race_proof_is_shape_valid():
    uni = parse_universe((CORPUS / "neg/neg.uni").read_text())
    res = check_proof(parse_proof((CORPUS / "neg/race_two_top.proof").read_text()),
                      uni)
    assert res.ok   # the flaw is semantic: the precondition has no refinement


# --- determinism -------------------------------------------------------------------

def test_checking_is_deterministic_and_round_trips(u):
    for name in ("lock_transfer", "seq_load_store", "conj_precise"):
        uni = parse_universe(corpus_text(f"{name}.uni"))
        node = parse_proof(corpus_text(f"{name}.proof"))
        first = check_proof(node, uni, allow_extensions=True)
        again = check_proof(parse_proof(proof_to_text(node)), uni,
                            allow_extensions=True)
        assert first.ok == again.ok
        assert first.violations == again.violations
        assert first.valuation == again.valuation


def test_violation_report_shape(u):
    res = _check_text("(ext_skip pre: own_1(x) cmd: skip post: emp)", u)
    report = res.report("neg.uni")
    assert report and set(report[0]) == {"node_path", "rule", "reason", "universe"}
