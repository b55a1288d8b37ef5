import pytest

from sepgame import proof, soundness
from sepgame.logic import entails
from sepgame.proof import check_proof, formulas_match, normalize
from sepgame.syntax import RULE_ARITY, parse_proof, parse_universe

from .builders import parse_formula
from .conftest import CORPUS, PROGRAMS, corpus_text
from .printers import proof_to_text


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


# --- every reason, pinned ------------------------------------------------------------

SKIP = "(ext_skip pre: emp cmd: skip post: emp)"
AFF = "(aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X) val: [X = 1])"
THEN = f"(ext_conseq pre: emp and true cmd: skip post: emp {SKIP})"
ELSE = f"(ext_conseq pre: emp and not true cmd: skip post: emp {SKIP})"
BLOCK = f"(ext_conseq pre: (emp * emp) and true cmd: skip post: emp * emp {SKIP})"
LOCKED = "(ext_skip ctx: [r: emp] pre: emp cmd: skip post: emp)"
WITH_R = "with ctx: [r: emp] pre: emp cmd: with r when true do"
WHILE_T = "ext_while pre: emp cmd: while true do"

# (path, rule, reason, proof): the proof's only violation, one proof for each
# use of each reason template in proof.py.
REASONS = [
    ("root.0", "aff", "conflicting valuation for X",
     "(frame pre: own_1(x) * (X = 1) * own_1(y) cmd: x := 1 R: own_1(y)"
     f" post: own_1(x) * (x = X) * own_1(y) val: [X = 2] {AFF})"),
    ("root", "ext_skip", "extension rule used without allow-extensions", SKIP),
    ("root", "aff", "logical variables not instantiated: ['X']",
     "(aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) * (x = X))"),
    ("root", "aff", "aff applies to an assignment", "(aff pre: emp cmd: skip post: emp)"),
    ("root", "aff", "precondition is not own_T(x) * (X = E)",
     "(aff pre: own_1(x) cmd: x := 1 post: own_1(x) * (x = X) val: [X = 1])"),
    ("root", "aff", "postcondition is not own_T(x) * (x = X)",
     "(aff pre: own_1(x) * (X = 1) cmd: x := 1 post: own_1(x) val: [X = 1])"),
    ("root", "store", "store applies to a heap write", "(store pre: emp cmd: skip post: emp)"),
    ("root", "store", "precondition is not E |-> -",
     "(store pre: 2 |-> 1 cmd: [2] := 1 post: 2 |-> 1)"),
    ("root", "store", "postcondition is not E |-> E'",
     "(store pre: 2 |-> - cmd: [2] := 1 post: 2 |-> 0)"),
    ("root", "load", "load applies to a heap read", "(load pre: emp cmd: skip post: emp)"),
    ("root", "load", "side condition violated: x occurs in the address",
     "(load pre: (x |-> V) * own_1(x) cmd: x := [x] post: emp val: [V = 0])"),
    ("root", "load", "precondition is not E |->[p] v * own_T(x)",
     "(load pre: 2 |-> V cmd: x := [2] post: emp val: [V = 0])"),
    ("root", "load", "precondition is not E |->[p] v * own_T(x)",
     "(load pre: (3 |-> V) * own_1(x) cmd: x := [2] post: emp val: [V = 0])"),
    ("root", "load", "postcondition is not E |->[p] v * own_T(x) * (x = v)",
     "(load pre: (2 |-> V) * own_1(x) cmd: x := [2] post: (2 |-> V) * own_1(x)"
     " val: [V = 0])"),
    ("root", "seq", "seq applies to a sequential composition",
     f"(seq pre: emp cmd: skip post: emp {SKIP} {SKIP})"),
    ("root", "seq", "premise commands do not match the composition",
     f"(seq pre: emp cmd: skip ; x := 1 post: emp {SKIP} {SKIP})"),
    ("root", "par", "premise commands do not match the composition",
     f"(par pre: emp * emp cmd: skip || x := 1 post: emp * emp {SKIP} {SKIP})"),
    ("root", "seq", "premise contexts differ from the conclusion's",
     f"(seq ctx: [r: emp] pre: emp cmd: skip ; skip post: emp {SKIP} {SKIP})"),
    ("root", "if", "premise contexts differ from the conclusion's",
     "(if ctx: [r: emp] pre: emp cmd: if true then skip else skip post: emp"
     f" {THEN} {ELSE})"),
    ("root", "conj", "premise contexts differ from the conclusion's",
     f"(conj ctx: [r: emp] pre: emp and emp cmd: skip post: emp and emp {SKIP} {SKIP})"),
    ("root", "par", "premise contexts differ from the conclusion's",
     f"(par ctx: [r: emp] pre: emp * emp cmd: skip || skip post: emp * emp {SKIP} {SKIP})"),
    ("root", "seq", "first premise precondition mismatch",
     f"(seq pre: own_1(x) cmd: skip ; skip post: emp {SKIP} {SKIP})"),
    ("root", "seq", "midpoint mismatch between the premises",
     f"(seq pre: emp cmd: skip ; skip post: own_1(x) {SKIP}"
     " (ext_skip pre: own_1(x) cmd: skip post: own_1(x)))"),
    ("root", "seq", "second premise postcondition mismatch",
     f"(seq pre: emp cmd: skip ; skip post: own_1(x) {SKIP} {SKIP})"),
    ("root", "if", "if applies to a conditional",
     f"(if pre: emp cmd: skip post: emp {SKIP} {SKIP})"),
    ("root", "if", "side condition P => def(B) fails",
     "(if pre: emp cmd: if x = 0 then skip else skip post: emp"
     f" (ext_conseq pre: emp and x = 0 cmd: skip post: emp {SKIP})"
     f" (ext_conseq pre: emp and not (x = 0) cmd: skip post: emp {SKIP}))"),
    ("root", "with", "side condition P => def(B) fails",
     "(with ctx: [r: emp] pre: emp cmd: with r when x = 0 do skip post: emp"
     f" (ext_conseq pre: (emp * emp) and x = 0 cmd: skip post: emp * emp {SKIP}))"),
    ("root", "if", "premise commands do not match the branches",
     f"(if pre: emp cmd: if true then skip else x := 1 post: emp {THEN} {ELSE})"),
    ("root", "if", "then-premise precondition is not P /\\ B",
     "(if pre: emp cmd: if true then skip else skip post: emp"
     f" (ext_conseq pre: emp cmd: skip post: emp {SKIP}) {ELSE})"),
    ("root", "if", "else-premise precondition is not P /\\ not B",
     "(if pre: emp cmd: if true then skip else skip post: emp"
     f" {THEN} (ext_conseq pre: emp cmd: skip post: emp {SKIP}))"),
    ("root", "if", "premise postconditions differ from the conclusion's",
     f"(if pre: emp cmd: if true then skip else skip post: own_1(x) {THEN} {ELSE})"),
    ("root", "conj", "context invariant for r is not precise",
     "(conj ctx: [r: true] pre: emp and emp cmd: skip post: emp and emp"
     " (ext_skip ctx: [r: true] pre: emp cmd: skip post: emp)"
     " (ext_skip ctx: [r: true] pre: emp cmd: skip post: emp))"),
    ("root", "conj", "premises must prove the same command",
     "(conj pre: emp and (own_1(x) * (X = 1)) cmd: skip"
     f" post: emp and (own_1(x) * (x = X)) {SKIP} {AFF})"),
    ("root", "conj", "conclusion precondition is not P1 /\\ P2",
     f"(conj pre: emp cmd: skip post: emp and emp {SKIP} {SKIP})"),
    ("root", "conj", "conclusion postcondition is not Q1 /\\ Q2",
     f"(conj pre: emp and emp cmd: skip post: emp {SKIP} {SKIP})"),
    ("root", "res", "res applies to a resource declaration",
     f"(res pre: emp cmd: skip post: emp r: r inv: emp {SKIP})"),
    ("root", "res", "declared resource differs from the command's",
     f"(res pre: emp cmd: resource r do skip post: emp r: s inv: emp {SKIP})"),
    ("root", "res", "resource r already bound in the context",
     "(res ctx: [r: emp] pre: emp * emp cmd: resource r do skip post: emp * emp"
     f" r: r inv: emp {LOCKED})"),
    ("root", "res", "premise command is not the resource body",
     "(res pre: emp * emp cmd: resource r do x := 1 post: emp * emp r: r inv: emp"
     f" {LOCKED})"),
    ("root", "res", "premise context is not the conclusion's plus r:J",
     "(res pre: emp * emp cmd: resource r do skip post: emp * emp r: r inv: emp"
     f" {SKIP})"),
    ("root", "res", "conclusion precondition is not P * J",
     "(res pre: emp cmd: resource r do skip post: emp * own_1(x) r: r inv: own_1(x)"
     " (ext_skip ctx: [r: own_1(x)] pre: emp cmd: skip post: emp))"),
    ("root", "res", "conclusion postcondition is not Q * J",
     "(res pre: emp * own_1(x) cmd: resource r do skip post: emp r: r inv: own_1(x)"
     " (ext_skip ctx: [r: own_1(x)] pre: emp cmd: skip post: emp))"),
    ("root", "with", "with applies to a with-when block",
     f"(with ctx: [r: emp] pre: emp cmd: skip post: emp {SKIP})"),
    ("root", "with", "resource r is not bound in the context",
     f"(with pre: emp cmd: with r when true do skip post: emp {SKIP})"),
    ("root", "with", "premise command is not the block body",
     f"({WITH_R} x := 1 post: emp {BLOCK})"),
    ("root", "with", "premise context is not the conclusion's minus r",
     "(with ctx: [r: emp, s: emp] pre: emp cmd: with r when true do skip post: emp"
     f" {BLOCK})"),
    ("root", "with", "premise precondition is not (P * J) /\\ B",
     f"({WITH_R} skip post: emp"
     f" (ext_conseq pre: emp * emp cmd: skip post: emp * emp {SKIP}))"),
    ("root", "with", "premise postcondition is not Q * J",
     f"({WITH_R} skip post: emp"
     f" (ext_conseq pre: (emp * emp) and true cmd: skip post: emp {SKIP}))"),
    ("root", "par", "par applies to a parallel composition",
     f"(par pre: emp * emp cmd: skip post: emp * emp {SKIP} {SKIP})"),
    ("root", "par", "conclusion precondition is not P1 * P2",
     f"(par pre: emp cmd: skip || skip post: emp * emp {SKIP} {SKIP})"),
    ("root", "par", "conclusion postcondition is not Q1 * Q2",
     f"(par pre: emp * emp cmd: skip || skip post: emp {SKIP} {SKIP})"),
    ("root", "frame", "premise command differs from the conclusion's",
     f"(frame pre: emp * emp cmd: x := 1 post: emp * emp R: emp {SKIP})"),
    ("root", "ext_conseq", "premise command differs from the conclusion's",
     f"(ext_conseq pre: emp cmd: x := 1 post: emp {SKIP})"),
    ("root", "frame", "premise context differs from the conclusion's",
     f"(frame ctx: [r: emp] pre: emp * emp cmd: skip post: emp * emp R: emp {SKIP})"),
    ("root", "ext_while", "premise context differs from the conclusion's",
     "(ext_while ctx: [r: emp] pre: emp cmd: while true do skip post: emp and not true"
     f" {THEN})"),
    ("root", "ext_conseq", "premise context differs from the conclusion's",
     f"(ext_conseq ctx: [r: emp] pre: emp cmd: skip post: emp {SKIP})"),
    ("root", "frame", "conclusion precondition is not P * R",
     f"(frame pre: emp cmd: skip post: emp * emp R: emp {SKIP})"),
    ("root", "frame", "conclusion postcondition is not Q * R",
     f"(frame pre: emp * emp cmd: skip post: emp R: emp {SKIP})"),
    ("root", "ext_skip", "ext_skip applies to skip", "(ext_skip pre: emp cmd: x := 1 post: emp)"),
    ("root", "ext_skip", "skip must keep its precondition",
     "(ext_skip pre: emp cmd: skip post: own_1(x))"),
    ("root", "ext_while", "ext_while applies to a while loop",
     f"(ext_while pre: emp cmd: skip post: emp {SKIP})"),
    ("root", "ext_while", "side condition I => def(B) fails",
     "(ext_while pre: emp cmd: while x = 0 do skip post: emp and not (x = 0)"
     f" (ext_conseq pre: emp and x = 0 cmd: skip post: emp {SKIP}))"),
    ("root", "ext_while", "premise command is not the loop body",
     f"({WHILE_T} x := 1 post: emp and not true {THEN})"),
    ("root", "ext_while", "premise precondition is not I /\\ B",
     f"({WHILE_T} skip post: emp and not true {SKIP})"),
    ("root", "ext_while", "premise must re-establish the invariant",
     f"({WHILE_T} skip post: emp and not true"
     " (ext_skip pre: emp and true cmd: skip post: emp and true))"),
    ("root", "ext_while", "conclusion postcondition is not I /\\ not B",
     f"({WHILE_T} skip post: emp {THEN})"),
    ("root", "ext_conseq", "precondition entailment fails",
     "(ext_conseq pre: emp cmd: skip post: own_1(x)"
     " (ext_skip pre: own_1(x) cmd: skip post: own_1(x)))"),
    ("root", "ext_conseq", "postcondition entailment fails",
     f"(ext_conseq pre: emp cmd: skip post: own_1(x) {SKIP})"),
    ("root", "ext_alloc", "ext_alloc applies to an allocation",
     "(ext_alloc pre: emp cmd: skip post: emp)"),
    ("root", "ext_alloc", "precondition is not own_T(x) * (X = E)",
     "(ext_alloc pre: own_1(x) cmd: x := alloc(0) post: emp)"),
    ("root", "ext_alloc", "postcondition is not own_T(x) * (x |-> X)",
     "(ext_alloc pre: own_1(x) * (X = 0) cmd: x := alloc(0) post: own_1(x) val: [X = 0])"),
    ("root", "ext_dispose", "ext_dispose applies to a disposal",
     "(ext_dispose pre: emp cmd: skip post: emp)"),
    ("root", "ext_dispose", "precondition is not E |-> -",
     "(ext_dispose pre: emp cmd: dispose(2) post: emp)"),
    ("root", "ext_dispose", "postcondition is not emp",
     "(ext_dispose pre: 2 |-> - cmd: dispose(2) post: 2 |-> -)"),
]


@pytest.mark.parametrize("path, rule, reason, text", REASONS,
                         ids=[f"{rule}: {reason}" for _, rule, reason, _ in REASONS])
def test_each_reason_alone(u, path, rule, reason, text):
    allow = reason != "extension rule used without allow-extensions"
    assert _check_text(text, u, allow).violations == [(path, rule, reason)]


def test_the_reasons_table_covers_every_template():
    assert len({reason for _, _, reason, _ in REASONS}) == 63
    assert len(REASONS) == 74   # one entry per place a reason is reported


def _at(path, rule, *reasons):
    return [(path, rule, reason) for reason in reasons]


# A node that breaks every obligation of its rule reports them in this order;
# an early stop reports one reason and nothing else of that node.
ORDERED = [
    (f"(seq ctx: [r: emp] pre: own_1(x) cmd: skip ; x := 1 post: own_1(y) {SKIP} {SKIP})",
     _at("root", "seq", "premise commands do not match the composition",
         "premise contexts differ from the conclusion's",
         "first premise precondition mismatch", "second premise postcondition mismatch")),
    ("(if ctx: [r: emp] pre: emp cmd: if x = 0 then x := 1 else skip post: own_1(x)"
     f" {SKIP} {SKIP})",
     _at("root", "if", "side condition P => def(B) fails",
         "premise commands do not match the branches",
         "premise contexts differ from the conclusion's",
         "then-premise precondition is not P /\\ B",
         "else-premise precondition is not P /\\ not B",
         "premise postconditions differ from the conclusion's")),
    (f"(conj ctx: [r: true] pre: emp cmd: skip post: emp {SKIP} {AFF})",
     _at("root", "conj", "context invariant for r is not precise",
         "premises must prove the same command",
         "premise contexts differ from the conclusion's",
         "conclusion precondition is not P1 /\\ P2",
         "conclusion postcondition is not Q1 /\\ Q2")),
    ("(res ctx: [r: emp] pre: emp cmd: resource r do x := 1 post: emp r: r inv: own_1(x)"
     f" {SKIP})",
     _at("root", "res", "resource r already bound in the context",
         "premise command is not the resource body",
         "premise context is not the conclusion's plus r:J",
         "conclusion precondition is not P * J", "conclusion postcondition is not Q * J")),
    ("(with ctx: [r: own_1(x), s: emp] pre: emp cmd: with r when x = 0 do x := 1"
     f" post: emp {SKIP})",
     _at("root", "with", "side condition P => def(B) fails",
         "premise command is not the block body",
         "premise context is not the conclusion's minus r",
         "premise precondition is not (P * J) /\\ B", "premise postcondition is not Q * J")),
    (f"(par ctx: [r: emp] pre: emp cmd: skip || x := 1 post: emp {SKIP} {SKIP})",
     _at("root", "par", "premise commands do not match the composition",
         "premise contexts differ from the conclusion's",
         "conclusion precondition is not P1 * P2", "conclusion postcondition is not Q1 * Q2")),
    (f"(frame ctx: [r: emp] pre: emp cmd: x := 1 post: emp R: own_1(x) {SKIP})",
     _at("root", "frame", "premise command differs from the conclusion's",
         "premise context differs from the conclusion's",
         "conclusion precondition is not P * R", "conclusion postcondition is not Q * R")),
    ("(ext_while ctx: [r: emp] pre: emp cmd: while x = 0 do x := 1 post: emp"
     " (ext_skip pre: own_1(y) cmd: skip post: own_1(y)))",
     _at("root", "ext_while", "side condition I => def(B) fails",
         "premise command is not the loop body",
         "premise context differs from the conclusion's",
         "premise precondition is not I /\\ B", "premise must re-establish the invariant",
         "conclusion postcondition is not I /\\ not B")),
    ("(ext_conseq ctx: [r: emp] pre: emp cmd: x := 1 post: own_1(x)"
     " (ext_skip pre: own_1(y) cmd: skip post: own_1(y)))",
     _at("root", "ext_conseq", "premise command differs from the conclusion's",
         "premise context differs from the conclusion's",
         "precondition entailment fails", "postcondition entailment fails")),
    ("(load pre: x |-> V cmd: x := [x] post: emp val: [V = 0])",
     _at("root", "load", "side condition violated: x occurs in the address")),
    (f"(res pre: emp cmd: resource r do x := 1 post: own_1(x) r: s inv: own_1(y) {SKIP})",
     _at("root", "res", "declared resource differs from the command's")),
    (f"(with pre: own_1(y) cmd: with r when x = 0 do x := 1 post: own_1(y) {SKIP})",
     _at("root", "with", "resource r is not bound in the context")),
    ("(aff pre: own_1(y) cmd: x := 1 post: emp)",
     _at("root", "aff", "precondition is not own_T(x) * (X = E)")),
    ("(store pre: emp cmd: [2] := 1 post: emp)",
     _at("root", "store", "precondition is not E |-> -")),
    ("(ext_skip pre: own_1(x) * (Z = 1) cmd: skip post: emp)",
     _at("root", "ext_skip", "logical variables not instantiated: ['Z']",
         "skip must keep its precondition")),
    ("(frame pre: own_1(x) * (X = 2) cmd: skip post: emp R: own_1(x) val: [X = 2]"
     f" (seq pre: emp cmd: skip ; x := 1 post: emp {SKIP} {AFF}))",
     _at("root.0.1", "aff", "conflicting valuation for X")
     + _at("root", "frame", "premise command differs from the conclusion's",
           "conclusion precondition is not P * R", "conclusion postcondition is not Q * R")
     + _at("root.0", "seq", "midpoint mismatch between the premises",
           "second premise postcondition mismatch")),
]


@pytest.mark.parametrize("text, expected", ORDERED,
                         ids=[expected[-1][1] for _, expected in ORDERED])
def test_obligations_are_reported_in_rule_order(u, text, expected):
    assert _check_text(text, u).violations == expected


def test_quarantine_comes_first_and_premises_follow(u):
    text = ("(ext_while ctx: [r: emp] pre: emp cmd: while true do skip post: emp"
            " (ext_skip pre: emp and true cmd: skip post: emp and true))")
    assert _check_text(text, u, allow_extensions=False).violations == (
        _at("root", "ext_while", "extension rule used without allow-extensions",
            "premise context differs from the conclusion's",
            "premise must re-establish the invariant",
            "conclusion postcondition is not I /\\ not B")
        + _at("root.0", "ext_skip", "extension rule used without allow-extensions"))


def test_the_rule_tables_name_the_same_rules():
    """`build_lifter` indexes `_LIFTERS` without a fallback, and
    `AtomLifter.eve` takes ext_skip as its last case: the parser admits only
    the tags of `RULE_ARITY` (test_syntax.py::test_parse_proof_unknown_tag)."""
    lifted = set(soundness._LIFTERS) | {"ext_conseq"}   # lifted through its premise
    assert set(RULE_ARITY) == set(proof._SCHEMAS) == lifted
    assert set(proof._SHAPES) <= set(RULE_ARITY)
    assert {tag for tag, cls in soundness._LIFTERS.items()
            if cls is soundness.AtomLifter} == {
        "aff", "store", "load", "ext_alloc", "ext_dispose", "ext_skip"}
