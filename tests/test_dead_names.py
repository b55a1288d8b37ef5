"""Every name that src/sepgame or tests/conftest.py defines is used
somewhere else, and a package name that only the tests use says why.

A module-level function, class or constant, or (in the package) a method
that is not a dunder, counts as used when the package, the tests or the
bench read it outside its own definition: as a name, as an attribute, or as
a string that is exactly the name (the bench's tracer patches functions by
name).  A pytest fixture also counts as used when a function takes a
parameter of its name.  Imports alone do not count, and comments are
invisible to `ast`.

A public package name that only the tests read, directly or through other
such names, is listed in TEST_ONLY with its reason; a private helper goes
with its reader.  A listed name is read by neither the package nor the bench.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sepgame"
CONFTEST = ROOT / "tests" / "conftest.py"
SEARCHED = (ROOT / "src", ROOT / "tests", ROOT / "bench")
ALLOWED = {"__version__"}
TEST_ONLY = {}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree, methods=True):
    """(name, defining node) for the names the guard covers; a method's name
    is qualified by its class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and methods:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def _uses(tree):
    """(name, line) for every read of a name in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def _is_fixture(node):
    return isinstance(node, ast.FunctionDef) and any(
        "fixture" in ast.unparse(d) for d in node.decorator_list)


def _readers():
    """(defining file, first and last line, name, (file, line) reads of the
    name outside its own definition) for every name the guard covers."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for base in SEARCHED for path in sorted(base.rglob("*.py"))}
    uses, params = {}, {}
    for path, tree in trees.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
        for node in ast.walk(tree):
            if isinstance(node, ast.arg):
                params.setdefault(node.arg, []).append((path, node.lineno))
    covered = [(path, _definitions(trees[path]))
               for path in sorted(PACKAGE.rglob("*.py"))]
    covered.append((CONFTEST, _definitions(trees[CONFTEST], methods=False)))
    for path, definitions in covered:
        for name, node in definitions:
            if name in ALLOWED:
                continue
            attr = name.rpartition(".")[2]
            found = uses.get(attr, []) + (params.get(attr, [])
                                          if _is_fixture(node) else [])
            span = (node.lineno, node.end_lineno)
            yield path, span, name, [
                (p, line) for p, line in found
                if p != path or not span[0] <= line <= span[1]]


def dead_names():
    return [f"{path.relative_to(ROOT)}:{span[0]} {name}"
            for path, span, name, readers in _readers() if not readers]


def _test_only_names():
    """The package names read only by files under tests/, directly or
    through other package names that only the tests read."""
    tests = ROOT / "tests"
    package = [d for d in _readers() if PACKAGE in d[0].parents and d[3]]
    found, spans = set(), []

    def test_side(p, line):
        return tests in p.parents or any(
            p == q and a <= line <= b for q, (a, b) in spans)

    grew = True
    while grew:
        grew = False
        for path, span, name, readers in package:
            if name not in found and all(test_side(*r) for r in readers):
                found.add(name)
                spans.append((path, span))
                grew = True
    return found


def test_every_defined_name_is_used():
    assert dead_names() == []


def test_test_only_names_are_listed():
    found = {name for name in _test_only_names()
             if not name.rpartition(".")[2].startswith("_")}
    assert sorted(found - TEST_ONLY.keys()) == [], "read only by tests, not listed"
    assert sorted(TEST_ONLY.keys() - found) == [], "listed, but read by src or bench"
