"""Every name that src/sepgame or tests/conftest.py defines is used
somewhere else.

A module-level function, class or constant, or (in the package) a method
that is not a dunder, counts as used when the package, the tests or the
bench read it outside its own definition: as a name, as an attribute, or as
a string that is exactly the name (the bench's tracer patches functions by
name).  A pytest fixture also counts as used when a function takes a
parameter of its name.  Imports alone do not count, and comments are
invisible to `ast`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sepgame"
CONFTEST = ROOT / "tests" / "conftest.py"
SEARCHED = (ROOT / "src", ROOT / "tests", ROOT / "bench")
ALLOWED = {"__version__"}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree, methods=True):
    """(name, defining node) for the names the guard covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and methods:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield item.name, item
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


def dead_names():
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
    dead = []
    for path, definitions in covered:
        for name, node in definitions:
            if name in ALLOWED:
                continue
            found = uses.get(name, []) + (params.get(name, [])
                                          if _is_fixture(node) else [])
            outside = [(p, line) for p, line in found
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if not outside:
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return dead


def test_every_defined_name_is_used():
    assert dead_names() == []
