"""Every name a test module or a package module imports is read in that
module.

`tests/test_dead_names.py` ignores imports by design, so this guard covers
them: an `import` or `from ... import` binding that no `Name` node of the
same module loads is reported with its file and line.  `from __future__`
imports change how a module compiles and bind nothing to read.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "sepgame"


def unused_imports(directory):
    out = []
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_test_modules_read_every_import():
    assert unused_imports(TESTS) == []


def test_package_modules_read_every_import():
    assert unused_imports(PACKAGE) == []
