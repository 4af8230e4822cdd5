"""Every public function, class and method of the package is used somewhere.

A public name (no leading underscore) defined at module level in
`src/stemopt`, or as a method of such a class, must be referenced by at
least one `Name` or `Attribute` node in the package or the tests.  A name
that only its own definition mentions is dead API and should be deleted.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stemopt"
TESTS = ROOT / "tests"


def _trees(*dirs):
    return {path: ast.parse(path.read_text(), filename=str(path))
            for d in dirs for path in sorted(d.glob("*.py"))}


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and _public(node.name):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name


def _references(trees):
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_no_unreferenced_public_names():
    trees = _trees(SRC, TESTS)
    used = _references(trees)
    dead = sorted(f"{path.stem}.{qualified}"
                  for path, tree in trees.items() if path.parent == SRC
                  for qualified, name in _definitions(tree)
                  if name not in used)
    assert dead == [], f"public names that nothing references: {dead}"
