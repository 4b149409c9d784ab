"""Surface guard: every top-level name defined in src/cardocr is used by the
package itself or by the benchmark.  A helper that only tests call belongs
with the tests (see tests/reference.py), not in the shipped package.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cardocr").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def defined_names(tree):
    """Top-level functions, classes and assigned constants of a module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.append(sub.id)
    return [n for n in names if not _is_dunder(n)]


def referenced_names(tree):
    """Names read, attributes read and names imported anywhere in a module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced():
    refs = set()
    for path in USERS:
        refs |= referenced_names(ast.parse(path.read_text(), str(path)))
    missing = []
    for path in PACKAGE:
        for name in defined_names(ast.parse(path.read_text(), str(path))):
            if name not in refs:
                missing.append(f"{path.stem}.{name}")
    return missing


def test_scan_sees_the_package():
    assert len(PACKAGE) >= 10
    assert any(p.name == "run.py" for p in USERS)
    tree = ast.parse("A = 1\ndef f(): return A\nclass C: pass\n__all__ = []\n")
    assert defined_names(tree) == ["A", "f", "C"]
    assert referenced_names(tree) >= {"A"}
    assert "f" not in referenced_names(tree)


def test_every_package_name_is_used_outside_tests():
    assert unreferenced() == []
