"""Surface guards.  Every top-level name defined in src/cardocr is used by
the package itself or by the benchmark: a helper that only tests call
belongs with the tests (see tests/reference.py), not in the shipped package.
The same holds for every method of a class, other than dunder methods.
Every PipelineConfig field is read by the package: a setting that nothing
reads is a dead knob.  Every field is also a flag of run, eval and bench,
the subcommands that build a PipelineConfig: a field that only a test sets
is a constant spelled as a setting.  So is a parameter default that no
call in the package or the benchmark overrides (a test is no caller), and
so is a function argument that a call fills with one of the paper's fixed
parameters (see tests/test_config.py).  Imports sit at module level, never
in a function body, so a module's dependencies are all in its header.
"""

import ast
import pathlib
from dataclasses import fields

from cardocr import cli
from cardocr.config import PipelineConfig
from test_config import FIXED

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


def defined_methods(tree):
    """(class, method) for each non-dunder method of every class in a module."""
    return [
        (node.name, item.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(item.name)
    ]


def unread_methods(users, package):
    """'<module>.<class>.<method>' for each method of a `package` module
    that no `users` module reads as an attribute; both map names to trees."""
    reads = {
        node.attr
        for tree in users.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{name}.{cls}.{method}"
        for name, tree in package.items()
        for cls, method in defined_methods(tree)
        if method not in reads
    ]


def test_every_method_is_read_outside_tests():
    tree = ast.parse(
        "class C:\n"
        "    def __len__(self):\n        return 0\n"
        "    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        pass\n"
        "    def dead(self):\n        pass\n"
        "C().used()\n"
    )
    assert defined_methods(tree) == [("C", "used"), ("C", "helper"), ("C", "dead")]
    assert unread_methods({"m": tree}, {"m": tree}) == ["m.C.dead"]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in USERS}
    package = {path.stem: trees[path] for path in PACKAGE}
    assert unread_methods(trees, package) == []


def attributes_read(tree):
    """Attribute names loaded anywhere in a module."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_config_field_is_read():
    tree = ast.parse(
        "class PipelineConfig:\n"
        "    def use(self):\n        return self.used\n"
        "    def set(self):\n        self.stored = 1\n"
    )
    assert attributes_read(tree) == {"used"}
    reads = set()
    for path in PACKAGE:
        reads |= attributes_read(ast.parse(path.read_text(), str(path)))
    assert [f.name for f in fields(PipelineConfig) if f.name not in reads] == []


def test_every_config_field_is_a_flag():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    missing = [f"{name} --{f.name}"
               for name in ("run", "eval", "bench")
               for f in fields(PipelineConfig)
               if f"--{f.name}" not in commands[name]._option_string_actions]
    assert missing == []


def local_imports(tree, name):
    """'<module>.<function>' for each import statement inside a function."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [
                f"{name}.{node.name}"
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Import, ast.ImportFrom))
            ]
    return found


def test_no_function_local_imports():
    tree = ast.parse("import os\ndef f():\n    import re\n    from . import x\n")
    assert local_imports(tree, "m") == ["m.f", "m.f"]
    found = []
    for path in PACKAGE:
        found += local_imports(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == []


def defaulted_parameters(tree):
    """(function, parameter, position) for each parameter with a default of
    every top-level function and method of a module.  The position counts
    the arguments a call passes before it, so a method's self is not
    counted; a keyword-only parameter has none."""
    functions = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            functions += [(item, True) for item in node.body if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            functions.append((node, False))
    found = []
    for fn, bound in functions:
        args = fn.args
        positional = args.posonlyargs + args.args
        found += [(fn.name, positional[i].arg, i - bound)
                  for i in range(len(positional) - len(args.defaults), len(positional))]
        found += [(fn.name, arg.arg, None)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default]
    return found


def passed_parameters(tree):
    """(callee, parameter or position) for each argument of every call in a
    module, by the callee's name or attribute; a call that unpacks *args or
    **kwargs passes every parameter, marked '*'."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            passed.add((name, "*"))
        passed.update((name, i) for i in range(len(node.args)))
        passed.update((name, k.arg) for k in node.keywords)
    return passed


def unset_defaults(package, users):
    """'<module>.<function>(<parameter>)' for each defaulted parameter of a
    `package` module that no call in a `users` module passes; both map
    names to trees."""
    passed = set().union(*(passed_parameters(tree) for tree in users.values()))
    return [
        f"{name}.{fn}({param})"
        for name, tree in package.items()
        for fn, param, pos in defaulted_parameters(tree)
        if not {(fn, param), (fn, pos), (fn, "*")} & passed
    ]


def test_every_parameter_default_is_overridden_somewhere():
    # a default that every caller keeps is a constant spelled as a knob
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "class C:\n    def m(self, x=0, y=0):\n        pass\n"
        "def g(e=0, h=0):\n    pass\n"
        "f(0, c=1)\nC().m(1)\ng(**{})\n"
    )
    assert defaulted_parameters(tree) == [
        ("f", "b", 1), ("f", "c", None), ("f", "d", None), ("m", "x", 0), ("m", "y", 1),
        ("g", "e", 0), ("g", "h", 1)]
    assert unset_defaults({"m": tree}, {"m": tree}) == ["m.f(b)", "m.f(d)", "m.m(y)"]
    # a knob that only tests set is no knob of the program: only the
    # package and the benchmark count as callers
    trees = {path: ast.parse(path.read_text(), str(path)) for path in USERS}
    package = {path.stem: trees[path] for path in PACKAGE}
    # the console entry point is called with no arguments; argv is for
    # callers that run the command line in-process
    assert [name for name in unset_defaults(package, trees)
            if name != "cli.main(argv)"] == []


def defined_callables(tree):
    """Names of the top-level functions and classes of a module and of the
    methods of its classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(item.name for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return names


def constant_arguments(tree, callables, constants):
    """'<callee>(<constant>)' for each argument of a call in a module that
    is one of `constants`, by name or as a module attribute, passed to a
    callee, by its name or attribute, in `callables`."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if callee not in callables:
            continue
        for arg in node.args + [k.value for k in node.keywords]:
            name = arg.id if isinstance(arg, ast.Name) else getattr(arg, "attr", None)
            if name in constants:
                found.append(f"{callee}({name})")
    return found


def test_no_fixed_parameter_is_passed_to_a_package_function():
    # a stage reads the paper's fixed parameters itself: a function that
    # takes one as an argument is a knob that every caller fills with the
    # constant; calls outside the package, a log call say, are not checked
    tree = ast.parse(
        "T = 1\ndef f(x, t):\n    log.debug('%d', T)\n    return g(x, t)\n"
        "def g(x, t=T):\n    pass\n"
        "f(0, T)\nf(0, t=m.T)\nf(T + 1, 2)\n"
    )
    assert defined_callables(tree) == {"f", "g"}
    assert constant_arguments(tree, {"f", "g"}, {"T"}) == ["f(T)", "f(T)"]
    callables = set().union(*(defined_callables(ast.parse(p.read_text(), str(p)))
                              for p in PACKAGE))
    constants = {name for _, name, _ in FIXED}
    found = [f"{path.stem}: {call}"
             for path in USERS
             for call in constant_arguments(ast.parse(path.read_text(), str(path)),
                                            callables, constants)]
    assert found == []
