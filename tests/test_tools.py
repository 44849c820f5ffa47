"""tools/source_lines.py, whose per-module line counts CHANGES.md quotes, and
source checks that each top-level name of qeclab is defined in one module,
that no module imports a name it never uses, and that every private function
is used in the package."""

import ast
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qeclab"


def test_source_line_classes_sum_to_each_module_length():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "source_lines.py"), str(PACKAGE)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0].split() == ["module", "code", "docstring", "comment", "blank", "total"]
    rows = {line.split()[0]: [int(v.replace(",", "")) for v in line.split()[1:]] for line in out[1:]}
    modules = sorted(PACKAGE.glob("*.py"))
    assert list(rows) == [path.name for path in modules] + ["total"]
    for path in modules:
        *classes, total = rows[path.name]
        assert sum(classes) == total == len(path.read_text().splitlines()), path.name
    assert rows["total"] == [sum(rows[p.name][k] for p in modules) for k in range(5)]


def _top_level_names(tree):
    """Names a module defines at its top level: functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_no_top_level_name_is_defined_in_two_modules():
    # one implementation per concept: a helper needed in two modules is
    # imported from one, not written twice (__all__ is every module's own)
    owners = defaultdict(set)
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _top_level_names(ast.parse(path.read_text())):
            owners[name].add(path.name)
    twice = {name: sorted(mods) for name, mods in owners.items() if len(mods) > 1}
    twice.pop("__all__", None)
    assert twice == {}


def _unused_imports(tree):
    """Names a module imports (other than from __future__) that it never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them, so it is left out
    unused = {
        path.name: _unused_imports(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in unused.items() if names} == {}


def _private_functions(tree):
    """Functions and methods named with one leading underscore."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name


def _references(tree):
    """Names a module reads, attributes it looks up, and names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_function_is_referenced_in_the_package():
    # a private helper that only tests or the benchmark call is dead code of
    # the package: tests wrap what they need in tests/helpers.py
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    defined = {name for tree in trees for name in _private_functions(tree)}
    referenced = {name for tree in trees for name in _references(tree)}
    assert sorted(defined - referenced) == []
