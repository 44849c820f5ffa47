"""tools/source_lines.py, whose per-module line counts CHANGES.md quotes, and
source checks that each top-level name of qeclab is defined in one module,
that no module imports a name it never uses, that every private function
and every private top-level name is used in the package, that only _linalg
names the row-block bound, that
only search builds and reads the trace table, that building models and
searching them imports no numpy.ma, and tools/bench_pairs.py's summary."""

import ast
import os
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
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def test_every_private_top_level_name_is_read_in_the_package():
    # a private constant or class bound at a module's top level that nothing
    # reads is dead code, as an unused private function is
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    defined = {name for tree in trees for name in _top_level_names(tree)
               if name.startswith("_") and not name.startswith("__")}
    referenced = {name for tree in trees for name in _references(tree)}
    assert sorted(defined - referenced) == []


def _report_constructions(tree):
    """The names of the top-level functions in which CodeReport(...) or
    CodeReport._checked(...) is called."""
    for node in tree.body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                if isinstance(func, ast.Attribute) and func.attr == "_checked":
                    func = func.value
                if getattr(func, "id", getattr(func, "attr", None)) == "CodeReport":
                    yield getattr(node, "name", None)


def test_every_code_report_is_built_in_codes_report():
    # one implementation of a code's classification: classify's action path,
    # its key reader and search's q3 pieces all hand their invariants to
    # codes._report, which alone sets the flags and witnesses
    built = {
        (path.name, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _report_constructions(ast.parse(path.read_text()))
    }
    assert built == {("codes.py", "_report")}


def _block_bound_uses(tree):
    """Each node naming _PRODUCT_BLOCK_ENTRIES: a Name, an attribute or an
    import alias."""
    for node in ast.walk(tree):
        names = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.alias):
            names = {node.name, node.asname}
        if "_PRODUCT_BLOCK_ENTRIES" in names:
            yield node


def test_the_block_bound_is_named_in_linalg_only():
    # one block policy: every blocked pass takes its rows from
    # _linalg._blocks, so no other module reads or imports the bound
    named = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(_block_bound_uses(ast.parse(path.read_text())))
    }
    assert named == {"_linalg.py"}


def _trace_table_uses(tree):
    """Each node that builds or reads the trace table tr(pi(h) pi(x)) =
    sigma(h, x) chi_pi(hx): a character's values read at a group's product
    table (X.character().values[g.mul]), or a product @ table."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and getattr(node.slice, "attr", None) == "mul":
            values = node.value
            func = getattr(getattr(values, "value", None), "func", None)
            if getattr(values, "attr", None) == "values" and getattr(func, "attr", None) == "character":
                yield node
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if getattr(node.right, "id", None) == "table":
                yield node


def test_the_trace_table_is_built_and_read_in_search_only():
    # one T pass: the enumeration forms each code's trace row T(x) =
    # tr(P pi(x)) with its key (search._maximal_witnesses), and the key
    # reader reads L's character from those rows, with no table of its own
    named = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(_trace_table_uses(ast.parse(path.read_text())))
    }
    assert named == {"search.py"}


def test_building_and_searching_models_leaves_numpy_ma_unimported():
    # a bare np.unique imports numpy.ma, about 1 MB of resident memory that
    # bench peak_rss_mb would read; model building and both searches use
    # none, in a fresh interpreter
    script = (
        "import sys\n"
        "from qeclab.cli import parse_model_spec\n"
        "from qeclab.search import enumerate_weak_stabilizer_codes, q3_probe\n"
        "for spec in ('prod(genpauli:2,genpauli:4)', 'oddfam:3', 'genpauli:8'):\n"
        "    model = parse_model_spec(spec).model\n"
        "    assert enumerate_weak_stabilizer_codes(model)\n"
        "    q3_probe(model, return_candidates=True)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    assert out.strip() == "False"


def _bench_pairs():
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(wall, setup, attempted=6, failed=0):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": setup, "unit": "s"}}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def test_bench_pairs_summarizes_canned_result_lines():
    # medians, inclusive quartiles of the parent, ratio and lower count per
    # metric, then the operation counts; no bench run
    pairs = [
        (_result(1.0, 4.0), _result(0.9, 3.0)),
        (_result(2.0, 5.0), _result(2.5, 4.0)),
        (_result(3.0, 6.0), _result(2.0, 5.0)),
        (_result(4.0, 7.0), _result(3.0, 6.0)),
        (_result(5.0, 8.0), _result(5.0, 7.0, failed=1)),
    ]
    lines = _bench_pairs().summarize(pairs).splitlines()
    assert lines[0].split() == ["metric", "parent", "parent", "IQR", "change", "ratio", "lower"]
    assert lines[1].split() == ["wall_s", "3", "2", "-", "4", "2.5", "0.8333", "3/5"]
    assert lines[2].split() == ["setup_s", "6", "5", "-", "7", "5", "0.8333", "5/5"]
    assert lines[3:] == [
        "parent: attempted 30, failed 0",
        "change: attempted 30, failed 1",
        "pairs whose attempted/failed differ: [4]",
    ]
