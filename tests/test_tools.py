"""tools/source_lines.py, whose per-module line counts CHANGES.md quotes."""

import subprocess
import sys
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
