"""Every float tolerance of qeclab is an entry of qeclab/_tol.py."""

import re
import tokenize
from pathlib import Path

import qeclab

SRC = Path(qeclab.__file__).resolve().parent


def _exponent_literals(path: Path) -> list[tuple[int, str]]:
    with open(path, "rb") as fh:
        return [
            (tok.start[0], tok.string)
            for tok in tokenize.tokenize(fh.readline)
            if tok.type == tokenize.NUMBER and "e-" in tok.string.lower()
        ]


def test_no_small_float_literal_outside_the_table():
    found = {p.name: _exponent_literals(p) for p in sorted(SRC.glob("*.py"))}
    assert found.pop("_tol.py")  # the scan sees the table's own entries
    assert {name: lits for name, lits in found.items() if lits} == {}


def test_no_named_tolerance_outside_the_table():
    pattern = re.compile(r"^\s*(TOL_\w+|SVD_RTOL)\s*[:=]", re.MULTILINE)
    for path in sorted(SRC.glob("*.py")):
        assert not pattern.findall(path.read_text()), path.name
