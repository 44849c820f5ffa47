"""The benchmark's layer tracer still finds every name it traces.

bench/spans.py patches qeclab functions and methods by name, so renaming or
deleting one of them breaks every traced benchmark run.  This installs and
uninstalls the tracer, reading bench/spans.py without changing it.
"""

import importlib.util
import sys
from pathlib import Path

from qeclab import groups

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def _bindings():
    """Every attribute of every qeclab module and of the classes they define."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "qeclab" or name.startswith("qeclab.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, raw in vars(value).items():
                    out[(name, f"{attr}.{key}")] = raw
    return out


def test_tracer_installs_every_traced_name_and_uninstalls():
    spans = _load_spans()
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        expected = sum(map(len, spans.TRACED.values())) + sum(map(len, spans.COUNTED_ONLY.values()))
        assert len(tracer.ids) == expected
        assert groups.cyclic is not before[("qeclab.groups", "cyclic")]
        groups.cyclic(3)
        assert tracer.count("groups", "cyclic") == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
