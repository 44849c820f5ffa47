"""The CLI contract for every code construction form.

`code weak|stab|clifford` and every `--code` form are pinned by exit code,
each `--json` output is compared with `to_json()` of the same library
construction, and every worked example of `reproduce` must pass claim by
claim.
"""

import json

import pytest

from qeclab import cli
from qeclab.cli import _dicke_subgroup, main, parse_model_spec
from qeclab.cocycles import Phase, PhaseFunction
from qeclab.codes import (
    classify,
    clifford_code,
    stabilizer_code,
    weak_stabilizer_code,
)
from qeclab.groups import GroupValidationError
from qeclab.models import family_c2_x_d2n

# the members of the family subgroup of c2d2n:2, used as its generators
C2 = "0,1,2,3,4,5,6,7"


@pytest.fixture
def files(tmp_path, capsys):
    model, sub, rho = family_c2_x_d2n(2)
    contents = {
        "phase": {"1": [1, 2]},
        "phase_zero": {"10": [1, 2]},
        "rho": rho.to_json(),
        # the restriction of the model's rep is reducible: clifford_code refuses it
        "rho_reducible": model.rep.restrict(sub).to_json(),
    }
    paths = {}
    for name, data in contents.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(data, fh)
    paths["code"] = str(tmp_path / "code.json")
    assert main(["code", "weak", "pauli:2", "--subgroup", "10,5", "--out", paths["code"]]) == 0
    capsys.readouterr()
    return paths


def run(capsys, files, argv):
    rc = main([a.format(**files) for a in argv])
    return rc, capsys.readouterr().out


CODE_FORMS = [
    (["code", "weak", "pauli:2", "--subgroup", "10,5"], 0),
    (["code", "weak", "pauli:2"], 2),
    (["code", "weak", "pauli:2", "--subgroup", "99"], 2),
    (["code", "weak", "pauli:2", "--subgroup", "a"], 2),
    (["code", "weak", "genpauli:2", "--subgroup", "1", "--phase", "{phase}"], 0),
    (["code", "weak", "genpauli:2", "--subgroup", "1,2,3"], 1),
    (["code", "weak", "xp:4", "--subgroup", "4"], 0),
    (["code", "stab", "pauli:2", "--subgroup", "10,5"], 0),
    (["code", "stab", "pauli:2"], 2),
    (["code", "stab", "genpauli:2", "--subgroup", "1,2,3"], 1),
    (["code", "stab", "pauli:2", "--subgroup", "10,5", "--phase", "{phase_zero}"], 1),
    (["code", "stab", "xp:4", "--subgroup", "4"], 1),
    (["code", "stab", "xp:4", "--subgroup", "2"], 0),
    (["code", "clifford", "c2d2n:2"], 0),
    (["code", "clifford", "c2d2n:2", "--rho", "family"], 0),
    (["code", "clifford", "c2d2n:2", "--rho", "family", "--subgroup", C2], 0),
    (["code", "clifford", "c2d2n:2", "--rho", "family", "--subgroup", "1"], 2),
    (["code", "clifford", "c2d2n:2", "--subgroup", C2], 2),
    (["code", "clifford", "pauli:2", "--rho", "family"], 2),
    (["code", "clifford", "pauli:2"], 2),
    (["code", "clifford", "c2d2n:2", "--rho", "{rho}"], 2),
    (["code", "clifford", "c2d2n:2", "--subgroup", C2, "--rho", "{rho}"], 0),
    (["code", "clifford", "c2d2n:2", "--subgroup", C2, "--rho", "{rho_reducible}"], 1),
    (["classify", "pauli:2", "--code", "{code}"], 0),
    (["classify", "genpauli:2", "--code", "{code}"], 2),
    (["classify", "pauli:2", "--code", "weak:"], 0),
    (["classify", "pauli:2", "--code", "weak:10,5"], 0),
    (["classify", "genpauli:2", "--code", "weak:1:{phase}"], 0),
    (["classify", "pauli:2", "--code", "weak:10,5:{phase_zero}"], 2),
    (["classify", "pauli:2", "--code", "weak:10,5:a:b"], 2),
    (["classify", "genpauli:2", "--code", "weak:1,2,3"], 2),
    (["classify", "pauli:2", "--code", "stab:"], 0),
    (["classify", "pauli:2", "--code", "stab:10,5:a:b"], 2),
    (["classify", "xp:4", "--code", "stab:4"], 1),
    (["classify", "genpauli:2", "--code", "stab:1,2,3"], 2),
    (["classify", "c2d2n:2", "--code", "clifford:" + C2 + ":{rho}"], 0),
    (["classify", "c2d2n:2", "--code", "clifford:" + C2], 2),
    (["classify", "c2d2n:2", "--code", "clifford:" + C2 + ":{rho}:x"], 2),
    (["classify", "c2d2n:2", "--code", "clifford:" + C2 + ":{rho_reducible}"], 1),
    (["classify", "c2d2n:2", "--code", "family"], 0),
    (["classify", "oddfam:3", "--code", "family"], 0),
    (["classify", "pauli:2", "--code", "family"], 2),
    (["classify", "permprod(genpauli:2,2)", "--code", "dicke"], 0),
    (["classify", "pauli:2", "--code", "dicke"], 2),
    (["classify", "c2d2n:2", "--code", "dicke"], 2),
    (["classify", "pauli:2", "--code", "bogus"], 2),
    (["classify", "pauli:2", "--code", "foo:1"], 2),
    (["detect", "c2d2n:2", "--code", "family"], 0),
    (["correct", "permprod(genpauli:2,2)", "--code", "dicke", "--dist", "point:0"], 0),
]


@pytest.mark.parametrize("argv, rc", CODE_FORMS, ids=[" ".join(a) for a, _ in CODE_FORMS])
def test_construction_exit_code(capsys, files, argv, rc):
    assert run(capsys, files, argv)[0] == rc


# the printed recovery operator count and verdict of every correct case above
RECOVERY_PINS = {
    "correct permprod(genpauli:2,2) --code dicke --dist point:0": (2, "PASS"),
}


def test_correct_cases_pin_the_recovery_count_and_verdict(capsys, files):
    cases = [argv for argv, _ in CODE_FORMS if argv[0] == "correct"]
    assert [" ".join(argv) for argv in cases] == list(RECOVERY_PINS)
    for argv in cases:
        count, verdict = RECOVERY_PINS[" ".join(argv)]
        _, out = run(capsys, files, argv)
        lines = out.splitlines()
        assert lines[1].startswith(f"recovery: {count} operators, max deviation ")
        assert lines[2].startswith(f"{verdict}: ")


def _weak(spec, gens, phases=None, build=weak_stabilizer_code):
    model = parse_model_spec(spec).model
    sub = model.group.subgroup_generated(gens)
    if phases is None:
        f = PhaseFunction.constant_one(sub)
    else:
        f = PhaseFunction.exact(sub, [phases.get(x, Phase(0, 1)) for x in sub.members])
    return model, build(model, sub, f)


def _family(spec):
    parsed = parse_model_spec(spec)
    return parsed.model, clifford_code(parsed.model, *parsed.family)


def _dicke(spec):
    parsed = parse_model_spec(spec)
    sub = _dicke_subgroup(parsed)
    return parsed.model, weak_stabilizer_code(parsed.model, sub, PhaseFunction.constant_one(sub))


JSON_FORMS = [
    (["code", "weak", "pauli:2", "--subgroup", "10,5"], lambda: _weak("pauli:2", [10, 5])),
    (["code", "weak", "genpauli:2", "--subgroup", "1", "--phase", "{phase}"],
     lambda: _weak("genpauli:2", [1], {1: Phase(1, 2)})),
    (["code", "stab", "xp:4", "--subgroup", "2"],
     lambda: _weak("xp:4", [2], build=stabilizer_code)),
    (["code", "clifford", "c2d2n:2", "--rho", "family"], lambda: _family("c2d2n:2")),
    (["code", "clifford", "c2d2n:2", "--subgroup", C2, "--rho", "{rho}"],
     lambda: _family("c2d2n:2")),
]

REPORT_FORMS = [
    (["classify", "pauli:2", "--code", "{code}"], lambda: _weak("pauli:2", [10, 5])),
    (["classify", "pauli:2", "--code", "weak:"], lambda: _weak("pauli:2", [])),
    (["classify", "genpauli:2", "--code", "weak:1:{phase}"],
     lambda: _weak("genpauli:2", [1], {1: Phase(1, 2)})),
    (["classify", "pauli:2", "--code", "stab:10,5"],
     lambda: _weak("pauli:2", [10, 5], build=stabilizer_code)),
    (["classify", "c2d2n:2", "--code", "clifford:" + C2 + ":{rho}"], lambda: _family("c2d2n:2")),
    (["classify", "c2d2n:2", "--code", "family"], lambda: _family("c2d2n:2")),
    (["classify", "oddfam:3", "--code", "family"], lambda: _family("oddfam:3")),
    (["classify", "permprod(genpauli:2,3)", "--code", "dicke"],
     lambda: _dicke("permprod(genpauli:2,3)")),
]


def _normalised(data):
    return json.loads(json.dumps(data))


@pytest.mark.parametrize(
    "argv, build", JSON_FORMS, ids=[" ".join(a) for a, _ in JSON_FORMS]
)
def test_code_json_is_the_library_construction(capsys, files, argv, build):
    rc, out = run(capsys, files, argv + ["--json"])
    assert rc == 0
    assert json.loads(out) == _normalised(build()[1].to_json())


@pytest.mark.parametrize(
    "argv, build", REPORT_FORMS, ids=[" ".join(a) for a, _ in REPORT_FORMS]
)
def test_classify_json_is_the_library_report(capsys, files, argv, build):
    rc, out = run(capsys, files, argv + ["--json"])
    assert rc == 0
    model, code = build()
    assert json.loads(out) == _normalised(classify(model, code).to_json())


EXAMPLES = [
    ["prop8.1", "--n", "2"],
    ["prop8.1", "--n", "3"],
    ["prop8.2", "--n", "3"],
    ["prop9.1", "--n", "2"],
    ["prop9.1", "--n", "3"],
    ["prod-example"],
]


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(a) for a in EXAMPLES])
def test_worked_example_passes_every_claim(capsys, argv):
    rc = main(["reproduce", *argv])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines and all(line.startswith("PASS: ") for line in lines)


def test_a_failed_claim_prints_fail_and_exits_one(capsys, monkeypatch):
    real = cli.classify

    def flipped(model, code):
        report = real(model, code)
        report.flags["is_clifford"] = not report.flags["is_clifford"]
        return report

    monkeypatch.setattr(cli, "classify", flipped)
    rc = main(["reproduce", "prop8.1", "--n", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    failed = [line for line in lines if not line.startswith("PASS: ")]
    assert len(failed) == 1 and failed[0].startswith("FAIL: clifford=true")


def test_a_group_table_over_the_size_cap_is_a_usage_error(capsys):
    # the table cap is met while the spec is built, before any allocation
    assert main(["model", "permprod(genpauli:2,5)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: model spec 'permprod(genpauli:2,5)': ")
    assert "over the 256 MiB cap" in err


def test_a_group_validation_error_while_parsing_is_a_verification_failure(capsys, monkeypatch):
    # only the size cap is a usage error; a table failing the group axioms is not
    def invalid(n):
        raise GroupValidationError("multiplication table is not associative")

    monkeypatch.setattr(cli, "gen_pauli_model", invalid)
    assert main(["model", "genpauli:2"]) == 1
    assert capsys.readouterr().err.startswith("verification failure: multiplication table")
