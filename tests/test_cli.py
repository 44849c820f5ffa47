import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import pairwise_enumerated

import qeclab
from qeclab import models
from qeclab.cli import main, parse_group_spec, parse_model_spec
from qeclab.codes import classify
from qeclab.models import family_c2_x_d2n, family_odd
from qeclab.projreps import ProjectiveRep


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_group_specs():
    assert parse_group_spec("cyclic:4").order == 4
    assert parse_group_spec("dihedral:6").order == 12
    assert parse_group_spec("sym:3").order == 6
    assert parse_group_spec("invsd:3").order == 18
    assert parse_group_spec("prod(cyclic:2,cyclic:3)").order == 6
    assert parse_group_spec("permsd(cyclic:2,2)").order == 8
    assert parse_group_spec("prod(prod(cyclic:2,cyclic:2),cyclic:2)").order == 8


def test_parse_model_specs():
    assert parse_model_spec("genpauli:3").model.dim == 3
    assert parse_model_spec("pauli:2").model.dim == 4
    assert parse_model_spec("xp:4").model.group.order == 8
    assert parse_model_spec("c2d2n:2").model.group.order == 16
    assert parse_model_spec("oddfam:3").model.group.order == 36
    assert parse_model_spec("prod(genpauli:2,genpauli:2)").model.dim == 4
    assert parse_model_spec("permprod(genpauli:2,2)").model.dim == 4


def test_model_command_text(capsys):
    rc, out, _ = run(capsys, "model", "genpauli:3")
    assert rc == 0
    assert "order   9" in out
    assert "dim   3" in out
    assert "irreducible   true" in out
    assert "proj faithful true" in out


def test_model_command_json(capsys):
    rc, out, _ = run(capsys, "model", "genpauli:2", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["group"]["order"] == 4
    assert data["group"]["identity"] == 0
    assert len(data["group"]["mul"]) == 4
    assert data["central_type"] is True
    assert len(data["rep"]["matrices"]) == 4
    assert "cocycle" in data


@pytest.mark.parametrize("spec", ["pauli:2", "oddfam:3"])
def test_model_json_writes_the_cocycle_once(spec, capsys):
    # the nested rep carries no cocycle key; read back, it is snapped to the
    # top-level cocycle
    rc, out, _ = run(capsys, "model", spec, "--json")
    data = json.loads(out)
    model = parse_model_spec(spec).model
    assert rc == 0 and sorted(data["rep"]) == ["dim", "matrices", "order"]
    rep = ProjectiveRep.from_json(model.group, data["rep"])
    assert rep.cocycle.to_json() == data["cocycle"] == model.cocycle.to_json()


def test_model_usage_error(capsys):
    rc, _, err = run(capsys, "model", "unknown:9")
    assert rc == 2
    assert "usage error" in err


@pytest.mark.parametrize(
    "spec", ["pauli:0", "genpauli:0", "xp:1", "c2d2n:1", "oddfam:4", "permprod(genpauli:2,0)"]
)
def test_out_of_range_family_parameters_are_usage_errors(capsys, spec):
    # the models' own range checks raise ModelError; the parser names the spec
    rc, out, err = run(capsys, "model", spec)
    assert rc == 2 and out == ""
    assert err.startswith("usage error:") and "need" in err


def test_a_product_over_the_dimension_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QECLAB_MAX_DIM", "8")
    rc, _, err = run(capsys, "search", "prod(genpauli:3,genpauli:3)")
    assert rc == 2 and "'prod(genpauli:3,genpauli:3)'" in err and "exceeds cap 8" in err


@pytest.mark.parametrize("spec, family", [("oddfam:3", family_odd), ("c2d2n:2", family_c2_x_d2n)])
def test_a_family_spec_builds_its_code_rep_when_first_read(spec, family, monkeypatch):
    # parsing builds the model's rep alone; parsed.family builds (L, rho)
    # once, on the model's own group, as the library family function does
    calls = []
    raw = models.make_rep
    monkeypatch.setattr(models, "make_rep", lambda *a, **k: calls.append(a[0]) or raw(*a, **k))
    parsed = parse_model_spec(spec)
    assert calls == [parsed.model.group]
    sub, rho = parsed.family
    assert len(calls) == 2 and parsed.family[1] is rho
    assert sub.parent is parsed.model.group and rho.group is sub.as_group()
    _, want_sub, want_rho = family(int(spec.split(":")[1]))
    assert sub.members == want_sub.members
    assert rho.matrices.tobytes() == want_rho.matrices.tobytes()
    assert rho.cocycle == want_rho.cocycle


def test_code_weak_and_classify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "code.json"
    rc, out, _ = run(
        capsys, "code", "weak", "pauli:2", "--subgroup", "10,5",
        "--out", str(out_file),
    )
    assert rc == 0
    assert "dim 1" in out
    rc, out, _ = run(
        capsys, "classify", "pauli:2", "--code", str(out_file), "--json"
    )
    assert rc == 0
    report = json.loads(out)
    assert report["code_dim"] == 1
    assert report["flags"]["is_stabilizer"] is True


def test_code_inline_construction(capsys):
    rc, out, _ = run(capsys, "classify", "pauli:2", "--code", "weak:10,5")
    assert rc == 0
    assert "code dim 1" in out


def test_code_with_phase_file(tmp_path, capsys):
    phase_file = tmp_path / "phase.json"
    phase_file.write_text(json.dumps({"1": [1, 2]}))
    rc, out, _ = run(
        capsys, "code", "weak", "genpauli:2", "--subgroup", "1",
        "--phase", str(phase_file), "--json",
    )
    assert rc == 0
    code = json.loads(out)
    assert code["ambient_dim"] == 2
    # f(Z) = -1 selects the |1> line
    column = code["basis"][0]
    assert abs(abs(complex(*column[1])) - 1) < 1e-9


def test_code_family_construction(capsys):
    rc, out, _ = run(capsys, "code", "clifford", "c2d2n:2", "--rho", "family")
    assert rc == 0
    assert "dim 2" in out


def test_code_zero_space_exits_one(capsys):
    rc, out, _ = run(capsys, "code", "weak", "genpauli:2", "--subgroup", "1,2,3")
    assert rc == 1


def test_detect_command(capsys):
    rc, out, _ = run(capsys, "detect", "genpauli:2", "--code", "weak:1", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 4
    scalars = {d["index"]: complex(*d["scalar"]) for d in data["detectable"]}
    assert abs(scalars[0] - 1) < 1e-9
    assert abs(scalars[2]) < 1e-9


def test_correct_uniform_on_bell(capsys):
    rc, out, _ = run(capsys, "correct", "pauli:2", "--code", "weak:10,5",
                     "--dist", "uniform")
    assert rc == 0
    assert "PASS" in out


def test_correct_uniform_on_bell_pins_the_recovery(capsys):
    # the 16 Kraus operators span four directions on the code, and the
    # recovery is one operator per direction plus the completion projector
    rc, out, _ = run(capsys, "correct", "pauli:2", "--code", "weak:10,5",
                     "--dist", "uniform")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "correctable: yes (16 Kraus operators)"
    assert lines[1].startswith("recovery: 5 operators, max deviation ")
    assert lines[2].startswith("PASS: ")


def test_correct_uncorrectable_exits_one(capsys):
    rc, out, _ = run(capsys, "correct", "genpauli:2", "--code", "weak:0",
                     "--dist", "uniform")
    assert rc == 1
    assert "not correctable" in out


def test_correct_point_identity(capsys):
    rc, out, _ = run(capsys, "correct", "genpauli:2", "--code", "weak:1",
                     "--dist", "point:0")
    assert rc == 0


def test_table_d4(capsys):
    rc, out, _ = run(capsys, "table", "d4")
    assert rc == 0
    assert "1+i" in out and "1-i" in out
    assert "chi1" in out and "rho5" in out


def test_reproduce_all_pass(capsys):
    for args in (
        ("reproduce", "prop8.1", "--n", "2"),
        ("reproduce", "prop9.1", "--n", "2"),
    ):
        rc, out, _ = run(capsys, *args)
        assert rc == 0, out
        assert "FAIL" not in out
        assert "PASS" in out


def test_reproduce_needs_n(capsys):
    rc, _, err = run(capsys, "reproduce", "prop8.1")
    assert rc == 2
    assert "--n" in err


def test_search_json_lines(capsys):
    rc, out, _ = run(capsys, "search", "genpauli:2")
    assert rc == 0
    lines = out.strip().splitlines()
    json_lines = [l for l in lines if l.startswith("{")]
    assert len(json_lines) == 7
    for line in json_lines:
        report = json.loads(line)
        assert "flags" in report and "code" in report
    assert any("weak stabilizer codes" in l for l in lines)


def test_search_stdout_matches_the_pairwise_oracle(capsys):
    # each JSON line is classify's report of the code that comparing
    # projectors pairwise keeps, in order, and the count follows
    spec = "permprod(genpauli:2,2)"
    rc, out, _ = run(capsys, "search", spec)
    model = parse_model_spec(spec).model
    found, built = pairwise_enumerated(model)
    want = [json.dumps(classify(model, code).to_json()) for _, _, code in found]
    assert rc == 0 and (len(want), built) == (95, 169)
    lines = out.splitlines()
    assert lines[: len(want) + 2] == want + ["", f"weak stabilizer codes for {spec}: 95"]


def test_search_q3_flag(capsys):
    rc, out, _ = run(capsys, "search", "pauli:2", "--q3")
    assert rc == 0
    assert "q3 probe hits" in out
    assert ": 0" in out


def test_search_cap_exceeded_is_verification_failure(capsys):
    rc, _, err = run(capsys, "search", "genpauli:3", "--max-dim", "2")
    assert rc == 1


def test_search_caps_read_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QECLAB_MAX_DIM", "2")
    assert run(capsys, "search", "genpauli:3")[0] == 1
    assert run(capsys, "search", "genpauli:3", "--max-dim", "3")[0] == 0
    monkeypatch.delenv("QECLAB_MAX_DIM")
    monkeypatch.setenv("QECLAB_MAX_ORDER", "4")
    assert run(capsys, "search", "genpauli:3")[0] == 1
    monkeypatch.setenv("QECLAB_MAX_ORDER", "nine")
    assert run(capsys, "search", "genpauli:3")[0] == 1
    monkeypatch.delenv("QECLAB_MAX_ORDER")
    # the default order cap is 64
    assert run(capsys, "search", "genpauli:9")[0] == 1
    assert run(capsys, "search", "genpauli:3")[0] == 0


def test_search_max_order_flag_above_the_default_cap(capsys, monkeypatch):
    monkeypatch.delenv("QECLAB_MAX_ORDER", raising=False)
    rc, out, _ = run(capsys, "search", "xp:36", "--max-order", "72")
    assert rc == 0
    assert "weak stabilizer codes for xp:36: 75" in out


def test_console_script_installed():
    # the subprocess imports the same qeclab as the tests, installed or not
    src = str(Path(qeclab.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qeclab.cli", "model", "genpauli:2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    # module execution path mirrors the console script
    assert proc.returncode == 0
    assert "order   4" in proc.stdout


def test_missing_code_file_is_usage_error(capsys):
    rc, _, err = run(capsys, "classify", "genpauli:2", "--code", "weak!bogus")
    assert rc == 2


def _malformed(capsys, tmp_path, content, *argv):
    path = tmp_path / "input.json"
    path.write_text(content)
    rc, _, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert rc == 2
    assert err.startswith("usage error:") and str(path) in err


def test_phase_file_with_a_bare_number_is_usage_error(capsys, tmp_path):
    _malformed(
        capsys, tmp_path, '{"0": 5}',
        "code", "weak", "pauli:2", "--subgroup", "10,5", "--phase", "FILE",
    )


def test_phase_file_that_is_a_list_is_usage_error(capsys, tmp_path):
    _malformed(
        capsys, tmp_path, "[[1,2]]",
        "code", "weak", "pauli:2", "--subgroup", "10,5", "--phase", "FILE",
    )


def test_phase_file_with_zero_denominator_is_usage_error(capsys, tmp_path):
    _malformed(
        capsys, tmp_path, '{"0": [1, 0]}',
        "code", "weak", "pauli:2", "--subgroup", "10,5", "--phase", "FILE",
    )


def test_code_file_without_basis_is_usage_error(capsys, tmp_path):
    _malformed(capsys, tmp_path, '{"ambient_dim": 4}', "classify", "pauli:2", "--code", "FILE")


def test_code_file_with_empty_basis_is_usage_error(capsys, tmp_path):
    _malformed(
        capsys, tmp_path, '{"ambient_dim": 4, "basis": []}',
        "classify", "pauli:2", "--code", "FILE",
    )


def test_code_file_failing_orthonormality_exits_one(capsys, tmp_path):
    path = tmp_path / "code.json"
    column = [[1, 0], [1, 0], [0, 0], [0, 0]]
    path.write_text(json.dumps({"ambient_dim": 4, "basis": [column]}))
    rc, _, err = run(capsys, "classify", "pauli:2", "--code", str(path))
    assert rc == 1
    assert "not orthonormal" in err


def test_code_file_with_a_nan_basis_exits_one(capsys, tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"ambient_dim": 2, "basis": [[[float("nan"), 0], [0, 0]]]}))
    rc, _, err = run(capsys, "classify", "genpauli:2", "--code", str(path))
    assert rc == 1
    assert err.startswith("verification failure:") and "not orthonormal" in err


def test_rep_file_without_a_matrix_list_is_usage_error(capsys, tmp_path):
    _malformed(
        capsys, tmp_path, '{"matrices": 5}',
        "code", "clifford", "pauli:2", "--subgroup", "10,5", "--rho", "FILE",
    )


def test_rep_file_with_a_three_entry_pair_is_usage_error(capsys, tmp_path):
    # each entry is an [re, im] pair: a third number is refused, not dropped,
    # as the code and channel readers refuse it
    data = parse_model_spec("genpauli:2").model.rep.to_json()
    argv = ["code", "clifford", "genpauli:2", "--subgroup", "1,2", "--rho"]
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(data))
    assert run(capsys, *argv, str(path))[0] == 0
    data["matrices"] = [[[[*pair, 7.0] for pair in row] for row in m] for m in data["matrices"]]
    _malformed(capsys, tmp_path, json.dumps(data), *argv, "FILE")


_TRIVIAL_TABLE = [[[0, 1]] * 4 for _ in range(4)]
_BROKEN_TABLE = [row if x != 1 else [[0, 1], [1, 2], [0, 1], [0, 1]] for x, row in enumerate(_TRIVIAL_TABLE)]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"matrices": [[[[2, 0]]]] * 4, "cocycle": {"order": 4, "table": _TRIVIAL_TABLE}}, "not unitary"),
        ({"matrices": [[[[1, 0]]]] * 4, "cocycle": {"order": 4, "table": _BROKEN_TABLE}}, "cocycle identity"),
        ({"matrices": [[[[2, 0]]]] * 4}, "scalar snap failed"),
    ],
)
def test_rep_file_failing_validation_exits_one(capsys, tmp_path, data, message):
    # well-formed files whose rep is wrong are verification failures, not usage errors
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(data))
    rc, _, err = run(
        capsys, "code", "clifford", "pauli:2", "--subgroup", "10,5", "--rho", str(path)
    )
    assert rc == 1
    assert not err.startswith("usage error:") and message in err


def test_distribution_file_that_is_a_map_is_usage_error(capsys, tmp_path):
    _malformed(capsys, tmp_path, '{"a": 1}', "correct", "genpauli:2", "--code", "weak:1", "--dist", "FILE")


def test_distribution_file_with_a_string_entry_is_usage_error(capsys, tmp_path):
    _malformed(
        capsys, tmp_path, '[1, "x", 0, 0]',
        "correct", "genpauli:2", "--code", "weak:1", "--dist", "FILE",
    )


def test_distribution_file_of_the_wrong_length_is_usage_error(capsys, tmp_path):
    _malformed(capsys, tmp_path, "[1, 0]", "correct", "genpauli:2", "--code", "weak:1", "--dist", "FILE")


def test_distribution_file_with_a_nan_entry_exits_one(capsys, tmp_path):
    path = tmp_path / "dist.json"
    path.write_text("[NaN, 0.5, 0.5, 0]")
    rc, out, err = run(
        capsys, "correct", "genpauli:2", "--code", "weak:1", "--dist", str(path)
    )
    assert rc == 1 and "PASS" not in out
    assert err.startswith("verification failure:") and "distribution has non-finite entries" in err
