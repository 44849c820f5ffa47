import copy
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CATALOG_64,
    _joint_eigenspaces,
    classify_flags_oracle,
    clifford_code_oracle,
    commutator_norms_oracle,
    compressed_scalars_oracle,
    detectable_oracle,
    eigenspace_dim,
    existence_phase_oracle,
    irreducible_constituents,
    joint_eigenvectors_oracle,
    linear_characters,
    logical_oracle,
    partition_norms_oracle,
    partitioning_oracle,
    relabeled_model,
    stabilizer_oracle,
    subgroup_generators,
    weak_code_nullspace_oracle,
)

from qeclab import _tol, cocycles, codes, projreps
from qeclab._linalg import nullspace
from qeclab.cli import _dicke_subgroup, parse_model_spec
from qeclab.cocycles import Phase, PhaseFunction, _phase_values, coboundary, find_trivializing_phase
from qeclab.codes import (
    CodeError,
    CodeSpace,
    _code_action,
    _constituent_phases,
    _constituents,
    _eigenspaces,
    classify,
    clifford_code,
    code_dimension_formula,
    detectable_set,
    existence_phase,
    is_partitioning,
    logical_group,
    product_code,
    stabilizer_code,
    stabilizer_group,
    stabilizer_to_clifford,
    weak_stabilizer_code,
)
from qeclab.models import (
    ProjectiveErrorModel,
    dihedral_xp_model,
    family_c2_x_d2n,
    family_odd,
    gen_pauli_model,
    perm_product_model,
    product_model,
)
from qeclab.projreps import make_rep
from qeclab.search import enumerate_weak_stabilizer_codes


def _two_qubit_pauli():
    return product_model(gen_pauli_model(2), gen_pauli_model(2))


def _bell_code(model):
    # indices: X = 2, Z = 1 per factor, pair (x, y) at 4x + y
    sub = model.group.subgroup_generated([10, 5])  # XX and ZZ
    f = PhaseFunction.constant_one(sub)
    return sub, f, stabilizer_code(model, sub, f)


# ------------------------------------------------------------- CodeSpace


def test_code_space_orthonormalizes():
    vecs = [[1, 0, 1, 0], [1, 0, 0, 0]]
    code = CodeSpace.from_vectors(4, vecs)
    assert code.dim == 2
    gram = code.basis.conj().T @ code.basis
    assert np.allclose(gram, np.eye(2))


@pytest.mark.parametrize("basis", [[[np.nan], [0]], [[1], [np.nan]], [[np.nan, 0], [0, 1]]])
def test_code_space_rejects_a_nan_basis(basis):
    with pytest.raises(CodeError, match="not orthonormal"):
        CodeSpace(2, basis)


def test_code_space_rejects_zero():
    with pytest.raises(CodeError):
        CodeSpace.from_vectors(3, [[0, 0, 0]])


def test_code_space_equals_is_basis_free():
    a = CodeSpace.from_vectors(2, [[1, 0], [0, 1]])
    b = CodeSpace.from_vectors(2, [[1, 1], [1, -1]])
    assert a.equals(b)
    c = CodeSpace.from_vectors(2, [[1, 0]])
    assert not a.equals(c)


def test_code_space_json_round_trip():
    code = CodeSpace.from_vectors(3, [[1, 1j, 0], [0, 0, 1]])
    back = CodeSpace.from_json(code.to_json())
    assert back.equals(code)


# ------------------------------------------------- weak stabilizer codes


def test_bell_code_is_the_bell_state():
    model = _two_qubit_pauli()
    _, _, code = _bell_code(model)
    assert code is not None
    assert code.dim == 1
    want = CodeSpace.from_vectors(4, [[1, 0, 0, 1]])
    assert code.equals(want)


def test_weak_code_satisfies_eigen_equations():
    model = _two_qubit_pauli()
    sub, f, code = _bell_code(model)
    for x in sub.members:
        lhs = model.rep.matrix(x) @ code.basis
        rhs = f.value_at(x) * code.basis
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_weak_code_requires_matching_domain():
    model = gen_pauli_model(2)
    sub = model.group.subgroup_generated([1])
    other = model.group.subgroup_generated([2])
    f = PhaseFunction.constant_one(other)
    with pytest.raises(CodeError):
        weak_stabilizer_code(model, sub, f)


def test_weak_code_zero_when_phase_has_wrong_coboundary():
    # on the full qubit Pauli group no phase function trivializes the
    # cocycle, so every joint eigenspace is zero
    model = gen_pauli_model(2)
    sub = model.group.full_subgroup()
    f = PhaseFunction.constant_one(sub)
    assert weak_stabilizer_code(model, sub, f) is None


def test_weak_code_none_when_generator_space_fails_the_check():
    # f agrees with a genuine code's phases on the generator but not on
    # (a) the identity or (b) the square of the generator: the generator
    # eigenspace is nonzero, fails the check on the whole subgroup, and the
    # full joint eigenspace is zero
    model = gen_pauli_model(3)
    g = model.group
    sub = g.subgroup_generated([1])
    f = existence_phase(model, sub)
    (gen,) = subgroup_generators(sub)
    square = g.mul[gen, gen]
    assert nullspace(model.rep.matrices[gen] - f.value_at(gen) * np.eye(3)).shape[1] > 0
    for x in (g.identity, square):
        phases = list(f.phases)
        phases[sub.position(x)] = phases[sub.position(x)] * Phase(1, 3)
        bad = PhaseFunction.exact(sub, phases)
        assert bad.value_at(gen) == f.value_at(gen)
        assert coboundary(bad) != model.cocycle.restrict(sub)
        assert weak_stabilizer_code(model, sub, bad) is None


def test_stabilizer_code_needs_normal_subgroup():
    model, _, _ = family_c2_x_d2n(2)
    sub = model.group.subgroup_generated([4])
    if sub.is_normal():
        pytest.skip("chosen subgroup unexpectedly normal")
    f = PhaseFunction.constant_one(sub)
    with pytest.raises(CodeError):
        stabilizer_code(model, sub, f)


def test_sign_phase_picks_other_eigenspace():
    model = gen_pauli_model(2)
    sub = model.group.subgroup_generated([1])  # <Z>
    plus = weak_stabilizer_code(model, sub, PhaseFunction.constant_one(sub))
    minus = weak_stabilizer_code(
        model, sub, PhaseFunction.exact(sub, [Phase(0, 1), Phase(1, 2)])
    )
    assert plus.equals(CodeSpace.from_vectors(2, [[1, 0]]))
    assert minus.equals(CodeSpace.from_vectors(2, [[0, 1]]))


def test_nested_subgroup_shrinks_code():
    model = _two_qubit_pauli()
    small = model.group.subgroup_generated([10])
    big = model.group.subgroup_generated([10, 5])
    f_small = PhaseFunction.constant_one(small)
    f_big = PhaseFunction.constant_one(big)
    w_small = weak_stabilizer_code(model, small, f_small)
    w_big = weak_stabilizer_code(model, big, f_big)
    assert w_small.dim > w_big.dim
    # containment: projector of the big-subgroup code is dominated
    p, q = w_big.projector(), w_small.projector()
    assert np.max(np.abs(p @ q - p)) < 1e-9


# ------------------------------------------------- dimension machinery


def test_dimension_formula_matches_direct_rank():
    for model in (gen_pauli_model(2), gen_pauli_model(3), dihedral_xp_model(4)):
        g = model.group
        for sub in g.all_subgroups():
            res = model.cocycle.restrict(sub)
            f0 = find_trivializing_phase(res, domain=sub)
            if f0 is None or not sub.is_abelian():
                continue
            h = sub.as_group()
            for chi in linear_characters(h):
                f = f0.multiply(
                    PhaseFunction.from_complex(sub, chi, max_den=2 * h.order)
                )
                got = code_dimension_formula(model, sub, f)
                want = eigenspace_dim(
                    model.rep.matrices, sub.members, f.values
                )
                assert got == want, (model.label, sub.members)


def test_existence_phase_full_pauli_group_is_none():
    model = gen_pauli_model(2)
    assert existence_phase(model, model.group.full_subgroup()) is None


def test_existence_phase_yields_nonzero_code():
    model = _two_qubit_pauli()
    sub = model.group.subgroup_generated([10, 5])
    f = existence_phase(model, sub)
    assert f is not None
    code = weak_stabilizer_code(model, sub, f)
    assert code is not None and code.dim >= 1


def test_existence_phase_deterministic():
    model = _two_qubit_pauli()
    sub = model.group.subgroup_generated([10, 5])
    f1 = existence_phase(model, sub)
    f2 = existence_phase(model, sub)
    assert np.allclose(f1.values, f2.values)


WALK_SPECS = ["pauli:2", "genpauli:4", "c2d2n:3", "oddfam:3"]


@pytest.mark.parametrize("spec", WALK_SPECS)
def test_joint_eigenspaces_match_breadth_first_walk(spec):
    # the depth-first walk yields the breadth-first lists bit for bit, in
    # order, on every subgroup with a trivializer (nonabelian ones included)
    model = parse_model_spec(spec).model
    nonabelian = 0
    for sub in model.group.all_subgroups():
        f0 = find_trivializing_phase(model.cocycle.restrict(sub), domain=sub)
        if f0 is None:
            continue
        nonabelian += not sub.is_abelian()
        lin = model.rep.matrices[list(sub.members)] * f0.values.conj()[:, None, None]
        gens = sub.as_group().greedy_generators()
        got = list(_joint_eigenspaces(lin, gens, np.eye(model.dim, dtype=complex)))
        want = joint_eigenvectors_oracle(lin, gens)
        assert len(got) == len(want), sub.members
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), sub.members
    if spec in ("c2d2n:3", "oddfam:3"):
        assert nonabelian > 0


@pytest.mark.parametrize("spec", WALK_SPECS)
def test_existence_phase_matches_eig_walk(spec):
    model = parse_model_spec(spec).model
    found = 0
    for sub in model.group.all_subgroups():
        if not sub.is_abelian():
            continue
        got, want = existence_phase(model, sub), existence_phase_oracle(model, sub)
        assert (got is None) == (want is None), sub.members
        if got is None:
            continue
        found += 1
        assert got.phases == want.phases, sub.members
        assert np.abs(got.values - want.values).max() <= 1e-12
    assert found > 0


# ----------------------------------------------------- clifford codes


def test_clifford_code_whole_space():
    model = gen_pauli_model(2)
    code = clifford_code(model, model.group.full_subgroup(), model.rep)
    assert code.dim == 2


def test_clifford_code_line_from_character():
    model = gen_pauli_model(2)
    sub = model.group.subgroup_generated([1])
    f = PhaseFunction.constant_one(sub)
    from qeclab.projreps import rep_from_phase_function

    rho = rep_from_phase_function(f)
    code = clifford_code(model, sub, rho)
    assert code.equals(CodeSpace.from_vectors(2, [[1, 0]]))


def test_clifford_code_rejects_reducible():
    model = gen_pauli_model(2)
    sub = model.group.subgroup_generated([1])
    h = sub.as_group()
    mats = np.array([np.diag([1.0, (-1.0) ** k]) for k in range(2)], dtype=complex)
    rho = make_rep(h, mats)
    with pytest.raises(CodeError, match="irreducible"):
        clifford_code(model, sub, rho)


def test_clifford_code_rejects_wrong_cocycle():
    model = gen_pauli_model(2)
    sub = model.group.full_subgroup()
    ones = make_rep(sub.as_group(), np.ones((4, 1, 1), dtype=complex))
    with pytest.raises(CodeError, match="cocycle"):
        clifford_code(model, sub, ones)


def test_clifford_code_rejects_multiplicity_two():
    model = _two_qubit_pauli()
    factor = model.group.subgroup([x * 4 for x in range(4)])
    rho = gen_pauli_model(2).rep
    small = make_rep(factor.as_group(), rho.matrices)
    with pytest.raises(CodeError, match="multiplicity"):
        clifford_code(model, factor, small)


def test_family_codes_build():
    for n in (2, 3):
        model, sub, rho = family_c2_x_d2n(n)
        code = clifford_code(model, sub, rho)
        assert code.dim == 2
    for n in (3,):
        model, sub, rho = family_odd(n)
        code = clifford_code(model, sub, rho)
        assert code.dim == n


def test_stabilizer_to_clifford_bell():
    model = _two_qubit_pauli()
    sub, f, code = _bell_code(model)
    logical, rebuilt = stabilizer_to_clifford(model, sub, f)
    assert rebuilt.equals(code)
    assert set(sub.members) <= set(logical.members)


# ------------------------------------------------ classification pieces


def test_logical_stabilizer_detectable_on_z_line():
    model = gen_pauli_model(2)
    code = CodeSpace.from_vectors(2, [[1, 0]])
    logical = logical_group(model, code)
    assert set(logical.members) == {0, 1}
    stab, f = stabilizer_group(model, code)
    assert set(stab.members) == {0, 1}
    assert abs(f.value_at(1) - 1) < 1e-9
    detect = detectable_set(model, code)
    assert set(detect) == {0, 1, 2, 3}
    ok, witness = is_partitioning(model, code)
    assert ok and witness is None


def test_stabilizer_scalars_are_eigenvalues():
    model = _two_qubit_pauli()
    sub, f, code = _bell_code(model)
    stab, f_found = stabilizer_group(model, code)
    assert set(sub.members) <= set(stab.members)
    for x in sub.members:
        assert abs(f_found.value_at(x) - f.value_at(x)) < 1e-9


def test_classify_bell_code():
    model = _two_qubit_pauli()
    _, _, code = _bell_code(model)
    report = classify(model, code)
    assert report.flags["is_stabilizer"]
    assert report.flags["is_weak_stabilizer"]
    assert report.flags["is_clifford"]
    assert report.flags["is_partitioning"]
    assert report.central_type_criterion is not None
    assert report.central_type_criterion["is_weak_stabilizer"]
    # S = L = the Bell stabilizer group of order 4
    assert len(report.stabilizer) == 4
    assert len(report.logical) == 4
    assert len(report.detectable) == 16


def test_classify_containments_hold_generally():
    model, sub, rho = family_c2_x_d2n(2)
    code = clifford_code(model, sub, rho)
    report = classify(model, code)
    assert set(report.stabilizer.members) <= set(report.logical.members)
    assert set(report.stabilizer.members) <= set(report.detectable)


def test_classify_report_json_shape():
    model = gen_pauli_model(2)
    code = CodeSpace.from_vectors(2, [[1, 0]])
    data = classify(model, code).to_json()
    for key in (
        "model",
        "group_order",
        "ambient_dim",
        "code",
        "code_dim",
        "logical",
        "stabilizer",
        "stabilizer_phase",
        "detectable",
        "flags",
        "witnesses",
    ):
        assert key in data, key
    assert data["code_dim"] == 1
    assert sorted(data["flags"]) == [
        "is_clifford",
        "is_partitioning",
        "is_stabilizer",
        "is_weak_stabilizer",
    ]


def test_dicke_code_partitioning_witness_is_real():
    model = perm_product_model(gen_pauli_model(2), 2)
    sub = model.group.subgroup(range(2))
    code = weak_stabilizer_code(model, sub, PhaseFunction.constant_one(sub))
    assert code.dim == 3
    report = classify(model, code)
    assert not report.flags["is_partitioning"]
    witness = report.witnesses["is_partitioning"]
    x = int(witness)
    # the witness element must actually break the dichotomy: it is either
    # detectable without being outside-L-or-in-S, or the reverse
    in_d = x in set(report.detectable)
    in_split = x not in set(report.logical.members) or x in set(
        report.stabilizer.members
    )
    assert in_d != in_split


def test_product_code_formulas():
    m1, sub1, rho1 = family_c2_x_d2n(2)
    w1 = clifford_code(m1, sub1, rho1)
    model, code = product_code(m1, w1, m1, w1)
    assert code.dim == 4
    l1 = logical_group(m1, w1)
    lp = logical_group(model, code)
    n2 = m1.group.order
    want = {x * n2 + y for x in l1.members for y in l1.members}
    assert set(lp.members) == want


def test_central_type_criterion_never_contradicts():
    # classify raises on any disagreement between the order criterion and
    # the direct reconstruction test; sweep a central-type model to check
    model = gen_pauli_model(3)
    from qeclab.search import enumerate_weak_stabilizer_codes

    for _, _, code in enumerate_weak_stabilizer_codes(model):
        report = classify(model, code)
        crit = report.central_type_criterion
        if crit is not None:
            assert crit["is_weak_stabilizer"] == report.flags["is_weak_stabilizer"]


# ------------------------------------------------ shared action against the per-function formulas


# pauli:3 is left out: its 2467 codes take half a minute to classify and check.
@pytest.mark.parametrize("spec", [s for s in CATALOG_64 if s != "pauli:3"])
def test_classify_matches_per_function_formulas(spec):
    # on both paths: an enumerated code's report is read from its maximal
    # witness key, and an untagged copy's from its action
    model = parse_model_spec(spec).model
    assert model.group.order <= 64
    found = [code for _, _, code in enumerate_weak_stabilizer_codes(model)]
    for code in found + [CodeSpace(model.dim, code.basis.copy()) for code in found]:
        report = classify(model, code)
        logical = logical_oracle(model, code)
        stab, phases = stabilizer_oracle(model, code)
        detect = detectable_oracle(model, code)
        part = partitioning_oracle(model, code)
        assert list(report.logical.members) == logical
        assert list(report.stabilizer.members) == stab
        assert list(report.stabilizer_phase.phases) == phases
        assert report.detectable == detect
        assert (report.flags["is_partitioning"], report.witnesses.get("is_partitioning")) == part
        # the norms the Clifford invariance test reads
        act = _code_action(model, code)
        inside, outside = partition_norms_oracle(model, code)
        assert np.abs(act.inside - inside).max() < 1e-12
        assert np.abs(act.outside - outside).max() < 1e-12


def test_public_scans_match_per_function_formulas():
    model = product_model(gen_pauli_model(2), gen_pauli_model(3))
    for _, _, code in enumerate_weak_stabilizer_codes(model)[::7]:
        assert list(logical_group(model, code).members) == logical_oracle(model, code)
        stab, f = stabilizer_group(model, code)
        assert (list(stab.members), list(f.phases)) == stabilizer_oracle(model, code)
        assert detectable_set(model, code) == detectable_oracle(model, code)
        assert is_partitioning(model, code) == partitioning_oracle(model, code)
    line = CodeSpace.from_vectors(6, np.arange(6) + 1j)
    assert is_partitioning(model, line) == partitioning_oracle(model, line)
    assert not partitioning_oracle(model, line)[0]


def test_public_scans_are_views_of_classify():
    # logical_group, stabilizer_group and is_partitioning return the fields
    # of classify's report: on an enumerated code, its attached report's
    model = parse_model_spec("c2d2n:3").model
    found = enumerate_weak_stabilizer_codes(model)
    reports = [classify(model, code) for _, _, code in found]
    assert {r.flags["is_partitioning"] for r in reports} == {False, True}
    for (_, _, code), report in zip(found, reports):
        assert logical_group(model, code) is report.logical
        stab, f = stabilizer_group(model, code)
        assert stab is report.stabilizer and f is report.stabilizer_phase
        ok, witness = is_partitioning(model, code)
        assert ok is report.flags["is_partitioning"] and witness is report.witnesses.get("is_partitioning")


def _report_batch(report, logical=None, detect=None):
    """codes._report's arguments for the one code of a weak code's classify
    report: D as a [1, |G|] mask, its first mixed element, -1 when there is
    none; logical and detect replace L and D."""
    mask = np.zeros((1, report.model.group.order), dtype=bool)
    mask[0, report.detectable] = True
    return (
        report.model, [report.code], [logical or report.logical], [report.stabilizer],
        [report.stabilizer_phase], mask if detect is None else detect,
        np.array([report.witnesses.get("is_partitioning", -1)]),
        [(report.flags["is_clifford"], report.witnesses.get("is_clifford"))], [0],
    )


def test_the_report_batch_tests_containment_and_the_closed_form_on_masks():
    # one bit flipped in L's mask, or in D's, is caught by codes._report
    model = parse_model_spec("c2d2n:3").model
    reports = (classify(model, code) for _, _, code in enumerate_weak_stabilizer_codes(model))
    report = next(r for r in reports if r.flags["is_partitioning"] and 1 < len(r.stabilizer) < len(r.logical))
    assert codes._report(*_report_batch(report))[0].to_json() == report.to_json()
    x = report.stabilizer.members[-1]                      # in S, not the identity
    logical = copy.copy(report.logical)
    logical._inside = logical._inside.copy()
    logical._inside[x] = False
    with pytest.raises(RuntimeError, match="stabilizer group not contained in logical group"):
        codes._report(*_report_batch(report, logical=logical))
    detect = _report_batch(report)[5]
    detect[0, x] = False
    with pytest.raises(RuntimeError, match="stabilizer group not contained in detectable set"):
        codes._report(*_report_batch(report, detect=detect))
    y = next(y for y in report.logical.members if y not in report.stabilizer)   # in L, not in S
    detect = _report_batch(report)[5]
    detect[0, y] = True
    with pytest.raises(RuntimeError, match="partitioning code whose detectable set is not the closed form"):
        codes._report(*_report_batch(report, detect=detect))


# ------------------------------------------ flags by counting against rebuilt eigenspaces


def _flag_path(report) -> str:
    """Which branch of classify decided is_stabilizer."""
    if not report.flags["is_weak_stabilizer"]:
        return "not weak"
    if report.central_type_criterion is not None:
        return "central criterion"
    return "reconstructed" if report.flags["is_stabilizer"] else "not reconstructed"


def _enumerate_codes():
    for spec in ["genpauli:4", "xp:4", "c2d2n:2", "oddfam:3", "permprod(genpauli:2,2)"]:
        model = parse_model_spec(spec).model
        yield from ((model, code) for _, _, code in enumerate_weak_stabilizer_codes(model))


def _line_codes():
    rng = np.random.default_rng(2024)
    for spec in CATALOG_64:
        model = parse_model_spec(spec).model
        for _ in range(2):
            vec = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
            yield model, CodeSpace.from_vectors(model.dim, vec)


def _family_codes():
    for spec in ["c2d2n:2", "c2d2n:3", "c2d2n:4", "c2d2n:5", "oddfam:3", "oddfam:5"]:
        parsed = parse_model_spec(spec)
        yield parsed.model, clifford_code(parsed.model, *parsed.family)


def _dicke_codes():
    for n in (2, 3):
        parsed = parse_model_spec(f"permprod(genpauli:2,{n})")
        sub = _dicke_subgroup(parsed)
        yield parsed.model, weak_stabilizer_code(parsed.model, sub, PhaseFunction.constant_one(sub))


@pytest.mark.parametrize(
    "codes_of, paths",
    [
        (_enumerate_codes, {"central criterion", "reconstructed", "not reconstructed"}),
        (_line_codes, {"not weak"}),
        (_family_codes, {"not weak"}),
        (_dicke_codes, {"not reconstructed"}),
    ],
    ids=["enumerate", "lines", "family", "dicke"],
)
def test_classify_flags_match_rebuilt_eigenspaces(codes_of, paths):
    # classify counts with code_dimension_formula and characters; the oracle
    # rebuilds each eigenspace and hom space and must agree, witness texts too
    seen = set()
    for model, code in codes_of():
        report = classify(model, code)
        flags, witnesses = classify_flags_oracle(model, code)
        assert {k: report.flags[k] for k in flags} == flags
        assert {k: report.witnesses.get(k) for k in flags} == {k: witnesses.get(k) for k in flags}
        seen.add(_flag_path(report))
    assert seen == paths


def _count_calls(monkeypatch, module, name, calls):
    raw = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return raw(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_classify_builds_no_hom_space_or_eigenspace(monkeypatch):
    model = parse_model_spec("c2d2n:2").model
    found = enumerate_weak_stabilizer_codes(model)
    calls: dict[str, int] = {}
    # codes binds no hom_space of its own, so every call goes through projreps
    assert not hasattr(codes, "hom_space")
    _count_calls(monkeypatch, projreps, "hom_space", calls)
    _count_calls(monkeypatch, codes, "weak_stabilizer_code", calls)
    reports = [classify(model, code) for _, _, code in found]
    assert sum(r.flags["is_clifford"] for r in reports) > 0
    assert calls == {}


def _clifford_cases():
    # the whole-space and character-line cases above, then the family codes
    model = gen_pauli_model(2)
    yield model, model.group.full_subgroup(), model.rep
    sub = model.group.subgroup_generated([1])
    yield model, sub, projreps.rep_from_phase_function(PhaseFunction.constant_one(sub))
    for spec in ["c2d2n:2", "c2d2n:3", "c2d2n:4", "c2d2n:5", "oddfam:3", "oddfam:5"]:
        parsed = parse_model_spec(spec)
        yield (parsed.model, *parsed.family)


def test_clifford_code_matches_the_hom_space_oracle():
    for model, sub, rho in _clifford_cases():
        got = clifford_code(model, sub, rho)
        want = clifford_code_oracle(model, sub, rho)
        assert got.dim == rho.dim
        assert np.linalg.norm(got.projector() - want.projector()) < _tol.DERIVED


@pytest.mark.parametrize("spec", ["c2d2n:2", "oddfam:3"])
def test_clifford_code_matches_the_oracle_on_every_probe_pair(spec):
    # every (H, rho) that q3_probe makes a candidate of, in its order; the
    # candidate's code, its split basis, is clifford_code's space
    from qeclab.search import q3_probe

    model = parse_model_spec(spec).model
    pairs = [
        (sub, rho)
        for sub in model.group.all_subgroups()
        for res in [projreps.restrict(model.rep, sub)]
        for rho in irreducible_constituents(res)
        if sub.index() * rho.dim == model.dim and projreps._intertwiner_count(rho, res) == 1
    ]
    candidates = q3_probe(model, return_candidates=True)[1]
    assert len(pairs) == len(candidates) > 40
    for (sub, rho), report in zip(pairs, candidates):
        got = clifford_code(model, sub, rho)
        want = clifford_code_oracle(model, sub, rho)
        assert np.linalg.norm(got.projector() - want.projector()) < _tol.DERIVED
        assert np.abs(report.code.projector() - got.projector()).max() < 1e-11


# Positions, in enumerate order, of the 19 of the 147 codes of c2d2n:8 that
# classify calls stabilizer codes; the other 128 are weak stabilizer codes
# that no normal subgroup of their stabilizer rebuilds.  Recorded when each
# normal candidate was still built as a new Subgroup of the model group.
C2D2N8_STABILIZER_POSITIONS = [0, 1, 2, 35, 36, 37, 38, 71, 72, 73, 74, *range(139, 147)]


def test_normal_reconstruction_flags_on_c2d2n8():
    model = parse_model_spec("c2d2n:8").model
    assert not model.is_central_type()
    found = enumerate_weak_stabilizer_codes(model)
    assert len(found) == 147
    for i, (_, _, code) in enumerate(found):
        report = classify(model, code)
        assert report.flags["is_weak_stabilizer"]
        if i in C2D2N8_STABILIZER_POSITIONS:
            assert report.flags["is_stabilizer"]
            assert "is_stabilizer" not in report.witnesses
        else:
            assert not report.flags["is_stabilizer"]
            assert report.witnesses["is_stabilizer"] == (
                "no normal subgroup of the stabilizer rebuilds the code"
            )


# ------------------------------- the action on the code basis against the projector form


def _assert_action_matches_projector_form(model, code):
    act = _code_action(model, code)
    scalars, scalar_dev = compressed_scalars_oracle(model, code)
    inside, outside = partition_norms_oracle(model, code)
    want = {
        "commutator": commutator_norms_oracle(model, code),
        "scalars": scalars,
        "scalar_dev": scalar_dev,
        "inside": inside,
        "outside": outside,
    }
    for name, values in want.items():
        assert np.abs(getattr(act, name) - values).max() < 1e-12, name


@pytest.mark.parametrize("spec", ["xp:15", "c2d2n:3", "prod(genpauli:2,genpauli:4)"])
def test_code_action_matches_the_batched_products(spec):
    # the flat products of compressed_action against numpy's batched ones
    model = parse_model_spec(spec).model
    mats = model.rep.matrices
    for _, _, code in enumerate_weak_stabilizer_codes(model):
        act, b = _code_action(model, code), code.basis
        c = b.conj().T @ mats @ b
        scalars = np.trace(c, axis1=1, axis2=2) / code.dim
        inside = np.linalg.norm(mats @ b - b @ c, axis=(1, 2))
        want = {
            "commutator": np.hypot(inside, inside[model.group.inv]),
            "scalars": scalars,
            "scalar_dev": np.linalg.norm(c - scalars[:, None, None] * np.eye(code.dim), axis=(1, 2)),
            "inside": inside,
            "outside": np.linalg.norm(c, axis=(1, 2)),
        }
        for name, values in want.items():
            assert np.abs(getattr(act, name) - values).max() < 1e-13, name


# pauli:3 is left out for time, as in test_classify_matches_per_function_formulas.
@pytest.mark.parametrize("spec", [s for s in CATALOG_64 if s != "pauli:3"])
def test_code_action_matches_projector_form_on_enumerated_codes(spec):
    model = parse_model_spec(spec).model
    for _, _, code in enumerate_weak_stabilizer_codes(model):
        _assert_action_matches_projector_form(model, code)


@pytest.mark.parametrize(
    "model",
    [
        parse_model_spec("pauli:2").model,
        parse_model_spec("xp:8").model,
        relabeled_model(parse_model_spec("oddfam:3").model, seed=9),
    ],
    ids=["pauli:2", "xp:8", "relabeled oddfam:3"],
)
def test_code_action_matches_projector_form_on_random_subspaces(model):
    # generic subspaces: pi(x) moves them, so the commutator is read from
    # two nonzero residues, at x and at x^-1
    rng = np.random.default_rng(41)
    d = model.dim
    for k in range(1, d):
        for _ in range(3):
            vectors = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
            code = CodeSpace.from_vectors(d, vectors)
            assert code.dim == k
            act = _code_action(model, code)
            assert np.sort(act.inside)[1] > 0.1
            _assert_action_matches_projector_form(model, code)


def test_classify_never_forms_the_code_projector(monkeypatch):
    cases = []
    for spec in ["pauli:2", "c2d2n:2", "oddfam:3"]:
        parsed = parse_model_spec(spec)
        model = parsed.model
        cases += [(model, code) for _, _, code in enumerate_weak_stabilizer_codes(model)]
        if parsed.family is not None:
            cases.append((model, clifford_code(model, *parsed.family)))
        cases.append((model, CodeSpace.from_vectors(model.dim, np.arange(model.dim) + 1j)))
    want = [json.dumps(classify(model, code).to_json()) for model, code in cases]

    def refuse(self):
        raise AssertionError("classify formed the code projector")

    monkeypatch.setattr(CodeSpace, "projector", refuse)
    assert [json.dumps(classify(model, code).to_json()) for model, code in cases] == want


# ------------------------------------- the Clifford flag read from the code action


@pytest.mark.parametrize(
    "reader", [classify, logical_group, stabilizer_group, detectable_set, is_partitioning]
)
def test_readers_refuse_a_code_of_another_dimension(reader):
    model = gen_pauli_model(2)
    code = CodeSpace.from_vectors(3, [1, 0, 0])
    with pytest.raises(CodeError, match="code lives in dimension 3, model in 2"):
        reader(model, code)


def test_dimension_formula_refuses_a_phase_missing_a_member():
    model = gen_pauli_model(2)
    g = model.group
    sub = g.subgroup_generated([1])
    with pytest.raises(CodeError, match="not defined on every member"):
        code_dimension_formula(model, sub, PhaseFunction.constant_one(g.subgroup_generated([2])))
    # a phase function on a larger subgroup is read on sub's members, as the
    # normal reconstruction passes f on S for N <= S
    assert code_dimension_formula(model, sub, PhaseFunction.constant_one(g.full_subgroup())) == 1


@pytest.mark.parametrize("spec", ["c2d2n:3", "oddfam:3"])
def test_classify_builds_no_rep_and_no_subspace_action(monkeypatch, spec):
    model = parse_model_spec(spec).model
    found = enumerate_weak_stabilizer_codes(model)
    calls = {"__init__": 0, "on_subspace": 0}
    for name in calls:
        raw = getattr(projreps.ProjectiveRep, name)

        def counted(*args, _raw=raw, _name=name, **kwargs):
            calls[_name] += 1
            return _raw(*args, **kwargs)

        monkeypatch.setattr(projreps.ProjectiveRep, name, counted)
    reports = [classify(model, code) for _, _, code in found]
    assert sum(r.flags["is_clifford"] for r in reports) > 0
    assert calls == {"__init__": 0, "on_subspace": 0}


@functools.cache
def _clifford_code_cases():
    # codes classify calls Clifford: the family codes of c2d2n:2 and oddfam:3
    # and oddfam:3's q3_probe candidates, less the whole space, which has no
    # complement to tilt into
    from qeclab.search import q3_probe

    cases = []
    for spec in ["c2d2n:2", "oddfam:3"]:
        parsed = parse_model_spec(spec)
        cases.append((parsed.model, clifford_code(parsed.model, *parsed.family)))
    model = parse_model_spec("oddfam:3").model
    cases += [(model, r.code) for r in q3_probe(model, return_candidates=True)[1]]
    return [(m, c) for m, c in cases if c.dim < m.dim]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    eps=st.sampled_from([1e-11, 1e-9, 1e-7, 1e-5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_clifford_flag_matches_the_rep_oracle_on_tilted_codes(data, eps, seed):
    # W tilted out of itself by eps along a random unit direction of its
    # complement; the oracle still builds the restricted rep by on_subspace
    cases = _clifford_code_cases()
    model, code = cases[data.draw(st.integers(0, len(cases) - 1))]
    b = code.basis
    rng = np.random.default_rng(seed)
    r = rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape)
    r -= b @ (b.conj().T @ r)
    tilted = CodeSpace.from_vectors(model.dim, (b + eps * r / np.linalg.norm(r)).T)
    flags, witnesses = classify_flags_oracle(model, tilted)
    want = (flags["is_clifford"], witnesses.get("is_clifford"))
    report = classify(model, tilted)
    assert (report.flags["is_clifford"], report.witnesses.get("is_clifford")) == want


@functools.cache
def _enumerated(spec):
    model = parse_model_spec(spec).model
    return model, [code for _, _, code in enumerate_weak_stabilizer_codes(model)]


# pauli:3 is left out for time, as in test_classify_matches_per_function_formulas.
TWIST_SPECS = [s for s in CATALOG_64 if s != "pauli:3"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_classify_is_invariant_under_twisting_by_quarter_turns(data):
    # pi'(x) = f(x) pi(x) with f exact of denominator dividing 4: every
    # invariant set and flag is unchanged, and the stabilizer phase picks up f|S
    model, found = _enumerated(data.draw(st.sampled_from(TWIST_SPECS)))
    g = model.group
    nums = data.draw(st.lists(st.integers(0, 3), min_size=g.order, max_size=g.order))
    nums[g.identity] = 0   # a Character needs chi(e) = dim V
    f = PhaseFunction.exact(g.full_subgroup(), [Phase(k, 4) for k in nums])
    twisted = ProjectiveErrorModel(model.rep.twist(f), label=model.label)
    code = found[data.draw(st.integers(0, len(found) - 1))]
    before, after = classify(model, code), classify(twisted, code)
    assert after.logical.members == before.logical.members
    assert after.stabilizer.members == before.stabilizer.members
    assert after.detectable == before.detectable
    assert after.flags == before.flags
    assert after.witnesses == before.witnesses
    assert after.central_type_criterion == before.central_type_criterion
    stab = before.stabilizer
    f_stab = PhaseFunction.exact(stab, [f.phases[x] for x in stab.members])
    assert after.stabilizer_phase.to_json() == before.stabilizer_phase.multiply(f_stab).to_json()


@functools.cache
def _enumerated_witnesses(spec):
    model = parse_model_spec(spec).model
    return model, enumerate_weak_stabilizer_codes(model)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_code_dimension_is_invariant_under_twisting(data):
    # pi'(x) = phi(x) pi(x) with phi exact and phi(e) = 1 has the cocycle
    # sigma dphi, and pi(h)v = f(h)v exactly when pi'(h)v = f(h)phi(h)v: the
    # (H, f) code of M is the (H, f phi|H) code of M', of the same dimension
    model, found = _enumerated_witnesses(data.draw(st.sampled_from(TWIST_SPECS)))
    g = model.group
    den = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    nums = data.draw(st.lists(st.integers(0, den - 1), min_size=g.order, max_size=g.order))
    nums[g.identity] = 0
    phi = PhaseFunction.exact(g.full_subgroup(), [Phase(k, den) for k in nums])
    twisted = ProjectiveErrorModel(model.rep.twist(phi), label=model.label)
    for sub, f, code in found:
        f_twisted = f.multiply(PhaseFunction.exact(sub, [phi.phases[x] for x in sub.members]))
        dim = code_dimension_formula(twisted, sub, f_twisted)
        assert dim == code_dimension_formula(model, sub, f) == code.dim
        again = weak_stabilizer_code(twisted, sub, f_twisted)
        assert np.abs(again.projector() - code.projector()).max() < 1e-12
    assert len(enumerate_weak_stabilizer_codes(twisted)) == len(found)


@pytest.mark.parametrize("spec", CATALOG_64)
def test_enumerated_codes_match_the_one_row_build_and_the_nullspace_oracle(spec):
    # the codes of one subgroup order are built in blocks (codes._eigenspaces): a
    # code's bytes are those weak_stabilizer_code builds alone, and its
    # projector is the generator-stack nullspace's
    model, found = _enumerated_witnesses(spec)
    for sub, f, code in found:
        assert weak_stabilizer_code(model, sub, f).basis.tobytes() == code.basis.tobytes()
        oracle = weak_code_nullspace_oracle(model, sub, f)
        assert np.abs(code.projector() - oracle @ oracle.conj().T).max() < 1e-12


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["genpauli:4", "xp:6", "c2d2n:2", "oddfam:3", "permprod(genpauli:2,2)"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["constituent", "turned", "one", "random"]),
)
def test_weak_code_agrees_with_the_nullspace_oracle_on_drawn_pairs(spec, seed, kind):
    # admissible f give the oracle's code; a constituent turned at one
    # element, the constant 1 and random phases (wrong coboundaries among
    # them) give None on both sides or the same code
    model, _ = _enumerated_witnesses(spec)
    rng = np.random.default_rng(seed)
    subs = model.group.all_subgroups()
    sub = subs[int(rng.integers(len(subs)))]
    phases = list(_constituent_phases(model, sub))
    if kind in ("constituent", "turned") and phases:
        f = phases[int(rng.integers(len(phases)))]
        if kind == "turned":
            turned = list(f.phases)
            x = int(rng.integers(len(sub)))
            turned[x] = turned[x] * Phase(1, 3)
            f = PhaseFunction.exact(sub, turned)
    elif kind == "random":
        f = PhaseFunction.exact(sub, [Phase(int(k), 4) for k in rng.integers(0, 4, len(sub))])
    else:
        f = PhaseFunction.constant_one(sub)
    got, want = weak_stabilizer_code(model, sub, f), weak_code_nullspace_oracle(model, sub, f)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.abs(got.projector() - want @ want.conj().T).max() < 1e-12


@pytest.mark.parametrize("spec", ["oddfam:3", "permprod(genpauli:2,2)", "genpauli:4"])
def test_eigenspaces_refuse_a_forged_row(spec):
    # on every subgroup with two constituents or more, each row's rank is
    # held to its dimension by _eigenspaces, and a caller's f with delta(f)
    # != sigma|H by weak_stabilizer_code: each constituent with one entry
    # turned by 1e-9 of a turn still passes the eigenvector check, so only
    # the integer delta test refuses it
    model, _ = _enumerated_witnesses(spec)
    e = model.group.identity
    tried = 0
    for sub in model.group.all_subgroups():
        _, nums, den, dims = _constituents(model, [sub])
        if len(dims) < 2:
            continue
        tried += 1
        values, rows = _phase_values(nums, den), np.array([sub.members] * len(dims))
        built = _eigenspaces(model, rows, values, dims)
        assert [code.dim for code in built] == dims.tolist()
        for j, f in enumerate(_constituent_phases(model, sub)):
            off = dims.copy()
            off[j] += 1
            with pytest.raises(RuntimeError, match="rank"):
                _eigenspaces(model, rows, values, off)
            turned = list(f.phases)
            turned[sub.position(e)] = turned[sub.position(e)] * Phase(1, 10**9)
            with pytest.raises(RuntimeError, match="delta"):
                weak_stabilizer_code(model, sub, PhaseFunction.exact(sub, turned))
    assert tried


def test_weak_stabilizer_code_tests_delta_on_tables_cut_from_the_group(monkeypatch):
    # the caller's f is tested on H's product table and sigma|H cut from
    # G's, with no restricted cocycle or subgroup group built; a forged
    # nonzero code with delta(f) != sigma|H raises one RuntimeError on the
    # exact path and on the float path, and an admissible f passes both
    model = parse_model_spec("c2d2n:3").model
    subs = [h for h in model.group.all_subgroups() if h.is_abelian() and len(h) > 1]
    built = []
    monkeypatch.setattr(cocycles.Cocycle, "restrict", lambda *args: built.append(args))
    monkeypatch.setattr(type(subs[0]), "as_group", lambda *args: built.append(args))
    tried = 0
    for sub in subs:
        f = existence_phase(model, sub)
        if f is None:
            continue
        tried += 1
        turned = list(f.phases)
        turned[-1] = turned[-1] * Phase(1, 3)
        bad = PhaseFunction.exact(sub, turned)
        floats = [PhaseFunction._runs([sub], g.num, g.den, np.zeros(len(sub), dtype=bool), g.values)[0]
                  for g in (f, bad)]
        code = weak_stabilizer_code(model, sub, f)
        assert code is not None and not floats[0].is_exact
        assert weak_stabilizer_code(model, sub, floats[0]).basis.tobytes() == code.basis.tobytes()
        with monkeypatch.context() as m:
            m.setattr(codes, "_eigenspaces", lambda *args: [code])
            for forged in (bad, floats[1]):
                with pytest.raises(RuntimeError, match="nonzero code with delta"):
                    weak_stabilizer_code(model, sub, forged)
    assert tried and built == []


def test_classify_closes_the_logical_group_of_codes_tilted_at_the_threshold():
    # tilted by 1e-8, about _tol.SCAN, the commutator norms of L sit at the
    # threshold and the elements below it need not form a group: 14 of these
    # 200 draws raised GroupValidationError before L was closed, and 14 close
    # L (a count that rests on the last bits of the products, so only its
    # sign is asserted)
    model = parse_model_spec("xp:15").model
    found = [c for _, _, c in enumerate_weak_stabilizer_codes(model) if c.dim < model.dim]
    rng = np.random.default_rng(0)
    closed = 0
    for _ in range(200):
        b = found[int(rng.integers(len(found)))].basis
        r = rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape)
        r -= b @ (b.conj().T @ r)
        tilted = CodeSpace.from_vectors(model.dim, (b + 1e-8 * r / np.linalg.norm(r)).T)
        report = classify(model, tilted)
        below = np.flatnonzero(_code_action(model, tilted).commutator < _tol.SCAN).tolist()
        assert set(below) <= set(report.logical.members)
        assert set(report.stabilizer.members) <= set(report.logical.members)
        closed += tuple(below) != report.logical.members
    assert closed > 0


def test_logical_closure_refuses_a_product_over_the_bound():
    model = parse_model_spec("xp:15").model
    g = model.group
    x = next(x for x in range(g.order) if g.element_order(x) == 3)
    x2 = int(g.mul[x, x])
    comm = np.zeros(g.order)
    assert codes._close_logical(model, comm, (g.identity, x)) == tuple(sorted({g.identity, x, x2}))
    comm[x2] = 1.0   # x x pulled in, with a norm no unitary action gives
    with pytest.raises(CodeError, match="product bound"):
        codes._close_logical(model, comm, (g.identity, x))


def test_classify_reads_tilted_codes_without_raising():
    # S is read inside L, so a code tilted just off a Clifford code keeps
    # S <= L: every draw of the tilted-code property at eps 1e-7 and 1e-5,
    # where reading S by the scalar tests alone left S outside L
    cases = _clifford_code_cases()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        model, code = cases[int(rng.integers(len(cases)))]
        eps = (1e-7, 1e-5)[int(rng.integers(2))]
        b = code.basis
        r = rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape)
        r -= b @ (b.conj().T @ r)
        tilted = CodeSpace.from_vectors(model.dim, (b + eps * r / np.linalg.norm(r)).T)
        report = classify(model, tilted)
        assert set(report.stabilizer.members) <= set(report.logical.members)


@pytest.mark.parametrize("spec", ["prod(genpauli:2,genpauli:4)", "c2d2n:3", "oddfam:3",
                                  "xp:12", "permprod(genpauli:2,2)"])
@pytest.mark.parametrize("eps", [1e-9, 5e-9, 1e-8, 1e-7])
def test_partitioning_codes_tilted_near_the_threshold_keep_the_closed_form(spec, eps):
    # the mixed set and L read the one commutator norm, so every element is
    # in L, mixed, or detectable outside L (codes._report): 200 seeded draws
    # tilted by eps along a random complement direction never raise.  Reading
    # the mixed set from the one-sided norm raised the closed-form
    # RuntimeError at 5e-9 on 15 prod(genpauli:2,genpauli:4) draws, 8 c2d2n:3
    # draws and 1 oddfam:3 draw of these
    model, found = _enumerated(spec)
    found = [code for code in found if code.dim < model.dim]
    rng = np.random.default_rng(0)
    for _ in range(200):
        b = found[int(rng.integers(len(found)))].basis
        r = rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape)
        r -= b @ (b.conj().T @ r)
        tilted = CodeSpace.from_vectors(model.dim, (b + eps * r / np.linalg.norm(r)).T)
        report = classify(model, tilted)
        if report.flags["is_partitioning"]:
            detectable = np.zeros(model.group.order, dtype=bool)
            detectable[report.detectable] = True
            assert np.array_equal(detectable, ~report.logical._inside | report.stabilizer._inside)
            comm = _code_action(model, tilted).commutator
            assert (comm[list(report.logical.members)] < _tol.SCAN).all()


# Draws per model and tilt of the sweep below: 35 models at 4 tilts
TILT_DRAWS = 30


@pytest.mark.parametrize("eps", [1e-9, 5e-9, 1e-8, 1e-7])
def test_tilted_codes_of_every_catalog_model_never_raise_runtime_error(eps):
    # the sweep over every catalog model (but pauli:3, for time) of the
    # five-model test above: no tilt near the threshold reaches classify's
    # closed-form RuntimeError, or any other, and each stabilizer phase,
    # read from scalars up to eps off the grid, is admissible
    for k, spec in enumerate(TWIST_SPECS):
        model, found = _enumerated(spec)
        found = [code for code in found if code.dim < model.dim]
        rng = np.random.default_rng([k, int(eps * 1e9)])
        for _ in range(min(TILT_DRAWS, len(found))):
            b = found[int(rng.integers(len(found)))].basis
            r = rng.normal(size=b.shape) + 1j * rng.normal(size=b.shape)
            r -= b @ (b.conj().T @ r)
            tilted = CodeSpace.from_vectors(model.dim, (b + eps * r / np.linalg.norm(r)).T)
            assert _stabilizer_phase_is_admissible(model, classify(model, tilted))


def _stabilizer_phase_is_admissible(model, report):
    # delta(f) = sigma|S as integer numerators when f is exact, and to
    # _tol.DERIVED on the floats otherwise
    stab, f = report.stabilizer, report.stabilizer_phase
    res, mul = model.cocycle.restrict(stab), stab.as_group().mul
    if f.is_exact:
        return bool(cocycles._coboundary_rows(f.num[None], f.den, mul, res.num, res.den)[0])
    v = f.values
    return np.abs(v[:, None] * v - res.to_complex_table() * v[mul]).max() <= _tol.DERIVED


@pytest.mark.parametrize("spec", TWIST_SPECS)
def test_classify_stabilizer_phases_of_enumerated_codes_are_admissible(spec):
    # classify tests no delta(f) = sigma|S: _stabilizers' docstring proves
    # it, and every enumerated code's phase is exact and passes in integers
    model, found = _enumerated(spec)
    for code in found:
        report = classify(model, code)
        assert report.stabilizer_phase.is_exact
        assert _stabilizer_phase_is_admissible(model, report)


@pytest.mark.parametrize("spec", ["c2d2n:3", "oddfam:3", "permprod(genpauli:2,2)"])
def test_the_core_is_read_once_per_subgroup(spec):
    # the core of S, the members whose every conjugate is a member, is read
    # once and kept on the interned subgroup; is_normal reads it too
    g = parse_model_spec(spec).model.group
    for sub in g.all_subgroups():
        core = sub._core_mask()
        want = [all(g.conjugate(x, h) in sub for x in range(g.order)) for h in sub.members]
        assert core.tolist() == want and sub._core_mask() is core
        assert sub.is_normal() == all(want)


# Models of order at most 16 and dimension at most 4, so every product
# model has order at most 256 and dimension at most 16.
PRODUCT_FACTORS = ["genpauli:2", "genpauli:3", "pauli:1", "xp:3", "xp:5", "c2d2n:2", "genpauli:4"]


def _product_factor(spec):
    model, found = _enumerated(spec)
    return model, [code for code in found if code.dim < model.dim] or found


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_product_code_groups_are_the_products_of_the_factor_groups(data):
    # L(W1 x W2) = L(W1) x L(W2) and S(W1 x W2) = S(W1) x S(W2) on the
    # direct product, element (x, y) at x |G2| + y; product_code raises when
    # its own check disagrees, and classify reads both groups afresh here
    m1, found1 = _product_factor(data.draw(st.sampled_from(PRODUCT_FACTORS)))
    m2, found2 = _product_factor(data.draw(st.sampled_from(PRODUCT_FACTORS)))
    w1 = found1[data.draw(st.integers(0, len(found1) - 1))]
    w2 = found2[data.draw(st.integers(0, len(found2) - 1))]
    model, code = product_code(m1, w1, m2, w2)
    assert code.dim == w1.dim * w2.dim
    r1, r2, report = classify(m1, w1), classify(m2, w2), classify(model, code)
    n2 = m2.group.order

    def product(a, b):
        return sorted(x * n2 + y for x in a.members for y in b.members)

    assert list(report.logical.members) == product(r1.logical, r2.logical)
    assert list(report.stabilizer.members) == product(r1.stabilizer, r2.stabilizer)


@pytest.mark.parametrize("spec", TWIST_SPECS)
def test_invariance_norm_is_bounded_by_the_commutator_norm(spec):
    # why _clifford_flags needs no invariance test of its own: on L the
    # commutator is below _tol.SCAN, and inside never exceeds it
    model, found = _enumerated(spec)
    for code in found:
        act = _code_action(model, code)
        assert (act.inside <= act.commutator).all()


def test_classify_builds_no_fraction_and_snaps_no_phase(monkeypatch):
    # stabilizer phases are read from the grid den * exp(G), and delta(f)
    # is compared as integers, on every enumerated code but pauli:3's
    from qeclab import cocycles

    enumerated = [_enumerated(spec) for spec in TWIST_SPECS]
    calls = {"Fraction": 0, "snap_phase": 0}
    raw_fraction, raw_snap = cocycles.Fraction, cocycles.snap_phase

    def fraction(*args):
        calls["Fraction"] += 1
        return raw_fraction(*args)

    def snap(*args):
        calls["snap_phase"] += 1
        return raw_snap(*args)

    monkeypatch.setattr(cocycles, "Fraction", fraction)
    monkeypatch.setattr(cocycles, "snap_phase", snap)
    monkeypatch.setattr(projreps, "snap_phase", snap)
    reports = [classify(model, code) for model, found in enumerated for code in found]
    assert len(reports) == 4852 - 2467
    assert all(r.stabilizer_phase.is_exact for r in reports)
    assert calls == {"Fraction": 0, "snap_phase": 0}
