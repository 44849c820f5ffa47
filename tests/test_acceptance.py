"""Acceptance suite: ten numbered criteria, one test (and one printed
pass/fail line) per criterion, each with its stated tolerance and, where
given, a wall-clock budget."""

import math
import time

import numpy as np

from helpers import eigenspace_dim, irreducible_constituents, linear_characters, random_subgroup

from qeclab.channels import build_recovery, channel_from_model, kl_correctable, verify_recovery
from qeclab.cocycles import PhaseFunction, find_trivializing_phase
from qeclab.codes import (
    classify,
    clifford_code,
    code_dimension_formula,
    product_code,
    stabilizer_code,
    weak_stabilizer_code,
)
from qeclab.models import (
    d4_character_table,
    d4_expected_table,
    dihedral_xp_model,
    family_c2_x_d2n,
    family_odd,
    gen_pauli_model,
    perm_product_model,
    product_model,
)
from qeclab.projreps import frobenius_dims, mackey_character_defect


def _stamp(n, ok, detail):
    print(("PASS" if ok else "FAIL") + f" criterion {n}: {detail}")
    assert ok, detail


def _two_qubit_pauli():
    return product_model(gen_pauli_model(2), gen_pauli_model(2))


def test_criterion_01_d4_character_table():
    t0 = time.perf_counter()
    computed = d4_character_table()
    elapsed = time.perf_counter() - t0
    expected = d4_expected_table()
    assert set(computed) == set(expected)
    worst = 0.0
    for name, want_row in expected.items():
        got_row = computed[name]
        for got, want in zip(got_row, want_row):
            want = complex(want)
            if want.imag == 0 and want.real == int(want.real):
                assert got == want, (name, got, want)  # integer entries exact
            else:
                assert abs(got - want) < 1e-9, (name, got, want)
            worst = max(worst, abs(got - want))
    assert elapsed < 1.0
    _stamp(1, True, f"all 7 rows match, worst deviation {worst:.1e}, {elapsed:.2f}s")


def test_criterion_02_small_even_family():
    for n in (2, 3, 4):
        t0 = time.perf_counter()
        model, sub, rho = family_c2_x_d2n(n)
        code = clifford_code(model, sub, rho)
        report = classify(model, code)
        elapsed = time.perf_counter() - t0
        assert code.dim == 2
        assert report.flags["is_clifford"]
        assert not report.flags["is_weak_stabilizer"]
        assert not report.flags["is_stabilizer"]
        assert set(report.logical.members) == set(sub.members)
        assert len(report.logical) == 4 * n
        assert set(report.stabilizer.members) == {0}
        everything = set(range(model.group.order))
        outside = everything - set(report.logical.members)
        assert set(report.detectable) == outside | {0}
        assert len(report.detectable) == 4 * n + 1
        assert elapsed < 5.0, (n, elapsed)
    _stamp(2, True, "n = 2, 3, 4: dim-2 Clifford, not weak, D = (G\\L)+{1}")


def test_criterion_03_odd_family():
    for n in (3, 5):
        t0 = time.perf_counter()
        model, sub, rho = family_odd(n)
        code = clifford_code(model, sub, rho)
        report = classify(model, code)
        elapsed = time.perf_counter() - t0
        assert code.dim == n
        assert model.dim == 2 * n
        assert report.flags["is_clifford"]
        order_product = len(report.logical) * len(report.stabilizer)
        assert order_product == 2 * n * n
        assert order_product < model.group.order == 4 * n * n
        assert not report.flags["is_weak_stabilizer"]
        crit = report.central_type_criterion
        assert crit is not None
        assert crit["is_weak_stabilizer"] == report.flags["is_weak_stabilizer"]
        assert elapsed < 30.0, (n, elapsed)
    _stamp(3, True, "n = 3, 5: dim n in 2n, |L||S| = 2n^2 < |G|, criterion agrees")


def test_criterion_04_symmetric_subspace_family():
    reports = {}
    for n in (2, 3):
        t0 = time.perf_counter()
        model = perm_product_model(gen_pauli_model(2), n)
        sub = model.group.subgroup(range(math.factorial(n)))
        code = weak_stabilizer_code(model, sub, PhaseFunction.constant_one(sub))
        report = classify(model, code)
        elapsed = time.perf_counter() - t0
        assert code.dim == n + 1
        assert report.flags["is_weak_stabilizer"]
        assert set(sub.members) <= set(report.stabilizer.members)
        assert not report.flags["is_clifford"]
        bound = code.dim * model.group.order / model.dim
        assert len(report.logical) < bound
        if n == 2:
            assert len(report.logical) <= 16 < 24 == bound
        assert elapsed < 10.0, (n, elapsed)
        reports[n] = (model, report)
    # the n = 2 dichotomy fails with an explicit, verifiable witness
    model, report = reports[2]
    assert not report.flags["is_partitioning"]
    x = int(report.witnesses["is_partitioning"])
    in_d = x in set(report.detectable)
    in_split = x not in set(report.logical.members) or x in set(
        report.stabilizer.members
    )
    assert in_d != in_split
    # independent spot check: X on the first qubit (index 16) maps |00> to
    # |10>, is not logical, and is not detectable either
    x1 = model.rep.matrix(16)
    e00 = np.zeros(4)
    e00[0] = 1.0
    got = x1 @ e00
    want = np.zeros(4)
    want[2] = 1.0
    assert np.allclose(got, want)
    assert 16 not in set(report.logical.members)
    assert 16 not in set(report.detectable)
    _stamp(4, True, "n = 2, 3: Dicke dim n+1, weak, not Clifford, dichotomy fails")


def test_criterion_05_product_code():
    t0 = time.perf_counter()
    m1, sub1, rho1 = family_c2_x_d2n(2)
    w1 = clifford_code(m1, sub1, rho1)
    model, code = product_code(m1, w1, m1, w1)
    report = classify(model, code)
    elapsed = time.perf_counter() - t0
    n2 = m1.group.order
    l1 = set(classify(m1, w1).logical.members)
    want_l = {x * n2 + y for x in l1 for y in l1}
    assert set(report.logical.members) == want_l
    assert len(report.logical) == 64
    assert set(report.stabilizer.members) == {0}
    assert report.flags["is_clifford"]
    assert not report.flags["is_stabilizer"]
    assert not report.flags["is_weak_stabilizer"]
    assert elapsed < 60.0, elapsed
    _stamp(5, True, f"L = L1 x L2 (64 elements), S = {{1}}, Clifford, {elapsed:.1f}s")


CATALOG_6 = [
    ("genpauli:2", lambda: gen_pauli_model(2)),
    ("genpauli:3", lambda: gen_pauli_model(3)),
    ("xp:3", lambda: dihedral_xp_model(3)),
    ("xp:4", lambda: dihedral_xp_model(4)),
    ("permprod(pauli,2)", lambda: perm_product_model(gen_pauli_model(2), 2)),
]


def _admissible_phases(model, sub):
    """Every phase function with the right coboundary on an abelian subgroup,
    or the empty list when none exists."""
    res = model.cocycle.restrict(sub)
    f0 = find_trivializing_phase(res, domain=sub)
    if f0 is None:
        return []
    h = sub.as_group()
    out = []
    for chi in linear_characters(h):
        out.append(
            f0.multiply(PhaseFunction.from_complex(sub, chi, max_den=2 * h.order))
        )
    return out


def test_criterion_06_dimension_formula_oracle():
    checked = 0
    for label, build in CATALOG_6:
        model = build()
        for sub in model.group.all_subgroups():
            if not sub.is_abelian():
                continue
            for f in _admissible_phases(model, sub):
                want = eigenspace_dim(model.rep.matrices, sub.members, f.values)
                got = code_dimension_formula(model, sub, f)
                assert got == want, (label, sub.members)
                checked += 1
    assert checked > 100
    _stamp(6, True, f"{checked} subgroup/phase pairs, zero mismatches")


def test_criterion_07_nonzero_stabilizer_characterization():
    for label, build in CATALOG_6:
        model = build()
        for sub in model.group.all_subgroups():
            if not sub.is_normal():
                continue
            res = model.cocycle.restrict(sub)
            f0 = find_trivializing_phase(res, domain=sub)
            rhs = sub.is_abelian() and f0 is not None
            if f0 is None:
                lhs = False
            else:
                h = sub.as_group()
                lhs = False
                for chi in linear_characters(h):
                    f = f0.multiply(
                        PhaseFunction.from_complex(sub, chi, max_den=2 * h.order)
                    )
                    if eigenspace_dim(model.rep.matrices, sub.members, f.values) > 0:
                        lhs = True
                        break
            assert lhs == rhs, (label, sub.members)
    _stamp(7, True, "nonzero code iff abelian with trivializable cocycle, all normal subgroups")


def test_criterion_08_knill_laflamme_end_to_end():
    t0 = time.perf_counter()
    model = _two_qubit_pauli()
    sub = model.group.subgroup_generated([10, 5])
    code = stabilizer_code(model, sub, PhaseFunction.constant_one(sub))
    report = classify(model, code)
    # every element is detectable for this code, so a channel supported on
    # the detectable set may have full support
    assert set(report.detectable) == set(range(16))
    uniform = np.full(16, 1.0 / 16)
    channel = channel_from_model(model, uniform)
    assert bool(kl_correctable(code, channel))
    recovery = build_recovery(code, channel)
    deviation = verify_recovery(code, channel, recovery)
    elapsed = time.perf_counter() - t0
    assert deviation < 1e-7
    assert elapsed < 5.0
    _stamp(8, True, f"recovery deviation {deviation:.1e} in {elapsed:.1f}s")


def test_criterion_09_frobenius_and_mackey_samples():
    pool = [
        gen_pauli_model(2),
        gen_pauli_model(3),
        dihedral_xp_model(4),
        dihedral_xp_model(6),
        family_c2_x_d2n(2)[0],
        family_odd(3)[0],
        _two_qubit_pauli(),
        perm_product_model(gen_pauli_model(2), 2),
    ]
    assert all(m.group.order <= 36 for m in pool)
    rng = np.random.default_rng(23)
    frobenius_checked = 0
    while frobenius_checked < 10:
        model = pool[frobenius_checked % len(pool)]
        sub = random_subgroup(model.group, rng)
        pieces = irreducible_constituents(model.rep.restrict(sub))
        theta = pieces[int(rng.integers(0, len(pieces)))]
        lhs, rhs = frobenius_dims(theta, sub, model.rep)
        assert abs(lhs - rhs) < 1e-7, (model.label, sub.members)
        frobenius_checked += 1
    mackey_checked = 0
    for model in (gen_pauli_model(3), _two_qubit_pauli()):
        for sub in model.group.all_subgroups():
            if not (sub.is_normal() and sub.is_abelian()):
                continue
            for f in _admissible_phases(model, sub):
                if eigenspace_dim(model.rep.matrices, sub.members, f.values) == 0:
                    continue
                assert mackey_character_defect(f, model.rep) < 1e-7
                mackey_checked += 1
                break
    assert mackey_checked >= 3
    _stamp(
        9,
        True,
        f"{frobenius_checked} Frobenius and {mackey_checked} Mackey instances within 1e-7",
    )


def test_criterion_10_central_type_character_vanishing():
    for n in range(2, 6):
        model = gen_pauli_model(n)
        assert model.is_central_type()
        chi = model.rep.character().values
        assert abs(chi[0] - n) < 1e-9
        assert np.max(np.abs(chi[1:])) < 1e-9, n
    _stamp(10, True, "clock-shift characters vanish off identity for n = 2..5")
