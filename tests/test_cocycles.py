import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from helpers import brute_force_trivializer, restricted_cocycle_table, trivializer_all_pairs

from qeclab.cocycles import (
    Cocycle,
    Phase,
    PhaseFunction,
    coboundary,
    find_trivializing_phase,
)
from qeclab.cli import parse_model_spec
from qeclab.groups import cyclic, dihedral, direct_product
from qeclab.models import dihedral_xp_model, gen_pauli_model, product_model
from qeclab.projreps import tensor


def test_phase_normalization():
    assert Phase(3, 6) == Phase(1, 2)
    assert Phase(-1, 4) == Phase(3, 4)
    assert Phase(7, 7) == Phase(0, 1)
    assert abs(Phase(1, 3).to_complex() - np.exp(2j * np.pi / 3)) < 1e-15


def test_phase_arithmetic():
    a, b = Phase(1, 3), Phase(1, 2)
    assert a * b == Phase(5, 6)
    assert a.inverse() == Phase(2, 3)
    assert a * a.inverse() == Phase(0, 1)
    assert a ** 2 == Phase(2, 3)
    assert b ** 2 == Phase(0, 1)


def test_cocycle_identity_and_condition():
    model = gen_pauli_model(3)
    sigma = model.rep.cocycle
    g = model.group
    t = sigma.to_complex_table()
    e = g.identity
    for x in range(g.order):
        assert abs(t[x, e] - 1) < 1e-12
        assert abs(t[e, x] - 1) < 1e-12
    for x in range(g.order):
        for y in range(g.order):
            for z in range(g.order):
                lhs = t[x, y] * t[g.mul[x, y], z]
                rhs = t[x, g.mul[y, z]] * t[y, z]
                assert abs(lhs - rhs) < 1e-10


def test_cocycle_json_round_trip():
    model = dihedral_xp_model(4)
    sigma = model.rep.cocycle
    back = Cocycle.from_json(model.group, sigma.to_json())
    assert back == sigma


def test_phase_function_constant_one():
    g = cyclic(4)
    f = PhaseFunction.constant_one(g.full_subgroup())
    assert f.is_exact
    assert np.allclose(f.values, 1.0)


def test_phase_function_round_trip():
    g = cyclic(6)
    sub = g.full_subgroup()
    f = PhaseFunction.exact(sub, [Phase(k, 6) for k in range(6)])
    back = PhaseFunction.from_json(sub, f.to_json())
    assert back.is_exact
    assert np.allclose(back.values, f.values)


def test_phase_function_from_complex_snaps():
    g = cyclic(4)
    sub = g.full_subgroup()
    vals = np.exp(2j * np.pi * np.array([0, 1, 2, 3]) / 4)
    f = PhaseFunction.from_complex(sub, vals * (1 + 1e-12), max_den=4)
    assert f.is_exact
    assert f.phases[1] == Phase(1, 4)


def test_phase_function_multiply_conjugate():
    g = cyclic(3)
    sub = g.full_subgroup()
    f = PhaseFunction.exact(sub, [Phase(0, 1), Phase(1, 3), Phase(2, 3)])
    prod = f.multiply(f.conjugate())
    assert np.allclose(prod.values, 1.0)


def test_coboundary_is_cocycle_and_trivializable():
    g = dihedral(3)
    sub = g.full_subgroup()
    f = PhaseFunction.exact(
        sub, [Phase(k % 3, 3) for k in range(6)]
    )
    sigma = coboundary(f)
    # a coboundary must admit a trivializing phase, and the found phase must
    # reproduce the cocycle exactly
    h = find_trivializing_phase(sigma)
    assert h is not None
    assert coboundary(h) == sigma


def test_pauli_cocycle_not_coboundary():
    # the qubit Pauli cocycle is a nontrivial class: XZ = -ZX cannot be
    # repaired by any rescaling of the four operators
    model = gen_pauli_model(2)
    assert find_trivializing_phase(model.rep.cocycle) is None


def test_trivializer_matches_brute_force_on_small_subgroups():
    for model in (gen_pauli_model(2), dihedral_xp_model(3), dihedral_xp_model(4)):
        g = model.group
        sigma_c = model.rep.cocycle.to_complex_table()
        for sub in g.all_subgroups():
            if len(sub) > 6:
                continue
            h = sub.as_group()
            table = restricted_cocycle_table(sigma_c, sub)
            den = 2 * model.rep.cocycle.den * h.exponent()
            if den ** (h.order - 1) > 300000:
                continue
            brute = brute_force_trivializer(h, table, den)
            found = find_trivializing_phase(
                model.rep.cocycle.restrict(sub), domain=sub
            )
            assert (brute is None) == (found is None), (model.label, sub.members)
            if found is not None:
                vals = found.values
                for i in range(h.order):
                    for j in range(h.order):
                        lhs = vals[i] * vals[j]
                        rhs = table[i, j] * vals[h.mul[i, j]]
                        assert abs(lhs - rhs) < 1e-9


def test_trivializer_exactness_certificate():
    # whenever a trivializer is returned it must be exact and reproduce the
    # cocycle with integer phase arithmetic, not just numerically
    model = dihedral_xp_model(5)
    sub = model.group.subgroup_generated([1])
    res = model.rep.cocycle.restrict(sub)
    f = find_trivializing_phase(res, domain=sub)
    assert f is not None
    assert f.is_exact
    assert coboundary(f) == res


def test_trivializer_on_product_group_cocycle():
    # direct product of two trivial classes stays trivial
    g = direct_product(cyclic(2), cyclic(2))
    f = PhaseFunction.exact(
        g.full_subgroup(), [Phase(0, 1), Phase(1, 4), Phase(1, 2), Phase(3, 4)]
    )
    sigma = coboundary(f)
    h = find_trivializing_phase(sigma)
    assert h is not None
    assert coboundary(h) == sigma


def test_trivializer_needs_the_group_exponent():
    # f(x) = exp(2 pi i x / 8) on Z4 has a coboundary with denominator 2, but
    # every trivializer takes values in C_8: multiples k <= 2 of the
    # denominator give only C_4, so only k = exp(Z4) = 4 finds one
    sub = cyclic(4).full_subgroup()
    sigma = coboundary(PhaseFunction.exact(sub, [Phase(x, 8) for x in range(4)]))
    assert sigma.den == 2
    h = find_trivializing_phase(sigma)
    assert h is not None
    assert coboundary(h) == sigma


def test_trivializer_hits_on_order_64_product():
    model = product_model(gen_pauli_model(2), gen_pauli_model(4))
    subs = model.group.all_subgroups()
    hits = [
        find_trivializing_phase(model.rep.cocycle.restrict(sub), domain=sub) is not None
        for sub in subs
    ]
    assert (sum(hits), len(subs)) == (98, 249)


@pytest.mark.parametrize(
    "spec", ["genpauli:4", "xp:8", "c2d2n:3", "oddfam:3", "prod(genpauli:2,genpauli:4)"]
)
def test_trivializer_on_cayley_edges_matches_all_pairs(spec):
    # the n*r edge rows give the same f0, phase for phase, as all n^2 pairs
    model = parse_model_spec(spec).model
    for sub in model.group.all_subgroups():
        sigma = model.cocycle.restrict(sub)
        got = find_trivializing_phase(sigma, domain=sub)
        want = trivializer_all_pairs(sigma, domain=sub)
        assert (got is None) == (want is None), sub.members
        if got is not None:
            assert got.phases == want.phases, sub.members


def test_trivializer_rejects_a_non_cocycle():
    # a table that breaks the cocycle identity only off the Cayley edges of
    # the generator (x, g) still has no trivializer
    group = cyclic(4)
    gen = group.greedy_generators()[0]
    num = np.zeros((4, 4), dtype=np.int64)
    x, y = next((x, y) for x in range(4) for y in range(4) if y not in (gen, group.identity))
    num[x, y] = 1
    bent = Cocycle(group, num, 2)
    assert not bent.verify()
    assert trivializer_all_pairs(bent) is None
    assert find_trivializing_phase(bent) is None


def _cocycle_sources():
    pauli2, pauli3, xp4 = gen_pauli_model(2), gen_pauli_model(3), dihedral_xp_model(4)
    d3 = dihedral(3).full_subgroup()
    line = pauli3.group.subgroup_generated([1])
    return [
        Cocycle.trivial(cyclic(6)),
        pauli2.rep.cocycle,
        pauli3.rep.cocycle.conjugate(),
        xp4.rep.cocycle,
        Cocycle.from_json(xp4.group, xp4.rep.cocycle.to_json()),
        coboundary(PhaseFunction.exact(d3, [Phase(k % 3, 3) for k in range(6)])),
        pauli3.rep.cocycle.restrict(line),
        xp4.rep.cocycle.multiply(
            coboundary(PhaseFunction.exact(xp4.group.full_subgroup(), [Phase(k, 8) for k in range(8)]))
        ),
        tensor(pauli2.rep, pauli2.rep).cocycle,
        product_model(pauli2, gen_pauli_model(4)).rep.cocycle,
    ]


COCYCLE_SOURCES = _cocycle_sources()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_agrees_with_full_scan(data):
    sigma = data.draw(st.sampled_from(COCYCLE_SOURCES))
    n = sigma.group.order
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    scale = data.draw(st.sampled_from([1, 2, 3]))
    delta = data.draw(st.integers(0, scale * sigma.den - 1))
    num = sigma.num * scale
    if data.draw(st.booleans()):
        num[x, y] += delta
    else:
        # adding delta on the columns of <x> keeps the identity for z in <x>
        # and breaks it for every other z
        num[:, list(sigma.group.subgroup_generated([x]).members)] += delta
    bent = Cocycle(sigma.group, num, scale * sigma.den)
    assert bent.verify() == (bent.find_violation() is None)
