import itertools

import numpy as np
import pytest

from helpers import (
    d4_rep_matrices_loop,
    dihedral_xp_matrices_loop,
    em_from_pem_loop,
    family_c2_x_d2n_loop,
    family_odd_loop,
    gen_pauli_matrices_loop,
    perm_product_matrices_loop,
    tensor_permutation_matrix_loop,
)

from qeclab import models

from qeclab.cli import parse_model_spec
from qeclab.cocycles import Cocycle, Phase, PhaseFunction, coboundary
from qeclab.groups import dihedral
from qeclab.models import (
    ErrorModel,
    ModelError,
    ProjectiveErrorModel,
    _tensor_permutation_matrix,
    d4_character_table,
    dihedral_xp_model,
    em_from_pem,
    family_c2_x_d2n,
    family_odd,
    gen_pauli_model,
    pem_from_em,
    perm_product_model,
    product_model,
    zeta,
)
from qeclab.projreps import make_rep


def _unitary_defect(mats):
    d = mats.shape[1]
    return max(
        float(np.max(np.abs(m.conj().T @ m - np.eye(d)))) for m in mats
    )


def test_gen_pauli_model_matrices():
    model = gen_pauli_model(3)
    g = model.group
    assert g.order == 9
    assert model.dim == 3
    assert model.is_central_type()
    # index a*n+b encodes X^a Z^b
    X = model.rep.matrix(3)
    Z = model.rep.matrix(1)
    w = zeta(3)
    assert np.allclose(X @ Z, w * Z @ X)
    assert _unitary_defect(model.rep.matrices) < 1e-12


def test_gen_pauli_qubit_is_standard():
    model = gen_pauli_model(2)
    X = model.rep.matrix(2)
    Z = model.rep.matrix(1)
    assert np.allclose(X, np.array([[0, 1], [1, 0]]))
    assert np.allclose(Z, np.diag([1, -1]))


def test_dihedral_xp_model():
    n = 4
    model = dihedral_xp_model(n)
    assert model.group.order == 2 * n
    assert model.dim == 2
    assert not model.is_central_type()
    X = model.rep.matrix(n)  # b
    P = model.rep.matrix(1)  # a
    assert np.allclose(X, np.array([[0, 1], [1, 0]]))
    assert np.allclose(P, np.diag([1.0, zeta(n)]))
    # projective faithfulness: all matrices distinct up to phase by validation
    assert _unitary_defect(model.rep.matrices) < 1e-12


def test_product_model_indexing():
    m1 = gen_pauli_model(2)
    m2 = dihedral_xp_model(3)
    model = product_model(m1, m2)
    assert model.group.order == m1.group.order * m2.group.order
    assert model.dim == m1.dim * m2.dim
    n2 = m2.group.order
    for x in (0, 1, 3):
        for y in (0, 2, 5):
            got = model.rep.matrix(x * n2 + y)
            want = np.kron(m1.rep.matrix(x), m2.rep.matrix(y))
            assert np.allclose(got, want)


def test_perm_product_model_swap_action():
    base = gen_pauli_model(2)
    model = perm_product_model(base, 2)
    g = model.group
    assert g.order == 4 * 4 * 2
    assert model.dim == 4
    # the nontrivial permutation (vector part trivial) must be the qubit swap
    swap = model.rep.matrix(1)
    want = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            want[j * 2 + i, i * 2 + j] = 1.0
    assert np.allclose(swap, want)
    # the pure tensor part: vector (X, I) at index (2*4+0)*2 = 16
    got = model.rep.matrix(16)
    X = base.rep.matrix(2)
    assert np.allclose(got, np.kron(X, np.eye(2)))


def test_perm_product_covariance():
    # tau . (x1, x2) . tau^{-1} permutes tensor slots: check on matrices
    base = gen_pauli_model(2)
    model = perm_product_model(base, 2)
    g = model.group
    swap_idx = 1
    xi = 16  # (X, I) with identity permutation
    conj = g.mul[swap_idx, g.mul[xi, g.inv[swap_idx]]]
    got = model.rep.matrix(conj)
    X = base.rep.matrix(2)
    want = np.kron(np.eye(2), X)  # (I, X)
    assert np.max(np.abs(np.abs(got) - np.abs(want))) < 1e-12


def test_tensor_permutation_matrix_matches_digit_loop():
    for n in range(1, 4):
        for dim in range(1, 5):
            for perm in itertools.permutations(range(n)):
                got = _tensor_permutation_matrix(perm, dim)
                want = tensor_permutation_matrix_loop(perm, dim)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (perm, dim)


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_generator_words_match_the_element_loops():
    for n in range(1, 9):
        _same_bytes(gen_pauli_model(n).rep.matrices, gen_pauli_matrices_loop(n))
    for n in range(2, 16):
        _same_bytes(dihedral_xp_model(n).rep.matrices, dihedral_xp_matrices_loop(n))
    for n in range(2, 9):
        model, _, rho = family_c2_x_d2n(n)
        want, want_rho = family_c2_x_d2n_loop(n)
        _same_bytes(model.rep.matrices, want)
        _same_bytes(rho.matrices, want_rho)


@pytest.mark.parametrize(
    "spec, n",
    [("genpauli:2", 1), ("genpauli:2", 2), ("genpauli:2", 3), ("genpauli:3", 2),
     ("genpauli:4", 2), ("xp:4", 2)],
)
def test_perm_product_kronecker_stack_matches_the_tuple_loop(spec, n):
    base = parse_model_spec(spec).model
    _same_bytes(perm_product_model(base, n).rep.matrices, perm_product_matrices_loop(base, n))


def test_d4_reps_match_the_element_loop(monkeypatch):
    built = []

    def spy(group, mats, *args, **kwargs):
        rep = make_rep(group, mats, *args, **kwargs)
        built.append(rep.matrices)
        return rep

    monkeypatch.setattr(models, "make_rep", spy)
    d4_character_table()
    want = d4_rep_matrices_loop()
    assert len(built) == 1 + len(want)   # the first is the XP model's rep
    for got, w in zip(built[1:], want):
        _same_bytes(got, w)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_family_odd_words_differ_from_the_loop_only_in_signed_zeros(n):
    # the words multiply by C^0 and swap^0, which the loop skips; that may
    # flip the sign of a zero entry and of nothing else
    model, _, rho = family_odd(n)
    for got, want in zip((model.rep.matrices, rho.matrices), family_odd_loop(n)):
        assert got.shape == want.shape and np.array_equal(got, want)
        g, w = got.view(np.float64).ravel(), want.view(np.float64).ravel()
        differ = g.view(np.uint64) != w.view(np.uint64)
        assert np.all(g[differ] == 0) and np.all(w[differ] == 0)


def test_family_c2_x_d2n_shape():
    n = 2
    model, sub, rho = family_c2_x_d2n(n)
    assert model.group.order == 8 * n
    assert model.dim == 4
    assert len(sub) == 4 * n
    assert rho.dim == 2
    assert model.is_central_type()
    # rho really is a rep of the subgroup with the restricted cocycle
    assert rho.cocycle == model.cocycle.restrict(sub)


def test_family_odd_shape():
    n = 3
    model, sub, rho = family_odd(n)
    assert model.group.order == 4 * n * n
    assert model.dim == 2 * n
    assert model.is_central_type()
    assert len(sub) == 2 * n * n
    assert rho.dim == n
    assert rho.cocycle == model.cocycle.restrict(sub)


def test_family_odd_rejects_even():
    with pytest.raises(ValueError):
        family_odd(4)


def test_error_model_requires_trivial_cocycle():
    g = dihedral(3)
    mats = np.zeros((6, 2, 2), dtype=complex)
    w = zeta(3)
    for k in range(2):
        for l in range(3):
            rot = np.diag([w ** l, w ** (-l)])
            flip = np.array([[0, 1], [1, 0]]) if k else np.eye(2)
            mats[k * 3 + l] = flip @ rot
    em = ErrorModel(make_rep(g, mats))
    assert em.rep.cocycle.den == 1
    with pytest.raises(ModelError):
        ErrorModel(gen_pauli_model(2).rep)


def test_pem_from_em_round_trip():
    # start from the order-8 central extension of the qubit Pauli model
    base = gen_pauli_model(2)
    f = PhaseFunction.constant_one(base.group.full_subgroup())
    em = em_from_pem(base, base.cocycle, f, n=2)
    assert em.group.order == 8
    pem = pem_from_em(em)
    assert pem.group.order == 4
    assert pem.dim == 2
    # the quotient model acts by the same operators up to phase
    for x in range(4):
        a = pem.rep.matrix(x)
        b = base.rep.matrix(x)
        overlap = abs(np.trace(a.conj().T @ b)) / 2
        assert abs(overlap - 1) < 1e-9


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("spec", ["genpauli:2", "genpauli:3", "xp:4"])
def test_em_from_pem_matches_the_block_loop(spec, scale):
    # sigma' = (df) * sigma for a non-constant exact f, extended by C_n with
    # n = den(sigma') and 2 den(sigma')
    base = parse_model_spec(spec).model
    g = base.group
    f = PhaseFunction.exact(g.full_subgroup(), [Phase(x % 3, 6) for x in range(g.order)])
    delta = coboundary(f)
    sigma_prime = Cocycle(g, delta.num, delta.den).multiply(base.cocycle)
    n = scale * sigma_prime.den
    got = em_from_pem(base, sigma_prime, f, n=n)
    want = em_from_pem_loop(base, sigma_prime, f, n)
    assert np.array_equal(got.group.mul, want.group.mul)
    assert got.group.element_names == want.group.element_names
    assert got.rep.matrices.tobytes() == want.rep.matrices.tobytes()


def test_em_from_pem_checks_cocycle():
    base = gen_pauli_model(2)
    f = PhaseFunction.constant_one(base.group.full_subgroup())
    wrong = base.cocycle.multiply(base.cocycle)  # the trivial class
    with pytest.raises(ModelError):
        em_from_pem(base, wrong, f, n=2)


def test_model_rejects_reducible():
    g = dihedral(3)
    mats = np.array([np.eye(2, dtype=complex) for _ in range(6)])
    with pytest.raises(Exception):
        ProjectiveErrorModel(make_rep(g, mats))
