import numpy as np
import pytest

from qeclab.channels import (
    ChannelError,
    KrausChannel,
    build_recovery,
    channel_from_model,
    kl_correctable,
    kl_detectable,
    verify_recovery,
)
from qeclab.cocycles import PhaseFunction
from qeclab.codes import CodeSpace, detectable_set, stabilizer_code
from qeclab.models import gen_pauli_model, product_model


def _two_qubit_pauli():
    return product_model(gen_pauli_model(2), gen_pauli_model(2))


def _bell(model):
    sub = model.group.subgroup_generated([10, 5])
    return stabilizer_code(model, sub, PhaseFunction.constant_one(sub))


def _random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_kraus_channel_validates_completeness():
    bad = np.array([np.eye(2) * 0.5])
    with pytest.raises(ChannelError):
        KrausChannel(2, bad)


def test_channel_preserves_trace_on_many_states():
    model = _two_qubit_pauli()
    p = np.full(model.group.order, 1.0 / model.group.order)
    channel = channel_from_model(model, p)
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = _random_density(rng, 4)
        out = channel.apply(rho)
        assert abs(np.trace(out) - 1) < 1e-10
        # complete positivity of the presentation: output stays hermitian
        assert np.max(np.abs(out - out.conj().T)) < 1e-10


def test_channel_from_model_validates_distribution():
    model = gen_pauli_model(2)
    with pytest.raises(ChannelError):
        channel_from_model(model, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ChannelError):
        channel_from_model(model, [-0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ChannelError):
        channel_from_model(model, [1.0, 0.0])


def test_channel_support_restriction():
    model = gen_pauli_model(2)
    channel = channel_from_model(model, [0.25, 0.75, 0.0, 0.0])
    assert channel.kraus.shape[0] == 2


def test_point_distribution_is_unitary_conjugation():
    model = gen_pauli_model(2)
    p = [0.0, 0.0, 1.0, 0.0]  # point mass at X
    channel = channel_from_model(model, p)
    rho = np.diag([1.0, 0.0])
    out = channel.apply(rho)
    assert np.allclose(out, np.diag([0.0, 1.0]))


def test_kl_detectable_scalars():
    model = gen_pauli_model(2)
    code = CodeSpace.from_vectors(2, [[1, 0]])
    # identity detects with scalar 1, X with scalar 0, Z with scalar 1
    assert abs(kl_detectable(code, model.rep.matrix(0)) - 1) < 1e-12
    assert abs(kl_detectable(code, model.rep.matrix(2)) - 0) < 1e-12
    assert abs(kl_detectable(code, model.rep.matrix(1)) - 1) < 1e-12


def test_kl_detectable_none_on_non_scalar():
    model = _two_qubit_pauli()
    code = CodeSpace.from_vectors(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    # Z on the first qubit acts as diag(1, -1) inside this code
    z1 = model.rep.matrix(1 * 4 + 0)
    assert kl_detectable(code, z1) is None


def test_kl_correctable_bell_single_qubit_errors():
    model = _two_qubit_pauli()
    code = _bell(model)
    # errors on the first qubit only: (x, identity) indices
    p = np.zeros(model.group.order)
    for x in range(4):
        p[x * 4] = 0.25
    channel = channel_from_model(model, p)
    result = kl_correctable(code, channel)
    assert bool(result)
    assert result.witness is None


def test_kl_correctable_witness_on_failure():
    model = gen_pauli_model(2)
    code = CodeSpace.from_vectors(2, [[1, 0], [0, 1]])
    channel = channel_from_model(model, np.full(4, 0.25))
    result = kl_correctable(code, channel)
    assert not bool(result)
    i, j = result.witness
    assert 0 <= i < 4 and 0 <= j < 4
    # the named pair really does violate the scalar condition
    bad = channel.kraus[i].conj().T @ channel.kraus[j]
    assert kl_detectable(code, bad) is None


def test_recovery_restores_bell_code():
    model = _two_qubit_pauli()
    code = _bell(model)
    p = np.zeros(model.group.order)
    for x in range(4):
        p[x * 4] = 0.25
    channel = channel_from_model(model, p)
    recovery = build_recovery(code, channel)
    deviation = verify_recovery(code, channel, recovery)
    assert deviation < 1e-10


def test_recovery_channel_is_trace_preserving():
    model = _two_qubit_pauli()
    code = _bell(model)
    p = np.zeros(model.group.order)
    p[0] = 0.5
    p[2 * 4] = 0.5  # X on the first qubit
    channel = channel_from_model(model, p)
    recovery = build_recovery(code, channel)
    k = recovery.kraus
    total = np.einsum("xba,xbc->ac", np.conj(k), k)
    assert np.max(np.abs(total - np.eye(4))) < 1e-9


def test_verify_recovery_seeded_deterministic():
    model = _two_qubit_pauli()
    code = _bell(model)
    p = np.zeros(model.group.order)
    p[0] = 1.0
    channel = channel_from_model(model, p)
    recovery = build_recovery(code, channel)
    d1 = verify_recovery(code, channel, recovery, n_random=5, seed=11)
    d2 = verify_recovery(code, channel, recovery, n_random=5, seed=11)
    assert d1 == d2


def test_channel_json_round_trip():
    model = gen_pauli_model(2)
    channel = channel_from_model(model, [0.5, 0.5, 0.0, 0.0])
    back = KrausChannel.from_json(channel.to_json())
    assert back.ambient_dim == channel.ambient_dim
    assert np.allclose(back.kraus, channel.kraus)


def test_full_support_correctable_iff_detectable_everywhere():
    # a channel supported on the whole group is correctable exactly when
    # every group element is detectable (pair products sweep all of G)
    model = _two_qubit_pauli()
    uniform = np.full(model.group.order, 1.0 / model.group.order)
    channel = channel_from_model(model, uniform)

    bell = _bell(model)
    assert set(detectable_set(model, bell)) == set(range(16))
    assert bool(kl_correctable(bell, channel))

    half = CodeSpace.from_vectors(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert set(detectable_set(model, half)) != set(range(16))
    assert not bool(kl_correctable(half, channel))


def test_recovery_restores_random_complex_line():
    # <v|K_i* K_j|v> is complex for a random complex v, so the Gram matrix
    # of the recovery is complex; every channel is correctable on a line
    model = _two_qubit_pauli()
    rng = np.random.default_rng(1)
    code = CodeSpace.from_vectors(4, [rng.normal(size=4) + 1j * rng.normal(size=4)])
    p = rng.uniform(0.5, 1.5, size=model.group.order)
    channel = channel_from_model(model, p / p.sum())
    assert bool(kl_correctable(code, channel))
    recovery = build_recovery(code, channel)
    assert verify_recovery(code, channel, recovery) <= 1e-7


def _pairwise_witness(code, channel):
    for i in range(len(channel)):
        for j in range(len(channel)):
            if kl_detectable(code, channel.kraus[i].conj().T @ channel.kraus[j]) is None:
                return (i, j)
    return None


def test_kl_correctable_witness_matches_pairwise_loop():
    model = _two_qubit_pauli()
    rng = np.random.default_rng(2)
    half = CodeSpace.from_vectors(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    codes = [
        _bell(model),
        half,
        CodeSpace.from_vectors(4, rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))),
    ]
    cases = []
    for code in codes:
        for _ in range(6):
            support = rng.permutation(model.group.order)[: int(rng.integers(1, 9))]
            p = np.zeros(model.group.order)
            p[support] = rng.uniform(0.5, 1.5, size=len(support))
            cases.append((code, channel_from_model(model, p / p.sum())))
    # Kraus operators I, X2, X1 on {|00>, |11>}: X1 and X2 are detectable,
    # X2 X1 is not, so the first bad pair lies past the first row
    p = np.zeros(model.group.order)
    p[[0, 2, 8]] = 1 / 3
    cases.append((half, channel_from_model(model, p)))
    results = [kl_correctable(code, channel) for code, channel in cases]
    for (code, channel), result in zip(cases, results):
        assert result.witness == _pairwise_witness(code, channel)
        assert bool(result) == (result.witness is None)
    assert any(results)
    assert results[-1].witness == (1, 2)
