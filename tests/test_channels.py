import tracemalloc

import numpy as np
import pytest

from helpers import kl_witness_per_row, kraus_apply_oracle, verify_recovery_oracle
from qeclab import _tol, channels
from qeclab._linalg import scalar_deviation
from qeclab.channels import (
    ChannelError,
    KrausChannel,
    build_recovery,
    channel_from_model,
    kl_correctable,
    kl_detectable,
    verify_recovery,
)
from qeclab.cli import parse_model_spec
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


def test_scalar_deviation_on_stacks_and_block_grids():
    rng = np.random.default_rng(3)
    c = rng.normal(size=5) + 1j * rng.normal(size=5)
    got_c, got_dev = scalar_deviation(c[:, None, None] * np.eye(3))
    assert np.abs(got_c - c).max() < 1e-15
    assert got_dev.max() < 1e-15
    x = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    got_c, got_dev = scalar_deviation(x)
    for k in range(4):
        want_c = np.trace(x[k]) / 3
        assert abs(got_c[k] - want_c) < 1e-14
        assert abs(got_dev[k] - np.linalg.norm(x[k] - want_c * np.eye(3))) < 1e-14
    # the (rows, n, w, w) blocks of kl_correctable: one scalar per (i, j)
    blocks = rng.normal(size=(2, 5, 3, 3)) + 1j * rng.normal(size=(2, 5, 3, 3))
    blocks[1, 2] = (2 - 1j) * np.eye(3)
    got_c, got_dev = scalar_deviation(blocks)
    assert got_c.shape == got_dev.shape == (2, 5)
    assert abs(got_c[1, 2] - (2 - 1j)) < 1e-15 and got_dev[1, 2] < 1e-15
    flat_c, flat_dev = scalar_deviation(blocks.reshape(10, 3, 3))
    assert np.array_equal(got_c.ravel(), flat_c)
    assert np.array_equal(got_dev.ravel(), flat_dev)
    assert np.flatnonzero(got_dev.ravel() < _tol.SCAN).tolist() == [7]


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


# -- the stacked channel against the per-state and per-row loops --------------


def _random_channel(model, rng, size=None):
    support = rng.permutation(model.group.order)[: size or model.group.order]
    p = np.zeros(model.group.order)
    p[support] = rng.uniform(0.5, 1.5, size=len(support))
    return channel_from_model(model, p / p.sum())


def _random_code(d, w, rng):
    return CodeSpace.from_vectors(d, rng.normal(size=(w, d)) + 1j * rng.normal(size=(w, d)))


@pytest.mark.parametrize("spec", ["pauli:2", "permprod(genpauli:2,3)"])
def test_apply_matches_three_operand_oracle(spec, monkeypatch):
    model = parse_model_spec(spec).model
    rng = np.random.default_rng(4)
    d = model.dim
    stack = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
    for size in (1, 3, None):
        channel = _random_channel(model, rng, size)
        want = np.array([kraus_apply_oracle(channel.kraus, rho) for rho in stack])
        # default blocks (256 + 128 operators at 384), one operator and one
        # state per block, and room for five d x d products: five states per
        # block for one operator, 76 blocks of five and one of four at 384
        for entries in (channels._PRODUCT_BLOCK_ENTRIES, 1, 5 * d * d):
            monkeypatch.setattr(channels, "_PRODUCT_BLOCK_ENTRIES", entries)
            one = channel.apply(stack[0])
            assert one.shape == (d, d)
            assert np.abs(one - want[0]).max() < 1e-12
            for s in (1, 7, 40):
                got = channel.apply(stack[:s])
                assert got.shape == (s, d, d)
                assert np.abs(got - want[:s]).max() < 1e-12


def test_apply_rejects_misshapen_states():
    channel = channel_from_model(gen_pauli_model(2), [0.5, 0.5, 0.0, 0.0])
    for bad in (np.eye(3), np.zeros((2, 2, 3)), np.zeros((1, 1, 2, 2)), np.zeros(4)):
        with pytest.raises(ChannelError):
            channel.apply(bad)


@pytest.mark.parametrize("spec", ["pauli:2", "permprod(genpauli:2,3)"])
def test_verify_recovery_matches_per_state_loop(spec):
    model = parse_model_spec(spec).model
    rng = np.random.default_rng(6)
    checked = 0
    for w in (1, 2, 4):
        code = _random_code(model.dim, w, rng)
        for size in (1, 2, 5, None):
            channel = _random_channel(model, rng, size)
            # a recovery that restores the code where there is one, and a
            # channel that does not, so the deviations are O(1) and depend on
            # every test state and its place in the rng stream
            recoveries = [_random_channel(model, rng, 3)]
            if kl_correctable(code, channel):
                recoveries.append(build_recovery(code, channel))
            for recovery in recoveries:
                for n_random in (0, 5, 20):
                    got = verify_recovery(code, channel, recovery, n_random=n_random, seed=w)
                    want = verify_recovery_oracle(code, channel, recovery, n_random, seed=w)
                    assert abs(got - want) < 1e-12
                    checked += 1
            if len(recoveries) == 2:
                assert verify_recovery(code, channel, recoveries[1]) <= 1e-7
    assert checked > 36


def _late_witness_channel():
    # on {|00>, |11>} every product of the stabilizer Z1 Z2 with I, X1 or X2
    # is detectable, and X2* X1 is the logical X: the first bad pair of 382
    # weighted stabilizer elements followed by X2 and X1 is (382, 383)
    model = _two_qubit_pauli()
    rng = np.random.default_rng(8)
    stabilizers = model.rep.matrices[rng.choice([0, 5], size=382)]
    weights = rng.uniform(0.5, 1.5, size=384)
    weights /= weights.sum()
    ops = np.concatenate([stabilizers, model.rep.matrices[[2, 8]]])
    half = CodeSpace.from_vectors(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    return half, KrausChannel(4, np.sqrt(weights)[:, None, None] * ops)


def test_kl_correctable_matches_per_row_loop_under_blocks(monkeypatch):
    rng = np.random.default_rng(9)
    big = parse_model_spec("permprod(genpauli:2,3)").model
    cases = [_late_witness_channel()]
    for w in (1, 2, 4):
        code = _random_code(big.dim, w, rng)
        for size in (1, 2, 40, None):
            cases.append((code, _random_channel(big, rng, size)))
    line = _random_code(big.dim, 1, rng)
    cases.append((line, _random_channel(big, rng)))  # every channel is correctable on a line
    want = [kl_witness_per_row(code, channel) for code, channel in cases]
    assert want[0] == (382, 383)
    assert want[-1] is None and max(len(ch) for _, ch in cases) == 384
    default = channels._PRODUCT_BLOCK_ENTRIES
    for rows in (1, 3, None):
        for (code, channel), witness in zip(cases, want):
            entries = default if rows is None else rows * len(channel) * code.dim**2
            monkeypatch.setattr(channels, "_PRODUCT_BLOCK_ENTRIES", entries)
            result = kl_correctable(code, channel)
            assert result.witness == witness
            assert bool(result) == (witness is None)
    # the default block of 384 operators on a 2-dim code holds 10 rows, so
    # the late witness lies past the first block
    assert default // (384 * 4) < 382


def test_verify_recovery_memory_stays_within_blocks():
    # pauli:4 (order 256, dim 16) and a uniform channel of 256 operators: the
    # stacked test set is 21 states, and holding every K_x rho for all of them
    # at once would take 256 * 21 * 16^2 complex entries (22 MB)
    model = parse_model_spec("pauli:4").model
    rng = np.random.default_rng(10)
    channel = channel_from_model(model, np.full(256, 1 / 256))
    code = _random_code(16, 1, rng)
    recovery = build_recovery(code, channel)
    block_bytes = channels._PRODUCT_BLOCK_ENTRIES * 16
    stack_bytes = 21 * 16 * 16 * 16
    tracemalloc.start()
    try:
        deviation = verify_recovery(code, channel, recovery)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert deviation <= 1e-7
    assert peak < 4 * block_bytes + 6 * stack_bytes
    assert peak < 256 * 21 * 16 * 16 * 16 / 10
