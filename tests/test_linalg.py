"""The compressed action C = B* M B and the scalar test against numpy's
batched products and norms."""

import functools

import numpy as np
import pytest

from qeclab._linalg import compressed_action, scalar_deviation
from qeclab.cli import parse_model_spec


@functools.cache
def _stack(n: int) -> np.ndarray:
    """n unitaries of dimension 8: the first n of permprod(genpauli:2,3)'s 384."""
    return parse_model_spec("permprod(genpauli:2,3)").model.rep.matrices[:n]


def _basis(d: int, w: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, w)) + 1j * rng.normal(size=(d, w)))
    return q


@pytest.mark.parametrize("n", [1, 64, 384])
@pytest.mark.parametrize("w", range(1, 9))
def test_compressed_action_matches_the_batched_products(n, w):
    m, b = _stack(n), _basis(8, w, seed=n + w)
    c_want = b.conj().T @ m @ b
    c, inside, outside = compressed_action(m, b)
    assert c.shape == (n, w, w) and c.flags.c_contiguous
    assert np.abs(c - c_want).max() < 1e-13
    assert np.abs(inside - np.linalg.norm(m @ b - b @ c_want, axis=(1, 2))).max() < 1e-13
    assert np.abs(outside - np.linalg.norm(c_want, axis=(1, 2))).max() < 1e-13


@pytest.mark.parametrize("w", [1, 3, 8])
def test_one_stack_against_a_stack_of_bases_is_each_basis_alone(w):
    # the stack broadcasts against bases [k, d, w], with no copy of it per
    # basis, and each basis gets the bytes it gets alone
    m = _stack(64)
    bases = np.stack([_basis(8, w, seed=s) for s in range(5)])
    got = compressed_action(m, bases)
    for k, b in enumerate(bases):
        for stacked, alone in zip(got, compressed_action(m, b)):
            assert stacked[k].tobytes() == alone.tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "rows_fastest"])
@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_scalar_deviation_matches_trace_and_norm(w, layout):
    # (rows, n, w, w) stacks as kl_correctable forms them: random blocks, and
    # scalar blocks c I tilted by 1e-9, 1e-12 or 0
    rng = np.random.default_rng(w)
    shape = (3, 5, w, w) if layout == "transposed" else (5, 3, w, w)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c0 = rng.normal(size=shape[:2]) + 1j * rng.normal(size=shape[:2])
    x[1] = c0[1, :, None, None] * np.eye(w) + 1e-9 * x[1]
    x[2] = c0[2, :, None, None] * np.eye(w) + 1e-12 * x[2]
    x[0, 0] = c0[0, 0] * np.eye(w)
    if layout == "transposed":
        x = x.transpose(1, 0, 2, 3)
    elif layout == "rows_fastest":
        # entries of one matrix lie |rows| apart in memory, so a copy that
        # kept this layout could not be read as a flat float view
        x = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)), -1, 0)
    c, dev = scalar_deviation(x)
    want_c = np.trace(x, axis1=-2, axis2=-1) / w
    assert np.array_equal(c, want_c)
    want_dev = np.linalg.norm(x - want_c[..., None, None] * np.eye(w), axis=(-2, -1))
    scale = np.maximum(1, np.linalg.norm(x, axis=(-2, -1)))
    assert c.shape == dev.shape == (5, 3)
    assert (np.abs(dev - want_dev) <= 1e-15 * scale).all()
