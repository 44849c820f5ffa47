"""The compressed action C = B* M B against numpy's batched products."""

import functools

import numpy as np
import pytest

from qeclab._linalg import compress, compressed_action
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
    assert np.abs(compress(m, b) - c_want).max() < 1e-13
    # one d x d matrix, as channels.kl_detectable passes it
    assert compress(m[0], b).shape == (w, w)
    assert np.abs(compress(m[0], b) - c_want[0]).max() < 1e-13
