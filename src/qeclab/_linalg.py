"""Shared dense linear algebra helpers."""

from __future__ import annotations

import numpy as np

from . import _tol


def nullspace(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of a."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    # economy SVD still carries the whole row space of V when a is tall
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    # operators here are O(1)-normed, so floor the cutoff: a nearly-zero
    # stack must read as rank 0, not as full-rank float noise
    cutoff = _tol.SCAN * max(s[0] if len(s) else 0.0, 1.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def orthonormal_columns(b: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column space of b."""
    b = np.asarray(b, dtype=complex)
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    cutoff = _tol.SCAN * (s[0] if len(s) else 0.0)
    rank = int(np.sum(s > cutoff))
    return u[:, :rank]


def compress(matrices: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """basis* M basis for each matrix M of a stack: the action on a subspace.

    matrices may be one d x d matrix or a stack of any leading shape.  The
    product is numpy's, (basis* M) basis, whose bytes ProjectiveRep.on_subspace
    keeps; compressed_action reads the same C with flat products instead,
    which round differently in the last bits.
    """
    return basis.conj().T @ matrices @ basis


def compressed_action(
    matrices: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, |M B - B C|_F, |C|_F) for each matrix M of a stack of n, with
    B = basis (d x w) and C = B* M B.

    One flat product Y = M B over all n d rows of the stack, in place of a
    batched product over n small matrices, and then two more over the n w
    rows of Y^T: C^T = Y^T conj(B), and the residual, read transposed as
    Y^T - C^T B^T.
    """
    n, (d, w) = len(matrices), basis.shape
    yt = (matrices.reshape(n * d, d) @ basis).reshape(n, d, w).transpose(0, 2, 1).reshape(n * w, d)
    ct = yt @ basis.conj()
    inside = np.linalg.norm((yt - ct @ basis.T).reshape(n, w * d), axis=1)
    outside = np.linalg.norm(ct.reshape(n, w * w), axis=1)
    return np.ascontiguousarray(ct.reshape(n, w, w).swapaxes(1, 2)), inside, outside


def scalar_deviation(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, ||X - c I||_F) for each w x w matrix X of a stack, c = tr(X) / w."""
    w = blocks.shape[-1]
    c = np.trace(blocks, axis1=-2, axis2=-1) / w
    dev = np.linalg.norm(blocks - c[..., None, None] * np.eye(w), axis=(-2, -1))
    return c, dev


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))
