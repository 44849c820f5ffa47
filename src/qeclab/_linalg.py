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
    """basis* M basis for each matrix M of a stack: the action on a subspace."""
    return basis.conj().T @ matrices @ basis


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))
