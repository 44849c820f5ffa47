"""Shared dense linear algebra helpers.

compressed_action is the one product B* M B in qeclab: every reading of
an operator's action on a subspace (the code action in codes, a piece of
search's constituent split, ProjectiveRep.on_subspace, the
Knill-Laflamme scalar in channels) goes through it, so the same subspace
gives the same bytes to each reader.
"""

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


def compressed_action(
    matrices: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, |M B - B C|_F, |C|_F) for each matrix M of a stack of n, with
    B = basis (d x w) and C = B* M B.

    One flat product Y = M B over all n d rows of the stack, in place of a
    batched product over n small matrices, and then two more over the n w
    rows of Y^T: C^T = Y^T conj(B), and the residual, read transposed as
    Y^T - C^T B^T.

    The residual is iota(x) = |(1 - P) M(x) B|_F with P = B B*, and it
    bounds how far x -> C(x) is from a representation.  Let the stack be a
    projective rep pi with cocycle sigma, B an isometry, and rho(x) = C(x).
    Inserting 1 = P + (1 - P) between two factors gives
        rho(x)rho(y) - sigma(x,y)rho(xy)
            = B* (pi(x)pi(y) - sigma(x,y)pi(xy)) B - [(1 - P) pi(x)* B]* [(1 - P) pi(y) B],
        rho(x)* rho(x) - 1 = B* (pi(x)* pi(x) - 1) B - [(1 - P) pi(x) B]* [(1 - P) pi(x) B],
    and B is an isometry and 1 - P a projector, so (Frobenius norms) rho's
    pair deviation is at most pi's plus |(1 - P) pi(x)* B| iota(y), and its
    unitarity deviation at most pi's plus iota(x)^2 (a square A has
    |AA* - 1|_F = |A*A - 1|_F).  pi(x)* is a unit multiple of pi(x^-1) up
    to pi's own deviation, below _tol.EXACT, so with iota below _tol.SCAN
    on every x both excesses are below (_tol.SCAN + _tol.EXACT) _tol.SCAN
    = 1.1e-16: rho is a projective rep with pi's cocycle that validating
    against _tol.EXACT accepts unless pi itself deviates to within about
    1e-16 of _tol.EXACT.  codes._clifford_flag and
    search._split_constituents read their actions by this lemma.
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
