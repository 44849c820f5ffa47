"""Shared dense linear algebra helpers.

compression is the one product B* M B in qeclab: every reading of an
operator's action on a subspace (the code action in codes,
ProjectiveRep.on_subspace, the Knill-Laflamme scalar in channels, and the
pieces of search's constituent split, diagonal blocks of one compression by
a whole eigenvector matrix) goes through it, so the same basis gives the
same bytes to each reader.  compressed_action adds the invariance residual
and |C| to it, which only the code action in codes reads; the other
readers take compression's C alone.
"""

from __future__ import annotations

import numpy as np

from . import _tol

# Most entries in one row block of a blocked pass: 256 KiB of complex
# entries (pi(x) pi(y) or K B products, say), or 128 KiB of int64 table
# entries.  A block and its temporaries stay in cache; 1 MiB blocks made
# make_rep's checks slower than one row at a time on order-54 and order-64
# reps.  Every blocked pass takes its rows from _blocks, and states at its
# call what one row holds.
_PRODUCT_BLOCK_ENTRIES = 2**14


def _blocks(count: int, per_row: int) -> list[slice]:
    """Consecutive slices of range(count), in order, each of at most
    _PRODUCT_BLOCK_ENTRIES // per_row rows (one row at least), per_row being
    the entries one row of the pass holds; the last stops at count.  An
    n x n table pass, per_row n, is one block for n up to 128.  A function
    of several passes blocks each by what its own row holds, not all by the
    largest (codes._eigenspaces, search._maximal_witnesses)."""
    rows = max(1, _PRODUCT_BLOCK_ENTRIES // max(per_row, 1))
    return [slice(a, min(a + rows, count)) for a in range(0, count, rows)]


def complex_json(a: np.ndarray) -> list:
    """a as nested lists with each complex entry written [re, im]."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def complex_from_json(data, ndim: int) -> np.ndarray:
    """complex_json's inverse for an ndim-axis array, bit for bit, signed
    zeros included: the [re, im] pairs as float64, viewed as complex.
    ValueError unless data is a rectangular nest of real numbers, ndim + 1
    deep, whose last axis has length 2 (so none is empty)."""
    a = np.array(data)   # ValueError on a ragged nest
    if a.dtype.kind not in "iuf" or a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise ValueError(f"expected {ndim} axes of [re, im] pairs of numbers, got shape {a.shape} of {a.dtype}")
    return np.ascontiguousarray(a, dtype=np.float64).view(complex)[..., 0]


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


def compression(matrices: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, Y^T, C^T): C = B* M B, contiguous, and the flat transposed
    products it is read from, laid out as compressed_action states.  A
    reader of the action alone takes C and forms no norm."""
    *lead, n, d, _ = matrices.shape
    batch = tuple(lead) or basis.shape[:-2]
    w = basis.shape[-1]
    yt = (matrices.reshape(*lead, n * d, d) @ basis).reshape(*batch, n, d, w)
    yt = yt.swapaxes(-2, -1).reshape(*batch, n * w, d)
    ct = yt @ basis.conj()
    return np.ascontiguousarray(ct.reshape(*batch, n, w, w).swapaxes(-2, -1)), yt, ct


def compressed_action(
    matrices: np.ndarray, basis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C, |M B - B C|_F, |C|_F) for each matrix M of a stack of n, with
    B = basis (d x w) and C = B* M B.  Leading batch axes, matrices
    [..., n, d, d] and basis [..., d, w], pair each stack with its own basis,
    and broadcast: one stack [n, d, d] against bases [k, d, w] is read
    without a copy of the stack per basis.

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
    1e-16 of _tol.EXACT.  codes._clifford_flags and
    search._split_restrictions read their actions by this lemma.

    Block lemma: let V = [B, R] be square with columns J = B, and
    E = V*V - 1.  The blocks of C_V = V* M V on J's columns are B* M B, the
    action above, and R* M B, and iota(x) is |R* M B|_F up to a term linear
    in |E|_2: with Q = 1 - P, R* M B = (R* B)(B* M B) + R* Q M B and
    R R* = 1 - P + (V V* - 1), so
        |R* M B| <= |E| |B* M B| + |R| iota,  iota <= |R| |R* M B| + |E| |M B|,
    with |R|_2^2 <= 1 + |E|_2 (|V V* - 1|_2 = |E|_2 for square V).  So one
    compression by V gives every column block's action, its invariance
    residual and its trace at once.  search._split_restrictions reads its
    pieces so, from compression's C alone, with V an eigenvector matrix of
    eigh, |E| of order d eps.
    """
    c, yt, ct = compression(matrices, basis)
    inside = np.linalg.norm((yt - ct @ basis.swapaxes(-2, -1)).reshape(*c.shape[:-2], -1), axis=-1)
    outside = np.linalg.norm(ct.reshape(*c.shape[:-2], -1), axis=-1)
    return c, inside, outside


def scalar_deviation(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, ||X - c I||_F) for each w x w matrix X of a stack, c = tr(X) / w.

    c sums the diagonal as np.trace does, to the same bytes.  The deviation
    is the root sum of squares of the real and imaginary parts of one
    C-ordered copy of X, laid out flat, with c taken off the diagonal
    (every (w + 1)th flat entry): no identity stack and no norm call.
    """
    w = blocks.shape[-1]
    c = blocks.diagonal(0, -2, -1).sum(-1) / w
    x = np.array(blocks, dtype=complex, order="C").reshape(*blocks.shape[:-2], w * w)
    x[..., :: w + 1] -= c[..., None]
    f = x.view(float)
    return c, np.sqrt(np.einsum("...i,...i->...", f, f))


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))
