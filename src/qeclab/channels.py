"""Group-generated quantum channels and Knill-Laflamme correctability.

Knill-Laflamme tests work on the code basis B, an isometry with P = B B*:
P X P = c P holds exactly when B* X B = c I_w, with c = tr(B* X B) / w, and
the two Frobenius distances agree.  kl_correctable forms K B once and then
B* K_i* K_j B for a block of rows i and every j with one matrix product; a
block holds at most _PRODUCT_BLOCK_ENTRIES complex entries (one row at
least), the bound projreps uses for its products.  KrausChannel.apply works
on stacks of states under the same bound.

The recovery is read off the stack K B as well.  build_recovery takes one
thin SVD of it, whose right singular vectors are the code isometries of the
Kraus operators rotated to diagonalize the Gram matrix M of the compressed
products P K_i* K_j P = M_ij P; the completion projector keeps the channel
trace preserving.  verify_recovery forms the channel's images of the w^2
matrix units from K B with one product, sends only those through the
recovery, and obtains every other code state's output by linearity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _tol
from ._linalg import compressed_action, frobenius, scalar_deviation
from .codes import CodeSpace
from .models import ProjectiveErrorModel
from .projreps import _PRODUCT_BLOCK_ENTRIES

__all__ = [
    "ChannelError",
    "KrausChannel",
    "channel_from_model",
    "kl_detectable",
    "kl_correctable",
    "KLResult",
    "build_recovery",
    "verify_recovery",
]


class ChannelError(ValueError):
    """Raised on malformed channels, bad distributions, or failed preconditions."""


@dataclass(eq=False)
class KrausChannel:
    """A completely positive trace preserving map given by Kraus operators."""

    ambient_dim: int
    kraus: np.ndarray

    def __post_init__(self) -> None:
        self.kraus = np.asarray(self.kraus, dtype=complex)
        if self.kraus.ndim != 3 or self.kraus.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise ChannelError("kraus must be a stack of ambient_dim square matrices")
        stacked = self.kraus.reshape(-1, self.ambient_dim)
        total = stacked.conj().T @ stacked
        if not frobenius(total - np.eye(self.ambient_dim)) <= _tol.EXACT:   # NaN fails too
            raise ChannelError("kraus operators do not sum to the identity")

    def __len__(self) -> int:
        return self.kraus.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum_x K_x rho K_x* for one state (d, d) or each state of a stack (s, d, d).

        Operators and states are taken in blocks: m operators stacked as one
        (m d, d) matrix multiply a block of states, and the products, regrouped
        as (d, m d) matrices, multiply the stacked K_x*.  No temporary holds
        more than _PRODUCT_BLOCK_ENTRIES complex entries (one operator and one
        state at least).
        """
        rho = np.asarray(rho)
        d = self.ambient_dim
        if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
            raise ChannelError("states must be one d x d matrix or a stack of them")
        states = rho.reshape(-1, d, d)
        out = np.zeros(states.shape, dtype=complex)
        ops = min(len(self), max(1, _PRODUCT_BLOCK_ENTRIES // (d * d)))
        for a in range(0, len(self), ops):
            k = self.kraus[a : a + ops]
            m = len(k)
            left = k.reshape(m * d, d)
            right = k.conj().transpose(0, 2, 1).reshape(m * d, d)
            rows = max(1, _PRODUCT_BLOCK_ENTRIES // (m * d * d))
            for t in range(0, len(states), rows):
                # row (x, a) of left @ state is row a of K_x state
                kr = left @ states[t : t + rows]
                kr = kr.reshape(-1, m, d, d).transpose(0, 2, 1, 3).reshape(-1, d, m * d)
                out[t : t + rows] += kr @ right
        return out.reshape(rho.shape)

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "kraus": [
                [[[float(z.real), float(z.imag)] for z in row] for row in k] for k in self.kraus
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "KrausChannel":
        mats = np.array(
            [[[complex(re, im) for re, im in row] for row in k] for k in data["kraus"]]
        )
        return cls(int(data["ambient_dim"]), mats)

    def __repr__(self) -> str:
        return f"KrausChannel({len(self)} operators on dim {self.ambient_dim})"


def channel_from_model(model: ProjectiveErrorModel, p) -> KrausChannel:
    """The channel sum_x p(x) pi(x) rho pi(x)*, restricted to the support of p."""
    p = np.asarray(p, dtype=float)
    if p.shape != (model.group.order,):
        raise ChannelError("distribution length does not match the group order")
    if not np.isfinite(p).all():
        raise ChannelError("distribution has non-finite entries")
    if p.min() < 0:
        raise ChannelError("distribution has negative entries")
    if abs(p.sum() - 1.0) > _tol.DIST_SUM:
        raise ChannelError("distribution does not sum to 1")
    support = np.flatnonzero(p > 0)
    kraus = np.sqrt(p[support])[:, None, None] * model.rep.matrices[support]
    return KrausChannel(model.dim, kraus)


def kl_detectable(code: CodeSpace, x: np.ndarray) -> complex | None:
    """The scalar c with P x P = c P, or None when x is not detectable."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (code.ambient_dim, code.ambient_dim):
        raise ChannelError("operator dimension does not match the code")
    c, dev = scalar_deviation(compressed_action(x[None], code.basis)[0][0])
    if dev < _tol.SCAN:
        return complex(c)
    return None


@dataclass(frozen=True)
class KLResult:
    """Outcome of the all-pairs Knill-Laflamme test."""

    ok: bool
    witness: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _code_products(code: CodeSpace, channel: KrausChannel) -> np.ndarray:
    """The stack K_x B of every Kraus operator times the code basis, (n, d, w)."""
    if channel.ambient_dim != code.ambient_dim:
        raise ChannelError("channel dimension does not match the code")
    return channel.kraus @ code.basis


def kl_correctable(code: CodeSpace, channel: KrausChannel) -> KLResult:
    """All-pairs test P K_i* K_j P = c_ij P; the witness is the first bad pair
    in row-major order.

    Rows i are taken in blocks of at most _PRODUCT_BLOCK_ENTRIES entries of
    B* K_i* K_j B over every j (one row at least); each block is one
    (rows w, d) @ (d, n w) product and one scalar test, and the first block
    with a bad pair ends the search.
    """
    kb = _code_products(code, channel)
    n, d, w = kb.shape
    right = kb.transpose(1, 0, 2).reshape(d, n * w)  # column (j, l) is K_j B e_l
    rows = max(1, _PRODUCT_BLOCK_ENTRIES // (n * w * w))
    for a in range(0, n, rows):
        left = kb[a : a + rows].conj().transpose(0, 2, 1).reshape(-1, d)
        blocks = (left @ right).reshape(-1, w, n, w).transpose(0, 2, 1, 3)
        _, dev = scalar_deviation(blocks)
        bad = np.flatnonzero(~(dev < _tol.SCAN))
        if bad.size:
            i, j = divmod(int(bad[0]), n)
            return KLResult(False, (a + i, j))
    return KLResult(True, None)


def build_recovery(code: CodeSpace, channel: KrausChannel) -> KrausChannel:
    """The canonical Knill-Laflamme recovery channel.

    With F = (K B) as an (n, d w) matrix and F = U S V* its thin SVD, the
    Gram matrix M_ij = tr(B* K_i* K_j B) / w of P K_i* K_j P = M_ij P is
    conj(F) F^T / w = conj(U) (S^2 / w) U^T.  Its eigenpairs are
    (s_k^2 / w, conj(u_k)), and the Kraus operators rotated by them,
    F_k = sum_i conj(u_ik) K_i, have P F_k* F_l P = (s_k^2 / w) delta_kl P
    and F_k B = s_k (row k of V*).  Polar-decomposed on the code, each
    direction with s_k^2 / w >= GRAM_FLOOR gives the isometry
    sqrt(w) (row k of V*) as a (d, w) matrix, with no Gram matrix formed.
    A degenerate singular value leaves the basis of its space free, and
    every choice gives the same channel.
    """
    result = kl_correctable(code, channel)
    if not result.ok:
        raise ChannelError(f"channel is not correctable on this code, witness pair {result.witness}")
    kb = _code_products(code, channel)
    n, dim, w = kb.shape
    _, s, vh = np.linalg.svd(kb.reshape(n, dim * w), full_matrices=False)
    keep = s * s / w >= _tol.GRAM_FLOOR
    isometries = np.sqrt(w) * vh[keep].reshape(-1, dim, w)
    ops = code.basis @ isometries.conj().transpose(0, 2, 1)
    ranges = isometries.transpose(1, 0, 2).reshape(dim, -1)
    completion = np.eye(dim, dtype=complex) - ranges @ ranges.conj().T
    if frobenius(completion @ completion - completion) > _tol.DERIVED:
        raise RuntimeError("recovery ranges do not assemble into a projector")
    return KrausChannel(dim, np.concatenate([ops, completion[None]]))


def verify_recovery(
    code: CodeSpace,
    channel: KrausChannel,
    recovery: KrausChannel,
    n_random: int = 20,
    seed: int = 7,
) -> float:
    """Max deviation of recovery(channel(rho)) from rho over code test states.

    The test set is every matrix unit |b_i><b_j| over the code basis, in
    row-major order, then n_random seeded random code states.  The channel's
    image of |b_i><b_j| is sum_x (K_x b_i)(K_x b_j)*, so all w^2 images are
    blocks of one (w d, n) @ (n, w d) product of the columns of K B, and
    only they go through recovery.apply.  A random state B u u* B* is
    sum_ij u_i conj(u_j) |b_i><b_j| and R(N(.)) is linear, so its output is
    the same combination of the units' outputs: one (n_random, w^2) @
    (w^2, d^2) product.  Each output is compared with its state as formed
    directly.
    """
    b = code.basis
    d, w = b.shape
    units = np.einsum("ai,bj->ijab", b, b.conj()).reshape(w * w, d, d)
    rng = np.random.default_rng(seed)
    draws = rng.normal(size=(n_random, 2, w))  # real then imaginary part, state by state
    u = draws[:, 0] + 1j * draws[:, 1]
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = u @ b.T
    states = np.concatenate([units, v[:, :, None] * v.conj()[:, None, :]])
    kb = _code_products(code, channel)
    cols = kb.transpose(2, 1, 0).reshape(w * d, -1)  # row (i, a) is entry a of K_x b_i over x
    images = (cols @ cols.conj().T).reshape(w, d, w, d).transpose(0, 2, 1, 3)
    unit_out = recovery.apply(images.reshape(w * w, d, d))
    coeffs = (u[:, :, None] * u.conj()[:, None, :]).reshape(n_random, w * w)
    random_out = (coeffs @ unit_out.reshape(w * w, d * d)).reshape(n_random, d, d)
    out = np.concatenate([unit_out, random_out])
    return float(np.linalg.norm(out - states, axis=(1, 2)).max())
