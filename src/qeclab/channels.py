"""Group-generated quantum channels and Knill-Laflamme correctability.

Knill-Laflamme tests work on the code basis B, an isometry with P = B B*:
P X P = c P holds exactly when B* X B = c I_w, with c = tr(B* X B) / w, and
the two Frobenius distances agree.  kl_correctable forms K B and then
B* K_i* K_j B for a block of rows i and every j with one matrix product,
one row i holding its n w^2 entries (_linalg._blocks).  KrausChannel.apply
works on blocks of operators and of states.

The recovery is read off the stack K B as well.  build_recovery takes one
thin SVD of it, whose right singular vectors are the code isometries of the
Kraus operators rotated to diagonalize the Gram matrix M of the compressed
products P K_i* K_j P = M_ij P; the completion projector keeps the channel
trace preserving.  verify_recovery forms the channel's images of the w^2
matrix units from K B with one product, sends only those through the
recovery, and obtains every other code state's output by linearity.

K B and the verdict are formed once per (code, channel): a channel keeps a
record of the last code basis it met, keyed by the basis bytes, holding K B
and, once tested, the KLResult.  So kl_correctable, build_recovery (whose
precondition is the same test) and verify_recovery, called in turn on one
code, test all pairs once and multiply once.  The record cannot go stale:
both are functions of K and B alone, the channel holds a private read-only
copy of K, and B is compared byte for byte on every call, so a code whose
basis changed, or another code, misses the record and is formed afresh,
while a CodeSpace with equal basis bytes is the same code and is served
the same K B and verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _tol
from ._linalg import _blocks, complex_from_json, complex_json, compression, frobenius, scalar_deviation
from .codes import CodeSpace
from .models import ProjectiveErrorModel

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
        self.kraus = np.array(self.kraus, dtype=complex)   # a copy the record can trust
        if self.kraus.ndim != 3 or self.kraus.shape[1:] != (self.ambient_dim, self.ambient_dim):
            raise ChannelError("kraus must be a stack of ambient_dim square matrices")
        stacked = self.kraus.reshape(-1, self.ambient_dim)
        total = stacked.conj().T @ stacked
        if not frobenius(total - np.eye(self.ambient_dim)) <= _tol.EXACT:   # NaN fails too
            raise ChannelError("kraus operators do not sum to the identity")
        self.kraus.flags.writeable = False
        self._record: list | None = None   # [basis bytes, K B, KLResult or None]

    def __len__(self) -> int:
        return self.kraus.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum_x K_x rho K_x* for one state (d, d) or each state of a stack (s, d, d).

        Operators and states are taken in blocks (_linalg._blocks): m
        operators stacked as one (m d, d) matrix multiply a block of states,
        and the products, regrouped as (d, m d) matrices, multiply the
        stacked K_x*.  One operator holds d^2 entries, and one state's
        products m d^2.
        """
        rho = np.asarray(rho)
        d = self.ambient_dim
        if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
            raise ChannelError("states must be one d x d matrix or a stack of them")
        states = rho.reshape(-1, d, d)
        out = np.zeros(states.shape, dtype=complex)
        for ops in _blocks(len(self), d * d):
            k = self.kraus[ops]
            m = len(k)
            left = k.reshape(m * d, d)
            right = k.conj().transpose(0, 2, 1).reshape(m * d, d)
            for rows in _blocks(len(states), m * d * d):
                # row (x, a) of left @ state is row a of K_x state
                kr = left @ states[rows]
                kr = kr.reshape(-1, m, d, d).transpose(0, 2, 1, 3).reshape(-1, d, m * d)
                out[rows] += kr @ right
        return out.reshape(rho.shape)

    def to_json(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "kraus": complex_json(self.kraus)}

    @classmethod
    def from_json(cls, data: dict) -> "KrausChannel":
        return cls(int(data["ambient_dim"]), complex_from_json(data["kraus"], 3))

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
    c, dev = scalar_deviation(compression(x[None], code.basis)[0][0])
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


def _record(code: CodeSpace, channel: KrausChannel) -> list:
    """The channel's record [basis bytes, K B, KLResult or None] for this
    code, formed afresh when the channel last met another basis (see the
    module docstring)."""
    if channel.ambient_dim != code.ambient_dim:
        raise ChannelError("channel dimension does not match the code")
    key = code.basis.tobytes()
    if channel._record is None or channel._record[0] != key:
        channel._record = [key, _code_products(code, channel), None]
    return channel._record


def _code_products(code: CodeSpace, channel: KrausChannel) -> np.ndarray:
    """The stack K_x B of every Kraus operator times the code basis, (n, d, w)."""
    return channel.kraus @ code.basis


def _all_pairs(kb: np.ndarray) -> KLResult:
    """The Knill-Laflamme test on the stack K B.

    Rows i are taken in blocks (_linalg._blocks), row i holding
    B* K_i* K_j B over every j, n w^2 entries; each block is one
    (rows w, d) @ (d, n w) product and one scalar test, and the first block
    with a bad pair ends the search.
    """
    n, d, w = kb.shape
    right = kb.transpose(1, 0, 2).reshape(d, n * w)  # column (j, l) is K_j B e_l
    for rows in _blocks(n, n * w * w):
        left = kb[rows].conj().transpose(0, 2, 1).reshape(-1, d)
        blocks = (left @ right).reshape(-1, w, n, w).transpose(0, 2, 1, 3)
        _, dev = scalar_deviation(blocks)
        bad = np.flatnonzero(~(dev < _tol.SCAN))
        if bad.size:
            i, j = divmod(int(bad[0]), n)
            return KLResult(False, (rows.start + i, j))
    return KLResult(True, None)


def _verdict(record: list) -> KLResult:
    """The record's KLResult, running the all-pairs test if it has none."""
    if record[2] is None:
        record[2] = _all_pairs(record[1])
    return record[2]


def kl_correctable(code: CodeSpace, channel: KrausChannel) -> KLResult:
    """All-pairs test P K_i* K_j P = c_ij P; the witness is the first bad pair
    in row-major order.

    The test runs once per (code, channel); a repeated call reads the
    channel's record (see the module docstring).
    """
    return _verdict(_record(code, channel))


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

    The precondition is kl_correctable's test, read from the channel's
    record with K B (see the module docstring): after kl_correctable on the
    same code neither the test nor K B is formed again, and a channel never
    tested is tested here in full.
    """
    record = _record(code, channel)
    result = _verdict(record)
    if not result.ok:
        raise ChannelError(f"channel is not correctable on this code, witness pair {result.witness}")
    kb = record[1]
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
    directly.  K B is the one in the channel's record (see the module
    docstring), formed by an earlier kl_correctable or build_recovery on
    the same code, or here if there was none.
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
    kb = _record(code, channel)[1]
    cols = kb.transpose(2, 1, 0).reshape(w * d, -1)  # row (i, a) is entry a of K_x b_i over x
    images = (cols @ cols.conj().T).reshape(w, d, w, d).transpose(0, 2, 1, 3)
    unit_out = recovery.apply(images.reshape(w * w, d, d))
    coeffs = (u[:, :, None] * u.conj()[:, None, :]).reshape(n_random, w * w)
    random_out = (coeffs @ unit_out.reshape(w * w, d * d)).reshape(n_random, d, d)
    out = np.concatenate([unit_out, random_out])
    return float(np.linalg.norm(out - states, axis=(1, 2)).max())
