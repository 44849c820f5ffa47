"""Group-generated quantum channels and Knill-Laflamme correctability.

Knill-Laflamme tests work on the code basis B, an isometry with P = B B*:
P X P = c P holds exactly when B* X B = c I_w, with c = tr(B* X B) / w, and
the two Frobenius distances agree.  kl_correctable forms B* K_i* K_j B for a
whole row i at once, so memory stays O(K w^2) for K Kraus operators.

The recovery construction diagonalizes the Gram matrix M of the compressed
products P K_i* K_j P = M_ij P, rotates the Kraus operators by its
eigenvectors, and polar-decomposes each rotated operator on the code; the
completion projector keeps the channel trace preserving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import frobenius
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

TOL_SCALAR = 1e-8
TOL_RECOVERY = 1e-7


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
        total = np.einsum("xba,xbc->ac", self.kraus.conj(), self.kraus)
        if frobenius(total - np.eye(self.ambient_dim)) > 1e-9:
            raise ChannelError("kraus operators do not sum to the identity")

    def __len__(self) -> int:
        return self.kraus.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return np.einsum("xab,bc,xdc->ad", self.kraus, rho, self.kraus.conj())

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
    if p.min() < 0:
        raise ChannelError("distribution has negative entries")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ChannelError("distribution does not sum to 1")
    support = np.flatnonzero(p > 0)
    kraus = np.sqrt(p[support])[:, None, None] * model.rep.matrices[support]
    return KrausChannel(model.dim, kraus)


def _scalar_deviation(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, ||X - c I||_F) for each w x w matrix X of a stack, c = tr(X) / w."""
    w = blocks.shape[-1]
    c = np.trace(blocks, axis1=-2, axis2=-1) / w
    dev = np.linalg.norm(blocks - c[..., None, None] * np.eye(w), axis=(-2, -1))
    return c, dev


def kl_detectable(code: CodeSpace, x: np.ndarray) -> complex | None:
    """The scalar c with P x P = c P, or None when x is not detectable."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (code.ambient_dim, code.ambient_dim):
        raise ChannelError("operator dimension does not match the code")
    b = code.basis
    c, dev = _scalar_deviation(b.conj().T @ x @ b)
    if dev < TOL_SCALAR:
        return complex(c)
    return None


@dataclass(frozen=True)
class KLResult:
    """Outcome of the all-pairs Knill-Laflamme test."""

    ok: bool
    witness: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def kl_correctable(code: CodeSpace, channel: KrausChannel) -> KLResult:
    """All-pairs test P K_i* K_j P = c_ij P; the witness is the first bad pair
    in row-major order."""
    if channel.ambient_dim != code.ambient_dim:
        raise ChannelError("channel dimension does not match the code")
    kb = np.einsum("xab,bk->xak", channel.kraus, code.basis)
    for i in range(len(channel)):
        _, dev = _scalar_deviation(np.einsum("ak,jal->jkl", kb[i].conj(), kb))
        bad = np.flatnonzero(~(dev < TOL_SCALAR))
        if bad.size:
            return KLResult(False, (i, int(bad[0])))
    return KLResult(True, None)


def _gram_matrix(code: CodeSpace, channel: KrausChannel) -> np.ndarray:
    # m[i,j] with P K_i* K_j P = m[i,j] P, read off as tr(B* K_i* K_j B)/dim W
    kb = np.einsum("xab,bk->xak", channel.kraus, code.basis)
    return np.einsum("iak,jak->ij", np.conj(kb), kb) / code.dim


def build_recovery(code: CodeSpace, channel: KrausChannel) -> KrausChannel:
    """The canonical Knill-Laflamme recovery channel."""
    result = kl_correctable(code, channel)
    if not result.ok:
        raise ChannelError(f"channel is not correctable on this code, witness pair {result.witness}")
    gram = _gram_matrix(code, channel)
    evals, evecs = np.linalg.eigh(gram)
    b = code.basis
    dim = code.ambient_dim
    ops = []
    ranges = np.zeros((dim, dim), dtype=complex)
    for k in range(len(channel)):
        if evals[k] < 1e-12:
            continue
        # F_k = sum_i u_ik K_i gives P F_k* F_l P = (U* M U)_kl P = d_k delta_kl P
        rotated = np.einsum("i,iab->ab", evecs[:, k], channel.kraus)
        isometry = (rotated @ b) / np.sqrt(evals[k])
        ops.append(b @ isometry.conj().T)
        ranges += isometry @ isometry.conj().T
    completion = np.eye(dim, dtype=complex) - ranges
    if frobenius(completion @ completion - completion) > 1e-7:
        raise RuntimeError("recovery ranges do not assemble into a projector")
    ops.append(completion)
    return KrausChannel(dim, np.array(ops))


def verify_recovery(
    code: CodeSpace,
    channel: KrausChannel,
    recovery: KrausChannel,
    n_random: int = 20,
    seed: int = 7,
) -> float:
    """Max deviation of recovery(channel(rho)) from rho over code test states.

    The test set is every matrix unit over the code basis plus seeded random
    code states.
    """
    b = code.basis
    w = code.dim
    worst = 0.0
    for i in range(w):
        for j in range(w):
            rho = np.outer(b[:, i], b[:, j].conj())
            out = recovery.apply(channel.apply(rho))
            worst = max(worst, frobenius(out - rho))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        v = rng.normal(size=w) + 1j * rng.normal(size=w)
        v = b @ (v / np.linalg.norm(v))
        rho = np.outer(v, v.conj())
        out = recovery.apply(channel.apply(rho))
        worst = max(worst, frobenius(out - rho))
    return worst
