"""Catalog of error models and projective error models.

Every constructor returns validated objects: an ErrorModel wraps a faithful
irreducible linear representation, a ProjectiveErrorModel wraps a
projectively faithful irreducible projective representation.  The fixed
primitive root of unity is always exp(2*pi*i/n), which keeps characters and
cocycle tables byte-stable across runs.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import _tol
from .cocycles import Cocycle, Phase, PhaseFunction, coboundary
from .groups import (
    FiniteGroup,
    Subgroup,
    cyclic,
    dihedral,
    direct_product,
    group_from_mul_table,
    inversion_semidirect,
    permutation_semidirect,
)
from .projreps import (
    ProjectiveRep,
    is_irreducible,
    is_projectively_faithful,
    make_rep,
    tensor,
)

__all__ = [
    "ErrorModel",
    "ProjectiveErrorModel",
    "ModelError",
    "max_ambient_dim",
    "zeta",
    "clock_shift",
    "gen_pauli_model",
    "dihedral_xp_model",
    "product_model",
    "perm_product_model",
    "family_c2_x_d2n",
    "family_odd",
    "pem_from_em",
    "em_from_pem",
    "d4_character_table",
    "d4_expected_table",
    "D4_COLUMN_NAMES",
]


class ModelError(ValueError):
    """Raised when a model fails its defining invariants or a size cap."""


def max_ambient_dim(default: int = 64) -> int:
    """Ambient dimension cap: QECLAB_MAX_DIM, default when unset."""
    return int(os.environ.get("QECLAB_MAX_DIM", default))


def zeta(n: int) -> complex:
    return Phase(1, n).to_complex()


def clock_shift(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The shift X_n (X e_k = e_{k-1}) and clock Z_n = diag(zeta^k)."""
    if n == 1:
        return np.eye(1, dtype=complex), np.eye(1, dtype=complex)
    x = np.eye(n, k=1, dtype=complex) + np.eye(n, k=1 - n, dtype=complex)
    z = np.diag(zeta(n) ** np.arange(n))
    return x, z


@dataclass(eq=False)
class ErrorModel:
    """A finite group acting by a faithful irreducible linear representation."""

    rep: ProjectiveRep
    label: str = "E"

    def __post_init__(self) -> None:
        if not self.rep.cocycle.is_trivial():
            raise ModelError("error model needs a genuine linear representation")
        if not is_irreducible(self.rep):
            raise ModelError("error model representation must be irreducible")
        flat = self.rep.matrices.reshape(self.group.order, -1)
        for x in range(self.group.order - 1):
            if np.linalg.norm(flat[x + 1 :] - flat[x], axis=1).min() < _tol.EXACT:
                raise ModelError("representation is not faithful")

    @property
    def group(self) -> FiniteGroup:
        return self.rep.group

    @property
    def dim(self) -> int:
        return self.rep.dim


@dataclass(eq=False)
class ProjectiveErrorModel:
    """A finite group acting by a projectively faithful irreducible projective rep."""

    rep: ProjectiveRep
    label: str = "M"

    def __post_init__(self) -> None:
        if not is_irreducible(self.rep):
            raise ModelError("model representation must be irreducible")
        if not is_projectively_faithful(self.rep):
            raise ModelError("model representation must be projectively faithful")

    @property
    def group(self) -> FiniteGroup:
        return self.rep.group

    @property
    def cocycle(self) -> Cocycle:
        return self.rep.cocycle

    @property
    def dim(self) -> int:
        return self.rep.dim

    def is_central_type(self) -> bool:
        return self.group.order == self.dim**2


def gen_pauli_model(n: int) -> ProjectiveErrorModel:
    """Generalized Pauli model on Z_n x Z_n: pi(a,b) = X_n^a Z_n^b, dim n."""
    if n < 1:
        raise ModelError("need n >= 1")
    group = direct_product(cyclic(n), cyclic(n))
    group.label = f"Z{n}xZ{n}"
    x, z = clock_shift(n)
    xp = [np.linalg.matrix_power(x, a) for a in range(n)]
    zp = [np.linalg.matrix_power(z, b) for b in range(n)]
    mats = np.array([xp[g // n] @ zp[g % n] for g in range(n * n)])
    return ProjectiveErrorModel(make_rep(group, mats, label="genpauli"), label=f"genpauli:{n}")


def dihedral_xp_model(n: int) -> ProjectiveErrorModel:
    """XP model on the dihedral group of order 2n: pi(b^k a^l) = X^k P^l."""
    if n < 2:
        raise ModelError("need n >= 2")
    group = dihedral(n)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    p = np.diag([1, zeta(n)])
    pp = [np.linalg.matrix_power(p, l) for l in range(n)]
    mats = np.array([np.linalg.matrix_power(x, g // n) @ pp[g % n] for g in range(2 * n)])
    return ProjectiveErrorModel(make_rep(group, mats, label="xp"), label=f"xp:{n}")


def product_model(m1: ProjectiveErrorModel, m2: ProjectiveErrorModel) -> ProjectiveErrorModel:
    """Tensor product model on the direct product group."""
    if m1.dim * m2.dim > max_ambient_dim():
        raise ModelError(
            f"ambient dimension {m1.dim * m2.dim} exceeds cap {max_ambient_dim()}; "
            "raise QECLAB_MAX_DIM to override"
        )
    rep = tensor(m1.rep, m2.rep)
    return ProjectiveErrorModel(rep, label=f"prod({m1.label},{m2.label})")


def _tensor_permutation_matrix(perm: tuple[int, ...], dim: int) -> np.ndarray:
    """Unitary sending e_{i_1} x..x e_{i_n} to the factors rearranged by perm.

    The factor at slot j of the output is the input factor at slot
    perm^-1(j), so these matrices compose covariantly with composition of
    permutations.
    """
    n = len(perm)
    size = dim**n
    moved = np.eye(size).reshape([dim] * n + [size]).transpose([*np.argsort(perm), n])
    return moved.reshape(size, size).astype(complex)


def perm_product_model(model: ProjectiveErrorModel, n: int) -> ProjectiveErrorModel:
    """n-fold tensor power with simultaneous permutation action of S_n."""
    if n < 1:
        raise ModelError("need n >= 1")
    if model.dim**n > max_ambient_dim():
        raise ModelError(
            f"ambient dimension {model.dim ** n} exceeds cap {max_ambient_dim()}; "
            "raise QECLAB_MAX_DIM to override"
        )
    group = permutation_semidirect(model.group, n)
    perms = list(itertools.permutations(range(n)))
    tuples = list(itertools.product(range(model.group.order), repeat=n))
    perm_mats = [_tensor_permutation_matrix(p, model.dim) for p in perms]
    dim = model.dim**n
    mats = np.zeros((group.order, dim, dim), dtype=complex)
    for vi, xs in enumerate(tuples):
        tens = np.eye(1, dtype=complex)
        for xj in xs:
            tens = np.kron(tens, model.rep.matrices[xj])
        for si in range(len(perms)):
            mats[vi * len(perms) + si] = tens @ perm_mats[si]
    return ProjectiveErrorModel(
        make_rep(group, mats, label="permprod"), label=f"permprod({model.label},{n})"
    )


def family_c2_x_d2n(n: int) -> tuple[ProjectiveErrorModel, Subgroup, ProjectiveRep]:
    """The C2 x D_2n family on dim 4, with its designated subgroup and small rep.

    pi(c^k b^l a^m) = swap^k (X + X)^l (P + (-P))^m in 2x2 blocks, with P the
    diagonal phase on the 2n-th root of unity.  Returns the model, the
    D_2n-factor subgroup L, and the XP representation rho of L.
    """
    if n < 2:
        raise ModelError("need n >= 2")
    group = direct_product(cyclic(2), dihedral(2 * n))
    group.label = f"C2xD{2 * n}"
    eye2 = np.eye(2, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    p = np.diag([1, zeta(2 * n)])
    swap = np.kron(flip, eye2)
    xx = np.kron(eye2, flip)
    pm = np.kron(np.diag([1.0, -1.0]), p)
    d_order = 4 * n
    pmp = [np.linalg.matrix_power(pm, m) for m in range(2 * n)]
    mats = np.zeros((group.order, 4, 4), dtype=complex)
    for g in range(group.order):
        k, rest = divmod(g, d_order)
        l, m = divmod(rest, 2 * n)
        mats[g] = np.linalg.matrix_power(swap, k) @ np.linalg.matrix_power(xx, l) @ pmp[m]
    model = ProjectiveErrorModel(make_rep(group, mats, label="c2d2n"), label=f"c2d2n:{n}")
    sub = Subgroup(group, range(d_order))
    pp = [np.linalg.matrix_power(p, m) for m in range(2 * n)]
    rho_mats = np.array(
        [np.linalg.matrix_power(flip, h // (2 * n)) @ pp[h % (2 * n)] for h in range(d_order)]
    )
    rho = make_rep(sub.as_group(), rho_mats, label="rho")
    return model, sub, rho


def family_odd(n: int) -> tuple[ProjectiveErrorModel, Subgroup, ProjectiveRep]:
    """Central-type family on dim 2n over ((Z_n x Z_n) : Z_2) x Z_2, n odd >= 3.

    rho(a,b,c) = X^a Z^b C^c with C the anti-diagonal flip; pi doubles every
    block, with the sign flip on C and the swap as the extra Z_2 generator.
    """
    if n < 3 or n % 2 == 0:
        raise ModelError("need odd n >= 3")
    lgroup = inversion_semidirect(n)
    group = direct_product(lgroup, cyclic(2))
    group.label = f"((C{n}xC{n}):C2)xC2"
    x, z = clock_shift(n)
    c = np.fliplr(np.eye(n, dtype=complex))
    eye2 = np.eye(2, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    xx = np.kron(eye2, x)
    zz = np.kron(eye2, z)
    cc = np.kron(np.diag([1.0, -1.0]), c)
    sw = np.kron(flip, np.eye(n, dtype=complex))
    xxp = [np.linalg.matrix_power(xx, a) for a in range(n)]
    zzp = [np.linalg.matrix_power(zz, b) for b in range(n)]
    mats = np.zeros((group.order, 2 * n, 2 * n), dtype=complex)
    for g in range(group.order):
        li, d = divmod(g, 2)
        a = li // (2 * n)
        b = (li // 2) % n
        cpow = li % 2
        m = xxp[a] @ zzp[b]
        if cpow:
            m = m @ cc
        if d:
            m = m @ sw
        mats[g] = m
    model = ProjectiveErrorModel(make_rep(group, mats, label="oddfam"), label=f"oddfam:{n}")
    sub = Subgroup(group, [2 * l for l in range(lgroup.order)])
    xp = [np.linalg.matrix_power(x, a) for a in range(n)]
    zp = [np.linalg.matrix_power(z, b) for b in range(n)]
    rho_mats = np.zeros((lgroup.order, n, n), dtype=complex)
    for li in range(lgroup.order):
        a = li // (2 * n)
        b = (li // 2) % n
        cpow = li % 2
        m = xp[a] @ zp[b]
        if cpow:
            m = m @ c
        rho_mats[li] = m
    rho = make_rep(sub.as_group(), rho_mats, label="rho")
    return model, sub, rho


def pem_from_em(em: ErrorModel) -> ProjectiveErrorModel:
    """Quotient an error model by its center, acting through coset representatives."""
    center = em.group.center()
    quotient_group, projection = em.group.quotient(center)
    reps = [int(np.where(projection == i)[0].min()) for i in range(quotient_group.order)]
    mats = em.rep.matrices[np.array(reps)]
    return ProjectiveErrorModel(
        make_rep(quotient_group, mats, label="pi"), label=f"pem({em.label})"
    )


def em_from_pem(
    pem: ProjectiveErrorModel,
    sigma_prime: Cocycle,
    f: PhaseFunction,
    n: int | None = None,
) -> ErrorModel:
    """Central extension C_n x_sigma' G with lambda(z, x) = zeta_n^z f(x) pi(x).

    The caller supplies sigma' and f with (df) * sigma = sigma' exactly; the
    existence theory behind that choice is outside this function's scope.
    """
    g = pem.group
    if sigma_prime.group.order != g.order:
        raise ModelError("sigma' lives on a different group")
    if n is None:
        n = sigma_prime.den
    if n < 1 or n % sigma_prime.den != 0:
        raise ModelError(f"sigma' takes values outside the {n}-th roots of unity")
    if len(f.domain) != g.order or not f.is_exact:
        raise ModelError("need an exact phase function on the whole group")
    delta = coboundary(f)
    if Cocycle(g, delta.num, delta.den).multiply(pem.cocycle) != sigma_prime:
        raise ModelError("(df) * sigma != sigma'")
    scale = n // sigma_prime.den
    s_num = sigma_prime.num * scale
    order = n * g.order
    mul = np.zeros((order, order), dtype=np.int64)
    for z1 in range(n):
        base1 = z1 * g.order
        for x1 in range(g.order):
            row = base1 + x1
            zsum = (z1 + np.arange(n)) % n
            phase_shift = s_num[x1]
            for z2 in range(n):
                target_z = (zsum[z2] + phase_shift) % n
                mul[row, z2 * g.order : (z2 + 1) * g.order] = target_z * g.order + g.mul[x1]
    names = [f"(w^{x // g.order}|{g.name_of(x % g.order)})" for x in range(order)]
    egroup = group_from_mul_table(mul, label=f"C{n}x~{g.label}", element_names=names)
    root = zeta(n) if n > 1 else 1.0
    mats = np.zeros((order, pem.dim, pem.dim), dtype=complex)
    for idx in range(order):
        z, x = divmod(idx, g.order)
        mats[idx] = (root**z) * f.values[x] * pem.rep.matrices[x]
    return ErrorModel(make_rep(egroup, mats, label="lambda"), label=f"em({pem.label})")


# -- the order-8 dihedral character table ------------------------------------

D4_COLUMN_NAMES = ["1", "a", "a^3", "a^2", "b", "a^2 b", "a b", "a^3 b"]
# group element indices for those columns in the dihedral(4) numbering
# (a^j b = b a^{-j}):
_D4_COLUMNS = [0, 1, 3, 2, 4, 6, 7, 5]

_D4_ROW_NAMES = ["rho1", "rho2", "rho3", "rho4", "rho5", "chi1", "chi2"]


def d4_expected_table() -> dict[str, list[complex]]:
    """The frozen reference table for the order-8 dihedral group."""
    i = 1j
    return {
        "rho1": [1, 1, 1, 1, 1, 1, 1, 1],
        "rho2": [1, 1, 1, 1, -1, -1, -1, -1],
        "rho3": [1, -1, -1, 1, 1, 1, -1, -1],
        "rho4": [1, -1, -1, 1, -1, -1, 1, 1],
        "rho5": [2, 0, 0, -2, 0, 0, 0, 0],
        "chi1": [2, 1 + i, 1 - i, 0, 0, 0, 0, 0],
        "chi2": [2, -1 - i, -1 + i, 0, 0, 0, 0, 0],
    }


def d4_character_table() -> dict[str, list[complex]]:
    """Characters of the five ordinary irreducibles of D4 plus the two
    projective characters of the XP model, computed from explicit matrices."""
    model = dihedral_xp_model(4)
    group = model.group

    def linear_rep(a_val: complex, b_val: complex) -> np.ndarray:
        return np.array(
            [[[a_val ** (g % 4) * b_val ** (g // 4)]] for g in range(8)], dtype=complex
        )

    a5 = np.array([[0, -1], [1, 0]], dtype=complex)
    b5 = np.array([[1, 0], [0, -1]], dtype=complex)
    rho5 = np.array(
        [
            np.linalg.matrix_power(b5, g // 4) @ np.linalg.matrix_power(a5, g % 4)
            for g in range(8)
        ]
    )
    reps = {
        "rho1": make_rep(group, linear_rep(1, 1)),
        "rho2": make_rep(group, linear_rep(1, -1)),
        "rho3": make_rep(group, linear_rep(-1, 1)),
        "rho4": make_rep(group, linear_rep(-1, -1)),
        "rho5": make_rep(group, rho5),
    }
    rho3_phases = PhaseFunction.exact(
        group.full_subgroup(),
        [Phase(0, 1) if g % 4 % 2 == 0 else Phase(1, 2) for g in range(8)],
    )
    table: dict[str, list[complex]] = {}
    for name, rep in reps.items():
        values = rep.character().values
        table[name] = [complex(values[c]) for c in _D4_COLUMNS]
    chi1 = model.rep.character().values
    chi2 = model.rep.twist(rho3_phases).character().values
    table["chi1"] = [complex(chi1[c]) for c in _D4_COLUMNS]
    table["chi2"] = [complex(chi2[c]) for c in _D4_COLUMNS]
    return table
