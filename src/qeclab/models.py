"""Catalog of error models and projective error models.

Every constructor returns validated objects: an ErrorModel wraps a faithful
irreducible linear representation, a ProjectiveErrorModel wraps a
projectively faithful irreducible projective representation.  The fixed
primitive root of unity is always exp(2*pi*i/n), which keeps characters and
cocycle tables byte-stable across runs.

Every catalog rep is a table of generator words: the element with
mixed-radix digits d = (d_0, d_1, ...), first digit most significant, acts
by g_0^d_0 g_1^d_1 ..., multiplied left to right (see _words).
"""

from __future__ import annotations

import functools
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


def _words(radices: tuple[int, ...], gens) -> np.ndarray:
    """One matrix per digit tuple d in mixed radix, first digit most
    significant: gens[0]^d_0 @ gens[1]^d_1 @ ..., multiplied left to right,
    as one batched product per radix: the words of the first i digits,
    each times every power of gens[i], are the words of i + 1 digits."""
    words = None
    for r, g in zip(radices, gens):
        powers = np.array([np.linalg.matrix_power(g, k) for k in range(r)])
        if words is not None:
            powers = (words[:, None] @ powers).reshape(-1, *powers.shape[1:])
        words = powers
    return words


def gen_pauli_model(n: int) -> ProjectiveErrorModel:
    """Generalized Pauli model on Z_n x Z_n: pi(a,b) = X_n^a Z_n^b, dim n."""
    if n < 1:
        raise ModelError("need n >= 1")
    group = direct_product(cyclic(n), cyclic(n))
    group.label = f"Z{n}xZ{n}"
    mats = _words((n, n), clock_shift(n))
    return ProjectiveErrorModel(make_rep(group, mats, label="genpauli"), label=f"genpauli:{n}")


def dihedral_xp_model(n: int) -> ProjectiveErrorModel:
    """XP model on the dihedral group of order 2n: pi(b^k a^l) = X^k P^l."""
    if n < 2:
        raise ModelError("need n >= 2")
    mats = _words((2, n), _xp_generators(n))
    return ProjectiveErrorModel(make_rep(dihedral(n), mats, label="xp"), label=f"xp:{n}")


def _xp_generators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """X and the phase gate P = diag(1, zeta(n)) on C^2."""
    return np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1, zeta(n)])


def _check_dim(dim: int) -> None:
    """ModelError when a product's ambient dimension exceeds the cap."""
    if dim > (cap := max_ambient_dim()):
        raise ModelError(f"ambient dimension {dim} exceeds cap {cap}; raise QECLAB_MAX_DIM to override")


def product_model(m1: ProjectiveErrorModel, m2: ProjectiveErrorModel) -> ProjectiveErrorModel:
    """Tensor product model on the direct product group."""
    _check_dim(m1.dim * m2.dim)
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
    _check_dim(model.dim**n)
    group = permutation_semidirect(model.group, n)
    perms = itertools.permutations(range(n))
    perm_mats = np.array([_tensor_permutation_matrix(p, model.dim) for p in perms])
    # kron of the stacks is the stack of kron products, tuples in mixed radix
    tens = functools.reduce(np.kron, [model.rep.matrices] * n)
    mats = (tens[:, None] @ perm_mats[None]).reshape(group.order, *perm_mats.shape[1:])
    return ProjectiveErrorModel(
        make_rep(group, mats, label="permprod"), label=f"permprod({model.label},{n})"
    )


def family_c2_x_d2n(n: int) -> tuple[ProjectiveErrorModel, Subgroup, ProjectiveRep]:
    """The C2 x D_2n family on dim 4, with its designated subgroup and small rep.

    pi(c^k b^l a^m) = swap^k (X + X)^l (P + (-P))^m in 2x2 blocks, with P the
    diagonal phase on the 2n-th root of unity.  Returns the model, the
    D_2n-factor subgroup L, and the XP representation rho of L.
    """
    model = _c2_x_d2n_model(n)
    return (model, *_c2_x_d2n_code(model))


def _c2_x_d2n_model(n: int) -> ProjectiveErrorModel:
    """family_c2_x_d2n's model alone."""
    if n < 2:
        raise ModelError("need n >= 2")
    group = direct_product(cyclic(2), dihedral(2 * n))
    group.label = f"C2xD{2 * n}"
    eye2 = np.eye(2, dtype=complex)
    flip, p = _xp_generators(2 * n)
    gens = [np.kron(flip, eye2), np.kron(eye2, flip), np.kron(np.diag([1.0, -1.0]), p)]
    mats = _words((2, 2, 2 * n), gens)
    return ProjectiveErrorModel(make_rep(group, mats, label="c2d2n"), label=f"c2d2n:{n}")


def _c2_x_d2n_code(model: ProjectiveErrorModel) -> tuple[Subgroup, ProjectiveRep]:
    """family_c2_x_d2n's (L, rho) on the group of its model, of order 8n."""
    n = model.group.order // 8
    sub = Subgroup(model.group, range(4 * n))
    return sub, make_rep(sub.as_group(), _words((2, 2 * n), _xp_generators(2 * n)), label="rho")


def family_odd(n: int) -> tuple[ProjectiveErrorModel, Subgroup, ProjectiveRep]:
    """Central-type family on dim 2n over ((Z_n x Z_n) : Z_2) x Z_2, n odd >= 3.

    rho(a,b,c) = X^a Z^b C^c with C the anti-diagonal flip; pi doubles every
    block, with the sign flip on C and the swap as the extra Z_2 generator.
    """
    model = _odd_model(n)
    return (model, *_odd_code(model))


def _odd_model(n: int) -> ProjectiveErrorModel:
    """family_odd's model alone."""
    if n < 3 or n % 2 == 0:
        raise ModelError("need odd n >= 3")
    group = direct_product(inversion_semidirect(n), cyclic(2))
    group.label = f"((C{n}xC{n}):C2)xC2"
    x, z, c = _odd_generators(n)
    eye2 = np.eye(2, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    doubled = [np.kron(eye2, x), np.kron(eye2, z), np.kron(np.diag([1.0, -1.0]), c)]
    swap = np.kron(flip, np.eye(n, dtype=complex))
    mats = _words((n, n, 2, 2), [*doubled, swap])
    return ProjectiveErrorModel(make_rep(group, mats, label="oddfam"), label=f"oddfam:{n}")


def _odd_code(model: ProjectiveErrorModel) -> tuple[Subgroup, ProjectiveRep]:
    """family_odd's (L, rho) on the group of its model, of dim 2n."""
    n = model.dim // 2
    sub = Subgroup(model.group, range(0, model.group.order, 2))
    return sub, make_rep(sub.as_group(), _words((n, n, 2), _odd_generators(n)), label="rho")


def _odd_generators(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho's X, Z and the anti-diagonal flip C on C^n."""
    return (*clock_shift(n), np.fliplr(np.eye(n, dtype=complex)))


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
    # element z * |G| + x is (w^z, x), and (w^z1, x1)(w^z2, x2) = (w^(z1+z2+s'(x1,x2)), x1 x2)
    z, x = np.divmod(np.arange(order), g.order)
    pairs = np.ix_(x, x)
    mul = ((z[:, None] + z[None, :] + s_num[pairs]) % n) * g.order + g.mul[pairs]
    names = [f"(w^{a}|{g.name_of(b)})" for a, b in zip(z, x)]
    egroup = group_from_mul_table(mul, label=f"C{n}x~{g.label}", element_names=names)
    root = zeta(n) if n > 1 else 1.0
    # scalar products, one per element: numpy's array multiply may round differently
    scales = np.array([root ** (i // g.order) * f.values[i % g.order] for i in range(order)])
    mats = scales[:, None, None] * pem.rep.matrices[x]
    return ErrorModel(make_rep(egroup, mats, label="lambda"), label=f"em({pem.label})")


# -- the order-8 dihedral character table ------------------------------------

D4_COLUMN_NAMES = ["1", "a", "a^3", "a^2", "b", "a^2 b", "a b", "a^3 b"]
# group element indices for those columns in the dihedral(4) numbering
# (a^j b = b a^{-j}):
_D4_COLUMNS = [0, 1, 3, 2, 4, 6, 7, 5]


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

    # b^k a^l is element 4k + l; the linear reps send a and b to signs
    reps = {
        f"rho{i}": make_rep(group, _words((2, 4), [[[b]], [[a]]]))
        for i, (a, b) in enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)], start=1)
    }
    b5 = np.array([[1, 0], [0, -1]], dtype=complex)
    a5 = np.array([[0, -1], [1, 0]], dtype=complex)
    reps["rho5"] = make_rep(group, _words((2, 4), [b5, a5]))
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
