"""Projective representations of finite groups as explicit matrix tables.

A projective representation keeps one unitary per group element together
with its exactly-snapped cocycle, so pi(x)pi(y) = sigma(x,y) pi(xy) holds
to _tol.EXACT with sigma a table of exact rational phases.  Restriction,
induction, tensor products, conjugates, and inertia groups all stay at the
level of concrete matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _tol
from ._linalg import compress, scalar_deviation
from .cocycles import (
    Cocycle,
    Phase,
    PhaseFunction,
    PhaseSnapError,
    coboundary,
    snap_phase,
    snap_phase_or_none,
)
from .groups import FiniteGroup, Subgroup

__all__ = [
    "ProjectiveRep",
    "Character",
    "MakeRepError",
    "make_rep",
    "rep_from_phase_function",
    "character",
    "inner_product",
    "is_irreducible",
    "is_projectively_faithful",
    "hom_space",
    "restrict",
    "tensor",
    "induce",
    "conjugate_rep",
    "inertia_group",
    "frobenius_dims",
    "mackey_character_defect",
]

# Most complex entries (256 KiB) in one block of pi(x) pi(y) products.  A
# block and its temporaries stay in cache; 1 MiB blocks made make_rep's
# checks slower than one row at a time on order-54 and order-64 reps.
_PRODUCT_BLOCK_ENTRIES = 2**14


class MakeRepError(ValueError):
    """Raised when matrices fail the projective representation contract."""


class ProjectiveRep:
    """Unitary matrices indexed by group elements with a cached cocycle."""

    def __init__(
        self,
        group: FiniteGroup,
        matrices: np.ndarray,
        cocycle: Cocycle,
        label: str = "pi",
        validate: bool = True,
    ):
        self.group = group
        self.matrices = np.asarray(matrices, dtype=complex)
        self.cocycle = cocycle
        self.label = label
        if self.matrices.shape[0] != group.order or self.matrices.shape[1] != self.matrices.shape[2]:
            raise MakeRepError("need one square matrix per group element")
        self.dim = self.matrices.shape[1]
        if validate:
            self._validate()

    def _validate(self) -> None:
        """Unitarity, the cocycle identity, then pi(x)pi(y) = sigma(x,y) pi(xy)
        for every pair, naming the first failing x.

        The products come block by block from _row_products, as transposed
        views that are subtracted from the gathered block sigma(x,y) pi(xy),
        which stays contiguous at [x, y, i, j].
        """
        m = self.matrices
        n, dim = m.shape[0], self.dim
        gram = m @ m.conj().transpose(0, 2, 1)
        gram -= np.eye(dim)
        if np.linalg.norm(gram, axis=(1, 2)).max() >= _tol.EXACT:
            worst = np.abs(gram).max()
            raise MakeRepError(f"matrices are not unitary (deviation {worst:.2e})")
        if not self.cocycle.verify():
            raise MakeRepError("cached cocycle violates the cocycle identity")
        phases = self.cocycle.to_complex_table()
        mul = self.group.mul
        for rows, products in _row_products(m):
            diff = m[mul[rows]]
            diff *= phases[rows, :, None, None]
            diff -= products
            parts = diff.view(np.float64).reshape(len(diff), n, -1)
            devs = np.sqrt(np.einsum("xyk,xyk->xy", parts, parts)).max(axis=1)
            bad = np.flatnonzero(devs >= _tol.EXACT)
            if bad.size:
                x = rows.start + int(bad[0])
                raise MakeRepError(
                    f"pi(x)pi(y) != sigma(x,y) pi(xy) at x={x} (deviation {devs[bad[0]]:.2e})"
                )

    def matrix(self, x: int) -> np.ndarray:
        return self.matrices[x]

    def character(self) -> "Character":
        values = np.einsum("naa->n", self.matrices)
        return Character(self.group, values, self.cocycle)

    def restrict(self, sub: Subgroup) -> "ProjectiveRep":
        mem = np.array(sub.members)
        return ProjectiveRep(
            sub.as_group(),
            self.matrices[mem],
            self.cocycle.restrict(sub),
            label=f"{self.label}|H",
            validate=False,
        )

    def on_subspace(self, basis: np.ndarray) -> "ProjectiveRep":
        """The action basis* pi(x) basis on the span of orthonormal columns.

        On an invariant subspace it multiplies with this rep's cocycle
        exactly, so it is validated against that cocycle, not snapped: a
        snap would need this cocycle's denominator, which can exceed 4|G|.
        Raises MakeRepError when the subspace is not invariant.
        """
        return ProjectiveRep(self.group, compress(self.matrices, basis), self.cocycle)

    def twist(self, f: PhaseFunction) -> "ProjectiveRep":
        """Multiply by a phase function on the whole group; the cocycle picks up df."""
        if len(f.domain) != self.group.order:
            raise ValueError("twist needs a phase function on the whole group")
        if not f.is_exact:
            raise ValueError("twist needs exact phases")
        delta = coboundary(f)
        return ProjectiveRep(
            self.group,
            f.values[:, None, None] * self.matrices,
            self.cocycle.multiply(Cocycle(self.group, delta.num, delta.den)),
            label=f"{self.label}*f",
            validate=False,
        )

    def to_json(self) -> dict:
        mats = [
            [[[float(v.real), float(v.imag)] for v in row] for row in m]
            for m in self.matrices
        ]
        return {
            "order": self.group.order,
            "dim": self.dim,
            "matrices": mats,
            "cocycle": self.cocycle.to_json(),
        }

    @classmethod
    def from_json(cls, group: FiniteGroup, data: dict) -> "ProjectiveRep":
        """Read to_json's form; files without a "cocycle" key are snapped by make_rep."""
        mats = np.array(
            [[[complex(v[0], v[1]) for v in row] for row in m] for m in data["matrices"]]
        )
        if "cocycle" not in data:
            return make_rep(group, mats)
        return cls(group, mats, Cocycle.from_json(group, data["cocycle"]))

    def __repr__(self) -> str:
        return f"ProjectiveRep({self.label}, order={self.group.order}, dim={self.dim})"


@dataclass
class Character:
    group: FiniteGroup
    values: np.ndarray
    cocycle: Cocycle

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        at_identity = self.values[self.group.identity]
        nearest = round(at_identity.real)
        if abs(at_identity - nearest) > _tol.EXACT or nearest < 1:
            raise ValueError("character value at the identity must be the dimension")


def make_rep(group: FiniteGroup, matrices, label: str = "pi") -> ProjectiveRep:
    """Build a rep from raw matrices, extracting the cocycle exactly.

    The scalar tr(pi(x) pi(y) pi(xy)^-1)/dim is snapped to a rational phase
    with denominator at most 4|G|, but only on the rows x in {identity} and
    group.greedy_generators(): 1 + r rows of n instead of all n.  Every other
    row is filled exactly, as integer numerators mod the common denominator,
    along a breadth-first walk of the right Cayley graph from those rows
    (see _fill_cocycle): for a generator g,
        sigma(xg, y) = sigma(x, gy) + sigma(g, y) - sigma(x, g)   (in turns),
    which is the cocycle identity sigma(x,g) sigma(xg,y) = sigma(x,gy)
    sigma(g,y).  The filled table is refused if any entry's reduced
    denominator exceeds 4|G|, and is then validated with every pair (x, y)
    by ProjectiveRep._validate.

    That cocycle is the one that snapping every scalar gives.  Suppose the
    all-pairs check passes with sigma'.  Then every raw scalar lies within
    _tol.EXACT/sqrt(dim) of sigma'(x, y), and the denominator guard puts
    sigma' among the phases of denominator at most 4|G|.  Distinct such
    phases lie at least 2*pi/(16 n^2) apart on the circle, more than twice
    _tol.EXACT (1e-9) for every order n below 14,000, so no scalar lies
    within tolerance of two of them, and snapping each scalar returns
    sigma'.  The check stays all-pairs: checking the generators alone in
    floating point would bound the other pairs only by word length times
    _tol.EXACT.

    When the generator-row snap, the guard or the validation raises
    MakeRepError, all n^2 scalars are snapped and that table is validated
    instead, so every error names the first failing (x, y) in row-major
    order.  Either way snap_phase runs once per distinct scalar, and every
    scalar is then checked against its value's phase (see _snap_scalars).
    """
    matrices = np.asarray(matrices, dtype=complex)
    n = group.order
    if matrices.shape[0] != n:
        raise MakeRepError("need one matrix per group element")
    gens = group.greedy_generators()
    rows = [group.identity, *gens]
    try:
        num, den = _snap_scalars(_raw_scalars(group, matrices, rows), 4 * n)
        num = _fill_cocycle(group, gens, num, den)
        if (den // np.gcd(num, den)).max() > 4 * n:
            raise MakeRepError("filled cocycle has a denominator above 4|G|")
        return ProjectiveRep(group, matrices, Cocycle(group, num, den), label=label)
    except MakeRepError:
        pass
    num, den = _snap_scalars(_raw_scalars(group, matrices), 4 * n)
    return ProjectiveRep(group, matrices, Cocycle(group, num, den), label=label)


def _fill_cocycle(group: FiniteGroup, gens: list[int], head: np.ndarray, den: int) -> np.ndarray:
    """The n x n numerator table from its rows at the identity and gens.

    head holds those rows, in that order, as numerators over den.  Rows are
    reached breadth first by right multiplication with the generators, one
    whole level per generator in one array operation:
    sigma(xg, .) = sigma(x, g .) + sigma(g, .) - sigma(x, g), mod den.
    """
    mul = group.mul
    num = np.empty((group.order, group.order), dtype=np.int64)
    done = np.zeros(group.order, dtype=bool)
    frontier = np.array([group.identity, *gens], dtype=np.int64)
    num[frontier] = head
    done[frontier] = True
    while frontier.size:
        reached = []
        for g in gens:
            targets = mul[frontier, g]
            fresh = ~done[targets]
            targets, first = np.unique(targets[fresh], return_index=True)
            src = frontier[fresh][first]
            num[targets] = (num[src][:, mul[g]] + num[g] - num[src, g][:, None]) % den
            done[targets] = True
            reached.append(targets)
        frontier = np.concatenate(reached) if reached else frontier[:0]
    return num


def _raw_scalars(group: FiniteGroup, matrices: np.ndarray, rows=None) -> np.ndarray:
    """tr(pi(x) pi(y) pi(xy)^*) / dim for x in rows (every x when None) and
    every y, one row per x, from _row_products."""
    n, dim = matrices.shape[0], matrices.shape[1]
    left, mul = (matrices, group.mul) if rows is None else (matrices[rows], group.mul[rows])
    flat_conj = matrices.reshape(n, -1).conj()
    raw = np.empty((len(left), n), dtype=complex)
    for block, products in _row_products(left, matrices):
        flat = products.reshape(len(products), n, -1)
        raw[block] = np.einsum("xyk,xyk->xy", flat, flat_conj[mul[block]]) / dim
    return raw


def _row_products(m: np.ndarray, right: np.ndarray | None = None):
    """Yield (slice(a, b), products) over consecutive row blocks of m, with
    products[x - a, y] = m[x] @ right[y]; right defaults to m.

    Each block is one matmul: the rows (x, i) of the block against right
    stacked as one d x (n d) matrix, [k, (y, j)] = right[y][k, j], give
    m[x] @ right[y] at [x, i, y, j], yielded as a transposed view indexed
    [x, y, i, j].  A block holds at most _PRODUCT_BLOCK_ENTRIES complex
    entries (one row at least), so the products are formed in few calls
    without holding all of them at once.
    """
    right = m if right is None else right
    n, dim = right.shape[0], right.shape[1]
    wide = right.transpose(1, 0, 2).reshape(dim, n * dim)
    rows = max(1, _PRODUCT_BLOCK_ENTRIES // (n * dim * dim))
    for a in range(0, len(m), rows):
        block = m[a : a + rows]
        products = (block.reshape(-1, dim) @ wide).reshape(len(block), dim, n, dim)
        yield slice(a, a + len(block)), products.transpose(0, 2, 1, 3)


def _snap_scalars(raw: np.ndarray, max_den: int) -> tuple[np.ndarray, int]:
    """snap_phase on every entry of raw, as numerators over one denominator.

    Entries are grouped by their angle rounded to 2^-32 of a turn, and
    snap_phase runs once per group.  Each entry is then checked, as
    snap_phase checks it, against its group's phase.  Entries that fail go
    through snap_phase one by one, in row-major order, and the first that
    snap_phase rejects raises MakeRepError.
    """
    flat = raw.ravel()
    keys = np.round(np.angle(flat) * (2.0**32 / (2 * np.pi)))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    phases = [snap_phase_or_none(complex(flat[i]), max_den) for i in first]
    snapped = np.array([p is not None for p in phases])
    values = np.array([p.to_complex() if p is not None else 0.0 for p in phases])
    with np.errstate(divide="ignore", invalid="ignore"):
        modulus = np.abs(flat)
        ok = (
            snapped[inverse]
            & (np.abs(modulus - 1.0) <= _tol.SCAN)
            & (np.abs(values[inverse] - flat / modulus) <= _tol.EXACT)
        )
    own: dict[int, Phase] = {}
    for i in np.flatnonzero(~ok):
        try:
            own[int(i)] = snap_phase(complex(flat[i]), max_den)
        except PhaseSnapError as exc:
            x, y = divmod(int(i), raw.shape[1])
            raise MakeRepError(
                f"scalar snap failed at ({x},{y}): matrices do not form a projective rep ({exc})"
            ) from exc
    den = math.lcm(*(p.den for p in phases if p is not None), *(p.den for p in own.values()))
    nums = np.array([p.num * (den // p.den) if p is not None else 0 for p in phases], dtype=np.int64)
    num = nums[inverse]
    for i, p in own.items():
        num[i] = p.num * (den // p.den)
    return num.reshape(raw.shape), den


def rep_from_phase_function(f: PhaseFunction) -> ProjectiveRep:
    """A phase function on H as a 1-dimensional rep of H with cocycle df."""
    if not f.is_exact:
        raise ValueError("need exact phases to form the 1-dimensional rep")
    group = f.domain.as_group()
    delta = coboundary(f)
    return ProjectiveRep(
        group, f.values[:, None, None].copy(), delta, label="f", validate=False
    )


def character(rep: ProjectiveRep) -> Character:
    return rep.character()


def inner_product(c1: Character, c2: Character) -> complex:
    """(1/|G|) sum chi1(x) conj(chi2(x)); counts intertwiners for same-cocycle reps."""
    if c1.group.order != c2.group.order:
        raise ValueError("characters on groups of different order")
    if c1.cocycle != c2.cocycle:
        raise ValueError("characters carry different cocycles")
    return complex(np.mean(c1.values * np.conj(c2.values)))


def is_irreducible(rep: ProjectiveRep) -> bool:
    chi = rep.character()
    return abs(inner_product(chi, chi) - 1) <= _tol.DERIVED


def is_projectively_faithful(rep: ProjectiveRep) -> bool:
    _, dev = scalar_deviation(rep.matrices)
    return list(np.flatnonzero(dev < _tol.EXACT)) == [rep.group.identity]


def hom_space(r1: ProjectiveRep, r2: ProjectiveRep) -> list[np.ndarray]:
    """Orthonormal basis of {T : r2(x) T = T r1(x) for all x}.

    T is read row-major as a vector of length d2*d1, so the map
    T -> r2(x) T r1(x)* is the matrix kron(r2(x), conj(r1(x))), and the
    Reynolds average of _reynolds is the d2*d1 x d2*d1 matrix
    R = (1/n) sum_x kron(r2(x), conj(r1(x))).  R is the matrix of the
    orthogonal projector onto Hom(r1, r2), so it is Hermitian and
    idempotent and its eigenvalues are 0 or 1 up to rounding: the cut at
    1/2 cannot misplace one.  The eigenvectors above the cut, read as
    d2 x d1 matrices, are an orthonormal basis of Hom.  Their number is
    checked against the character count _intertwiner_count, which callers
    that need only the dimension use directly.
    """
    if r1.group.order != r2.group.order:
        raise ValueError("reps on groups of different order")
    if r1.cocycle != r2.cocycle:
        raise ValueError("cocycle mismatch")
    m1, m2 = r1.matrices, r2.matrices
    n, d1, d2 = len(m1), r1.dim, r2.dim
    # one GEMM gives sum_x r2(x)[i, j] conj(r1(x))[a, b] at [(i, j), (a, b)]
    sums = m2.reshape(n, d2 * d2).T @ m1.conj().reshape(n, d1 * d1)
    projector = sums.reshape(d2, d2, d1, d1).transpose(0, 2, 1, 3).reshape(d2 * d1, d2 * d1) / n
    values, vectors = np.linalg.eigh(projector)
    basis = [v.reshape(d2, d1) for v in vectors[:, values > 0.5].T]
    expected = _intertwiner_count(r1, r2)
    if len(basis) != expected:
        raise RuntimeError(
            f"hom space dimension {len(basis)} disagrees with character count {expected}"
        )
    return basis


def _reynolds(r1: ProjectiveRep, r2: ProjectiveRep, a: np.ndarray) -> np.ndarray:
    """(1/n) sum_x r2(x) a r1(x)*: the orthogonal projection of a onto Hom(r1, r2).

    For reps with one cocycle sigma, r2(y) T r1(y)* = T for every y, because
    r2(y) r2(x) = sigma(y,x) r2(yx), r1(x)* r1(y)* = conj(sigma(y,x)) r1(yx)*
    and x -> yx permutes the group (Serre, Linear Representations of Finite
    Groups, 2.6).  The map fixes every intertwiner and is a mean of unitary
    maps, so it is the orthogonal projector onto Hom(r1, r2).  hom_space
    diagonalizes the same map written as a matrix.
    """
    if r1.cocycle != r2.cocycle:
        raise ValueError("cocycle mismatch")
    m1 = r1.matrices
    return np.tensordot(r2.matrices @ a, m1.conj(), axes=([0, 2], [0, 2])) / len(m1)


def _intertwiner_count(r1: ProjectiveRep, r2: ProjectiveRep) -> int:
    """dim Hom(r1, r2) for reps with one cocycle: <chi_r1, chi_r2> as an integer."""
    total = inner_product(r1.character(), r2.character())
    nearest = round(total.real)
    if abs(total - nearest) > _tol.DERIVED * max(1, nearest):
        raise RuntimeError(f"character count {total.real:.6f} is not an integer")
    return nearest


def restrict(rep: ProjectiveRep, sub: Subgroup) -> ProjectiveRep:
    return rep.restrict(sub)


def tensor(r1: ProjectiveRep, r2: ProjectiveRep) -> ProjectiveRep:
    """Outer tensor product on the direct product group."""
    from .groups import direct_product

    g = direct_product(r1.group, r2.group)
    n1, n2 = r1.group.order, r2.group.order
    d1, d2 = r1.dim, r2.dim
    mats = np.einsum("xab,ycd->xyacbd", r1.matrices, r2.matrices)
    mats = mats.reshape(n1 * n2, d1 * d2, d1 * d2)
    den1, den2 = r1.cocycle.den, r2.cocycle.den
    den = math.lcm(den1, den2)
    num = (
        np.add.outer(r1.cocycle.num * (den // den1), r2.cocycle.num * (den // den2))
        .transpose(0, 2, 1, 3)
        .reshape(n1 * n2, n1 * n2)
    ) % den
    return ProjectiveRep(
        g, mats, Cocycle(g, num, den), label=f"{r1.label}(x){r2.label}", validate=False
    )


def induce(theta: ProjectiveRep, sub: Subgroup, sigma: Cocycle) -> ProjectiveRep:
    """Induced representation on sub.parent along the cocycle sigma.

    Basis vectors are r (x) e_i over coset representatives r (identity coset
    first); for x*s = r'*h the action is
    x.(s (x) v) = sigma(x,s) conj(sigma(r',h)) (r' (x) theta(h) v).

    The scale of each block is read, by its integer numerator
    sigma(x,s) - sigma(r',h) mod den, from a table of Phase(k, den) values,
    so it is the exact Phase product, quarter turns included.  The result
    is validated on every pair against sigma itself: no cocycle is snapped.
    """
    g = sub.parent
    if sigma.group.order != g.order:
        raise ValueError("cocycle lives on a different group")
    if sigma.restrict(sub) != theta.cocycle:
        raise ValueError("theta's cocycle is not the restriction of sigma")
    reps = np.array(g.coset_representatives(sub))
    mem = np.array(sub.members)
    q, dt, n = len(reps), theta.dim, g.order
    rep_pos = np.empty(n, dtype=np.int64)
    h_pos = np.empty(n, dtype=np.int64)
    cosets = g.mul[np.ix_(reps, mem)]               # [ri, hi] = r h
    rep_pos[cosets] = np.arange(q)[:, None]
    h_pos[cosets] = np.arange(len(mem))[None, :]
    ends = g.mul[:, reps]                           # [x, si] = x s = r' h
    ri, hi = rep_pos[ends], h_pos[ends]
    den = sigma.den
    turns = (sigma.num[:, reps] - sigma.num[reps[ri], mem[hi]]) % den
    scales = np.array([Phase(k, den).to_complex() for k in range(den)])[turns]
    blocks = scales[:, :, None, None] * theta.matrices[hi]
    mats = np.zeros((n, q, dt, q, dt), dtype=complex)
    mats[np.arange(n)[:, None], ri, :, np.arange(q)[None, :], :] = blocks
    return ProjectiveRep(g, mats.reshape(n, q * dt, q * dt), sigma, label=f"Ind({theta.label})")


def _conjugation(sub: Subgroup, x, sigma: Cocycle) -> tuple[np.ndarray, np.ndarray]:
    """theta^x(y) = s theta(z) on the members y of sub, z = x^-1 y x, as (pos, s).

    pos is the position of z in sub, -1 where z is not in sub.  The scale
    s = sigma(x^-1, y) conj(sigma(z, x^-1)) is read, by its integer numerator
    mod den, from a table of Phase(k, den) values as induce reads its scales,
    so it is the exact Phase product.  x is one element or an array of them,
    with one row of each result per element.
    """
    g = sub.parent
    mem = np.array(sub.members)
    xs = np.asarray(x)
    xi = g.inv[xs]
    z = g.mul[g.mul[xi][..., mem], xs[..., None]]
    pos = np.full(g.order, -1, dtype=np.int64)
    pos[mem] = np.arange(len(mem))
    den = sigma.den
    turns = (sigma.num[xi][..., mem] - sigma.num[z, xi[..., None]]) % den
    scales = np.array([Phase(k, den).to_complex() for k in range(den)])[turns]
    return pos[z], scales


def conjugate_rep(theta: ProjectiveRep, sub: Subgroup, x: int, sigma: Cocycle) -> ProjectiveRep:
    """theta^x(y) = sigma(x^-1,y) conj(sigma(x^-1 y x, x^-1)) theta(x^-1 y x)."""
    pos, scales = _conjugation(sub, x, sigma)
    if (pos < 0).any():
        raise ValueError("subgroup is not stable under conjugation by x")
    mats = scales[:, None, None] * theta.matrices[pos]
    return ProjectiveRep(
        sub.as_group(), mats, theta.cocycle, label=f"{theta.label}^x", validate=False
    )


def inertia_group(theta: ProjectiveRep, sub: Subgroup, sigma: Cocycle) -> Subgroup:
    """I_G(theta) = {x normalizing H : theta^x isomorphic to theta}.

    Isomorphism is decided by character equality, valid because conjugates
    keep the same cocycle.  Every x of G is conjugated in one array pass.
    """
    g = sub.parent
    chi = theta.character().values
    pos, scales = _conjugation(sub, np.arange(g.order), sigma)
    normalizes = (pos >= 0).all(axis=1)
    same = np.abs(scales * chi[pos] - chi).max(axis=1) <= _tol.DERIVED
    return g._intern(np.flatnonzero(normalizes & same))


def frobenius_dims(theta: ProjectiveRep, sub: Subgroup, pi: ProjectiveRep) -> tuple[int, int]:
    """Both sides of Frobenius reciprocity as intertwiner-space dimensions.

    Each side is len(hom_space(...)), a count of the Reynolds projector's
    eigenvalues above 1/2, so the equality is checked independently of the
    character count that hom_space compares it with.
    """
    ind = induce(theta, sub, pi.cocycle)
    lhs = len(hom_space(ind, pi))
    rhs = len(hom_space(theta, pi.restrict(sub)))
    return lhs, rhs


def mackey_character_defect(f: PhaseFunction, pi: ProjectiveRep) -> float:
    """Deviation in the Mackey identity for a 1-dim f on a normal subgroup.

    With l = dim Hom(f, Res pi) > 0, the character of Res_N pi must equal
    l * sum over coset representatives r of I_G(f) of the character of f^r.
    """
    sub = f.domain
    if not sub.is_normal():
        raise ValueError("Mackey check needs a normal subgroup")
    theta = rep_from_phase_function(f)
    res = pi.restrict(sub)
    if theta.cocycle != res.cocycle:
        raise ValueError("df is not the restricted cocycle")
    ell = _intertwiner_count(theta, res)
    if ell == 0:
        raise ValueError("f does not occur in the restriction")
    inertia = inertia_group(theta, sub, pi.cocycle)
    reps = sub.parent.coset_representatives(inertia)
    pos, scales = _conjugation(sub, np.array(reps), pi.cocycle)
    total = (scales * theta.character().values[pos]).sum(axis=0)
    lhs = res.character().values
    return float(np.abs(lhs - ell * total).max())
