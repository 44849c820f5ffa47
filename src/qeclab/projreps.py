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
from typing import NamedTuple

import numpy as np

from . import _tol
from ._linalg import compressed_action, scalar_deviation
from .cocycles import (
    Cocycle,
    PhaseFunction,
    PhaseSnapError,
    _phase_values,
    _snap_phases,
    coboundary,
    snap_phase,
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
        self._character: Character | None = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        """Unitarity, the cocycle identity, then pi(x)pi(y) = sigma(x,y) pi(xy)
        on the Cayley edges, and on every pair when an edge fails.

        The edges are the pairs (x, c) with c in walk.cols = [identity,
        *gens] of the group's cached walk.  When every edge deviates by less
        than _edge_tolerance, every pair deviates by less than _tol.EXACT
        (see make_rep for the bound), and the rep is accepted.  Otherwise
        every pair is checked and the first failing x is named, so the
        verdict and the error are those of the all-pairs check.  Both are
        _first_deviation scans, and every test is "not below the
        tolerance", so a NaN fails it.
        """
        m = self.matrices
        gram = _unitarity_deviation(m)
        if not np.linalg.norm(gram, axis=(1, 2)).max() < _tol.EXACT:
            worst = np.abs(gram).max()
            raise MakeRepError(f"matrices are not unitary (deviation {worst:.2e})")
        if not self.cocycle.verify():
            raise MakeRepError("cached cocycle violates the cocycle identity")
        if _first_deviation(*self._edges(), _edge_tolerance(self.group._cayley_walk())) is None:
            return
        failure = _first_deviation(m, m, self.group.mul, self.cocycle.to_complex_table(), _tol.EXACT)
        if failure is not None:
            x, dev = failure
            raise MakeRepError(f"pi(x)pi(y) != sigma(x,y) pi(xy) at x={x} (deviation {dev:.2e})")

    def _edges(self) -> tuple:
        """(m, right, ends, scales) of the Cayley edges (x, c), c in walk.cols
        of the group's cached walk, for _first_deviation."""
        walk = self.group._cayley_walk()
        sigma = self.cocycle
        scales = np.exp(2j * np.pi * sigma.num[:, walk.cols] / sigma.den)
        return self.matrices, self.matrices[walk.cols], walk.ends, scales

    def matrix(self, x: int) -> np.ndarray:
        return self.matrices[x]

    def character(self) -> "Character":
        """The traces tr pi(x), computed once per rep, with read-only values."""
        if self._character is None:
            values = np.einsum("naa->n", self.matrices)
            values.flags.writeable = False
            self._character = Character(self.group, values, self.cocycle)
        return self._character

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
        The validation reads the Cayley edges, and every pair only when an
        edge fails (see _validate).  Raises MakeRepError when the subspace
        is not invariant.  The action is _linalg.compressed_action's, so a
        piece of search._split_constituents on the same basis has the same
        matrices.
        """
        return ProjectiveRep(self.group, compressed_action(self.matrices, basis)[0], self.cocycle)

    def twist(self, f: PhaseFunction) -> "ProjectiveRep":
        """Multiply by a phase function on the whole group; the cocycle picks up df.

        f(e) != 1 is allowed: the result then has pi(e) = f(e) 1 and
        sigma(e, e) = f(e), an unnormalized cocycle that character() refuses.
        """
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
    with denominator at most 4|G|, but only on the Cayley-edge columns
    y = c in walk.cols = [identity, *gens] of the group's cached walk:
    1 + r columns of n instead of all n, and the very edges that
    ProjectiveRep._validate checks.  Every other entry is filled exactly,
    as integer numerators mod the common denominator, by sums down the
    walk's spanning tree (see _fill_cocycle): for a generator g,
        sigma(x, y'g) = sigma(x, y') + sigma(xy', g) - sigma(y', g)   (in turns),
    which is the cocycle identity sigma(x,y') sigma(xy',g) = sigma(x,y'g)
    sigma(y',g), and sigma(x, e) = sigma(e, e) (the identity at y = z = e).
    The filled table is refused if any entry's reduced denominator exceeds
    4|G|, and is then validated by ProjectiveRep._validate.

    That cocycle is the one that snapping every scalar gives.  Suppose the
    validation accepts sigma'.  Then every pair deviates by less than
    _tol.EXACT (below), so every raw scalar lies within
    _tol.EXACT/sqrt(dim) of sigma'(x, y), and the denominator guard puts
    sigma' among the phases of denominator at most 4|G|.  Distinct such
    phases lie at least 2*pi/(16 n^2) apart on the circle, more than twice
    _tol.EXACT (1e-9) for every order n below 14,000, so no scalar lies
    within tolerance of two of them, and snapping each scalar returns
    sigma'.

    The validation checks the n(r+1) Cayley edges (x, c), c in
    [identity, *gens], against delta = _tol.EXACT/(2L), where L is the
    greatest depth of the group's cached spanning tree, and that bounds
    every pair.  Write D(x, y) for the Frobenius norm of
    pi(x)pi(y) - sigma(x,y) pi(xy) and u = _tol.EXACT/2, and let D < delta
    on every edge.  Unitarity passed, so |pi(x)pi(x)* - 1| < _tol.EXACT and
    the operator norm of pi(x) is at most sqrt(1 + _tol.EXACT) <= 1 + u.
    For y = y'g, with y' the parent and g the step of y on the tree,
        pi(x)pi(y')pi(g) = sigma(x,y') sigma(xy',g) pi(xy) + E1
                         = sigma(y',g) pi(x)pi(y) + E2,
    where |E1| <= (1 + u) D(x,y') + delta by the edge (xy', g), and
    |E2| <= (1 + u) delta by the edge (y', g).  The verified cocycle
    identity sigma(x,y') sigma(xy',g) = sigma(x,y) sigma(y',g) then gives
    D(x,y) <= (1 + u) D(x,y') + (2 + u) delta, and induction down the tree
    from the edges (x, g) gives D(x,y) < (2l - 1) delta (1 + u)^l for y at
    depth l >= 1; (x, identity) is itself an edge.  The induction follows
    each element's tree word, so it holds for any spanning tree.  With
    l <= L that is below _tol.EXACT (2L - 1)/(2L) (1 + u)^L < _tol.EXACT,
    since (1 + u)^L < 2L/(2L - 1) for every L under 30,000, and L < n is
    far below that for any order the table cap allows.  That leaves a
    margin of at least _tol.EXACT/(3L) for the rounding of the computed
    norms.  On permprod(genpauli:2,3) (order 384) L is 178, against a
    greatest word length of 12, so delta is about 15 times stricter there.
    When an edge reaches delta, _validate checks every pair instead, so
    edges in [delta, _tol.EXACT) refuse nothing that the all-pairs check
    accepts.

    Snapping all n^2 scalars would decide no differently: when it and its
    validation succeed, the edge scalars snap to the same phases, whose
    fill is that cocycle, so this path accepts the same cocycle; and when
    this path accepts, that is the cocycle every scalar snaps to, as shown
    above.  A snap failure names the first failing edge (x, y), y in
    walk.cols, in row-major order over the edge columns; snap_phase runs
    once per group of scalars of one angle, and every scalar is then
    checked against its group's phase (see cocycles._snap_phases).  A
    filled entry above the guard names the first such (x, y).
    """
    matrices = np.asarray(matrices, dtype=complex)
    n = group.order
    if matrices.shape[0] != n:
        raise MakeRepError("need one matrix per group element")
    num, den = _snap_scalars(_raw_scalars(group, matrices), 4 * n, group._cayley_walk().cols)
    num = _fill_cocycle(group, num, den)
    over = np.flatnonzero(den // np.gcd(num, den) > 4 * n)
    if over.size:
        x, y = divmod(int(over[0]), n)
        raise MakeRepError(f"filled cocycle has a denominator above 4|G| at ({x},{y})")
    return ProjectiveRep(group, matrices, Cocycle(group, num, den), label=label)


def _fill_cocycle(group: FiniteGroup, columns: np.ndarray, den: int) -> np.ndarray:
    """The n x n numerator table from its Cayley-edge columns.

    columns[x, j] is sigma(x, walk.cols[j]) as a numerator over den, for the
    group's cached walk.  For y on the tree with parent p and step g, the
    column identity sigma(x, pg) = sigma(x, p) + sigma(xp, g) - sigma(p, g)
    summed down the tree path to y, from sigma(x, e) = sigma(e, e), gives
        sigma(x, y) = sigma(e, e) + sum over the path's edges (p, g) of
                      [sigma(xp, g) - sigma(p, g)],   mod den,
    every term an edge column: one walk.path_sums over the edge values,
    laid out [y, x].  The fill is exact, so any spanning tree gives the
    same table.
    """
    walk = group._cayley_walk()
    parent, step, _ = walk.tree
    column = np.zeros(group.order, dtype=np.int64)
    column[walk.cols] = np.arange(len(walk.cols))
    j = column[step]
    values = columns[group.mul.T[parent], j[:, None]]
    values -= columns[parent, j][:, None]
    sums = walk.path_sums(values)
    sums += columns[group.identity, 0]
    sums %= den
    return np.ascontiguousarray(sums.T)


def _unitarity_deviation(m: np.ndarray) -> np.ndarray:
    """m(x) m(x)* - 1 for every matrix of a stack."""
    gram = m @ m.conj().transpose(0, 2, 1)
    gram -= np.eye(m.shape[1])
    return gram


def _edge_tolerance(walk) -> float:
    """delta = _tol.EXACT/(2L) for the walk's greatest tree depth L (see make_rep)."""
    return _tol.EXACT / (2 * max(1, walk.length))


def _first_deviation(m, right, ends, scales, tol: float) -> tuple[int, float] | None:
    """(x, deviation) for the first x whose largest
    |pi(x) right[j] - scales[x, j] pi(ends[x, j])| over j is not below
    tol, or None when there is no such x.

    (ends, right, scales) is an edge set: every pair, as (mul, pi, the
    complex cocycle table), or the Cayley edges, as (walk.ends, pi(cols),
    sigma on the cols).  Each row block of _row_products is gathered once
    as scales * pi(ends), which stays contiguous at [x, j, i, k], and the
    products, transposed views, are subtracted in place.  A NaN deviation
    is not below tol, so it fails.
    """
    for rows, products in _row_products(m, right):
        diff = m[ends[rows]]
        diff *= scales[rows, :, None, None]
        diff -= products
        parts = diff.view(np.float64).reshape(len(diff), ends.shape[1], -1)
        devs = np.sqrt(np.einsum("xyk,xyk->xy", parts, parts).max(axis=1))
        if not devs.max() < tol:
            x = int(np.argmin(devs < tol))
            return rows.start + x, float(devs[x])
    return None


def _raw_scalars(group: FiniteGroup, matrices: np.ndarray) -> np.ndarray:
    """tr(pi(x) pi(y) pi(xy)^*) / dim, one row per x, for y over the
    Cayley-edge columns walk.cols of the group's cached walk; from
    _row_products."""
    n, dim = matrices.shape[0], matrices.shape[1]
    walk = group._cayley_walk()
    right, ends = matrices[walk.cols], walk.ends
    flat_conj = matrices.reshape(n, -1).conj()
    raw = np.empty(ends.shape, dtype=complex)
    for block, products in _row_products(matrices, right):
        flat = products.reshape(len(products), len(right), -1)
        raw[block] = np.einsum("xyk,xyk->xy", flat, flat_conj[ends[block]]) / dim
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


def _snap_scalars(raw: np.ndarray, max_den: int, cols) -> tuple[np.ndarray, int]:
    """snap_phase on every entry of raw, as numerators over one denominator;
    raw[x, j] is the scalar of the pair (x, cols[j]).

    The entries are snapped by groups (cocycles._snap_phases), which gives
    snap_phase's result on every entry.  When an entry fails, the first in
    row-major order raises MakeRepError naming its pair, with snap_phase's
    reason.
    """
    num, den, snapped = _snap_phases(raw, max_den)
    failed = np.flatnonzero(~snapped)
    if failed.size:
        x, j = divmod(int(failed[0]), raw.shape[1])
        y = int(cols[j])
        try:
            snap_phase(complex(raw[x, j]), max_den)
        except PhaseSnapError as exc:
            raise MakeRepError(
                f"scalar snap failed at ({x},{y}): matrices do not form a projective rep ({exc})"
            ) from exc
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
    return _irreducible_character(rep.character().values)


def _irreducible_character(chi: np.ndarray) -> bool:
    """<chi, chi> = 1 to _tol.DERIVED: the irreducibility test on character values."""
    return abs(complex(np.mean(chi * np.conj(chi))) - 1) <= _tol.DERIVED


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
    if r1.cocycle != r2.cocycle:   # the cocycle compares the group orders too
        raise ValueError("characters carry different cocycles")
    return _character_count(r1.character().values, r2.character().values)


def _character_count(chi1: np.ndarray, chi2: np.ndarray) -> int:
    """<chi1, chi2> over character values of reps with one cocycle, as an
    integer; RuntimeError when it is not one to _tol.DERIVED."""
    total = complex(np.mean(chi1 * np.conj(chi2)))
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

    The scale of each block is read from its integer numerator
    sigma(x,s) - sigma(r',h) mod den by cocycles._phase_values, bit for bit
    as Phase(k, den).to_complex(), so it is the exact Phase product, quarter
    turns included.  The result is validated against sigma itself, on the
    Cayley edges as ProjectiveRep._validate checks: no cocycle is snapped.
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
    scales = _phase_values(turns, den)
    blocks = scales[:, :, None, None] * theta.matrices[hi]
    mats = np.zeros((n, q, dt, q, dt), dtype=complex)
    mats[np.arange(n)[:, None], ri, :, np.arange(q)[None, :], :] = blocks
    return ProjectiveRep(g, mats.reshape(n, q * dt, q * dt), sigma, label=f"Ind({theta.label})")


class _Conjugation(NamedTuple):
    """G acting by conjugation on itself and on pi, for each g of some rows
    and every y: x = g y g^-1 and the phase lambda_g(x) with
    pi(g)* pi(x) pi(g) = lambda_g(x) pi(y).

    pi(x)pi(g) = sigma(x,g) pi(xg) and pi(g)pi(y) = sigma(g,y) pi(gy), with
    xg = gy, so lambda_g(x) = sigma(x,g) conj(sigma(g,y)), read from the
    cocycle's integer numerators.  Row r of both tables belongs to the r-th
    g asked for; with every g they have the size of the group's
    multiplication table.
    """

    elements: np.ndarray  # [r, y] -> x = g y g^-1
    turns: np.ndarray     # [r, y] -> numerator of lambda_g(x) mod sigma.den
    roots: np.ndarray     # k -> Phase(k, sigma.den).to_complex(), as _phase_values gives it


def _conjugation_table(sigma: Cocycle, rows=None) -> _Conjugation:
    """The rows g of _Conjugation, every g of the group when rows is None."""
    grp = sigma.group
    g = np.arange(grp.order) if rows is None else np.asarray(rows, dtype=np.int64)
    g, ys = g[:, None], np.arange(grp.order)
    xs = grp.mul[grp.mul[g, ys], grp.inv[g]]
    turns = (sigma.num[xs, g] - sigma.num[g, ys]) % sigma.den
    return _Conjugation(xs, turns, _phase_values(np.arange(sigma.den), sigma.den))


def _conjugation(sub: Subgroup, x, sigma: Cocycle) -> tuple[np.ndarray, np.ndarray]:
    """theta^x(y) = s theta(z) on the members y of sub, z = x^-1 y x, as (pos, s).

    pos is the position of z in sub, -1 where z is not in sub.  The scale
    is s = lambda_x(y) of _conjugation_table, since pi(x)* pi(y) pi(x) =
    s pi(z) is what makes theta^x a rep with theta's cocycle.  x is one
    element or an array of them, with one row of each result per element;
    only the table rows of the x and their inverses are built.
    """
    g = sub.parent
    mem = np.array(sub.members)
    xs = np.asarray(x)
    flat = xs.ravel()
    rows, at = np.unique(np.concatenate([g.inv[flat], flat]), return_inverse=True)
    table = _conjugation_table(sigma, rows)
    z = table.elements[at[: flat.size]][:, mem]
    pos = np.full(g.order, -1, dtype=np.int64)
    pos[mem] = np.arange(len(mem))
    scales = table.roots[table.turns[at[flat.size :, None], z]]
    shape = xs.shape + (len(mem),)
    return pos[z].reshape(shape), scales.reshape(shape)


def conjugate_rep(theta: ProjectiveRep, sub: Subgroup, x: int, sigma: Cocycle) -> ProjectiveRep:
    """theta^x(y) = lambda_x(y) theta(x^-1 y x), lambda as in _conjugation_table."""
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
    return g._intern(tuple(np.flatnonzero(normalizes & same).tolist()))


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
