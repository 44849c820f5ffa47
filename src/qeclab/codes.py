"""Code constructions, the logical/stabilizer/detectable scans, and classification.

Subspace equality is projector Frobenius distance < _tol.DERIVED, which is
basis independent.  Membership scans use _tol.SCAN.

The action of the model on a code is computed once per code, on its basis B
(P = B B*), from flat products over the whole group
(_linalg.compressed_action).  B is an isometry, so |P pi(x) P| and
|pi(x) P - P pi(x) P| are the norms of the compressed action C = B* pi(x) B
and of pi(x) B - B C, and the logical group, stabilizer, detectable set,
partitioning test and Clifford invariance test are all read from such norms.  The commutator [P, pi(x)]
needs no product of its own: its blocks (1 - P) pi(x) P and P pi(x) (1 - P)
are orthogonal, and pi(x)* is a unit multiple of pi(x^-1), so the second
has the norm of the first at x^-1.

Constituents are found here only (_constituents), in exact
arithmetic: with f0 a trivializer of the restricted cocycle, the codes on
H are the (H, f0 chi) eigenspaces for the linear characters chi of H, read
from a diagonal form of an integer system, whose multiplicity in
conj(f0) pi|H is positive.  No eigenspace is walked and no value is snapped to find them.
existence_phase takes the first and search.enumerate_weak_stabilizer_codes
takes them all.  A (H, f) code is built as the 1-eigenspace of the average
(1/|H|) sum_h conj(f(h)) pi(h), for many phase rows of one subgroup at once
(_eigenspaces); weak_stabilizer_code is its one-row case.

classify counts instead of building subspaces.  A code W lies in the (S, f)
eigenspace E of its stabilizer and in the (N, f|N) one of every N <= S, so W
is weak (W = E), or rebuilt from a normal N, exactly when
code_dimension_formula gives dim W; the weak witness |P_E - P_W| is
sqrt(dim E - dim W).  The Clifford flag counts intertwiners by characters:
the action of L on an L-invariant code is the compressed action C on L,
and its character tr C = dim W * c is read from the scalars c = tr(C) / dim W
that the stabilizer scan reads, so no representation of L is built for it
(see _clifford_flag).

The logical group, the stabilizer and the normal candidates are taken from
the model group's interning table (see groups), so classify validates no
member set that the subgroup lattice already holds, and their restricted
cocycles are the ones the lattice's subgroups already carry.

The error group moves codes to codes: pi(g)* pi(x) pi(g) = lambda_g(x)
pi(g^-1 x g) for an exact phase lambda_g, tabulated for every (g, x) by
projreps._conjugation_table, so the report of pi(g)W follows from W's.  A
batch of codes, each with a witness that fixes it, is classified once per
orbit of G and transported to the other members (_classify_orbits);
search and the CLI's search classify that way.  The orbits, and the g
that moves each representative to each member, come from the witnesses
alone, one gather over G per representative (_witness_orbits); they are
whole on any list of code-invariant witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _tol
from ._linalg import compressed_action, frobenius, orthonormal_columns, scalar_deviation
from .cocycles import (
    PhaseFunction,
    _coboundary_rows,
    _linear_characters,
    _phase_values,
    _snap_phases,
    find_trivializing_phase,
)
from .groups import GroupValidationError, Subgroup
from .models import ProjectiveErrorModel, product_model
from .projreps import (
    ProjectiveRep,
    _character_count,
    _Conjugation,
    _conjugation_table,
    _intertwiner_count,
    _irreducible_character,
    _reynolds,
    inertia_group,
    is_irreducible,
    rep_from_phase_function,
    restrict,
)

__all__ = [
    "CodeError",
    "CodeSpace",
    "CodeReport",
    "weak_stabilizer_code",
    "stabilizer_code",
    "existence_phase",
    "code_dimension_formula",
    "clifford_code",
    "logical_group",
    "stabilizer_group",
    "detectable_set",
    "is_partitioning",
    "classify",
    "stabilizer_to_clifford",
    "product_code",
]


class CodeError(ValueError):
    """Raised on construction precondition failures and snap failures."""


@dataclass(eq=False)
class CodeSpace:
    """A nonzero subspace given by orthonormal basis columns."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self) -> None:
        self.basis = np.asarray(self.basis, dtype=complex)
        if self.basis.ndim != 2 or self.basis.shape[0] != self.ambient_dim:
            raise CodeError("basis must be an ambient_dim x k matrix")
        if self.basis.shape[1] == 0:
            raise CodeError("code spaces must be nonzero")
        gram = self.basis.conj().T @ self.basis
        if not frobenius(gram - np.eye(self.dim)) <= _tol.EXACT:   # NaN fails too
            raise CodeError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def _checked(cls, ambient_dim: int, basis: np.ndarray) -> "CodeSpace":
        """The code on a complex basis whose orthonormality the caller has
        tested as __post_init__ tests it (codes._eigenspaces)."""
        code = cls.__new__(cls)
        code.ambient_dim, code.basis = ambient_dim, basis
        return code

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "CodeSpace":
        cols = np.asarray(vectors, dtype=complex).reshape(-1, ambient_dim).T
        basis = orthonormal_columns(cols)
        if basis.shape[1] == 0:
            raise CodeError("vectors span the zero space")
        return cls(ambient_dim, basis)

    def equals(self, other: "CodeSpace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            return False
        return frobenius(self.projector() - other.projector()) < _tol.DERIVED

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "basis": [
                [[float(z.real), float(z.imag)] for z in self.basis[:, k]]
                for k in range(self.dim)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CodeSpace":
        d = int(data["ambient_dim"])
        cols = [np.array([complex(re, im) for re, im in col]) for col in data["basis"]]
        basis = np.stack(cols, axis=1)
        return cls(d, basis)

    def __repr__(self) -> str:
        return f"CodeSpace(dim {self.dim} in {self.ambient_dim})"


def weak_stabilizer_code(
    model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction
) -> CodeSpace | None:
    """Joint eigenspace F = {v : pi(x) v = f(x) v for all x in the subgroup}.

    The one-row case of _eigenspaces: the eigenvectors of the average
    P = (1/|H|) sum_h conj(f(h)) pi(h) whose eigenvalues exceed 1/2, checked
    on the whole subgroup.  Returns None when there are none, and also when
    they fail the check, because F is zero then.  A nonzero v in F gives
    f(x) f(y) v = pi(x) pi(y) v = sigma(x,y) f(xy) v, so df = sigma|H.
    Then h -> conj(f(h)) pi(h) is a unitary linear rep of H, and P is the
    orthogonal projector onto its invariant vectors, which are F (see
    _eigenspaces), so the eigenvectors span F and pass the check.
    RuntimeError when a nonzero code has df != sigma|H.
    """
    if f.domain is not sub and tuple(f.domain.members) != tuple(sub.members):
        raise CodeError("phase function domain does not match the subgroup")
    exact = (f.num[None], f.den) if f.is_exact else None
    return _eigenspaces(model, sub, f.values[None], exact)[0]


def _eigenspaces(
    model: ProjectiveErrorModel,
    sub: Subgroup,
    values: np.ndarray,
    exact: tuple[np.ndarray, int] | None = None,
    dims: np.ndarray | None = None,
) -> list[CodeSpace | None]:
    """The (sub, f_i) joint eigenspace W_i, or None where it is zero, for
    each row f_i of values [k, |H|], f_i's values on sub's members in order.
    exact is (numerators [k, |H|], their one denominator) when every row is
    exact; dims [k], when given, are the dimensions the caller expects, and
    RuntimeError is raised on a row whose rank differs.

    When df_i = sigma|H, h -> conj(f_i(h)) pi(h) is a unitary linear rep of
    H: conj(f_i(x) f_i(y)) pi(x) pi(y) = conj(f_i(xy)) pi(xy).  Its average
        P_i = (1/|H|) sum_h conj(f_i(h)) pi(h)
    is then the orthogonal projector onto its invariant vectors (Knill,
    "Group representations, error bases and quantum codes", 1996): each
    term times P_i is P_i, so P_i^2 = P_i and the image of P_i is
    invariant, and P_i* = P_i, the sum over h^-1 of the adjoint terms.  The
    invariant vectors are W_i, and P_i fixes each of them, so P_i is the
    orthogonal projector onto W_i, with eigenvalues 0 and 1.  The computed
    P_i is off the exact one by the model's deviation from an exact rep and
    a rounding, together far below 1/2 (under 1e-8 for matrices that hold to
    _tol.EXACT), so the eigenvectors of the eigenvalues above 1/2 are an
    orthonormal basis B_i of W_i, and their count is dim W_i.  When
    df_i != sigma|H, W_i is zero (see weak_stabilizer_code), and whatever
    eigenvectors P_i gives fail the check below.

    Every row is checked, in one product each over the whole batch:
    |pi(h) B_i - f_i(h) B_i| <= _tol.SCAN entrywise on every h (None
    otherwise); CodeSpace's orthonormality test on each B_i (CodeError
    otherwise); and df_i = sigma|H on every nonzero code, as integer
    numerators (cocycles._coboundary_rows) when exact is given and to
    _tol.DERIVED on the floats otherwise (RuntimeError otherwise).

    Row i's bytes do not depend on the other rows: P_i is one row-vector
    product against pi|H flattened, as a stacked matmul makes it for each
    row on its own, and the stacked eigh decomposes each P_i on its own.
    So a batch gives each row the basis weak_stabilizer_code gives it.
    """
    mem = list(sub.members)
    n, k = model.dim, len(values)
    mats = model.rep.matrices[mem]
    flat = mats.reshape(len(mem), n * n)
    proj = (values.conj()[:, None, :] @ flat).reshape(k, n, n) / len(mem)
    evals, evecs = np.linalg.eigh(proj)
    ranks = (evals > 0.5).sum(axis=1)
    if dims is not None and (ranks != dims).any():
        raise RuntimeError("an eigenspace's rank differs from its expected dimension")
    bases = [np.ascontiguousarray(v[:, n - r :]) for v, r in zip(evecs, ranks)]
    cat = np.concatenate(bases, axis=1)
    row = np.repeat(np.arange(k), ranks)
    resid = np.abs(mats @ cat - values[row].T[:, None, :] * cat).max(axis=(0, 1), initial=0.0)
    ortho = np.abs(cat.conj().T @ cat - np.eye(len(row))) ** 2 * (row[:, None] == row[None, :])
    ortho = np.sqrt(np.bincount(row, ortho.sum(axis=1), minlength=k))
    projective = _projective_rows(model, sub, values, exact)
    codes: list[CodeSpace | None] = []
    for i, end in enumerate(np.cumsum(ranks)):
        cols = slice(end - ranks[i], end)
        if ranks[i] == 0 or not (resid[cols] <= _tol.SCAN).all():
            codes.append(None)
            continue
        if not ortho[i] <= _tol.EXACT:   # NaN fails too
            raise CodeError("basis columns are not orthonormal")
        if not projective[i]:
            raise RuntimeError("nonzero code with delta(f) != restricted cocycle")
        codes.append(CodeSpace._checked(n, bases[i]))
    return codes


def _projective_rows(
    model: ProjectiveErrorModel, sub: Subgroup, values: np.ndarray, exact: tuple[np.ndarray, int] | None
) -> np.ndarray:
    """Whether df = sigma|H for each row f of values [k, |H|] on sub's members:
    compared as integer numerators when exact = (numerators, denominator)
    is given, to _tol.DERIVED on the floats otherwise."""
    res = model.cocycle.restrict(sub)
    mul = sub.as_group().mul
    if exact is not None:
        return _coboundary_rows(*exact, mul, res)
    got = values[:, :, None] * values[:, None, :]
    expected = res.to_complex_table() * values[:, mul]
    return np.abs(got - expected).max(axis=(1, 2)) <= _tol.DERIVED


def _assert_projective_phase(model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction) -> None:
    # a nonzero joint eigenspace forces f to multiply like the cocycle does
    exact = (f.num[None], f.den) if f.is_exact else None
    if not _projective_rows(model, sub, f.values[None], exact)[0]:
        raise RuntimeError("nonzero code with delta(f) != restricted cocycle")


def stabilizer_code(
    model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction
) -> CodeSpace | None:
    """weak_stabilizer_code with the subgroup required to be normal."""
    if not sub.is_normal():
        raise CodeError("stabilizer codes need a normal subgroup")
    return weak_stabilizer_code(model, sub, f)


def _constituents(model: ProjectiveErrorModel, sub: Subgroup):
    """The phase functions f on sub with a nonzero code, as (numerators
    [k, |H|], their one denominator, the code dimensions [k]).

    With f0 a trivializer of the restricted cocycle, the admissible f are
    exactly f0 chi for the linear characters chi of sub: df = sigma|H = df0
    makes f / f0 a homomorphism to T.  The (sub, f0 chi) code is the chi
    eigenspace of the linear rep x -> conj(f0(x)) pi(x), so its dimension is
    the multiplicity m_chi = (1/|H|) sum_h conj(f0 chi)(h) chi_pi(h), the
    average code_dimension_formula snaps, snapped to an integer here too.
    The characters are exact (cocycles._linear_characters), so f0 chi is
    read in integer numerators.  Every chi with m_chi > 0 is listed, in
    lexicographic order of chi's values on the greedy generators of
    sub.as_group(): the order of the joint eigenspace walk (see
    existence_phase).  Lists none when the restricted cocycle is not a
    coboundary, and raises CodeError when a multiplicity is not a
    non-negative integer.
    """
    f0 = find_trivializing_phase(model.cocycle.restrict(sub), domain=sub)
    if f0 is None:
        return np.zeros((0, len(sub)), dtype=np.int64), 1, np.zeros(0, dtype=np.int64)
    chars, e = _linear_characters(sub.as_group())
    chi_pi = model.rep.character().values[list(sub.members)]
    totals = np.exp(-2j * np.pi * chars / e) @ (f0.values.conj() * chi_pi) / len(sub)
    counts = np.rint(totals.real)
    bad = np.flatnonzero((np.abs(totals - counts) > _tol.DERIVED) | (counts < 0))
    if bad.size:
        raise CodeError(f"constituent multiplicity gave a non-integer value {totals[bad[0]]}")
    den = math.lcm(f0.den, e)
    nums = (f0.num * (den // f0.den) + chars[counts > 0] * (den // e)) % den
    return nums, den, counts[counts > 0].astype(np.int64)


def _constituent_phases(model: ProjectiveErrorModel, sub: Subgroup):
    """Yield the phase functions of _constituents, one per constituent, in its order."""
    nums, den, _ = _constituents(model, sub)
    for num, values in zip(nums, _phase_values(nums, den)):
        yield PhaseFunction._from_num(sub, num, den, floats=values)


def existence_phase(model: ProjectiveErrorModel, sub: Subgroup) -> PhaseFunction | None:
    """A phase function with a guaranteed nonzero code, when one exists.

    Needs the subgroup abelian and the restricted cocycle a coboundary.  The
    choice among the 1-dimensional constituents is deterministic: it is the
    first one _constituent_phases yields, the lowest phase angle of each
    generator g_1, ..., g_r of sub.as_group() in turn.

    That is the choice the joint eigenspace walk made, which split the
    space by the eigenvalues of conj(f0) pi(g_1), then of g_2 within each
    eigenspace, and so on, taking angles in [0, 1) in increasing order.  A
    nonzero joint eigenspace with angles (a_1, ..., a_r) is acted on by
    every element as a scalar, since its generators act so, and that
    scalar is a linear character chi with chi(g_i) = a_i and m_chi > 0;
    conversely the chi eigenspace of a chi with m_chi > 0 lies in that
    joint eigenspace.  The angles are chi(g_i) = u_i / e with 0 <= u_i < e,
    so increasing angle, generator after generator, is lexicographic order
    of (u_1, ..., u_r), the order of _linear_characters.  Two characters
    differ on some generator by at least 1/e of a turn, far above the
    walk's merging tolerance _tol.SCAN, so the walk kept every one apart.
    """
    if not sub.is_abelian():
        return None
    return next(_constituent_phases(model, sub), None)


def code_dimension_formula(model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction) -> int:
    """Average of conj(f), read on the members of sub, against the model
    character, snapped to an integer: dim of the (sub, f) eigenspace when df
    is the restricted cocycle.  f may live on a larger subgroup; CodeError
    when it misses a member of sub."""
    members = list(sub.members)
    if not all(x in f.domain for x in members):
        raise CodeError("phase function is not defined on every member of the subgroup")
    chi = model.rep.character().values[members]
    values = f.values[[f.domain.position(x) for x in members]]
    total = np.sum(np.conj(values) * chi) / len(sub)
    nearest = round(total.real)
    if abs(total - nearest) > _tol.DERIVED or nearest < 0:
        raise CodeError(f"dimension formula gave a non-integer value {total}")
    return int(nearest)


def clifford_code(
    model: ProjectiveErrorModel,
    sub: Subgroup,
    rho: ProjectiveRep,
) -> CodeSpace:
    """Image of the unique intertwiner from rho into the restricted action.

    Multiplicity one is <chi_rho, chi_res> (_intertwiner_count).  The map
    is then built without a constraint stack: A -> (1/|H|) sum_x res(x) A
    rho(x)* is the orthogonal projector onto Hom(rho, res)
    (projreps._reynolds), a space spanned by one unit T0.  The projector
    sends the matrix unit E_ab to conj(T0[a, b]) T0 and has trace dim Hom
    = 1, so its diagonal |T0[a, b]|^2, which is the character product
    (1/|H|) sum_x res(x)[a, a] conj(rho(x)[b, b]), sums to 1.  The image of
    the E_ab with the largest diagonal entry is therefore T0 scaled by at
    least 1/sqrt(dim V dim rho), nonzero, and no draw decides the result.
    It is checked to intertwine on every x before its image is taken.

    search.q3_probe takes the same space from the eigenspace that split
    rho off pi|H, with the same checks (see there).
    """
    if not is_irreducible(rho):
        raise CodeError("clifford_code: the small representation must be irreducible")
    res = restrict(model.rep, sub)
    if rho.cocycle != res.cocycle:
        raise CodeError(
            "clifford_code: the small representation's cocycle must equal the restricted cocycle"
        )
    count = _intertwiner_count(rho, res)
    if count != 1:
        raise CodeError(
            f"clifford_code: need multiplicity one, got intertwiner space of dim {count}"
        )
    if sub.index() * rho.dim != model.dim:
        raise CodeError(
            "clifford_code: index times small dimension must equal the ambient dimension "
            f"({sub.index()} * {rho.dim} != {model.dim})"
        )
    r, m = res.matrices, rho.matrices
    diag = np.einsum("xaa,xbb->ab", r, m.conj()).real
    a, b = np.unravel_index(np.argmax(diag), diag.shape)
    unit = np.zeros((model.dim, rho.dim), dtype=complex)
    unit[a, b] = 1.0
    t = _reynolds(rho, res, unit)
    if np.linalg.norm(r @ t - t @ m, axis=(1, 2)).max() > _tol.SCAN * frobenius(t):
        raise RuntimeError("clifford_code: the averaged map is not an intertwiner")
    basis = orthonormal_columns(t)
    if basis.shape[1] != rho.dim:
        raise CodeError("clifford_code: intertwiner is not injective")
    return CodeSpace(model.dim, basis)


class _Action(NamedTuple):
    """Per-element norms of the model's action on a code basis B, C = B* pi(x) B."""

    commutator: np.ndarray  # |P pi(x) - pi(x) P| = hypot(inside[x], inside[x^-1])
    scalars: np.ndarray     # c = tr(C) / dim W
    scalar_dev: np.ndarray  # |C - c 1|: zero where pi(x) acts on W as a scalar
    inside: np.ndarray      # |pi(x) B - B C|: zero where pi(x) maps W into W
    outside: np.ndarray     # |C|: zero where pi(x) maps W into its complement


def _code_action(model: ProjectiveErrorModel, code: CodeSpace) -> _Action:
    if code.ambient_dim != model.dim:
        raise CodeError(f"code lives in dimension {code.ambient_dim}, model in {model.dim}")
    c, inside, outside = compressed_action(model.rep.matrices, code.basis)
    scalars, scalar_dev = scalar_deviation(c)
    return _Action(
        commutator=np.hypot(inside, inside[model.group.inv]),
        scalars=scalars,
        scalar_dev=scalar_dev,
        inside=inside,
        outside=outside,
    )


def _logical(model: ProjectiveErrorModel, act: _Action) -> Subgroup:
    """L = {x : act.commutator[x] < _tol.SCAN}, closed under products.

    The set is read from floats, so on a code just off an exact one, with
    commutator norms at the threshold, a product of two kept elements can
    fall just above it.  Such a set is closed by _close_logical before it is
    interned; on a set that is already a subgroup nothing changes.
    """
    members = tuple(np.flatnonzero(act.commutator < _tol.SCAN).tolist())
    try:
        return model.group._intern(members)
    except GroupValidationError:
        return model.group._intern(_close_logical(model, act.commutator, members))


def _close_logical(
    model: ProjectiveErrorModel, comm: np.ndarray, members: tuple[int, ...]
) -> tuple[int, ...]:
    """The subgroup generated by members, each product z = xy taken only
    within c(z) <= (1 + _tol.EXACT)(c(x) + c(y)) + 2 _tol.EXACT, c = comm.

    The bound holds for every x, y.  Write iota(x) = |(1 - P) pi(x) B|_F,
    so that c(x) = hypot(iota(x), iota(x^-1)), and D = pi(x)pi(y) -
    sigma(x,y) pi(xy).  Then
        (1 - P) pi(xy) B = conj(sigma(x,y)) (1 - P) (pi(x)(P + 1 - P)pi(y) - D) B,
    and B* pi(y) B and (1 - P) pi(x) have operator norm at most that of
    pi, below 1 + u with u = _tol.EXACT/2, while |D|_F < _tol.EXACT (see
    projreps.make_rep).  So iota(xy) <= (1 + u)(iota(x) + iota(y)) +
    _tol.EXACT, the same for (xy)^-1 = y^-1 x^-1, and the triangle
    inequality in the plane gives c(xy) <= (1 + u)(c(x) + c(y)) +
    sqrt(2) _tol.EXACT; the rest of the margin covers the rounding of the
    computed norms.  A product breaking it shows norms that no unitary
    projective action gives, and raises CodeError.
    """
    group, inside = model.group, np.zeros(model.group.order, dtype=bool)
    inside[list(members)] = True
    gens = np.array(members)
    while True:
        mem = np.flatnonzero(inside)
        prod = group.mul[np.ix_(mem, gens)]
        new = ~inside[prod]
        if not new.any():
            return tuple(mem.tolist())
        bound = (1 + _tol.EXACT) * (comm[mem][:, None] + comm[gens]) + 2 * _tol.EXACT
        if not (comm[prod][new] <= bound[new]).all():
            raise CodeError("commutator norms of the logical group break the product bound")
        inside[prod[new]] = True


def _stabilizer(
    model: ProjectiveErrorModel, act: _Action, logical: Subgroup
) -> tuple[Subgroup, PhaseFunction]:
    """S = the elements of L = logical acting on W as a unimodular scalar,
    and f = the scalars, snapped as PhaseFunction.from_complex snaps them.

    S is read inside L: the scalar deviation and |c| are second order in
    a tilt of W, the commutator norm first order, so on a code just off an
    exact one an element can pass the first two tests after it has left L.
    It is read inside L as _logical closed it, not inside the set that
    passed the commutator test, so S is L's subgroup of elements passing
    the scalar tests even where the closure added to L.  On exact codes
    L is that set, and restricting to it removes nothing.

    The snap is cocycles._snap_phases on the grid den * exp(G), den the
    model cocycle's denominator: a stabilizer phase has df = sigma|S, so
    f(x)^ord(x) is a product of cocycle values and f(x) a
    (den * ord(x))-th root of unity.  The reader returns snap_phase's
    result on every entry, on the grid or off it, so f is from_complex's.
    """
    keep = (
        logical._inside
        & (act.scalar_dev < _tol.SCAN)
        & (np.abs(np.abs(act.scalars) - 1) < _tol.SCAN)
    )
    members = np.flatnonzero(keep)
    sub = model.group._intern(tuple(members.tolist()))
    values = act.scalars[members]
    grid = model.cocycle.den * model.group.exponent()
    num, den, mask = _snap_phases(values, 4 * model.group.order, grid)
    return sub, PhaseFunction._from_num(sub, num, den, mask, values)


def _detectable(act: _Action) -> list[int]:
    return np.flatnonzero(act.scalar_dev < _tol.SCAN).tolist()


def _mixed(act: _Action) -> np.ndarray:
    """The elements mapping W neither into W nor into its complement, in
    increasing order: commutator and |C| both at least _tol.SCAN."""
    return np.flatnonzero((act.commutator >= _tol.SCAN) & (act.outside >= _tol.SCAN))


def _partitioning(act: _Action, logical: Subgroup, stab: Subgroup) -> tuple[bool, int | None]:
    """(True, None) when no element is mixed (_mixed), else (False, the
    first mixed element).  A partitioning code's detectable set D =
    {x : act.scalar_dev[x] < _tol.SCAN} is then the closed form
    (G minus L) plus S, and RuntimeError guards that.

    Every x is exactly one of: in L, mixed, or outside L and detectable.
    The mixed test and L read the one commutator norm, so with
    iota(x) = act.inside[x] = |(1 - P) pi(x) B|, c = act.scalars[x],
    sd = act.scalar_dev[x] and w = dim W:
    - An element z that _close_logical adds to the threshold set has
      commutator at least _tol.SCAN, and by its product bound a commutator
      below about |G| 1.2e-8 (1 + _tol.EXACT)^|G|, far below 1 at any
      order the caps allow.  So |C|^2 = |pi(z)B|^2 - iota(z)^2, with
      |pi(z)B|^2 within sqrt(w) _tol.EXACT of w by pi's unitarity, is about
      w >= 1, and z is mixed.  With nothing mixed, L is the threshold set.
    - x outside L then has commutator at least _tol.SCAN, so, not being
      mixed, |C| < _tol.SCAN, and sd = |C - c 1| <= |C| < _tol.SCAN
      (c 1 is C's orthogonal projection onto the scalars): x is in D.
    - x in L has iota(x) < _tol.SCAN.  C = c 1 + (C - c 1) splits
      orthogonally, so w |c|^2 = |pi(x)B|^2 - iota^2 - sd^2 and
      1 - |c| <= (iota^2 + sd^2 + sqrt(w) _tol.EXACT)/w, while
      |c| <= |pi(x)|_op < 1 + _tol.EXACT/2.  So sd < _tol.SCAN puts |c|
      within 1e-9 + 2e-16 of 1, and x in S (_stabilizer's tests): x in L
      is in D exactly when it is in S.
    """
    bad = _mixed(act)
    if bad.size:
        return False, int(bad[0])
    if not np.array_equal(act.scalar_dev < _tol.SCAN, ~logical._inside | stab._inside):
        raise RuntimeError("partitioning code whose detectable set is not the closed form")
    return True, None


def logical_group(model: ProjectiveErrorModel, code: CodeSpace) -> Subgroup:
    """Elements whose action commutes with the code projector."""
    return _logical(model, _code_action(model, code))


def stabilizer_group(
    model: ProjectiveErrorModel, code: CodeSpace
) -> tuple[Subgroup, PhaseFunction]:
    """Elements of the logical group acting on the code as a unimodular
    scalar, with that scalar."""
    act = _code_action(model, code)
    return _stabilizer(model, act, _logical(model, act))


def detectable_set(model: ProjectiveErrorModel, code: CodeSpace) -> list[int]:
    """Elements acting as any scalar (including zero) on the code."""
    return _detectable(_code_action(model, code))


def is_partitioning(
    model: ProjectiveErrorModel, code: CodeSpace
) -> tuple[bool, int | None]:
    """Whether every element maps the code into itself or into its complement.

    Returns (flag, witness); the witness is the first element breaking the
    dichotomy.  When the flag holds, the detectable set is cross-checked
    against its closed form (complement of the logical group, plus the
    stabilizer).
    """
    act = _code_action(model, code)
    logical = _logical(model, act)
    return _partitioning(act, logical, _stabilizer(model, act, logical)[0])


@dataclass(eq=False)
class CodeReport:
    """Everything classify computes about one code in one model."""

    model: ProjectiveErrorModel
    code: CodeSpace
    logical: Subgroup
    stabilizer: Subgroup
    stabilizer_phase: PhaseFunction
    detectable: list[int]
    flags: dict[str, bool]
    witnesses: dict[str, object] = field(default_factory=dict)
    central_type_criterion: dict[str, bool] | None = None

    def __post_init__(self) -> None:
        lset = set(self.logical.members)
        sset = set(self.stabilizer.members)
        if not sset <= lset:
            raise RuntimeError("stabilizer group not contained in logical group")
        if not sset <= set(self.detectable):
            raise RuntimeError("stabilizer group not contained in detectable set")

    def to_json(self) -> dict:
        out = {
            "model": self.model.label,
            "group_order": self.model.group.order,
            "ambient_dim": self.model.dim,
            "code": self.code.to_json(),
            "code_dim": self.code.dim,
            "logical": [int(x) for x in self.logical.members],
            "stabilizer": [int(x) for x in self.stabilizer.members],
            "stabilizer_phase": self.stabilizer_phase.to_json(),
            "detectable": sorted(int(x) for x in self.detectable),
            "flags": dict(self.flags),
            "witnesses": dict(self.witnesses),
        }
        if self.central_type_criterion is not None:
            out["central_type_criterion"] = dict(self.central_type_criterion)
        return out


def _has_normal_reconstruction(
    model: ProjectiveErrorModel, code: CodeSpace, stab: Subgroup, f: PhaseFunction
) -> bool:
    """Whether a normal-in-G N <= stab has an (N, f|N) eigenspace of the code's dimension.

    The candidates N are the subgroups of stab.as_group(), mapped to G and
    taken from G's interning table, which holds them already once G's
    lattice has been built.
    """
    for inner in sorted(stab.as_group()._lattice(), key=len, reverse=True):
        sub = model.group._intern(stab.members[i] for i in inner)
        if sub.is_normal() and code_dimension_formula(model, sub, f) == code.dim:
            return True
    return False


def _clifford_flag(
    model: ProjectiveErrorModel, code: CodeSpace, logical: Subgroup, act: _Action
) -> tuple[bool, object]:
    """Whether W is a Clifford code for L: |L| = (dim W / dim V)|G|, W is
    L-invariant, and the action rho of L on W is irreducible and occurs once
    in pi|L.  Returns (flag, witness text).

    rho(x) = C(x) = B* pi(x) B for x in L, and its character is read from the
    code action: chi_rho(x) = tr C(x) = dim W * act.scalars[x].  No
    representation of L is built or validated, and none needs to be.  W is
    L-invariant with no test of its own: L is {x : act.commutator[x] <
    _tol.SCAN}, closed by _close_logical, and act.commutator[x] =
    hypot(iota(x), iota(x^-1)) >= iota(x), with iota(x) = act.inside[x] =
    |(1 - BB*) pi(x) B|.  So iota is below _tol.SCAN on the elements that
    passed the test (a NaN commutator fails it and leaves x out of L), and
    below |G| 1.2e-8 on those the closure added, by its product bound
    (1.99e-8 was the largest on xp:15 codes tilted by 1e-8).  By
    _linalg.compressed_action's lemma, rho's pair and unitarity deviations
    then exceed pi's by under 1.1e-16, or (|G| 1.2e-8)^2 + |G| 1.2e-17,
    6e-13 at order 64, where the closure added elements; and the
    restricted cocycle satisfies the cocycle identity, as pi's does.  So
    validating rho against _tol.EXACT could fail only if the model's rep
    deviated to within that margin of _tol.EXACT.
    """
    order, dim_v, dim_w = model.group.order, model.dim, code.dim
    if len(logical) * dim_v != dim_w * order:
        return False, f"|L| = {len(logical)} != (dim W / dim V)|G| = {dim_w * order / dim_v}"
    members = list(logical.members)
    chi_rho = dim_w * act.scalars[members]
    if not _irreducible_character(chi_rho):
        return False, "restricted action on the code is reducible"
    if _character_count(chi_rho, model.rep.character().values[members]) != 1:
        return False, "restricted action does not have multiplicity one"
    return True, None


def classify(
    model: ProjectiveErrorModel, code: CodeSpace, _act: _Action | None = None
) -> CodeReport:
    """Compute the three group invariants and all classification flags.

    _classify_orbits passes the code action it has just computed as the
    private _act, positionally, as q3_probe passes clifford_code's.
    """
    act = _code_action(model, code) if _act is None else _act
    logical = _logical(model, act)
    stab, f = _stabilizer(model, act, logical)
    detect = _detectable(act)
    witnesses: dict[str, object] = {}

    _assert_projective_phase(model, stab, f)
    extra = code_dimension_formula(model, stab, f) - code.dim
    is_weak = extra == 0
    if not is_weak:
        witnesses["is_weak_stabilizer"] = f"projector distance {np.sqrt(extra):.3e}"

    is_cliff, cliff_witness = _clifford_flag(model, code, logical, act)
    if not is_cliff:
        witnesses["is_clifford"] = cliff_witness

    central = model.is_central_type()
    criterion: dict[str, bool] | None = None
    if central and is_cliff:
        crit_weak = model.group.order == len(logical) * len(stab)
        if crit_weak != is_weak:
            raise RuntimeError(
                "central-type weak stabilizer criterion disagrees with the direct test"
            )
        is_stab = is_weak and stab.is_normal()
        criterion = {"is_weak_stabilizer": crit_weak, "is_stabilizer": is_stab}
        if not is_stab and is_weak:
            witnesses["is_stabilizer"] = "stabilizer group is not normal"
        elif not is_stab:
            witnesses["is_stabilizer"] = "not a weak stabilizer code"
    else:
        is_stab = is_weak and _has_normal_reconstruction(model, code, stab, f)
        if not is_weak:
            witnesses["is_stabilizer"] = "not a weak stabilizer code"
        elif not is_stab:
            witnesses["is_stabilizer"] = "no normal subgroup of the stabilizer rebuilds the code"

    is_part, part_witness = _partitioning(act, logical, stab)
    if not is_part:
        witnesses["is_partitioning"] = part_witness

    return CodeReport(
        model=model,
        code=code,
        logical=logical,
        stabilizer=stab,
        stabilizer_phase=f,
        detectable=detect,
        flags={
            "is_stabilizer": is_stab,
            "is_weak_stabilizer": is_weak,
            "is_clifford": is_cliff,
            "is_partitioning": is_part,
        },
        witnesses=witnesses,
        central_type_criterion=criterion,
    )


def _transport(
    model: ProjectiveErrorModel,
    report: CodeReport,
    mixed: np.ndarray,
    code: CodeSpace,
    g: int,
    table: _Conjugation,
) -> CodeReport:
    """classify(model, code) for code = pi(g)W, read from W's report and _mixed set.

    With B' = pi(g)B a basis of pi(g)W and y = g^-1 x g,
    B'* pi(x) B' = lambda_g(x) B* pi(y) B (table, projreps._Conjugation),
    and every basis of a space gives the same _Action norms and scalars.
    So each norm of pi(g)W at x is W's at y and each scalar is W's times
    the unit lambda_g(x): L, S, D and the mixed set are the g-conjugates of
    W's, the stabilizer phase is f'(x) = lambda_g(x) f(y), exactly when f is
    exact, and the dimension counts, normality tests and character counts
    behind the flags, the criterion and the witness texts are equal.  The
    partitioning witness is the least conjugated mixed element.  f' carries
    the values lambda_g(x) f.values(y), W's measured scalars turned by the
    exact phase, where classify would carry code's own measured scalars.
    """
    grp, sigma = model.group, model.cocycle
    conj, turns = table.elements[g], table.turns[g]
    f = report.stabilizer_phase
    mem = np.array(report.stabilizer.members)
    xs = conj[mem]
    order = np.argsort(xs)
    den = math.lcm(f.den, sigma.den)
    num = f.num * (den // f.den) + turns[mem] * (den // sigma.den)
    values = f.values * table.roots[turns[mem]]
    stab = grp._intern(tuple(xs[order].tolist()))
    witnesses = dict(report.witnesses)
    if "is_partitioning" in witnesses:
        witnesses["is_partitioning"] = int(conj[mixed].min())
    criterion = report.central_type_criterion
    return CodeReport(
        model=model,
        code=code,
        logical=grp._intern(tuple(np.sort(conj[list(report.logical.members)]).tolist())),
        stabilizer=stab,
        stabilizer_phase=PhaseFunction._from_num(stab, num[order], den, None, values[order]),
        detectable=sorted(conj[report.detectable].tolist()),
        flags=dict(report.flags),
        witnesses=witnesses,
        central_type_criterion=None if criterion is None else dict(criterion),
    )


def _on_grid(chis: np.ndarray) -> np.ndarray:
    """The values of each chi along the last axis in steps of _tol.DERIVED,
    real and imaginary parts interleaved: search._canonical_key's key of a
    constituent, and the key of a witness."""
    parts = np.ascontiguousarray(chis, dtype=np.complex128).view(np.float64)
    return np.rint(parts / _tol.DERIVED).astype(np.int64)


def _witness_orbits(
    model: ProjectiveErrorModel, witnesses: list[tuple[Subgroup, np.ndarray]], table: _Conjugation
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Orbits of codes under W -> pi(g)W, read from their witnesses alone, as
    (representative, [(member, g), ...]) with member's code pi(g) times the
    representative's, representatives in increasing order.

    A witness (H, chi) is a subgroup and a function on its members that fix
    the code: its (H, chi) eigenspace for a phase function chi, or the
    isotypic component of a multiplicity-one constituent of pi|H with
    character chi.  Conjugating pi|H by pi(g) makes g.(H, chi) =
    (gHg^-1, x -> lambda_g(x) chi(g^-1 x g)) a witness of pi(g)W.  Two
    witnesses on one subgroup whose values agree on the _tol.DERIVED grid fix
    the same code: the characters of distinct constituents, and distinct
    phase functions, differ by far more.  So when the image of a
    representative's witness under g is witness j, code j is pi(g) times
    the representative's code.

    Each witness not yet reached, in index order, is a representative: its
    images under every g of G are gathered at once and looked up in one
    index of the listed witnesses, and each witness not yet reached that an
    image hits joins the orbit with the least such g.  A key is the int64
    members of the subgroup followed by the grid values, so its length
    3|H| fixes |H| and keys of different subgroups cannot collide.  Every g
    is tried, so a member is reached directly, with no chain through other
    listed witnesses.

    When every witness is a code invariant, one that the code alone
    determines, g carries W's witness to pi(g)W's, so every listed member
    of the orbit is reached and the orbits are whole on any sub-list of the
    codes.  The maximal witness (S, f_S) of an enumerated code is one: S is
    the set of x that act on W as a scalar and f_S that scalar.  So is
    q3_probe's (H, chi_rho), as L(W) = H there and chi_rho is the
    character of L's action on W.  A witness (H, f) with H below the
    stabilizer is not, and its orbits may come out split; each part is then
    classified on its own, and nothing depends on finding a whole orbit.
    table is projreps._conjugation_table(model.cocycle).
    """
    index: dict[bytes, int] = {}
    for i, (sub, chi) in enumerate(witnesses):
        key = np.concatenate([sub.members, _on_grid(chi)], dtype=np.int64)
        index.setdefault(key.tobytes(), i)
    gs = np.arange(len(table.elements))[:, None]
    reached = [False] * len(witnesses)
    orbits = []
    for rep, (sub, chi) in enumerate(witnesses):
        if reached[rep]:
            continue
        reached[rep] = True
        mem = np.array(sub.members)
        order = np.argsort(table.elements[:, mem], axis=1)   # row g sorts gHg^-1
        ys = mem[order]
        turned = chi[order] * table.roots[table.turns[gs, ys]]
        keys = np.concatenate([table.elements[gs, ys], _on_grid(turned)], axis=1, dtype=np.int64)
        rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))   # one key per g
        members = []
        for g, key in enumerate(rows.ravel().tolist()):
            j = index.get(key)
            if j is not None and not reached[j]:
                reached[j] = True
                members.append((j, g))
        orbits.append((rep, members))
    return orbits


def _classify_orbits(
    model: ProjectiveErrorModel,
    codes: list[CodeSpace],
    witnesses: list[tuple[Subgroup, np.ndarray]],
) -> list[CodeReport]:
    """[classify(model, code) for code in codes], with classify run once per
    orbit of _witness_orbits and each other member's report transported
    from its representative's (_transport).

    witnesses[i] is a witness (H, chi) that fixes codes[i] (see
    _witness_orbits): the maximal witness (S, f_S.values) of an enumerated
    code, (H, chi_rho) for q3_probe's constituent rho.  Both are code
    invariants, so each orbit met by the batch is classified once, however
    many of its codes the batch leaves out.  A representative whose
    stabilizer phase is not exact everywhere transports nothing, and its
    members are classified directly.
    """
    table = _conjugation_table(model.cocycle)
    reports: list[CodeReport | None] = [None] * len(codes)
    for rep, members in _witness_orbits(model, witnesses, table):
        act = _code_action(model, codes[rep])
        report = reports[rep] = classify(model, codes[rep], act)
        if not report.stabilizer_phase.is_exact:
            continue
        mixed = _mixed(act)
        for i, g in members:
            reports[i] = _transport(model, report, mixed, codes[i], g, table)
    return [classify(model, code) if r is None else r for code, r in zip(codes, reports)]


def stabilizer_to_clifford(
    model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction
) -> tuple[Subgroup, CodeSpace]:
    """Present a nonzero stabilizer code as a Clifford code over the inertia group."""
    code = stabilizer_code(model, sub, f)
    if code is None:
        raise CodeError("zero stabilizer code has no Clifford presentation")
    if not f.is_exact:
        raise CodeError("need exact phases to compute the inertia group")
    theta = rep_from_phase_function(f)
    logical = inertia_group(theta, sub, model.cocycle)
    rho = restrict(model.rep, logical).on_subspace(code.basis)
    rebuilt = clifford_code(model, logical, rho)
    if frobenius(rebuilt.projector() - code.projector()) >= _tol.DERIVED:
        raise RuntimeError("Clifford presentation disagrees with the stabilizer code")
    return logical, rebuilt


def product_code(
    m1: ProjectiveErrorModel,
    w1: CodeSpace,
    m2: ProjectiveErrorModel,
    w2: CodeSpace,
) -> tuple[ProjectiveErrorModel, CodeSpace]:
    """Tensor model and tensor code, with the group formulas verified."""
    model = product_model(m1, m2)
    basis = np.kron(w1.basis, w2.basis)
    code = CodeSpace(m1.dim * m2.dim, basis)
    n2 = m2.group.order
    l1 = logical_group(m1, w1)
    l2 = logical_group(m2, w2)
    expected_l = {x * n2 + y for x in l1.members for y in l2.members}
    if set(logical_group(model, code).members) != expected_l:
        raise RuntimeError("product logical group is not the product of the factors")
    s1 = stabilizer_group(m1, w1)[0]
    s2 = stabilizer_group(m2, w2)[0]
    expected_s = {x * n2 + y for x in s1.members for y in s2.members}
    if set(stabilizer_group(model, code)[0].members) != expected_s:
        raise RuntimeError("product stabilizer group is not the product of the factors")
    return model, code
