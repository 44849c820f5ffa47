"""Code constructions, the logical/stabilizer/detectable scans, and classification.

Subspace equality is projector Frobenius distance < _tol.DERIVED, which is
basis independent.  Membership scans use _tol.SCAN.  Each proof is stated
once, by the function that owns it:
- _constituents: the admissible phases f0 chi of each subgroup and their
  code dimensions, in exact arithmetic;
- _eigenspaces: a (H, f) code's basis, by pivoted Cholesky of its
  projector with no eigh (weak_stabilizer_code is its one-row case);
- _actions: the norms of the model's action on a code, from one
  compressed action per code (_linalg.compressed_action);
- _close_logical: the product bound on classify's L, and the iota bound
  it gives;
- _stabilizers: S and f_S from the action, and df_S = sigma|S;
- _clifford_flags: the Clifford flag from characters, no rep of L built;
- _key_reports: an enumerated code's report from its maximal witness key;
- _report: every CodeReport, the containments S <= L, S <= D and the
  partitioning closed form D = (G minus L) + S.
Elsewhere: the maximal witness key and trace row T in
search._maximal_witnesses, a q3 candidate's report in search.q3_probe, and
the least denominator of a snapped phase in cocycles._snap_phases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _tol
from ._linalg import _blocks, complex_from_json, complex_json, compressed_action, frobenius
from ._linalg import orthonormal_columns, scalar_deviation
from .cocycles import (
    PhaseFunction,
    _coboundary_rows,
    _cyclic_extensions,
    _linear_characters,
    _phase_values,
    _snap_phases,
    find_trivializing_phase,
)
from .groups import GroupValidationError, Subgroup, _read_cores
from .models import ProjectiveErrorModel, product_model
from .projreps import (
    ProjectiveRep,
    _integer_counts,
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
    """A nonzero subspace given by orthonormal basis columns.  _source is
    None but on codes of search.enumerate_weak_stabilizer_codes, which
    attaches each code's report there as it builds the code, and makes the
    basis read-only so that no report goes stale (see classify)."""

    ambient_dim: int
    basis: np.ndarray
    _source: object = field(default=None, init=False, repr=False, compare=False)

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
        return {"ambient_dim": self.ambient_dim, "basis": complex_json(self.basis.T)}

    @classmethod
    def from_json(cls, data: dict) -> "CodeSpace":
        return cls(int(data["ambient_dim"]), np.ascontiguousarray(complex_from_json(data["basis"], 2).T))

    def __repr__(self) -> str:
        return f"CodeSpace(dim {self.dim} in {self.ambient_dim})"


def weak_stabilizer_code(
    model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction
) -> CodeSpace | None:
    """Joint eigenspace F = {v : pi(x) v = f(x) v for all x in the subgroup},
    None when F is zero: the one-row case of _eigenspaces, where the basis
    is proved.

    f is the caller's, so df = sigma|H is tested on a nonzero code, as
    integer numerators (cocycles._coboundary_rows) when f is exact and to
    _tol.DERIVED on the floats otherwise, on tables cut from G's (as in
    cocycles._cyclic_extensions): RuntimeError when it fails.
    """
    if f.domain is not sub and tuple(f.domain.members) != tuple(sub.members):
        raise CodeError("phase function domain does not match the subgroup")
    code = _eigenspaces(model, np.array([sub.members]), f.values[None])[0]
    if code is None:
        return None
    sigma, mem = model.cocycle, np.asarray(sub.members)
    mul = np.searchsorted(mem, model.group.mul[np.ix_(mem, mem)])   # H's own table, on positions
    if f.is_exact:
        projective = _coboundary_rows(f.num[None], f.den, mul, sigma.num[np.ix_(mem, mem)], sigma.den)[0]
    else:
        v, res = f.values, _phase_values(sigma.num[np.ix_(mem, mem)], sigma.den)
        projective = np.abs(v[:, None] * v - res * v[mul]).max() <= _tol.DERIVED
    if not projective:
        raise RuntimeError("nonzero code with delta(f) != restricted cocycle")
    return code


def _eigenspaces(
    model: ProjectiveErrorModel,
    members: np.ndarray,
    values: np.ndarray,
    dims: np.ndarray | None = None,
) -> list[CodeSpace | None]:
    """The (H_i, f_i) joint eigenspace W_i, or None where it is zero, for
    each row i: members[i] the members of a subgroup H_i, values[i] f_i's
    values on them, the H_i all of one order.  dims [k], when given, are
    the dimensions the caller expects, and RuntimeError is raised on a row
    whose rank differs.

    When df_i = sigma|H_i, h -> conj(f_i(h)) pi(h) is a unitary linear rep
    of H_i: conj(f_i(x) f_i(y)) pi(x) pi(y) = conj(f_i(xy)) pi(xy).  Its
    average
        P_i = (1/|H_i|) sum_h conj(f_i(h)) pi(h)
    is then the orthogonal projector onto its invariant vectors (Knill,
    "Group representations, error bases and quantum codes", 1996): each
    term times P_i is P_i, so P_i^2 = P_i and the image of P_i is
    invariant, and P_i* = P_i, the sum over h^-1 of the adjoint terms.  The
    invariant vectors are W_i, and P_i fixes each of them, so P_i is the
    orthogonal projector onto W_i, and its rank w_i = tr P_i is dim W_i.
    The computed P_i is off the exact one by the model's deviation from an
    exact rep and a rounding, together far below 1/2 (under 1e-8 for
    matrices that hold to _tol.EXACT), so w_i is the nearest integer to its
    computed trace.

    B_i is read from P_i by pivoted Cholesky, with no eigh: starting from
    R = P_i, w_i steps each take the pivot p, the least index whose
    diagonal entry (its real part) is within _tol.EXACT of the largest,
    the column b = R e_p / sqrt(R_pp), and R <- R - b b*.  While R is the
    orthogonal projector onto a subspace U of W_i of dimension r > 0,
    R e_p lies in U with |R e_p|^2 = e_p* R* R e_p = R_pp, so b is a unit
    vector of U, R - b b* is the orthogonal projector onto U minus b, and
    R_pp >= tr R / d = r / d.  So the w_i columns b are an orthonormal
    basis B_i of W_i.  A pivot below 1/(2d) shows that P_i is no projector
    of rank w_i, so W_i is zero (see below) and the row is None.

    On a monomial model, pi(x) e_j = v_x(j) e_{p_x(j)} with v_x(j)
    unimodular (every catalog model, in its given basis), P_i e_j lies on
    the H_i-orbit O of j, so P_i is block diagonal over the orbits.
    P_i pi(h) = f_i(h) P_i gives the columns of one orbit equal norms, and
    |P_i e_j|^2 is the diagonal entry, so the diagonal is constant on O;
    the block is a projector of trace at most 1 (Frobenius reciprocity
    from the stabilizer of j), so it is 0 or u u* with |u_j|^2 = 1/|O|.
    Each step then takes the smallest remaining orbit, least index first,
    with p its least index, and b = sqrt|O| conj(u_p) u is the orbit's
    coset-sum state (Gottesman, arXiv:quant-ph/9705052): entries of modulus
    1/sqrt|O| on O, real and positive at p.  No test detects a monomial
    model: these are the bases the steps give on one.

    df_i = sigma|H_i is not tested here.  Where it fails W_i is zero, and
    the columns P_i gives fail the check below unless f_i is within about
    _tol.SCAN of an admissible row, so a caller tests it unless its rows
    are admissible by construction.  weak_stabilizer_code, whose f comes
    from outside, tests it on the code it gets back.  The enumeration
    (search.enumerate_weak_stabilizer_codes) does not: its rows f0 chi are
    admissible, f0 a trivializer whose df0 = sigma|H has been tested in
    integers and chi an exact linear character (_constituents).

    Every row is checked: |pi(h) B_i - f_i(h) B_i| <= _tol.SCAN entrywise
    on every h (None otherwise), and CodeSpace's orthonormality test on each
    B_i (CodeError otherwise), both read on the w columns of every row of
    a block, w its largest rank, and kept on B_i's columns.

    Rows run in blocks (_linalg._blocks), row i holding its gathered
    pi|H_i, |H| d^2 entries, the three temporaries of the check, |H| d w
    entries each with w the largest expected rank, and P_i and B_i.  Each
    block takes one gather, one stacked product for the averages, w_i steps
    on all its rows at once and one product for the check.  Row i's bytes
    depend on neither the other rows nor the blocks: P_i is one row-vector
    product against pi|H_i flattened, as a stacked matmul makes it for each
    row on its own, and each step acts on each row on its own, entry by
    entry.  So every row gets the basis weak_stabilizer_code gives it.
    """
    n, (k, m) = model.dim, members.shape
    w = n if dims is None else int(dims.max(initial=1))
    codes: list[CodeSpace | None] = []
    for rows in _blocks(k, m * n * (n + 3 * w) + 2 * n * n):
        f = values[rows]
        at = np.arange(len(f))
        mats = model.rep.matrices[members[rows]]                          # [b, |H|, d, d]
        rest = (f.conj()[:, None, :] @ mats.reshape(len(f), m, n * n)).reshape(-1, n, n) / m
        ranks = np.rint(rest.trace(axis1=1, axis2=2).real).astype(int)   # rest: P_i, then R
        if dims is not None and (ranks != dims[rows]).any():
            raise RuntimeError("an eigenspace's rank differs from its expected dimension")
        top = max(ranks.max(), 1)
        basis, short = np.zeros((len(f), n, top), dtype=complex), np.zeros(len(f), dtype=bool)
        for j in range(top):
            diag = rest.diagonal(0, 1, 2).real
            p = (diag >= diag.max(axis=1, keepdims=True) - _tol.EXACT).argmax(axis=1)
            pivot, due = diag[at, p], j < ranks
            live = due & (pivot >= 0.5 / n)
            short |= due ^ live
            # a row past its rank or short of a pivot takes the zero column
            basis[:, :, j] = col = rest[at, :, p] / np.sqrt(np.where(live, pivot, np.inf))[:, None]
            rest -= col[:, :, None] * col[:, None, :].conj()
        cols = np.arange(top)
        kept = cols < ranks[:, None]               # [b, column]: in B_i, the other columns zero
        moved = (mats.reshape(len(f), m * n, n) @ basis).reshape(-1, m, n, top)
        moved -= f[:, :, None, None] * basis[:, None]                    # pi(h) B_i - f_i(h) B_i
        held = (ranks > 0) & ~short & ((np.abs(moved).max(axis=(1, 2)) <= _tol.SCAN) | ~kept).all(axis=1)
        gram = basis.conj().swapaxes(1, 2) @ basis
        gram[:, cols, cols] -= kept                # B_i* B_i - 1 on B_i's columns, zero off them
        if (held & ~(np.sqrt((np.abs(gram) ** 2).sum(axis=(1, 2))) <= _tol.EXACT)).any():   # NaN fails too
            raise CodeError("basis columns are not orthonormal")
        # each rank's bases, sliced from one contiguous array, taken in row order
        bases = {r: iter(np.ascontiguousarray(basis[held & (ranks == r), :, :r]))
                 for r in set(ranks.tolist())}
        codes += [CodeSpace._checked(n, next(bases[r])) if ok else None
                  for r, ok in zip(ranks.tolist(), held.tolist())]
    return codes


def stabilizer_code(
    model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction
) -> CodeSpace | None:
    """weak_stabilizer_code with the subgroup required to be normal."""
    if not sub.is_normal():
        raise CodeError("stabilizer codes need a normal subgroup")
    return weak_stabilizer_code(model, sub, f)


def _constituents(model: ProjectiveErrorModel, subs: list[Subgroup]):
    """The phase functions f with a nonzero code on each subgroup of subs,
    all of one order, as (owner [k], the index in subs of each row's
    subgroup; numerators [k, |H|] over grid = sigma.den exp(G); grid; the
    code dimensions [k]).

    With f0 a trivializer of the restricted cocycle, the admissible f on H
    are exactly f0 chi for the linear characters chi of H: df = sigma|H =
    df0 makes f / f0 a homomorphism to T.  The (H, f0 chi) code is the chi
    eigenspace of the linear rep x -> conj(f0(x)) pi(x), so its dimension is
    the multiplicity m_chi = (1/|H|) sum_h conj(f0 chi)(h) chi_pi(h), the
    average code_dimension_formula snaps, counted for every chi of every H
    in one segment sum, by the same integer test (_dimension_counts).
    Which H are abelian is read for the whole block from one [b, |H|, |H|]
    gather of G's table.  The abelian ones are read together by cyclic
    extension (cocycles._cyclic_extensions, where the proof is); on the
    others f0 is solved for (find_trivializing_phase) and the characters
    are read from a diagonal form (cocycles._linear_characters).  Both are
    exact, so f0 chi is read in integer numerators; df0 = sigma|H makes
    sigma.den f0 a character of H, so f0, like chi, lies on the grid.  Rows
    come in the order of subs, and the rows of one H list every chi
    with m_chi > 0, in lexicographic order of chi's values on the greedy
    generators of sub.as_group(): the order of the joint eigenspace walk
    (see existence_phase).  An H whose restricted cocycle is not a
    coboundary lists none, and CodeError is raised when a multiplicity is
    not a non-negative integer.
    """
    g, sigma = model.group, model.cocycle
    grid, members = sigma.den * g.exponent(), np.array([sub.members for sub in subs])
    prods = g.mul[members[:, :, None], members[:, None, :]]
    abelian = (prods == prods.swapaxes(1, 2)).all(axis=(1, 2))
    ok, f0, den, chars, e = _cyclic_extensions(sigma, members[abelian])
    nums = (f0[:, None] * (grid // den)[:, None, None] + chars * (grid // e)[:, None, None]) % grid
    rows = dict(zip(np.flatnonzero(abelian)[ok].tolist(), nums))   # index in subs -> its rows f0 chi
    for i in np.flatnonzero(~abelian).tolist():
        f0 = find_trivializing_phase(sigma.restrict(subs[i]), domain=subs[i])
        if f0 is not None:
            chars, e = _linear_characters(subs[i].as_group())
            rows[i] = (f0.num * (grid // f0.den) + chars * (grid // e)) % grid
    owner = np.array([i for i in sorted(rows) for _ in rows[i]], dtype=int)
    if not len(owner):
        return owner, np.zeros((0, members.shape[1]), dtype=np.int64), grid, owner
    nums = np.concatenate([rows[i] for i in sorted(rows)])
    counts = np.array(_dimension_counts(
        model, members[owner].ravel(), _phase_values(nums, grid).ravel(), [members.shape[1]] * len(nums)
    ), dtype=np.int64)
    return owner[counts > 0], nums[counts > 0], grid, counts[counts > 0]


def _constituent_phases(model: ProjectiveErrorModel, sub: Subgroup):
    """Yield the phase functions of _constituents on sub, one per constituent, in its order."""
    _, nums, grid, _ = _constituents(model, [sub])
    yield from PhaseFunction._runs([sub] * len(nums), nums.ravel(), grid)


def existence_phase(model: ProjectiveErrorModel, sub: Subgroup) -> PhaseFunction | None:
    """A phase function with a guaranteed nonzero code, when one exists.

    Needs the subgroup abelian and the restricted cocycle a coboundary.  The
    choice among the 1-dimensional constituents is deterministic: it is the
    first one _constituent_phases yields, with f0 the trivializer that
    _constituents reads by cyclic extension (cocycles._cyclic_extensions),
    which depends on sigma|H alone, and the lowest phase angle of each
    generator g_1, ..., g_r of sub.as_group() in turn.

    That is the choice the joint eigenspace walk makes, which splits the
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
    walk's merging tolerance _tol.SCAN, so the walk keeps every one apart.
    """
    if not sub.is_abelian():
        return None
    return next(_constituent_phases(model, sub), None)


def _dimension_counts(model: ProjectiveErrorModel, members, values, sizes: list[int]) -> list[int]:
    """code_dimension_formula of each run of sizes[i] members of a subgroup,
    f's values on them in values, run after run: one segment sum of
    conj(f) chi_pi over all runs, each snapped to an integer, and
    CodeError where one is not within _tol.DERIVED of a non-negative
    integer.  Rounding cannot move an exact count that far.  The test
    reads Python numbers: a single count, classify's, costs no array
    operation beyond the sum."""
    chi = model.rep.character().values[members]
    totals = (np.add.reduceat(np.conj(values) * chi, [0, *itertools.accumulate(sizes[:-1])]) / sizes).tolist()
    counts = [round(z.real) for z in totals]
    bad = [z for z, count in zip(totals, counts) if abs(z - count) > _tol.DERIVED or count < 0]
    if bad:
        raise CodeError(f"dimension formula gave a non-integer value {bad[0]}")
    return counts


def code_dimension_formula(model: ProjectiveErrorModel, sub: Subgroup, f: PhaseFunction) -> int:
    """Average of conj(f), read on the members of sub, against the model
    character, snapped to an integer: dim of the (sub, f) eigenspace when df
    is the restricted cocycle.  f may live on a larger subgroup; CodeError
    when it misses a member of sub."""
    if f.domain is not sub and not all(x in f.domain for x in sub.members):
        raise CodeError("phase function is not defined on every member of the subgroup")
    values = f.values if f.domain is sub else f.values[[f.domain.position(x) for x in sub.members]]
    return _dimension_counts(model, list(sub.members), values, [len(sub)])[0]


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
    t = _reynolds(m, r, unit)
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
    return _actions(model, code.basis)


def _actions(model: ProjectiveErrorModel, bases: np.ndarray) -> _Action:
    """_code_action of a stack of code bases [..., d, w], each field with the
    stack's leading axes: one compressed_action against pi's own stack.
    B is an isometry, so |P pi(x) P| and |pi(x) P - P pi(x) P| are |C| and
    |pi(x) B - B C|.  The commutator [P, pi(x)] needs no product of its
    own: its blocks (1 - P) pi(x) P and P pi(x) (1 - P) are orthogonal, and
    pi(x)* is a unit multiple of pi(x^-1), so the second has the norm of
    the first at x^-1."""
    c, inside, outside = compressed_action(model.rep.matrices, bases)
    scalars, scalar_dev = scalar_deviation(c)
    return _Action(
        commutator=np.hypot(inside, inside[..., model.group.inv]),
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
    """The subgroup generated by members (FiniteGroup._closure), refused
    unless every product z = xy of two of its elements has
    c(z) <= (1 + _tol.EXACT)(c(x) + c(y)) + 2 _tol.EXACT, c = comm.

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
    projective action gives, and raises CodeError.  It is tested on all
    pairs of the closed set at once.

    The iota bound: every element of L is a product of at most |G|
    elements of the threshold set, each with c < _tol.SCAN, so the bound
    chained along the product puts c, and so iota, below
    |G| (_tol.SCAN + 2 _tol.EXACT)(1 + _tol.EXACT)^|G|, about |G| 1.2e-8,
    on all of L (1.99e-8 was the largest on xp:15 codes tilted by 1e-8).
    """
    closed = np.sort(model.group._closure(members)[0])
    bound = (1 + _tol.EXACT) * (comm[closed][:, None] + comm[closed]) + 2 * _tol.EXACT
    if not (comm[model.group.mul[np.ix_(closed, closed)]] <= bound).all():
        raise CodeError("commutator norms of the logical group break the product bound")
    return tuple(closed.tolist())


def _member_rows(mask: np.ndarray, members: np.ndarray | None = None) -> list[list[int]]:
    """The entries of members [k, m] where the mask [k, m] holds, row by
    row, as int lists; the column indices where it holds when members is
    None.  One gather and one tolist serve every row, cut at the row counts."""
    flat = (np.nonzero(mask)[1] if members is None else members[mask]).tolist()
    ends = list(itertools.accumulate(mask.sum(axis=1).tolist()))
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def _distinct_subgroups(group, mask: np.ndarray) -> tuple[list[Subgroup], list[int]]:
    """The interned subgroups on the distinct rows of a [k, |G|] mask, in
    order of first row, and the index among them of each row's: rows are
    told apart by their packed bytes, and each distinct one is read and
    interned once, unchecked, as the key reader proves each row a subgroup
    (groups.Subgroup._from_valid)."""
    packed = np.packbits(mask, axis=1)
    index: dict[bytes, int] = {}
    which = [index.setdefault(row, len(index)) for row in packed.view(f"V{packed.shape[1]}").ravel().tolist()]
    firsts = np.unique(which, return_index=True)[1]
    return [group._intern(tuple(row), valid=True) for row in _member_rows(mask[firsts])], which


def _stabilizers(
    model: ProjectiveErrorModel, members: np.ndarray, scalars: np.ndarray, deviation: np.ndarray
) -> tuple[list[Subgroup], list[PhaseFunction]]:
    """(S, f) of each of k codes W, from the elements tested for it (a row
    of members, [k, m]) and, on each, the scalar c = tr(C)/dim W and
    |C - c 1| of its action C (rows of scalars and deviation): S = the
    tested elements acting on W as a unimodular scalar, and f = the
    scalars, snapped as PhaseFunction.from_complex snaps them.  The tested
    elements are W's logical group L (H = L for search's q3 pieces).  One
    snap and one PhaseFunction._runs serve all k codes; classify's one code
    is a batch of one row.

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
    result on every entry, on the grid or off it (the proof is in its
    docstring), so f is from_complex's.

    df = sigma|S then holds with no test of its own.  S is interned, so it
    is a subgroup.  For x, y in S write C(x) = c_x 1 + E_x, with |E_x|_F =
    deviation[x] < _tol.SCAN and ||c_x| - 1| < _tol.SCAN, and
    w = dim W.  By _linalg.compressed_action's lemma |C(x)C(y) -
    sigma(x,y)C(xy)|_F exceeds pi's pair deviation, below _tol.EXACT, by
    about iota(x^-1) iota(y), under 1e-10 by the iota bound on L
    (_close_logical; on a q3 piece L = H, where the split tests iota
    below _tol.SCAN) and |G| < 800.  So
        eps = |c_x c_y - sigma(x,y) c_xy| < (_tol.EXACT + 3.01 _tol.SCAN)/sqrt(w),
    under 3.2e-8 and far below _tol.DERIVED, to which the floats of an
    inexact f would be compared.  Chained along x, x^2, ..., x^ord(x) = e,
    with pi(e) = 1, it puts c_x within 7e-8 radians of a point of the grid.
    An exact entry has a denominator at most 4|G| and lies within
    _tol.EXACT of c_x/|c_x|, and such a fraction and a grid point coincide
    or lie 2 pi/(4|G| grid) radians apart, so it is that grid point
    whenever 4|G| grid < 8.8e7 (at most 65,536 on the catalog models, on
    c2d2n:8).  Then f(x)f(y)conj(sigma(x,y)f(xy)) is a grid-th root of
    unity within eps + 3.03(_tol.EXACT + _tol.SCAN) < 7e-8 of 1, nearer
    than any other, so it is 1: df = sigma|S in integers wherever f is
    exact.  tests/test_codes.py pins both on every enumerated code and on
    the codes of its tilt sweep.
    """
    keep = (deviation < _tol.SCAN) & (np.abs(np.abs(scalars) - 1) < _tol.SCAN)
    stabs = [model.group._intern(tuple(row)) for row in _member_rows(keep, members)]
    values = scalars[keep]
    grid = model.cocycle.den * model.group.exponent()
    num, den, mask = _snap_phases(values, 4 * model.group.order, grid)
    return stabs, PhaseFunction._runs(stabs, num, den, mask, values)


def _first_mixed(act: _Action) -> np.ndarray:
    """The first element mapping W neither into W nor into its complement
    (commutator and |C| both at least _tol.SCAN), -1 where none is, on
    act's leading axes."""
    mixed = (act.commutator >= _tol.SCAN) & (act.outside >= _tol.SCAN)
    return np.where(mixed.any(axis=-1), mixed.argmax(axis=-1), -1)


def logical_group(model: ProjectiveErrorModel, code: CodeSpace) -> Subgroup:
    """Elements whose action commutes with the code projector: classify's L."""
    return classify(model, code).logical


def stabilizer_group(
    model: ProjectiveErrorModel, code: CodeSpace
) -> tuple[Subgroup, PhaseFunction]:
    """Elements of the logical group acting on the code as a unimodular
    scalar, with that scalar: classify's S and f_S."""
    report = classify(model, code)
    return report.stabilizer, report.stabilizer_phase


def detectable_set(model: ProjectiveErrorModel, code: CodeSpace) -> list[int]:
    """Elements acting as any scalar (including zero) on the code,
    read from the code action alone: classify's D, by one threshold."""
    return np.flatnonzero(_code_action(model, code).scalar_dev < _tol.SCAN).tolist()


def is_partitioning(
    model: ProjectiveErrorModel, code: CodeSpace
) -> tuple[bool, int | None]:
    """Whether every element maps the code into itself or into its complement.

    Returns (flag, witness); the witness is the first element breaking the
    dichotomy.  It is classify's verdict, and when the flag holds classify
    has cross-checked the detectable set against its closed form
    (complement of the logical group, plus the stabilizer; see _report).
    """
    report = classify(model, code)
    return report.flags["is_partitioning"], report.witnesses.get("is_partitioning")


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
        if not all(map(self.logical._inside.__getitem__, self.stabilizer.members)):
            raise RuntimeError("stabilizer group not contained in logical group")
        if not set(self.detectable).issuperset(self.stabilizer.members):
            raise RuntimeError("stabilizer group not contained in detectable set")

    @classmethod
    def _checked(cls, *fields) -> "CodeReport":
        """The report on its fields, in order, whose S <= L and S <= D the
        caller has tested as __post_init__ tests them (codes._report, on
        the masks of a whole batch)."""
        report = cls.__new__(cls)
        (report.model, report.code, report.logical, report.stabilizer, report.stabilizer_phase,
         report.detectable, report.flags, report.witnesses, report.central_type_criterion) = fields
        return report

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

    W lies in the (N, f|N) eigenspace E_N of every N <= S, and E_N shrinks
    as N grows.  Every normal N <= S lies in the core of S, the largest
    normal subgroup of G inside S: the x of S whose every conjugate is in S.
    So W <= E_core <= E_N, and the core has dim E_core = dim W whenever some
    normal N does: one dimension count, on the core.
    """
    core = stab._core_mask()   # read once per S (groups.Subgroup)
    members = np.array(stab.members)[core]
    return _dimension_counts(model, members, f.values[core], [len(members)])[0] == code.dim


def _clifford_flags(
    model: ProjectiveErrorModel, dims, sizes, irreducible, totals
) -> list[tuple[bool, object]]:
    """Whether W is a Clifford code for L: |L| = (dim W / dim V)|G|, W is
    L-invariant, and the action rho of L on W is irreducible and occurs once
    in pi|L.  Returns (flag, witness text) for each code i of arrays of
    dim W = dims[i], |L| = sizes[i], chi_rho's irreducibility
    irreducible[i] and totals[i] = <chi_rho, chi_pi|L>, each test read for
    all codes at once: the count (projreps._integer_counts, RuntimeError
    where it is not an integer) on the codes that pass the first two.

    rho(x) = C(x) = B* pi(x) B for x in L, and chi_rho is its character on
    L's members in order, tr C(x) = tr(P pi(x)): classify reads it from its
    code action as dim W times the scalars c of _Action, and the key
    reader (_key_reports) from the code's trace row, formed with its
    maximal witness (search._maximal_witnesses, where T is stated).  No
    representation of L is built or validated, and none needs to be.  W is
    L-invariant with no test of its own: the key reader's L is the set of
    x with pi(x)W = W exactly, and on classify's L iota(x) =
    |(1 - BB*) pi(x) B| <= act.commutator[x] is below _tol.SCAN where x
    passed the threshold (a NaN fails it) and under the iota bound of
    _close_logical where the closure added x.  By
    _linalg.compressed_action's lemma, rho's pair and unitarity deviations
    then exceed pi's by under 1.1e-16, or 6e-13 at order 64 where the
    closure added elements, and the restricted cocycle satisfies the
    cocycle identity, as pi's does.  So validating rho against _tol.EXACT
    could fail only if the model's rep deviated to within that margin of
    _tol.EXACT.
    """
    order, dim_v = model.group.order, model.dim
    dims, sizes, irreducible = np.asarray(dims), np.asarray(sizes), np.asarray(irreducible)
    fits = sizes * dim_v == dims * order
    once = fits & irreducible
    once[once] = _integer_counts(np.asarray(totals)[once]) == 1
    return [
        (True, None) if one
        else (False, f"|L| = {size} != (dim W / dim V)|G| = {dim_w * order / dim_v}") if not fit
        else (False, "restricted action on the code is reducible") if not irred
        else (False, "restricted action does not have multiplicity one")
        for one, fit, irred, size, dim_w in zip(
            once.tolist(), fits.tolist(), irreducible.tolist(), sizes.tolist(), dims.tolist())
    ]


def _report(
    model: ProjectiveErrorModel,
    codes: list[CodeSpace],
    logicals: list[Subgroup],
    stabs: list[Subgroup],
    phases: list[PhaseFunction],
    detect: np.ndarray,
    mixed: np.ndarray,
    clifford: list[tuple[bool, object]],
    extras: list[int],
) -> list[CodeReport]:
    """classify's reports of k codes from their invariants, one entry of
    each list per code: L, S, f_S, the _clifford_flags verdict and extra =
    dim E - dim W, E the (S, f_S) eigenspace; D is a [k, |G|] mask and
    mixed [k] each code's first mixed element (_first_mixed), -1 where
    none is.  Every CodeReport is built here: classify's action path, the
    key reader (_key_reports) and search's q3 pieces.  S <= L and S <= D
    are tested for the whole batch on the masks (RuntimeError otherwise),
    so no report tests them again (CodeReport._checked).

    A code with no mixed element is partitioning, and its D is then the
    closed form (G minus L) plus S: RuntimeError where the mask differs.
    Every x is exactly one of: in L, mixed, or outside L and detectable.
    On classify's action path the mixed test and L read the one commutator
    norm, so with iota(x) = act.inside[x] = |(1 - P) pi(x) B|,
    c = act.scalars[x], sd = act.scalar_dev[x] and w = dim W:
    - An element z that _close_logical adds to the threshold set has
      commutator at least _tol.SCAN, and by its iota bound one far below 1
      at any order the caps allow.  So |C|^2 = |pi(z)B|^2 - iota(z)^2, with
      |pi(z)B|^2 within sqrt(w) _tol.EXACT of w by pi's unitarity, is about
      w >= 1, and z is mixed.  With nothing mixed, L is the threshold set.
    - x outside L then has commutator at least _tol.SCAN, so, not being
      mixed, |C| < _tol.SCAN, and sd = |C - c 1| <= |C| < _tol.SCAN
      (c 1 is C's orthogonal projection onto the scalars): x is in D.
    - x in L has iota(x) < _tol.SCAN.  C = c 1 + (C - c 1) splits
      orthogonally, so w |c|^2 = |pi(x)B|^2 - iota^2 - sd^2 and
      1 - |c| <= (iota^2 + sd^2 + sqrt(w) _tol.EXACT)/w, while
      |c| <= |pi(x)|_op < 1 + _tol.EXACT/2.  So sd < _tol.SCAN puts |c|
      within 1e-9 + 2e-16 of 1, and x in S (_stabilizers' tests): x in L
      is in D exactly when it is in S.
    The key reader's codes with S normal and search's q3 pieces have no
    mixed element and hand over the closed form as D, by their own proofs
    (there).

    W is weak exactly when extra = 0, with the witness |P_E - P_W| =
    sqrt(extra) otherwise, as W <= E.  A Clifford code on a central-type model is weak
    exactly when |G| = |L| |S| (RuntimeError where that criterion disagrees
    with extra) and a stabilizer code when weak with S normal in G, read
    for every S at once (groups._read_cores); any other weak code is a
    stabilizer code when a normal subgroup of S rebuilds it: S itself when
    S is normal, as then E = W, and otherwise _has_normal_reconstruction.
    """
    on_l, on_s = np.array([sub._inside for sub in logicals]), np.array([stab._inside for stab in stabs])
    if (on_s & ~on_l).any():
        raise RuntimeError("stabilizer group not contained in logical group")
    if (on_s & ~detect).any():
        raise RuntimeError("stabilizer group not contained in detectable set")
    if (detect != (~on_l | on_s))[mixed < 0].any():
        raise RuntimeError("partitioning code whose detectable set is not the closed form")
    _read_cores(stabs)
    central_type, order, reports = model.is_central_type(), model.group.order, []
    rows = zip(codes, logicals, stabs, phases, _member_rows(detect), clifford, mixed.tolist(), extras)
    for code, logical, stab, f, detectable, (is_cliff, cliff_witness), first, extra in rows:
        witnesses: dict[str, object] = {}
        is_weak = extra == 0
        if not is_weak:
            witnesses["is_weak_stabilizer"] = f"projector distance {np.sqrt(extra):.3e}"
        if not is_cliff:
            witnesses["is_clifford"] = cliff_witness
        central = central_type and is_cliff
        if central and (order == len(logical) * len(stab)) != is_weak:
            raise RuntimeError("central-type weak stabilizer criterion disagrees with the direct test")
        is_stab = is_weak and (stab.is_normal() or not central and _has_normal_reconstruction(model, code, stab, f))
        if not is_weak:
            witnesses["is_stabilizer"] = "not a weak stabilizer code"
        elif not is_stab:
            witnesses["is_stabilizer"] = (
                "stabilizer group is not normal" if central
                else "no normal subgroup of the stabilizer rebuilds the code"
            )
        if first >= 0:
            witnesses["is_partitioning"] = first
        reports.append(CodeReport._checked(
            model, code, logical, stab, f, detectable,
            {"is_stabilizer": is_stab, "is_weak_stabilizer": is_weak, "is_clifford": is_cliff,
             "is_partitioning": first < 0},
            witnesses,
            {"is_weak_stabilizer": is_weak, "is_stabilizer": is_stab} if central else None,
        ))
    return reports


def classify(model: ProjectiveErrorModel, code: CodeSpace) -> CodeReport:
    """Compute the three group invariants and all classification flags.

    An enumerated code, on the model object it was enumerated on, carries
    its report (code._source), which the enumeration read from its maximal
    witness key (_key_reports) as it built the code: every call returns
    that object.  Any other code, copies included, is classified from its
    action: S and f_S by _stabilizers on one row, L's members."""
    if code._source is not None and code._source.model is model:
        return code._source
    act = _code_action(model, code)
    logical = _logical(model, act)
    mem = np.flatnonzero(logical._inside)[None]                           # [1, |L|]
    (stab,), (f,) = _stabilizers(model, mem, act.scalars[mem], act.scalar_dev[mem])
    extra = code_dimension_formula(model, stab, f) - code.dim
    chi_rho, chi_pi = code.dim * act.scalars[mem], model.rep.character().values[mem]
    clifford = _clifford_flags(model, [code.dim], [len(logical)], _irreducible_character(chi_rho),
                               np.mean(chi_rho * np.conj(chi_pi), axis=1))
    return _report(model, [code], [logical], [stab], [f], (act.scalar_dev < _tol.SCAN)[None],
                   _first_mixed(act)[None], clifford, [extra])[0]


def _key_reports(model: ProjectiveErrorModel, codes: list[CodeSpace], keys: np.ndarray, traces, conj):
    """classify's report of each code of one subgroup order of
    search.enumerate_weak_stabilizer_codes, from its key (S, f_S): f_S's
    numerators over sigma.den exp(G), -1 off S, and its trace row
    traces[i, x] = T(x) = tr(P pi(x)), both from search._maximal_witnesses,
    which proves them.  conj is projreps._conjugation_table(model.cocycle),
    built once per enumeration.  Each field is one the action path reads,
    and _report sets the flags and witnesses.

    - S and f_S are the key, and W = W(S, f_S) is weak: extra = 0.
    - L = {g : pi(g)W = W}.  pi(g) maps the code with key (S, f_S) to the
      code with key (gSg^-1, x -> lambda_g(x) f_S(g^-1 x g)), lambda_g from
      conj, and equal keys are equal codes, so L is the set of g with
      f_S(g y g^-1) = lambda_g(g y g^-1) f_S(y) for every y in S, read in
      integers (off S the key is -1, so only g normalizing S pass), in the
      least integer type that holds twice the grid.
    - The character of L on W is T on L, read for the codes of one |L|
      together, and the verdicts of all codes in one _clifford_flags.
    - When S is normal in G, every x outside L maps W onto W(S, x.f_S),
      another eigenspace of S, orthogonal to W, and x in L acts on W as a
      scalar exactly when x is in S.  So no element is mixed and
      D = (G minus L) + S, with no float action.  When S is not normal, D
      and the first mixed element are the action path's (detectable_set's
      threshold and _first_mixed), read from one stacked action per code
      dimension (_actions).  _report's closed-form test, on every code
      with no mixed element, checks L too.

    S and L are interned once per distinct mask, unchecked
    (_distinct_subgroups), and the normality of every distinct S read at
    once (groups._read_cores).  The blocked steps take their codes from
    _linalg._blocks, what one code holds noted at each, and the one
    [k, |G|] float table held is traces.
    """
    g, sigma = model.group, model.cocycle
    grid, k, on_s = sigma.den * g.exponent(), len(codes), keys >= 0
    distinct, which = _distinct_subgroups(g, on_s)
    _read_cores(distinct)
    which = np.array(which)
    stabs = [distinct[i] for i in which.tolist()]
    phases = PhaseFunction._runs(stabs, keys[on_s].astype(np.int64), grid)
    sizes, on_l, small = on_s.sum(axis=1), np.empty(on_s.shape, dtype=bool), np.min_scalar_type(-2 * grid)
    wide, turns = keys.astype(small), (conj.turns * (grid // sigma.den)).astype(small)
    for size in set(sizes.tolist()):
        rows = np.flatnonzero(sizes == size)
        mem = np.nonzero(on_s[rows])[1].reshape(-1, size)          # each code's S
        # a g centralizing S passes exactly when lambda_g is 1 on S, whatever
        # f_S: read once per distinct S, and per code only on the other g
        _, first, own = np.unique(which[rows], return_index=True, return_inverse=True)
        fixed = (conj.elements[:, mem[first]] == mem[first]).all(axis=2)   # [g, distinct S]
        verdict = (fixed & (turns[:, mem[first]] == 0).all(axis=2))[:, own]
        moving = np.flatnonzero(~fixed.all(axis=1))
        elements, moving_turns = conj.elements[moving], turns[moving]
        # per code, |S| entries per moving g of the gathered indices (8
        # bytes) and of the two gathered sides and their sum (small ints),
        # counted at their byte size against the bound's 16-byte entries
        for block in _blocks(len(rows), moving.size * size * (8 + 3 * small.itemsize) // 16):
            key, m, at = wide[rows[block]], mem[block], np.arange(block.stop - block.start)[:, None]
            moved = (key[at, m] + moving_turns[:, m]) % grid             # [g, code, y]
            verdict[moving, block] = (key[at, elements[:, m]] == moved).all(axis=2)
        on_l[rows] = verdict.T
    distinct, which = _distinct_subgroups(g, on_l)
    logicals = [distinct[i] for i in which]
    chi, l_sizes = model.rep.character().values, on_l.sum(axis=1)
    irreducible, totals = np.empty(k, dtype=bool), np.empty(k, dtype=complex)
    for l_size in set(l_sizes.tolist()):
        rows = np.flatnonzero(l_sizes == l_size)
        l_mem = np.nonzero(on_l[rows])[1].reshape(-1, l_size)               # each code's L
        chis = traces[rows[:, None], l_mem]                                  # T on L
        totals[rows] = np.mean(chis * np.conj(chi[l_mem]), axis=-1)
        irreducible[rows] = _irreducible_character(chis)
    dims = np.array([code.dim for code in codes])
    clifford = _clifford_flags(model, dims, l_sizes, irreducible, totals)
    detect, mixed = ~on_l | on_s, np.full(k, -1)                 # D where S is normal
    acted = sorted((i for i, stab in enumerate(stabs) if not stab.is_normal()), key=dims.__getitem__)
    for w, same_dim in itertools.groupby(acted, key=dims.__getitem__):
        same_dim = list(same_dim)
        # per code: pi B, its transposed copy and the residual (|G| d w
        # entries each) and C (|G| w^2)
        for rows in _blocks(len(same_dim), g.order * w * (3 * model.dim + w)):
            block = same_dim[rows]
            acts = _actions(model, np.stack([codes[i].basis for i in block]))
            detect[block], mixed[block] = acts.scalar_dev < _tol.SCAN, _first_mixed(acts)
    return _report(model, codes, logicals, stabs, phases, detect, mixed, clifford, [0] * k)


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
    """Tensor model and tensor code, with the group formulas verified on
    one classify report of each factor and of the product."""
    model = product_model(m1, m2)
    code = CodeSpace(m1.dim * m2.dim, np.kron(w1.basis, w2.basis))
    n2 = m2.group.order
    r1, r2, r = classify(m1, w1), classify(m2, w2), classify(model, code)
    for name, (h1, h2, h) in [("logical", (r1.logical, r2.logical, r.logical)),
                              ("stabilizer", (r1.stabilizer, r2.stabilizer, r.stabilizer))]:
        if set(h.members) != {x * n2 + y for x in h1.members for y in h2.members}:
            raise RuntimeError(f"product {name} group is not the product of the factors")
    return model, code
