"""Exhaustive code enumeration over small models, and the non-normal probe.

Both entry points refuse oversized inputs instead of truncating: a partial
enumeration would silently break the completeness claims downstream tests
rely on.  Their max_order and max_dim replace the environment caps,
max_group_order() and max_ambient_dim(16), in either direction; None keeps
them.  The order cap is the one all_subgroups is given.

The codes of one subgroup come from its exact constituents in codes
(_constituent_phases); this module loops over subgroups and deduplicates.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from . import _tol
from ._linalg import compress, orthonormal_columns
from .cocycles import PhaseFunction
from .codes import (
    CodeSpace,
    _classify_orbits,
    _constituent_phases,
    _on_grid,
    clifford_code,
    weak_stabilizer_code,
)
from .groups import Subgroup, max_group_order
from .models import ProjectiveErrorModel, max_ambient_dim
from .projreps import (
    MakeRepError,
    ProjectiveRep,
    _edge_tolerance,
    _intertwiner_count,
    _reynolds,
    is_irreducible,
    restrict,
)

__all__ = [
    "SearchError",
    "enumerate_weak_stabilizer_codes",
    "q3_probe",
]


class SearchError(ValueError):
    """Raised when an input exceeds the search caps."""


def _check_caps(model: ProjectiveErrorModel, max_order: int | None, max_dim: int | None) -> int:
    """Raise SearchError past either cap (None: the environment's); return the order cap."""
    if max_order is None:
        max_order = max_group_order()
    if max_dim is None:
        max_dim = max_ambient_dim(16)
    if model.group.order > max_order:
        raise SearchError(
            f"group order {model.group.order} exceeds the search cap {max_order}"
        )
    if model.dim > max_dim:
        raise SearchError(f"ambient dimension {model.dim} exceeds the search cap {max_dim}")
    return max_order


# Seed of the Hermitian matrix that orders each rank's kept projectors.
_DEDUP_SEED = 7


class _ProjectorSet:
    """Projectors kept so far, for dedup by Frobenius distance < _tol.DERIVED.

    Kept projectors are grouped by rank, round(tr p), in one buffer per
    rank that doubles when full, so no call copies them all.  Skipping the
    other ranks is exact: for projectors P, Q of ranks r != s,
    |P - Q|^2 = r + s - 2 tr(PQ) >= |r - s| >= 1, since tr(PQ) <= min(r, s).

    Within a rank, the kept projectors are also listed in increasing order
    of v(Q) = Re tr(QA), for a fixed Hermitian A with |A|_F = 1 drawn from
    _DEDUP_SEED.  By Cauchy-Schwarz,
        |v(P) - v(Q)| <= |tr((P - Q)A)| <= |P - Q|_F |A|_F = |P - Q|_F,
    so every duplicate Q of a new P has v(Q) within _tol.DERIVED of v(P).
    Only the kept projectors in the window v(P) +- w, found by bisection,
    are compared, in one vectorized norm: the same test as against the
    whole rank, so the keep/drop decisions and the first witnesses are
    those of comparing with every kept projector.

    The window is widened by a rounding slack.  A computed value is a dot
    product of 2 dim^2 real terms, so it is off by at most about
    2 dim^2 u sum |A_ij| |P_ij| <= dim^2 eps |P|_F, with u = eps/2 the unit
    roundoff.  A duplicate has |Q|_F < |P|_F + _tol.DERIVED, and the computed
    norm and |A|_F are off by relative errors of order dim^2 eps.  So
        w = _tol.DERIVED + 8 dim^2 eps (|P|_F + 1)
    holds every duplicate with a fourfold margin.  At dim 16 the slack is
    about 2e-12, against a window half-width of 1e-7.
    """

    def __init__(self, dim: int):
        rng = np.random.default_rng(_DEDUP_SEED)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a += a.conj().T
        self._a = a / np.linalg.norm(a)
        self._slack = 8 * dim**2 * np.finfo(float).eps
        self._dim = dim
        # rank -> [the kept projectors in one buffer that doubles when full,
        #          their values v(Q) in increasing order, their slots in that order]
        self._ranks: dict[int, list] = {}

    def _value(self, p: np.ndarray) -> float:
        """v(p) = Re tr(pA): vdot conjugates A, and conj(A_ij) = A_ji."""
        return float(np.vdot(self._a, p).real)

    def add_if_new(self, p: np.ndarray) -> bool:
        """Keep p and return True unless a kept projector is within _tol.DERIVED of it."""
        rank = round(float(p.trace().real))
        kept = self._ranks.get(rank)
        if kept is None:
            kept = self._ranks[rank] = [np.empty((16, self._dim, self._dim), dtype=complex), [], []]
        buf, values, slots = kept
        v = self._value(p)
        w = _tol.DERIVED + self._slack * (math.sqrt(np.vdot(p, p).real) + 1)
        lo, hi = bisect.bisect_left(values, v - w), bisect.bisect_right(values, v + w)
        if lo < hi and (np.linalg.norm(buf[slots[lo:hi]] - p, axis=(1, 2)) < _tol.DERIVED).any():
            return False
        count = len(slots)
        if count == len(buf):
            buf = kept[0] = np.concatenate([buf, np.empty_like(buf)])
        buf[count] = p
        at = bisect.bisect_right(values, v, lo, hi)
        values.insert(at, v)
        slots.insert(at, count)
        return True


def enumerate_weak_stabilizer_codes(
    model: ProjectiveErrorModel,
    max_order: int | None = None,
    max_dim: int | None = None,
) -> list[tuple[Subgroup, PhaseFunction, CodeSpace]]:
    """Every weak stabilizer code of the model, one (H, f) witness per space.

    For each subgroup the trivializing phase fixes the coset of admissible
    phase functions; the 1-dimensional constituents of the untwisted
    restriction supply exactly the members of that coset with nonzero code.
    Deduplicated by projector, first witness kept, subgroups in order.
    """
    max_order = _check_caps(model, max_order, max_dim)
    g = model.group
    results: list[tuple[Subgroup, PhaseFunction, CodeSpace]] = []
    kept = _ProjectorSet(model.dim)
    for sub in g.all_subgroups(max_order):
        for f in _constituent_phases(model, sub):
            code = weak_stabilizer_code(model, sub, f)
            if code is None:
                raise RuntimeError("constituent with an empty code space")
            if kept.add_if_new(code.projector()):
                results.append((sub, f, code))
    return results


_SPLIT_SEED = 11
_SPLIT_ATTEMPTS = 8


def _commutant_element(rep: ProjectiveRep, seed: int) -> np.ndarray:
    """A random Hermitian element of the commutant of rep, seeded.

    The Reynolds average of a Gaussian Hermitian A (projreps._reynolds):
    the cocycle cancels, so it commutes with every rep(x), and it is the
    orthogonal projection of A, so it is a Gaussian Hermitian element of
    the commutant.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
    t = _reynolds(rep, rep, a + a.conj().T)
    return (t + t.conj().T) / 2


def _canonical_key(piece: ProjectiveRep) -> tuple:
    """(dim, character values on H, to a grid of _tol.DERIVED): no split basis enters.

    Constituents with one cocycle and equal characters are isomorphic, so
    only isomorphic pieces tie.
    """
    return (piece.dim, *_on_grid(piece.character().values).tolist())


def _margins_hold(rep: ProjectiveRep) -> bool:
    """Whether rep leaves the margins that _checked_piece's proof needs: its
    cocycle verifies, |rep(x)rep(x)* - 1|_F < _tol.EXACT/2 for every x, and
    every pair (x, y) deviates by less than delta/2, with delta =
    _edge_tolerance(walk) the edge tolerance of ProjectiveRep._validate.
    Read from rep._deviation_bounds(), which a restriction inherits, so a
    model's rep is measured once for all of its subgroups.
    """
    unitarity, pairs = rep._deviation_bounds()
    delta = _edge_tolerance(rep.group._cayley_walk())
    return unitarity < _tol.EXACT / 2 and pairs < delta / 2 and rep.cocycle.verify()


def _checked_piece(rep: ProjectiveRep, basis: np.ndarray) -> ProjectiveRep | None:
    """rep.on_subspace(basis) without its validation, when the span of the
    orthonormal columns B is invariant on the generators:
    iota(c) = |(1 - BB*) rep(c) B|_F < delta/4 for every c in walk.cols =
    [identity, *gens]; None otherwise.  When _margins_hold(rep), a piece
    returned here is one that on_subspace accepts, so it is the same piece.

    Write pi = rep, sigma its cocycle, P = BB*, rho(x) = B* pi(x) B, u =
    _tol.EXACT/4, and D(x, y) for the Frobenius norm of
    pi(x)pi(y) - sigma(x,y)pi(xy) (D_rho for rho).  The margins give
    |pi(x)|_op^2 <= 1 + |pi(x)pi(x)* - 1|_F < 1 + _tol.EXACT/2, so
    |pi(x)|_op < 1 + u, and D(x, y) < delta/2 on every pair.  on_subspace's
    validation checks rho's unitarity against _tol.EXACT, sigma's identity,
    and rho's edges against delta, and all three pass:
    - Edges.  rho(x)rho(c) - sigma(x,c)rho(xc) is
      B* (pi(x)pi(c) - sigma(x,c)pi(xc)) B - B* pi(x) (1 - P) pi(c) B, and
      B is an isometry, so D_rho(x, c) <= D(x, c) + |pi(x)|_op iota(c)
      < delta/2 + (1 + u) delta/4 < delta.  The all-pairs fallback is
      never reached.
    - Unitarity.  rho(x)* rho(x) - 1 is B* (pi(x)* pi(x) - 1) B minus
      [(1 - P) pi(x) B]* [(1 - P) pi(x) B], and a square A has
      |AA* - 1|_F = |A*A - 1|_F (AA* and A*A share their eigenvalues), so
      rho's deviation is below _tol.EXACT/2 + iota(x)^2.  iota is bounded
      on all of H by make_rep's depth induction over the cached tree: for
      y = y'g with parent y' and step g, pi(y')pi(g) = sigma(y',g)pi(y) + M
      with |M|_F = D(y', g) < delta/2, and (1 - P) pi(y') pi(g) B =
      (1 - P) pi(y') B rho(g) + (1 - P) pi(y') (1 - P) pi(g) B, so
      iota(y) <= (1 + u)(iota(y') + iota(g)) + delta/2
              < (1 + u) iota(y') + delta.
      From iota(e) < delta/4 that gives iota(y) < (l + 1) delta (1 + u)^l
      at depth l <= L, at most (L + 1)/(2L) _tol.EXACT (1 + u)^L, about
      _tol.EXACT.  So rho's deviation is below _tol.EXACT/2 + 1.1e-18.
    - The cocycle is sigma, which verifies.
    The same bound as _clifford_flag's (in codes) for the code's action,
    with the invariance read on the generators here and carried to every
    element by the induction.  Every margin is at least delta/4 =
    _tol.EXACT/(8L), 2e-12 at the depth L = 63 of the deepest order-64
    tree, far above the rounding of the computed norms.  Each test is
    "below the tolerance", so a NaN fails it, and the piece then goes to
    on_subspace.  The piece is built as on_subspace builds it, from
    compress(rep.matrices, basis) and rep's cocycle object.
    """
    walk = rep.group._cayley_walk()
    m = rep.matrices
    action = compress(m, basis)
    cols = walk.cols
    iota = np.linalg.norm(m[cols] @ basis - basis @ action[cols], axis=(1, 2))
    if not iota.max() < _edge_tolerance(walk) / 4:
        return None
    return ProjectiveRep(rep.group, action, rep.cocycle, validate=False)


def _irreducible_constituents(rep: ProjectiveRep) -> list[ProjectiveRep]:
    """Split a projective rep into irreducible invariant-subspace restrictions.

    A random Hermitian element of the commutant (_commutant_element)
    generically has one eigenvalue per irreducible constituent, counting
    copies of isomorphic ones separately (Dixon, Math. Comp. 61, 1993).
    Degenerate draws are detected by the per-piece irreducibility check
    and retried with the next seed.  Each piece is rep's action on an
    eigenspace, kept with rep's cocycle.  When rep leaves the margins of
    _margins_hold (checked once per split), a piece is accepted by
    _checked_piece's invariance test on the generators, which implies that
    rep.on_subspace would accept it; any other piece goes through
    rep.on_subspace itself.  So the pieces, and every verdict, are those
    of on_subspace.  They are returned sorted by _canonical_key, so the
    order does not depend on the draw except among isomorphic pieces.
    """
    if is_irreducible(rep):
        return [rep]
    dim = rep.dim
    margins = _margins_hold(rep)
    for attempt in range(_SPLIT_ATTEMPTS):
        evals, evecs = np.linalg.eigh(_commutant_element(rep, _SPLIT_SEED + attempt))
        pieces: list[ProjectiveRep] = []
        start = 0
        for k in range(1, dim + 1):
            if k < dim and evals[k] - evals[k - 1] < _tol.EIGENGAP * max(1.0, abs(evals[k])):
                continue
            basis = orthonormal_columns(evecs[:, start:k])
            start = k
            piece = _checked_piece(rep, basis) if margins else None
            if piece is None:
                try:
                    piece = rep.on_subspace(basis)
                except MakeRepError:
                    break
            if not is_irreducible(piece):
                break
            pieces.append(piece)
        else:
            return sorted(pieces, key=_canonical_key)
    raise RuntimeError("commutant sampling failed to split the representation")


def q3_probe(
    model: ProjectiveErrorModel,
    max_order: int | None = None,
    max_dim: int | None = None,
    return_candidates: bool = False,
):
    """Clifford codes of a central-type model whose stabilizer is not normal
    yet satisfies the weak stabilizer order criterion.

    Returns the list of hits; with return_candidates=True also returns every
    Clifford-code report examined.  Both are in subgroup lattice order, and
    the constituents of one restriction in _canonical_key order.  Only
    isomorphic constituents tie, and they fail the multiplicity-one test,
    so the order depends on no random draw.  The candidates are classified
    once per orbit of the model group (codes._classify_orbits), each
    witnessed by its constituent's subgroup and character.
    """
    if not model.is_central_type():
        raise SearchError("the probe only applies to central-type models")
    max_order = _check_caps(model, max_order, max_dim)
    g = model.group
    found: list[CodeSpace] = []
    witnesses: list[tuple[Subgroup, np.ndarray]] = []
    kept = _ProjectorSet(model.dim)
    for sub in g.all_subgroups(max_order):
        index = sub.index()
        if model.dim % index != 0:
            continue
        target = model.dim // index
        res = restrict(model.rep, sub)
        for rho in _irreducible_constituents(res):
            if rho.dim != target:
                continue
            count = _intertwiner_count(rho, res)
            if count != 1:
                continue
            code = clifford_code(model, sub, rho, res, count)
            if kept.add_if_new(code.projector()):
                found.append(code)
                witnesses.append((sub, rho.character().values))
    candidates = _classify_orbits(model, found, witnesses)
    hits = [
        report for report in candidates
        if g.order == len(report.logical) * len(report.stabilizer)
        and not report.stabilizer.is_normal()
    ]
    if return_candidates:
        return hits, candidates
    return hits
