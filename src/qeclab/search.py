"""Exhaustive code enumeration over small models, and the non-normal probe.

Both entry points refuse oversized inputs instead of truncating: a partial
enumeration would silently break the completeness claims downstream tests
rely on.  Their max_order and max_dim replace the environment caps,
max_group_order() and max_ambient_dim(16), in either direction; None keeps
them.  The order cap is the one all_subgroups is given.

The codes of one subgroup come from its exact constituents in codes
(_constituents), and its new ones are built together, one projector
average and one stacked eigh per subgroup (codes._eigenspaces); this
module loops over subgroups.  Deduplication is exact and compares no
projector: enumerate keys each code by its maximal witness (S, f_S), read
from characters and confirmed in integers (_maximal_witnesses), and
q3_probe's candidates are distinct by construction (see there).

q3_probe splits each restriction pi|H into irreducible pieces on the
eigenspaces of a random commutant element (_split_constituents).  A piece
is accepted by the rule classify applies to a code: the action C = B* pi B
and the invariance norms |(1 - BB*) pi(x) B| come from one
_linalg.compressed_action, every norm must be below _tol.SCAN, and the
lemma stated there makes C a projective rep with pi's cocycle, so no piece
is validated again.  A candidate's code is its piece's basis B.
"""

from __future__ import annotations

import numpy as np

from . import _tol
from ._linalg import compressed_action
from .cocycles import PhaseFunction, _phase_values
from .codes import (
    CodeSpace,
    _classify_orbits,
    _constituents,
    _eigenspaces,
    _on_grid,
)
from .groups import Subgroup, max_group_order
from .models import ProjectiveErrorModel, max_ambient_dim
from .projreps import (
    ProjectiveRep,
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


def _maximal_witnesses(model, sub, nums, den, values, dims, table, grid):
    """The maximal witness (S, f_S) of the (sub, f) code for each row f =
    nums[i] / den of codes._constituents, valued values[i], of dimension
    dims[i], as f_S's numerators over grid = sigma.den * exp(G), -1 off S,
    [k, |G|].  RuntimeError when a key fails its confirmation.
    table[h, x] = sigma(h, x) chi_pi(hx) = tr(pi(h) pi(x)).

    Let W be the code, d = dims[i] its dimension, S = {x : pi(x) acts on W
    as a scalar} and f_S that scalar.  Then H <= S, f_S|H = f and W <=
    W(S, f_S) <= W(H, f) = W, so W = W(S, f_S): the key fixes the code,
    and the code fixes its key.  h -> conj(f(h)) pi(h) is a linear rep of H
    (df = sigma|H), and W's projector P is its average, so
        T(x) = tr(P pi(x)) = (1/|H|) sum_h conj(f(h)) sigma(h, x) chi_pi(hx),
    row i of conj(F) @ table[H].  T(x) = tr(P pi(x) P) is the trace of a
    contraction of the d-dimensional W, so |T(x)| <= d, with equality
    exactly when pi(x) maps W onto itself as a unimodular scalar c, that is
    x in S, and then T(x) = d f_S(x).  f_S has df_S = sigma|S, so f_S lies
    on the grid, as in codes._stabilizer.

    Read S' = {x : |T(x)| >= d - _tol.DERIVED}, and f' the grid point
    nearest T(x)/d on S'.  The computed T(x) is off by the deviation of the
    model's character from the exact one, under sqrt(dim V) _tol.EXACT for
    matrices that hold to _tol.EXACT, plus a rounding of order
    dim V * eps: together under 1e-8 at dim 16.  So rounding cannot push
    an element of S below the threshold: S <= S'.  And f' = f_S on S, as
    T(x)/d is off f_S(x) by under 1e-8, far below half a grid step, pi/grid
    radians.  Each key is then confirmed:
    (a) H <= S' and f'|H = f, compared as numerators;
    (b) S' is closed under products and df' = sigma|S', as integers over
        the grid;
    (c) code_dimension_formula's average of conj(f') chi_pi over S' is d.
    By (b) S' is a subgroup (closed, finite, holding H) and f' an admissible
    phase, so the average in (c) is the dimension of the (S', f')
    eigenspace E, an integer that a rounding under 1/2 cannot move.  By (a)
    E <= W(H, f) = W, and by (c) E = W, so every x in S' acts on W as the
    scalar f'(x): S' <= S.  With S <= S', (S', f') is (S, f_S) exactly.  A
    false member x of S', outside S, would give S' <= S, so it fails the
    confirmation, and the search raises rather than keep a wrong key.

    Where (a) holds with |S'| = |H|, S' is H and f' is f, so (b) and (c)
    hold by construction: f = f0 chi has df = sigma|H (f0 is a checked
    trivializer, chi an exact character), and the average in (c) is the
    multiplicity that _constituents read as d.  The rows with a larger S'
    are tested further, together, on the union u of their S'.
    """
    g, sigma = model.group, model.cocycle
    mem = list(sub.members)
    traces = values.conj() @ table[mem] / len(sub)
    inside = np.abs(traces) >= dims[:, None] - _tol.DERIVED
    num = np.where(inside, np.rint(np.angle(traces) * (grid / (2 * np.pi))).astype(int) % grid, -1)
    # (a) on every row, as num / grid = nums / den mod 1
    ok = inside[:, mem].all() and ((num[:, mem] * den - nums * grid) % (grid * den) == 0).all()
    wide = np.flatnonzero(inside.sum(axis=1) > len(sub))
    if ok and wide.size:   # (b) and (c) on the rows whose S' is larger than H
        ins, read = inside[wide], num[wide]
        u = np.flatnonzero(ins.any(axis=0))
        mul = g.mul[np.ix_(u, u)]
        cobound = (read[:, u, None] + read[:, None, u] - read[:, mul]) % grid
        wrong = ~ins[:, mul] | (cobound != sigma.num[np.ix_(u, u)] * (grid // sigma.den))
        conj_f = np.where(ins[:, u], _phase_values(read[:, u], grid).conj(), 0)
        average = conj_f @ model.rep.character().values[u] / ins.sum(axis=1)
        closed = not (ins[:, u, None] & ins[:, None, u] & wrong).any()
        ok = closed and (np.abs(average - dims[wide]) <= _tol.DERIVED).all()
    if not ok:
        raise RuntimeError("a maximal witness failed its confirmation")
    return num


def _enumerate_codes(model: ProjectiveErrorModel, max_order: int | None, max_dim: int | None):
    """(enumerate_weak_stabilizer_codes, each code's maximal witness key:
    f_S's numerators over sigma.den * exp(G), -1 off S, one row per code).

    A code is built only for a key (_maximal_witnesses) not seen before, and
    the new rows of one subgroup are built together (codes._eigenspaces).
    No projector is formed to compare codes, and no random number is drawn.
    """
    max_order = _check_caps(model, max_order, max_dim)
    g, sigma = model.group, model.cocycle
    grid = sigma.den * g.exponent()
    table = sigma.to_complex_table() * model.rep.character().values[g.mul]
    found, keys, seen = [], [], set()
    for sub in g.all_subgroups(max_order):
        nums, den, dims = _constituents(model, sub)
        if not len(dims):
            continue
        values = _phase_values(nums, den)
        num = _maximal_witnesses(model, sub, nums, den, values, dims, table, grid)
        new = []
        for i, key in enumerate(num):
            if key.tobytes() not in seen:
                seen.add(key.tobytes())
                new.append(i)
        if not new:
            continue
        built = _eigenspaces(model, sub, values[new], (nums[new], den), dims[new])
        for i, code in zip(new, built):
            if code is None:
                raise RuntimeError("constituent with an empty code space")
            found.append((sub, PhaseFunction._from_num(sub, nums[i], den, floats=values[i]), code))
            keys.append(num[i])
    return found, keys


def _enumerate(model: ProjectiveErrorModel, max_order: int | None, max_dim: int | None):
    """(enumerate_weak_stabilizer_codes, each code's maximal witness
    (S, f_S.values) for codes._classify_orbits), as qeclab search reads them.
    The witnesses are built from _enumerate_codes' keys here only."""
    found, keys = _enumerate_codes(model, max_order, max_dim)
    g = model.group
    grid = model.cocycle.den * g.exponent()
    witnesses = []
    for key in keys:
        members = np.flatnonzero(key >= 0)
        witnesses.append((g._intern(tuple(members.tolist())), _phase_values(key[members], grid)))
    return found, witnesses


def enumerate_weak_stabilizer_codes(
    model: ProjectiveErrorModel,
    max_order: int | None = None,
    max_dim: int | None = None,
) -> list[tuple[Subgroup, PhaseFunction, CodeSpace]]:
    """Every weak stabilizer code of the model, one (H, f) witness per space.

    For each subgroup the trivializing phase fixes the coset of admissible
    phase functions; the 1-dimensional constituents of the untwisted
    restriction supply exactly the members of that coset with nonzero code.
    Deduplicated by maximal witness (_maximal_witnesses), which is exact:
    first witness kept, subgroups in order.
    """
    return _enumerate_codes(model, max_order, max_dim)[0]


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


def _split_constituents(rep: ProjectiveRep) -> list[tuple[ProjectiveRep, np.ndarray]]:
    """Split a projective rep into irreducible invariant-subspace restrictions,
    as (piece, B) pairs: B the orthonormal columns spanning the piece's
    subspace, and the piece rep's action B* rep(x) B on it.

    A random Hermitian element of the commutant (_commutant_element)
    generically has one eigenvalue per irreducible constituent, counting
    copies of isomorphic ones separately (Dixon, Math. Comp. 61, 1993).
    Each eigenspace B, a block of eigh's eigenvectors used as it is
    (|B*B - 1|_F is a rounding of order dim * eps, under 3e-15 on the
    order-64 models), is read once by _linalg.compressed_action, as
    codes.classify reads a code: the span is accepted as invariant when
    iota(x) = |(1 - BB*) rep(x) B|_F is below _tol.SCAN on every x, and
    the piece is then ProjectiveRep(C) with rep's cocycle object, with no
    validation of its own.  compressed_action's lemma bounds the piece's
    deviations by rep's plus 1.1e-16, so ProjectiveRep.on_subspace, which
    builds the same matrices, would accept it.  A degenerate draw merges
    constituents, or leaves a span that is not invariant; either fails a
    test (iota, then irreducibility), and the split retries with the next
    seed.  The pieces are returned sorted by _canonical_key, so the order
    does not depend on the draw except among isomorphic pieces.  An
    irreducible rep is its own piece, with B = 1.
    """
    if is_irreducible(rep):
        return [(rep, np.eye(rep.dim, dtype=complex))]
    dim = rep.dim
    for attempt in range(_SPLIT_ATTEMPTS):
        evals, evecs = np.linalg.eigh(_commutant_element(rep, _SPLIT_SEED + attempt))
        pieces: list[tuple[ProjectiveRep, np.ndarray]] = []
        start = 0
        for k in range(1, dim + 1):
            if k < dim and evals[k] - evals[k - 1] < _tol.EIGENGAP * max(1.0, abs(evals[k])):
                continue
            basis = evecs[:, start:k]
            start = k
            action, inside, _ = compressed_action(rep.matrices, basis)
            if not inside.max() < _tol.SCAN:
                break
            piece = ProjectiveRep(rep.group, action, rep.cocycle, validate=False)
            if not is_irreducible(piece):
                break
            pieces.append((piece, basis))
        else:
            return sorted(pieces, key=lambda pair: _canonical_key(pair[0]))
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

    No candidate repeats a code, so none is deduplicated.  A candidate
    (H, rho) has <rho, pi|H> = 1 and dim rho [G:H] = dim pi.  By Frobenius
    reciprocity the intertwiner from rho into pi|H gives a nonzero map
    Ind_H^G rho -> pi, onto since pi is irreducible (a model's rep is), and
    an isomorphism since the dimensions agree.  So V is the direct sum of
    the blocks pi(t)W over the cosets tH, and pi(x)W meets W in 0 for x
    outside H: the logical group L(W) is H.  The code W therefore fixes
    its witness (H, chi_rho): H = L(W), and chi_rho is the character of
    H's action on W.  Two candidates on different subgroups have different
    logical groups, and two on one subgroup are non-isomorphic
    constituents, since isomorphic ones would make the multiplicity at
    least 2; their characters differ, and so do their codes.  So
    (H, chi_rho) is a code invariant: g carries W's witness to pi(g)W's,
    and codes._witness_orbits finds each orbit whole, every member reached
    from its representative by one g.

    Each candidate's code is the split basis B of its constituent
    (_split_constituents), with no second construction.  rho = B* pi|H B
    on a span that pi|H leaves invariant, so pi(h)B = B rho(h): the
    inclusion B is an intertwiner from rho into pi|H.  As <rho, pi|H> = 1,
    Hom(rho, pi|H) is spanned by B, so the image of the one intertwiner,
    the rho-isotypic component of pi|H that codes.clifford_code builds, is
    span(B).  Every check of clifford_code holds here:
    - rho is irreducible: the split checks every piece;
    - rho has the restriction's cocycle: the piece keeps its cocycle object;
    - multiplicity one: _intertwiner_count(rho, pi|H) == 1;
    - [G:H] dim rho = dim V: the target filter;
    - the intertwiner test on every h in H, with t = B:
      |pi(h)B - B rho(h)|_F <= _tol.SCAN sqrt(dim rho) = _tol.SCAN |B|_F,
      clifford_code's bound, and RuntimeError otherwise;
    - injectivity: B has orthonormal columns.
    """
    if not model.is_central_type():
        raise SearchError("the probe only applies to central-type models")
    max_order = _check_caps(model, max_order, max_dim)
    g = model.group
    found, witnesses = [], []
    for sub in g.all_subgroups(max_order):
        index = sub.index()
        if model.dim % index != 0:
            continue
        target = model.dim // index
        res = restrict(model.rep, sub)
        for rho, basis in _split_constituents(res):
            if rho.dim != target or _intertwiner_count(rho, res) != 1:
                continue
            moved = np.linalg.norm(res.matrices @ basis - basis @ rho.matrices, axis=(1, 2))
            if not moved.max() <= _tol.SCAN * np.sqrt(rho.dim):
                raise RuntimeError("q3_probe: a split basis is not an intertwiner")
            found.append(CodeSpace(model.dim, basis))
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
