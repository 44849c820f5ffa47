"""Exhaustive code enumeration over small models, and the non-normal probe.

Both entry points refuse oversized inputs instead of truncating: a partial
enumeration would silently break the completeness claims downstream tests
rely on.  Their max_order and max_dim replace the environment caps,
max_group_order() and max_ambient_dim(16), in either direction; None keeps
them.  The caps are checked once, before any lattice is built
(_check_caps).  Both walk the lattice one subgroup order at a time, the
rows of one order read together from whole arrays, and build no
CodeReport themselves (codes._report builds every one).  Each proof is
stated once, by the function that owns it:
- enumerate_weak_stabilizer_codes: the commuting-pair pruning;
- _maximal_witnesses: the maximal witness key (S, f_S), confirmed in
  integers, which makes the dedup exact, and the trace row T;
- codes._eigenspaces: a code's basis, with no eigh;
- codes._key_reports: an enumerated code's report from its key and T;
- _split_restrictions: the irreducible pieces of pi|H and their tests;
- q3_probe: a candidate's Clifford report, read from its piece
  (_clifford_reports), and the probe's early exit;
- codes._report: the partitioning closed form;
- cocycles._cyclic_extensions: f0 and the characters of each abelian H;
- cocycles._snap_phases: the least denominator of a snapped phase;
- _linalg._blocks: the block rule, each pass blocked by what its own row
  holds.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import _tol
from ._linalg import _blocks, compression, scalar_deviation
from .cocycles import PhaseFunction, _pairing_defects, _phase_values
from .codes import (
    CodeError,
    CodeSpace,
    _constituents,
    _dimension_counts,
    _eigenspaces,
    _key_reports,
    _report,
    _stabilizers,
)
from .groups import Subgroup, max_group_order
from .models import ProjectiveErrorModel, max_ambient_dim
from .projreps import _conjugation_table, _irreducible_character, _reynolds

__all__ = [
    "SearchError",
    "enumerate_weak_stabilizer_codes",
    "q3_probe",
]


class SearchError(ValueError):
    """Raised when an input exceeds the search caps."""


def _check_caps(model: ProjectiveErrorModel, max_order: int | None, max_dim: int | None) -> None:
    """Raise SearchError past either cap (None: the environment's).  It is
    the one cap check of a search: the lattice is then built with no check
    of its own (FiniteGroup._lattice)."""
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


def _maximal_witnesses(model, members, nums, values, dims, table, grid):
    """(keys, T): the maximal witness (S, f_S) of the (H_i, f_i) code for
    each row i of codes._constituents, and the code's trace row T.
    members[i] are the members of H_i (all of one order), f_i = nums[i] /
    grid, valued values[i], of dimension dims[i].  Each key is f_S's
    numerators over grid = sigma.den * exp(G), -1 off S, [k, |G|], in the
    least integer type that holds -grid, and T is [k, |G|] complex.
    RuntimeError when a key fails its confirmation.
    table[h, x] = sigma(h, x) chi_pi(hx) = tr(pi(h) pi(x)).

    T is formed here only: codes._key_reports reads the character of L's
    action on W from it, T on L, as rho(x) = B* pi(x) B has trace
    tr(P pi(x)) = T(x).  W(S, f_S) = W, proved below, so the average over
    S that the code's key names gives the same P as the one over H formed
    here.

    Let W be the code, d = dims[i] its dimension, S = {x : pi(x) acts on W
    as a scalar} and f_S that scalar.  Then H <= S, f_S|H = f and W <=
    W(S, f_S) <= W(H, f) = W, so W = W(S, f_S): the key fixes the code,
    and the code fixes its key.  h -> conj(f(h)) pi(h) is a linear rep of H
    (df = sigma|H), and W's projector P is its average, so
        T(x) = tr(P pi(x)) = (1/|H|) sum_h conj(f(h)) sigma(h, x) chi_pi(hx),
    row i of conj(f_i) @ table[H_i] / |H|.
    T(x) = tr(P pi(x) P) is the trace of a contraction of the
    d-dimensional W, so |T(x)| <= d, with equality exactly when pi(x) maps
    W onto itself as a unimodular scalar c, that is x in S, and then T(x) =
    d f_S(x).  f_S has df_S = sigma|S, so f_S lies on the grid, as in
    codes._stabilizers.

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
    hold by construction: f = f0 chi has df = sigma|H (f0 a tested
    trivializer, chi an exact character), and the average in (c) is the
    multiplicity that _constituents read as d.  The rows with a larger S'
    are tested further, together, on the union u of their S'.

    Three passes, each in blocks of what its own row holds
    (_linalg._blocks): T from the gathered table[H_i], (|H| + 1) |G|
    entries; S', f' and (a) from T, |G| of each of |T|, the mask and the
    numerators; and (b) and (c) on the rows with a larger S', |u|^2 of each
    [rows, |u|, |u|] table.  Each row's T is a product of its own and its
    key is read from its row alone, so neither depends on the blocks.
    """
    g, sigma = model.group, model.cocycle
    k, m = members.shape
    chi = model.rep.character().values
    keys = np.empty((k, g.order), dtype=np.min_scalar_type(-grid))
    traces = np.empty((k, g.order), dtype=complex)
    for rows in _blocks(k, (m + 1) * g.order):   # the gathered table[H_i] and T
        traces[rows] = (values[rows].conj()[:, None] @ table[members[rows]])[:, 0] / m   # one product per row
    wide = np.zeros(k, dtype=bool)   # the rows whose S' is larger than H
    for block in _blocks(k, 3 * g.order):   # |T|, S' and the numerators
        t, mem = traces[block], members[block]
        at = np.arange(len(mem))[:, None]
        inside = np.abs(t) >= dims[block, None] - _tol.DERIVED
        num = np.full(t.shape, -1)   # an angle only on S'
        num[inside] = np.rint(np.angle(t[inside]) * (grid / (2 * np.pi))).astype(int) % grid
        # (a) on every row, as num / grid = nums / grid mod 1
        if not (inside[at, mem].all() and ((num[at, mem] - nums[block]) % grid == 0).all()):
            raise RuntimeError("a maximal witness failed its confirmation")
        keys[block] = num
        wide[block] = inside.sum(axis=1) > m
    wide = np.flatnonzero(wide)
    u = np.flatnonzero((keys[wide] >= 0).any(axis=0))   # (b) and (c) on those rows, on the union of their S'
    mul = g.mul[np.ix_(u, u)]
    for part in (wide[rows] for rows in _blocks(wide.size, u.size**2)):
        ins, read = keys[part] >= 0, keys[part].astype(int)
        cobound = (read[:, u, None] + read[:, None, u] - read[:, mul]) % grid
        wrong = ~ins[:, mul] | (cobound != sigma.num[np.ix_(u, u)] * (grid // sigma.den))
        conj_f = np.where(ins[:, u], _phase_values(read[:, u], grid).conj(), 0)
        average = conj_f @ chi[u] / ins.sum(axis=1)
        closed = not (ins[:, u, None] & ins[:, None, u] & wrong).any()
        if not (closed and (np.abs(average - dims[part]) <= _tol.DERIVED).all()):
            raise RuntimeError("a maximal witness failed its confirmation")
    return keys, traces


def enumerate_weak_stabilizer_codes(
    model: ProjectiveErrorModel,
    max_order: int | None = None,
    max_dim: int | None = None,
) -> list[tuple[Subgroup, PhaseFunction, CodeSpace]]:
    """Every weak stabilizer code of the model, one (H, f) witness per space.

    Only the subgroups H with no commuting pair x, y of nontrivial pairing
    beta(x, y) = sigma(x, y) / sigma(y, x) are visited: a trivializer f
    gives beta(x, y) = 1 on every such pair, so no other H carries a code.
    The test (cocycles._pairing_defects) prunes the lattice as it is built
    (FiniteGroup._lattice), so a rejected H is never interned, restricted
    or solved.  It is exact on abelian H (Kleppner, Math. Ann. 158, 1965)
    but only necessary on others (Moravec, Amer. J. Math. 134, 2012), so
    every non-abelian survivor is still solved (codes._constituents).

    The rows (H, f) of one subgroup order are read together: the
    admissible f with a nonzero code (codes._constituents), their keys and
    trace rows (_maximal_witnesses), the dedup, which keeps the first of
    each key in lattice order and compares no projector, and the codes of
    the new keys (codes._eigenspaces).  A code's f is its report's
    stabilizer phase where the key's S is H itself, as the key agrees with
    f on H (confirmation (a)).  Each new code's report, read from its key
    and trace row (codes._key_reports), is attached as code._source, which
    codes.classify returns, and its basis made read-only so that no report
    goes stale.  No random number is drawn.
    """
    _check_caps(model, max_order, max_dim)
    g, sigma = model.group, model.cocycle
    table = sigma.to_complex_table() * model.rep.character().values[g.mul]   # tr(pi(h) pi(x))
    conj, found, seen = _conjugation_table(sigma), [], set()
    bad = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
           for row in _pairing_defects(sigma, range(g.order))]
    for _, same_order in itertools.groupby(g._lattice(bad), key=len):   # sorted by order
        subs = [g._intern(members, valid=True) for members in same_order]
        owner, nums, grid, dims = _constituents(model, subs)
        members = np.array([sub.members for sub in subs])[owner]
        values = _phase_values(nums, grid)
        (num, traces), new = _maximal_witnesses(model, members, nums, values, dims, table, grid), []
        for i, key in enumerate(num.view(f"V{num.itemsize * g.order}").ravel().tolist()):   # bytes per row
            if key not in seen:
                seen.add(key)
                new.append(i)
        if not new:
            continue
        traces = traces[new]   # the new codes' rows only, before the bases are built
        built = _eigenspaces(model, members[new], values[new], dims[new])
        if any(code is None for code in built):
            raise RuntimeError("constituent with an empty code space")
        reports = _key_reports(model, built, num[new], traces, conj)
        for code, report in zip(built, reports):
            code.basis.setflags(write=False)
            code._source = report
        domains = [subs[i] for i in owner[new]]
        # where S is H itself, the report's f_S is f: the key agrees with f on H
        phases = [r.stabilizer_phase if r.stabilizer is h else None for r, h in zip(reports, domains)]
        rest = [i for i, f in enumerate(phases) if f is None]
        at = np.array(new)[rest]
        for i, f in zip(rest, PhaseFunction._runs([domains[i] for i in rest], nums[at].ravel(), grid,
                                                  None, values[at].ravel())):
            phases[i] = f
        found += zip(domains, phases, built)
    return found


_SPLIT_SEED = 11
_SPLIT_ATTEMPTS = 8


@functools.lru_cache(maxsize=64)
def _hermitian_draw(dim: int, seed: int) -> np.ndarray:
    """A + A* for a complex Gaussian A drawn from default_rng(seed), read-only.

    It depends on (dim, seed) alone, and every split asks for the same few
    seeds, so each pair is drawn once.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = a + a.conj().T
    a.flags.writeable = False
    return a


def _commutant_elements(mats: np.ndarray, seed: int) -> np.ndarray:
    """A random Hermitian element of the commutant of each restriction in a
    stack mats[i] = pi|H_i, [k, |H|, d, d], seeded.

    The Reynolds average of one Gaussian Hermitian A over each H
    (projreps._reynolds, A from _hermitian_draw): the cocycle cancels,
    so it commutes with every pi(h), and it is the orthogonal projection of
    A onto the commutant, so it is a Gaussian Hermitian element of it.
    """
    t = _reynolds(mats, mats, _hermitian_draw(mats.shape[-1], seed))
    return (t + t.conj().swapaxes(-2, -1)) / 2


def _on_grid(chis: np.ndarray) -> np.ndarray:
    """The values of each chi along the last axis in steps of _tol.DERIVED,
    real and imaginary parts interleaved.  A piece's canonical key is its
    dimension followed by its character's row (_split_draw): no split basis
    enters, and constituents with one cocycle and equal characters are
    isomorphic, so only isomorphic pieces tie."""
    parts = np.ascontiguousarray(chis, dtype=np.complex128).view(np.float64)
    return np.rint(parts / _tol.DERIVED).astype(np.int64)


def _split_restrictions(matrices: np.ndarray, members) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Split each restriction pi|H into irreducible invariant-subspace
    restrictions.  matrices is pi's stack and each row of members the
    members of one H, all of one order; a rep's own stack with members
    [range(n)] splits that rep.  For each H, the list of (C, B) pieces: B
    the orthonormal columns spanning the piece's subspace, and C[h] =
    B* pi(h) B its action, h in members' order.

    A random Hermitian element of the commutant of pi|H
    (_commutant_elements) generically has one eigenvalue per irreducible
    constituent, counting copies of isomorphic ones separately (Dixon,
    Math. Comp. 61, 1993).  Each cluster of eigh's eigenvalues, cut where
    neighbours differ by _tol.EIGENGAP relative, gives a block B of the
    eigenvector matrix V, used as it is.  Every piece of H is read from
    one _linalg.compression of V, by compressed_action's block lemma: the piece's
    action is the diagonal block of C_V = V* pi V on B's columns, its
    invariance residual iota(h) = |(1 - BB*) pi(h) B|_F is the norm of the
    rest of its column block, up to V's unitarity defect |V*V - 1|, a
    rounding of order dim * eps (under 3e-15 on the order-64 models), and
    its character is the block trace.  A piece is accepted as
    codes.classify accepts a code, with iota below _tol.SCAN on every h,
    and then as irreducible, <chi, chi> = 1, one test for every piece.
    compressed_action's lemma bounds an accepted piece's deviations by
    pi's plus 1.1e-16, so ProjectiveRep.on_subspace would accept it with
    pi|H's cocycle, and no piece is validated again.  A degenerate draw
    merges constituents, or leaves a span that is not invariant; either
    fails a test, and that H alone is split again with the next seed
    (RuntimeError after _SPLIT_ATTEMPTS).  The pieces of each H are sorted
    by canonical key (_on_grid), so the order does not depend on the draw
    except among isomorphic pieces.  An irreducible pi|H is its own piece,
    with B = 1.

    Subgroups of one order have one shape, so they are split together:
    one Reynolds average, one eigh and one compression per block
    (_linalg._blocks), a row counting its gathered pi|H alone, |H| d^2
    entries: the average and the compression hold temporaries of that size
    (pi|H A and its reshaped copy, the conjugated stack, the flat products
    and C, the float |C|^2 mask), and a block peaked at 4.1-4.2 times its
    gather under tracemalloc on the bench q3 models.  Each step acts on
    each H alone, so neither the blocks nor a retry change any H's pieces.
    """
    members = np.asarray(members)
    pieces = []
    for rows in _blocks(len(members), matrices[members[0]].size):
        pieces += _split_block(matrices[members[rows]])
    return pieces


def _split_block(mats: np.ndarray) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """_split_restrictions on one block, mats[i] = pi|H_i: draws with
    successive seeds, each on the H no earlier draw split."""
    irreducible = _irreducible_character(np.einsum("knaa->kn", mats))
    pieces = [[(m, np.eye(len(m[0]), dtype=complex))] if irr else None
              for m, irr in zip(mats, irreducible)]
    todo = np.flatnonzero(~irreducible)
    for attempt in range(_SPLIT_ATTEMPTS):
        if todo.size:
            for i, got in zip(todo, _split_draw(mats[todo], _SPLIT_SEED + attempt)):
                pieces[i] = got
            todo = np.array([i for i in todo if pieces[i] is None], dtype=int)
    if todo.size:
        raise RuntimeError("commutant sampling failed to split the representation")
    return pieces


def _split_draw(mats: np.ndarray, seed: int) -> list:
    """The sorted pieces of each pi|H_i = mats[i] read from one seeded draw
    (see _split_restrictions), or None where a piece fails a test."""
    k, n, d, _ = mats.shape
    evals, evecs = np.linalg.eigh(_commutant_elements(mats, seed))
    merged = np.diff(evals, axis=1) < _tol.EIGENGAP * np.maximum(1.0, np.abs(evals[:, 1:]))
    starts = np.insert(~merged, 0, True, axis=1)   # [i, a]: a cluster of H_i starts at column a
    c = compression(mats, evecs)[0]                               # [i, h, a, b]
    cluster = np.cumsum(starts, axis=1)
    off = cluster[:, None, :, None] != cluster[:, None, None, :]
    columns = np.where(off, np.abs(c) ** 2, 0.0).sum(axis=2)      # [i, h, b], off its block
    first = np.flatnonzero(starts)                                # pieces, flat over [i, a]
    iota = np.sqrt(np.add.reduceat(columns.swapaxes(1, 2).reshape(k * d, n), first))
    chis = np.add.reduceat(c.diagonal(0, 2, 3).swapaxes(1, 2).reshape(k * d, n), first)
    ok = (iota.max(axis=1) < _tol.SCAN) & _irreducible_character(chis)
    row, start = np.divmod(first, d)
    stop = np.append(first[1:], k * d) - row * d
    failed = set(row[~ok].tolist())
    split: list = [None if i in failed else [] for i in range(k)]
    grid = _on_grid(chis).tolist()                                # one row per piece
    for i, a, b, chi in zip(row.tolist(), start.tolist(), stop.tolist(), grid):
        if split[i] is not None:
            split[i].append(((b - a, *chi), c[i, :, a:b, a:b].copy(), evecs[i, :, a:b]))
    return [got and [(action, basis) for _, action, basis in sorted(got, key=lambda t: t[0])]
            for got in split]


def _clifford_reports(model, kept):
    """classify's report of each candidate's code, read from its piece in
    closed form: q3_probe proves it field by field.

    kept lists (H, rho, B) for the pieces (rho, B) of pi|H
    (_split_restrictions) with dim rho = |H| / dim pi, for subgroups H of
    one order, so every piece has one shape.  RuntimeError when a B fails
    the intertwiner test or a stabilizer phase does not snap, and
    CodeError when a B fails CodeSpace's orthonormality test.
    """
    d = model.dim
    subs, rhos, bases = zip(*kept)
    rhos, bases = np.stack(rhos), np.stack(bases)        # [piece, h, t, t], [piece, d, t]
    k, n, t = rhos.shape[:3]
    members = np.array([sub.members for sub in subs])                     # [piece, h]
    beside = rhos.transpose(0, 2, 1, 3).reshape(k, t, n * t)             # rho(h) side by side
    # per piece: the gathered pi|H (n d^2 entries) and the products pi(h)B and
    # B rho(h) (n d t each), the residual formed in place
    for rows in _blocks(k, n * d * (d + 2 * t)):
        b = bases[rows]
        moved = (model.rep.matrices[members[rows]].reshape(-1, n * d, d) @ b).reshape(-1, n, d, t)
        moved -= (b @ beside[rows]).reshape(-1, d, n, t).swapaxes(1, 2)   # pi(h)B - B rho(h)
        if not np.linalg.norm(moved, axis=(2, 3)).max() <= _tol.SCAN * np.sqrt(t):   # NaN fails too
            raise RuntimeError("q3_probe: a split basis is not an intertwiner")
    gram = bases.conj().transpose(0, 2, 1) @ bases - np.eye(t)
    if not np.linalg.norm(gram, axis=(1, 2)).max() <= _tol.EXACT:   # NaN fails too
        raise CodeError("basis columns are not orthonormal")
    stabs, phases = _stabilizers(model, members, *scalar_deviation(rhos))
    if not all(phase.is_exact for phase in phases):
        raise RuntimeError("q3_probe: a stabilizer phase failed to snap")
    values = np.concatenate([phase.values for phase in phases])
    dims = _dimension_counts(model, [x for s in stabs for x in s.members], values, [len(s) for s in stabs])
    detect = ~np.array([sub._inside for sub in subs]) | np.array([stab._inside for stab in stabs])
    return _report(
        model, [CodeSpace._checked(d, b) for b in bases], subs, stabs, phases,
        detect, np.full(k, -1), [(True, None)] * k, [dim - t for dim in dims],
    )   # detectable = (G minus H) + S, and no element mixed


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
    the constituents of one restriction in canonical key order (_on_grid).  Only
    isomorphic constituents tie, and they fail the multiplicity-one test,
    so the order depends on no random draw.  Each report is the one
    codes.classify gives the candidate's code, read from its constituent
    with no action of G on the code (_clifford_reports; proof below), for
    all subgroups of one order together.

    No candidate repeats a code, so none is deduplicated.  A candidate
    (H, rho) has <rho, pi|H> = 1 and dim rho [G:H] = dim pi.  By Frobenius
    reciprocity the intertwiner from rho into pi|H gives a nonzero map
    Ind_H^G rho -> pi, onto since pi is irreducible (a model's rep is), and
    an isomorphism since the dimensions agree.  So V is the direct sum of
    the blocks pi(t)W over the cosets tH, and pi(x)W meets W in 0 for x
    outside H: the logical group L(W) is H.  Two candidates on different
    subgroups have different logical groups, and two on one subgroup are
    non-isomorphic constituents, since isomorphic ones would make the
    multiplicity at least 2; their characters differ, and so do their
    codes.

    Each candidate's code is the split basis B of its constituent
    (_split_restrictions), with no second construction.  rho = B* pi|H B
    on a span that pi|H leaves invariant, so pi(h)B = B rho(h): the
    inclusion B is an intertwiner from rho into pi|H.  As <rho, pi|H> = 1,
    Hom(rho, pi|H) is spanned by B, so the image of the one intertwiner,
    the rho-isotypic component of pi|H that codes.clifford_code builds, is
    span(B).  Every check of clifford_code holds here:
    - rho is irreducible: the split checks every piece;
    - rho has the restriction's cocycle: compressed_action's lemma, by
      which the split accepts the piece;
    - multiplicity one and [G:H] dim rho = dim V: the target filter,
      dim rho = target = dim V / [G:H] = |H| / dim V, since |G| = dim V^2.
      pi is irreducible, so sum_G |chi_pi|^2 = |G| = chi_pi(e)^2 and chi_pi
      vanishes off e (a nice error basis, Klappenecker and Roetteler I).
      So <rho, pi|H> = dim rho dim V / |H| = dim rho / target, which is 1
      exactly when dim rho = target;
    - the intertwiner test on every h in H, with t = B:
      |pi(h)B - B rho(h)|_F <= _tol.SCAN sqrt(dim rho) = _tol.SCAN |B|_F,
      clifford_code's bound, and RuntimeError otherwise;
    - injectivity: B has orthonormal columns, tested as CodeSpace tests
      them (CodeError otherwise).

    The report, field by field, with W = span(B), w = dim rho and C(x) =
    B* pi(x) B, the compressed action classify reads:
    - logical = H, shown above.
    - For x outside H, pi(x)W lies in the block xH, orthogonal to W, so
      C(x) = 0: x maps W into its complement and acts on W as the scalar 0.
      For h in H, pi(h)W = W.  So no element is mixed (is_partitioning,
      with no witness), and the detectable set, the x with C(x) scalar, is
      (G minus H) plus the h where C(h) = rho(h) is a scalar.  rho(h) is
      unitary, so such a scalar is unimodular, and those h are the
      stabilizer S: detectable = (G minus H) + S, the closed form that
      codes._report asserts.
    - S and f_S: C(h) for h in H is rho(h), the compression the split read
      with _linalg.compression, whose C classify's compressed_action
      reads too.  So S and f_S are read by codes._stabilizers, classify's
      reader, on _linalg.scalar_deviation(rho): scalar deviation and
      ||c| - 1| both below _tol.SCAN, f_S snapped on the grid
      sigma.den exp(G) with denominators up to max(4|G|, grid).  Its
      proof that every entry snaps, and of df_S = sigma|S, holds as it
      stands, so a piece with an entry that fails to snap raises
      RuntimeError.
    - is_clifford: |L| dim V = |H| dim V = w |G|, rho is irreducible and
      occurs once in pi|H, as listed above.  So the flag holds with no
      witness, and classify's central-type branch applies: is_weak is
      code_dimension_formula(S, f_S) = w, counted by classify's integer
      test (codes._dimension_counts) and handed to codes._report as
      extra = dim E - w, which sets the witness text; it must agree with |G| = |H| |S|
      (RuntimeError otherwise), and is_stabilizer is is_weak and S normal
      in G.

    Every H of the unpruned lattice whose index divides dim pi is walked
    (a Clifford code needs no admissible phase), and the hits are the
    candidates with |G| = |H| |S| and S not normal in G.  On an abelian G
    every subgroup is normal, so a call for hits only returns [] before it
    builds the lattice.
    """
    if not model.is_central_type():
        raise SearchError("the probe only applies to central-type models")
    _check_caps(model, max_order, max_dim)
    g = model.group
    if not return_candidates and g.is_abelian():
        return []
    candidates = []
    for order, same_order in itertools.groupby(g._lattice(), key=len):   # sorted by order
        if model.dim * order % g.order != 0:
            continue
        target = model.dim * order // g.order   # dim pi / [G:H]
        same_order = [g._intern(members, valid=True) for members in same_order]
        split = _split_restrictions(model.rep.matrices, [sub.members for sub in same_order])
        kept = [(sub, rho, b) for sub, pieces in zip(same_order, split)
                for rho, b in pieces if b.shape[1] == target]
        if kept:
            candidates += _clifford_reports(model, kept)
    hits = [
        report for report in candidates
        if g.order == len(report.logical) * len(report.stabilizer)
        and not report.stabilizer.is_normal()
    ]
    if return_candidates:
        return hits, candidates
    return hits
