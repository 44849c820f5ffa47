"""Projective representations of finite groups as explicit matrix tables.

A projective representation keeps one unitary per group element together
with its exact cocycle, read in integers from a monomial stack and snapped
otherwise (make_rep), so pi(x)pi(y) = sigma(x,y) pi(xy) holds to
_tol.EXACT with sigma a table of exact rational phases.  Restriction,
induction, tensor products, conjugates, and inertia groups all stay at the
level of concrete matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _tol
from ._linalg import _blocks, complex_from_json, complex_json, compression, scalar_deviation
from .cocycles import (
    Cocycle,
    PhaseFunction,
    PhaseSnapError,
    _DenominatorOverflow,
    _least_fractions,
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
        on the Cayley edges, and on every pair when an edge fails.  make_rep
        skips it on a monomial read whose entries lie near their roots of
        unity, where its entry lemma shows that this check accepts.

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
        gram = m @ m.conj().transpose(0, 2, 1)   # m(x) m(x)* - 1 on every matrix
        gram -= np.eye(m.shape[1])
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
        is not invariant.  The action is _linalg.compression's B* pi B.
        A piece of search._split_restrictions on the same basis B is the
        diagonal block of that function's compression by the whole
        eigenvector matrix, the same B* pi B formed in one wider product, so
        its matrices agree with these to rounding.
        """
        return ProjectiveRep(self.group, compression(self.matrices, basis)[0], self.cocycle)

    def twist(self, f: PhaseFunction) -> "ProjectiveRep":
        """Multiply by a phase function on the whole group; the cocycle picks up df.

        f(e) != 1 raises ValueError: the result would have pi(e) = f(e) 1 and
        sigma(e, e) = f(e), an unnormalized rep that character() and
        ProjectiveErrorModel refuse.
        """
        if len(f.domain) != self.group.order:
            raise ValueError("twist needs a phase function on the whole group")
        if not f.is_exact:
            raise ValueError("twist needs exact phases")
        if f.num[f.domain.position(self.group.identity)]:
            raise ValueError("twist needs f(e) = 1")
        delta = coboundary(f)
        return ProjectiveRep(
            self.group,
            f.values[:, None, None] * self.matrices,
            self.cocycle.multiply(Cocycle(self.group, delta.num, delta.den)),
            label=f"{self.label}*f",
            validate=False,
        )

    def to_json(self) -> dict:
        return {
            "order": self.group.order,
            "dim": self.dim,
            "matrices": complex_json(self.matrices),
            "cocycle": self.cocycle.to_json(),
        }

    @classmethod
    def from_json(cls, group: FiniteGroup, data: dict) -> "ProjectiveRep":
        """Read to_json's form; files without a "cocycle" key are snapped by make_rep."""
        mats = complex_from_json(data["matrices"], 3)
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

    A monomial stack has its cocycle read in integers; every other stack,
    and a monomial one whose read is refused, has it snapped from floats.
    A read is accepted only when its entries lie near their roots of
    unity (the entry lemma below); the snap path's cocycle sigma' is
    validated by ProjectiveRep._validate.  Either way make_rep returns what
    the snap path alone returns: the same cocycle, or the same MakeRepError.

    The read (_monomial_read) takes a stack with one nonzero entry in each
    column, exact zeros elsewhere and the entries' rows forming a
    permutation: pi(x) e_j = v(x, j) e_{p_x(j)}.  It reads each distinct
    angle of v as a fraction of denominator at most 4|G|, so
    v(x, j) ~ zeta_N^a(x, j) with N their common denominator, and is
    refused unless every angle has such a fraction and N <= 4|G|.  How near
    v lies to zeta_N^a is the entry test's to decide.  Write Pi(x) for the
    matrices with the entries zeta_N^a.  The candidate is read from column
    0,
        sigma'(x, y) = a(y, 0) + a(x, p_y(0)) - a(xy, 0)   mod N,
    and _monomial_edges_hold checks, on the Cayley edges (x, c) with c in
    walk.cols = [identity, *gens] of the group's cached walk, that
    p_x p_c = p_xc and a(c, j) + a(x, p_c(j)) - a(xc, j) = sigma'(x, c)
    mod N for every j.  When it fails, the read is refused.

    Integer edge lemma: when the check passes, Pi is an exact projective
    rep with cocycle sigma', so sigma' satisfies the cocycle identity and
    is marked verified, and the O(n^2 r) Cocycle._identity_holds scan does
    not run.  The check says Pi(x) Pi(c) = zeta^sigma'(x,c) Pi(xc) on every
    edge.  Induction down y's tree word then makes Pi(x) Pi(y) a multiple
    of Pi(xy) for every x: for y = y'g with g a generator,
    zeta^sigma'(y', g) Pi(x) Pi(y) = Pi(x) Pi(y') Pi(g), which is a
    multiple of Pi(xy') Pi(g) and so of Pi(xy).  Applied to e_0,
    Pi(x) Pi(y) e_0 = zeta^(a(y, 0) + a(x, p_y(0))) e_{p_x p_y(0)} and
    Pi(xy) e_0 = zeta^a(xy, 0) e_{p_xy(0)}, so the multiple is
    zeta^sigma'(x, y).  Every Pi(x) is invertible, so the two ways of
    multiplying Pi(x) Pi(y) Pi(z) give the identity mod N.  The read's N
    is at most 4|G|, so the guard below has nothing to check on it.

    Entry lemma: write v(x, j) = zeta^a(x, j) + e(x, j) for the entries
    of pi, and eps = _tol.EXACT/(4 sqrt(d)) with d the dimension.  When
    every |e(x, j)| <= eps (_entries_near_roots; a NaN fails it), the rep is
    built with no float check, since ProjectiveRep._validate would accept
    it; otherwise the read is refused.  pi has exact zeros off its permutation, as Pi has, because the
    read demands them.  So pi(x) pi(x)* is diagonal with entries |v|^2,
    and ||v|^2 - 1| <= 2 eps + eps^2: every unitarity deviation is at most
    sqrt(d)(2 eps + eps^2) < 0.51 _tol.EXACT.  For every pair (x, y), not
    only the edges, column j of pi(x)pi(y) - sigma'(x,y) pi(xy) has one
    nonzero entry, since Pi(x) Pi(y) = zeta^sigma'(x,y) Pi(xy) exactly by
    the integer edge lemma; it is
        zeta^a(x, p_y(j)) e(y, j) + e(x, p_y(j)) zeta^a(y, j)
            + e(x, p_y(j)) e(y, j) - zeta^sigma'(x,y) e(xy, j),
    so every pair deviates by at most sqrt(d)(3 eps + eps^2) <
    0.76 _tol.EXACT.  _validate therefore accepts, through its edges or
    its all-pairs check, with a margin of at least 0.24 _tol.EXACT for
    the rounding of its products, and the candidate lemma below holds as
    stated.

    The snap path snaps the scalar tr(pi(x) pi(y) pi(xy)^-1)/dim to a
    rational phase with denominator at most 4|G|, but only on the
    Cayley-edge columns y = c in walk.cols: 1 + r columns of n instead of
    all n, and the very edges that ProjectiveRep._validate checks.  Every
    other entry is filled exactly, as integer numerators mod the common
    denominator, by sums down the walk's spanning tree (see _fill_cocycle):
    for a generator g,
        sigma(x, y'g) = sigma(x, y') + sigma(xy', g) - sigma(y', g)   (in turns),
    which is the cocycle identity sigma(x,y') sigma(xy',g) = sigma(x,y'g)
    sigma(y',g), and sigma(x, e) = sigma(e, e) (the identity at y = z = e).
    The edge scalars' common denominator den is refused unless
    den (L + 2) < 2^63, L the tree's greatest depth, so that the fill's
    int64 sums cannot wrap (see _fill_cocycle).  The filled table is
    refused if any entry's reduced denominator exceeds 4|G|, and is then
    validated by ProjectiveRep._validate.  The guard runs only when
    den > 4|G|, over row blocks: a reduced denominator divides den, so it
    cannot exceed 4|G| otherwise.

    Candidate lemma: any sigma' that the validation and the guard accept
    is the cocycle that snapping every scalar gives.  Every pair then
    deviates by less than _tol.EXACT (below), so every raw scalar lies
    within _tol.EXACT of sigma'(x, y), a phase of denominator at most 4|G|
    by the guard, and snapping it returns sigma'(x, y) (the spacing
    argument of cocycles._snap_phases, for 4|G| <= 2^15 by the table cap).
    So when the read is accepted, the snap path's edge scalars snap to
    sigma', whose fill is sigma', and it accepts sigma' too (sigma''s
    common denominator is at most 4|G|, far below the fill's bound).  When
    the read is refused, the snap path runs from the start, so every error
    is the snap path's.

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
    fill is that cocycle, so the snap path accepts the same cocycle; and
    when the snap path accepts, that is the cocycle every scalar snaps to,
    by the candidate lemma.  The edge scalars are snapped by
    cocycles._snap_phases, and a snap failure names the first failing edge
    (x, y), y in walk.cols, in row-major order over the edge columns, with
    snap_phase's reason; with none failing, a common denominator past the
    fill's bound names the first edge at which the running lcm reaches it.
    A filled entry above the guard names the first such (x, y).
    """
    matrices = np.asarray(matrices, dtype=complex)
    n = group.order
    if matrices.shape[0] != n:
        raise MakeRepError("need one matrix per group element")
    read = _monomial_read(matrices, 4 * n)
    if read is not None and _monomial_edges_hold(group, *read):
        p, a, den = read
        sigma = Cocycle(group, _monomial_table(group, p, a), den)
        sigma._verified = True   # the integer edge lemma
        if _entries_near_roots(matrices, p, a, den):   # the entry lemma
            return ProjectiveRep(group, matrices, sigma, label=label, validate=False)
    walk = group._cayley_walk()
    num, den = _snap_scalars(_raw_scalars(group, matrices), 4 * n, walk.cols, 2**63 // (walk.length + 2))
    num = _fill_cocycle(group, num, den)
    if den > 4 * n:
        for rows in _blocks(n, n):
            over = np.flatnonzero(den // np.gcd(num[rows], den) > 4 * n)
            if over.size:
                x, y = divmod(rows.start * n + int(over[0]), n)
                raise MakeRepError(f"filled cocycle has a denominator above 4|G| at ({x},{y})")
    sigma = Cocycle(group, num, den)
    del num   # sigma holds its own copy: free the filled table before validating
    return ProjectiveRep(group, matrices, sigma, label=label)


def _monomial_read(matrices: np.ndarray, max_den: int) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(p, a, N) with matrices[x] e_j near zeta_N^a[x, j] e_{p[x, j]}, p and a
    [n, dim] integer arrays and N <= max_den, or None when the stack is not
    monomial with such entries (see make_rep).

    Only the distinct entry angles are read, each as its least fraction
    (cocycles._least_fractions); how near the entries lie to zeta_N^a is
    left to make_rep's entry test.
    """
    if matrices.ndim != 3 or matrices.size == 0:
        return None
    nonzero = matrices != 0
    if not ((nonzero.sum(axis=1) == 1).all() and (nonzero.sum(axis=2) == 1).all()):
        return None
    p = nonzero.argmax(axis=1)
    # each column's one entry, exactly: the other terms are zeros;
    # bare np.unique imports numpy.ma, this return flag does not
    turns, inverse = np.unique(np.angle(matrices.sum(axis=1)) / (2 * math.pi), return_inverse=True)
    if not np.isfinite(turns).all():
        return None
    num, den = _least_fractions(turns, max_den)   # den max_den + 1 where none is near
    common = math.lcm(*set(den.tolist()))
    if common > max_den:
        return None
    return p, (num * (common // den) % common)[inverse.reshape(p.shape)], common


def _entries_near_roots(matrices: np.ndarray, p: np.ndarray, a: np.ndarray, den: int) -> bool:
    """Whether every entry v(x, j) = matrices[x, p[x, j], j] of a read lies
    within _tol.EXACT/(4 sqrt(dim)) of zeta_den^a[x, j]: the entry test of
    make_rep, on the n dim entries alone.  A NaN fails it."""
    n, dim = p.shape
    entries = matrices[np.arange(n)[:, None], p, np.arange(dim)]
    distance = np.abs(entries - _phase_values(np.arange(den), den)[a])
    return bool((distance <= _tol.EXACT / (4 * math.sqrt(dim))).all())


def _monomial_edges_hold(group: FiniteGroup, p: np.ndarray, a: np.ndarray, den: int) -> bool:
    """Whether p_x p_c = p_xc, and a(c, j) + a(x, p_c(j)) - a(xc, j) mod den
    is one value over j, on every Cayley edge (x, c), c in walk.cols of the
    group's cached walk: the integer edge check of make_rep.  Rows x run in
    blocks, row x holding its (1 + r) dim edge entries (_linalg._blocks)."""
    walk = group._cayley_walk()
    pc, ac = p[walk.cols], a[walk.cols]
    for x in _blocks(len(p), pc.size):
        ends = walk.ends[x]
        if not np.array_equal(p[x][:, pc], p[ends]):
            return False
        sums = a[x][:, pc] + ac
        sums -= a[ends]
        sums -= sums[:, :, :1]
        if np.any(sums % den):
            return False
    return True


def _monomial_table(group: FiniteGroup, p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The numerators a(y, 0) + a(x, p_y(0)) - a(xy, 0) over N of make_rep's
    read, unreduced (Cocycle reduces them), x in row blocks of n entries."""
    n = group.order
    start, to = a[:, 0], p[:, 0]
    table = np.empty((n, n), dtype=np.int64)
    for x in _blocks(n, n):
        sums = a[x][:, to]
        sums += start
        sums -= start[group.mul[x]]
        table[x] = sums
    return table


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
    same table.  The tree walk sums along y alone, so the x are filled in
    blocks (_linalg._blocks), row x holding its n entries, each block
    written into one table allocated up front; every entry is the same
    integer sum.  Each edge value lies in (-den, den), so every partial
    sum, and every sum with sigma(e, e), lies within den (L + 1) of 0, L =
    walk.length: make_rep refuses den (L + 2) >= 2^63 before the fill.
    """
    walk = group._cayley_walk()
    parent, step, _ = walk.tree
    n = group.order
    column = np.zeros(n, dtype=np.int64)
    column[walk.cols] = np.arange(len(walk.cols))
    j = column[step]
    into = columns[parent, j][:, None]          # sigma(p, g) on the edge into y
    table = np.empty((n, n), dtype=np.int64)
    for x in _blocks(n, n):
        values = columns[group.mul.T[parent, x], j[:, None]]
        values -= into
        sums = walk.path_sums(values)
        sums += columns[group.identity, 0]
        # sums mod den, as % gives it for den > 0 (negative sums too);
        # numpy's int64 // is several times faster than its int64 %
        sums -= (sums // den) * den
        table[x] = sums.T
    return table


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
    [x, y, i, j].  Row x holds its n d^2 complex products
    (_linalg._blocks), so the products are formed in few calls without
    holding all of them at once.
    """
    right = m if right is None else right
    n, dim = right.shape[0], right.shape[1]
    wide = right.transpose(1, 0, 2).reshape(dim, n * dim)
    for rows in _blocks(len(m), n * dim * dim):
        block = m[rows]
        products = (block.reshape(-1, dim) @ wide).reshape(len(block), dim, n, dim)
        yield rows, products.transpose(0, 2, 1, 3)


def _snap_scalars(raw: np.ndarray, max_den: int, cols, max_common: int = 2**63) -> tuple[np.ndarray, int]:
    """snap_phase on every entry of raw, as numerators over one denominator
    below max_common; raw[x, j] is the scalar of the pair (x, cols[j]).
    When an entry fails, the first in row-major order raises MakeRepError
    naming its pair, with snap_phase's reason.  When none fails but the
    denominators have no common multiple below max_common, the pair named
    is the first at which their running lcm in row-major order reaches it
    (cocycles._DenominatorOverflow)."""

    def refuse(at: int, exc: PhaseSnapError):
        x, j = divmod(at, raw.shape[1])
        raise MakeRepError(
            f"scalar snap failed at ({x},{int(cols[j])}): matrices do not form a projective rep ({exc})"
        ) from exc

    overflow = None
    try:
        num, den, snapped = _snap_phases(raw, max_den, max_common=max_common)
    except _DenominatorOverflow as exc:
        overflow, snapped = exc, exc.mask
    failed = np.flatnonzero(~snapped)
    if failed.size:
        try:
            snap_phase(complex(raw.flat[failed[0]]), max_den)
        except PhaseSnapError as exc:
            refuse(int(failed[0]), exc)
    if overflow is not None:
        refuse(overflow.index, overflow)
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
    return bool(_irreducible_character(rep.character().values))


def _irreducible_character(chi: np.ndarray) -> np.ndarray:
    """<chi, chi> = 1 to _tol.DERIVED: the irreducibility test on character
    values, along the last axis, one verdict per character of a stack."""
    return np.abs(np.mean(chi * np.conj(chi), axis=-1) - 1) <= _tol.DERIVED


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


def _reynolds(m1: np.ndarray, m2: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(1/n) sum_x r2(x) a r1(x)*, the orthogonal projection of a onto
    Hom(r1, r2), from the matrices m1 [..., n, d1, d1] and m2 [..., n, d2, d2]
    of two reps with one cocycle, which the caller checks.  Leading stack
    axes average each entry of the stack on its own.

    For reps with one cocycle sigma, r2(y) T r1(y)* = T for every y, because
    r2(y) r2(x) = sigma(y,x) r2(yx), r1(x)* r1(y)* = conj(sigma(y,x)) r1(yx)*
    and x -> yx permutes the group (Serre, Linear Representations of Finite
    Groups, 2.6).  The map fixes every intertwiner and is a mean of unitary
    maps, so it is the orthogonal projector onto Hom(r1, r2).  hom_space
    diagonalizes the same map written as a matrix.  It is one
    (d2, n d1) @ (n d1, d1) product per stack entry:
    sum_(x, j) (r2(x) a)[i, j] conj(r1(x))[b, j].
    """
    *stack, n, d1, _ = m1.shape
    left = np.swapaxes(m2 @ a, -3, -2).reshape(*stack, m2.shape[-1], n * d1)
    right = np.swapaxes(m1.conj(), -2, -1).reshape(*stack, n * d1, d1)
    return left @ right / n


def _intertwiner_count(r1: ProjectiveRep, r2: ProjectiveRep) -> int:
    """dim Hom(r1, r2) for reps with one cocycle: inner_product of their
    characters as an integer; RuntimeError when it is not one to
    _tol.DERIVED.  Its callers (hom_space, codes.clifford_code and
    mackey_character_defect) compare the groups and cocycles first."""
    return int(_integer_counts(np.array([inner_product(r1.character(), r2.character())]))[0])


def _integer_counts(totals: np.ndarray) -> np.ndarray:
    """The nearest integer to each inner product of an array, int64;
    RuntimeError on the first that is not within _tol.DERIVED (relative
    above 1) of it: _intertwiner_count's test, and codes._clifford_flags'
    on many codes at once."""
    nearest = np.rint(totals.real)
    bad = ~(np.abs(totals - nearest) <= _tol.DERIVED * np.maximum(1, nearest))   # NaN fails too
    if bad.any():
        raise RuntimeError(f"character count {totals.real[bad][0]:.6f} is not an integer")
    return nearest.astype(np.int64)


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
    both = np.concatenate([g.inv[flat], flat])
    built = np.zeros(g.order, dtype=bool)
    built[both] = True   # the table rows built; cumsum - 1 is each one's row
    table, at = _conjugation_table(sigma, np.flatnonzero(built)), (np.cumsum(built) - 1)[both]
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
