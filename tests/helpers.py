"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles (group
multiplication tables and plain numpy), deliberately avoiding the package's
own higher-level machinery, so the tests compare two code paths.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qeclab._linalg import nullspace
from qeclab import cocycles, search
from qeclab.cocycles import (
    Cocycle,
    Phase,
    PhaseFunction,
    _cyclic_extensions,
    _phase_values,
    snap_phase_or_none,
)
from qeclab.codes import CodeSpace, _constituent_phases, _constituents, weak_stabilizer_code
from qeclab.groups import FiniteGroup, Subgroup, group_from_mul_table
from qeclab.models import ModelError, ProjectiveErrorModel
from qeclab import _tol
from qeclab.projreps import (
    MakeRepError,
    ProjectiveRep,
    _row_products,
    _snap_scalars,
    make_rep,
    rep_from_phase_function,
)


def regular_matrices(group: FiniteGroup) -> np.ndarray:
    """Left regular permutation matrices, indexed by group element."""
    n = group.order
    regs = np.zeros((n, n, n))
    for h in range(n):
        for x in range(n):
            regs[h, group.mul[h, x], x] = 1.0
    return regs


def abelian_characters(group: FiniteGroup) -> np.ndarray:
    """All linear characters of an abelian group, shape (order, order).

    Read off the regular representation: a random real combination of the
    commuting permutation matrices is normal, its eigenvectors are the
    character vectors, and Rayleigh quotients recover each character value.
    The result is self-checked for multiplicativity and completeness.
    """
    if not group.is_abelian():
        raise ValueError("abelian groups only")
    n = group.order
    regs = regular_matrices(group)
    rng = np.random.default_rng(5)
    combo = np.tensordot(rng.random(n), regs, axes=1)
    _, vecs = np.linalg.eig(combo)
    chars = np.empty((n, n), dtype=complex)
    for j in range(n):
        v = vecs[:, j]
        v = v / np.linalg.norm(v)
        for h in range(n):
            chars[j, h] = np.vdot(v, regs[h] @ v)
    # self-check: each row multiplicative, all rows distinct
    for j in range(n):
        for a in range(n):
            for b in range(n):
                lhs = chars[j, a] * chars[j, b]
                assert abs(lhs - chars[j, group.mul[a, b]]) < 1e-8
    rounded = {tuple(np.round(row, 6)) for row in chars}
    assert len(rounded) == n
    return chars


def linear_characters(group: FiniteGroup) -> np.ndarray:
    """All 1-dimensional characters of any group, via the abelianization."""
    if group.is_abelian():
        return abelian_characters(group)
    comms = set()
    for x in range(group.order):
        for y in range(group.order):
            xy = group.mul[x, y]
            yx = group.mul[y, x]
            comms.add(group.mul[group.inv[yx], xy])
    derived = group.subgroup_generated(sorted(comms))
    quo, proj = group.quotient(derived)
    small = abelian_characters(quo)
    return small[:, proj]


def eigenspace_dim(matrices: np.ndarray, members, values) -> int:
    """Dimension of {v : M_x v = c_x v for all x}, by direct stacked rank."""
    dim = matrices.shape[1]
    rows = np.vstack(
        [matrices[x] - c * np.eye(dim) for x, c in zip(members, values)]
    )
    s = np.linalg.svd(rows, compute_uv=False)
    cutoff = 1e-8 * max(float(s[0]) if len(s) else 0.0, 1.0)
    return dim - int(np.sum(s > cutoff))


def brute_force_trivializer(
    group: FiniteGroup, sigma_table: np.ndarray, den: int
) -> list[complex] | None:
    """Exhaustive search for f with f(x)f(y)/f(xy) = sigma(x,y).

    sigma_table is the complex cocycle table; candidate values for f are the
    den-th roots of unity with f(identity) fixed to 1.  Only usable for tiny
    groups; the search space is den**(order-1).
    """
    n = group.order
    roots = [np.exp(2j * np.pi * k / den) for k in range(den)]
    others = [x for x in range(n) if x != group.identity]
    for combo in itertools.product(range(den), repeat=len(others)):
        f = [1.0 + 0j] * n
        for x, k in zip(others, combo):
            f[x] = roots[k]
        ok = True
        for x in range(n):
            for y in range(n):
                if abs(f[x] * f[y] - sigma_table[x, y] * f[group.mul[x, y]]) > 1e-8:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return f
    return None


def restricted_cocycle_table(sigma_complex: np.ndarray, sub: Subgroup) -> np.ndarray:
    """Complex cocycle table restricted to a subgroup, in subgroup indexing."""
    idx = np.array(sub.members)
    return sigma_complex[np.ix_(idx, idx)]


def random_subgroup(group: FiniteGroup, rng: np.random.Generator) -> Subgroup:
    """A subgroup generated by one or two random elements."""
    k = int(rng.integers(1, 3))
    gens = [int(rng.integers(0, group.order)) for _ in range(k)]
    return group.subgroup_generated(gens)


def closure_oracle(group: FiniteGroup, gens) -> tuple[int, ...]:
    """Members of the subgroup generated by gens, by all-pairs closure.

    Every element popped from the frontier is multiplied on both sides by
    every member present at that moment; later arrivals pick up the missing
    pairs on their own turn.
    """
    members = {group.identity} | {int(g) for g in gens}
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            for z in (int(group.mul[x, y]), int(group.mul[y, x])):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return tuple(sorted(members))


def lattice_oracle(group: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup's sorted members, sorted by (order, members).

    Breadth-first from the trivial subgroup: each subgroup is re-closed with
    every element outside it, by the all-pairs closure above.
    """
    trivial = (group.identity,)
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        new_frontier = []
        for sub in frontier:
            inside = set(sub)
            for x in range(group.order):
                if x not in inside:
                    closure = closure_oracle(group, sub + (x,))
                    if closure not in seen:
                        seen.add(closure)
                        new_frontier.append(closure)
        frontier = new_frontier
    return sorted(seen, key=lambda s: (len(s), s))


def coset_lattice_oracle(group: FiniteGroup) -> list[tuple[int, ...]]:
    """lattice_oracle with each closure taken on a boolean mask, one all-pairs
    product table per round, and adjoining to each subgroup H one element per
    right coset Hx, the least: <H, hx> = <H, x> for h in H.  Fast enough for
    every order-64 model, and checked against lattice_oracle where that runs.
    """
    mul = group.mul

    def closure(mask):
        while True:
            mem = np.flatnonzero(mask)
            grown = mask.copy()
            grown[mul[np.ix_(mem, mem)]] = True
            if np.array_equal(grown, mask):
                return tuple(mem.tolist())
            mask = grown

    trivial = (group.identity,)
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        new_frontier = []
        for sub in frontier:
            for x in np.unique(mul[list(sub)].min(axis=0)).tolist():
                if x in sub:
                    continue
                mask = np.zeros(group.order, dtype=bool)
                mask[list(sub)] = mask[x] = True
                closed = closure(mask)
                if closed not in seen:
                    seen.add(closed)
                    new_frontier.append(closed)
        frontier = new_frontier
    return sorted(seen, key=lambda s: (len(s), s))


# -- per-function references for make_rep, the code scans and dedup ----------
#
# The direct forms, one einsum per quantity and one snap_phase per table
# entry, that make_rep's grouped snapping and classify's shared action must
# agree with.

TOL_MEMBERSHIP = 1e-8

# Catalog model specs of group order at most 64.
CATALOG_64 = (
    [f"genpauli:{n}" for n in range(2, 9)]
    + ["pauli:1", "pauli:2", "pauli:3"]
    + [f"xp:{n}" for n in range(2, 17)]
    + [f"c2d2n:{n}" for n in range(2, 9)]
    + ["oddfam:3", "permprod(genpauli:2,2)", "prod(genpauli:2,genpauli:3)",
       "prod(genpauli:2,genpauli:4)"]
)


def submodels(spec: str, limit: int, order: int | None = None) -> list[ProjectiveErrorModel]:
    """The first limit sub-models of a model spec, in lattice order, on
    subgroups of the given order only when one is given.  Each irreducible
    piece rho of pi|H (search._split_restrictions, whose draws are seeded)
    of dimension at least 2 gives the model make_rep(H.as_group(), rho),
    kept when it is projectively faithful.  Their cocycle denominators can
    be large next to |G|, which no catalog model shows."""
    from qeclab.cli import parse_model_spec

    model, found = parse_model_spec(spec).model, []
    for size, same in itertools.groupby(model.group.all_subgroups(), key=len):
        if order not in (None, size):
            continue
        same = list(same)
        for sub, pieces in zip(same, search._split_restrictions(model.rep.matrices, [s.members for s in same])):
            for rho, _ in pieces:
                if rho.shape[1] < 2:
                    continue
                try:
                    found.append(ProjectiveErrorModel(make_rep(sub.as_group(), rho), label=f"{spec}|{sub.members}"))
                except ModelError:   # not projectively faithful
                    continue
                if len(found) == limit:
                    return found
    return found


def raw_scalar_table(group: FiniteGroup, matrices: np.ndarray) -> np.ndarray:
    """tr(pi(x) pi(y) pi(xy)^-1) / dim for every (x, y)."""
    n, dim = group.order, matrices.shape[1]
    raw = np.zeros((n, n), dtype=complex)
    for x in range(n):
        raw[x] = np.einsum(
            "ab,ybc,yac->y", matrices[x], matrices, matrices[group.mul[x]].conj()
        ) / dim
    return raw


def snap_each(raw: np.ndarray, max_den: int) -> list[list[Phase | None]]:
    """snap_phase on every entry separately, None where it fails."""
    return [[snap_phase_or_none(complex(z), max_den) for z in row] for row in raw]


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.abs(stack) ** 2, axis=(1, 2)))


def logical_oracle(model, code) -> list[int]:
    p = code.projector()
    mats = model.rep.matrices
    dev = np.einsum("ab,xbc->xac", p, mats) - np.einsum("xab,bc->xac", mats, p)
    return [int(x) for x in np.flatnonzero(_frobenius_norms(dev) < TOL_MEMBERSHIP)]


def compressed_scalars_oracle(model, code) -> tuple[np.ndarray, np.ndarray]:
    """Per element: c = tr(P pi P) / dim W and the distance of P pi P from c P."""
    p = code.projector()
    pmp = np.einsum("ab,xbc,cd->xad", p, model.rep.matrices, p)
    scalars = np.einsum("xaa->x", pmp) / code.dim
    return scalars, _frobenius_norms(pmp - scalars[:, None, None] * p)


def stabilizer_oracle(model, code) -> tuple[list[int], list[Phase | None]]:
    """Members acting as a unimodular scalar, and each scalar snapped alone."""
    scalars, dists = compressed_scalars_oracle(model, code)
    keep = (dists < TOL_MEMBERSHIP) & (np.abs(np.abs(scalars) - 1) < TOL_MEMBERSHIP)
    members = [int(x) for x in np.flatnonzero(keep)]
    max_den = 4 * model.group.order
    return members, [snap_phase_or_none(complex(scalars[x]), max_den) for x in members]


def detectable_oracle(model, code) -> list[int]:
    _, dists = compressed_scalars_oracle(model, code)
    return [int(x) for x in np.flatnonzero(dists < TOL_MEMBERSHIP)]


def partition_norms_oracle(model, code) -> tuple[np.ndarray, np.ndarray]:
    """Per element: |pi P - P pi P| (zero when W maps into W) and |P pi P|."""
    p = code.projector()
    mp = np.einsum("xab,bc->xac", model.rep.matrices, p)
    pmp = np.einsum("ab,xbc->xac", p, mp)
    return _frobenius_norms(mp - pmp), _frobenius_norms(pmp)


def commutator_norms_oracle(model, code) -> np.ndarray:
    """Per element: |P pi - pi P|, zero exactly on the logical group."""
    p = code.projector()
    mats = model.rep.matrices
    dev = np.einsum("ab,xbc->xac", p, mats) - np.einsum("xab,bc->xac", mats, p)
    return _frobenius_norms(dev)


def partitioning_oracle(model, code) -> tuple[bool, int | None]:
    """(flag, first element mapping W neither into W nor into its complement:
    |P pi - pi P| and |P pi P| both at least the membership tolerance)."""
    _, outside = partition_norms_oracle(model, code)
    comm = commutator_norms_oracle(model, code)
    bad = np.flatnonzero((comm >= TOL_MEMBERSHIP) & (outside >= TOL_MEMBERSHIP))
    return (False, int(bad[0])) if bad.size else (True, None)


def subgroup_generators(sub: Subgroup) -> list[int]:
    """Generators of the subgroup as parent-group element indices: the greedy
    generators of sub.as_group(), or its identity when it has none."""
    inner = sub.as_group().greedy_generators() or [sub.as_group().identity]
    return [sub.members[i] for i in inner]


def weak_code_nullspace_oracle(model, sub, f) -> np.ndarray | None:
    """The (sub, f) joint eigenspace basis from the generator stack: the
    nullspace of pi(g) - f(g) stacked over subgroup_generators, or None when
    it is zero or some member x moves it off f(x) by more than TOL_MEMBERSHIP."""
    mats, eye = model.rep.matrices, np.eye(model.dim)
    gens = subgroup_generators(sub)
    basis = nullspace(np.vstack([mats[x] - f.value_at(x) * eye for x in gens]))
    if basis.shape[1] == 0:
        return None
    values = np.array([f.value_at(x) for x in sub.members])
    resid = mats[list(sub.members)] @ basis - values[:, None, None] * basis
    return None if np.abs(resid).max() > TOL_MEMBERSHIP else basis


class PairwiseDedup:
    """Projector dedup by comparing with each kept projector in turn."""

    def __init__(self, dim: int):
        self.kept: list[np.ndarray] = []

    def add_if_new(self, p: np.ndarray) -> bool:
        if any(np.linalg.norm(p - q) < 1e-7 for q in self.kept):
            return False
        self.kept.append(p)
        return True


def pairwise_enumerated(model) -> tuple[list, int]:
    """enumerate_weak_stabilizer_codes with each code's projector compared to
    every kept one (PairwiseDedup), as (found, codes built).  The codes are
    the package's own, one per constituent, so only the dedup differs."""
    kept, found, built = PairwiseDedup(model.dim), [], 0
    for sub in model.group.all_subgroups():
        for f in _constituent_phases(model, sub):
            code = weak_stabilizer_code(model, sub, f)
            built += 1
            if kept.add_if_new(code.projector()):
                found.append((sub, f, code))
    return found, built


def pivoted_cholesky_basis(proj: np.ndarray, rank: int) -> np.ndarray:
    """codes._eigenspaces' basis of one projector, read one matrix at a
    time: rank steps, each taking the least index p whose diagonal (real
    part) is within _tol.EXACT of the largest, b = R e_p / sqrt(R_pp) and
    R <- R - b b*, starting from R = proj."""
    rest, cols = proj.copy(), []
    for _ in range(rank):
        diag = rest.diagonal().real
        p = int(np.flatnonzero(diag >= diag.max() - _tol.EXACT)[0])
        col = rest[:, p] / np.sqrt(diag[p])
        rest -= np.outer(col, col.conj())
        cols.append(col)
    return np.ascontiguousarray(np.stack(cols, axis=1))


def eigh_code_basis(proj: np.ndarray) -> np.ndarray:
    """The basis codes._eigenspaces read before its pivoted Cholesky: the
    eigenvectors of proj whose eigenvalues exceed 1/2, from eigh."""
    evals, evecs = np.linalg.eigh(proj)
    return evecs[:, len(evals) - int((evals > 0.5).sum()):]


def code_projector(model, sub: Subgroup, values: np.ndarray) -> np.ndarray:
    """(1/|H|) sum_h conj(f(h)) pi(h), f's values on sub's members in values."""
    flat = model.rep.matrices[list(sub.members)].reshape(len(sub), -1)
    return (values.conj() @ flat).reshape(model.dim, model.dim) / len(sub)


def conjugated_model(model, seed: int):
    """The model with pi(x) replaced by U pi(x) U*, U a seeded random
    unitary (QR of a complex Gaussian): the same group and cocycle, and in
    general no basis vector maps to a multiple of a basis vector."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(model.dim,) * 2) + 1j * rng.normal(size=(model.dim,) * 2))
    rep = make_rep(model.group, u @ model.rep.matrices @ u.conj().T, label=model.rep.label)
    return ProjectiveErrorModel(rep, label=model.label)


def enumerate_codes_loop(model) -> tuple[list, list]:
    """search.enumerate_weak_stabilizer_codes one subgroup at a time, over
    every subgroup of all_subgroups(), as it ran before the lattice was
    pruned and the rows of one subgroup order were read together: (found,
    keys).  Each key is
    read from the subgroup's own trace product, S' = {|T(x)| >= d -
    _tol.DERIVED} with f' on the grid, with no confirmation, and the new
    codes of one subgroup from one projector average of its rows against
    pi|H flattened and, row by row, pivoted_cholesky_basis."""
    g, sigma = model.group, model.cocycle
    grid, n = sigma.den * g.exponent(), model.dim
    table = sigma.to_complex_table() * model.rep.character().values[g.mul]
    found, keys, seen = [], [], set()
    for sub in g.all_subgroups():
        _, nums, den, dims = _constituents(model, [sub])
        mem = list(sub.members)
        values = _phase_values(nums, den)
        traces = values.conj() @ table[mem] / len(mem)
        inside = np.abs(traces) >= dims[:, None] - _tol.DERIVED
        num = np.where(inside, np.rint(np.angle(traces) * (grid / (2 * np.pi))).astype(int) % grid, -1)
        new = []
        for i, key in enumerate(num):
            if key.tobytes() not in seen:
                seen.add(key.tobytes())
                new.append(i)
        if not new:
            continue
        flat = model.rep.matrices[mem].reshape(len(mem), n * n)
        proj = (values[new].conj()[:, None, :] @ flat).reshape(len(new), n, n) / len(mem)
        for i, p in zip(new, proj):
            assert round(np.trace(p).real) == dims[i]
            code = CodeSpace(n, pivoted_cholesky_basis(p, int(dims[i])))
            found.append((sub, PhaseFunction._runs([sub], nums[i], den, floats=values[i])[0], code))
            keys.append(num[i])
    return found, keys


# -- the per-element loops that the projreps stacks replaced -----------------


def kron_stack(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """kron(m2[x], I) - kron(I, m1[x]^T) for each x, one np.kron pair at a time."""
    n, d1, d2 = m1.shape[0], m1.shape[1], m2.shape[1]
    eye1, eye2 = np.eye(d1), np.eye(d2)
    blocks = np.zeros((n, d2 * d1, d2 * d1), dtype=complex)
    for x in range(n):
        blocks[x] = np.kron(m2[x], eye1) - np.kron(eye2, m1[x].T)
    return blocks


def kron_hom_basis(r1, r2) -> list[np.ndarray]:
    """An orthonormal intertwiner basis read off the SVD nullspace of kron_stack."""
    from qeclab._linalg import nullspace

    n, d1, d2 = r1.group.order, r1.dim, r2.dim
    ns = nullspace(kron_stack(r1.matrices, r2.matrices).reshape(n * d2 * d1, d2 * d1))
    return [ns[:, k].reshape(d2, d1) for k in range(ns.shape[1])]


def raw_scalars_per_row(group: FiniteGroup, matrices: np.ndarray) -> np.ndarray:
    """tr(pi(x) pi(y) pi(xy)^*) / dim for y over the Cayley-edge columns
    walk.cols, one matmul pi(x) @ [pi(c) for c in walk.cols] per row."""
    n, dim = group.order, matrices.shape[1]
    walk = group._cayley_walk()
    r = len(walk.cols)
    wide = matrices[walk.cols].transpose(1, 0, 2).reshape(dim, r * dim)
    flat_conj = matrices.reshape(n, -1).conj()
    raw = np.empty((n, r), dtype=complex)
    for x in range(n):
        products = (matrices[x] @ wide).reshape(dim, r, dim).transpose(1, 0, 2).reshape(r, -1)
        raw[x] = np.einsum("yk,yk->y", products, flat_conj[walk.ends[x]]) / dim
    return raw


def first_product_failure(group: FiniteGroup, matrices: np.ndarray, cocycle, tol: float = 1e-9):
    """(x, deviation) of the first row x with |pi(x)pi(y) - sigma(x,y) pi(xy)| >= tol."""
    phases = cocycle.to_complex_table()
    for x in range(group.order):
        products = matrices[x] @ matrices
        expected = phases[x][:, None, None] * matrices[group.mul[x]]
        dev = np.linalg.norm(products - expected, axis=(1, 2)).max()
        if dev >= tol:
            return x, float(dev)
    return None


def validate_all_pairs(rep: ProjectiveRep) -> None:
    """ProjectiveRep._validate with pi(x)pi(y) = sigma(x,y) pi(xy) checked on
    every pair: unitarity, the cocycle identity, then the first failing x."""
    m = rep.matrices
    n, dim = m.shape[0], rep.dim
    gram = m @ m.conj().transpose(0, 2, 1)
    gram -= np.eye(dim)
    if np.linalg.norm(gram, axis=(1, 2)).max() >= _tol.EXACT:
        worst = np.abs(gram).max()
        raise MakeRepError(f"matrices are not unitary (deviation {worst:.2e})")
    if not rep.cocycle.verify():
        raise MakeRepError("cached cocycle violates the cocycle identity")
    phases = rep.cocycle.to_complex_table()
    mul = rep.group.mul
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


def cayley_bfs_oracle(group: FiniteGroup) -> tuple[list[int], list[int], list[int]]:
    """(depth, parent, step) per element from a queue walk of the right Cayley
    graph over the greedy generators, one dict lookup per edge.

    Each level is taken in increasing element order and the generators in
    their order; the first (x, g) with x g = y makes x the parent and g the
    step of y.  The identity has parent and step -1.
    """
    gens = group.greedy_generators()
    e = group.identity
    depth, parent, step = {e: 0}, {e: -1}, {e: -1}
    level = [e]
    while level:
        reached = []
        for x in sorted(level):
            for g in gens:
                y = int(group.mul[x, g])
                if y not in depth:
                    depth[y], parent[y], step[y] = depth[x] + 1, x, g
                    reached.append(y)
        level = reached
    n = group.order
    return [depth[x] for x in range(n)], [parent[x] for x in range(n)], [step[x] for x in range(n)]


def word_walk_oracle(group: FiniteGroup) -> tuple[list[int], np.ndarray, list[tuple[int, int, int]]]:
    """The depth-first walk of the right Cayley graph that fixes the
    trivializer's particular solution, one element at a time.

    Returns the greedy generators, the word coefficients coeff (n x r,
    coeff[x] counts each generator in one word for x, the identity empty
    and each generator its own letter) and the tree edges (x, g, xg) in
    visit order.  The walk starts from the identity and the generators,
    takes the element reached last, and tries the generators in order.
    """
    n = group.order
    mul = group.mul
    gens = group.greedy_generators()
    coeff = np.zeros((n, len(gens)), dtype=np.int64)
    known = np.zeros(n, dtype=bool)
    e = group.identity
    known[e] = True
    for i, g in enumerate(gens):
        known[g] = True
        coeff[g, i] = 1
    tree: list[tuple[int, int, int]] = []
    queue = [e] + [g for g in gens]
    while queue:
        x = queue.pop()
        for g in gens:
            y = int(mul[x, g])
            if not known[y]:
                known[y] = True
                coeff[y] = coeff[x] + coeff[g]
                tree.append((x, g, y))
                queue.append(y)
    assert known.all(), "generator walk failed to cover the group"
    return gens, coeff, tree


def _oracle_edge_rows(group: FiniteGroup, gens, coeff) -> np.ndarray:
    n, r = coeff.shape
    ends = group.mul[:, gens]
    return (coeff[:, None, :] + coeff[gens][None, :, :] - coeff[ends]).reshape(n * r, r)


def trivializer_systems_oracle(sigma) -> list[tuple[list[list[int]], list[int], int]]:
    """The (rows, rhs, modulus) that find_trivializing_phase hands _solve_mod,
    in call order, from word_walk_oracle with a per-edge constant loop and
    np.unique(axis=0) for the distinct rows."""
    from qeclab.cocycles import _solve_mod

    group = sigma.group
    if not sigma.verify():
        return []
    t = sigma.num
    gens, coeff, tree = word_walk_oracle(group)
    if group.is_abelian() and any(
        (t[g, h] - t[h, g]) % sigma.den for g in gens for h in gens
    ):
        return []
    n, r = coeff.shape
    const = np.zeros(n, dtype=np.int64)
    const[group.identity] = t[group.identity, group.identity]
    for x, g, y in tree:
        const[y] = const[x] + const[g] - t[x, g]
    ends = group.mul[:, gens]
    dv = (t[:, gens] - const[:, None] - const[gens][None, :] + const[ends]).reshape(n * r, 1)
    exponent = group.exponent()
    multiples = [k for k in (1, 2) if k <= exponent] + ([exponent] if exponent > 2 else [])
    systems = []
    for k in multiples:
        modulus = k * sigma.den
        full = np.concatenate(
            [_oracle_edge_rows(group, gens, coeff) % modulus, (k * dv) % modulus], axis=1
        )
        distinct = np.unique(full, axis=0).tolist()
        systems.append(([row[:r] for row in distinct], [row[r] for row in distinct], modulus))
        if _solve_mod(*systems[-1]) is not None:
            break
    return systems


def character_rows_oracle(group: FiniteGroup) -> tuple[list[list[int]], int, int]:
    """The (rows, r, exp(G)) that _linear_characters hands _kernel_mod, from
    word_walk_oracle and sorted(set(...))."""
    gens, coeff, _ = word_walk_oracle(group)
    e = group.exponent()
    rows = sorted(set(map(tuple, (_oracle_edge_rows(group, gens, coeff) % e).tolist())))
    return [list(row) for row in rows], len(gens), e


def make_rep_full_snap(group: FiniteGroup, matrices, label: str = "pi") -> ProjectiveRep:
    """make_rep by snapping all n^2 scalars, then validating every pair."""
    matrices = np.asarray(matrices, dtype=complex)
    n = group.order
    num, den = _snap_scalars(raw_scalar_table(group, matrices), 4 * n, range(n))
    return ProjectiveRep(group, matrices, Cocycle(group, num, den), label=label)


def fill_cocycle_by_rows(group: FiniteGroup, head: np.ndarray, den: int) -> np.ndarray:
    """The n x n numerator table from its rows at the identity and the
    greedy generators (head, in that order, numerators over den), one depth
    of the group's cached tree per array step: for x at depth >= 2 with
    parent p and step g on the tree,
    sigma(pg, .) = sigma(p, g .) + sigma(g, .) - sigma(p, g), mod den."""
    walk = group._cayley_walk()
    parent, step, depth = walk.tree
    mul = group.mul
    num = np.empty((group.order, group.order), dtype=np.int64)
    num[[group.identity, *walk.gens]] = head
    for d in range(2, walk.length + 1):
        level = np.flatnonzero(depth == d)
        p, g = parent[level], step[level]
        num[level] = (num[p[:, None], mul[g]] + num[g] - num[p, g][:, None]) % den
    return num


# Edge steps 1/q, -1/q for q = 16 and each odd prime up to 47: on a group
# of order 64 each snaps (q <= 4|G|), and their lcm, about 4.9e18, lies
# in [2^62, 2^63).
WIDE_LCM_STEPS = [s for q in (16, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) for s in (1 / q, -1 / q)]


def power_step_stack(group: FiniteGroup, steps) -> np.ndarray:
    """A 1-dim stack exp(2 pi i phi) on a cyclic group of order n that its
    first greedy generator g generates: phi(1) = phi(g) = 0 and
    phi(g^(k+1)) = phi(g^k) - steps[k - 1] for 1 <= k <= n - 2, with 0
    past the end of steps.  Its Cayley-edge scalar on g,
    sigma(g^k, g) = phi(g^k) + phi(g) - phi(g^(k+1)), is steps[k - 1] for
    1 <= k <= n - 2, 0 at k = 0 and phi(g^(n-1)) at k = n - 1."""
    n, g = group.order, group.greedy_generators()[0]
    phi, y = np.zeros(n), g
    for step in [*steps, *[0] * (n - 2 - len(steps))]:
        phi[group.mul[y, g]] = phi[y] - step
        y = group.mul[y, g]
    return np.exp(2j * np.pi * phi).reshape(n, 1, 1)


def relabeled_model(model, seed: int):
    """The same model with its group elements renumbered by a seeded permutation."""
    g = model.group
    perm = np.random.default_rng(seed).permutation(g.order)   # new i is old perm[i]
    pos = np.empty_like(perm)
    pos[perm] = np.arange(g.order)
    group = group_from_mul_table(pos[g.mul[np.ix_(perm, perm)]], label=g.label)
    rep = make_rep(group, model.rep.matrices[perm], label=model.rep.label)
    return ProjectiveErrorModel(rep, label=model.label)


def induce_loop(theta: ProjectiveRep, sub: Subgroup, sigma) -> ProjectiveRep:
    """projreps.induce as a loop over (x, s) with exact Phase arithmetic per
    block, its cocycle snapped by make_rep and then compared with sigma."""
    g = sub.parent
    reps = g.coset_representatives(sub)
    rep_pos = np.full(g.order, -1, dtype=np.int64)
    h_pos = np.full(g.order, -1, dtype=np.int64)
    for ri, r in enumerate(reps):
        for h in sub.members:
            y = int(g.mul[r, h])
            rep_pos[y] = ri
            h_pos[y] = sub.position(h)
    q, dt = len(reps), theta.dim
    dim = q * dt
    mats = np.zeros((g.order, dim, dim), dtype=complex)
    for x in range(g.order):
        for si, s in enumerate(reps):
            y = int(g.mul[x, s])
            ri = int(rep_pos[y])
            hi = int(h_pos[y])
            h_parent = sub.members[hi]
            scale = (sigma.phase(x, s) * sigma.phase(reps[ri], h_parent).inverse()).to_complex()
            mats[x, ri * dt : (ri + 1) * dt, si * dt : (si + 1) * dt] = scale * theta.matrices[hi]
    result = make_rep(g, mats, label=f"Ind({theta.label})")
    assert result.cocycle == sigma
    return result


def conjugate_rep_loop(theta: ProjectiveRep, sub: Subgroup, x: int, sigma) -> ProjectiveRep:
    """projreps.conjugate_rep as one exact Phase product per member y."""
    g = sub.parent
    xi = int(g.inv[x])
    mats = np.zeros_like(theta.matrices)
    for i, y in enumerate(sub.members):
        z = int(g.mul[g.mul[xi, y], x])
        if z not in sub:
            raise ValueError("subgroup is not stable under conjugation by x")
        scale = (sigma.phase(xi, y) * sigma.phase(z, xi).inverse()).to_complex()
        mats[i] = scale * theta.matrices[sub.position(z)]
    return ProjectiveRep(
        sub.as_group(), mats, theta.cocycle, label=f"{theta.label}^x", validate=False
    )


def _conjugate_character_loop(chi, sub: Subgroup, x: int, sigma_complex) -> np.ndarray:
    """Character of theta^x from the character of theta, one member at a time."""
    g = sub.parent
    xi = int(g.inv[x])
    out = np.zeros(len(sub.members), dtype=complex)
    for i, y in enumerate(sub.members):
        z = int(g.mul[g.mul[xi, y], x])
        out[i] = sigma_complex[xi, y] * np.conj(sigma_complex[z, xi]) * chi[sub.position(z)]
    return out


def inertia_group_loop(theta: ProjectiveRep, sub: Subgroup, sigma) -> list[int]:
    """Members of projreps.inertia_group, testing each x of G in turn."""
    g = sub.parent
    chi = theta.character().values
    sigma_complex = sigma.to_complex_table()
    mem = set(sub.members)
    members = []
    for x in range(g.order):
        if any(g.conjugate(g.inv[x], y) not in mem for y in sub.members):
            continue
        values = _conjugate_character_loop(chi, sub, x, sigma_complex)
        if np.abs(values - chi).max() <= 1e-7:
            members.append(x)
    return members


def mackey_defect_loop(f, pi: ProjectiveRep) -> float:
    """projreps.mackey_character_defect summed over coset representatives in turn."""
    sub = f.domain
    theta = rep_from_phase_function(f)
    res = pi.restrict(sub)
    ell = round(float(np.mean(theta.character().values.conj() * res.character().values).real))
    inertia = sub.parent.subgroup(inertia_group_loop(theta, sub, pi.cocycle))
    sigma_complex = pi.cocycle.to_complex_table()
    chi = theta.character().values
    total = np.zeros(len(sub.members), dtype=complex)
    for r in sub.parent.coset_representatives(inertia):
        total += _conjugate_character_loop(chi, sub, r, sigma_complex)
    return float(np.abs(res.character().values - ell * total).max())


# -- the per-entry loops that the whole-array group constructors replaced ----


def dihedral_loop(n: int) -> FiniteGroup:
    """D_n with index k*n + l for b^k a^l, one table entry per pair of digit pairs."""
    mul = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for k1, l1, k2, l2 in itertools.product(range(2), range(n), range(2), range(n)):
        k = (k1 + k2) % 2
        sign = -1 if k2 else 1
        l = (sign * l1 + l2) % n
        mul[k1 * n + l1, k2 * n + l2] = k * n + l
    names = []
    for k in range(2):
        for l in range(n):
            a_part = "" if l == 0 else ("a" if l == 1 else f"a^{l}")
            if k == 0:
                names.append(a_part or "1")
            else:
                names.append(("b " + a_part).strip())
    return group_from_mul_table(mul, label=f"D{n}", element_names=names)


def inversion_semidirect_loop(n: int) -> FiniteGroup:
    """(Z_n x Z_n) : Z_2, one table entry per pair of digit triples."""
    order = 2 * n * n
    mul = np.zeros((order, order), dtype=np.int64)

    def pack(a, b, c):
        return (a * n + b) * 2 + c

    for a1, b1, c1 in itertools.product(range(n), range(n), range(2)):
        for a2, b2, c2 in itertools.product(range(n), range(n), range(2)):
            sign = -1 if c1 else 1
            a = (a1 + sign * a2) % n
            b = (b1 + sign * b2) % n
            mul[pack(a1, b1, c1), pack(a2, b2, c2)] = pack(a, b, (c1 + c2) % 2)
    names = [f"({x // (2 * n)},{(x // 2) % n},{x % 2})" for x in range(order)]
    return group_from_mul_table(mul, label=f"(C{n}xC{n}):C2", element_names=names)


def symmetric_loop(n: int) -> FiniteGroup:
    """S_n in lexicographic one-line order, one dict lookup per product."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    mul = np.zeros((order, order), dtype=np.int64)
    for i, s in enumerate(perms):
        for j, t in enumerate(perms):
            mul[i, j] = index[tuple(s[t[k]] for k in range(n))]
    names = ["".join(str(v + 1) for v in p) for p in perms]
    return group_from_mul_table(mul, label=f"S{n}", element_names=names)


def permutation_semidirect_loop(base: FiniteGroup, n: int) -> FiniteGroup:
    """base^n : S_n, one packed index per product of a tuple and a permutation."""
    b = base.order
    sym = symmetric_loop(n)
    order = b**n * sym.order
    perms = list(itertools.permutations(range(n)))
    tuples = list(itertools.product(range(b), repeat=n))
    tuple_index = {t: i for i, t in enumerate(tuples)}

    def pack(vec_idx: int, perm_idx: int) -> int:
        return vec_idx * sym.order + perm_idx

    mul = np.zeros((order, order), dtype=np.int64)
    for vi, xs in enumerate(tuples):
        for si, s in enumerate(perms):
            s_inv_positions = [0] * n
            for j in range(n):
                s_inv_positions[s[j]] = j
            row = pack(vi, si)
            for wi, ys in enumerate(tuples):
                permuted = tuple(ys[s_inv_positions[j]] for j in range(n))
                prod_vec = tuple(int(base.mul[xs[j], permuted[j]]) for j in range(n))
                pv = tuple_index[prod_vec]
                for ti in range(sym.order):
                    mul[row, pack(wi, ti)] = pack(pv, sym.mul[si, ti])
    names = [
        f"({','.join(base.name_of(v) for v in tuples[x // sym.order])};{sym.name_of(x % sym.order)})"
        for x in range(order)
    ]
    return group_from_mul_table(mul, label=f"{base.label}^{n}:S{n}", element_names=names)


def coset_representatives_loop(group: FiniteGroup, sub: Subgroup) -> list[int]:
    """coset_representatives by one np.unique(x H) per uncovered x: the
    identity first, then each other coset's minimal element in increasing order."""
    members = np.array(sub.members)
    seen = set()
    reps = []
    for x in range(group.order):
        if x in seen:
            continue
        coset = np.unique(group.mul[x, members])
        seen.update(int(y) for y in coset)
        if group.identity in coset:
            reps.insert(0, (group.identity, int(coset.min())))
        else:
            reps.append((int(coset.min()), int(coset.min())))
    reps = [reps[0]] + sorted(reps[1:], key=lambda t: t[1])
    return [r for r, _ in reps]


def quotient_loop(group: FiniteGroup, normal: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """quotient by one np.unique(x N) per uncovered x, cosets ordered by
    their minimal element."""
    members = np.array(normal.members)
    coset_of: dict[int, int] = {}
    cosets: list[np.ndarray] = []
    for x in range(group.order):
        if x in coset_of:
            continue
        coset = np.unique(group.mul[x, members])
        for y in coset:
            coset_of[int(y)] = len(cosets)
        cosets.append(coset)
    order_keys = sorted(range(len(cosets)), key=lambda i: int(cosets[i].min()))
    relabel = {old: new for new, old in enumerate(order_keys)}
    projection = np.array([relabel[coset_of[x]] for x in range(group.order)], dtype=np.int64)
    reps = [int(cosets[old].min()) for old in order_keys]
    q = len(reps)
    mul = np.zeros((q, q), dtype=np.int64)
    for i, r in enumerate(reps):
        mul[i] = projection[group.mul[r, reps]]
    names = [f"[{group.name_of(r)}]" for r in reps]
    return group_from_mul_table(mul, label=f"{group.label}/N", element_names=names), projection


# -- the per-state and per-row loops that the channels stacks replaced -------


def kraus_apply_oracle(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_x K_x rho K_x* for one state, as one three-operand einsum."""
    return np.einsum("xab,bc,xdc->ad", kraus, rho, kraus.conj())


def build_recovery_gram_oracle(code, channel) -> np.ndarray:
    """The Kraus operators of the Knill-Laflamme recovery, from the Gram
    matrix m[i,j] = tr(B* K_i* K_j B) / w and its eigh: the Kraus operators
    rotated by the eigenvectors of eigenvalues >= GRAM_FLOOR, each scaled to
    an isometry on the code, then the completion projector."""
    b = code.basis
    d, w = b.shape
    kb = np.einsum("xab,bk->xak", channel.kraus, b)
    flat = kb.reshape(len(kb), d * w)
    gram = flat.conj() @ flat.T / w
    evals, evecs = np.linalg.eigh(gram)
    keep = evals >= _tol.GRAM_FLOOR
    isometries = (evecs[:, keep].T @ flat).reshape(-1, d, w) / np.sqrt(evals[keep])[:, None, None]
    ops = [b @ iso.conj().T for iso in isometries]
    completion = np.eye(d) - sum(iso @ iso.conj().T for iso in isometries)
    return np.array(ops + [completion])


def superoperator(kraus: np.ndarray) -> np.ndarray:
    """sum_x K_x (x) conj(K_x): equal for two Kraus stacks of the same channel."""
    d = kraus.shape[1]
    return np.einsum("xab,xcd->acbd", kraus, kraus.conj()).reshape(d * d, d * d)


def verify_recovery_oracle(code, channel, recovery, n_random: int = 20, seed: int = 7) -> float:
    """Max ||R(E(rho)) - rho||_F over the matrix units, then the seeded random
    code states, applying both channels to one state at a time."""
    b = code.basis
    w = code.dim
    worst = 0.0
    for i in range(w):
        for j in range(w):
            rho = np.outer(b[:, i], b[:, j].conj())
            out = kraus_apply_oracle(recovery.kraus, kraus_apply_oracle(channel.kraus, rho))
            worst = max(worst, float(np.linalg.norm(out - rho)))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        v = rng.normal(size=w) + 1j * rng.normal(size=w)
        v = b @ (v / np.linalg.norm(v))
        rho = np.outer(v, v.conj())
        out = kraus_apply_oracle(recovery.kraus, kraus_apply_oracle(channel.kraus, rho))
        worst = max(worst, float(np.linalg.norm(out - rho)))
    return worst


def kl_witness_per_row(code, channel, tol: float = 1e-8) -> tuple[int, int] | None:
    """The first (i, j) in row-major order with B* K_i* K_j B not scalar,
    forming one row i at a time."""
    kb = np.einsum("xab,bk->xak", channel.kraus, code.basis)
    w = code.dim
    for i in range(len(channel)):
        blocks = np.einsum("ak,jal->jkl", kb[i].conj(), kb)
        c = np.trace(blocks, axis1=1, axis2=2) / w
        dev = np.linalg.norm(blocks - c[:, None, None] * np.eye(w), axis=(1, 2))
        bad = np.flatnonzero(~(dev < tol))
        if bad.size:
            return i, int(bad[0])
    return None


def _joint_eigenspaces(matrices: np.ndarray, gens: list[int], basis: np.ndarray):
    """Yield a basis of every nonzero joint eigenspace of matrices[g], g in gens,
    inside the span of the orthonormal columns of basis.

    Depth first: the eigenvalues of the first generator compressed to the
    span are sorted by phase angle (angles within _tol.EXACT of a full turn
    read as 0, angles within _tol.SCAN of the last one kept are merged), and
    each branch intersects the span with a genuine eigenspace before the next
    generator refines it.  Spurious compressed eigenvalues of noncommuting
    generators die as empty intersections.  Branches come out in
    lexicographic angle order, one generator after another.  This is the
    eigenspace walk codes._constituent_phases made before its constituents
    were read from exact characters, kept as their oracle.
    """
    if not gens:
        yield basis
        return
    m = matrices[gens[0]]
    angles = np.mod(np.angle(np.linalg.eigvals(basis.conj().T @ m @ basis)) / (2 * np.pi), 1.0)
    angles[angles > 1 - _tol.EXACT] = 0.0
    chosen: list[float] = []
    for a in sorted(angles):
        if not chosen or a - chosen[-1] > _tol.SCAN:
            chosen.append(a)
    eye = np.eye(matrices.shape[1])
    for a in chosen:
        ns = nullspace((m - np.exp(2j * np.pi * a) * eye) @ basis)
        if ns.shape[1]:
            yield from _joint_eigenspaces(matrices, gens[1:], basis @ ns)


def cyclic_extensions_oracle(sigma, members):
    """cocycles._cyclic_extensions as a per-row coset walk on Python lists:
    the walk it made before its steps were read on arrays, kept as its
    oracle.  Same arguments and the same (ok, f0, M, chars, e)."""
    g, (b, h) = sigma.group, members.shape
    pos = np.zeros((b, g.order), dtype=np.int64)   # [i, x]: x's position among row i's members
    pos[np.arange(b)[:, None], members] = np.arange(h)   # and mul holds H's tables on positions
    mul = np.take_along_axis(pos[:, None], g.mul[members[:, :, None], members[:, None, :]], axis=2)
    t = sigma.num[members[:, :, None], members[:, None, :]]
    q = np.gcd(np.gcd.reduce(t, axis=(1, 2)), sigma.den)   # sigma|H over its least denominator
    ok, walks = [], [([*range(h)], [0] * h, 1, [[0] * h] * h, 1)]   # row 0 keeps the shapes; dropped
    for rows, tab, den, ident in zip(mul.tolist(), (t // q[:, None, None]).tolist(),
                                     (sigma.den // q).tolist(), pos[:, g.identity].tolist()):
        built, where = [ident], {ident: 0}   # H's elements in the order the cosets add them
        steps, gens, e = [], [], 1
        for x in range(h):
            if x in where:
                continue
            powers, y, z, order = [ident], x, x, 1
            while y not in where:
                powers.append(y)
                y = rows[y][x]
            while z != ident:
                z, order = rows[z][x], order + 1
            e, size = math.lcm(e, order), len(built)
            steps.append((size, powers, where[y]))
            gens.append(x)
            for p in powers[1:]:
                for k in built[:size]:
                    where[rows[k][p]] = len(built)
                    built.append(rows[k][p])
        ok.append(not any((tab[x][y] - tab[y][x]) % den for x in gens for y in gens))   # beta = 1
        if not ok[-1]:
            continue
        f, modulus, chars = [tab[ident][ident]], den, [[0]]
        for size, powers, top in steps:
            m = len(powers)
            a = list(itertools.accumulate((-tab[p][powers[1]] for p in powers), initial=tab[ident][ident]))
            if (f[top] - a[m] * (modulus // den)) % math.gcd(m, modulus):
                modulus, f = modulus * m, [v * m for v in f]
            r, scale = math.gcd(m, modulus), modulus // den
            c = (f[top] - a[m] * scale) % modulus // r * pow(m // r, -1, modulus // r) % (modulus // r)
            f = [(v + (a[j] - tab[k][p]) * scale + j * c) % modulus
                 for j, p in enumerate(powers) for v, k in zip(f, built[:size])]
            chars = [[(v + j * c) % e for j in range(m) for v in chi]
                     for chi in chars for c in range(chi[top] // m, e, e // m)]
        walks.append((built, f, modulus, chars, e))
    ok = np.array(ok, dtype=bool)
    built, f, modulus, chars, e = (np.array(col, dtype=np.int64)[1:] for col in zip(*walks))
    order = np.argsort(built, axis=1)   # walk order -> member order
    f, chars = np.take_along_axis(f, order, axis=1), np.take_along_axis(chars, order[:, None], axis=2)
    common = sigma.den * h
    if not cocycles._coboundary_rows(f * (common // modulus)[:, None], common, mul[ok], t[ok], sigma.den).all():
        raise RuntimeError("cyclic extension produced a non-trivializing phase function")
    q = np.gcd(np.gcd.reduce(f, axis=1), modulus)
    return ok, f // q[:, None], modulus // q, chars, e


def cyclic_extension(sigma, members):
    """cocycles._cyclic_extensions on one abelian subgroup, given by its
    sorted members: (f0, M, chars, e), or None when no trivializer exists."""
    ok, f0, den, chars, e = _cyclic_extensions(sigma, np.asarray(members)[None])
    return (f0[0], int(den[0]), chars[0], int(e[0])) if ok[0] else None


def extension_trivializer(model, sub):
    """The trivializer f0 that codes._constituents takes on an abelian sub,
    element by element in Fractions mod 1, or None when it fails
    df = sigma|H.  Along sub's greedy generators x, with m the least m with
    x^m in the part K already built, f(x) = c is the least multiple of 1/M
    with f(x^m) as K has it, where f(x^(j+1)) = f(x^j) + c - sigma(x^j, x);
    M starts at the least denominator of sigma|H and is multiplied by m when
    no multiple of 1/M serves.  Then f(k x^j) = f(k) + f(x^j) - sigma(k, x^j)."""
    from fractions import Fraction

    g, sigma = model.group, model.cocycle
    mem, e = list(sub.members), model.group.identity
    s = {(x, y): Fraction(int(sigma.num[x, y]), sigma.den) for x in mem for y in mem}
    modulus = math.lcm(*(q.denominator for q in s.values()))
    f = {e: s[e, e]}
    for x in mem:
        if x in f:
            continue
        powers, y = [e], x
        while y not in f:
            powers.append(y)
            y = int(g.mul[y, x])

        def walk(c):
            out = [f[e]]
            for p in powers:
                out.append(out[-1] + c - s[p, x])
            return out

        for grid in (modulus, modulus * len(powers)):
            c = next((Fraction(k, grid) for k in range(grid) if (walk(Fraction(k, grid))[-1] - f[y]) % 1 == 0), None)
            if c is not None:
                modulus = grid
                break
        along = walk(c)
        for k in list(f):
            for j, p in enumerate(powers[1:], 1):
                f[int(g.mul[k, p])] = (f[k] + along[j] - s[k, p]) % 1
    if any((f[x] + f[y] - f[int(g.mul[x, y])] - s[x, y]) % 1 for x in mem for y in mem):
        return None
    return PhaseFunction(sub, [Phase.from_fraction(f[x]) for x in mem])


def constituent_phases_oracle(model, sub) -> list:
    """codes._constituent_phases by the eigenspace walk: f0 times the
    character of each joint eigenspace of conj(f0) pi|H (_joint_eigenspaces
    over the greedy generators), read on its first basis vector and
    snapped entry by entry.  f0 is extension_trivializer's on abelian H and
    the solver's on others, as in codes._constituents."""
    from qeclab.cocycles import PhaseFunction, find_trivializing_phase

    if sub.is_abelian():
        f0 = extension_trivializer(model, sub)
    else:
        f0 = find_trivializing_phase(model.cocycle.restrict(sub), domain=sub)
    if f0 is None:
        return []
    lin = model.rep.matrices[list(sub.members)] * f0.values.conj()[:, None, None]
    gens = sub.as_group().greedy_generators()
    out = []
    for basis in _joint_eigenspaces(lin, gens, np.eye(model.dim, dtype=complex)):
        v = basis[:, 0]
        chi_values = np.einsum("a,xab,b->x", v.conj(), lin, v)
        phases = [snap_phase_or_none(complex(z), len(sub)) for z in chi_values]
        assert all(p is not None for p in phases)
        out.append(f0.multiply(PhaseFunction(sub, phases, chi_values)))
    return out


def joint_eigenvectors_oracle(matrices: np.ndarray, gens: list[int]) -> list[np.ndarray]:
    """Bases of every nonzero joint eigenspace of the generator matrices,
    refined breadth first: one list of branches per generator."""
    from qeclab._linalg import nullspace

    dim = matrices.shape[1]
    branches = [np.eye(dim, dtype=complex)]
    for g in gens:
        refined: list[np.ndarray] = []
        for basis in branches:
            block = basis.conj().T @ matrices[g] @ basis
            eigvals = np.linalg.eigvals(block)
            angles = np.mod(np.angle(eigvals) / (2 * np.pi), 1.0)
            angles[angles > 1 - 1e-9] = 0.0
            chosen: list[float] = []
            for a in sorted(angles):
                if not chosen or a - chosen[-1] > 1e-8:
                    chosen.append(a)
            for a in chosen:
                c = np.exp(2j * np.pi * a)
                ns = nullspace((matrices[g] - c * np.eye(dim)) @ basis)
                if ns.shape[1]:
                    refined.append(basis @ ns)
        branches = refined
    return branches


def existence_phase_oracle(model, sub):
    """existence_phase by eig: per generator, keep the eigenvectors of the
    lowest phase angle, orthonormalized, then read the character of the
    first joint eigenvector, with f0 from extension_trivializer."""
    from qeclab._linalg import orthonormal_columns
    from qeclab.cocycles import PhaseFunction

    if not sub.is_abelian():
        return None
    f0 = extension_trivializer(model, sub)
    if f0 is None:
        return None
    h = sub.as_group()
    lin = model.rep.matrices[list(sub.members)] * f0.values.conj()[:, None, None]
    basis = np.eye(model.dim, dtype=complex)
    for g in h.greedy_generators():
        block = basis.conj().T @ lin[g] @ basis
        eigvals, eigvecs = np.linalg.eig(block)
        angles = np.mod(np.angle(eigvals) / (2 * np.pi), 1.0)
        angles[angles > 1 - 1e-9] = 0.0
        keep = np.abs(angles - angles.min()) < 1e-8
        basis = basis @ orthonormal_columns(eigvecs[:, keep])
    v = basis[:, 0]
    chi_values = np.einsum("a,xab,b->x", v.conj(), lin, v)
    chi = PhaseFunction.from_complex(sub, chi_values, max_den=len(sub))
    assert chi.is_exact
    return f0.multiply(chi)


def trivializer_all_pairs(sigma, domain=None):
    """find_trivializing_phase imposing df = sigma on all n^2 pairs (x, y)."""
    from qeclab.cocycles import PhaseFunction, _solve_mod

    group = sigma.group
    result_domain = domain if domain is not None else group.full_subgroup()
    n, mul = group.order, group.mul
    gens = group.greedy_generators()
    r = len(gens)
    exponent = group.exponent()
    multiples = [k for k in (1, 2) if k <= exponent] + ([exponent] if exponent > 2 else [])
    for k in multiples:
        modulus = k * sigma.den
        t = (sigma.num * k) % modulus
        coeff = np.zeros((n, r), dtype=np.int64)
        const = np.zeros(n, dtype=np.int64)
        known = np.zeros(n, dtype=bool)
        e = group.identity
        known[e] = True
        const[e] = t[e, e]
        for i, g in enumerate(gens):
            if not known[g]:
                known[g] = True
                coeff[g, i] = 1
        queue = [e] + list(gens)
        while queue:
            x = queue.pop()
            for g in gens:
                y = int(mul[x, g])
                if not known[y]:
                    known[y] = True
                    coeff[y] = coeff[x] + coeff[g]
                    const[y] = const[x] + const[g] - t[x, g]
                    queue.append(y)
        cx = coeff[:, None, :] + coeff[None, :, :] - coeff[mul]
        dv = t - const[:, None] - const[None, :] + const[mul]
        system = np.concatenate(
            [cx.reshape(n * n, r) % modulus, dv.reshape(n * n, 1) % modulus], axis=1
        )
        system = np.unique(system, axis=0)
        u = _solve_mod(
            [list(map(int, row[:r])) for row in system], [int(row[r]) for row in system], modulus
        )
        if u is None:
            continue
        nums = (coeff @ np.array(u, dtype=np.int64) + const) % modulus
        return PhaseFunction.exact(result_domain, [Phase(int(v), modulus) for v in nums])
    return None


def trivializer_per_multiple(sigma, domain=None):
    """find_trivializing_phase with the generator walk, the Cayley-edge system
    and np.unique(axis=0) all redone for each denominator multiple k."""
    from qeclab.cocycles import PhaseFunction, _solve_mod

    group = sigma.group
    result_domain = domain if domain is not None else group.full_subgroup()
    n, mul = group.order, group.mul
    gens = group.greedy_generators()
    r = len(gens)
    exponent = group.exponent()
    multiples = [k for k in (1, 2) if k <= exponent] + ([exponent] if exponent > 2 else [])
    for k in multiples:
        modulus = k * sigma.den
        t = (sigma.num * k) % modulus
        coeff = np.zeros((n, r), dtype=np.int64)
        const = np.zeros(n, dtype=np.int64)
        known = np.zeros(n, dtype=bool)
        e = group.identity
        known[e] = True
        const[e] = t[e, e]
        for i, g in enumerate(gens):
            if not known[g]:
                known[g] = True
                coeff[g, i] = 1
        queue = [e] + list(gens)
        while queue:
            x = queue.pop()
            for g in gens:
                y = int(mul[x, g])
                if not known[y]:
                    known[y] = True
                    coeff[y] = coeff[x] + coeff[g]
                    const[y] = const[x] + const[g] - t[x, g]
                    queue.append(y)
        ends = mul[:, gens]
        cx = coeff[:, None, :] + coeff[gens][None, :, :] - coeff[ends]
        dv = t[:, gens] - const[:, None] - const[gens][None, :] + const[ends]
        system = np.concatenate(
            [cx.reshape(n * r, r) % modulus, dv.reshape(n * r, 1) % modulus], axis=1
        )
        system = np.unique(system, axis=0)
        u = _solve_mod(
            [list(map(int, row[:r])) for row in system], [int(row[r]) for row in system], modulus
        )
        if u is None:
            continue
        nums = (coeff @ np.array(u, dtype=np.int64) + const) % modulus
        return PhaseFunction.exact(result_domain, [Phase(int(v), modulus) for v in nums])
    return None


def em_from_pem_loop(pem, sigma_prime, f, n):
    """models.em_from_pem's table and matrices, one block per (z1, x1, z2) and
    one matrix per element (inputs taken as already checked)."""
    from qeclab.models import ErrorModel, zeta

    g = pem.group
    s_num = sigma_prime.num * (n // sigma_prime.den)
    order = n * g.order
    mul = np.zeros((order, order), dtype=np.int64)
    for z1 in range(n):
        for x1 in range(g.order):
            zsum = (z1 + np.arange(n)) % n
            for z2 in range(n):
                target_z = (zsum[z2] + s_num[x1]) % n
                mul[z1 * g.order + x1, z2 * g.order : (z2 + 1) * g.order] = (
                    target_z * g.order + g.mul[x1]
                )
    names = [f"(w^{x // g.order}|{g.name_of(x % g.order)})" for x in range(order)]
    egroup = group_from_mul_table(mul, label=f"C{n}x~{g.label}", element_names=names)
    root = zeta(n) if n > 1 else 1.0
    mats = np.zeros((order, pem.dim, pem.dim), dtype=complex)
    for idx in range(order):
        z, x = divmod(idx, g.order)
        mats[idx] = (root**z) * f.values[x] * pem.rep.matrices[x]
    return ErrorModel(make_rep(egroup, mats, label="lambda"), label=f"em({pem.label})")


def gen_pauli_matrices_loop(n: int) -> np.ndarray:
    """gen_pauli_model's matrices, X^a Z^b one element at a time."""
    from qeclab.models import clock_shift

    x, z = clock_shift(n)
    xp = [np.linalg.matrix_power(x, a) for a in range(n)]
    zp = [np.linalg.matrix_power(z, b) for b in range(n)]
    return np.array([xp[g // n] @ zp[g % n] for g in range(n * n)])


def dihedral_xp_matrices_loop(n: int) -> np.ndarray:
    """dihedral_xp_model's matrices, X^k P^l one element at a time."""
    from qeclab.models import zeta

    x = np.array([[0, 1], [1, 0]], dtype=complex)
    p = np.diag([1, zeta(n)])
    pp = [np.linalg.matrix_power(p, l) for l in range(n)]
    return np.array([np.linalg.matrix_power(x, g // n) @ pp[g % n] for g in range(2 * n)])


def family_c2_x_d2n_loop(n: int) -> tuple[np.ndarray, np.ndarray]:
    """family_c2_x_d2n's model and rho matrices, one element at a time."""
    from qeclab.models import zeta

    eye2 = np.eye(2, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    p = np.diag([1, zeta(2 * n)])
    swap = np.kron(flip, eye2)
    xx = np.kron(eye2, flip)
    pm = np.kron(np.diag([1.0, -1.0]), p)
    d_order = 4 * n
    pmp = [np.linalg.matrix_power(pm, m) for m in range(2 * n)]
    mats = np.zeros((2 * d_order, 4, 4), dtype=complex)
    for g in range(2 * d_order):
        k, rest = divmod(g, d_order)
        l, m = divmod(rest, 2 * n)
        mats[g] = np.linalg.matrix_power(swap, k) @ np.linalg.matrix_power(xx, l) @ pmp[m]
    pp = [np.linalg.matrix_power(p, m) for m in range(2 * n)]
    rho = np.array(
        [np.linalg.matrix_power(flip, h // (2 * n)) @ pp[h % (2 * n)] for h in range(d_order)]
    )
    return mats, rho


def family_odd_loop(n: int) -> tuple[np.ndarray, np.ndarray]:
    """family_odd's model and rho matrices, one element at a time, skipping
    the identity factors C^0 and swap^0."""
    from qeclab.models import clock_shift

    x, z = clock_shift(n)
    c = np.fliplr(np.eye(n, dtype=complex))
    eye2 = np.eye(2, dtype=complex)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    xx, zz = np.kron(eye2, x), np.kron(eye2, z)
    cc = np.kron(np.diag([1.0, -1.0]), c)
    sw = np.kron(flip, np.eye(n, dtype=complex))
    lorder = 2 * n * n
    mats = np.zeros((2 * lorder, 2 * n, 2 * n), dtype=complex)
    rho = np.zeros((lorder, n, n), dtype=complex)
    for li in range(lorder):
        a, b, cpow = li // (2 * n), (li // 2) % n, li % 2
        m = np.linalg.matrix_power(xx, a) @ np.linalg.matrix_power(zz, b)
        r = np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
        if cpow:
            m, r = m @ cc, r @ c
        mats[2 * li], mats[2 * li + 1] = m, m @ sw
        rho[li] = r
    return mats, rho


def perm_product_matrices_loop(model, n: int) -> np.ndarray:
    """perm_product_model's matrices: one Kronecker chain per tuple, times
    each tensor-factor permutation."""
    from qeclab.models import _tensor_permutation_matrix

    perms = list(itertools.permutations(range(n)))
    perm_mats = [_tensor_permutation_matrix(p, model.dim) for p in perms]
    dim = model.dim**n
    mats = np.zeros((model.group.order**n * len(perms), dim, dim), dtype=complex)
    for vi, xs in enumerate(itertools.product(range(model.group.order), repeat=n)):
        tens = np.eye(1, dtype=complex)
        for xj in xs:
            tens = np.kron(tens, model.rep.matrices[xj])
        for si in range(len(perms)):
            mats[vi * len(perms) + si] = tens @ perm_mats[si]
    return mats


def d4_rep_matrices_loop() -> list[np.ndarray]:
    """The five ordinary reps of d4_character_table, in its order: entries
    a^l b^k of the linear reps, and b5^k a5^l, for element 4k + l."""

    def linear_rep(a_val, b_val):
        return np.array(
            [[[a_val ** (g % 4) * b_val ** (g // 4)]] for g in range(8)], dtype=complex
        )

    a5 = np.array([[0, -1], [1, 0]], dtype=complex)
    b5 = np.array([[1, 0], [0, -1]], dtype=complex)
    rho5 = np.array(
        [np.linalg.matrix_power(b5, g // 4) @ np.linalg.matrix_power(a5, g % 4) for g in range(8)]
    )
    return [linear_rep(1, 1), linear_rep(1, -1), linear_rep(-1, 1), linear_rep(-1, -1), rho5]


def complex_json_loop(a) -> list:
    """Nested lists of [re, im], one Python float pair per entry."""
    if np.ndim(a) == 0:
        return [float(a.real), float(a.imag)]
    return [complex_json_loop(row) for row in a]


def phase_function_json_loop(f) -> dict:
    """PhaseFunction.to_json entry by entry: [num, den] of each exact Phase,
    {"re", "im"} of each inexact value."""
    out = {}
    for i, member in enumerate(f.domain.members):
        p = f.phases[i]
        if p is not None:
            out[str(member)] = [p.num, p.den]
        else:
            out[str(member)] = {"re": f.values[i].real, "im": f.values[i].imag}
    return out


def tensor_permutation_matrix_loop(perm: tuple[int, ...], dim: int) -> np.ndarray:
    """The tensor-factor permutation unitary, one basis vector at a time."""
    n = len(perm)
    size = dim**n
    u = np.zeros((size, size), dtype=complex)
    inv = [0] * n
    for j, pj in enumerate(perm):
        inv[pj] = j
    for src in range(size):
        digits = []
        rem = src
        for _ in range(n):
            digits.append(rem % dim)
            rem //= dim
        digits.reverse()
        dst = 0
        for d in [digits[inv[k]] for k in range(n)]:
            dst = dst * dim + d
        u[dst, src] = 1
    return u


def multiplicity_oracle(rho, res) -> int:
    """dim Hom(rho, res) as the length of the stack/SVD basis kron_hom_basis."""
    return len(kron_hom_basis(rho, res))


def _restrict_phase_oracle(f, sub):
    positions = [f.domain.position(x) for x in sub.members]
    if f.is_exact:
        return type(f).exact(sub, [f.phases[i] for i in positions])
    return type(f)(sub, tuple(f.phases[i] for i in positions), f.values[positions])


def _rebuilds(model, sub, f, p) -> bool:
    from qeclab.codes import weak_stabilizer_code

    rebuilt = weak_stabilizer_code(model, sub, f)
    return rebuilt is not None and np.linalg.norm(rebuilt.projector() - p) < 1e-7


def classify_flags_oracle(model, code) -> tuple[dict, dict]:
    """classify's weak, stabilizer and Clifford flags and witnesses, from
    rebuilt (S, f) and (N, f|N) eigenspaces compared by projector and from
    the length of kron_hom_basis bases.  L is logical_oracle's set closed
    under products, S stabilizer_oracle's set inside L, and f the snapped
    compressed scalars on S: none is read from classify."""
    from qeclab.projreps import MakeRepError, is_irreducible, restrict

    g, mats, p = model.group, model.rep.matrices, code.projector()
    logical = g.subgroup_generated(logical_oracle(model, code))
    stab = g.subgroup([x for x in stabilizer_oracle(model, code)[0] if x in logical])
    scalars, _ = compressed_scalars_oracle(model, code)
    f = PhaseFunction.from_complex(stab, scalars[list(stab.members)], 4 * g.order)
    flags, witnesses = {}, {}

    rebuilt = weak_stabilizer_code(model, stab, f)
    dist = np.linalg.norm(rebuilt.projector() - p) if rebuilt is not None else np.inf
    flags["is_weak_stabilizer"] = is_weak = bool(dist < 1e-7)
    if not is_weak:
        witnesses["is_weak_stabilizer"] = f"projector distance {dist:.3e}"

    def clifford():
        dim_v, dim_w = model.dim, code.dim
        if (dim_w * g.order) % dim_v != 0 or len(logical) * dim_v != dim_w * g.order:
            return f"|L| = {len(logical)} != (dim W / dim V)|G| = {dim_w * g.order / dim_v}"
        if logical.index() * dim_w != dim_v:
            return "[G:L] * dim W != dim V"
        inside = [np.linalg.norm(mats[x] @ p - p @ mats[x] @ p) for x in logical.members]
        if max(inside) > 1e-8:
            return "code not invariant under the logical group"
        res = restrict(model.rep, logical)
        try:
            rho = res.on_subspace(code.basis)
        except MakeRepError as exc:
            return f"restricted action is not a representation: {exc}"
        if not is_irreducible(rho):
            return "restricted action on the code is reducible"
        if multiplicity_oracle(rho, res) != 1:
            return "restricted action does not have multiplicity one"
        return None

    cliff_witness = clifford()
    flags["is_clifford"] = is_cliff = cliff_witness is None
    if not is_cliff:
        witnesses["is_clifford"] = cliff_witness

    if model.is_central_type() and is_cliff:
        flags["is_stabilizer"] = is_stab = is_weak and stab.is_normal()
        if not is_stab:
            witnesses["is_stabilizer"] = (
                "stabilizer group is not normal" if is_weak else "not a weak stabilizer code"
            )
    elif is_weak:
        inner = sorted(stab.as_group().all_subgroups(), key=len, reverse=True)
        subs = [Subgroup(g, [stab.members[i] for i in s.members]) for s in inner]
        flags["is_stabilizer"] = any(
            s.is_normal() and _rebuilds(model, s, _restrict_phase_oracle(f, s), p) for s in subs
        )
        if not flags["is_stabilizer"]:
            witnesses["is_stabilizer"] = "no normal subgroup of the stabilizer rebuilds the code"
    else:
        flags["is_stabilizer"] = False
        witnesses["is_stabilizer"] = "not a weak stabilizer code"
    return flags, witnesses


# -- the stack/SVD constituent split and Clifford intertwiner ---------------


def commutant_split_oracle(rep, seed: int = 11, attempts: int = 8) -> list:
    """Irreducible pieces of rep from a random combination of the SVD basis
    kron_hom_basis(rep, rep), in eigenvalue order; the split before Reynolds
    averaging."""
    from qeclab import _tol
    from qeclab._linalg import orthonormal_columns
    from qeclab.projreps import MakeRepError, is_irreducible

    if is_irreducible(rep):
        return [rep]
    maps = kron_hom_basis(rep, rep)
    for attempt in range(attempts):
        rng = np.random.default_rng(seed + attempt)
        coeff = rng.normal(size=len(maps)) + 1j * rng.normal(size=len(maps))
        t = sum(c * m for c, m in zip(coeff, maps))
        evals, evecs = np.linalg.eigh(t + t.conj().T)
        pieces, start = [], 0
        for k in range(1, rep.dim + 1):
            if k < rep.dim and evals[k] - evals[k - 1] < _tol.EIGENGAP * max(1.0, abs(evals[k])):
                continue
            basis = orthonormal_columns(evecs[:, start:k])
            start = k
            try:
                piece = rep.on_subspace(basis)
            except MakeRepError:
                break
            if not is_irreducible(piece):
                break
            pieces.append(piece)
        else:
            return pieces
    raise RuntimeError("commutant sampling failed to split the representation")


def irreducible_constituents(rep) -> list:
    """The pieces of search._split_restrictions on rep's own stack, as reps
    with rep's cocycle object, without their bases."""
    members = [range(len(rep.matrices))]
    return [
        ProjectiveRep(rep.group, action, rep.cocycle, validate=False)
        for action, _ in search._split_restrictions(rep.matrices, members)[0]
    ]


def canonical_key(dim: int, chi: np.ndarray) -> tuple:
    """(dim, character values on H, to a grid of _tol.DERIVED) of a piece:
    the key search._split_draw sorts the pieces of one restriction by, read
    from one _on_grid of all of a draw's characters."""
    return (dim, *search._on_grid(chi).tolist())


def split_restriction_oracle(model, sub) -> tuple[int | None, list]:
    """The per-subgroup split that search._split_restrictions stacks:
    restrict, projreps._reynolds of the seeded draw, eigh, and one
    compressed_action per eigenvalue cluster, retried with the next seed.

    (attempt, pieces): the attempt that split pi|H (None when pi|H is
    irreducible), and its pieces as (bounds, basis, action, key), bounds the
    cluster's column range in the eigenvector matrix, sorted by key.
    """
    from qeclab._linalg import compressed_action
    from qeclab.projreps import _reynolds, is_irreducible, restrict

    res = restrict(model.rep, sub)
    d = res.dim
    if is_irreducible(res):
        key = canonical_key(d, res.character().values)
        return None, [((0, d), np.eye(d, dtype=complex), res.matrices, key)]
    for attempt in range(search._SPLIT_ATTEMPTS):
        t = _reynolds(res.matrices, res.matrices, search._hermitian_draw(d, search._SPLIT_SEED + attempt))
        evals, evecs = np.linalg.eigh((t + t.conj().T) / 2)
        pieces, start = [], 0
        for k in range(1, d + 1):
            if k < d and evals[k] - evals[k - 1] < _tol.EIGENGAP * max(1.0, abs(evals[k])):
                continue
            basis = evecs[:, start:k]
            action, inside, _ = compressed_action(res.matrices, basis)
            chi = np.einsum("naa->n", action)
            if not (inside.max() < _tol.SCAN and abs(np.mean(chi * chi.conj()) - 1) <= _tol.DERIVED):
                break
            pieces.append(((start, k), basis, action, canonical_key(k - start, chi)))
            start = k
        else:
            return attempt, sorted(pieces, key=lambda piece: piece[3])
    raise RuntimeError("commutant sampling failed to split the representation")


def isotypic_projector(rep, piece) -> np.ndarray:
    """(dim/|H|) sum_x conj(chi_piece(x)) rep(x): the projector onto the sum of
    rep's constituents isomorphic to the irreducible piece (one cocycle)."""
    chi = piece.character().values
    return piece.dim * np.einsum("x,xij->ij", chi.conj(), rep.matrices) / len(chi)


def clifford_code_oracle(model, sub, rho):
    """clifford_code's space as the column span of the one kron_hom_basis(rho, Res pi) map."""
    from qeclab._linalg import orthonormal_columns
    from qeclab.codes import CodeSpace
    from qeclab.projreps import restrict

    maps = kron_hom_basis(rho, restrict(model.rep, sub))
    assert len(maps) == 1
    return CodeSpace(model.dim, orthonormal_columns(maps[0]))
