"""Independent oracles shared by the test modules.

Everything here recomputes expected values from first principles (group
multiplication tables and plain numpy), deliberately avoiding the package's
own higher-level machinery, so the tests compare two code paths.
"""

from __future__ import annotations

import itertools

import numpy as np

from qeclab.groups import FiniteGroup, Subgroup


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
