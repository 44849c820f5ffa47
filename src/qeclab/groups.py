"""Finite groups as explicit multiplication tables.

Elements of a group of order n are the integers 0..n-1.  The whole module
works with dense numpy index tables, which keeps every construction exact
and makes subgroup/coset computations plain integer array manipulation.

Every subgroup the library builds is interned: a FiniteGroup keeps one
private table from sorted member tuple to Subgroup, and all_subgroups,
subgroup, trivial_subgroup, full_subgroup, subgroup_generated, center
(and the logical groups, stabilizers and inertia groups of codes and
projreps) return the table's object.  A member set missing from the table
is validated by the public constructor Subgroup(parent, members), and is
stored only once that succeeds, so a set that fails is never cached.  No
check is lost: a Subgroup never changes its parent or members after
construction, so the closure check made once holds for every later
lookup, and the subgroup's as_group(), validated by FiniteGroup._validate
when first built, is shared by every caller of that member set.  The
public constructor itself is not interned and always validates.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "cyclic",
    "dihedral",
    "direct_product",
    "inversion_semidirect",
    "permutation_semidirect",
    "symmetric",
    "group_from_mul_table",
    "max_group_order",
]

# Largest dense int64 multiplication table (256 MiB, order 5792) a
# constructor will allocate.
_MAX_TABLE_BYTES = 2**28


def max_group_order() -> int:
    """Cap for exhaustive subgroup enumeration: QECLAB_MAX_ORDER, 64 when unset."""
    return int(os.environ.get("QECLAB_MAX_ORDER", 64))


class GroupValidationError(ValueError):
    """Raised when a multiplication table fails the group axioms."""


@dataclass(eq=False)
class FiniteGroup:
    """A finite group given by its full multiplication table.

    mul[x, y] is the product x*y.  identity and inv are derived data kept
    alongside the table so callers never rescan for them.
    """

    order: int
    mul: np.ndarray
    identity: int
    inv: np.ndarray
    label: str = "G"
    element_names: list[str] | None = None
    # sorted member tuple -> the one library-built Subgroup on those members
    _interned: dict = field(default_factory=dict, init=False, repr=False)
    _lattice_members: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.mul = np.asarray(self.mul, dtype=np.int64)
        self.inv = np.asarray(self.inv, dtype=np.int64)
        if self.mul.shape != (self.order, self.order):
            raise GroupValidationError("multiplication table has wrong shape")
        if self.element_names is not None and len(self.element_names) != self.order:
            raise GroupValidationError("element_names length mismatch")
        self._validate()

    def _validate(self) -> None:
        n = self.order
        mul = self.mul
        if mul.min() < 0 or mul.max() >= n:
            raise GroupValidationError("table entries out of range")
        e = self.identity
        if not (np.array_equal(mul[e], np.arange(n)) and np.array_equal(mul[:, e], np.arange(n))):
            raise GroupValidationError("identity element does not act as identity")
        if not np.all(mul[np.arange(n), self.inv] == e) or not np.all(mul[self.inv, np.arange(n)] == e):
            raise GroupValidationError("inverse table is wrong")
        # Light's test: the elements a with (x*a)*y == x*(a*y) for all x, y
        # are closed under multiplication, so checking a set that reaches every
        # element by right multiplication from the identity proves the table
        # associative.
        for g in self.greedy_generators():
            if not np.array_equal(mul[mul[:, g]], mul[:, mul[g]]):
                raise GroupValidationError("multiplication table is not associative")

    def _closure(self, candidates) -> tuple[list[int], list[int]]:
        """Close {identity} under right multiplication, adjoining in turn each
        candidate not yet reached; returns (members, adjoined candidates).

        In a group this is the subgroup the candidates generate.  It needs
        only an in-range table with an identity, so validation can use it.
        """
        members, mask = [self.identity], 1 << self.identity
        adjoined: list[int] = []
        cols: list[list[int]] = []
        for x in candidates:
            if not mask >> x & 1:
                adjoined.append(x)
                cols.append(self.mul[:, x].tolist())
                mask = _extend_closure(members, mask, cols)
        return members, adjoined

    def greedy_generators(self) -> list[int]:
        """Each element not in the subgroup generated by its predecessors in
        this list, taken in index order."""
        return self._closure(range(self.order))[1]

    def name_of(self, x: int) -> str:
        if self.element_names is not None:
            return self.element_names[x]
        return str(x)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != self.identity:
            y = self.mul[y, x]
            k += 1
        return k

    def exponent(self) -> int:
        return math.lcm(*(self.element_order(x) for x in range(self.order)))

    def conjugate(self, x: int, y: int) -> int:
        """x * y * x^-1."""
        return self.mul[self.mul[x, y], self.inv[x]]

    # -- subgroups ---------------------------------------------------------

    def _intern(self, members) -> "Subgroup":
        """The interned Subgroup on a member set, validated on first use."""
        key = tuple(sorted({int(m) for m in members}))
        sub = self._interned.get(key)
        if sub is None:
            sub = Subgroup(self, key)
            self._interned[key] = sub
        return sub

    def subgroup(self, members) -> "Subgroup":
        return self._intern(members)

    def trivial_subgroup(self) -> "Subgroup":
        return self._intern([self.identity])

    def full_subgroup(self) -> "Subgroup":
        return self._intern(range(self.order))

    def subgroup_generated(self, gens) -> "Subgroup":
        members, _ = self._closure(sorted({int(g) for g in gens}))
        return self._intern(members)

    def center(self) -> "Subgroup":
        commutes = self.mul == self.mul.T
        members = [x for x in range(self.order) if commutes[x].all()]
        return self._intern(members)

    def all_subgroups(self, max_order: int | None = None) -> list["Subgroup"]:
        """Every subgroup, by cyclic extension from the trivial one.

        Each subgroup H found so far is extended to <H, x> for every x outside
        H drawn from one representative per cyclic subgroup, closing with H's
        own generators plus x.  This is complete: every subgroup is reached
        from the trivial one by adjoining one element at a time, and adjoining
        x is the same as adjoining <x>.  Subgroups are kept as int bitmasks of
        their members.  Guarded by the order cap since subgroup counts grow
        quickly.  The result is sorted by (order, members), and every
        subgroup in it is interned.
        """
        return [self._intern(members) for members in self._lattice(max_order)]

    def _lattice(self, max_order: int | None = None) -> list[tuple[int, ...]]:
        """The sorted member tuples of all_subgroups, built once per group."""
        cap = max_order if max_order is not None else max_group_order()
        if self.order > cap:
            raise ValueError(
                f"subgroup enumeration capped at order {cap} (group has {self.order}); "
                "raise QECLAB_MAX_ORDER to override"
            )
        if self._lattice_members is None:
            self._lattice_members = self._cyclic_extensions()
        return self._lattice_members

    def _cyclic_extensions(self) -> list[tuple[int, ...]]:
        e = self.identity
        reps: list[tuple[int, list[int]]] = []
        cyclic_seen = set()
        for x, col in enumerate(self.mul.T.tolist()):
            mask, y = 1 << e, x
            while y != e:
                mask |= 1 << y
                y = col[y]
            if mask not in cyclic_seen:
                cyclic_seen.add(mask)
                reps.append((x, col))
        found = {1 << e}
        queue = [([e], 1 << e, [])]
        for members, mask, cols in queue:   # grows while iterated: breadth first
            # when |<H, x> : H| is prime, <H, y> = <H, x> for every y in
            # <H, x> outside H, so those y need no closure of their own
            covered = mask
            for x, col in reps:
                if covered >> x & 1:
                    continue
                ext_members, ext_cols = list(members), cols + [col]
                ext_mask = _extend_closure(ext_members, mask, ext_cols)
                if _is_prime(len(ext_members) // len(members)):
                    covered |= ext_mask
                if ext_mask not in found:
                    found.add(ext_mask)
                    queue.append((ext_members, ext_mask, ext_cols))
        lattice = [tuple(sorted(members)) for members, _, _ in queue]
        lattice.sort(key=lambda m: (len(m), m))
        return lattice

    def quotient(self, normal: "Subgroup") -> tuple["FiniteGroup", np.ndarray]:
        """Quotient by a normal subgroup; also returns the projection map.

        Cosets are ordered by their minimal element index.  projection[x] is
        the index of the coset of x.
        """
        if normal.parent is not self:
            raise ValueError("subgroup belongs to a different group")
        if not normal.is_normal():
            raise ValueError("quotient requires a normal subgroup")
        reps, mins = self._left_cosets(normal)
        projection = np.searchsorted(reps, mins)
        mul = projection[self.mul[np.ix_(reps, reps)]]
        names = [f"[{self.name_of(r)}]" for r in reps]
        return group_from_mul_table(mul, label=f"{self.label}/N", element_names=names), projection

    def coset_representatives(self, sub: "Subgroup") -> list[int]:
        """One representative per left coset xH, the identity representing H.

        The identity coset comes first; the rest are ordered by their minimal
        element index, which is also the chosen representative.
        """
        if sub.parent is not self:
            raise ValueError("subgroup belongs to a different group")
        reps, mins = self._left_cosets(sub)
        return [self.identity, *(int(r) for r in reps if r != mins[self.identity])]

    def _left_cosets(self, sub: "Subgroup") -> tuple[np.ndarray, np.ndarray]:
        """The minimal elements of the left cosets xH in increasing order, and
        the minimal element of the coset of each x."""
        mins = self.mul[:, list(sub.members)].min(axis=1)
        return np.unique(mins), mins


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a sorted member list."""

    def __init__(self, parent: FiniteGroup, members):
        self.parent = parent
        self.members: tuple[int, ...] = tuple(sorted(set(int(m) for m in members)))
        self._position = {m: i for i, m in enumerate(self.members)}
        self._as_group: FiniteGroup | None = None
        self._normal: bool | None = None
        # id(cocycle) -> (cocycle, its restriction here), kept by Cocycle.restrict
        self._restrictions: dict = {}
        if parent.identity not in self._position:
            raise GroupValidationError("subgroup must contain the identity")
        mem = np.array(self.members)
        products = parent.mul[np.ix_(mem, mem)]
        if not np.all(np.isin(products, mem)):
            raise GroupValidationError("member set is not closed under multiplication")
        if not np.all(np.isin(parent.inv[mem], mem)):
            raise GroupValidationError("member set is not closed under inversion")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return int(x) in self._position

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and other.parent is self.parent
            and other.members == self.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={len(self.members)}, members={list(self.members)})"

    def position(self, parent_index: int) -> int:
        """Index of a parent element inside this subgroup's own numbering."""
        return self._position[int(parent_index)]

    def index(self) -> int:
        return self.parent.order // len(self.members)

    def is_normal(self) -> bool:
        if self._normal is None:
            g = self.parent
            mem = np.array(self.members)
            inside = np.zeros(g.order, dtype=bool)
            inside[mem] = True
            conjugates = g.mul[g.mul[:, mem], g.inv[:, None]]   # [x, h] = x h x^-1
            self._normal = bool(inside[conjugates].all())
        return self._normal

    def is_abelian(self) -> bool:
        mem = np.array(self.members)
        table = self.parent.mul[np.ix_(mem, mem)]
        return bool(np.array_equal(table, table.T))

    def as_group(self) -> FiniteGroup:
        """The subgroup relabeled as a standalone group on 0..|H|-1.

        Element i of the result is self.members[i]; the member order is
        preserved so phase tables restricted through this map stay aligned.
        """
        if self._as_group is None:
            mem = np.array(self.members)
            n = len(mem)
            lookup = np.full(self.parent.order, -1, dtype=np.int64)
            lookup[mem] = np.arange(n)
            mul = lookup[self.parent.mul[np.ix_(mem, mem)]]
            identity = int(lookup[self.parent.identity])
            inv = lookup[self.parent.inv[mem]]
            names = [self.parent.name_of(m) for m in self.members]
            self._as_group = FiniteGroup(
                n, mul, identity, inv,
                label=f"{self.parent.label}>sub{n}", element_names=names,
            )
        return self._as_group


# -- constructors ------------------------------------------------------------


def _check_table_size(order: int) -> None:
    """Refuse, before any allocation, an order whose table exceeds the cap."""
    nbytes = order * order * np.dtype(np.int64).itemsize
    if nbytes > _MAX_TABLE_BYTES:
        raise ValueError(
            f"a group of order {order} needs a {nbytes / 2**20:.0f} MiB multiplication "
            f"table, over the {_MAX_TABLE_BYTES // 2**20} MiB cap"
        )


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n >= 1, element k standing for g^k."""
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    _check_table_size(n)
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    inv = (-idx) % n
    names = ["1"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return FiniteGroup(n, mul, 0, inv, label=f"C{n}", element_names=names)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (n >= 2): b^k a^l with a^n = b^2 = 1, bab = a^-1.

    Element index is k*n + l for k in {0,1}, l in 0..n-1.
    """
    if n < 2:
        raise ValueError("dihedral group needs n >= 2")
    _check_table_size(2 * n)
    k, l = np.divmod(np.arange(2 * n), n)
    # b^k1 a^l1 b^k2 a^l2 = b^(k1+k2) a^(+-l1 + l2), the sign flipped by b^k2
    mul = (k[:, None] + k[None, :]) % 2 * n + (l[:, None] * (1 - 2 * k[None, :]) + l[None, :]) % n
    names = []
    for k in range(2):
        for l in range(n):
            a_part = "" if l == 0 else ("a" if l == 1 else f"a^{l}")
            if k == 0:
                names.append(a_part or "1")
            else:
                names.append(("b " + a_part).strip())
    return group_from_mul_table(mul, label=f"D{n}", element_names=names)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product; element (x, y) has index x*|G2| + y."""
    n1, n2 = g1.order, g2.order
    _check_table_size(n1 * n2)
    x1, y1 = np.divmod(np.arange(n1 * n2), n2)
    mul = g1.mul[np.ix_(x1, x1)] * n2 + g2.mul[np.ix_(y1, y1)]
    identity = g1.identity * n2 + g2.identity
    inv = g1.inv[x1] * n2 + g2.inv[y1]
    names = [f"({g1.name_of(x)}|{g2.name_of(y)})" for x, y in zip(x1, y1)]
    return FiniteGroup(
        n1 * n2, mul, int(identity), inv,
        label=f"{g1.label}x{g2.label}", element_names=names,
    )


def inversion_semidirect(n: int) -> FiniteGroup:
    """(Z_n x Z_n) : Z_2 with the flip inverting both coordinates, n odd >= 3.

    Element (a, b, c) has index (a*n + b)*2 + c; the c = 1 flip sends
    (a, b) to (-a, -b).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("inversion semidirect product needs odd n >= 3")
    order = 2 * n * n
    _check_table_size(order)
    idx = np.arange(order)
    a, b, c = idx // (2 * n), (idx // 2) % n, idx % 2
    sign = (1 - 2 * c)[:, None]
    mul = (
        ((a[:, None] + sign * a) % n * n + (b[:, None] + sign * b) % n) * 2
        + (c[:, None] + c) % 2
    )
    names = [f"({x // (2 * n)},{(x // 2) % n},{x % 2})" for x in range(order)]
    return group_from_mul_table(mul, label=f"(C{n}xC{n}):C2", element_names=names)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n <= 6 letters; elements are permutations in
    lexicographic one-line order, product s*t meaning "apply t, then s"."""
    if not 1 <= n <= 6:
        raise ValueError("symmetric group supported for 1 <= n <= 6")
    _check_table_size(math.factorial(n))
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    # a permutation's one-line digits in base n; lexicographic order makes
    # these codes increasing, so searchsorted maps a code to its index
    codes = np.zeros(len(perms), dtype=np.int64)
    product_codes = np.zeros((len(perms), len(perms)), dtype=np.int64)
    for k in range(n):
        codes = codes * n + perms[:, k]
        product_codes = product_codes * n + perms[:, perms[:, k]]   # [i, j]: s_i(t_j(k))
    mul = np.searchsorted(codes, product_codes)
    names = ["".join(str(v + 1) for v in p) for p in perms.tolist()]
    return group_from_mul_table(mul, label=f"S{n}", element_names=names)


def permutation_semidirect(base: FiniteGroup, n: int) -> FiniteGroup:
    """Wreath-type product base^n : S_n, S_n permuting the n coordinates.

    Element ((x_1..x_n), t) has index (sum_i x_i * |B|^(n-i)) * n! + t_idx.
    Group law: ((x), s) * ((y), t) = ((x_j * y_{s^-1(j)})_j, s*t).
    """
    b = base.order
    order = b**n * math.factorial(n)
    _check_table_size(order)
    sym = symmetric(n)
    weights = b ** np.arange(n - 1, -1, -1)
    digits = np.arange(b**n)[:, None] // weights % b            # [v, j] = x_j of tuple v
    s_inv = np.argsort(np.array(list(itertools.permutations(range(n)))), axis=1)
    permuted = digits[:, s_inv].transpose(1, 0, 2)              # [s, w, j] = y_{s^-1(j)}
    prod_digits = base.mul[digits[:, None, None, :], permuted[None]]  # [v, s, w, j]
    pv = prod_digits @ weights
    mul = (pv[..., None] * sym.order + sym.mul[None, :, None, :]).reshape(order, order)
    vec_names = [",".join(base.name_of(v) for v in row) for row in digits.tolist()]
    names = [f"({vec_names[x // sym.order]};{sym.name_of(x % sym.order)})" for x in range(order)]
    return group_from_mul_table(mul, label=f"{base.label}^{n}:S{n}", element_names=names)


def group_from_mul_table(mul, label: str = "G", element_names: list[str] | None = None) -> FiniteGroup:
    """Build a group from a bare table, locating identity and inverses."""
    mul = np.asarray(mul, dtype=np.int64)
    n = mul.shape[0]
    idx = np.arange(n)
    identity = None
    for e in range(n):
        if np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx):
            identity = e
            break
    if identity is None:
        raise GroupValidationError("table has no identity element")
    inv = np.zeros(n, dtype=np.int64)
    for x in range(n):
        hits = np.where(mul[x] == identity)[0]
        if len(hits) != 1 or mul[hits[0], x] != identity:
            raise GroupValidationError("table has no two-sided inverse for some element")
        inv[x] = hits[0]
    return FiniteGroup(n, mul, identity, inv, label=label, element_names=element_names)


def _extend_closure(members: list[int], mask: int, cols: list[list[int]]) -> int:
    """Close a member list under right multiplication by every column in cols.

    members, with bitmask mask, must already be closed under all columns but
    the last.  members is extended in place and the new bitmask is returned.
    """
    last = cols[-1]
    frontier = []
    for h in members:
        y = last[h]
        if not mask >> y & 1:
            mask |= 1 << y
            frontier.append(y)
    members.extend(frontier)
    while frontier:
        x = frontier.pop()
        for col in cols:
            y = col[x]
            if not mask >> y & 1:
                mask |= 1 << y
                members.append(y)
                frontier.append(y)
    return mask


def _is_prime(k: int) -> bool:
    return k > 1 and all(k % d for d in range(2, int(k**0.5) + 1))

