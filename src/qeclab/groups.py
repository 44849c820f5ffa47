"""Finite groups as explicit multiplication tables.

Elements of a group of order n are the integers 0..n-1.  The whole module
works with dense numpy index tables, which keeps every construction exact
and makes subgroup/coset computations plain integer array manipulation.

Every subgroup the library builds is interned: a FiniteGroup keeps one
private table from sorted member tuple to Subgroup, and all_subgroups,
subgroup, trivial_subgroup, full_subgroup, subgroup_generated, center
(and the logical groups, stabilizers and inertia groups of codes and
projreps) return the table's object.  A member set missing from the table
is validated by the public constructor Subgroup(parent, members), or built
unchecked where its caller proves it a subgroup (Subgroup._from_valid
names the proofs), and is stored only once that succeeds, so a set that
fails is never cached.  A Subgroup never changes its parent or members,
so a check made once holds for every later lookup, and its as_group(),
built when first asked for and not validated again (Subgroup.as_group
proves the axioms), is shared by every caller of that member set.  The
public constructors, FiniteGroup(...) and group_from_mul_table, validate
every table they are given, and the public Subgroup constructor is not
interned and always validates.

Each FiniteGroup also keeps one walk of its right Cayley graph over
greedy_generators(), built on first use: the generators, the edge ends
x * c for c in [identity, *gens], and one depth-first spanning tree, which
fixes the trivializer's particular solution.  The tree is stored by
element (each one's parent, step and depth) and read one way, as sums of
edge values down each element's tree path.  Group validation,
Cocycle.verify, the trivializer, the linear characters, make_rep's
cocycle fill and ProjectiveRep's edge check all read the walk.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._linalg import _blocks

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


class TableSizeError(ValueError):
    """Raised, before any allocation, for an order whose multiplication
    table exceeds the size cap."""


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
    _walk: "_CayleyWalk | None" = field(default=None, init=False, repr=False)
    _exponent: int | None = field(default=None, init=False, repr=False)
    _lattice_members: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.mul = np.asarray(self.mul, dtype=np.int64)
        self.inv = np.asarray(self.inv, dtype=np.int64)
        if self.mul.shape != (self.order, self.order):
            raise GroupValidationError("multiplication table has wrong shape")
        if self.element_names is not None and len(self.element_names) != self.order:
            raise GroupValidationError("element_names length mismatch")
        self._validate()

    @classmethod
    def _from_valid_table(
        cls, order: int, mul: np.ndarray, identity: int, inv: np.ndarray,
        label: str, element_names: list[str] | None,
    ) -> "FiniteGroup":
        """A group on int64 tables already known to satisfy the axioms,
        built without _validate.  Its two callers hold the proofs:
        Subgroup.as_group cuts a validated table, and direct_product takes
        the componentwise product of two validated tables."""
        group = cls.__new__(cls)
        group.order, group.mul, group.identity, group.inv = order, mul, identity, inv
        group.label, group.element_names = label, element_names
        group._interned = {}   # the other caches default to None on the class
        return group

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
        # associative.  Rows x run in blocks of table rows.
        for g in self.greedy_generators():
            for x in _blocks(n, n):
                if not np.array_equal(mul[mul[x, g]], mul[x][:, mul[g]]):
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
        return list(self._cayley_walk().gens)

    def _cayley_walk(self) -> "_CayleyWalk":
        """The walk of the right Cayley graph over the greedy generators,
        built once per group.  It needs only an in-range table with an
        identity, like _closure, so _validate can read it."""
        if self._walk is None:
            gens = self._closure(range(self.order))[1]
            cols = np.array([self.identity, *gens], dtype=np.int64)
            self._walk = _CayleyWalk(self.mul, gens, cols)
        return self._walk

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
        """The least common multiple of the element orders, computed once per group."""
        if self._exponent is None:
            self._exponent = math.lcm(*(self.element_order(x) for x in range(self.order)))
        return self._exponent

    def conjugate(self, x: int, y: int) -> int:
        """x * y * x^-1."""
        return self.mul[self.mul[x, y], self.inv[x]]

    # -- subgroups ---------------------------------------------------------

    def _intern(self, members, valid: bool = False) -> "Subgroup":
        """The interned Subgroup on a member set, validated on first use.

        A tuple is looked up as it is first: the table's keys are sorted
        tuples of distinct ints, so a tuple equal to one is that member set.
        Callers holding sorted indices pass tuple(indices.tolist()).  valid
        says that members is such a tuple and a subgroup by construction,
        so a first use builds it with no check (Subgroup._from_valid, whose
        docstring names the callers and their proofs)."""
        sub = self._interned.get(members) if isinstance(members, tuple) else None
        if sub is None and valid:
            sub = self._interned[members] = Subgroup._from_valid(self, members)
        elif sub is None:
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
        x is the same as adjoining <x> (Neubueser, Numer. Math. 2, 1960).

        Once K = <H, x> is closed, the representatives that would close to K
        again are covered and skipped for this H.  Take h in H and g with
        <g> = <x>, and y = h*g.  Then <H, y> contains h^-1 * y = g, and
        <H, g> contains h * g = y, so <H, y> = <H, g> = <H, x> = K; the
        representative r of <y> has <r> = <y>, so <H, r> = K as well.  When
        |K : H| is prime, every y in K outside H gives <H, y> = K, since
        |<H, y> : H| > 1 divides |K : H| = |K : <H, y>| |<H, y> : H|, so all
        of K is covered.  A skipped representative would only find K again,
        so the subgroups found are those of the unpruned extension.

        When x normalizes H, that is when x g x^-1 lies in H for each
        generator g adjoined to reach H (then x H x^-1 <= H, and equality
        holds by counting), K = <H, x> is closed under x's column alone.  In
        an abelian G every x does.  Then H<x> is a subgroup, so K = H<x> is
        the union of the cosets H x^k, k < m, for m the least k >= 1 with
        x^k in H (H x^m = H, so later powers repeat these cosets).  These m
        cosets are distinct: H x^i = H x^j with i < j < m would put x^(j-i)
        in H, with 0 < j - i < m.  Closing H under right multiplication by x
        reaches exactly this union, so H's own generator columns are not
        needed.  Any other x is closed under H's generators plus x.

        Subgroups are kept as int bitmasks of their members.  Guarded by the
        order cap since subgroup counts grow quickly.  The result is sorted by
        (order, members), and every subgroup in it is interned.

        Given bad, bad[x] the int bitmask of the y that commute with x with
        beta(x, y) = sigma(x, y) / sigma(y, x) != 1 for a cocycle sigma
        (cocycles._pairing_defects), _lattice lists only the subgroups with
        no such pair.  That family is closed under taking subgroups, and each
        member K != 1 is <H, x> for a member H < K, so an extension that
        enqueues members only reaches them all; a covered x only rebuilds a K
        already closed from H.  On abelian G, beta is bimultiplicative with
        beta(x, x) = 1, so <H, x> is a member exactly when x pairs trivially
        with H, and any other x is skipped unclosed.  On other G each K is
        closed, kept in found, and enqueued when no member's mask meets K.
        """
        cap = max_order if max_order is not None else max_group_order()
        if self.order > cap:
            raise ValueError(
                f"subgroup enumeration capped at order {cap} (group has {self.order}); "
                "raise QECLAB_MAX_ORDER to override"
            )
        return [self._intern(members, valid=True) for members in self._lattice()]

    def _lattice(self, bad=None) -> list[tuple[int, ...]]:
        """The sorted member tuples of all_subgroups, built once per group;
        given bad, those of the subgroups with no defective pair (see
        all_subgroups), built afresh and not kept.  No order cap is checked
        here: all_subgroups checks its own, and search checks the search
        caps (search._check_caps) before it builds a lattice."""
        if bad is None and self._lattice_members is not None:
            return self._lattice_members
        e = self.identity
        columns = self.mul.T.tolist()   # columns[g][y] = y * g
        # one representative x per cyclic subgroup, the least index, with the
        # generators of <x>: x^k for k prime to the order of x
        rep_of = [-1] * self.order
        reps: list[tuple[int, list[int], list[int]]] = []
        for x, col in enumerate(columns):
            if rep_of[x] >= 0:
                continue
            powers, y = [], x
            while y != e:
                powers.append(y)
                y = col[y]
            gens = [p for k, p in enumerate(powers, 1) if math.gcd(k, len(powers) + 1) == 1]
            for g in gens or [e]:
                rep_of[g] = x
            reps.append((x, col, gens))
        inv, abelian = self.inv.tolist(), self.is_abelian()
        found = {1 << e}
        # (members, mask, the generators adjoined to reach H)
        queue = [([e], 1 << e, [])]
        for members, mask, adjoined in queue:   # grows while iterated: breadth first
            # the representatives whose extension of H is a K already built
            # from H (see all_subgroups)
            covered = mask
            for x, col, gens in reps:
                if covered >> x & 1 or abelian and bad and bad[x] & mask:
                    continue
                ext_members = list(members)
                # x normalizes H (x g x^-1 in H for each adjoined g): K = H<x>
                # is closed under x's column alone
                if abelian or all(mask >> columns[inv[x]][columns[g][x]] & 1 for g in adjoined):
                    ext_cols = [col]
                else:
                    ext_cols = [columns[g] for g in adjoined] + [col]
                ext_mask = _extend_closure(ext_members, mask, ext_cols)
                if _is_prime(len(ext_members) // len(members)):
                    covered |= ext_mask
                else:
                    for g in gens:
                        g_col = columns[g]
                        for h in members:
                            covered |= 1 << rep_of[g_col[h]]
                if ext_mask not in found:
                    found.add(ext_mask)
                    if abelian or not (bad and any(bad[k] & ext_mask for k in ext_members)):
                        queue.append((ext_members, ext_mask, adjoined + [x]))
        lattice = [tuple(sorted(members)) for members, _, _ in queue]
        lattice.sort(key=lambda m: (len(m), m))
        if bad is None:
            self._lattice_members = lattice
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
        the minimal element of the coset of each x: x is the least of its
        coset exactly when mins[x] = x."""
        mins = self.mul[:, list(sub.members)].min(axis=1)
        return np.flatnonzero(mins == np.arange(self.order)), mins


@dataclass(frozen=True, eq=False)
class _CayleyWalk:
    """One walk of a group's right Cayley graph: the greedy generators gens,
    cols = [identity, *gens], and a depth-first spanning tree stored by
    element, which every reader takes through path_sums.  ends and tree
    are built on first use: a group that only reads gens keeps no more.
    """

    mul: np.ndarray
    gens: list[int]
    cols: np.ndarray

    @functools.cached_property
    def ends(self) -> np.ndarray:
        """ends[x, j] = x * cols[j]: each row holds the ends of the Cayley
        edges (x, c), c in cols."""
        return self.mul[:, self.cols]

    @functools.cached_property
    def tree(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(parent, step, depth), each indexed by element: y is
        parent[y] * step[y], with step[y] a generator, depth[y] edges from
        the identity, whose parent and step are -1."""
        return _depth_first_tree(self.mul, self.gens, int(self.cols[0]))

    @functools.cached_property
    def length(self) -> int:
        """The greatest tree depth L, the longest word along a tree path."""
        return int(self.tree[2].max())

    def path_sums(self, edge_values: np.ndarray) -> np.ndarray:
        """The sum of edge_values over the tree path to each element, by
        element; edge_values[y] is on the edge into y (ignored at the
        identity).  By pointer doubling: after k rounds each element holds
        the sum over its 2^k nearest edges, so ceil(log2 L) rounds reach
        every depth, where one array step per depth would take L.
        """
        e = int(self.cols[0])
        up, total = self.tree[0].copy(), edge_values.copy()
        up[e], total[e] = e, 0
        for _ in range(max(self.length - 1, 0).bit_length()):
            total += total[up]
            up = up[up]
        return total


def _depth_first_tree(mul: np.ndarray, gens: list[int], e: int):
    """_CayleyWalk.tree: from the identity, the element reached last is
    expanded, trying the generators in order, so each y is parent * step
    for the first (parent, step) reaching it."""
    rows = mul[:, gens].tolist()
    depth, parent, step = [-1] * len(rows), [-1] * len(rows), [-1] * len(rows)
    depth[e] = 0
    stack = [e]
    while stack:
        x = stack.pop()
        for g, y in zip(gens, rows[x]):
            if depth[y] < 0:
                depth[y], parent[y], step[y] = depth[x] + 1, x, g
                stack.append(y)
    return np.array(parent), np.array(step), np.array(depth)


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a sorted member list."""

    def __init__(self, parent: FiniteGroup, members):
        members = tuple(sorted(set(map(int, members))))
        if members and not 0 <= members[0] <= members[-1] < parent.order:
            raise GroupValidationError("subgroup members must be elements of the group")
        self._fill(parent, members)
        mem, inside = np.array(members, dtype=np.intp), self._inside
        if not inside[parent.identity]:
            raise GroupValidationError("subgroup must contain the identity")
        if not inside[parent.mul.take(mem, axis=0).take(mem, axis=1)].all():
            raise GroupValidationError("member set is not closed under multiplication")
        if not inside[parent.inv.take(mem)].all():
            raise GroupValidationError("member set is not closed under inversion")

    @classmethod
    def _from_valid(cls, parent: FiniteGroup, members: tuple[int, ...]) -> "Subgroup":
        """The subgroup on a sorted tuple of distinct members known to be a
        subgroup, built without __init__'s checks.  A nonempty subset of a
        finite group closed under products is a subgroup, and the callers
        hold the proofs:
        - every member set of the lattice (FiniteGroup._lattice, interned by
          all_subgroups and by search's walks) is a closure of the trivial
          subgroup under adjoined elements (_extend_closure);
        - codes._key_reports' S is a confirmed key's support, H itself or a
          set that search._maximal_witnesses tested closed in integers, and
          its L is the stabilizer {g : pi(g)W = W} of the code under the
          action of G on subspaces.
        tests/test_interning.py runs __init__'s checks on every subgroup these
        callers build on the catalog models."""
        sub = cls.__new__(cls)
        sub._fill(parent, members)
        return sub

    def _fill(self, parent: FiniteGroup, members: tuple[int, ...]) -> None:
        """Both constructors' one field setter, on sorted distinct in-range members."""
        self.parent, self.members = parent, members
        # caches built on first use: position(), as_group(), is_normal(), _core_mask()
        self._position = self._as_group = self._normal = self._core = None
        # id(cocycle) -> (cocycle, its restriction here), kept by Cocycle.restrict
        self._restrictions: dict = {}
        # the membership mask, which every check reads, as do membership
        # tests, is_normal and the codes
        self._inside = np.zeros(parent.order, dtype=bool)
        self._inside[list(members)] = True

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return 0 <= (x := int(x)) < self.parent.order and bool(self._inside[x])

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
        if self._position is None:
            self._position = {m: i for i, m in enumerate(self.members)}
        return self._position[int(parent_index)]

    def index(self) -> int:
        return self.parent.order // len(self.members)

    def is_normal(self) -> bool:
        if self._normal is None:
            self._normal = bool(self._core_mask().all())
        return self._normal

    def _core_mask(self) -> np.ndarray:
        """[i]: members[i] lies in the core of the subgroup, the largest
        normal subgroup of the parent inside it, that is every conjugate
        x h x^-1 of h = members[i] is a member.  Read once per subgroup
        (_read_cores)."""
        if self._core is None:
            _read_cores([self])
        return self._core

    def is_abelian(self) -> bool:
        mem = np.array(self.members)
        table = self.parent.mul[np.ix_(mem, mem)]
        return bool(np.array_equal(table, table.T))

    def as_group(self) -> FiniteGroup:
        """The subgroup relabeled as a standalone group on 0..|H|-1.

        Element i of the result is self.members[i]; the member order is
        preserved so phase tables restricted through this map stay aligned.

        The table is not validated again, because the axioms follow from
        what is already proved.  The parent's table satisfies them: it
        passed FiniteGroup._validate, or is itself such a cut, by induction.
        __init__ checked that the members hold the identity and are closed
        under products and inverses.  So the cut table has entries in range
        (closure), is associative because the parent's products are, and
        has the parent's identity and inverses, relabeled by the same lookup
        as its entries.
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
            self._as_group = FiniteGroup._from_valid_table(
                n, mul, identity, inv, f"{self.parent.label}>sub{n}", names
            )
        return self._as_group


def _read_cores(subs: list[Subgroup]) -> None:
    """Subgroup._core_mask of every subgroup of subs, all of one parent,
    where it is not read yet: the subgroups of each order together, from
    one gather of their members' conjugates per block (_linalg._blocks), a
    subgroup's row holding its |G| |H| conjugates."""
    todo = sorted({id(sub): sub for sub in subs if sub._core is None}.values(), key=len)
    for size, same in itertools.groupby(todo, key=len):
        same, g = list(same), todo[0].parent
        for block in (same[rows] for rows in _blocks(len(same), g.order * size)):
            conjugates = g.mul[g.mul[:, [sub.members for sub in block]], g.inv[:, None, None]]   # x h x^-1
            inside = np.array([sub._inside for sub in block])[np.arange(len(block))[:, None], conjugates]
            for sub, core in zip(block, inside.all(axis=0)):
                sub._core = core


# -- constructors ------------------------------------------------------------


def _check_table_size(order: int) -> None:
    """Refuse, before any allocation, an order whose table exceeds the cap."""
    nbytes = order * order * np.dtype(np.int64).itemsize
    if nbytes > _MAX_TABLE_BYTES:
        raise TableSizeError(
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
    """Direct product; element (x, y) has index x*|G2| + y.

    The table is not validated again.  The factors are groups: each passed
    FiniteGroup._validate or was built from such tables by Subgroup.as_group
    or here, by induction.  The componentwise product of two groups is a
    group, associative because each component is, with identity (e1, e2)
    and (x^-1, y^-1) the inverse of (x, y).
    """
    n1, n2 = g1.order, g2.order
    _check_table_size(n1 * n2)
    x1, y1 = np.divmod(np.arange(n1 * n2), n2)
    mul = g1.mul[np.ix_(x1, x1)] * n2 + g2.mul[np.ix_(y1, y1)]
    identity = g1.identity * n2 + g2.identity
    inv = g1.inv[x1] * n2 + g2.inv[y1]
    names = [f"({g1.name_of(x)}|{g2.name_of(y)})" for x, y in zip(x1, y1)]
    return FiniteGroup._from_valid_table(
        n1 * n2, mul, int(identity), inv, f"{g1.label}x{g2.label}", names
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
    """Build a group from a bare table, locating identity and inverses.

    An identity e has 0 e = 0 and e 0 = 0, so only such e are tried; the
    inverse of x is the one e in its row, read in row blocks.
    """
    mul = np.asarray(mul, dtype=np.int64)
    n = mul.shape[0]
    idx = np.arange(n)
    identity = None
    if mul.shape == (n, n) and n:
        for e in np.flatnonzero((mul[0] == 0) & (mul[:, 0] == 0)).tolist():
            if np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx):
                identity = e
                break
    if identity is None:
        raise GroupValidationError("table has no identity element")
    inv = np.empty(n, dtype=np.int64)
    for x in _blocks(n, n):
        hits = mul[x] == identity
        if not np.all(np.count_nonzero(hits, axis=1) == 1):
            raise GroupValidationError("table has no two-sided inverse for some element")
        inv[x] = hits.argmax(axis=1)
    if not np.all(mul[inv, idx] == identity):
        raise GroupValidationError("table has no two-sided inverse for some element")
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

