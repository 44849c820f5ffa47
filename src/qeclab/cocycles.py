"""Exact unit-circle phases, 2-cocycles, and coboundary solving.

Phases are rationals q with 0 <= q < 1 standing for exp(2*pi*i*q), so all
cocycle identities are checked with integer arithmetic, never floats.  A
cocycle on a group of order n is stored as an n x n numerator table over a
single common denominator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _tol
from .groups import FiniteGroup, Subgroup

__all__ = [
    "Phase",
    "PhaseSnapError",
    "snap_phase",
    "Cocycle",
    "PhaseFunction",
    "coboundary",
    "find_trivializing_phase",
]


class PhaseSnapError(ValueError):
    """A complex number could not be matched to a rational phase."""


_EXACT_QUARTER_TURNS = {
    (0, 1): 1 + 0j,
    (1, 2): -1 + 0j,
    (1, 4): 1j,
    (3, 4): -1j,
}


@dataclass(frozen=True)
class Phase:
    """exp(2*pi*i * num/den) with num/den reduced and 0 <= num < den."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        g = math.gcd(self.num % self.den, self.den)
        object.__setattr__(self, "num", (self.num % self.den) // g)
        object.__setattr__(self, "den", self.den // g)

    @classmethod
    def one(cls) -> "Phase":
        return cls(0, 1)

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Phase":
        q = q % 1
        return cls(q.numerator, q.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase.from_fraction(self.as_fraction() + other.as_fraction())

    def __pow__(self, k: int) -> "Phase":
        return Phase.from_fraction(k * self.as_fraction())

    def inverse(self) -> "Phase":
        return Phase(-self.num, self.den) if self.num else Phase(0, 1)

    def to_complex(self) -> complex:
        # quarter turns are exact floats; using them keeps integer-valued
        # matrix products and characters bit-exact
        exact = _EXACT_QUARTER_TURNS.get((self.num, self.den))
        if exact is not None:
            return exact
        return cmath.exp(2j * cmath.pi * self.num / self.den)

    def __repr__(self) -> str:
        return f"Phase({self.num}/{self.den})"


def snap_phase(z: complex, max_den: int) -> Phase:
    """Match a unimodular complex number to an exact rational phase.

    Raises PhaseSnapError when |z| is not within _tol.SCAN of 1, or z/|z| is
    not within _tol.EXACT of exp(2*pi*i*p/q) for any q <= max_den.
    """
    if abs(abs(z) - 1.0) > _tol.SCAN:
        raise PhaseSnapError(f"|z| = {abs(z)} is not 1")
    angle = Fraction(cmath.phase(z) / (2 * math.pi)).limit_denominator(max_den)
    candidate = Phase.from_fraction(angle)
    if abs(candidate.to_complex() - z / abs(z)) > _tol.EXACT:
        raise PhaseSnapError(f"{z} is {abs(candidate.to_complex() - z)} away from nearest phase")
    return candidate


def snap_phase_or_none(z: complex, max_den: int) -> Phase | None:
    try:
        return snap_phase(z, max_den)
    except PhaseSnapError:
        return None


class Cocycle:
    """A function G x G -> T with all values rational phases.

    Stored as an integer numerator table over one common denominator, kept
    canonical (the denominator is minimal).  The defining identity
    s(x,y)s(xy,z) = s(x,yz)s(y,z) is checked by verify().
    """

    def __init__(self, group: FiniteGroup, num, den: int):
        self.group = group
        num = np.asarray(num, dtype=np.int64) % den
        g = math.gcd(int(np.gcd.reduce(num, axis=None)), den)
        self.den = den // g
        self.num = num // g
        if self.num.shape != (group.order, group.order):
            raise ValueError("cocycle table has wrong shape")

    @classmethod
    def trivial(cls, group: FiniteGroup) -> "Cocycle":
        return cls(group, np.zeros((group.order, group.order), dtype=np.int64), 1)

    @classmethod
    def from_phases(cls, group: FiniteGroup, table: list[list[Phase]]) -> "Cocycle":
        den = math.lcm(*(p.den for row in table for p in row))
        num = np.array([[p.num * (den // p.den) for p in row] for row in table], dtype=np.int64)
        return cls(group, num, den)

    def phase(self, x: int, y: int) -> Phase:
        return Phase(int(self.num[x, y]), self.den)

    def to_complex_table(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.num / self.den)

    def is_trivial(self) -> bool:
        return self.den == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cocycle)
            and self.group.order == other.group.order
            and self.den == other.den
            and np.array_equal(self.num, other.num)
        )

    def __repr__(self) -> str:
        return f"Cocycle(order={self.group.order}, den={self.den})"

    def find_violation(self) -> tuple[int, int, int] | None:
        """First (x, y, z) breaking the cocycle identity, or None."""
        mul = self.group.mul
        n = self.group.order
        s = self.num
        for x in range(n):
            left = s[x][:, None] + s[mul[x], :]          # s(x,y) + s(xy,z)
            right = s[x][mul] + s                        # s(x,yz) + s(y,z)
            bad = np.argwhere((left - right) % self.den != 0)
            if len(bad):
                y, z = map(int, bad[0])
                return x, y, z
        return None

    def verify(self) -> bool:
        """Whether the cocycle identity holds for every (x, y, z).

        Only z in the group's greedy generators is checked, in O(n^2 r).
        This is conclusive, by Light's argument in the twisted group
        algebra (e_x e_y = s(x,y) e_xy): the identity at (x, y, z) says
        (e_x e_y) e_z = e_x (e_y e_z), and the z for which it holds for
        all x, y are closed under products, so they are the whole group
        once they contain a generating set.
        """
        mul = self.group.mul
        s = self.num
        for z in self.group.greedy_generators():
            left = s + s[:, z][mul]                      # s(x,y) + s(xy,z)
            right = s[:, mul[:, z]] + s[:, z]            # s(x,yz) + s(y,z)
            if np.any((left - right) % self.den):
                return False
        return True

    def multiply(self, other: "Cocycle") -> "Cocycle":
        if other.group.order != self.group.order:
            raise ValueError("cocycles live on groups of different order")
        den = math.lcm(self.den, other.den)
        num = self.num * (den // self.den) + other.num * (den // other.den)
        return Cocycle(self.group, num, den)

    def conjugate(self) -> "Cocycle":
        return Cocycle(self.group, (-self.num) % self.den, self.den)

    def restrict(self, sub: Subgroup) -> "Cocycle":
        """Restriction to a subgroup, indexed by the subgroup's own numbering."""
        mem = np.array(sub.members)
        return Cocycle(sub.as_group(), self.num[np.ix_(mem, mem)], self.den)

    def to_json(self) -> dict:
        table = [
            [[self.phase(x, y).num, self.phase(x, y).den] for y in range(self.group.order)]
            for x in range(self.group.order)
        ]
        return {"order": self.group.order, "table": table}

    @classmethod
    def from_json(cls, group: FiniteGroup, data: dict) -> "Cocycle":
        table = [[Phase(int(p[0]), int(p[1])) for p in row] for row in data["table"]]
        return cls.from_phases(group, table)


class PhaseFunction:
    """A phase-valued function on a subgroup.

    Values are exact rational phases whenever possible; entries that failed
    exact snapping are kept as floats and flagged, so downstream numerics
    still work while exact operations refuse them.
    """

    def __init__(self, domain: Subgroup, phases: list[Phase | None], floats=None):
        self.domain = domain
        self.phases: tuple[Phase | None, ...] = tuple(phases)
        if len(self.phases) != len(domain):
            raise ValueError("value count does not match subgroup order")
        if floats is None:
            if any(p is None for p in self.phases):
                raise ValueError("inexact entries need explicit float values")
            floats = np.array([p.to_complex() for p in self.phases])
        self.values = np.asarray(floats, dtype=complex)

    @classmethod
    def constant_one(cls, domain: Subgroup) -> "PhaseFunction":
        return cls(domain, [Phase.one()] * len(domain))

    @classmethod
    def exact(cls, domain: Subgroup, phases: list[Phase]) -> "PhaseFunction":
        return cls(domain, list(phases))

    @classmethod
    def from_complex(cls, domain: Subgroup, values, max_den: int) -> "PhaseFunction":
        values = np.asarray(values, dtype=complex)
        phases = [snap_phase_or_none(z, max_den) for z in values]
        return cls(domain, phases, values)

    @property
    def is_exact(self) -> bool:
        return all(p is not None for p in self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    def value_at(self, parent_index: int) -> complex:
        return complex(self.values[self.domain.position(parent_index)])

    def multiply(self, other: "PhaseFunction") -> "PhaseFunction":
        if other.domain.members != self.domain.members:
            raise ValueError("phase functions on different domains")
        phases = [
            None if (p is None or q is None) else p * q
            for p, q in zip(self.phases, other.phases)
        ]
        return PhaseFunction(self.domain, phases, self.values * other.values)

    def conjugate(self) -> "PhaseFunction":
        phases = [None if p is None else p.inverse() for p in self.phases]
        return PhaseFunction(self.domain, phases, np.conj(self.values))

    def to_json(self) -> dict:
        out = {}
        for i, member in enumerate(self.domain.members):
            p = self.phases[i]
            if p is not None:
                out[str(member)] = [p.num, p.den]
            else:
                out[str(member)] = {"re": self.values[i].real, "im": self.values[i].imag}
        return out

    @classmethod
    def from_json(cls, domain: Subgroup, data: dict) -> "PhaseFunction":
        phases: list[Phase | None] = []
        floats = []
        for member in domain.members:
            raw = data[str(member)]
            if isinstance(raw, dict):
                phases.append(None)
                floats.append(complex(raw["re"], raw["im"]))
            else:
                p = Phase(int(raw[0]), int(raw[1]))
                phases.append(p)
                floats.append(p.to_complex())
        return cls(domain, phases, np.array(floats))

    def __repr__(self) -> str:
        return f"PhaseFunction(order={len(self)}, exact={self.is_exact})"


def coboundary(f: PhaseFunction) -> Cocycle:
    """(df)(x, y) = f(x) f(y) conj(f(xy)), a cocycle on the domain subgroup."""
    if not f.is_exact:
        raise ValueError("coboundary needs exact phase values")
    den = math.lcm(*(p.den for p in f.phases))
    num = np.array([p.num * (den // p.den) for p in f.phases], dtype=np.int64)
    group = f.domain.as_group()
    table = (num[:, None] + num[None, :] - num[group.mul]) % den
    return Cocycle(group, table, den)


def _greedy_generators(group: FiniteGroup) -> list[int]:
    """FiniteGroup.greedy_generators, under the name codes and search import."""
    return group.greedy_generators()


def _solve_mod(rows: list[list[int]], rhs: list[int], modulus: int) -> list[int] | None:
    """One solution u of rows . u == rhs (mod modulus), or None.

    Diagonalizes the coefficient matrix with integer row and column
    operations (a Smith-style reduction); column operations are accumulated
    so the solution can be mapped back.  Exact Python integers throughout.
    """
    k = len(rows)
    r = len(rows[0]) if k else 0
    a = [list(row) for row in rows]
    b = list(rhs)
    v = [[int(i == j) for j in range(r)] for i in range(r)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        b[i], b[j] = b[j], b[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        for t in range(r):
            a[dst][t] += c * a[src][t]
        b[dst] += c * b[src]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    p = 0
    while p < min(k, r):
        # pick the smallest nonzero entry of the remaining block as pivot
        best = None
        for i in range(p, k):
            for j in range(p, r):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(p, best[0])
        swap_cols(p, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(p + 1, k):
                if a[i][p]:
                    q = a[i][p] // a[p][p]
                    add_row(p, i, -q)
                    if a[i][p]:
                        swap_rows(p, i)
                        dirty = True
            for j in range(p + 1, r):
                if a[p][j]:
                    q = a[p][j] // a[p][p]
                    add_col(p, j, -q)
                    if a[p][j]:
                        swap_cols(p, j)
                        dirty = True
        p += 1

    y = [0] * r
    for i in range(k):
        pivot = a[i][i] if i < r else 0
        target = b[i] % modulus
        if i >= p or pivot == 0:
            if target % modulus != 0:
                return None
            continue
        g = math.gcd(pivot, modulus)
        if target % g != 0:
            return None
        reduced_mod = modulus // g
        y[i] = (target // g) * pow(pivot // g, -1, reduced_mod) % reduced_mod
    # rows below the diagonal block must also vanish
    for i in range(p, k):
        total = sum(a[i][j] * y[j] for j in range(r)) - b[i]
        if total % modulus != 0:
            return None
    return [sum(v[i][j] * y[j] for j in range(r)) % modulus for i in range(r)]


def find_trivializing_phase(
    sigma: Cocycle,
    domain: Subgroup | None = None,
) -> PhaseFunction | None:
    """A phase function f with (df) = sigma, or None when none exists.

    A trivializer valued in C_m (m the cocycle denominator) need not exist
    even when one valued in finer roots of unity does, so denominators k*m
    are searched for k = 1, 2 and then k = exp(H), the group exponent.  The
    last step is conclusive: df = sigma forces f^m to be a character, so any
    trivializer is automatically valued in C_(m*exponent).  The first
    multiple that admits a solution gives the result.

    With f(e) = sigma(e, e) and one unknown per greedy generator g, df =
    sigma is imposed on the n*r Cayley edges (x, g) only.  For a cocycle
    sigma that suffices: c = sigma - df is a cocycle with c(x, g) = 0, so
    c(x, yg) = c(x, y) and c(x, e) = c(e, e) = f(e) - f(e) = 0 make c
    vanish.  A table that is not a cocycle has no trivializer: None.
    """
    group = sigma.group
    if domain is not None and len(domain) != group.order:
        raise ValueError("domain size does not match the cocycle's group")
    if not sigma.verify():
        return None
    result_domain = domain if domain is not None else group.full_subgroup()
    n = group.order
    mul = group.mul
    gens = _greedy_generators(group)
    r = len(gens)
    exponent = group.exponent()
    multiples = [k for k in (1, 2) if k <= exponent]
    if exponent > 2:
        multiples.append(exponent)

    for k in multiples:
        modulus = k * sigma.den
        t = (sigma.num * k) % modulus
        coeff = np.zeros((n, r), dtype=np.int64)
        const = np.zeros(n, dtype=np.int64)
        known = np.zeros(n, dtype=bool)
        e = group.identity
        known[e] = True
        const[e] = t[e, e]            # df(1,1) = f(1) pins the identity value
        for i, g in enumerate(gens):
            if not known[g]:
                known[g] = True
                coeff[g, i] = 1
        queue = [e] + [g for g in gens]
        while queue:
            x = queue.pop()
            for g in gens:
                y = int(mul[x, g])
                if not known[y]:
                    known[y] = True
                    coeff[y] = coeff[x] + coeff[g]
                    const[y] = const[x] + const[g] - t[x, g]
                    queue.append(y)
        if not known.all():
            raise RuntimeError("generator walk failed to cover the group")

        # f(x) + f(g) - f(xg) = t(x, g) on every Cayley edge
        ends = mul[:, gens]
        cx = coeff[:, None, :] + coeff[gens][None, :, :] - coeff[ends]
        dv = t[:, gens] - const[:, None] - const[gens][None, :] + const[ends]
        system = np.concatenate(
            [cx.reshape(n * r, r) % modulus, dv.reshape(n * r, 1) % modulus], axis=1
        )
        system = np.unique(system, axis=0)
        rows = [list(map(int, row[:r])) for row in system]
        rhs = [int(row[r]) for row in system]
        u = _solve_mod(rows, rhs, modulus)
        if u is None:
            continue
        nums = (coeff @ np.array(u, dtype=np.int64) + const) % modulus
        f = PhaseFunction.exact(
            result_domain, [Phase(int(v), modulus) for v in nums]
        )
        if coboundary(f) != Cocycle(group, sigma.num * k, modulus):
            raise RuntimeError("solver produced a non-trivializing phase function")
        return f
    return None
