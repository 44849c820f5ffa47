"""Exact unit-circle phases, 2-cocycles, and coboundary solving.

Phases are rationals q with 0 <= q < 1 standing for exp(2*pi*i*q), so all
cocycle identities are checked with integer arithmetic, never floats.  A
cocycle on a group of order n is stored as an n x n numerator table over a
single common denominator.

A Cocycle does not change after construction: __init__ always builds its
own numerator array and marks it read-only, so writing into Cocycle.num
raises ValueError.  That makes two memos safe.  A successful verify() is
remembered on the object, since the table it checked is the table the
object keeps; a failing one is recomputed on every call.  restrict(sub) is
computed once per (subgroup object, cocycle object) and kept on sub, which
interned subgroups share, with the verdict of the parent's one verify
(Cocycle.restrict proves it holds).  So the restriction of a model's cocycle to a library-built
subgroup is one object, shared by its readers: the non-abelian branch of
codes._constituents, ProjectiveRep.restrict (through codes.clifford_code,
codes.stabilizer_to_clifford, projreps.frobenius_dims and
projreps.mackey_character_defect) and projreps.induce.  search's
constituent split reads pi's matrix stack and builds no restriction.

Facts that a construction already proves are read, not proved again: a
stabilizer phase is snapped from the grid its cocycle puts it on
(_snap_phases with a grid), and df = sigma is compared as integer numerators
(_is_coboundary_of), with no Cocycle built for either side.  That
comparison is made where a phase enters from outside the construction that
proves it: on a trivializer, solved for (find_trivializing_phase) or read
by cyclic extension on abelian subgroups (_cyclic_extensions, which
builds no restricted Cocycle), on a caller's f (codes.weak_stabilizer_code)
and on search's maximal witness keys.  The phases f0 chi of an enumeration
and a classified code's stabilizer phase are proved admissible instead
(codes._eigenspaces, codes._stabilizers).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _tol
from ._linalg import _blocks
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
    if not abs(abs(z) - 1.0) <= _tol.SCAN:   # NaN fails too
        raise PhaseSnapError(f"|z| = {abs(z)} is not 1")
    angle = Fraction(cmath.phase(z) / (2 * math.pi)).limit_denominator(max_den)
    candidate = Phase.from_fraction(angle)
    distance = abs(candidate.to_complex() - z / abs(z))
    if distance > _tol.EXACT:
        raise PhaseSnapError(f"{z} is {distance} away from nearest phase")
    return candidate


def snap_phase_or_none(z: complex, max_den: int) -> Phase | None:
    try:
        return snap_phase(z, max_den)
    except PhaseSnapError:
        return None


# Largest max_den for which _snap_phases snaps on arrays (see there).
_ARRAY_SNAP_MAX_DEN = 2**15


def _snap_phases(
    values, max_den: int, grid: int | None = None
) -> tuple[np.ndarray, int, np.ndarray]:
    """snap_phase on every entry of a complex array, flattened in row-major
    order, as (numerators over one denominator, that denominator, mask of
    the entries that snapped); a failed entry has numerator 0.

    An entry z is kept by array steps when max_den <= 2^15,
    ||z| - 1| < _tol.SCAN - g and |Phase(p, q).to_complex() - z/|z|| <
    _tol.EXACT - g for its candidate p/q, reduced, with q <= max_den:
    snap_phase's own two tests, with a guard g = _tol.SNAP_GUARD far above
    the last-bit differences between numpy's abs and division and Python's.
    Every other entry, failing, non-finite or within g of a tolerance, goes
    through snap_phase alone, so each verdict is snap_phase's.

    A kept p/q is snap_phase's answer.  A kept entry lies within _tol.EXACT
    of p/q on the circle, under 1.6e-10 of a turn.  Two fractions with
    denominators at most max_den lie at least 1/max_den^2 apart, 9.3e-10 of
    a turn for max_den = 2^15, over twice that.  So p/q is the fraction
    nearest the entry's angle among those with denominator at most max_den
    (up to a whole turn), which is the candidate that snap_phase's
    limit_denominator returns and then tests with the same expressions.
    How the candidate was found decides only which entries fall back,
    never a result.  make_rep, codes._stabilizers and q3_probe rely on
    this argument.

    With a grid the candidate is the nearest grid point rint(t grid)/grid
    reduced, t the entry's angle in turns.  classify and q3_probe pass
    grid = den * exp(G) for their stabilizer phases, with den the model
    cocycle's denominator.  There a scalar c(x) of a stabilizer element has
    c(x)^ord(x) equal to a product of cocycle values, the lemma of
    find_trivializing_phase's docstring, so every exact c(x) lies on that
    grid and none falls back.  With no grid (make_rep, whose edge columns
    repeat a few angles many times) the entries are grouped by their angle
    rounded to 2^-32 of a turn, and each group's candidate is p/q for the
    least q <= max_den with |q t - p| <= q _tol.EXACT/pi, p = rint(q t), t
    the angle of the group's first entry: one [groups, max_den] search in
    row blocks (_linalg._blocks).  That bound is twice a kept entry's
    distance, 1.6e-10 of a turn, and the two together stay under the
    spacing above, so when a group's first entry is kept its fraction is
    the only one to pass, and the least q finds it reduced.
    """
    z = np.asarray(values, dtype=complex).ravel()
    num = np.zeros(len(z), dtype=np.int64)
    den = np.ones(len(z), dtype=np.int64)
    mask = np.zeros(len(z), dtype=bool)
    if max_den <= _ARRAY_SNAP_MAX_DEN:
        modulus = np.abs(z)
        near = np.flatnonzero(np.abs(modulus - 1) < _tol.SCAN - _tol.SNAP_GUARD)   # not NaN
        unit = z[near] / modulus[near]
        turns = np.angle(unit) / (2 * math.pi)
        if grid is None:
            # bare np.unique imports numpy.ma; these return flags do not
            keys = np.rint(turns * 2.0**32).astype(np.int64)
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            p, q = _least_fractions(turns[first], max_den)
            p, q = p[inverse], q[inverse]
        else:
            p, q = np.rint(turns * grid).astype(np.int64), np.int64(grid)
        g = np.gcd(p, q)
        p, q = p // g % (q // g), q // g
        distance = np.abs(_phase_values(p, q) - unit)
        kept = (q <= max_den) & (distance < _tol.EXACT - _tol.SNAP_GUARD)
        at = near[kept]
        num[at], den[at], mask[at] = p[kept], q[kept], True
    for i in np.flatnonzero(~mask).tolist():
        phase = snap_phase_or_none(complex(z[i]), max_den)
        if phase is not None:
            num[i], den[i], mask[i] = phase.num, phase.den, True
    common = math.lcm(*set(den.tolist()))
    return num * (common // den), common, mask


def _least_fractions(turns: np.ndarray, max_den: int) -> tuple[np.ndarray, np.ndarray]:
    """(rint(q t), q) for each angle t in turns, q the least denominator up
    to max_den with |q t - rint(q t)| <= q _tol.EXACT/pi, or max_den + 1
    where there is none (see _snap_phases)."""
    dens = np.arange(1, max_den + 1)
    bound = dens * (_tol.EXACT / math.pi)
    q = np.empty(len(turns), dtype=np.int64)
    for rows in _blocks(len(turns), max_den):
        scaled = np.multiply.outer(turns[rows], dens)
        hits = np.abs(scaled - np.rint(scaled)) <= bound
        first = hits.argmax(axis=1)
        q[rows] = np.where(hits[np.arange(len(first)), first], first + 1, max_den + 1)
    return np.rint(turns * q).astype(np.int64), q


def _numerators(entries: Sequence[Phase | None]) -> tuple[np.ndarray, int, np.ndarray]:
    """(numerators over the least common denominator, that denominator,
    mask of the entries that are not None); a None entry has numerator 0."""
    den = math.lcm(1, *{p.den for p in entries if p is not None})
    num = np.array([0 if p is None else p.num * (den // p.den) for p in entries], dtype=np.int64)
    return num, den, np.array([p is not None for p in entries], dtype=bool)


def _reduced_pairs(num: np.ndarray, den: int) -> list:
    """Each numerator k in [0, den) as [k, den] reduced, as Phase(k, den) reduces it."""
    g = np.gcd(num, den)
    return np.stack([num // g, den // g], axis=-1).tolist()


_QUARTER_TURN_VALUES = np.array([_EXACT_QUARTER_TURNS[q] for q in ((0, 1), (1, 4), (1, 2), (3, 4))])


def _phase_values(num: np.ndarray, den: int) -> np.ndarray:
    """Phase(k, den).to_complex() for every numerator k of an array, bit for bit.

    Each k/den is reduced first, as Phase reduces it, and the angle is
    formed as Phase.to_complex forms it, (2 pi k) / den, so np.exp gives
    cmath.exp's value; the quarter turns are Phase's exact constants.
    """
    g = np.gcd(num, den)
    k, d = num // g, den // g
    values = np.exp(1j * ((2 * np.pi * k) / d))
    quarter = (4 * k) % d == 0
    values[quarter] = _QUARTER_TURN_VALUES[(4 * k[quarter]) // d[quarter]]
    return values


class Cocycle:
    """A function G x G -> T with all values rational phases.

    Stored as an integer numerator table over one common denominator, kept
    canonical (the denominator is minimal) and read-only.  The defining
    identity s(x,y)s(xy,z) = s(x,yz)s(y,z) is checked by verify().
    """

    def __init__(self, group: FiniteGroup, num, den: int):
        self.group = group
        num = np.asarray(num, dtype=np.int64) % den
        g = math.gcd(int(np.gcd.reduce(num, axis=None)), den)
        self.den = den // g
        num //= g   # num is this object's copy
        self.num = num
        self.num.flags.writeable = False
        self._verified = False
        if self.num.shape != (group.order, group.order):
            raise ValueError("cocycle table has wrong shape")

    @classmethod
    def trivial(cls, group: FiniteGroup) -> "Cocycle":
        return cls(group, np.zeros((group.order, group.order), dtype=np.int64), 1)

    @classmethod
    def from_phases(cls, group: FiniteGroup, table: list[list[Phase]]) -> "Cocycle":
        num, den, _ = _numerators([p for row in table for p in row])
        return cls(group, num.reshape(np.shape(table)), den)   # a ragged table raises as np.array does

    def phase(self, x: int, y: int) -> Phase:
        return Phase(int(self.num[x, y]), self.den)

    def to_complex_table(self) -> np.ndarray:
        return np.exp(2j * np.pi * self.num / self.den)

    def is_trivial(self) -> bool:
        return self.den == 1

    def __eq__(self, other) -> bool:
        # the table is read-only, so an object equals itself without a scan:
        # a restriction's constituents and intertwiners share its cocycle
        return other is self or (
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

        A True result is remembered: the numerator table is read-only, so
        it still holds on every later call.  The check itself is
        _identity_holds.
        """
        if not self._verified:
            self._verified = self._identity_holds()
        return self._verified

    def _identity_holds(self) -> bool:
        """The cocycle identity, checked for z in the greedy generators only.

        This is O(n^2 r) and conclusive, by Light's argument in the twisted
        group algebra (e_x e_y = s(x,y) e_xy): the identity at (x, y, z)
        says (e_x e_y) e_z = e_x (e_y e_z), and the z for which it holds for
        all x, y are closed under products, so they are the whole group
        once they contain a generating set.  Rows x run in blocks of table
        rows (_linalg._blocks).
        """
        mul = self.group.mul
        s = self.num
        for z in self.group.greedy_generators():
            for x in _blocks(len(s), len(s)):
                # s(x,y) + s(xy,z) - s(x,yz) - s(y,z)
                if np.any((s[x] + s[:, z][mul[x]] - s[x][:, mul[:, z]] - s[:, z]) % self.den):
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
        """Restriction to a subgroup, indexed by the subgroup's own numbering.

        Built once per (sub, self) and kept on sub; its group is
        sub.as_group().  It is marked verified when self verifies (one
        memoized check of self): sub.as_group()'s table is G's cut to the
        members, so the identity s(x,y)s(xy,z) = s(x,yz)s(y,z) at (x, y, z)
        in H^3 is the parent's at the same elements, and the identities on
        H^3 are a subset of those on G^3.
        """
        hit = sub._restrictions.get(id(self))
        if hit is None:
            mem = np.array(sub.members)
            hit = (self, Cocycle(sub.as_group(), self.num[np.ix_(mem, mem)], self.den))
            hit[1]._verified = self.verify()
            sub._restrictions[id(self)] = hit   # holding self keeps its id unique
        return hit[1]

    def to_json(self) -> dict:
        """Each entry as [num, den] reduced, as self.phase(x, y) reduces it."""
        return {"order": self.group.order, "table": _reduced_pairs(self.num, self.den)}

    @classmethod
    def from_json(cls, group: FiniteGroup, data: dict) -> "Cocycle":
        table = [[Phase(int(p[0]), int(p[1])) for p in row] for row in data["table"]]
        return cls.from_phases(group, table)


class PhaseFunction:
    """A phase-valued function on a subgroup.

    Stored as int64 numerators num over one denominator den, a mask
    exact_mask of the entries that are exact rational phases, and the
    complex values.  Entries that failed exact snapping keep their float
    value and are flagged (their numerator means nothing), so downstream
    numerics still work while exact operations refuse them.  phases, the
    exact entries as Phase objects and None elsewhere, is a read-only tuple
    derived on first read.  The values of an exact function built from
    phases or numerators are Phase.to_complex of each entry, bit for bit.
    """

    def __init__(self, domain: Subgroup, phases: list[Phase | None], floats=None):
        phases = tuple(phases)
        num, den, mask = _numerators(phases)
        if floats is None and not mask.all():
            raise ValueError("inexact entries need explicit float values")
        self._set(domain, num, den, mask, floats)
        self._phases = phases

    def _set(self, domain: Subgroup, num: np.ndarray, den: int, mask: np.ndarray, floats) -> PhaseFunction:
        if len(num) != len(domain):
            raise ValueError("value count does not match subgroup order")
        self.domain = domain
        self.num = num
        self.num.flags.writeable = False
        self.den = den
        self.exact_mask = mask
        self.values = _phase_values(num, den) if floats is None else np.asarray(floats, dtype=complex)
        self._phases: tuple[Phase | None, ...] | None = None
        return self

    @classmethod
    def _runs(cls, domains: list[Subgroup], num, den: int, mask=None, floats=None) -> list[PhaseFunction]:
        """The function with numerators num over den on each domain in turn,
        read from consecutive runs of num, mask and floats, one run of each
        domain's size: exact everywhere when mask is None, and valued by
        _phase_values when floats is None.  One gcd reduction serves all
        runs: each run is reduced to the least denominator of its exact
        entries.  _phase_values reduces each entry itself, so values read
        before the reduction are its values after.  One run keeps the arrays
        it is given, as no slice of them is taken: a function built alone
        holds no view of a larger array."""
        num = np.asarray(num, dtype=np.int64) % den
        mask = np.ones(len(num), dtype=bool) if mask is None else mask
        if len(domains) == 1:
            g = math.gcd(int(np.gcd.reduce(num[mask], initial=0)), den)
            return [cls.__new__(cls)._set(domains[0], num // g, den // g, mask, floats)]
        floats = _phase_values(num, den) if floats is None else floats
        sizes = [len(domain) for domain in domains]
        cuts = [0, *itertools.accumulate(sizes)]
        g = np.gcd(np.gcd.reduceat(num * mask, cuts[:-1]), den)
        num = num // np.repeat(g, sizes)
        return [cls.__new__(cls)._set(domain, num[a:b], q, mask[a:b], floats[a:b])
                for domain, a, b, q in zip(domains, cuts, cuts[1:], (den // g).tolist())]

    @classmethod
    def constant_one(cls, domain: Subgroup) -> "PhaseFunction":
        return cls(domain, [Phase.one()] * len(domain))

    @classmethod
    def exact(cls, domain: Subgroup, phases: list[Phase]) -> "PhaseFunction":
        return cls(domain, list(phases))

    @classmethod
    def from_complex(cls, domain: Subgroup, values, max_den: int) -> "PhaseFunction":
        """snap_phase on every value (see _snap_phases); entries that fail are inexact."""
        values = np.asarray(values, dtype=complex)
        return cls._runs([domain], *_snap_phases(values, max_den), values)[0]

    @property
    def phases(self) -> tuple[Phase | None, ...]:
        if self._phases is None:
            self._phases = tuple(
                Phase(k, self.den) if ok else None
                for k, ok in zip(self.num.tolist(), self.exact_mask.tolist())
            )
        return self._phases

    @property
    def is_exact(self) -> bool:
        return bool(self.exact_mask.all())

    def __len__(self) -> int:
        return len(self.num)

    def value_at(self, parent_index: int) -> complex:
        return complex(self.values[self.domain.position(parent_index)])

    def multiply(self, other: "PhaseFunction") -> "PhaseFunction":
        if other.domain.members != self.domain.members:
            raise ValueError("phase functions on different domains")
        den = math.lcm(self.den, other.den)
        num = self.num * (den // self.den) + other.num * (den // other.den)
        mask = self.exact_mask & other.exact_mask
        return PhaseFunction._runs([self.domain], num, den, mask, self.values * other.values)[0]

    def conjugate(self) -> "PhaseFunction":
        return PhaseFunction._runs(
            [self.domain], -self.num, self.den, self.exact_mask, np.conj(self.values)
        )[0]

    def to_json(self) -> dict:
        """Exact entries as reduced [num, den], as self.phases reduces them,
        and inexact ones as {"re", "im"}."""
        pairs = _reduced_pairs(self.num, self.den)
        cells = zip(self.domain.members, pairs, self.exact_mask.tolist(), self.values.tolist())
        return {str(x): pair if ok else {"re": v.real, "im": v.imag} for x, pair, ok, v in cells}

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
    num = f.num
    group = f.domain.as_group()
    table = (num[:, None] + num[None, :] - num[group.mul]) % f.den
    return Cocycle(group, table, f.den)


def _is_coboundary_of(f: PhaseFunction, sigma: Cocycle) -> bool:
    """coboundary(f) == sigma, compared as integer numerators over lcm(f.den, sigma.den).

    Cocycle equality compares canonical forms, each table reduced to its
    least denominator, so it holds exactly when the two tables agree as
    rationals mod 1.  That is what the numerators over the common
    denominator compare, both in [0, den): coboundary's table reduced mod
    den, and sigma's, which is reduced already.  Neither Cocycle is built.
    The product table is f's domain's, as coboundary reads it.
    """
    if not f.is_exact:
        raise ValueError("coboundary needs exact phase values")
    return bool(_coboundary_rows(f.num[None], f.den, f.domain.as_group().mul, sigma.num, sigma.den)[0])


def _coboundary_rows(num: np.ndarray, den: int, mul: np.ndarray, snum: np.ndarray, sden: int) -> np.ndarray:
    """_is_coboundary_of for each row of num [k, n], the numerators over den
    of a phase function on the group whose product table is mul, against
    the cocycle table snum / sden on that group, numerators in [0, sden);
    mul and snum are [n, n], or [k, n, n] with a group for each row."""
    if mul.shape[-2:] != snum.shape[-2:]:
        return np.zeros(len(num), dtype=bool)
    common = math.lcm(den, sden)
    num = num * (common // den)
    table = (num[:, :, None] + num[:, None, :] - num[np.arange(len(num))[:, None, None], mul]) % common
    return (table == snum * (common // sden)).all(axis=(1, 2))


def _pairing_defects(sigma: Cocycle, elements) -> np.ndarray:
    """[i, j]: elements[i] and [j] commute and beta = sigma(x, y) / sigma(y, x) != 1."""
    mul, t = sigma.group.mul[np.ix_(elements, elements)], sigma.num[np.ix_(elements, elements)]
    return (mul == mul.T) & ((t - t.T) % sigma.den != 0)


def _greedy_generators(group: FiniteGroup) -> list[int]:
    """FiniteGroup.greedy_generators, called by this module's trivializer
    systems under one module-level name, which bench/spans.py traces."""
    return group.greedy_generators()


def _diagonalize(a: list[list[int]], b: list[int]) -> tuple[int, list[list[int]]]:
    """Reduce the k x r integer matrix a to diagonal form in place.

    Integer row and column operations (a Smith-style reduction, without the
    divisibility chain); the row operations are applied to b as well, and
    the column operations are accumulated in v.  Returns (p, v): after the
    call a[i][i] is nonzero for i < p and every other entry of a is zero,
    and a_before . v = P^-1 a_after for the unimodular row operations P.
    Exact Python integers throughout.
    """
    k = len(a)
    r = len(a[0]) if k else 0
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
    return p, v


def _solve_mod(rows: list[list[int]], rhs: list[int], modulus: int) -> list[int] | None:
    """One solution u of rows . u == rhs (mod modulus), or None.

    Diagonalizes the coefficient matrix (_diagonalize) and maps the
    solution of the diagonal system back through the column operations.
    """
    k = len(rows)
    r = len(rows[0]) if k else 0
    a = [list(row) for row in rows]
    b = list(rhs)
    p, v = _diagonalize(a, b)
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


def _kernel_mod(rows: list[list[int]], r: int, modulus: int) -> np.ndarray:
    """Every solution u of rows . u == 0 (mod modulus), one per row, in no particular order.

    With a_before . v = P^-1 D (_diagonalize), u is a solution exactly when
    y = v^-1 u has d_i y_i == 0 for every pivot d_i, that is y_i a multiple
    of modulus / gcd(d_i, modulus), and y_i free past the pivots.  The
    solutions are the combinations of the scaled columns of v with
    coefficients below each one's order: a product of cyclic groups, so the
    count is the size of the kernel and never (Z/modulus)^r.
    """
    a = [list(row) for row in rows]
    p, v = _diagonalize(a, [0] * len(a))
    orders = [math.gcd(a[i][i] if i < p else 0, modulus) for i in range(r)]
    steps = np.array(
        [[v[j][i] * (modulus // orders[i]) % modulus for j in range(r)] for i in range(r)],
        dtype=np.int64,
    ).reshape(r, r)
    combos = list(itertools.product(*map(range, orders)))
    return np.array(combos, dtype=np.int64).reshape(len(combos), r) @ steps % modulus


@functools.lru_cache(maxsize=1)
def _edge_system(group: FiniteGroup) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(gens, coeff, rows): the greedy generators; coeff (n x r), coeff[x]
    counting each generator in the word for x along the group's cached
    tree, the identity empty and each generator its own letter; and
    coeff[x] + coeff[g] - coeff[xg] on every Cayley edge (x, g), one row
    per edge: the left side of df = sigma in the generator unknowns.

    Kept for the last group asked (groups hash by identity): codes'
    _constituents, on a non-abelian subgroup, solves for a trivializer and
    then lists the linear characters on one group, and both read this
    system, so it is built once per group.  No more is kept, as a lattice's
    groups live on."""
    walk = group._cayley_walk()
    gens = _greedy_generators(group)
    coeff = walk.path_sums((walk.tree[1][:, None] == gens).astype(np.int64))
    rows = (coeff[:, None] + coeff[gens][None] - coeff[walk.ends[:, 1:]]).reshape(coeff.size, len(gens))
    coeff.flags.writeable = rows.flags.writeable = False   # every reader shares them
    return gens, coeff, rows


def _distinct_rows(a: np.ndarray) -> list[list[int]]:
    """The distinct rows of an integer matrix, as int lists in lexicographic order."""
    return [list(row) for row in sorted(set(map(tuple, a.tolist())))]


def _linear_characters(group: FiniteGroup) -> tuple[np.ndarray, int]:
    """Every linear character of a group, as numerators over e = exp(G).

    Returns (chars, e): chars[j, x] is the j-th character at x, rows in
    lexicographic order of their values on the greedy generators.  A
    function chi = coeff . u with u = (chi(g_1), ..., chi(g_r)) is a
    homomorphism to Z/e exactly when chi(x) + chi(g) = chi(xg) on every
    Cayley edge, by induction on the word length of the right factor, so
    the characters are the kernel of the trivializer's homogeneous edge
    system mod e (_kernel_mod).  Every character of G lands in Z/e, since
    chi(x)^e = chi(x^e) = 1, so there is one row per character of G/[G, G].
    """
    gens, coeff, edges = _edge_system(group)
    e = group.exponent()
    rows = _distinct_rows(edges % e)
    values = _kernel_mod(rows, len(gens), e)
    values = values[sorted(range(len(values)), key=lambda j: values[j].tolist())]
    return values @ coeff.T % e, e


def _cyclic_extensions(sigma: Cocycle, members: np.ndarray):
    """The trivializers and linear characters of b abelian subgroups H of
    sigma's group, all of one order h, given by their sorted members [b, h],
    read from sigma's integer table by cyclic extension (Neubueser, Numer.
    Math. 2, 1960).  Returns (ok [b], f0 [b', h], M [b'], chars [b', h, h],
    e [b']) on the b' rows with ok: f0 a trivializer of sigma|H as
    numerators over M, reduced, and chars every linear character of H as
    rows of numerators over e = exp(H), in _linear_characters' order; each
    on the members in order.  A row fails ok when beta != 1 on a pair of
    H's greedy generators (see find_trivializing_phase), as no trivializer
    exists then.  No restricted cocycle, subgroup group or integer system
    is built: H's product tables are read on positions from one [b, |G|]
    position table, sigma|H is gathered once for the block, and each row's
    coset walk runs on Python lists.

    Walk H's greedy generators x (its members in order, each kept when it
    lies outside the subgroup K its predecessors generate), with m the
    least m >= 1 with x^m in K; H abelian makes K<x> the m cosets K x^j.
    Given f on K with df = sigma|K, df = sigma on K<x> forces
        f(x^j) = a_j + j c,  a_0 = sigma(e, e),  a_(j+1) = a_j - sigma(x^j, x),
        f(k x^j) = f(k) + f(x^j) - sigma(k, x^j),
    with c = f(x), and x^m in K asks m c = f(x^m) - a_m.  In numerators
    over M, at first the least denominator of sigma|H, c is the least
    solution mod M; only when gcd(m, M) does not divide the right side is M
    refined to mM, where c exists.  So f0 depends on sigma|H alone.
    A solution always gives a trivializer of sigma|K<x>: beta = 1 on the
    abelian H makes sigma|H a coboundary (Kleppner, Math. Ann. 158, 1965),
    and a trivializer F of it is f chi on K for a character chi of K, which
    extends to K<x>, so F / chi extends f and solves the equation; any two
    solutions differ by a character of the cyclic K<x> / K.  Every result
    is still tested, df0 = sigma|H in integers (RuntimeError otherwise), as
    find_trivializing_phase tests its own: all rows at once, on the common
    grid sigma.den |H|, which every M divides before its reduction (the
    least denominator divides sigma.den, and the refinements multiply it by
    coset counts whose product divides |H|).  df0 = sigma makes sigma.den f0
    a character, so the reduced M divides sigma.den exp(H).

    The characters are the case sigma = 0 over M = e: every solution c of
    m c = chi(x^m) mod e, the m values c0 + s e / m in increasing order, so
    rows come out in lexicographic order of their values on the greedy
    generators, which are sub.as_group()'s; an abelian H has |H| of them.
    exp(H) is the lcm of the generators' orders, as H is abelian.
    """
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
    if not _coboundary_rows(f * (common // modulus)[:, None], common, mul[ok], t[ok], sigma.den).all():
        raise RuntimeError("cyclic extension produced a non-trivializing phase function")
    q = np.gcd(np.gcd.reduce(f, axis=1), modulus)
    return ok, f // q[:, None], modulus // q, chars, e


def find_trivializing_phase(
    sigma: Cocycle,
    domain: Subgroup | None = None,
) -> PhaseFunction | None:
    """A phase function f with (df) = sigma, or None when none exists.

    A commuting pair x, y with beta(x, y) = sigma(x, y) / sigma(y, x) != 1
    rules f out (_pairing_defects, the one test; search's lattice reads it).
    On an abelian group beta = 1 suffices (Kleppner, "Multipliers on abelian
    groups", Math. Ann. 158, 1965) and beta is bimultiplicative, so a
    defective pair of greedy generators returns None without a solve.  Else
    f is solved for as below, so the test changes no trivializer found.

    A trivializer valued in C_m (m the cocycle denominator) may need finer
    roots of unity, so denominators k*m are searched for k = 1, 2 and then
    k = exp(H), the first that admits a solution giving f.  The last step is
    conclusive: df = sigma makes f^m a character, so every trivializer is
    valued in C_(m*exponent).

    With f(e) = sigma(e, e) and one unknown per greedy generator g, every
    other f(xg) = f(x) + f(g) - sigma(x, g) is summed down the group's
    cached spanning tree (FiniteGroup._cayley_walk), which so fixes the
    particular solution.  df = sigma is imposed on the n*r Cayley edges
    (x, g) only.  For a cocycle sigma that suffices: c = sigma - df is a
    cocycle with c(x, g) = 0, so c(x, yg) = c(x, y) and c(x, e) = c(e, e)
    = f(e) - f(e) = 0 make c vanish.  A table that is not a cocycle has no
    trivializer: None.
    """
    group = sigma.group
    if domain is not None and len(domain) != group.order:
        raise ValueError("domain size does not match the cocycle's group")
    if not sigma.verify():
        return None
    t = sigma.num
    gens, coeff, cx = _edge_system(group)
    if group.is_abelian() and _pairing_defects(sigma, gens).any():
        return None
    result_domain = domain if domain is not None else group.full_subgroup()
    n, r = group.order, len(gens)
    exponent = group.exponent()
    multiples = [k for k in (1, 2) if k <= exponent]
    if exponent > 2:
        multiples.append(exponent)

    # const(xg) = const(x) - t(x, g) from const(1) = f(1) = t(1, 1), so
    # const(g) = 0 (t(1, g) = t(1, 1) in a cocycle); it serves every multiple:
    # sigma.num < den, so k * sigma.num is reduced mod k * den, and scales by k
    walk = group._cayley_walk()
    parent, step, _ = walk.tree
    const = walk.path_sums(-t[parent, step]) + t[group.identity, group.identity]

    # f(x) + f(g) - f(xg) = t(x, g) on every Cayley edge
    dv = (t[:, gens] - const[:, None] + const[walk.ends[:, 1:]]).reshape(n * r, 1)
    for k in multiples:
        modulus = k * sigma.den
        system = _distinct_rows(np.concatenate([cx % modulus, (k * dv) % modulus], axis=1))
        rows = [row[:r] for row in system]
        rhs = [row[r] for row in system]
        u = _solve_mod(rows, rhs, modulus)
        if u is None:
            continue
        nums = (coeff @ np.array(u, dtype=np.int64) + k * const) % modulus
        f = PhaseFunction._runs([result_domain], nums, modulus)[0]
        if not _is_coboundary_of(f, sigma):
            raise RuntimeError("solver produced a non-trivializing phase function")
        return f
    return None
