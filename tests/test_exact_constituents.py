"""Exact constituents: the abelian pairing test, the characters read from the
Cayley-edge system, integer phase functions and the grouped snap."""

import fractions
import functools
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CATALOG_64,
    constituent_phases_oracle,
    cyclic_extension,
    cyclic_extensions_oracle,
    extension_trivializer,
    relabeled_model,
    trivializer_all_pairs,
)
from test_codes import WALK_SPECS

from qeclab import _tol, cocycles, codes, projreps
from qeclab.cli import parse_model_spec
from qeclab.cocycles import (
    Cocycle,
    Phase,
    PhaseFunction,
    PhaseSnapError,
    _linear_characters,
    _phase_values,
    _snap_phases,
    coboundary,
    find_trivializing_phase,
    snap_phase,
    snap_phase_or_none,
)
from qeclab.groups import cyclic
from qeclab.search import enumerate_weak_stabilizer_codes


@functools.lru_cache(maxsize=None)
def _model(spec, seed=None):
    model = parse_model_spec(spec).model
    return model if seed is None else relabeled_model(model, seed)


@functools.lru_cache(maxsize=None)
def _abelian_subgroups(spec, seed):
    return [sub for sub in _model(spec, seed).group.all_subgroups() if sub.is_abelian()]


# ------------------------------------------------ the abelian pairing test


def _pairing_obstructs(sigma) -> bool:
    """sigma(g, h) != sigma(h, g) for a pair of greedy generators."""
    gens = sigma.group.greedy_generators()
    t = sigma.num[np.ix_(gens, gens)]
    return bool(((t - t.T) % sigma.den).any())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_abelian_pairing_verdict_equals_the_solver(data):
    # on abelian subgroups, of catalog models and of relabeled copies, the
    # pairing test says None exactly when the all-pairs solve finds nothing,
    # and a trivializer found is the solver's, phase for phase
    spec = data.draw(st.sampled_from(CATALOG_64))
    seed = data.draw(st.sampled_from([None, 5]))
    sub = data.draw(st.sampled_from(_abelian_subgroups(spec, seed)))
    sigma = _model(spec, seed).cocycle.restrict(sub)
    want = trivializer_all_pairs(sigma, domain=sub)
    assert _pairing_obstructs(sigma) == (want is None)
    got = find_trivializing_phase(sigma, domain=sub)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.phases == want.phases


# ------------------------------------------------ characters and constituents


@pytest.mark.parametrize(
    "spec, seed", [(spec, None) for spec in WALK_SPECS] + [("prod(genpauli:2,genpauli:4)", 7)]
)
def test_constituents_match_the_eigenspace_walk(spec, seed):
    # the same phase functions in the same order as the walk, values within
    # 1e-12 (the walk's are f0 times a float character, the new ones exact)
    model = _model(spec, seed)
    found = 0
    for sub in model.group.all_subgroups():
        got = list(codes._constituent_phases(model, sub))
        want = constituent_phases_oracle(model, sub)
        assert [f.phases for f in got] == [f.phases for f in want], sub.members
        for a, b in zip(got, want):
            assert np.abs(a.values - b.values).max() <= 1e-12
        found += len(got)
    assert found > 0


def _survivors(model):
    """The subgroups search.enumerate_weak_stabilizer_codes visits: the pruned lattice."""
    g = model.group
    bad = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
           for row in cocycles._pairing_defects(model.cocycle, range(g.order))]
    return [g._intern(members) for members in g._lattice(bad)]


@pytest.mark.parametrize(
    "spec, seed", [(spec, None) for spec in CATALOG_64] + [("prod(genpauli:2,genpauli:4)", 7)]
)
def test_cyclic_extension_trivializes_and_lists_the_characters(spec, seed):
    # on every abelian subgroup the enumeration visits, f0 read by cyclic
    # extension from the model's table has df0 = sigma|H in integers and is
    # extension_trivializer's, element by element, and the characters are
    # _linear_characters', row for row
    model = _model(spec, seed)
    abelian = [sub for sub in _survivors(model) if sub.is_abelian()]
    assert abelian
    for sub in abelian:
        f0, den, chars, e = cyclic_extension(model.cocycle, sub.members)
        res = model.cocycle.restrict(sub)
        assert cocycles._coboundary_rows(f0[None], den, sub.as_group().mul, res.num, res.den)[0]
        assert PhaseFunction._runs([sub], f0, den)[0].phases == extension_trivializer(model, sub).phases
        want, e_want = _linear_characters(sub.as_group())
        assert e == e_want and np.array_equal(chars, want), sub.members


@pytest.mark.parametrize(
    "spec, seed", [(spec, None) for spec in CATALOG_64] + [("prod(genpauli:2,genpauli:4)", 7)]
)
def test_a_block_of_cyclic_extensions_gives_each_row_its_own(spec, seed):
    # the abelian subgroups of one order in one block, as codes._constituents
    # reads them, pruned or not: each row gets the f0, M, chars and e it gets
    # alone, and fails exactly when it fails alone
    model = _model(spec, seed)
    visited = {sub.members for sub in _survivors(model)}
    for _, same in itertools.groupby(_abelian_subgroups(spec, seed), key=len):
        same = list(same)
        ok, f0, den, chars, e = cocycles._cyclic_extensions(model.cocycle, np.array([s.members for s in same]))
        alone = [cyclic_extension(model.cocycle, sub.members) for sub in same]
        assert ok.tolist() == [got is not None for got in alone]
        assert all(ok[i] for i, sub in enumerate(same) if sub.members in visited)
        for row, got in zip(zip(f0, den.tolist(), chars, e.tolist()), [got for got in alone if got is not None]):
            assert np.array_equal(row[0], got[0]) and row[1] == got[1], spec
            assert np.array_equal(row[2], got[2]) and row[3] == got[3], spec


@pytest.mark.parametrize("spec", CATALOG_64)
def test_cyclic_extensions_are_the_per_row_walk_to_the_byte(spec):
    # every abelian subgroup, pruned or not, one block per order: the array
    # steps give the per-row coset walk's ok, f0, M, chars and e, dtypes,
    # shapes and row order included
    model = _model(spec)
    for _, same in itertools.groupby(_abelian_subgroups(spec, None), key=len):
        members = np.array([sub.members for sub in same])
        got = cocycles._cyclic_extensions(model.cocycle, members)
        want = cyclic_extensions_oracle(model.cocycle, members)
        assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [(a.dtype, a.shape, a.tobytes()) for a in want]


def test_a_forged_table_fails_the_trivializer_test_in_a_block():
    # sigma moved at (x, x), x in H but no greedy generator of H: the walk
    # never reads that entry, so f0 is read as before and df0 != sigma|H
    # there, which the block's one integer test catches
    model = _model("genpauli:4", None)
    g, sigma = model.group, model.cocycle
    block = [sub for sub in _survivors(model) if len(sub) == 4 and sub.is_abelian()]
    members = np.array([sub.members for sub in block])
    assert cocycles._cyclic_extensions(sigma, members)[0].all()
    sub = next(sub for sub in block if sub.as_group().exponent() == 2)
    skip = {sub.position(g.identity), *sub.as_group().greedy_generators()}
    x = next(m for i, m in enumerate(sub.members) if i not in skip)
    num = sigma.num.copy()
    num[x, x] = (num[x, x] + 1) % sigma.den
    with pytest.raises(RuntimeError, match="non-trivializing"):
        cocycles._cyclic_extensions(Cocycle(g, num, sigma.den), members)


@pytest.mark.parametrize("spec, seed", [("genpauli:6", None), ("c2d2n:5", None), ("pauli:2", 3)])
def test_cyclic_extension_finds_a_trivializer_exactly_when_the_solver_does(spec, seed):
    # on every abelian subgroup, pruned or not: None exactly when the
    # solver finds none, which the pairing of two generators decides
    model = _model(spec, seed)
    for sub in _abelian_subgroups(spec, seed):
        got = cyclic_extension(model.cocycle, sub.members)
        want = find_trivializing_phase(model.cocycle.restrict(sub), domain=sub)
        assert (got is None) == (want is None) == _pairing_obstructs(model.cocycle.restrict(sub))


@pytest.mark.parametrize("spec, seed", [("c2d2n:3", None), ("oddfam:3", 2), ("pauli:3", 9)])
def test_linear_characters_are_the_characters_of_the_abelianization(spec, seed):
    # one row per character of H / [H, H], each a homomorphism to Z/e,
    # distinct and in lexicographic order of their values on the generators
    for sub in _model(spec, seed).group.all_subgroups():
        h = sub.as_group()
        chars, e = _linear_characters(h)
        assert e == h.exponent()
        x, y = np.divmod(np.arange(h.order**2), h.order)
        commutators = h.mul[h.inv[h.mul[y, x]], h.mul[x, y]]
        derived = h.subgroup_generated(np.unique(commutators))
        assert len(chars) == h.order // len(derived), sub.members
        assert not ((chars[:, :, None] + chars[:, None, :] - chars[:, h.mul]) % e).any()
        on_gens = [tuple(row) for row in chars[:, h.greedy_generators()].tolist()]
        assert on_gens == sorted(set(on_gens))


@pytest.mark.parametrize("spec", ["genpauli:4", "c2d2n:3", "oddfam:3"])
def test_enumerate_snaps_nothing_and_builds_no_fraction(spec, monkeypatch):
    model = parse_model_spec(spec).model      # built, and snapped, before counting
    calls = {"snap_phase": 0, "Fraction": 0}
    raw_snap, raw_new = cocycles.snap_phase, fractions.Fraction.__new__

    def snap(*args):
        calls["snap_phase"] += 1
        return raw_snap(*args)

    def new(cls, *args, **kwargs):
        calls["Fraction"] += 1
        return raw_new(cls, *args, **kwargs)

    monkeypatch.setattr(cocycles, "snap_phase", snap)
    monkeypatch.setattr(projreps, "snap_phase", snap)
    monkeypatch.setattr(fractions.Fraction, "__new__", new)
    assert enumerate_weak_stabilizer_codes(model)
    assert calls == {"snap_phase": 0, "Fraction": 0}
    # the counters do count
    assert snap_phase_or_none(1j, 4) == Phase(1, 4)
    assert calls["snap_phase"] == 1 and calls["Fraction"] > 0


# ------------------------------------------------ integer phase functions


@pytest.mark.parametrize("den", [1, 2, 3, 4, 6, 8, 12, 17, 64, 96, 256, 1000, 16384, 4 * 5792])
def test_phase_values_are_phase_to_complex_bit_for_bit(den):
    num = np.arange(den, dtype=np.int64)
    want = np.array([Phase(int(k), den).to_complex() for k in num])
    assert _phase_values(num, den).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_phase_function_array_operations_match_phase_arithmetic(data):
    group = data.draw(st.sampled_from([cyclic(4), cyclic(6), cyclic(8)]))
    sub = group.full_subgroup()

    def draw_phases():
        den = data.draw(st.sampled_from([1, 2, 3, 4, 8, 12]))
        return [Phase(data.draw(st.integers(0, den - 1)), den) for _ in range(group.order)]

    p, q = draw_phases(), draw_phases()
    f, g = PhaseFunction.exact(sub, p), PhaseFunction.exact(sub, q)
    product = f.multiply(g)
    assert product.phases == tuple(a * b for a, b in zip(p, q))
    assert product.values.tobytes() == (f.values * g.values).tobytes()
    assert f.conjugate().phases == tuple(a.inverse() for a in p)
    table = [[p[x] * p[y] * p[group.mul[x, y]].inverse() for y in range(group.order)]
             for x in range(group.order)]
    assert coboundary(f) == Cocycle.from_phases(group, table)
    with pytest.raises(AttributeError):
        f.phases = ()


def test_phase_function_keeps_inexact_entries_as_floats():
    sub = cyclic(3).full_subgroup()
    values = np.array([1.0, np.exp(2j * np.pi / 3), 0.5 + 0.5j])
    f = PhaseFunction.from_complex(sub, values, max_den=3)
    assert f.phases == (Phase(0, 1), Phase(1, 3), None)
    assert not f.is_exact and f.values.tobytes() == values.tobytes()
    assert f.multiply(f).phases == (Phase(0, 1), Phase(2, 3), None)
    with pytest.raises(ValueError, match="exact"):
        coboundary(f)


# ------------------------------------------------ the grouped snap


_ANGLE_OFFSETS = [0.0, 1e-12, 1e-10, _tol.EXACT * (1 - 1e-6), _tol.EXACT,
                  _tol.EXACT * (1 + 1e-6), 2e-9, 1e-6]
_MODULUS_OFFSETS = [0.0, 1e-12, _tol.SCAN * (1 - 1e-6), _tol.SCAN, _tol.SCAN * (1 + 1e-6), 1e-3]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grouped_snap_agrees_with_snap_phase(data):
    # near-boundary entries (at the angle and modulus tolerances, between
    # two fractions, past max_den) share groups with exact ones
    max_den = data.draw(st.one_of(st.integers(1, 256), st.sampled_from([4 * 5792, 40000])))
    entries = []
    for _ in range(data.draw(st.integers(1, 12))):
        q = data.draw(st.integers(1, min(max_den, 256) + 2))
        p = data.draw(st.integers(0, q - 1)) + data.draw(st.sampled_from([0.0, 0.0, 0.5]))
        delta = data.draw(st.sampled_from(_ANGLE_OFFSETS)) * data.draw(st.sampled_from([1, -1]))
        eps = data.draw(st.sampled_from(_MODULUS_OFFSETS)) * data.draw(st.sampled_from([1, -1]))
        entries.append((1 + eps) * np.exp(1j * (2 * np.pi * p / q + delta)))
    values = np.array(entries)
    want = [snap_phase_or_none(complex(z), max_den) for z in values]
    num, den, snapped = _snap_phases(values, max_den)
    assert snapped.tolist() == [w is not None for w in want]
    assert [Phase(int(k), den) if ok else None for k, ok in zip(num, snapped)] == want
    f = PhaseFunction.from_complex(cyclic(len(values)).full_subgroup(), values, max_den)
    assert f.phases == tuple(want)


# (max_den, an entry that snaps, an entry of its group that snap_phase
# rejects at _tol.EXACT by the last bit of its modulus, which np.abs rounds
# differently from Python's abs)
_LAST_BIT_CASES = [
    (42, 0.9555728055503366 + 0.2947551751753625j, 0.955572802111966 + 0.2947551743240642j),
    (59, 0.5747874095597647 + 0.818302776367999j, 0.5747874110461969 + 0.8183027788321301j),
    (11, 0.8412535332636939 - 0.5406408167825946j, 0.8412535312961653 - 0.5406408152804003j),
]


@pytest.mark.parametrize("max_den, rep, z", _LAST_BIT_CASES)
def test_grouped_snap_rounds_as_snap_phase_does(max_den, rep, z):
    assert snap_phase_or_none(rep, max_den) is not None
    assert snap_phase_or_none(z, max_den) is None
    assert _snap_phases(np.array([rep, z]), max_den)[2].tolist() == [True, False]


def _first_failing_edge(group, mats) -> str:
    """make_rep's error text, from snap_phase on each edge scalar in
    row-major order over the edge columns."""
    cols = group._cayley_walk().cols
    raw = projreps._raw_scalars(group, mats)
    failed = []
    for x, j in itertools.product(range(group.order), range(len(cols))):
        try:
            snap_phase(complex(raw[x, j]), 4 * group.order)
        except PhaseSnapError as exc:
            failed.append(f"scalar snap failed at ({x},{int(cols[j])}): "
                          f"matrices do not form a projective rep ({exc})")
    assert len(failed) >= 2
    return failed[0]


@pytest.mark.parametrize("spec, scaled, turned", [
    ("genpauli:3", 4, 7), ("genpauli:3", 7, 4), ("xp:4", 5, 2), ("oddfam:3", 11, 30),
    ("c2d2n:2", 3, 9), ("genpauli:2", 1, 3),
])
def test_make_rep_names_the_first_of_two_bad_edges_as_snap_phase_does(spec, scaled, turned):
    # one matrix off in modulus, one turned by an angle off every grid:
    # the error names the first failing edge with snap_phase's reason
    model = parse_model_spec(spec).model
    mats = model.rep.matrices.copy()
    mats[scaled] *= 1.001
    mats[turned] *= np.exp(0.1j)
    want = _first_failing_edge(model.group, mats)
    with pytest.raises(projreps.MakeRepError) as info:
        projreps.make_rep(model.group, mats)
    assert str(info.value) == want


@pytest.mark.parametrize("grid", [None, 8])
def test_snap_of_non_finite_and_rim_entries_is_snap_phase_s_with_no_warning(grid):
    # NaN, inf and |z| = 1 +- _tol.SCAN (and just past it) fall back to
    # snap_phase; no numpy warning is raised on the way
    bad = [complex(np.nan, 0), complex(1, np.nan), complex(np.nan, np.nan), complex(np.inf, 0),
           complex(-np.inf, np.inf), complex(0, -np.inf), 0j, complex(1e300, 1e300)]
    past = [(1 + s * _tol.SCAN * (1 + 1e-6)) * Phase(p, 8).to_complex()
            for s in (1, -1) for p in (0, 1, 3, 6)]
    rim = [(1 + s * _tol.SCAN) * Phase(p, 8).to_complex() for s in (1, -1) for p in (0, 1, 3, 6)]
    values = np.array(bad + past + rim + [Phase(1, 8).to_complex()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        num, den, mask = _snap_phases(values, 64, grid)
    want = [snap_phase_or_none(complex(z), 64) for z in values]
    assert [Phase(int(k), den) if ok else None for k, ok in zip(num, mask)] == want
    assert not mask[: len(bad) + len(past)].any() and mask[-1]


@pytest.mark.parametrize("grid", [1, 2, 4, 6, 8, 12, 64, 96])
def test_grid_snap_of_negative_angles_and_half_turns_is_snap_phase_s(grid):
    # every grid point at a negative angle too, and the half turn reached
    # from both sides (np.angle gives +pi and -pi, so k = +-grid/2)
    halves = [complex(-1, 0.0), complex(-1, -0.0), complex(-1, 1e-17), complex(-1, -1e-17)]
    assert [np.angle(z) for z in halves[:2]] == [np.pi, -np.pi]
    values = np.concatenate([np.exp(2j * np.pi * np.arange(-grid, grid + 1) / grid), halves])
    for max_den in sorted({1, max(1, grid // 2), grid, 2 * grid}):
        num, den, mask = _snap_phases(values, max_den, grid)
        want = [snap_phase_or_none(complex(z), max_den) for z in values]
        assert [Phase(int(k), den) if ok else None for k, ok in zip(num, mask)] == want


def test_grouped_snap_snaps_each_entry_past_2_to_15():
    # with denominators up to 10^6, two fractions lie within _tol.EXACT of
    # one group of entries
    p = 123457 / 999983
    values = np.exp(2j * np.pi * np.array([p, p + 3e-11]))
    want = [snap_phase(complex(z), 10**6) for z in values]
    assert want[0] != want[1]
    num, den, snapped = _snap_phases(values, 10**6)
    assert snapped.all() and [Phase(int(k), den) for k in num] == want


def test_snap_phase_reports_the_distance_it_tested():
    z = complex((1 + 5e-9) * np.exp(1j * 3e-9))
    with pytest.raises(PhaseSnapError) as info:
        snap_phase(z, 4)
    reported = float(re.search(r"is (\S+) away", str(info.value)).group(1))
    assert reported == abs(1 - z / abs(z))
