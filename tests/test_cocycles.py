import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from helpers import (
    CATALOG_64,
    brute_force_trivializer,
    character_rows_oracle,
    relabeled_model,
    restricted_cocycle_table,
    trivializer_all_pairs,
    trivializer_per_multiple,
    trivializer_systems_oracle,
)

from qeclab import _tol, cocycles

from qeclab.cocycles import (
    Cocycle,
    Phase,
    PhaseFunction,
    coboundary,
    find_trivializing_phase,
)
from qeclab.cli import parse_model_spec
from qeclab.groups import cyclic, dihedral, direct_product
from qeclab.models import dihedral_xp_model, gen_pauli_model, product_model
from qeclab.projreps import tensor


def test_phase_normalization():
    assert Phase(3, 6) == Phase(1, 2)
    assert Phase(-1, 4) == Phase(3, 4)
    assert Phase(7, 7) == Phase(0, 1)
    assert abs(Phase(1, 3).to_complex() - np.exp(2j * np.pi / 3)) < 1e-15


def test_phase_arithmetic():
    a, b = Phase(1, 3), Phase(1, 2)
    assert a * b == Phase(5, 6)
    assert a.inverse() == Phase(2, 3)
    assert a * a.inverse() == Phase(0, 1)
    assert a ** 2 == Phase(2, 3)
    assert b ** 2 == Phase(0, 1)


def test_cocycle_identity_and_condition():
    model = gen_pauli_model(3)
    sigma = model.rep.cocycle
    g = model.group
    t = sigma.to_complex_table()
    e = g.identity
    for x in range(g.order):
        assert abs(t[x, e] - 1) < 1e-12
        assert abs(t[e, x] - 1) < 1e-12
    for x in range(g.order):
        for y in range(g.order):
            for z in range(g.order):
                lhs = t[x, y] * t[g.mul[x, y], z]
                rhs = t[x, g.mul[y, z]] * t[y, z]
                assert abs(lhs - rhs) < 1e-10


def test_cocycle_json_round_trip():
    model = dihedral_xp_model(4)
    sigma = model.rep.cocycle
    back = Cocycle.from_json(model.group, sigma.to_json())
    assert back == sigma


def test_phase_function_constant_one():
    g = cyclic(4)
    f = PhaseFunction.constant_one(g.full_subgroup())
    assert f.is_exact
    assert np.allclose(f.values, 1.0)


def test_phase_function_round_trip():
    g = cyclic(6)
    sub = g.full_subgroup()
    f = PhaseFunction.exact(sub, [Phase(k, 6) for k in range(6)])
    back = PhaseFunction.from_json(sub, f.to_json())
    assert back.is_exact
    assert np.allclose(back.values, f.values)


def test_phase_function_from_complex_snaps():
    g = cyclic(4)
    sub = g.full_subgroup()
    vals = np.exp(2j * np.pi * np.array([0, 1, 2, 3]) / 4)
    f = PhaseFunction.from_complex(sub, vals * (1 + 1e-12), max_den=4)
    assert f.is_exact
    assert f.phases[1] == Phase(1, 4)


def test_phase_function_multiply_conjugate():
    g = cyclic(3)
    sub = g.full_subgroup()
    f = PhaseFunction.exact(sub, [Phase(0, 1), Phase(1, 3), Phase(2, 3)])
    prod = f.multiply(f.conjugate())
    assert np.allclose(prod.values, 1.0)


def test_coboundary_is_cocycle_and_trivializable():
    g = dihedral(3)
    sub = g.full_subgroup()
    f = PhaseFunction.exact(
        sub, [Phase(k % 3, 3) for k in range(6)]
    )
    sigma = coboundary(f)
    # a coboundary must admit a trivializing phase, and the found phase must
    # reproduce the cocycle exactly
    h = find_trivializing_phase(sigma)
    assert h is not None
    assert coboundary(h) == sigma


def test_pauli_cocycle_not_coboundary():
    # the qubit Pauli cocycle is a nontrivial class: XZ = -ZX cannot be
    # repaired by any rescaling of the four operators
    model = gen_pauli_model(2)
    assert find_trivializing_phase(model.rep.cocycle) is None


def test_trivializer_matches_brute_force_on_small_subgroups():
    for model in (gen_pauli_model(2), dihedral_xp_model(3), dihedral_xp_model(4)):
        g = model.group
        sigma_c = model.rep.cocycle.to_complex_table()
        for sub in g.all_subgroups():
            if len(sub) > 6:
                continue
            h = sub.as_group()
            table = restricted_cocycle_table(sigma_c, sub)
            den = 2 * model.rep.cocycle.den * h.exponent()
            if den ** (h.order - 1) > 300000:
                continue
            brute = brute_force_trivializer(h, table, den)
            found = find_trivializing_phase(
                model.rep.cocycle.restrict(sub), domain=sub
            )
            assert (brute is None) == (found is None), (model.label, sub.members)
            if found is not None:
                vals = found.values
                for i in range(h.order):
                    for j in range(h.order):
                        lhs = vals[i] * vals[j]
                        rhs = table[i, j] * vals[h.mul[i, j]]
                        assert abs(lhs - rhs) < 1e-9


def test_trivializer_exactness_certificate():
    # whenever a trivializer is returned it must be exact and reproduce the
    # cocycle with integer phase arithmetic, not just numerically
    model = dihedral_xp_model(5)
    sub = model.group.subgroup_generated([1])
    res = model.rep.cocycle.restrict(sub)
    f = find_trivializing_phase(res, domain=sub)
    assert f is not None
    assert f.is_exact
    assert coboundary(f) == res


def test_trivializer_on_product_group_cocycle():
    # direct product of two trivial classes stays trivial
    g = direct_product(cyclic(2), cyclic(2))
    f = PhaseFunction.exact(
        g.full_subgroup(), [Phase(0, 1), Phase(1, 4), Phase(1, 2), Phase(3, 4)]
    )
    sigma = coboundary(f)
    h = find_trivializing_phase(sigma)
    assert h is not None
    assert coboundary(h) == sigma


def test_trivializer_needs_the_group_exponent():
    # f(x) = exp(2 pi i x / 8) on Z4 has a coboundary with denominator 2, but
    # every trivializer takes values in C_8: multiples k <= 2 of the
    # denominator give only C_4, so only k = exp(Z4) = 4 finds one
    sub = cyclic(4).full_subgroup()
    sigma = coboundary(PhaseFunction.exact(sub, [Phase(x, 8) for x in range(4)]))
    assert sigma.den == 2
    h = find_trivializing_phase(sigma)
    assert h is not None
    assert coboundary(h) == sigma


def test_trivializer_hits_on_order_64_product():
    model = product_model(gen_pauli_model(2), gen_pauli_model(4))
    subs = model.group.all_subgroups()
    hits = [
        find_trivializing_phase(model.rep.cocycle.restrict(sub), domain=sub) is not None
        for sub in subs
    ]
    assert (sum(hits), len(subs)) == (98, 249)


@pytest.mark.parametrize(
    "spec", ["genpauli:4", "xp:8", "c2d2n:3", "oddfam:3", "prod(genpauli:2,genpauli:4)"]
)
def test_trivializer_on_cayley_edges_matches_all_pairs(spec):
    # the n*r edge rows give the same f0, phase for phase, as all n^2 pairs
    model = parse_model_spec(spec).model
    for sub in model.group.all_subgroups():
        sigma = model.cocycle.restrict(sub)
        got = find_trivializing_phase(sigma, domain=sub)
        want = trivializer_all_pairs(sigma, domain=sub)
        assert (got is None) == (want is None), sub.members
        if got is not None:
            assert got.phases == want.phases, sub.members


def _same_trivializer(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got.phases == want.phases
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize(
    "spec", ["pauli:2", "oddfam:3", "c2d2n:4", "xp:12", "prod(genpauli:2,genpauli:4)"]
)
def test_trivializer_matches_the_per_multiple_loop(spec):
    # one generator walk scaled by k gives each multiple's system exactly, and
    # the lexsort dedup hands _solve_mod the rows np.unique(axis=0) gave it
    model = parse_model_spec(spec).model
    for sub in model.group.all_subgroups():
        sigma = model.cocycle.restrict(sub)
        _same_trivializer(
            find_trivializing_phase(sigma, domain=sub), trivializer_per_multiple(sigma, domain=sub)
        )


def _tree_models():
    spec = "prod(genpauli:2,genpauli:4)"
    yield parse_model_spec(spec).model
    yield relabeled_model(parse_model_spec(spec).model, seed=6)
    yield parse_model_spec("xp:8").model


@pytest.mark.parametrize("model", list(_tree_models()), ids=["enumerate", "relabeled", "xp8"])
def test_solver_and_character_systems_match_the_word_walk_oracle(model, monkeypatch):
    # the cached tree and the shared row dedup hand _solve_mod and
    # _kernel_mod the very inputs the element-by-element walk gives
    calls = []
    solve, kernel = cocycles._solve_mod, cocycles._kernel_mod

    def recording_solve(rows, rhs, modulus):
        calls.append((rows, rhs, modulus))
        return solve(rows, rhs, modulus)

    def recording_kernel(rows, r, modulus):
        calls.append((rows, r, modulus))
        return kernel(rows, r, modulus)

    monkeypatch.setattr(cocycles, "_solve_mod", recording_solve)
    monkeypatch.setattr(cocycles, "_kernel_mod", recording_kernel)
    solved = 0
    for sub in model.group.all_subgroups():
        sigma = model.cocycle.restrict(sub)
        calls.clear()
        find_trivializing_phase(sigma, domain=sub)
        got = list(calls)
        assert repr(got) == repr(trivializer_systems_oracle(sigma)), sub.members
        solved += bool(got)
        calls.clear()
        cocycles._linear_characters(sub.as_group())
        assert repr(calls) == repr([character_rows_oracle(sub.as_group())]), sub.members
    assert solved > 0


_SMALL_CATALOG = [spec for spec in CATALOG_64 if parse_model_spec(spec).model.group.order <= 32]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trivializer_round_trip_through_a_coboundary(data):
    # sigma and sigma * df have a trivializer together, and the one found
    # for sigma * df is the per-multiple loop's, phase for phase
    model = parse_model_spec(data.draw(st.sampled_from(_SMALL_CATALOG))).model
    sub = data.draw(st.sampled_from(model.group.all_subgroups()))
    sigma = model.cocycle.restrict(sub)
    den = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    nums = data.draw(st.lists(st.integers(0, den - 1), min_size=len(sub), max_size=len(sub)))
    twisted = sigma.multiply(coboundary(PhaseFunction.exact(sub, [Phase(k, den) for k in nums])))
    got = find_trivializing_phase(twisted, domain=sub)
    assert (got is None) == (find_trivializing_phase(sigma, domain=sub) is None)
    if got is not None:
        assert coboundary(got) == twisted
    _same_trivializer(got, trivializer_per_multiple(twisted, domain=sub))


def test_trivializer_rejects_a_non_cocycle():
    # a table that breaks the cocycle identity only off the Cayley edges of
    # the generator (x, g) still has no trivializer
    group = cyclic(4)
    gen = group.greedy_generators()[0]
    num = np.zeros((4, 4), dtype=np.int64)
    x, y = next((x, y) for x in range(4) for y in range(4) if y not in (gen, group.identity))
    num[x, y] = 1
    bent = Cocycle(group, num, 2)
    assert not bent.verify()
    assert trivializer_all_pairs(bent) is None
    assert find_trivializing_phase(bent) is None


def _cocycle_sources():
    pauli2, pauli3, xp4 = gen_pauli_model(2), gen_pauli_model(3), dihedral_xp_model(4)
    d3 = dihedral(3).full_subgroup()
    line = pauli3.group.subgroup_generated([1])
    return [
        Cocycle.trivial(cyclic(6)),
        pauli2.rep.cocycle,
        pauli3.rep.cocycle.conjugate(),
        xp4.rep.cocycle,
        Cocycle.from_json(xp4.group, xp4.rep.cocycle.to_json()),
        coboundary(PhaseFunction.exact(d3, [Phase(k % 3, 3) for k in range(6)])),
        pauli3.rep.cocycle.restrict(line),
        xp4.rep.cocycle.multiply(
            coboundary(PhaseFunction.exact(xp4.group.full_subgroup(), [Phase(k, 8) for k in range(8)]))
        ),
        tensor(pauli2.rep, pauli2.rep).cocycle,
        product_model(pauli2, gen_pauli_model(4)).rep.cocycle,
    ]


COCYCLE_SOURCES = _cocycle_sources()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_agrees_with_full_scan(data):
    sigma = data.draw(st.sampled_from(COCYCLE_SOURCES))
    n = sigma.group.order
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    scale = data.draw(st.sampled_from([1, 2, 3]))
    delta = data.draw(st.integers(0, scale * sigma.den - 1))
    num = sigma.num * scale
    if data.draw(st.booleans()):
        num[x, y] += delta
    else:
        # adding delta on the columns of <x> keeps the identity for z in <x>
        # and breaks it for every other z
        num[:, list(sigma.group.subgroup_generated([x]).members)] += delta
    bent = Cocycle(sigma.group, num, scale * sigma.den)
    assert bent.verify() == (bent.find_violation() is None)


# -- construction facts: the stabilizer-phase grid and the integer df check --

_GRIDS = [1, 2, 4, 6, 8, 12, 16, 24, 54, 64, 128, 256, 1024, 4096]
_MAX_DENS = [1, 2, 4, 8, 16, 64, 144, 256, 4096, 2**15, 2**15 + 1]


@st.composite
def _grid_entries(draw, grid: int):
    """A grid point k/grid or a point off the grid, either one nudged in
    angle or in modulus, a point at snap_phase's distance tolerance, NaN,
    or any complex number."""
    kind = draw(st.sampled_from(["grid", "off", "angle", "modulus", "edge", "nan", "any"]))
    if kind == "nan":
        return complex(draw(st.sampled_from([np.nan, 1.0])), np.nan)
    if kind == "any":
        return complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
    den = grid if kind != "off" else draw(st.sampled_from([3, 5, 7, 9, 10, 48, 2**15 - 1]))
    z = Phase(draw(st.integers(0, 4 * den)), den).to_complex()
    if kind == "angle":
        turns = draw(st.sampled_from([1e-17, 1e-12, 1e-10, 1e-6])) * draw(st.floats(-2, 2))
        z *= np.exp(2j * np.pi * turns)
    elif kind == "edge":
        z *= np.exp(1j * _tol.EXACT * draw(st.floats(0.99, 1.01)))
    elif kind == "modulus":
        z *= 1 + draw(st.sampled_from([1e-15, 1e-9, 1e-8, 1e-3, 0.5])) * draw(st.floats(-1.5, 1.5))
    return complex(z)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grid_reader_matches_snap_phase_on_every_entry(data):
    grid = data.draw(st.sampled_from(_GRIDS))
    max_den = data.draw(st.sampled_from(_MAX_DENS))
    values = data.draw(st.lists(_grid_entries(grid), max_size=12))
    num, den, mask = cocycles._snap_phases(np.array(values, dtype=complex), max_den, grid)
    want = [cocycles.snap_phase_or_none(z, max_den) for z in values]
    assert mask.tolist() == [p is not None for p in want]
    assert [Phase(int(k), den) if ok else None for k, ok in zip(num, mask)] == want
    # and the numerators and denominator are _snap_phases', byte for byte
    want_num, want_den, want_mask = cocycles._snap_phases(np.array(values, dtype=complex), max_den)
    assert (den, num.tolist(), mask.tolist()) == (want_den, want_num.tolist(), want_mask.tolist())


@functools.lru_cache(maxsize=None)
def _model(spec):
    return parse_model_spec(spec).model


@functools.lru_cache(maxsize=None)
def _lattice(spec):
    return _model(spec).group.all_subgroups()


# pauli:3's lattice (2,825 subgroups) is left out for time.
_SMALL_CATALOG = [s for s in CATALOG_64 if s != "pauli:3"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_coboundary_check_matches_cocycle_equality(data):
    spec = data.draw(st.sampled_from(_SMALL_CATALOG))
    model, lattice = _model(spec), _lattice(spec)
    sub = lattice[data.draw(st.integers(0, len(lattice) - 1))]
    res = model.cocycle.restrict(sub)
    f0 = find_trivializing_phase(res, domain=sub)
    n = len(sub)
    kind = data.draw(st.sampled_from(["trivializer", "character", "bent", "random"]))
    if f0 is None or kind == "random":
        den = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 24]))
        nums = data.draw(st.lists(st.integers(0, den - 1), min_size=n, max_size=n))
        f = PhaseFunction.exact(sub, [Phase(k, den) for k in nums])
    elif kind == "trivializer":
        f = f0
    elif kind == "character":
        chars, e = cocycles._linear_characters(sub.as_group())
        chi = chars[data.draw(st.integers(0, len(chars) - 1))]
        f = f0.multiply(PhaseFunction.exact(sub, [Phase(int(k), e) for k in chi]))
    else:
        x = data.draw(st.integers(0, n - 1))
        bump = data.draw(st.integers(1, 2 * f0.den - 1))
        nums = f0.num * 2
        nums[x] += bump
        f = PhaseFunction.exact(sub, [Phase(int(k), 2 * f0.den) for k in nums])
    assert cocycles._is_coboundary_of(f, res) == (coboundary(f) == res)
    if kind in ("trivializer", "character") and f0 is not None:
        assert cocycles._is_coboundary_of(f, res)


@pytest.mark.parametrize("spec", [*CATALOG_64, "permprod(genpauli:2,3)"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_cocycle_identity_holds_for_every_model(spec, data):
    # the whole table by find_violation's scan over every (x, y, z), and
    # its restriction to a drawn lattice subgroup of the order-64 models
    model = _model(spec)
    assert model.cocycle.find_violation() is None
    if model.group.order <= 64:
        lattice = _lattice(spec)
        sub = lattice[data.draw(st.integers(0, len(lattice) - 1))]
        assert model.cocycle.restrict(sub).find_violation() is None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_coboundary_round_trips(data):
    # delta f is read back by the integer check on a drawn lattice subgroup,
    # and twisting a model's rep by an exact f on G multiplies its cocycle
    # by delta f
    spec = data.draw(st.sampled_from(_SMALL_CATALOG))
    model, lattice = _model(spec), _lattice(spec)
    sub = lattice[data.draw(st.integers(0, len(lattice) - 1))]
    den = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 24]))
    nums = data.draw(st.lists(st.integers(0, den - 1), min_size=len(sub), max_size=len(sub)))
    f = PhaseFunction.exact(sub, [Phase(k, den) for k in nums])
    assert cocycles._is_coboundary_of(f, coboundary(f))
    n = model.group.order
    nums = data.draw(st.lists(st.integers(0, den - 1), min_size=n, max_size=n))
    f = PhaseFunction.exact(model.group.full_subgroup(), [Phase(k, den) for k in nums])
    if nums[model.group.identity]:   # twist refuses f(e) != 1; try f / f(e) too
        with pytest.raises(ValueError, match=r"f\(e\) = 1"):
            model.rep.twist(f)
        nums = [k - nums[model.group.identity] for k in nums]
        f = PhaseFunction.exact(model.group.full_subgroup(), [Phase(k, den) for k in nums])
    assert model.rep.twist(f).cocycle == model.rep.cocycle.multiply(coboundary(f))


def test_the_edge_system_is_built_once_per_group(monkeypatch):
    # a non-abelian pruned subgroup is solved for a trivializer and then its
    # linear characters are listed; both read one edge system
    # (cocycles._edge_system), built once per group: each build calls
    # _greedy_generators once, and the second read is a cache hit.  An
    # abelian one reads neither (cocycles._cyclic_extensions): oddfam:3 has
    # 24 non-abelian survivors of 52, the bench enumerate model none of 98
    from qeclab.search import enumerate_weak_stabilizer_codes

    built = []
    raw = cocycles._greedy_generators

    def counted(group):
        built.append(group)
        return raw(group)

    monkeypatch.setattr(cocycles, "_greedy_generators", counted)
    for spec, solved in [("oddfam:3", 24), ("prod(genpauli:2,genpauli:4)", 0)]:
        built.clear()
        cocycles._edge_system.cache_clear()
        enumerate_weak_stabilizer_codes(parse_model_spec(spec).model)
        info = cocycles._edge_system.cache_info()
        assert len({id(group) for group in built}) == len(built) == info.misses == info.hits == solved
