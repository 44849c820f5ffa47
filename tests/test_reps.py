import json
import re

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CATALOG_64,
    conjugate_rep_loop,
    fill_cocycle_by_rows,
    first_product_failure,
    induce_loop,
    inertia_group_loop,
    irreducible_constituents,
    kron_hom_basis,
    mackey_defect_loop,
    make_rep_full_snap,
    raw_scalar_table,
    raw_scalars_per_row,
    relabeled_model,
    snap_each,
    validate_all_pairs,
)

from qeclab import _linalg, _tol, codes, projreps, search
from qeclab._linalg import compressed_action
from qeclab.cli import parse_model_spec
from qeclab.cocycles import Cocycle, Phase, PhaseFunction, coboundary
from qeclab.groups import cyclic, dihedral
from qeclab.models import (
    d4_character_table,
    d4_expected_table,
    dihedral_xp_model,
    gen_pauli_model,
)
from qeclab.projreps import (
    MakeRepError,
    ProjectiveRep,
    _intertwiner_count,
    _raw_scalars,
    _snap_scalars,
    conjugate_rep,
    frobenius_dims,
    hom_space,
    induce,
    inertia_group,
    make_rep,
    mackey_character_defect,
    rep_from_phase_function,
)


def _regular_rep(group):
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    for h in range(n):
        for x in range(n):
            mats[h, group.mul[h, x], x] = 1.0
    return make_rep(group, mats, label="reg")


def test_make_rep_extracts_trivial_cocycle_for_true_rep():
    g = cyclic(4)
    mats = np.array([np.diag([1j ** k, (-1j) ** k]) for k in range(4)])
    rep = make_rep(g, mats)
    assert rep.cocycle.den == 1
    assert np.all(rep.cocycle.num == 0)


def test_make_rep_pauli_cocycle_order_two():
    model = gen_pauli_model(2)
    sigma = model.rep.cocycle
    assert sigma.den == 2
    # XZ vs ZX: index 2 is X, index 1 is Z, and they anticommute
    t = sigma.to_complex_table()
    assert abs(t[2, 1] / t[1, 2] + 1) < 1e-12


def test_make_rep_rejects_non_projective_family():
    g = cyclic(2)
    mats = np.array([np.eye(2), np.diag([1.0, 2.0])])
    with pytest.raises(Exception):
        make_rep(g, mats)


def test_character_of_pauli_model_vanishes_off_identity():
    model = gen_pauli_model(3)
    chi = model.rep.character().values
    assert abs(chi[0] - 3) < 1e-12
    assert np.all(np.abs(chi[1:]) < 1e-12)


def test_hom_space_schur():
    model = gen_pauli_model(2)
    maps = hom_space(model.rep, model.rep)
    assert len(maps) == 1
    # the single intertwiner of an irreducible is a scalar
    m = maps[0]
    scale = m[0, 0]
    assert np.allclose(m, scale * np.eye(2))


def test_hom_space_dim_matches_character_inner_product():
    g = dihedral(3)
    reg = _regular_rep(g)
    triv = make_rep(g, np.ones((6, 1, 1), dtype=complex))
    # the trivial rep appears once in the regular rep
    assert len(hom_space(triv, reg)) == 1
    # and the regular rep contains itself |G| times... no: dim Hom(reg, reg)
    # equals the sum of squared multiplicities = 1 + 1 + 4
    assert len(hom_space(reg, reg)) == 6


def test_restrict_keeps_matrices():
    model = dihedral_xp_model(4)
    sub = model.group.subgroup_generated([1])
    res = model.rep.restrict(sub)
    for i, m in enumerate(sub.members):
        assert np.allclose(res.matrices[i], model.rep.matrices[m])


def test_twist_changes_cocycle_by_coboundary():
    model = gen_pauli_model(2)
    g = model.group
    f = PhaseFunction.exact(
        g.full_subgroup(), [Phase(0, 1), Phase(1, 4), Phase(1, 2), Phase(3, 4)]
    )
    twisted = model.rep.twist(f)
    delta = coboundary(f)
    lhs = twisted.cocycle
    rhs = model.rep.cocycle.multiply(
        type(model.rep.cocycle)(g, delta.num, delta.den)
    )
    assert lhs == rhs


def test_twist_refuses_a_phase_off_one_at_the_identity():
    # f(e) != 1 would give pi(e) = f(e) 1 and sigma(e, e) = f(e), an
    # unnormalized rep that the character refuses, so twist refuses f; the
    # make_rep fill tests build such matrices as f.values * matrices
    model = gen_pauli_model(2)
    g = model.group
    f = PhaseFunction.exact(
        g.full_subgroup(),
        [Phase(1, 4) if x == g.identity else Phase(0, 1) for x in range(g.order)],
    )
    with pytest.raises(ValueError, match=r"twist needs f\(e\) = 1"):
        model.rep.twist(f)
    mats = f.values[:, None, None] * model.rep.matrices
    assert np.array_equal(mats[g.identity], 1j * np.eye(2))
    unnormalized = ProjectiveRep(g, mats, model.rep.cocycle.multiply(coboundary(f)))
    assert unnormalized.cocycle.phase(g.identity, g.identity) == Phase(1, 4)
    with pytest.raises(ValueError, match="character value at the identity must be the dimension"):
        unnormalized.character()


def test_rep_json_round_trip():
    model = dihedral_xp_model(3)
    back = ProjectiveRep.from_json(model.group, model.rep.to_json())
    assert np.allclose(back.matrices, model.rep.matrices)
    assert back.cocycle == model.rep.cocycle


def _pi_x_eigenvector(res):
    # an eigenvector of pi(x) spans a subspace invariant under {e, x}
    _, vecs = np.linalg.eig(res.matrices[1])
    return vecs[:, :1] / np.linalg.norm(vecs[:, 0])


@pytest.mark.parametrize("spec, snap_failures", [("xp:9", 6), ("xp:15", 8)])
def test_on_subspace_keeps_the_cocycle_where_make_rep_fails(spec, snap_failures):
    model = parse_model_spec(spec).model
    failures = 0
    for sub in [sub for sub in model.group.all_subgroups() if len(sub) == 2]:
        res = model.rep.restrict(sub)
        basis = _pi_x_eigenvector(res)
        piece = res.on_subspace(basis)
        assert piece.cocycle == res.cocycle
        assert piece.matrices.tobytes() == compressed_action(res.matrices, basis)[0].tobytes()
        try:
            make_rep(res.group, piece.matrices)
        except MakeRepError:
            failures += 1
    assert failures == snap_failures


def test_on_subspace_of_a_code_carries_the_restricted_cocycle():
    model = parse_model_spec("c2d2n:3").model
    for sub, _, code in search.enumerate_weak_stabilizer_codes(model):
        res = model.rep.restrict(sub)
        assert res.on_subspace(code.basis).cocycle == model.cocycle.restrict(sub)


def test_on_subspace_rejects_a_non_invariant_subspace():
    model = gen_pauli_model(2)
    basis = np.array([[1.0], [0.0]], dtype=complex)  # |0>, moved by X
    with pytest.raises(MakeRepError):
        model.rep.on_subspace(basis)


def test_induce_from_trivial_gives_regular_dimension():
    g = dihedral(3)
    triv_sub = g.trivial_subgroup()
    theta = make_rep(triv_sub.as_group(), np.ones((1, 1, 1), dtype=complex))
    reg = _regular_rep(g)
    ind = induce(theta, triv_sub, reg.cocycle)
    assert ind.dim == 6
    # induced-from-trivial is the regular rep: same character
    assert np.allclose(ind.character().values, reg.character().values)


def test_frobenius_reciprocity_regular_case():
    g = dihedral(3)
    reg = _regular_rep(g)
    sub = g.subgroup_generated([1])  # rotations, order 3
    theta = make_rep(sub.as_group(), np.ones((3, 1, 1), dtype=complex))
    lhs, rhs = frobenius_dims(theta, sub, reg)
    assert lhs == rhs == 2


def test_frobenius_reciprocity_projective_case():
    model = gen_pauli_model(3)
    g = model.group
    sub = g.subgroup_generated([1])
    res = model.rep.restrict(sub)
    # the restriction of the clock-shift model to <Z> splits into lines
    theta = make_rep(
        sub.as_group(),
        res.matrices[:, :1, :1] / np.abs(res.matrices[:, :1, :1]),
    )
    lhs, rhs = frobenius_dims(theta, sub, model.rep)
    assert lhs == rhs


def test_inertia_group_of_twisted_line():
    model = gen_pauli_model(2)
    g = model.group
    sub = g.subgroup_generated([1])  # <Z>
    f = PhaseFunction.exact(sub, [Phase(0, 1), Phase(1, 2)])
    theta = rep_from_phase_function(f)
    inertia = inertia_group(theta, sub, model.rep.cocycle)
    # conjugating by X flips the sign character of <Z> by the commutator
    # phase, so only <Z> itself stabilizes it
    assert set(inertia.members) == {0, 1}


def test_inertia_group_of_trivial_subgroup_is_everything():
    model = gen_pauli_model(2)
    g = model.group
    sub = g.trivial_subgroup()
    f = PhaseFunction.constant_one(sub)
    theta = rep_from_phase_function(f)
    inertia = inertia_group(theta, sub, model.rep.cocycle)
    assert len(inertia) == g.order


def test_mackey_identity_on_pauli_line():
    model = gen_pauli_model(2)
    sub = model.group.subgroup_generated([1])
    f = PhaseFunction.constant_one(sub)
    defect = mackey_character_defect(f, model.rep)
    assert defect < 1e-10


CONJUGATION_SPECS = ["pauli:2", "genpauli:3", "xp:4", "c2d2n:2", "oddfam:3"]


def _normalizes(g, sub, x) -> bool:
    return all(g.conjugate(g.inv[x], y) in sub for y in sub.members)


@pytest.mark.parametrize("spec", CONJUGATION_SPECS)
def test_conjugation_matches_the_per_member_loops(spec):
    model = parse_model_spec(spec).model
    g, sigma = model.group, model.cocycle
    for sub in g.all_subgroups():
        theta = irreducible_constituents(model.rep.restrict(sub))[0]
        inertia = inertia_group(theta, sub, sigma)
        assert list(inertia.members) == inertia_group_loop(theta, sub, sigma)
        for x in range(g.order):
            if not _normalizes(g, sub, x):
                continue
            got = conjugate_rep(theta, sub, x, sigma).matrices
            assert got.tobytes() == conjugate_rep_loop(theta, sub, x, sigma).matrices.tobytes()


@pytest.mark.parametrize("spec", CONJUGATION_SPECS)
def test_mackey_defect_matches_the_per_coset_loop(spec):
    model = parse_model_spec(spec).model
    checked = 0
    for sub in model.group.all_subgroups():
        if not sub.is_normal():
            continue
        for f in codes._constituent_phases(model, sub):
            got = mackey_character_defect(f, model.rep)
            assert abs(got - mackey_defect_loop(f, model.rep)) < 1e-12
            checked += 1
    assert checked > 0


def test_conjugate_rep_refuses_an_element_outside_the_normalizer():
    model = parse_model_spec("oddfam:3").model
    g = model.group
    sub, x = next(
        (sub, x)
        for sub in g.all_subgroups()
        for x in range(g.order)
        if not _normalizes(g, sub, x)
    )
    theta = irreducible_constituents(model.rep.restrict(sub))[0]
    with pytest.raises(ValueError, match="not stable under conjugation by x"):
        conjugate_rep(theta, sub, x, model.cocycle)
    with pytest.raises(ValueError, match="not stable under conjugation by x"):
        conjugate_rep_loop(theta, sub, x, model.cocycle)


@pytest.mark.parametrize("spec", ["permprod(genpauli:2,3)", "c2d2n:3"])
def test_conjugation_table_rows_are_rows_of_the_full_table(spec):
    # _conjugation builds only the rows of its x and their inverses
    sigma = parse_model_spec(spec).model.cocycle
    n = sigma.group.order
    full = projreps._conjugation_table(sigma)
    rng = np.random.default_rng(5)
    for rows in ([0], [n - 1, 3, 3], rng.permutation(n)[:7], np.arange(n)):
        part = projreps._conjugation_table(sigma, rows)
        assert np.array_equal(part.elements, full.elements[rows])
        assert np.array_equal(part.turns, full.turns[rows])
        assert np.array_equal(part.roots, full.roots)


def test_d4_table_matches_reference():
    computed = d4_character_table()
    expected = d4_expected_table()
    assert set(computed) == set(expected)
    for name in expected:
        got = np.array(computed[name])
        want = np.array(expected[name])
        assert np.max(np.abs(got - want)) < 1e-9, name


def test_d4_projective_rows_orthogonal():
    table = d4_character_table()
    chi1 = np.array(table["chi1"])
    chi2 = np.array(table["chi2"])
    sizes = np.array([1, 1, 1, 1, 1, 1, 1, 1])
    # columns are single elements here, so the inner product is a plain sum
    inner = np.sum(chi1 * np.conj(chi2) * sizes) / 8
    assert abs(inner) < 1e-12
    assert abs(np.sum(np.abs(chi1) ** 2) / 8 - 1) < 1e-12


# ------------------------------------------------ make_rep snapping


@pytest.mark.parametrize("spec", CATALOG_64)
def test_make_rep_snaps_like_snap_phase_per_entry(spec):
    model = parse_model_spec(spec).model
    g, mats = model.group, model.rep.matrices
    assert g.order <= 64
    raw = raw_scalar_table(g, mats)
    each = snap_each(raw, 4 * g.order)
    assert all(p is not None for row in each for p in row)
    want = Cocycle.from_phases(g, each)
    num, den = _snap_scalars(raw, 4 * g.order, range(g.order))
    assert Cocycle(g, num, den) == want
    assert make_rep(g, mats).cocycle == want


def _first_edge_snap_failure(group, mats):
    # make_rep snaps only the Cayley-edge columns y in walk.cols, and names
    # the first failing pair (x, y) in row-major order over them
    cols = group._cayley_walk().cols
    each = snap_each(raw_scalar_table(group, mats)[:, cols], 4 * group.order)
    return next((x, int(cols[j])) for x, row in enumerate(each) for j, p in enumerate(row) if p is None)


def test_make_rep_names_first_failing_scalar():
    model = gen_pauli_model(3)
    mats = model.rep.matrices.copy()
    mats[4] = mats[4] * np.exp(1e-6j)        # still unitary, off by a small phase
    x, y = _first_edge_snap_failure(model.group, mats)
    cols = model.group._cayley_walk().cols.tolist()
    assert y != cols.index(y)                # the error names the element, not its column
    with pytest.raises(MakeRepError, match=rf"scalar snap failed at \({x},{y}\)"):
        make_rep(model.group, mats)


def test_make_rep_rejects_non_unitary_matrix():
    model = gen_pauli_model(3)
    mats = model.rep.matrices.copy()
    mats[5, 0, :] *= 1.001
    x, y = _first_edge_snap_failure(model.group, mats)
    with pytest.raises(MakeRepError, match=rf"scalar snap failed at \({x},{y}\)"):
        make_rep(model.group, mats)
    # a non-unitary matrix whose scalar snaps reaches the unitarity check
    a = 1.1
    diag = np.array([[[a, 0], [0, np.cbrt(2 - a**3)]]], dtype=complex)
    with pytest.raises(MakeRepError, match="not unitary"):
        make_rep(cyclic(1), diag)


# ------------------------------------------------ whole-array stacks


def _hom_pairs(model, subgroups=4):
    """(rho, pi|H) for the irreducible constituents rho, and (pi|H, pi|H),
    on a spread of subgroups H from the trivial one to the whole group.
    """
    subs = model.group.all_subgroups()
    step = max(1, len(subs) // subgroups)
    for sub in subs[::step] + [subs[-1]]:
        res = model.rep.restrict(sub)
        yield res, res
        for rho in irreducible_constituents(res):
            yield rho, res


def _assert_hom_basis(r1, r2, basis):
    """basis is orthonormal to _tol.EXACT, intertwines r1 and r2 to _tol.SCAN
    and spans the space of the stack/SVD oracle to _tol.DERIVED."""
    d1, d2 = r1.dim, r2.dim
    vectors = np.array(basis).reshape(len(basis), d2 * d1)
    want = np.array(kron_hom_basis(r1, r2)).reshape(-1, d2 * d1)
    assert len(vectors) == len(want) == _intertwiner_count(r1, r2)
    assert np.abs(vectors.conj() @ vectors.T - np.eye(len(vectors))).max() < _tol.EXACT
    for t in basis:
        dev = r2.matrices @ t - t @ r1.matrices
        assert np.linalg.norm(dev, axis=(1, 2)).max() < _tol.SCAN
    span = vectors.T @ vectors.conj()
    assert np.linalg.norm(span - want.T @ want.conj()) < _tol.DERIVED


@pytest.mark.parametrize("spec", CATALOG_64)
def test_hom_space_stack_matches_kron_loop(spec):
    # hom_space spans the nullspace of the per-element np.kron stack
    model = parse_model_spec(spec).model
    for r1, r2 in _hom_pairs(model):
        _assert_hom_basis(r1, r2, hom_space(r1, r2))


@functools.lru_cache(maxsize=None)
def _catalog_specs_up_to_32():
    return [spec for spec in CATALOG_64 if _catalog_model(spec).group.order <= 32]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hom_space_into_a_restriction_and_frobenius_dims(data):
    model = _catalog_model(data.draw(st.sampled_from(_catalog_specs_up_to_32())))
    sub = data.draw(st.sampled_from(model.group.all_subgroups()))
    res = model.rep.restrict(sub)
    theta = data.draw(st.sampled_from(irreducible_constituents(res)))
    _assert_hom_basis(theta, res, hom_space(theta, res))
    count = _intertwiner_count(theta, res)
    assert frobenius_dims(theta, sub, model.rep) == (count, count)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_induce_matches_the_phase_loop(data):
    # the numerator-table scales are the exact Phase products, quarter turns
    # included, so the matrices agree bit for bit
    model = _catalog_model(data.draw(st.sampled_from(CATALOG_64)))
    sub = data.draw(st.sampled_from(model.group.all_subgroups()))
    theta = data.draw(st.sampled_from(irreducible_constituents(model.rep.restrict(sub))))
    got = induce(theta, sub, model.cocycle)
    want = induce_loop(theta, sub, model.cocycle)
    assert np.array_equal(got.matrices, want.matrices)
    assert got.cocycle == want.cocycle == model.cocycle


@pytest.mark.parametrize("spec", CATALOG_64 + ["permprod(genpauli:2,3)"])
def test_raw_scalars_match_per_row_loop(spec):
    model = parse_model_spec(spec).model
    g, mats = model.group, model.rep.matrices
    raw = _raw_scalars(g, mats)
    assert raw.tobytes() == raw_scalars_per_row(g, mats).tobytes()
    assert np.abs(raw - raw_scalar_table(g, mats)[:, g._cayley_walk().cols]).max() < 1e-12


@pytest.mark.parametrize("rows", [1, 3, 7, 40])
@pytest.mark.parametrize("spec", ["genpauli:5", "oddfam:3"])
def test_raw_scalars_do_not_depend_on_the_row_blocks(spec, rows, monkeypatch):
    # partial last blocks included: 25 and 54 rows are no multiple of 3, 7 or 40;
    # _raw_scalars multiplies against the 1 + r Cayley-edge columns only
    model = parse_model_spec(spec).model
    g, mats = model.group, model.rep.matrices
    cols = g._cayley_walk().cols
    monkeypatch.setattr(_linalg, "_PRODUCT_BLOCK_ENTRIES", rows * len(cols) * model.dim**2)
    assert len(list(projreps._row_products(mats, mats[cols]))) == -(-g.order // rows)
    assert _raw_scalars(g, mats).tobytes() == raw_scalars_per_row(g, mats).tobytes()
    assert make_rep(g, mats).cocycle == model.rep.cocycle


def _unitary_near_identity(dim, eps, seed):
    """exp(i eps H) for a random traceless Hermitian H of unit Frobenius norm."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a + a.conj().T
    h = h - np.trace(h) / dim * np.eye(dim)
    w, v = np.linalg.eigh(h / np.linalg.norm(h))
    return (v * np.exp(1j * eps * w)) @ v.conj().T


@pytest.mark.parametrize("rows", [None, 1, 2])
@pytest.mark.parametrize("k", [0, 4, 8])
def test_product_check_names_first_failing_row(k, rows, monkeypatch):
    # the scalars still snap (they move by O(eps^2)), the products by O(eps)
    model = gen_pauli_model(3)
    g = model.group
    if rows is not None:
        monkeypatch.setattr(_linalg, "_PRODUCT_BLOCK_ENTRIES", rows * g.order * model.dim**2)
    mats = model.rep.matrices.copy()
    mats[k] = _unitary_near_identity(model.dim, 1e-5, seed=k) @ mats[k]
    cols = g._cayley_walk().cols
    assert _snap_scalars(_raw_scalars(g, mats), 4 * g.order, cols)[1] == model.rep.cocycle.den
    x, dev = first_product_failure(g, mats, model.rep.cocycle)
    pattern = rf"pi\(x\)pi\(y\) != sigma\(x,y\) pi\(xy\) at x={x} \(deviation ([0-9.e+-]+)\)"
    for build in (
        lambda: make_rep(g, mats),
        lambda: ProjectiveRep(g, mats, model.rep.cocycle, validate=True),
    ):
        with pytest.raises(MakeRepError, match=pattern) as info:
            build()
        reported = float(re.search(pattern, str(info.value)).group(1))
        assert reported == pytest.approx(dev, rel=1e-2)


# ------------------------------------------------ edge-column snapping


@pytest.mark.parametrize("spec", CATALOG_64 + ["permprod(genpauli:2,3)"])
def test_make_rep_matches_the_full_snap(spec):
    model = parse_model_spec(spec).model
    g, mats = model.group, model.rep.matrices
    assert make_rep(g, mats).cocycle == make_rep_full_snap(g, mats).cocycle


@functools.lru_cache(maxsize=None)
def _catalog_model(spec):
    return parse_model_spec(spec).model


def _cocycle_or_none(build, group, mats):
    try:
        return build(group, mats).cocycle
    except MakeRepError:
        return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_make_rep_agrees_with_the_full_snap_on_twisted_reps(data):
    # denominators 97 and 131 exceed 4|G| on most catalog groups, so both
    # paths must then raise
    model = _catalog_model(data.draw(st.sampled_from(CATALOG_64)))
    g = model.group
    den = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 97, 131]))
    nums = data.draw(st.lists(st.integers(0, den - 1), min_size=g.order, max_size=g.order))
    f = PhaseFunction.exact(g.full_subgroup(), [Phase(k, den) for k in nums])
    mats = f.values[:, None, None] * model.rep.matrices
    got = _cocycle_or_none(make_rep, g, mats)
    assert got == _cocycle_or_none(make_rep_full_snap, g, mats)


@functools.lru_cache(maxsize=None)
def _relabeled_catalog_model(spec, seed):
    return relabeled_model(_catalog_model(spec), seed)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_make_rep_agrees_with_the_full_snap_on_relabeled_twisted_reps(data):
    # a relabeled group has other greedy generators and a differently shaped
    # tree, so other edge columns are snapped and other paths summed
    spec = data.draw(st.sampled_from(CATALOG_64))
    model = _relabeled_catalog_model(spec, data.draw(st.integers(1, 4)))
    g = model.group
    den = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16, 97, 131]))
    nums = data.draw(st.lists(st.integers(0, den - 1), min_size=g.order, max_size=g.order))
    f = PhaseFunction.exact(g.full_subgroup(), [Phase(k, den) for k in nums])
    mats = f.values[:, None, None] * model.rep.matrices
    got = _cocycle_or_none(make_rep, g, mats)
    assert got == _cocycle_or_none(make_rep_full_snap, g, mats)


def test_make_rep_refuses_a_filled_denominator_above_4n():
    # on the edge columns sigma(g, g) = 1/12 and sigma(g^2, g) = 1/11 snap
    # (12 = 4|G|), but the filled sigma(g^2, g^2) = 1/132 does not
    g = cyclic(3)
    mats = np.exp(2j * np.pi * np.array([0, 23, 13]) / 396).reshape(3, 1, 1)
    assert g.greedy_generators() == [1]
    with pytest.raises(MakeRepError, match=r"denominator above 4\|G\| at \(2,2\)"):
        make_rep(g, mats)
    with pytest.raises(MakeRepError, match=r"scalar snap failed at \(2,2\)"):
        make_rep_full_snap(g, mats)
    # without the guard the filled table would pass the all-pairs check
    num, den = _snap_scalars(_raw_scalars(g, mats), 4 * g.order, g._cayley_walk().cols)
    filled = Cocycle(g, projreps._fill_cocycle(g, num, den), den)
    assert filled.phase(1, 1) == Phase(1, 12) and filled.phase(2, 1) == Phase(1, 11)
    assert filled.phase(2, 2) == Phase(1, 132)
    ProjectiveRep(g, mats, filled, validate=True)


@pytest.mark.parametrize(
    "spec", ["pauli:3", "genpauli:3", "xp:9", "oddfam:3", "permprod(genpauli:2,3)"]
)
def test_make_rep_snaps_only_the_edge_columns(spec, monkeypatch):
    model = parse_model_spec(spec).model
    g, mats = model.group, model.rep.matrices
    shapes = []
    snap = projreps._snap_scalars

    def recording_snap(raw, max_den, cols):
        shapes.append(raw.shape)
        return snap(raw, max_den, cols)

    monkeypatch.setattr(projreps, "_snap_scalars", recording_snap)
    assert make_rep(g, mats).cocycle == model.rep.cocycle
    f = _phase_with_a_nonzero_identity(g)
    twisted = make_rep(g, f.values[:, None, None] * mats).cocycle
    assert twisted == model.rep.cocycle.multiply(coboundary(f))
    assert shapes == [(g.order, 1 + len(g.greedy_generators()))] * 2


def _phase_with_a_nonzero_identity(g, seed=0):
    # df(e, e) = f(e), so the fill's sigma(e, e) term is not 0
    nums = np.random.default_rng(seed).integers(0, 12, g.order)
    nums[g.identity] = 5
    return PhaseFunction.exact(g.full_subgroup(), [Phase(int(k), 12) for k in nums])


def _fill_cases(case):
    if case in ("c2d2n:3", "oddfam:3"):
        model = _catalog_model(case)
        return [model.cocycle.restrict(sub) for sub in model.group.all_subgroups()]
    model = parse_model_spec("permprod(genpauli:2,3)").model
    if case == "relabeled":
        model = relabeled_model(model, seed=3)
    return [model.cocycle]


@pytest.mark.parametrize("case", ["c2d2n:3", "oddfam:3", "permprod(genpauli:2,3)", "relabeled"])
def test_the_column_fill_rebuilds_every_cocycle_from_its_edge_columns(case):
    # exact, so every restricted cocycle comes back from sigma(x, c), c in
    # walk.cols, and agrees with the per-depth row fill from its rows
    for restricted in _fill_cases(case):
        g = restricted.group
        walk = g._cayley_walk()
        twist = coboundary(_phase_with_a_nonzero_identity(g))
        for sigma in (restricted, restricted.multiply(twist)):
            filled = projreps._fill_cocycle(g, sigma.num[:, walk.cols], sigma.den)
            assert filled.dtype == np.int64 and filled.flags.c_contiguous
            assert np.array_equal(filled, sigma.num)
            head = sigma.num[[g.identity, *walk.gens]]
            assert np.array_equal(fill_cocycle_by_rows(g, head, sigma.den), sigma.num)
    if case == "permprod(genpauli:2,3)":
        assert walk.length == 178                 # the deepest tree of the models


# ------------------------------------------------ Cayley-edge validation


def _verdict(build):
    try:
        build()
    except MakeRepError as exc:
        return str(exc)
    return None


def _perturbed(model, k, eps):
    mats = model.rep.matrices.copy()
    mats[k] = _unitary_near_identity(model.dim, eps, seed=k) @ mats[k]
    return mats


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_edge_validation_agrees_with_all_pairs_on_perturbed_reps(data):
    # every pair through the perturbed pi(k) deviates by about eps: far
    # below the edge tolerance, at it, between it and EXACT, and above EXACT
    model = _catalog_model(data.draw(st.sampled_from(CATALOG_64)))
    g, sigma = model.group, model.rep.cocycle
    delta = projreps._edge_tolerance(g._cayley_walk())
    eps = data.draw(st.sampled_from([1e-12, delta, 3e-10, 1e-5]))
    mats = _perturbed(model, data.draw(st.integers(0, g.order - 1)), eps)
    want = _verdict(lambda: validate_all_pairs(ProjectiveRep(g, mats, sigma, validate=False)))
    assert _verdict(lambda: ProjectiveRep(g, mats, sigma)) == want


@pytest.mark.parametrize("spec", ["genpauli:3", "xp:8", "oddfam:3", "permprod(genpauli:2,3)"])
def test_edges_between_the_edge_tolerance_and_exact_are_accepted(spec):
    model = parse_model_spec(spec).model
    g, sigma = model.group, model.rep.cocycle
    walk = g._cayley_walk()
    depth = walk.tree[2]
    k = int(np.flatnonzero(depth == depth.max())[-1])
    mats = _perturbed(model, k, 3e-10)
    scales = sigma.to_complex_table()[:, walk.cols]
    edges = (mats, mats[walk.cols], walk.ends, scales)
    assert projreps._first_deviation(*edges, projreps._edge_tolerance(walk)) is not None
    assert projreps._first_deviation(*edges, _tol.EXACT) is None
    validate_all_pairs(ProjectiveRep(g, mats, sigma, validate=False))
    ProjectiveRep(g, mats, sigma, validate=True)
    assert make_rep(g, mats).cocycle == sigma


@pytest.mark.parametrize("spec", CATALOG_64[:10] + ["c2d2n:4", "oddfam:3"])
def test_a_failure_off_the_edge_columns_names_the_oracles_first_x(spec):
    model = _catalog_model(spec)
    g, sigma = model.group, model.rep.cocycle
    cols = set(g._cayley_walk().cols.tolist())
    k = max(x for x in range(g.order) if x not in cols)
    mats = _perturbed(model, k, 1e-5)
    want = _verdict(lambda: validate_all_pairs(ProjectiveRep(g, mats, sigma, validate=False)))
    assert want is not None
    assert _verdict(lambda: ProjectiveRep(g, mats, sigma)) == want
    assert f"at x={first_product_failure(g, mats, sigma)[0]} " in want


def test_edge_validation_of_a_trivial_group():
    g = cyclic(1)
    assert g._cayley_walk().length == 0
    ProjectiveRep(g, np.eye(2, dtype=complex)[None], Cocycle.trivial(g))
    with pytest.raises(MakeRepError, match="at x=0"):
        ProjectiveRep(g, -np.eye(2, dtype=complex)[None], Cocycle.trivial(g))


def _nan_placements(dim):
    # a whole matrix, one real part, one imaginary part
    yield lambda a: a.fill(np.nan)
    yield lambda a: a.__setitem__((0, 0), complex(np.nan, 0.0))
    yield lambda a: a.__setitem__((dim - 1, 0), complex(1.0, np.nan))


@pytest.mark.parametrize("place", range(3))
@pytest.mark.parametrize("k", range(4))
def test_a_nan_matrix_fails_every_rep_check(k, place):
    # NaN compares false with every tolerance, so each test must fail closed
    model = gen_pauli_model(2)
    g, sigma = model.group, model.rep.cocycle
    mats = model.rep.matrices.copy()
    list(_nan_placements(model.dim))[place](mats[k])
    data = json.loads(json.dumps(ProjectiveRep(g, mats, sigma, validate=False).to_json()))
    bare = {key: value for key, value in data.items() if key != "cocycle"}
    for build in (
        lambda: ProjectiveRep(g, mats, sigma),
        lambda: ProjectiveRep.from_json(g, data),
        lambda: ProjectiveRep.from_json(g, bare),
        lambda: make_rep(g, mats),
        lambda: make_rep_full_snap(g, mats),
    ):
        with pytest.raises(MakeRepError):
            build()


@pytest.mark.parametrize("edges", [False, True])
def test_the_deviation_scan_fails_closed_on_nan(edges):
    model = gen_pauli_model(3)
    g, sigma, m = model.group, model.rep.cocycle, model.rep.matrices.copy()
    walk = g._cayley_walk()
    if edges:
        scan = (m[walk.cols], walk.ends, sigma.to_complex_table()[:, walk.cols])
    else:
        scan = (m, g.mul, sigma.to_complex_table())
    assert projreps._first_deviation(m, *scan, _tol.EXACT) is None
    m[4, 1, 2] = np.nan
    x, dev = projreps._first_deviation(m, *scan, _tol.EXACT)
    assert np.isnan(dev) and x == min(x for x in range(g.order) if 4 in (x, *scan[1][x]))


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 3e-10, 1e-9, 1e-5])
@pytest.mark.parametrize("spec", ["genpauli:2", "xp:6", "oddfam:3"])
def test_finite_verdicts_match_the_all_pairs_oracle(spec, eps):
    # validate_all_pairs keeps the ">= tolerance" form: on finite input the
    # fail-closed tests give the same verdicts and the same errors
    model = _catalog_model(spec)
    g, sigma = model.group, model.rep.cocycle
    for k in (0, g.order // 2, g.order - 1):
        mats = _perturbed(model, k, eps)
        want = _verdict(lambda: validate_all_pairs(ProjectiveRep(g, mats, sigma, validate=False)))
        assert _verdict(lambda: ProjectiveRep(g, mats, sigma)) == want
