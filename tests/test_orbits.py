"""Classification transported along the error group's orbits.

codes._classify_orbits runs classify once per orbit of W -> pi(g)W, found
from the codes' witnesses, and transports the report to the rest of the
orbit.  Every report must equal a direct classify, byte for byte in JSON.
"""

import contextlib
import functools
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import CATALOG_64, relabeled_model

from qeclab import _linalg, _tol, cli, codes, projreps, search
from qeclab.cli import main, parse_model_spec
from qeclab.cocycles import _phase_values
from qeclab.codes import CodeSpace, classify
from qeclab.models import ProjectiveErrorModel
from qeclab.projreps import ProjectiveRep
from qeclab.search import enumerate_weak_stabilizer_codes, q3_probe


@functools.cache
def _model(spec, seed=None):
    model = parse_model_spec(spec).model
    return model if seed is None else relabeled_model(model, seed)


@functools.cache
def _enumerated(spec):
    model = _model(spec)
    return model, enumerate_weak_stabilizer_codes(model)


def _json(reports):
    return [r.to_json() for r in reports]


def _count_actions(monkeypatch):
    calls = []
    raw = codes._code_action

    def counted(model, code):
        calls.append(code)
        return raw(model, code)

    monkeypatch.setattr(codes, "_code_action", counted)
    return calls


def _q3_witnesses(model, reports):
    """(L, the character of L's action on the code) of each q3_probe report."""
    witnesses = []
    for r in reports:
        action = _linalg.compressed_action(model.rep.matrices[list(r.logical.members)], r.code.basis)[0]
        witnesses.append((r.logical, np.trace(action, axis1=1, axis2=2)))
    return witnesses


@pytest.mark.parametrize("spec, orbits", [("oddfam:3", 28), ("genpauli:8", 26)])
@pytest.mark.parametrize("seed", [None, 3])
def test_q3_probe_classifies_one_code_per_orbit(monkeypatch, spec, orbits, seed):
    # each report is read from its constituent: no code action at all, and
    # the candidates still fall into the same orbits of W -> pi(g)W
    model = _model(spec, seed)
    calls = _count_actions(monkeypatch)
    hits, candidates = q3_probe(model, return_candidates=True)
    assert len(calls) == 0
    monkeypatch.undo()
    table = codes._conjugation_table(model.cocycle)
    assert len(codes._witness_orbits(model, _q3_witnesses(model, candidates), table)) == orbits
    assert _json(candidates) == _json(classify(model, r.code) for r in candidates)
    assert _json(hits) == _json(classify(model, r.code) for r in hits)


@pytest.mark.parametrize("spec, orbits", [("prod(genpauli:2,genpauli:4)", 98), ("oddfam:3", 20)])
def test_enumerated_codes_classify_once_per_orbit(monkeypatch, spec, orbits):
    model, found = _enumerated(spec)
    batch = [code for _, _, code in found]
    calls = _count_actions(monkeypatch)
    reports = codes._classify_orbits(model, batch, [(sub, f.values) for sub, f, _ in found])
    assert len(calls) == orbits
    monkeypatch.undo()
    assert _json(reports) == _json(classify(model, code) for code in batch)


# pauli:3 is left out for time, as in test_codes.
_SPECS = [s for s in CATALOG_64 if s != "pauli:3"]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_transport_matches_classify_on_the_moved_code(data):
    # W' = pi(g)W, with B' = pi(g)B as its basis: the transported report
    # is classify's on W', stabilizer phase JSON included
    model, found = _enumerated(data.draw(st.sampled_from(_SPECS)))
    _, _, code = found[data.draw(st.integers(0, len(found) - 1))]
    g = data.draw(st.integers(0, model.group.order - 1))
    act = codes._code_action(model, code)
    report = classify(model, code, act)
    assert report.stabilizer_phase.is_exact
    moved = CodeSpace(model.dim, model.rep.matrices[g] @ code.basis)
    table = codes._conjugation_table(model.cocycle)
    got = codes._transport(model, report, codes._mixed(act), moved, g, table)
    want = classify(model, moved)
    assert got.logical.members == want.logical.members
    assert got.stabilizer.members == want.stabilizer.members
    assert got.detectable == want.detectable
    assert got.flags == want.flags
    assert got.witnesses == want.witnesses
    assert got.central_type_criterion == want.central_type_criterion
    assert got.stabilizer_phase.to_json() == want.stabilizer_phase.to_json()
    assert np.abs(got.stabilizer_phase.values - want.stabilizer_phase.values).max() < 1e-12
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize("spec", ["oddfam:3", "c2d2n:2", "xp:8", "genpauli:4"])
def test_conjugation_phase_is_projreps_theta_x_scale(spec):
    # projreps._conjugation(sub, x, sigma) scales theta(z), z = x^-1 y x, by
    # the pull-back of projreps._conjugation_table's lambda_g at
    # y = g z g^-1, sigma(y, g) conj(sigma(g, z)).  The cocycle identity
    # makes its numerator equal sigma(x^-1, y) conj(sigma(z, x^-1))'s mod
    # den at x = g, and both are the scalar of
    # pi(g)* pi(y) pi(g) = lambda pi(z)
    model = _model(spec, 1)
    grp, sigma, mats = model.group, model.cocycle, model.rep.matrices
    table = codes._conjugation_table(model.cocycle)
    assert np.array_equal(table.roots, _phase_values(np.arange(sigma.den), sigma.den))
    full = grp.full_subgroup()
    for g in range(grp.order):
        pos, scales = projreps._conjugation(full, g, sigma)
        z = np.array(full.members)[pos]                     # z = g^-1 y g, y = 0..n-1
        assert (table.elements[g, z] == np.arange(grp.order)).all()
        turns = table.turns[g, z]
        gi = grp.inv[g]
        assert ((sigma.num[gi, np.arange(grp.order)] - sigma.num[z, gi]) % sigma.den == turns).all()
        lam = table.roots[turns]
        assert np.array_equal(scales, lam)
        moved = mats[g].conj().T @ mats @ mats[g]
        assert np.abs(moved - lam[:, None, None] * mats[z]).max() < 1e-12


def test_batch_with_dropped_witnesses_matches_classify(monkeypatch):
    # every third enumerated code is left out; each member is reached from
    # its representative by one g, so the kept codes form one part per
    # orbit they meet
    model, found = _enumerated("prod(genpauli:2,genpauli:4)")
    kept = [entry for i, entry in enumerate(found) if i % 3]
    batch = [code for _, _, code in kept]
    witnesses = [(sub, f.values) for sub, f, _ in kept]
    orbits = codes._witness_orbits(model, witnesses, codes._conjugation_table(model.cocycle))
    assert sum(1 + len(members) for _, members in orbits) == len(batch)
    calls = _count_actions(monkeypatch)
    reports = codes._classify_orbits(model, batch, witnesses)
    assert len(calls) == len(orbits) == 97
    monkeypatch.undo()
    assert _json(reports) == _json(classify(model, code) for code in batch)


def _orbit_sizes(model, logicals, witnesses):
    """(|L|, orbit size) per orbit of _witness_orbits on a batch's witnesses,
    logicals[i] the logical group of code i."""
    table = codes._conjugation_table(model.cocycle)
    return [
        (len(logicals[rep]), 1 + len(members))
        for rep, members in codes._witness_orbits(model, witnesses, table)
    ]


@functools.cache
def _search_orbits(spec):
    """(|G|, one list per batch of (|L|, orbit size) per orbit: the
    _classify_orbits call of `qeclab search spec` and, on a central-type
    model, q3_probe's candidates with their (L, chi) witnesses)."""
    calls = []
    raw = codes._classify_orbits

    def classify_orbits(model, batch, witnesses):
        reports = raw(model, batch, witnesses)
        calls.append(_orbit_sizes(model, [r.logical for r in reports], witnesses))
        return reports

    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stdout(io.StringIO()):
        m.setattr(cli, "_classify_orbits", classify_orbits)
        assert main(["search", spec]) == 0
    assert len(calls) == 1
    model = _model(spec)
    if model.is_central_type():
        _, _, witnesses = _q3_batch(spec)
        calls.append(_orbit_sizes(model, [sub for sub, _ in witnesses], witnesses))
    return model.group.order, calls


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_SPECS))
@example("permprod(genpauli:2,2)")
def test_search_orbits_satisfy_orbit_stabilizer(spec):
    # the logical group L of a code is its stabilizer under W -> pi(g)W, so
    # a whole orbit has |L| |orbit| = |G|; a split orbit falls short
    order, calls = _search_orbits(spec)
    for orbits in calls:
        assert all(logical * size == order for logical, size in orbits)


def test_search_forms_whole_orbits_on_permprod():
    # 95 codes, of which the witnesses (H, f) leave 74 duplicates unlisted:
    # maximal witnesses link every orbit
    order, [orbits] = _search_orbits("permprod(genpauli:2,2)")
    assert len(orbits) == 22 and sum(size for _, size in orbits) == 95


def _on_grid_by_stack(chis):
    steps = np.rint(np.stack([chis.real, chis.imag], axis=-1) / _tol.DERIVED)
    return steps.reshape(*chis.shape[:-1], -1).astype(np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_on_grid_interleaves_real_and_imaginary_parts(seed):
    rng = np.random.default_rng(seed)
    full = rng.normal(size=(6, 10)) + 1j * rng.normal(size=(6, 10))
    for chis in [full[2], full, full[:, ::3], full[1::2, 2:7], full.T, full[:, 4]]:
        got = codes._on_grid(chis)
        assert got.dtype == np.int64
        assert np.array_equal(got, _on_grid_by_stack(chis))
    assert codes._on_grid(full[:0]).shape == (0, 20)


@functools.cache
def _q3_batch(spec):
    """(model, candidate codes, (L, chi) witnesses) of
    q3_probe(model, return_candidates=True)."""
    model = _model(spec)
    _, candidates = q3_probe(model, return_candidates=True)
    return model, [r.code for r in candidates], _q3_witnesses(model, candidates)


_CENTRAL_SPECS = [s for s in _SPECS if _model(s).is_central_type()]


@pytest.mark.parametrize("spec", _CENTRAL_SPECS)
def test_q3_witnesses_are_code_invariants(spec):
    # a candidate (H, rho) has pi = Ind rho, so L(W) = H, and pi(h) acts on
    # W as a scalar exactly where |chi_rho(h)| = dim rho
    model, batch, witnesses = _q3_batch(spec)
    for code, (sub, chi) in zip(batch, witnesses):
        report = classify(model, code)
        assert report.logical.members == sub.members
        assert abs(chi[sub.members.index(model.group.identity)] - code.dim) < _tol.DERIVED
        scalar = np.abs(np.abs(chi) - code.dim) < _tol.DERIVED
        assert report.stabilizer.members == tuple(np.array(sub.members)[scalar].tolist())


@functools.cache
def _whole_batches(spec):
    """[(model, codes, witnesses, direct classify JSON, orbit label of each
    code)] for search._enumerate's codes and maximal witnesses and, on a
    central-type model, for q3_probe's candidates.  The labels are
    _witness_orbits' parts on the whole batch, proven to be orbits: each
    member is pi(g) times its representative, and each part has [G:L]
    distinct codes, which is all of the representative's orbit."""
    model = _model(spec)
    found, witnesses = search._enumerate(model, None, None)
    batches = [([code for _, _, code in found], witnesses)]
    if model.is_central_type():
        batches.append(_q3_batch(spec)[1:])
    out = []
    table = codes._conjugation_table(model.cocycle)
    for batch, wits in batches:
        direct = _json(classify(model, code) for code in batch)
        label = [None] * len(batch)
        for rep, members in codes._witness_orbits(model, wits, table):
            assert len(direct[rep]["logical"]) * (1 + len(members)) == model.group.order
            for i in [rep] + [j for j, _ in members]:
                label[i] = rep
            for j, g in members:
                assert _moved_projector_deviation(model, batch, rep, j, g) < 1e-9
        out.append((model, batch, wits, direct, label))
    return out


def _moved_projector_deviation(model, batch, rep, j, g):
    moved = model.rep.matrices[g] @ batch[rep].basis
    return np.linalg.norm(batch[j].projector() - moved @ moved.conj().T)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_SPECS), st.lists(st.booleans(), min_size=1, max_size=12))
@example("oddfam:3", [False, True, True])
@example("prod(genpauli:2,genpauli:4)", [False, True, True])
def test_orbits_are_whole_on_sub_lists_of_invariant_witnesses(spec, pattern):
    # code i is kept when pattern[i % len(pattern)]: the parts of the kept
    # codes are the orbits they meet, each member reached by one g
    for model, batch, wits, direct, label in _whole_batches(spec):
        kept = [i for i in range(len(batch)) if pattern[i % len(pattern)]]
        sub_batch = [batch[i] for i in kept]
        table = codes._conjugation_table(model.cocycle)
        orbits = codes._witness_orbits(model, [wits[i] for i in kept], table)
        parts = {}
        for rep, members in orbits:
            part = sorted(kept[i] for i in [rep, *(j for j, _ in members)])
            assert part[0] == kept[rep]
            parts[label[kept[rep]]] = part
            for j, g in members:
                assert _moved_projector_deviation(model, sub_batch, rep, j, g) < 1e-9
        met = {}
        for i in kept:
            met.setdefault(label[i], []).append(i)
        assert len(orbits) == len(parts) == len(met) and parts == met
        reports = codes._classify_orbits(model, sub_batch, [wits[i] for i in kept])
        assert _json(reports) == [direct[i] for i in kept]


def _jittered(model, seed):
    """model with pi(x) turned by a unit phase of 2e-9 to 6e-9 radians on
    about half of its conjugacy classes other than {e}, one phase per class.
    The rep stays unitary and keeps model's cocycle object, and lambda_g is
    unchanged (the phases of x and g^-1 x g cancel), but the scalars of a
    stabilizer meeting a turned class are no longer within _tol.EXACT of a
    root of unity."""
    rng = np.random.default_rng(seed)
    grp = model.group
    # the least member of x's conjugacy class
    classes = codes._conjugation_table(model.cocycle).elements.min(axis=0)
    turned = {int(c): rng.uniform(2e-9, 6e-9) * rng.integers(2) for c in np.unique(classes)}
    turned[grp.identity] = 0.0
    angles = np.array([turned[int(c)] for c in classes])
    mats = np.exp(1j * angles)[:, None, None] * model.rep.matrices
    rep = ProjectiveRep(grp, mats, model.cocycle, label="jittered", validate=False)
    return ProjectiveErrorModel(rep, label=model.label)


def test_inexact_stabilizer_phases_are_classified_directly(monkeypatch):
    # a code tilted off an exact one keeps exact phases once S is read
    # inside L, so the inexact phases come from a rep turned off its cocycle;
    # the orbits are those of the exact model's witnesses
    model, found = _enumerated("oddfam:3")
    jittered = _jittered(model, 0)
    batch = [code for _, _, code in found]
    witnesses = [(sub, f.values) for sub, f, _ in found]
    direct = [classify(jittered, code) for code in batch]
    inexact = sum(not r.stabilizer_phase.is_exact for r in direct)
    assert 0 < inexact < len(batch)
    orbits = codes._witness_orbits(jittered, witnesses, codes._conjugation_table(jittered.cocycle))
    calls = _count_actions(monkeypatch)
    reports = codes._classify_orbits(jittered, batch, witnesses)
    assert len(orbits) < len(calls) < len(batch)
    monkeypatch.undo()
    assert _json(reports) == _json(direct)
