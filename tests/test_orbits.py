"""The error group's action on codes, W -> pi(g)W.

pi(g)* pi(x) pi(g) = lambda_g(x) pi(g^-1 x g) for the exact phase of
projreps._conjugation_table, so pi(g) maps a code to a code and its
witnesses to the moved code's.  The logical group L of a code is its
stabilizer under that action, so an orbit has |G| / |L| codes.
"""

import functools

import numpy as np
import pytest

from helpers import CATALOG_64, relabeled_model

from qeclab import _linalg, _tol, codes, projreps, search
from qeclab.cli import parse_model_spec
from qeclab.cocycles import _phase_values
from qeclab.codes import classify
from qeclab.search import q3_probe


@functools.cache
def _model(spec, seed=None):
    model = parse_model_spec(spec).model
    return model if seed is None else relabeled_model(model, seed)


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
    # each report is read from its constituent: no code action at all
    model = _model(spec, seed)
    calls = _count_actions(monkeypatch)
    hits, candidates = q3_probe(model, return_candidates=True)
    assert len(calls) == 0
    monkeypatch.undo()
    # pi(g) maps a candidate (H, rho) to the candidate (gHg^-1, rho^g), so
    # the candidates are whole orbits, and an orbit of codes with logical
    # group L has |G| / |L| of them
    assert sum(len(r.logical) for r in candidates) == orbits * model.group.order
    assert _json(candidates) == _json(classify(model, r.code) for r in candidates)
    assert _json(hits) == _json(classify(model, r.code) for r in hits)


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
    table = projreps._conjugation_table(model.cocycle)
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


def _on_grid_by_stack(chis):
    steps = np.rint(np.stack([chis.real, chis.imag], axis=-1) / _tol.DERIVED)
    return steps.reshape(*chis.shape[:-1], -1).astype(np.int64)


@pytest.mark.parametrize("seed", range(4))
def test_on_grid_interleaves_real_and_imaginary_parts(seed):
    rng = np.random.default_rng(seed)
    full = rng.normal(size=(6, 10)) + 1j * rng.normal(size=(6, 10))
    for chis in [full[2], full, full[:, ::3], full[1::2, 2:7], full.T, full[:, 4]]:
        got = search._on_grid(chis)
        assert got.dtype == np.int64
        assert np.array_equal(got, _on_grid_by_stack(chis))
    assert search._on_grid(full[:0]).shape == (0, 20)


@functools.cache
def _q3_batch(spec):
    """(model, candidate codes, (L, chi) witnesses) of
    q3_probe(model, return_candidates=True)."""
    model = _model(spec)
    _, candidates = q3_probe(model, return_candidates=True)
    return model, [r.code for r in candidates], _q3_witnesses(model, candidates)


# pauli:3 is left out for time, as in test_codes.
_CENTRAL_SPECS = [s for s in CATALOG_64 if s != "pauli:3" and _model(s).is_central_type()]


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
