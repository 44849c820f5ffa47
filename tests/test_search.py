import functools
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CATALOG_64,
    PairwiseDedup,
    commutant_split_oracle,
    irreducible_constituents,
    isotypic_projector,
    pairwise_enumerated,
    relabeled_model,
)

from qeclab import _linalg, _tol, cocycles, codes, projreps, search
from qeclab._linalg import orthonormal_columns
from qeclab.cli import parse_model_spec
from qeclab.codes import CodeSpace, clifford_code, code_dimension_formula, weak_stabilizer_code
from qeclab.models import (
    family_c2_x_d2n,
    gen_pauli_model,
    product_model,
)
from qeclab.projreps import _intertwiner_count, inner_product, is_irreducible, restrict
from qeclab.search import SearchError, enumerate_weak_stabilizer_codes, q3_probe


def test_enumerate_qubit_pauli_count():
    # by hand: six eigenlines (three mutually unbiased bases of two lines
    # each, from <Z>, <X>, <XZ>) plus the whole space from the trivial
    # subgroup; the full group admits no phase function at all
    model = gen_pauli_model(2)
    found = enumerate_weak_stabilizer_codes(model)
    assert len(found) == 7
    dims = sorted(code.dim for _, _, code in found)
    assert dims == [1, 1, 1, 1, 1, 1, 2]


def test_enumerate_qutrit_pauli_count():
    # four mutually unbiased bases of three lines each, plus the full space
    model = gen_pauli_model(3)
    found = enumerate_weak_stabilizer_codes(model)
    assert len(found) == 13
    dims = sorted(code.dim for _, _, code in found)
    assert dims == [1] * 12 + [3]


def test_enumerate_emits_reconstructible_codes():
    model = gen_pauli_model(3)
    for sub, f, code in enumerate_weak_stabilizer_codes(model):
        rebuilt = weak_stabilizer_code(model, sub, f)
        assert rebuilt is not None
        assert rebuilt.equals(code)
        assert code.dim == code_dimension_formula(model, sub, f)


def test_enumerate_deduplicates_projectors():
    model = gen_pauli_model(2)
    found = enumerate_weak_stabilizer_codes(model)
    for i in range(len(found)):
        for j in range(i + 1, len(found)):
            assert not found[i][2].equals(found[j][2])


def test_enumerate_cap_errors_not_truncates():
    model = gen_pauli_model(3)
    with pytest.raises(SearchError):
        enumerate_weak_stabilizer_codes(model, max_dim=2)
    with pytest.raises(SearchError):
        enumerate_weak_stabilizer_codes(model, max_order=4)


def test_enumerate_max_order_above_the_default_cap(monkeypatch):
    # xp:36 has order 72; the explicit cap is the one the lattice is built under
    monkeypatch.delenv("QECLAB_MAX_ORDER", raising=False)
    model = parse_model_spec("xp:36").model
    assert len(enumerate_weak_stabilizer_codes(model, max_order=72)) == 75


def test_enumerate_default_cap_is_the_environment_cap(monkeypatch):
    monkeypatch.setenv("QECLAB_MAX_ORDER", "72")
    model = parse_model_spec("xp:36").model
    assert len(enumerate_weak_stabilizer_codes(model)) == 75


def test_q3_probe_rejects_non_central_type():
    from qeclab.models import dihedral_xp_model

    with pytest.raises(SearchError):
        q3_probe(dihedral_xp_model(4))


def test_q3_probe_two_qubit_pauli_empty():
    model = product_model(gen_pauli_model(2), gen_pauli_model(2))
    hits = q3_probe(model)
    assert hits == []


def test_q3_probe_family_code_is_candidate_not_hit():
    model, sub, rho = family_c2_x_d2n(2)
    named = clifford_code(model, sub, rho)
    hits, candidates = q3_probe(model, return_candidates=True)
    assert any(r.code.equals(named) for r in candidates)
    assert not any(r.code.equals(named) for r in hits)


def test_q3_probe_hits_are_degenerate_lines():
    # every literal hit in this model is a one-dimensional code whose
    # stabilizer equals its logical group; the order criterion is satisfied
    # and the stabilizer is genuinely non-normal
    model, _, _ = family_c2_x_d2n(2)
    hits = q3_probe(model)
    assert len(hits) > 0
    for r in hits:
        assert r.code.dim == 1
        assert not r.stabilizer.is_normal()
        assert model.group.order == len(r.logical) * len(r.stabilizer)
        assert r.flags["is_weak_stabilizer"]
        assert r.flags["is_clifford"]


def test_q3_hit_reconstructs_from_its_stabilizer():
    model, _, _ = family_c2_x_d2n(2)
    hits = q3_probe(model)
    r = hits[0]
    rebuilt = weak_stabilizer_code(model, r.stabilizer, r.stabilizer_phase)
    assert rebuilt is not None
    assert rebuilt.equals(r.code)


def _witnesses(found):
    return [(sub.members, f.phases, code.projector()) for sub, f, code in found]


@pytest.mark.parametrize(
    "spec, seed, dropped",
    [
        ("genpauli:8", None, 0),
        ("c2d2n:2", None, 0),
        ("oddfam:3", None, 0),
        ("permprod(genpauli:2,2)", None, 74),
        ("prod(genpauli:2,genpauli:4)", 3, 0),
    ],
    ids=["genpauli:8", "c2d2n:2", "oddfam:3", "permprod(genpauli:2,2)",
         "prod(genpauli:2,genpauli:4)-relabeled"],
)
def test_dedup_keeps_the_pairwise_choice(spec, seed, dropped):
    # the maximal-witness key keeps the same first witness, in the same
    # order, as comparing each code's projector with every kept one
    model = _catalog_model(spec)
    if seed is not None:
        model = relabeled_model(model, seed)
    found = enumerate_weak_stabilizer_codes(model)
    want, built = pairwise_enumerated(model)
    assert built - len(want) == dropped
    assert len(found) == len(want) > 16
    for (s1, f1, p1), (s2, f2, p2) in zip(_witnesses(found), _witnesses(want)):
        assert s1 == s2 and f1 == f2
        assert np.abs(p1 - p2).max() < 1e-12


@pytest.mark.parametrize("spec", ["genpauli:4", "permprod(genpauli:2,2)"])
def test_a_false_stabilizer_member_fails_the_confirmation(spec):
    # a trace table whose column x is the identity's reads |T(x)| = d, so x
    # joins every S'; outside the true S it must fail the confirmation
    model = _catalog_model(spec)
    g, sigma = model.group, model.cocycle
    table = sigma.to_complex_table() * model.rep.character().values[g.mul]
    grid = sigma.den * g.exponent()
    sub = next(s for s in g.all_subgroups() if len(s) == 2)
    nums, den, dims = codes._constituents(model, sub)
    values = cocycles._phase_values(nums, den)
    num = search._maximal_witnesses(model, sub, nums, den, values, dims, table, grid)
    x = next(x for x in range(g.order) if (num[:, x] < 0).all())
    forged = table.copy()
    forged[:, x] = table[:, g.identity]
    with pytest.raises(RuntimeError, match="failed its confirmation"):
        search._maximal_witnesses(model, sub, nums, den, values, dims, forged, grid)


@pytest.mark.parametrize("spec", ["c2d2n:2", "oddfam:3", "genpauli:8"])
def test_q3_probe_candidates_are_distinct_codes(spec):
    # q3_probe drops no candidate: each code is new to the pairwise dedup
    _, candidates = q3_probe(_catalog_model(spec), return_candidates=True)
    kept = PairwiseDedup(_catalog_model(spec).dim)
    assert all(kept.add_if_new(r.code.projector()) for r in candidates)


def test_enumerate_and_q3_build_no_projector_and_draw_nothing(monkeypatch):
    # enumerate keys codes by exact maximal witnesses: it builds one code
    # per kept key, in one codes._eigenspaces row each, forms no dedup
    # projector and draws no random number; q3_probe forms no projector
    # either (its commutant split draws seeded numbers)
    model = _catalog_model("permprod(genpauli:2,2)")
    rows = []
    raw_eigenspaces = search._eigenspaces

    def projector(code):
        raise AssertionError("projector formed during the search")

    def eigenspaces(model, sub, values, *args):
        rows.append(len(values))
        return raw_eigenspaces(model, sub, values, *args)

    def no_rng(*args, **kwargs):
        raise AssertionError("random number drawn during the enumeration")

    monkeypatch.setattr(CodeSpace, "projector", projector)
    monkeypatch.setattr(search, "_eigenspaces", eigenspaces)
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", no_rng)
        found = enumerate_weak_stabilizer_codes(model)
    assert len(found) == sum(rows) == 95
    hits, candidates = q3_probe(_catalog_model("oddfam:3"), return_candidates=True)
    assert (len(hits), len(candidates)) == (48, 115)


@pytest.mark.parametrize(
    "spec, hits, candidates",
    [("c2d2n:2", 16, 43), ("oddfam:3", 48, 115), ("genpauli:8", 0, 155)],
)
def test_q3_probe_counts(spec, hits, candidates):
    found, examined = q3_probe(parse_model_spec(spec).model, return_candidates=True)
    assert (len(found), len(examined)) == (hits, candidates)


@pytest.mark.parametrize("spec", ["xp:9", "xp:15"])
def test_constituents_of_order_two_restrictions(spec):
    # the restriction to {e, x} inherits a cocycle whose denominator (9 on
    # xp:9) exceeds 4|H| = 8, so pieces snapped afresh by make_rep fail;
    # pieces validated against the inherited cocycle split every one
    model = parse_model_spec(spec).model
    subs = [sub for sub in model.group.all_subgroups() if len(sub) == 2]
    assert len(subs) == model.group.order // 2
    for sub in subs:
        res = restrict(model.rep, sub)
        pieces = irreducible_constituents(res)
        assert sum(piece.dim for piece in pieces) == model.dim
        for piece in pieces:
            assert piece.cocycle == res.cocycle
            assert abs(inner_product(piece.character(), piece.character()) - 1) < 1e-7


def test_q3_probe_builds_no_hom_space(monkeypatch):
    # the commutant is a Reynolds average, counts come from characters, each
    # candidate's code is the eigenspace that split its constituent off, and
    # classify rebuilds no eigenspace; search binds none of hom_space,
    # clifford_code and orthonormal_columns, so every call goes through the
    # patched modules
    model = parse_model_spec("oddfam:3").model
    raw_hom, raw_clifford, raw_weak = projreps.hom_space, codes.clifford_code, codes.weak_stabilizer_code
    raw_orthonormal = _linalg.orthonormal_columns
    calls = {
        "commutant": 0, "intertwiner": 0, "clifford_code": 0, "weak_stabilizer_code": 0,
        "orthonormal_columns": 0,
    }

    def hom(r1, r2):
        calls["commutant" if r1 is r2 else "intertwiner"] += 1
        return raw_hom(r1, r2)

    def clifford(*args):
        calls["clifford_code"] += 1
        return raw_clifford(*args)

    def weak(*args):
        calls["weak_stabilizer_code"] += 1
        return raw_weak(*args)

    def orthonormal(*args):
        calls["orthonormal_columns"] += 1
        return raw_orthonormal(*args)

    assert not hasattr(search, "hom_space") and not hasattr(codes, "hom_space")
    assert not hasattr(search, "clifford_code") and not hasattr(search, "orthonormal_columns")
    monkeypatch.setattr(projreps, "hom_space", hom)
    monkeypatch.setattr(codes, "clifford_code", clifford)
    monkeypatch.setattr(codes, "weak_stabilizer_code", weak)
    monkeypatch.setattr(_linalg, "orthonormal_columns", orthonormal)
    monkeypatch.setattr(codes, "orthonormal_columns", orthonormal)
    hits, candidates = q3_probe(model, return_candidates=True)
    assert (len(hits), len(candidates)) == (48, 115)
    assert calls["weak_stabilizer_code"] == 0
    assert calls["commutant"] == calls["intertwiner"] == 0
    assert calls["clifford_code"] == calls["orthonormal_columns"] == 0


@pytest.mark.parametrize("spec", ["c2d2n:2", "oddfam:3"])
def test_a_split_basis_tilted_off_invariance_fails_the_intertwiner_test(spec, monkeypatch):
    # q3_probe keeps each candidate's split basis B as its code after
    # checking pi(h)B = B rho(h) on every h; an orthonormal B tilted off
    # the invariant span, with its piece kept, must make it raise
    raw = search._split_constituents
    rng = np.random.default_rng(0)

    def tilted(rep):
        out = []
        for piece, basis in raw(rep):
            noise = rng.normal(size=basis.shape) + 1j * rng.normal(size=basis.shape)
            out.append((piece, orthonormal_columns(basis + 1e-6 * noise)))
        return out

    monkeypatch.setattr(search, "_split_constituents", tilted)
    with pytest.raises(RuntimeError, match="split basis is not an intertwiner"):
        q3_probe(_catalog_model(spec))


@pytest.mark.parametrize("spec", ["genpauli:4", "oddfam:3", "c2d2n:2", "xp:9", "xp:15"])
def test_constituents_match_the_commutant_svd_split(spec):
    # the Reynolds split and the hom_space split, both in canonical order,
    # give the same pieces: same dim, cocycle and character, and the same
    # isotypic projector, whose trace counts every copy of the piece
    model = parse_model_spec(spec).model
    for sub in model.group.all_subgroups():
        res = restrict(model.rep, sub)
        got = irreducible_constituents(res)
        want = sorted(commutant_split_oracle(res), key=search._canonical_key)
        assert [search._canonical_key(p) for p in got] == [search._canonical_key(p) for p in want]
        for piece, other in zip(got, want):
            assert piece.cocycle == other.cocycle == res.cocycle
            projector = isotypic_projector(res, piece)
            assert np.linalg.norm(projector - isotypic_projector(res, other)) < _tol.DERIVED
            copies = sum(search._canonical_key(p) == search._canonical_key(piece) for p in got)
            assert abs(np.trace(projector) - piece.dim * copies) < _tol.DERIVED
            assert _intertwiner_count(piece, res) == copies


@functools.lru_cache(maxsize=None)
def _catalog_model(spec):
    return parse_model_spec(spec).model


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reynolds_element_commutes_and_pieces_are_irreducible(data):
    model = _catalog_model(data.draw(st.sampled_from(CATALOG_64)))
    g = model.group
    gens = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=2))
    res = restrict(model.rep, g.subgroup_generated(gens))
    t = search._commutant_element(res, data.draw(st.integers(0, 2**16)))
    assert np.abs(t - t.conj().T).max() == 0
    commutators = res.matrices @ t - t @ res.matrices
    assert np.linalg.norm(commutators, axis=(1, 2)).max() < _tol.SCAN * max(1.0, np.linalg.norm(t))
    pieces = irreducible_constituents(res)
    assert sum(piece.dim for piece in pieces) == res.dim
    assert all(is_irreducible(piece) and piece.cocycle == res.cocycle for piece in pieces)
    keys = [search._canonical_key(piece) for piece in pieces]
    assert keys == sorted(keys)


# sha256 of the candidates' (logical, stabilizer, stabilizer phase) in order:
# subgroups in lattice order, constituents of one restriction by
# _canonical_key.  A change here is a change of q3_probe's candidate order.
_CANDIDATE_ORDER = {
    "c2d2n:2": "aab8ca39611bf8b48fcebdfb355e84fb2dd50d5270f18387f5477de0d57ae993",
    "oddfam:3": "ad0a1fc283c3eba6566748f68ffbe12b8ef5ce93f4e5ea831a9e0ed220a2d4c8",
}


@pytest.mark.parametrize("spec", sorted(_CANDIDATE_ORDER))
def test_q3_probe_candidate_order_is_pinned(spec):
    _, candidates = q3_probe(parse_model_spec(spec).model, return_candidates=True)
    rows = [
        [r.to_json()[key] for key in ("logical", "stabilizer", "stabilizer_phase")]
        for r in candidates
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _CANDIDATE_ORDER[spec]


# -- pieces accepted by their invariance norms ------------------------------


@pytest.mark.parametrize("spec", ["oddfam:3", "genpauli:8"])
@pytest.mark.parametrize("seed", [None, 3])
def test_constituent_pieces_run_no_rep_validation(monkeypatch, spec, seed):
    # every piece is accepted by compressed_action's invariance norms, so no
    # split runs a rep validation
    model = _catalog_model(spec)
    if seed is not None:
        model = relabeled_model(model, seed)
    restrictions = [restrict(model.rep, sub) for sub in model.group.all_subgroups()]
    validated = []
    raw = projreps.ProjectiveRep._validate

    def counted(rep):
        validated.append(rep)
        raw(rep)

    monkeypatch.setattr(projreps.ProjectiveRep, "_validate", counted)
    splits = [irreducible_constituents(res) for res in restrictions]
    assert sum(len(pieces) > 1 for pieces in splits) > 0
    assert validated == []


def _invariant_bases(res):
    """An orthonormal basis of each isotypic component of a restriction."""
    return [orthonormal_columns(isotypic_projector(res, piece))
            for piece in irreducible_constituents(res)]


_CENTRAL_64 = [s for s in CATALOG_64 if s != "pauli:3" and _catalog_model(s).is_central_type()]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_piece_the_split_accepts_is_one_that_on_subspace_accepts(data):
    # an isotypic basis tilted by eps: whenever the split's rule (every
    # invariance norm of compressed_action below _tol.SCAN) accepts it,
    # on_subspace's validation accepts it too, with the same matrices.  The
    # untilted basis is accepted and a tilt of 1e-5 or more refused (the
    # smallest largest norm measured over these models was 1.5 eps)
    model = _catalog_model(data.draw(st.sampled_from(_CENTRAL_64)))
    subs = model.group.all_subgroups()
    res = restrict(model.rep, subs[data.draw(st.integers(0, len(subs) - 1))])
    bases = _invariant_bases(res)
    basis = bases[data.draw(st.integers(0, len(bases) - 1))]
    if basis.shape[1] == res.dim:
        return   # the whole space has no complement to tilt into
    eps = data.draw(st.sampled_from([0.0, 1e-15, 1e-13, 1e-12, 1e-11, 1e-10, 1e-8, 1e-5, 1e-3, 0.1]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    r = rng.normal(size=basis.shape) + 1j * rng.normal(size=basis.shape)
    r -= basis @ (basis.conj().T @ r)
    tilted = orthonormal_columns(basis + eps * r / np.linalg.norm(r))
    action, inside, _ = _linalg.compressed_action(res.matrices, tilted)
    if eps == 0.0:
        assert inside.max() < _tol.SCAN
    if eps >= 1e-5:
        assert not inside.max() < _tol.SCAN
    if inside.max() < _tol.SCAN:
        want = res.on_subspace(tilted)
        assert np.array_equal(action, want.matrices) and want.cocycle is res.cocycle
