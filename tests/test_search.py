import numpy as np
import pytest

from helpers import PairwiseDedup

from qeclab import codes, search
from qeclab.cli import parse_model_spec
from qeclab.codes import CodeSpace, clifford_code, code_dimension_formula, weak_stabilizer_code
from qeclab.models import (
    family_c2_x_d2n,
    gen_pauli_model,
    product_model,
)
from qeclab.projreps import inner_product, restrict
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


def _summary(report):
    out = report.to_json()
    out.pop("code")
    return out


def test_projector_set_matches_pairwise_dedup():
    rng = np.random.default_rng(3)
    lines = [
        CodeSpace.from_vectors(4, rng.normal(size=4) + 1j * rng.normal(size=4)).projector()
        for _ in range(40)
    ]
    stream = [lines[i] + 1e-9 * rng.normal() for i in rng.integers(0, 40, size=300)]
    fast, slow = search._ProjectorSet(4), PairwiseDedup(4)
    assert [fast.add_if_new(p) for p in stream] == [slow.add_if_new(p) for p in stream]

    # projectors of every rank 1..5 in dimension 6, plus same-rank near
    # duplicates inside (5e-8) and outside (3e-7) the 1e-7 cut
    codes = [
        CodeSpace.from_vectors(6, rng.normal(size=(k, 6)) + 1j * rng.normal(size=(k, 6)))
        for k in rng.integers(1, 6, size=30)
    ]
    assert {c.dim for c in codes} == {1, 2, 3, 4, 5}
    projectors = [c.projector() for c in codes]

    def perturbed(p, size):
        a = rng.normal(size=p.shape) + 1j * rng.normal(size=p.shape)
        h = a + a.conj().T
        return p + size * h / np.linalg.norm(h)

    stream = [projectors[i] + 1e-9 * rng.normal() for i in rng.integers(0, 30, size=200)]
    stream += [perturbed(p, 5e-8) for p in projectors[:10]]
    stream += [perturbed(p, 3e-7) for p in projectors[10:20]]
    stream = [stream[i] for i in rng.permutation(len(stream))]
    fast, slow = search._ProjectorSet(6), PairwiseDedup(6)
    kept = [fast.add_if_new(p) for p in stream]
    assert kept == [slow.add_if_new(p) for p in stream]
    assert sum(kept) == len(slow.kept) > 30


@pytest.mark.parametrize("spec", ["genpauli:8", "c2d2n:2", "oddfam:3"])
def test_dedup_keeps_the_pairwise_choice(spec, monkeypatch):
    # the vectorized dedup keeps the same first witness, in the same order,
    # as comparing with each kept projector in turn
    model = parse_model_spec(spec).model
    found = enumerate_weak_stabilizer_codes(model)
    hits, candidates = q3_probe(model, return_candidates=True)
    monkeypatch.setattr(search, "_ProjectorSet", PairwiseDedup)
    want_found = enumerate_weak_stabilizer_codes(model)
    want_hits, want_candidates = q3_probe(model, return_candidates=True)
    assert len(found) == len(want_found) > 16
    for (s1, f1, p1), (s2, f2, p2) in zip(_witnesses(found), _witnesses(want_found)):
        assert s1 == s2 and f1 == f2
        assert np.abs(p1 - p2).max() < 1e-12
    assert [_summary(r) for r in hits] == [_summary(r) for r in want_hits]
    assert [_summary(r) for r in candidates] == [_summary(r) for r in want_candidates]


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
        pieces = search._irreducible_constituents(res)
        assert sum(piece.dim for piece in pieces) == model.dim
        for piece in pieces:
            assert piece.cocycle == res.cocycle
            assert abs(inner_product(piece.character(), piece.character()) - 1) < 1e-7


def test_q3_probe_builds_hom_spaces_only_for_their_bases(monkeypatch):
    # a hom space is built for a commutant, hom_space(rep, rep), or for the
    # intertwiner clifford_code returns; counts come from characters, and
    # classify rebuilds no eigenspace
    model = parse_model_spec("oddfam:3").model
    raw_hom, raw_clifford, raw_weak = search.hom_space, search.clifford_code, codes.weak_stabilizer_code
    calls = {"commutant": 0, "intertwiner": 0, "clifford_code": 0, "weak_stabilizer_code": 0}

    def hom(r1, r2):
        calls["commutant" if r1 is r2 else "intertwiner"] += 1
        return raw_hom(r1, r2)

    def clifford(*args):
        calls["clifford_code"] += 1
        return raw_clifford(*args)

    def weak(*args):
        calls["weak_stabilizer_code"] += 1
        return raw_weak(*args)

    monkeypatch.setattr(search, "hom_space", hom)
    monkeypatch.setattr(codes, "hom_space", hom)
    monkeypatch.setattr(search, "clifford_code", clifford)
    monkeypatch.setattr(codes, "weak_stabilizer_code", weak)
    hits, candidates = q3_probe(model, return_candidates=True)
    assert (len(hits), len(candidates)) == (48, 115)
    assert calls["weak_stabilizer_code"] == 0
    assert calls["intertwiner"] == calls["clifford_code"] >= len(candidates)
    assert calls["commutant"] > 0
