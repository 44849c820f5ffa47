import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CATALOG_64,
    PairwiseDedup,
    canonical_key,
    code_projector,
    commutant_split_oracle,
    conjugated_model,
    eigh_code_basis,
    enumerate_codes_loop,
    irreducible_constituents,
    isotypic_projector,
    pairwise_enumerated,
    relabeled_model,
    split_restriction_oracle,
)

from qeclab import _linalg, _tol, cocycles, codes, groups, projreps, search
from qeclab._linalg import orthonormal_columns
from qeclab.cli import parse_model_spec
from qeclab.codes import (
    CodeSpace,
    classify,
    clifford_code,
    code_dimension_formula,
    weak_stabilizer_code,
)
from qeclab.models import (
    family_c2_x_d2n,
    gen_pauli_model,
    product_model,
)
from qeclab.projreps import _intertwiner_count, _reynolds, inner_product, is_irreducible, restrict
from qeclab.search import SearchError, enumerate_weak_stabilizer_codes, q3_probe


@functools.lru_cache(maxsize=None)
def _catalog_model(spec):
    return parse_model_spec(spec).model


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


def _enumerated(model):
    """(enumerate_weak_stabilizer_codes(model), each code's maximal witness
    key, each code's trace row), the keys and rows read from
    search._maximal_witnesses, those of the first row of each key in
    order."""
    read, raw = [], search._maximal_witnesses

    def witnesses(*args):
        keys, traces = got = raw(*args)
        read.extend(zip(keys, traces))
        return got

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_maximal_witnesses", witnesses)
        found = enumerate_weak_stabilizer_codes(model)
    first = {}
    for key, row in read:
        first.setdefault(key.tobytes(), (key, row))
    return found, [key for key, _ in first.values()], [row for _, row in first.values()]


def _visited(model):
    """(the member tuples of the subgroups the enumeration solves on, in
    order; its (found, keys))."""
    visited = []

    def constituents(model, subs):
        visited.extend(sub.members for sub in subs)
        return codes._constituents(model, subs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_constituents", constituents)
        return visited, _enumerated(model)


def _admissible_subgroups(model):
    sigma = model.cocycle
    return [
        sub.members for sub in model.group.all_subgroups()
        if cocycles.find_trivializing_phase(sigma.restrict(sub), domain=sub) is not None
    ]


@pytest.mark.parametrize("spec", CATALOG_64)
def test_enumeration_visits_the_subgroups_with_a_trivializer(spec):
    # the commuting-pair test is exact on abelian subgroups and only
    # necessary on others, yet no catalog subgroup passes it without a
    # trivializer: pauli:3 keeps 514 of 2,825, c2d2n:8 61 of 137
    model = parse_model_spec(spec).model
    assert _visited(model)[0] == _admissible_subgroups(model)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(["genpauli:8", "pauli:3", "c2d2n:8", "oddfam:3", "xp:12"]),
    st.integers(0, 2**32 - 1),
)
def test_enumeration_visits_the_same_family_on_relabeled_groups(spec, seed):
    # abelian (genpauli:8, pauli:3) and non-abelian groups: a renumbering
    # changes which representatives the extension tries, never the family
    model = relabeled_model(_catalog_model(spec), seed)
    assert _visited(model)[0] == _admissible_subgroups(model)


def _same_codes(got, want):
    """Two (found, keys, ...) lists of _enumerated's form agree in
    order: subgroup objects, phases to the bytes, basis bytes and keys."""
    (found, keys, *_), (found_want, keys_want, *_) = got, want
    assert len(found) == len(found_want) == len(keys) == len(keys_want)
    for (s1, f1, c1), (s2, f2, c2) in zip(found, found_want):
        assert s1 is s2 and f1.den == f2.den and np.array_equal(f1.num, f2.num)
        assert f1.values.tobytes() == f2.values.tobytes()
        assert c1.basis.tobytes() == c2.basis.tobytes()
    assert all(np.array_equal(k1, k2) for k1, k2 in zip(keys, keys_want))


@pytest.mark.parametrize("spec", CATALOG_64)
def test_enumeration_matches_the_unpruned_loop(spec):
    # the rows of one subgroup order are read and built together; the loop
    # reads each subgroup of the unpruned lattice alone, with its own
    # projector average and pivoted Cholesky one matrix at a time
    # (pivoted_cholesky_basis), and gets the same codes to the byte
    model = parse_model_spec(spec).model
    _same_codes(_enumerated(model), enumerate_codes_loop(model))


def test_enumeration_matches_the_unpruned_loop_on_a_relabeled_model():
    model = relabeled_model(parse_model_spec("c2d2n:3").model, 5)
    assert not model.group.is_abelian()
    _same_codes(_enumerated(model), enumerate_codes_loop(model))


def _eigh_projector_gaps(model):
    """The largest entry of |P - P_eigh| over the enumerated codes, P_eigh
    from the eigh oracle's basis of the same (H, f) average."""
    found = enumerate_weak_stabilizer_codes(model)
    assert found
    gaps = []
    for sub, f, code in found:
        want = eigh_code_basis(code_projector(model, sub, f.values))
        gaps.append(np.abs(code.projector() - want @ want.conj().T).max())
    return max(gaps)


@pytest.mark.parametrize("spec", CATALOG_64)
def test_enumerated_projectors_are_the_eigh_oracles(spec):
    # the pivoted Cholesky basis spans what the eigenvectors of eigenvalue
    # above 1/2 span
    assert _eigh_projector_gaps(_catalog_model(spec)) < 1e-12


@pytest.mark.parametrize("make, monomial", [(lambda m: relabeled_model(m, 7), True),
                                             (lambda m: conjugated_model(m, 3), False)],
                         ids=["relabeled", "conjugated"])
def test_enumerated_projectors_are_the_eigh_oracles_off_the_catalog_basis(make, monomial):
    # a relabeled model, and one conjugated by a random unitary, where the
    # columns of the pi(x) are no longer multiples of basis vectors
    base = _catalog_model("c2d2n:3")
    model = make(base)
    assert np.allclose(np.abs(model.rep.matrices).max(axis=1), 1) == monomial
    assert _eigh_projector_gaps(model) < 1e-12
    assert len(enumerate_weak_stabilizer_codes(model)) == len(enumerate_weak_stabilizer_codes(base))


@pytest.mark.parametrize("spec", CATALOG_64)
def test_enumerated_bases_are_coset_states_on_monomial_models(spec):
    # pi(x) e_j = v_x(j) e_{p_x(j)} on every catalog model: each basis
    # column lies on one H-orbit O of basis indices, with entries of
    # modulus 1/sqrt|O| there, real and positive at the orbit's least index
    model = _catalog_model(spec)
    mats = model.rep.matrices
    moved = np.abs(mats).argmax(axis=1)                       # [x, j] -> p_x(j)
    assert np.allclose(np.abs(mats[np.arange(len(mats))[:, None], moved, np.arange(model.dim)]), 1)
    for sub, _, code in enumerate_weak_stabilizer_codes(model):
        orbits = moved[list(sub.members)]                     # [h, j] -> p_h(j)
        for col in code.basis.T:
            support = np.flatnonzero(np.abs(col) > 1e-6)
            orbit = np.unique(orbits[:, support[0]])
            assert np.array_equal(support, orbit)
            assert np.abs(np.abs(col[orbit]) - 1 / np.sqrt(len(orbit))).max() < 1e-12
            assert np.abs(col[np.setdiff1d(np.arange(model.dim), orbit)]).max(initial=0) < 1e-12
            assert abs(col[orbit[0]].imag) < 1e-12 and col[orbit[0]].real > 0


def test_the_enumeration_and_the_one_row_build_make_no_eigh_call(monkeypatch):
    eighs, eigh = [], np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        eighs.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for spec in ("c2d2n:3", "oddfam:3", "prod(genpauli:2,genpauli:4)"):
        model = parse_model_spec(spec).model
        for sub, f, code in enumerate_weak_stabilizer_codes(model):
            assert weak_stabilizer_code(model, sub, f).basis.tobytes() == code.basis.tobytes()
    assert eighs == []


@pytest.mark.parametrize("spec", ["pauli:2", "c2d2n:3", "oddfam:3"])
def test_the_per_order_build_is_blocked_and_the_blocks_change_no_byte(spec, monkeypatch):
    # every gather of pi's stack in the enumeration (codes._eigenspaces)
    # holds at most _PRODUCT_BLOCK_ENTRIES entries, yet a block holds more
    # than one row; blocks of one row, in the eigenspace build and in the
    # witness reader, give the same codes, phases, keys and trace rows to
    # the byte
    model = parse_model_spec(spec).model
    want = _enumerated(model)
    gathers = []

    class Recording(np.ndarray):
        def __getitem__(self, index):
            got = np.asarray(super().__getitem__(index))
            if isinstance(index, np.ndarray):
                gathers.append(got.shape)
            return got

    monkeypatch.setattr(model.rep, "matrices", model.rep.matrices.view(Recording))
    _same_codes(_enumerated(model), want)
    assert gathers and max(np.prod(shape) for shape in gathers) <= _linalg._PRODUCT_BLOCK_ENTRIES
    assert max(shape[0] for shape in gathers) > 1
    gathers.clear()
    monkeypatch.setattr(_linalg, "_PRODUCT_BLOCK_ENTRIES", 1)
    got = _enumerated(model)
    _same_codes(got, want)
    assert [row.tobytes() for row in got[2]] == [row.tobytes() for row in want[2]]
    assert {shape[0] for shape in gathers} == {1} and len(gathers) == len(want[0])


def test_the_search_checks_the_order_cap_once(monkeypatch):
    # search._check_caps raises SearchError before any lattice is built, and
    # the lattice checks no cap of its own; all_subgroups keeps its own
    # ValueError, checked before it builds the lattice
    monkeypatch.delenv("QECLAB_MAX_ORDER", raising=False)
    lattices = []
    raw = groups.FiniteGroup._lattice
    monkeypatch.setattr(groups.FiniteGroup, "_lattice", lambda self, bad=None: lattices.append(bad) or raw(self, bad))
    model = parse_model_spec("xp:36").model   # order 72
    with pytest.raises(SearchError, match="exceeds the search cap 64"):
        enumerate_weak_stabilizer_codes(model)
    with pytest.raises(SearchError, match="exceeds the search cap 64"):
        q3_probe(parse_model_spec("genpauli:9").model)
    with pytest.raises(ValueError, match="capped at order 64"):
        model.group.all_subgroups()
    assert lattices == []
    assert len(enumerate_weak_stabilizer_codes(model, max_order=72)) == 75
    assert len(lattices) == 1 and lattices[0] is not None


def _copy(model, code):
    """An untagged copy of an enumerated code, which classify reads from its action."""
    copy = CodeSpace(model.dim, code.basis.copy())
    assert copy._source is None and code._source is not None
    return copy


@pytest.mark.parametrize("spec, seed", [(spec, None) for spec in CATALOG_64] + [("c2d2n:3", 5)])
def test_key_reports_equal_classify_on_every_enumerated_code(spec, seed):
    # classify reads each enumerated code's report from its maximal witness
    # key (codes._key_reports), and an untagged copy's from its action: L
    # is the set of g fixing the key, S and f_S are the key, and D and the
    # partitioning test need the action only where S is not normal
    model = parse_model_spec(spec).model
    if seed is not None:
        model = relabeled_model(model, seed)
        assert not model.group.is_abelian()
    found = enumerate_weak_stabilizer_codes(model)
    reports = [classify(model, code) for _, _, code in found]
    copies = [_copy(model, code) for _, _, code in found]
    assert [r.to_json() for r in reports] == [classify(model, copy).to_json() for copy in copies]
    if seed is not None:
        assert 0 < sum(not r.stabilizer.is_normal() for r in reports) < len(reports)


@pytest.mark.parametrize("spec", ["genpauli:4", "pauli:2", "xp:9", "c2d2n:3", "oddfam:3",
                                  "permprod(genpauli:2,2)", "prod(genpauli:2,genpauli:4)"])
def test_the_key_readers_trace_rows_are_the_code_action_traces(spec, monkeypatch):
    # the key reader reads L's character on W from the rows the witness
    # pass formed, T(x) = tr(P pi(x)) from the average over H; the code
    # action on the built basis, tr(B* pi(x) B), agrees on each code's L
    model = _catalog_model(spec)
    handed, raw = [], search._key_reports

    def recorded(model, built, keys, traces, conj):
        handed.extend(zip(built, traces))
        return raw(model, built, keys, traces, conj)

    monkeypatch.setattr(search, "_key_reports", recorded)
    found = enumerate_weak_stabilizer_codes(model)
    assert [code for code, _ in handed] == [code for _, _, code in found]
    for code, row in handed:
        logical, b = list(code._source.logical.members), code.basis
        action = np.trace(b.conj().T @ model.rep.matrices[logical] @ b, axis1=1, axis2=2)
        assert np.abs(row[logical] - action).max() < 1e-12


def test_the_key_reports_action_is_blocked_and_the_blocks_change_no_report(monkeypatch):
    # the codes whose S is not normal get one stacked action per block of
    # one code dimension; blocks of one code give the same reports
    model = parse_model_spec("c2d2n:3").model
    stacks = []
    raw = codes._actions
    monkeypatch.setattr(codes, "_actions", lambda m, bases: stacks.append(len(bases)) or raw(m, bases))
    found = enumerate_weak_stabilizer_codes(model)
    want = [classify(model, code).to_json() for _, _, code in found]
    acted = sum(stacks)
    assert max(stacks) > 1 and 0 < acted < len(found)
    stacks.clear()
    monkeypatch.setattr(_linalg, "_PRODUCT_BLOCK_ENTRIES", 1)
    found = enumerate_weak_stabilizer_codes(model)
    assert [classify(model, code).to_json() for _, _, code in found] == want
    assert stacks == [1] * acted


def test_key_reports_act_on_no_code_when_every_stabilizer_is_normal(monkeypatch):
    model = parse_model_spec("pauli:2").model
    calls = []
    for module in (codes, _linalg):
        monkeypatch.setattr(module, "compressed_action", lambda *args: calls.append(args))
    monkeypatch.setattr(codes, "_code_action", lambda *args: calls.append(args))
    found = enumerate_weak_stabilizer_codes(model)
    reports = [classify(model, code) for _, _, code in found]
    assert not calls and len(reports) == len(found) == 91
    assert all(r.stabilizer.is_normal() for r in reports)


def _counted_key_reports(monkeypatch):
    """The number of codes of each codes._key_reports call the enumeration
    makes, in order, for the enumerations made after it is installed."""
    calls = []
    raw = search._key_reports

    def counted(model, chunk, *rest):
        calls.append(len(chunk))
        return raw(model, chunk, *rest)

    monkeypatch.setattr(search, "_key_reports", counted)
    return calls


def test_the_enumeration_reads_the_reports_of_each_order_in_one_batch(monkeypatch):
    # one key reader call per subgroup order that has new codes, on the
    # codes of that order, each of which then holds its report
    model = parse_model_spec("prod(genpauli:2,genpauli:4)").model
    calls = _counted_key_reports(monkeypatch)
    found = enumerate_weak_stabilizer_codes(model)
    orders = [len(list(same)) for _, same in itertools.groupby(found, key=lambda row: len(row[0]))]
    assert len(found) == 515 and calls == orders and len(orders) > 1
    assert all(isinstance(code._source, codes.CodeReport) for _, _, code in found)


def test_classify_returns_the_report_the_enumeration_attached(monkeypatch):
    # the 515 classify calls read no key and act on no code: each returns
    # the report attached to its code, the same object on every call
    model = parse_model_spec("prod(genpauli:2,genpauli:4)").model
    found = enumerate_weak_stabilizer_codes(model)
    calls, actions = _counted_key_reports(monkeypatch), []
    monkeypatch.setattr(codes, "_code_action", lambda *args: actions.append(args))
    reports = [classify(model, code) for _, _, code in found]
    assert len(reports) == 515 and calls == [] and actions == []
    assert all(report is code._source for (_, _, code), report in zip(found, reports))
    assert all(classify(model, code) is report for (_, _, code), report in zip(found, reports))


def test_classify_on_another_model_object_takes_the_action_path(monkeypatch):
    # the attached report serves only the model object the codes were
    # enumerated on: an equal model parsed again, or a relabeling, is
    # classified from the code's action, and the equal model gets the
    # attached report's JSON
    model = parse_model_spec("c2d2n:3").model
    found = enumerate_weak_stabilizer_codes(model)
    actions = []
    raw = codes._code_action
    monkeypatch.setattr(codes, "_code_action", lambda *args: actions.append(args) or raw(*args))
    again, relabeled = parse_model_spec("c2d2n:3").model, relabeled_model(model, 5)
    got = [classify(again, code).to_json() for _, _, code in found]
    for _, _, code in found[::9]:
        classify(relabeled, code)
    want = [classify(model, code).to_json() for _, _, code in found]
    assert got == want and len(actions) == len(found) + len(found[::9])


def test_enumerated_bases_are_read_only():
    model = parse_model_spec("c2d2n:3").model
    found = enumerate_weak_stabilizer_codes(model)
    for _, _, code in found:
        assert not code.basis.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            code.basis[0, 0] = 0
    copy = _copy(model, found[0][2])
    copy.basis[0, 0] = copy.basis[0, 0]


@pytest.mark.parametrize("spec", ["prod(genpauli:2,genpauli:4)", "c2d2n:8", "oddfam:3"])
def test_enumeration_interns_only_the_subgroups_it_visits(spec):
    # the rejected subgroups never get a Subgroup unless one is some
    # report's logical group, and the full lattice is neither built nor kept
    model = parse_model_spec(spec).model
    g = model.group
    visited, (found, *_) = _visited(model)
    logicals = {code._source.logical.members for _, _, code in found}
    assert g._lattice_members is None
    assert set(g._interned) <= set(visited) | logicals
    assert set(visited) < set(g._lattice())


def _counted_splits(monkeypatch):
    """The member tuples of every subgroup q3_probe splits, in order."""
    walked = []
    raw = search._split_restrictions

    def split_counted(matrices, members):
        walked.extend(tuple(row) for row in members)
        return raw(matrices, members)

    monkeypatch.setattr(search, "_split_restrictions", split_counted)
    return walked


def _key(piece):
    """canonical_key of a piece rep."""
    return canonical_key(piece.dim, piece.character().values)


def _order_stacks(model, subs=None):
    """The subgroups (all_subgroups by default) in lists of one order."""
    subs = model.group.all_subgroups() if subs is None else subs
    return [list(same) for _, same in itertools.groupby(subs, key=len)]


def _split_stacks(model, stacks):
    """search._split_restrictions of each stack."""
    return [search._split_restrictions(model.rep.matrices, [h.members for h in same]) for same in stacks]


@pytest.mark.parametrize("spec", ["oddfam:3", "genpauli:8"])
def test_q3_probe_walks_the_full_lattice(spec, monkeypatch):
    # a Clifford code needs no admissible phase, so q3_probe splits pi|H on
    # every subgroup whose index divides dim pi, admissible or not
    model = parse_model_spec(spec).model
    walked = _counted_splits(monkeypatch)
    q3_probe(model, return_candidates=True)
    g = model.group
    assert walked == [h.members for h in g.all_subgroups() if model.dim % h.index() == 0]
    admissible = set(_admissible_subgroups(model))
    assert any(members not in admissible for members in walked)


_CENTRAL_ALL = [s for s in CATALOG_64 if _catalog_model(s).is_central_type()]


@functools.lru_cache(maxsize=None)
def _q3_full(spec):
    """q3_probe(return_candidates=True) on a fresh model of spec."""
    return q3_probe(parse_model_spec(spec).model, return_candidates=True)


@pytest.mark.parametrize("spec", _CENTRAL_ALL)
def test_q3_reports_equal_classify_on_every_candidate(spec):
    # each report is read from its constituent (search._clifford_reports);
    # classify reads the same code from its action on the whole group
    hits, candidates = _q3_full(spec)
    model = candidates[0].model
    assert [r.to_json() for r in candidates] == [classify(model, r.code).to_json() for r in candidates]
    assert all(r.flags["is_clifford"] and r.flags["is_partitioning"] for r in candidates)


@pytest.mark.parametrize("spec", _CENTRAL_ALL)
def test_q3_probe_acts_on_no_code(spec, monkeypatch):
    # every candidate's stabilizer phase snaps (codes._stabilizers' proof),
    # so no piece falls back to classify's action path
    actions = []
    raw = codes._code_action
    monkeypatch.setattr(codes, "_code_action", lambda *args: actions.append(args) or raw(*args))
    _, candidates = q3_probe(_catalog_model(spec), return_candidates=True)
    assert candidates and actions == []


def test_q3_probe_raises_on_a_stabilizer_phase_that_fails_to_snap(monkeypatch):
    # a piece whose stabilizer phase is not exact contradicts the proof in
    # codes._stabilizers, so the probe raises rather than classify it
    raw = cocycles._snap_phases

    def one_unsnapped(values, max_den, grid=None):
        num, den, mask = raw(values, max_den, grid)
        mask = mask.copy()
        mask[-1] = False
        return num, den, mask

    monkeypatch.setattr(codes, "_snap_phases", one_unsnapped)
    with pytest.raises(RuntimeError, match="failed to snap"):
        q3_probe(parse_model_spec("oddfam:3").model)


def test_q3_central_type_catalog_groups_that_are_not_abelian():
    # the hits-only probe walks these two and returns [] on the other 13
    nonabelian = [s for s in _CENTRAL_ALL if not _catalog_model(s).group.is_abelian()]
    assert len(_CENTRAL_ALL) == 15 and nonabelian == ["c2d2n:2", "oddfam:3"]


@pytest.mark.parametrize("spec", _CENTRAL_ALL)
def test_pruned_q3_hits_equal_the_full_walk(spec):
    # the hits-only call walks the same candidates, and returns [] at once
    # on an abelian group
    hits = q3_probe(parse_model_spec(spec).model)
    assert [r.to_json() for r in hits] == [r.to_json() for r in _q3_full(spec)[0]]


@pytest.mark.parametrize("spec", _CENTRAL_ALL)
def test_q3_hits_are_the_enumerated_weak_clifford_codes_with_s_not_normal(spec):
    # on a nice error basis a Clifford code is weak exactly when |G| = |L||S|
    # (Klappenecker and Roetteler), so the probe's hits are the enumerated
    # weak codes that are Clifford with S not normal; the two paths order
    # them differently (L's lattice order, the first witness's), so both
    # are compared sorted
    def fields(report):
        return json.dumps({k: v for k, v in report.to_json().items() if k != "code"}, sort_keys=True)

    hits = q3_probe(parse_model_spec(spec).model)
    model = parse_model_spec(spec).model
    weak = [classify(model, code) for _, _, code in enumerate_weak_stabilizer_codes(model)]
    want = [r for r in weak if r.flags["is_clifford"] and not r.stabilizer.is_normal()]
    assert sorted(map(fields, hits)) == sorted(map(fields, want))
    assert all(any(h.code.equals(r.code) for r in want) for h in hits)
    assert len(hits) == {"c2d2n:2": 16, "oddfam:3": 48}.get(spec, 0)


def test_q3_probe_on_a_dedekind_group_builds_no_lattice(monkeypatch):
    # every subgroup of pauli:3's abelian group is normal, so no stabilizer
    # can fail to be normal and the probe returns at once
    model = parse_model_spec("pauli:3").model
    walked = _counted_splits(monkeypatch)
    assert q3_probe(model) == []
    assert model.group._lattice_members is None and walked == []


def test_commutant_draws_are_cached_read_only_and_unchanged(monkeypatch):
    # A + A* depends on (dim, seed) alone; the cached draw is the fresh one,
    # byte for byte, and the split reads the same pieces with or without it
    def fresh(dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return a + a.conj().T

    for dim, seed in [(2, 11), (8, 12), (16, 2**16)]:
        got = search._hermitian_draw(dim, seed)
        assert not got.flags.writeable and got is search._hermitian_draw(dim, seed)
        assert got.tobytes() == fresh(dim, seed).tobytes()
    model = _catalog_model("oddfam:3")
    stacks = _order_stacks(model)
    cached = [pieces for split in _split_stacks(model, stacks) for pieces in split]
    monkeypatch.setattr(search, "_hermitian_draw", fresh)
    again = [pieces for split in _split_stacks(model, stacks) for pieces in split]
    assert len(again) == len(cached) == len(model.group.all_subgroups())
    for pieces, other in zip(cached, again):
        assert len(other) == len(pieces)
        for (p1, b1), (p2, b2) in zip(pieces, other):
            assert p1.tobytes() == p2.tobytes() and b1.tobytes() == b2.tobytes()


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
    _, nums, den, dims = codes._constituents(model, [sub])
    values, rows = cocycles._phase_values(nums, den), np.array([sub.members] * len(dims))
    num, _ = search._maximal_witnesses(model, rows, nums, values, dims, table, grid)
    x = next(x for x in range(g.order) if (num[:, x] < 0).all())
    forged = table.copy()
    forged[:, x] = table[:, g.identity]
    with pytest.raises(RuntimeError, match="failed its confirmation"):
        search._maximal_witnesses(model, rows, nums, values, dims, forged, grid)


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
    raw = search._split_restrictions
    rng = np.random.default_rng(0)

    def tilted(matrices, members):
        out = []
        for pieces in raw(matrices, members):
            out.append([])
            for piece, basis in pieces:
                noise = rng.normal(size=basis.shape) + 1j * rng.normal(size=basis.shape)
                out[-1].append((piece, orthonormal_columns(basis + 1e-6 * noise)))
        return out

    monkeypatch.setattr(search, "_split_restrictions", tilted)
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
        want = sorted(commutant_split_oracle(res), key=_key)
        assert [_key(p) for p in got] == [_key(p) for p in want]
        for piece, other in zip(got, want):
            assert piece.cocycle == other.cocycle == res.cocycle
            projector = isotypic_projector(res, piece)
            assert np.linalg.norm(projector - isotypic_projector(res, other)) < _tol.DERIVED
            copies = sum(_key(p) == _key(piece) for p in got)
            assert abs(np.trace(projector) - piece.dim * copies) < _tol.DERIVED
            assert _intertwiner_count(piece, res) == copies


def test_central_type_pieces_of_the_target_dimension_occur_once():
    # q3_probe reads multiplicity one from dim rho = target: on a central-type
    # model chi_pi vanishes off e, so <rho, pi|H> = dim rho / target.  Every
    # central-type catalog model but pauli:3 (for time)
    central = [s for s in CATALOG_64 if s != "pauli:3" and _catalog_model(s).is_central_type()]
    assert len(central) == 14
    pieces = 0
    for spec in central:
        model = _catalog_model(spec)
        chi = model.rep.character().values
        assert np.abs(np.delete(chi, model.group.identity)).max() < _tol.EXACT
        subs = [h for h in model.group.all_subgroups() if model.dim % h.index() == 0]
        stacks = _order_stacks(model, subs)
        for same, split in zip(stacks, _split_stacks(model, stacks)):
            for sub, split_pieces in zip(same, split):
                res = restrict(model.rep, sub)
                for action, _ in split_pieces:
                    rho = projreps.ProjectiveRep(res.group, action, res.cocycle, validate=False)
                    if rho.dim == model.dim // sub.index():
                        assert _intertwiner_count(rho, res) == 1
                        pieces += 1
    assert pieces


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reynolds_element_commutes_and_pieces_are_irreducible(data):
    model = _catalog_model(data.draw(st.sampled_from(CATALOG_64)))
    g = model.group
    gens = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=2))
    res = restrict(model.rep, g.subgroup_generated(gens))
    t = search._commutant_elements(res.matrices[None], data.draw(st.integers(0, 2**16)))[0]
    assert np.abs(t - t.conj().T).max() == 0
    commutators = res.matrices @ t - t @ res.matrices
    assert np.linalg.norm(commutators, axis=(1, 2)).max() < _tol.SCAN * max(1.0, np.linalg.norm(t))
    pieces = irreducible_constituents(res)
    assert sum(piece.dim for piece in pieces) == res.dim
    assert all(is_irreducible(piece) and piece.cocycle == res.cocycle for piece in pieces)
    keys = [_key(piece) for piece in pieces]
    assert keys == sorted(keys)


# sha256 of the candidates' (logical, stabilizer, stabilizer phase) in order:
# subgroups in lattice order, constituents of one restriction by
# canonical key.  A change here is a change of q3_probe's candidate order.
_CANDIDATE_ORDER = {
    "c2d2n:2": "aab8ca39611bf8b48fcebdfb355e84fb2dd50d5270f18387f5477de0d57ae993",
    "genpauli:8": "9c9f7e6e09ccfc0b78085334c619b813267057148ed2af526283ab8e0e90d2b9",
    "oddfam:3":"ad0a1fc283c3eba6566748f68ffbe12b8ef5ce93f4e5ea831a9e0ed220a2d4c8",
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


# sha256 of every enumerated code's report in enumeration order: code
# dimension, L, S, f_S as reduced [num, den], D, flags and witnesses.  The
# floats (the basis) are left out, so every BLAS build agrees.  Every
# CATALOG_64 model is pinned: c2d2n:3 has codes whose S is not normal, and
# oddfam:3 solves for its trivializers.
_ENUMERATED_REPORTS = {
    "genpauli:2": "c2951b642e88e6749883fdc0dff36105352781a65ba177d81f1d20f6da0ecef6",
    "genpauli:3": "06817dbef3d59c09ff8087dff59572704dd66d9663dddd680d7efe10b63254c0",
    "genpauli:4": "12026582b6338f214db74a358719a29d04183721c2d8638252880880e627e665",
    "genpauli:5": "18c390836eab4fbb88202a5715ecad5b5230e6d5654767b308a564e305ed7b1b",
    "genpauli:6": "3c1cf5921d06ff57edb5bd46903b1003e17be85902f79c5194610cffe69fdfef",
    "genpauli:7": "a162af55ac0415aff57fcac3404977bcfbd2a71877d3ec92dbcab3067fddde6a",
    "genpauli:8": "2c93b0242987eccebe36d56876c4a1955d0adb97ce3f53bbbc36b624325b5d64",
    "pauli:1": "c2951b642e88e6749883fdc0dff36105352781a65ba177d81f1d20f6da0ecef6",
    "pauli:2": "e30fdafadb19c2aa832deffafe4e62a2a7ea1ea659eb0d43556dc0ca496f2123",
    "pauli:3": "b3cf6813cb9659fbf4e0ea7cb6bc1f43b674bcf2925d7646e0e9ca016959e7e0",
    "xp:2": "c2951b642e88e6749883fdc0dff36105352781a65ba177d81f1d20f6da0ecef6",
    "xp:3": "0324507da591ce7b644875ca6482dfd370b573b454536afb2a74c23fac43fa43",
    "xp:4": "41cf05ff99ae3e702923cbd1a8533ca196d9f05ebb47007fdcff26d3d3307c59",
    "xp:5": "2e493f80eda34a55bf275c3c2328e22d2c4b10b7a2942f98f72fe42becf163b5",
    "xp:6": "8badada1702d550cbca8d64a980c159e16e0f341e4cc5653c05778c8ccefb0e8",
    "xp:7": "50234bc1fe43b0eb399976cf3ecf959b39969971af8799b0312df4819d0086e7",
    "xp:8": "9ed54c1863b32b548ebe7594a79a124cda24f83bd1dcc908271bd738dd00af17",
    "xp:9": "2eecfdf1e0f4aba863730571f7f1607c640a40fdf9919f377b72ecc601b5d2e6",
    "xp:10": "a813090499e0e9761f4c916a045e45d9473159a686a8e8c5ef5506c100bd4c0b",
    "xp:11": "1bf2daa373c1a0fb51a45f769b12ca7fe1582fface433ee9f9e29c89a4a58d5b",
    "xp:12": "ed417301a23e5042d05f6b7b302447d1657fe4b38ef23d69787c17074c579ae2",
    "xp:13": "d8bdff75b1169674d0e69f8855294dcf04447adc80cefe06690f89915d49a438",
    "xp:14": "e99f6a1bd1115dcc0e26546befe20df6a18826f60aeaae7a804a716ef05a4c38",
    "xp:15": "063c1044cb54e3adc0eb29a9ad9d21d9446c0293e2a432792da6bcafc9d2613b",
    "xp:16": "386dd36caba34120c60c88742f65a3796096ba000dacd78abb7da656a7d73109",
    "c2d2n:2": "ea82d0679faad4eb732812fbc724170d2985ad1525c1492d1331b23a5bb642ed",
    "c2d2n:3": "89fd742de18579efd1212f1e29f34db3915f4b141a98c1b1277c61b2928cea4e",
    "c2d2n:4": "e2ebf2d3e355d1bfa9e34bc77128b96c90ee11c4af4e1e9462d05e1b4142cd32",
    "c2d2n:5": "5569daaddab158eb778f306aa04fceb152801aa001d1bb17301264c81456168d",
    "c2d2n:6": "f447b08b9ec9f4be132378dadfef8526e375b6c7d6119b5a3cce4ad38ee4e0e2",
    "c2d2n:7": "636e7670e0f2dada4762ed646c7945b7a66a845d0db25eb4955d422d6e763fc7",
    "c2d2n:8": "6d4406a58c6adb46e043622a4cf7aa9412d289bf684a3163910dba6eb7efb026",
    "oddfam:3": "1a07983af6f235e3c568afd7897f45a33ba545555cf20865cf4ef363d47e5c74",
    "permprod(genpauli:2,2)": "41bc333824ade31c9868b5359f4829e69f71c4fd166a07566f075fbb9348237e",
    "prod(genpauli:2,genpauli:3)": "07063fe575c5981e3802977aae66ee788408d9ae9dcb3734579bb1e0295d730d",
    "prod(genpauli:2,genpauli:4)": "c0f8d8d77ddc68809edff339ea23ef73f682a24a6db4e6a456d6e2a1936fc0bc",
}


@pytest.mark.parametrize("spec", sorted(_ENUMERATED_REPORTS))
def test_enumerated_reports_are_pinned(spec):
    model = parse_model_spec(spec).model
    rows = []
    for _, _, code in enumerate_weak_stabilizer_codes(model):
        r = codes.classify(model, code)
        rows.append([
            code.dim, list(r.logical.members), list(r.stabilizer.members), r.stabilizer_phase.to_json(),
            sorted(r.detectable), r.flags, r.witnesses,
        ])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == _ENUMERATED_REPORTS[spec]


# -- pieces accepted by their invariance norms ------------------------------


@pytest.mark.parametrize("spec", ["oddfam:3", "genpauli:8"])
@pytest.mark.parametrize("seed", [None, 3])
def test_constituent_pieces_run_no_rep_validation(monkeypatch, spec, seed):
    # every piece is accepted by compressed_action's invariance norms, so no
    # split runs a rep validation; the split reads pi's own stack, so it
    # builds no rep at all
    model = _catalog_model(spec)
    if seed is not None:
        model = relabeled_model(model, seed)
    stacks = _order_stacks(model)
    built = []
    raw = projreps.ProjectiveRep.__init__

    def counted(rep, *args, **kwargs):
        built.append(rep)
        raw(rep, *args, **kwargs)

    monkeypatch.setattr(projreps.ProjectiveRep, "__init__", counted)
    splits = [pieces for split in _split_stacks(model, stacks) for pieces in split]
    assert sum(len(pieces) > 1 for pieces in splits) > 0
    assert built == []


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


# -- the stacked split of all subgroups of one order --------------------------


def _q3_stacks(model):
    """q3_probe's stacks: the subgroups of index dividing dim pi, by order."""
    return _order_stacks(model, [h for h in model.group.all_subgroups() if model.dim % h.index() == 0])


@pytest.mark.parametrize("spec", _CENTRAL_ALL)
def test_stacked_split_equals_the_per_subgroup_split(spec):
    # restrict, Reynolds, eigh and one compression per cluster, subgroup by
    # subgroup (helpers.split_restriction_oracle), against the stacked pass
    # on every subgroup q3_probe splits: the same commutant elements and
    # cluster bounds, byte-equal bases, equal keys, and actions to rounding
    model = _catalog_model(spec)
    stacks = _q3_stacks(model)
    for same, split in zip(stacks, _split_stacks(model, stacks)):
        mats = model.rep.matrices[np.array([h.members for h in same])]
        elements = {}   # seed -> the commutant elements of the whole stack
        for i, (sub, pieces) in enumerate(zip(same, split)):
            attempt, want = split_restriction_oracle(model, sub)
            assert [canonical_key(b.shape[1], np.einsum("naa->n", c)) for c, b in pieces] == [
                key for *_, key in want]
            if attempt is not None:
                seed = search._SPLIT_SEED + attempt
                res = restrict(model.rep, sub)
                t = _reynolds(res.matrices, res.matrices, search._hermitian_draw(model.dim, seed))
                if seed not in elements:
                    elements[seed] = search._commutant_elements(mats, seed)
                stacked = elements[seed][i]
                assert stacked.tobytes() == ((t + t.conj().T) / 2).tobytes()
                vectors = np.linalg.eigh(stacked)[1]
            for (action, basis), ((a, b), want_basis, want_action, _) in zip(pieces, want):
                assert basis.tobytes() == want_basis.tobytes()
                if attempt is not None:
                    assert basis.tobytes() == vectors[:, a:b].tobytes()
                assert np.abs(action - want_action).max() < 1e-12


def test_the_stacked_split_is_blocked_and_the_blocks_change_no_byte(monkeypatch):
    # a bound of a few entries splits one subgroup per block; q3_probe's
    # reports are the same bytes
    want = _q3_full("oddfam:3")
    blocks = []
    raw = search._split_block

    def counted(mats):
        blocks.append(len(mats))
        return raw(mats)

    monkeypatch.setattr(search, "_split_block", counted)
    q3_probe(_catalog_model("oddfam:3"), return_candidates=True)
    assert max(blocks) > 1
    blocks.clear()
    monkeypatch.setattr(_linalg, "_PRODUCT_BLOCK_ENTRIES", 4)
    hits, candidates = q3_probe(parse_model_spec("oddfam:3").model, return_candidates=True)
    assert set(blocks) == {1}
    assert [r.to_json() for r in candidates] == [r.to_json() for r in want[1]]
    assert [r.to_json() for r in hits] == [r.to_json() for r in want[0]]


def test_the_stacked_intertwiner_test_is_blocked_and_the_blocks_change_no_byte(monkeypatch):
    # pi(h)B - B rho(h) is formed for every kept piece of one subgroup order
    # in blocks under _PRODUCT_BLOCK_ENTRIES, and its Frobenius norms are
    # the one 4-axis norm over axes (2, 3) that q3_probe takes; a bound of
    # a few entries puts one piece in each block, and the reports are the
    # same bytes
    want = _q3_full("oddfam:3")
    blocks = []
    raw = np.linalg.norm

    def norm(x, *args, **kwargs):
        if np.ndim(x) == 4 and kwargs.get("axis") == (2, 3):
            blocks.append(len(x))
        return raw(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", norm)
    q3_probe(_catalog_model("oddfam:3"), return_candidates=True)
    assert max(blocks) > 1 and sum(blocks) == len(want[1])
    blocks.clear()
    monkeypatch.setattr(_linalg, "_PRODUCT_BLOCK_ENTRIES", 4)
    hits, candidates = q3_probe(parse_model_spec("oddfam:3").model, return_candidates=True)
    assert set(blocks) == {1} and len(blocks) == len(want[1])
    assert [r.to_json() for r in candidates] == [r.to_json() for r in want[1]]
    assert [r.to_json() for r in hits] == [r.to_json() for r in want[0]]


@pytest.mark.parametrize("spec", _CENTRAL_ALL)
def test_the_batched_dimension_count_is_code_dimension_formula(spec, monkeypatch):
    # q3_probe counts dim E of every candidate's (S, f_S) eigenspace in one
    # segment sum per subgroup order (codes._dimension_counts); each count
    # is code_dimension_formula's on the report's S and f_S
    counts = []
    raw = search._dimension_counts

    def counted(*args):
        got = raw(*args)
        counts.extend(got)
        return got

    monkeypatch.setattr(search, "_dimension_counts", counted)
    model = _catalog_model(spec)
    _, candidates = q3_probe(model, return_candidates=True)
    assert counts == [code_dimension_formula(model, r.stabilizer, r.stabilizer_phase) for r in candidates]


def test_a_forged_non_integer_count_raises_the_dimension_formula_error(monkeypatch):
    # one stabilizer phase scaled by 0.7 makes its count 0.7 times an
    # integer: the batched count raises the CodeError that
    # code_dimension_formula raises on the same S and f_S, text and value
    model = _catalog_model("oddfam:3")
    raw = search._stabilizers
    forged = []

    def forge(*args):
        stabs, phases = raw(*args)
        f = phases[-1]
        phases[-1] = cocycles.PhaseFunction._runs([f.domain], f.num, f.den, None, f.values * 0.7)[0]
        forged.append((stabs[-1], phases[-1]))
        return stabs, phases

    monkeypatch.setattr(search, "_stabilizers", forge)
    with pytest.raises(codes.CodeError, match="dimension formula gave a non-integer value") as got:
        q3_probe(model, return_candidates=True)
    with pytest.raises(codes.CodeError) as want:
        code_dimension_formula(model, *forged[-1])
    assert str(got.value) == str(want.value)


def test_a_degenerate_first_draw_retries_only_its_subgroups(monkeypatch):
    # the first draw is the Reynolds average over an order-6 subgroup K:
    # it commutes with pi(K), so it splits some restrictions too coarsely.
    # Only the subgroups it fails are drawn again, the others keep their
    # pieces byte for byte (the per-subgroup split with the same draws),
    # and every key is that of an unpatched split
    model = _catalog_model("oddfam:3")
    stacks = _order_stacks(model)
    unpatched = _split_stacks(model, stacks)
    big = restrict(model.rep, next(h for h in model.group.all_subgroups() if len(h) == 6))
    t = _reynolds(big.matrices, big.matrices, search._hermitian_draw(model.dim, search._SPLIT_SEED))
    first = (t + t.conj().T) / 2
    raw_draw, raw_split = search._hermitian_draw, search._split_draw
    monkeypatch.setattr(
        search, "_hermitian_draw", lambda dim, seed: first if seed == search._SPLIT_SEED else raw_draw(dim, seed))
    owner = {model.rep.matrices[list(h.members)].tobytes(): h.members for h in model.group.all_subgroups()}
    drawn = {}

    def split_draw(mats, seed):
        drawn.setdefault(seed, []).extend(owner[m.tobytes()] for m in mats)
        return raw_split(mats, seed)

    monkeypatch.setattr(search, "_split_draw", split_draw)
    patched = _split_stacks(model, stacks)
    attempts = {h.members: split_restriction_oracle(model, h) for same in stacks for h in same}
    retried = [m for m, (attempt, _) in attempts.items() if attempt]
    assert 0 < len(retried) < len(drawn[search._SPLIT_SEED])
    assert sorted(drawn[search._SPLIT_SEED + 1]) == sorted(retried)
    for same, split, other in zip(stacks, patched, unpatched):
        for sub, pieces, unpatched_pieces in zip(same, split, other):
            _, want = attempts[sub.members]
            assert [b.tobytes() for _, b in pieces] == [b.tobytes() for _, b, *_ in want]
            keys = [canonical_key(b.shape[1], np.einsum("naa->n", c)) for c, b in pieces]
            assert keys == [canonical_key(b.shape[1], np.einsum("naa->n", c))
                            for c, b in unpatched_pieces]


def test_all_degenerate_draws_fail_the_split(monkeypatch):
    model = _catalog_model("oddfam:3")
    monkeypatch.setattr(search, "_hermitian_draw", lambda dim, seed: np.eye(dim, dtype=complex))
    with pytest.raises(RuntimeError, match="commutant sampling failed"):
        _split_stacks(model, _q3_stacks(model))


def test_q3_probe_builds_no_restricted_rep(monkeypatch):
    # the split and the reports read pi's own stack: no ProjectiveRep, no
    # restricted cocycle and no subgroup-as-group is built per subgroup
    built = {"rep": 0, "cocycle": 0, "group": 0}
    raw_rep, raw_cocycle, raw_group = (
        projreps.ProjectiveRep.__init__, cocycles.Cocycle.restrict, search.Subgroup.as_group)

    def rep(*args, **kwargs):
        built["rep"] += 1
        raw_rep(*args, **kwargs)

    def cocycle(*args):
        built["cocycle"] += 1
        return raw_cocycle(*args)

    def group(*args):
        built["group"] += 1
        return raw_group(*args)

    model = parse_model_spec("oddfam:3").model
    monkeypatch.setattr(projreps.ProjectiveRep, "__init__", rep)
    monkeypatch.setattr(cocycles.Cocycle, "restrict", cocycle)
    monkeypatch.setattr(search.Subgroup, "as_group", group)
    hits, candidates = q3_probe(model, return_candidates=True)
    assert (len(hits), len(candidates)) == (48, 115)
    assert built == {"rep": 0, "cocycle": 0, "group": 0}


_NO_MASKED_ARRAYS = """
import sys
from qeclab import PhaseFunction, classify, em_from_pem, enumerate_weak_stabilizer_codes, gen_pauli_model
from qeclab import pem_from_em, product_model, q3_probe, stabilizer_to_clifford
from qeclab.cli import parse_model_spec
model = parse_model_spec("c2d2n:3").model
for _, _, code in enumerate_weak_stabilizer_codes(model):
    classify(model, code)
q3_probe(parse_model_spec("oddfam:3").model, return_candidates=True)
model.group.coset_representatives(model.group.subgroup_generated([1]))
base = gen_pauli_model(2)
pem_from_em(em_from_pem(base, base.cocycle, PhaseFunction.constant_one(base.group.full_subgroup()), n=2))
two = product_model(base, base)
sub = two.group.subgroup_generated([10, 5])   # XX and ZZ: the Bell code
stabilizer_to_clifford(two, sub, PhaseFunction.constant_one(sub))
print("numpy.ma" in sys.modules)
"""


def test_the_library_paths_never_load_numpy_ma():
    # np.unique imports numpy.ma on its first call; the enumeration,
    # classify, q3_probe, cosets (quotient) and inertia groups read their
    # sets from boolean masks instead, so none of them loads it
    src = str(Path(search.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert run.stdout == "False\n"
