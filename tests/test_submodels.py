"""Sub-models: a second test bed beside the catalog.

A sub-model is make_rep(H.as_group(), rho) for an irreducible piece rho of
pi|H of dimension at least 2 that is projectively faithful
(helpers.submodels).  Most are not monomial, and their cocycle
denominators can be large next to |G|: on the order-4 sub-models of
c2d2n:6 and xp:12 the stabilizer phase grid sigma.den exp(G) reaches 24,
past 4|G| = 16.  The cross-path tests of the catalog run here too: the
enumerated codes against the generator-stack nullspace, the enumeration's
attached reports and q3_probe's candidates against classify's action path,
and the cyclic extensions against their per-row oracle.
"""

import functools
import itertools

import numpy as np
import pytest

from helpers import cyclic_extensions_oracle, submodels, weak_code_nullspace_oracle
from qeclab import cocycles
from qeclab.codes import CodeSpace, classify
from qeclab.search import enumerate_weak_stabilizer_codes, q3_probe

# (spec, the subgroup order, None for every order, and the sample size)
SAMPLE = [
    ("c2d2n:6", 4, 48),
    ("xp:12", 4, 6),
    ("oddfam:3", None, 60),
    ("c2d2n:4", None, 57),
    ("permprod(genpauli:2,2)", None, 45),
]


@functools.lru_cache(maxsize=None)
def _sample(spec, order, limit):
    models = submodels(spec, limit, order)
    assert len(models) == limit
    return models


def test_the_sample_reaches_stabilizer_grids_past_4_g():
    # the grid sigma.den exp(G) that codes._stabilizers snaps on passes
    # 4|G| on some sub-models, which no catalog model does
    past = [m for m in _sample(*SAMPLE[0]) if m.cocycle.den * m.group.exponent() > 4 * m.group.order]
    assert len(past) == 16


@pytest.mark.parametrize("spec, order, limit", SAMPLE)
def test_enumerated_codes_and_key_reports_match_their_oracles_on_submodels(spec, order, limit):
    # each enumerated code's projector is the generator-stack nullspace's,
    # and its attached report, read from its maximal witness key, is the
    # report classify reads from an untagged copy's action
    for model in _sample(spec, order, limit):
        found = enumerate_weak_stabilizer_codes(model)
        assert found
        for sub, f, code in found:
            oracle = weak_code_nullspace_oracle(model, sub, f)
            assert np.abs(code.projector() - oracle @ oracle.conj().T).max() < 1e-12
        copies = [CodeSpace(model.dim, code.basis.copy()) for _, _, code in found]
        assert [classify(model, code).to_json() for _, _, code in found] == [
            classify(model, copy).to_json() for copy in copies
        ]


@pytest.mark.parametrize("spec, order, limit", SAMPLE)
def test_q3_candidates_equal_classify_on_submodels(spec, order, limit):
    # every stabilizer phase of a candidate snaps, and each report, read
    # from its constituent, is classify's on the candidate's code
    central = [m for m in _sample(spec, order, limit) if m.is_central_type()]
    assert central
    for model in central:
        _, candidates = q3_probe(model, return_candidates=True)
        assert [r.to_json() for r in candidates] == [classify(model, r.code).to_json() for r in candidates]


@pytest.mark.parametrize("spec, order, limit", SAMPLE)
def test_cyclic_extensions_equal_the_oracle_on_submodels(spec, order, limit):
    # every abelian subgroup of every sub-model, one block per order, pruned
    # or not: the array steps give the per-row walk's ok, f0, M, chars and
    # e, dtypes and row order included
    for model in _sample(spec, order, limit):
        abelian = [sub for sub in model.group.all_subgroups() if sub.is_abelian()]
        for _, same in itertools.groupby(abelian, key=len):
            members = np.array([sub.members for sub in same])
            got = cocycles._cyclic_extensions(model.cocycle, members)
            want = cyclic_extensions_oracle(model.cocycle, members)
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [(a.dtype, a.shape, a.tobytes()) for a in want]
