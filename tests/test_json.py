"""JSON round trips of the serializable objects, on catalog models.

Every object goes through json.dumps and json.loads, so the payload must be
plain JSON, and comes back equal: exact phases as the same phases, floats
bit for bit.
"""

import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CATALOG_64, complex_json_loop, phase_function_json_loop

from qeclab._linalg import complex_from_json, complex_json
from qeclab.channels import KrausChannel, channel_from_model
from qeclab.cli import parse_model_spec
from qeclab.cocycles import Cocycle, Phase, PhaseFunction, coboundary
from qeclab.codes import CodeSpace, existence_phase, weak_stabilizer_code
from qeclab.projreps import ProjectiveRep

SPECS = CATALOG_64


@lru_cache(maxsize=None)
def _model(spec):
    return parse_model_spec(spec).model


def _through_json(obj) -> dict:
    return json.loads(json.dumps(obj.to_json()))


@st.composite
def models(draw):
    return _model(draw(st.sampled_from(SPECS)))


@st.composite
def subgroups(draw, group):
    gens = draw(st.lists(st.integers(0, group.order - 1), min_size=0, max_size=2))
    return group.subgroup_generated(gens)


@st.composite
def phases(draw, dens=(1, 2, 3, 4, 5, 6, 8, 12)):
    den = draw(st.sampled_from(dens))
    return Phase(draw(st.integers(0, den - 1)), den)


@st.composite
def exact_functions(draw, sub, dens=(1, 2, 3, 4, 5, 6, 8, 12)):
    values = draw(st.lists(phases(dens), min_size=len(sub), max_size=len(sub)))
    return PhaseFunction.exact(sub, values)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cocycle_json_round_trip(data):
    model = data.draw(models())
    g = model.group
    sigma = model.cocycle
    if data.draw(st.booleans()):
        f = data.draw(exact_functions(g.full_subgroup()))
        sigma = sigma.multiply(coboundary(f))
    back = Cocycle.from_json(g, _through_json(sigma))
    assert back == sigma
    assert back.den == sigma.den and np.array_equal(back.num, sigma.num)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_phase_function_json_round_trip(data):
    model = data.draw(models())
    sub = data.draw(subgroups(model.group))
    f = data.draw(exact_functions(sub))
    back = PhaseFunction.from_json(sub, _through_json(f))
    assert back.is_exact
    assert back.phases == f.phases
    assert np.array_equal(back.values, f.values)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inexact_phase_function_json_round_trip(data):
    model = data.draw(models())
    sub = data.draw(subgroups(model.group))
    turns = data.draw(
        st.lists(
            st.one_of(
                st.floats(0, 1, allow_nan=False),
                st.fractions(0, 1, max_denominator=8).map(float),
            ),
            min_size=len(sub),
            max_size=len(sub),
        )
    )
    f = PhaseFunction.from_complex(sub, np.exp(2j * np.pi * np.array(turns)), max_den=len(sub))
    back = PhaseFunction.from_json(sub, _through_json(f))
    assert back.phases == f.phases
    inexact = np.array([p is None for p in f.phases], dtype=bool)
    # inexact entries keep their floats; exact ones come back as their phase
    assert np.array_equal(back.values[inexact], f.values[inexact])
    want = [p.to_complex() for p in f.phases if p is not None]
    assert np.array_equal(back.values[~inexact], np.array(want, dtype=complex))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_code_space_json_round_trip(data):
    model = data.draw(models())
    sub = data.draw(subgroups(model.group))
    f = existence_phase(model, sub)
    code = weak_stabilizer_code(model, sub, f) if f is not None else None
    if code is None:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        k = data.draw(st.integers(1, model.dim))
        code = CodeSpace.from_vectors(
            model.dim, rng.normal(size=(k, model.dim)) + 1j * rng.normal(size=(k, model.dim))
        )
    back = CodeSpace.from_json(_through_json(code))
    assert back.ambient_dim == code.ambient_dim
    assert np.array_equal(back.basis, code.basis)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_projective_rep_json_round_trip(data):
    model = data.draw(models())
    rep = model.rep
    if data.draw(st.booleans()):
        # f(e) may be off 1, which twist refuses, so the product is formed here
        f = data.draw(exact_functions(model.group.full_subgroup(), dens=(1, 2, 4)))
        mats = f.values[:, None, None] * rep.matrices
        rep = ProjectiveRep(model.group, mats, rep.cocycle.multiply(coboundary(f)), validate=False)
    back = ProjectiveRep.from_json(model.group, _through_json(rep))
    assert back.dim == rep.dim
    assert np.array_equal(back.matrices, rep.matrices)
    assert back.cocycle == rep.cocycle


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kraus_channel_json_round_trip(data):
    model = data.draw(models())
    n = model.group.order
    support = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 12)))
    weights = data.draw(
        st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support))
    )
    p = np.zeros(n)
    p[sorted(support)] = weights
    channel = channel_from_model(model, p / p.sum())
    back = KrausChannel.from_json(_through_json(channel))
    assert back.ambient_dim == channel.ambient_dim
    assert np.array_equal(back.kraus, channel.kraus)


@pytest.mark.parametrize("spec, count", [("xp:9", 9), ("xp:15", 15)])
def test_rep_json_keeps_a_cocycle_make_rep_cannot_snap(spec, count):
    # the order-2 restrictions inherit cocycle denominators up to 15, past
    # the 4|H| = 8 that snapping allows
    model = _model(spec)
    subs = [sub for sub in model.group.all_subgroups() if len(sub) == 2]
    assert len(subs) == count
    for sub in subs:
        rep = model.rep.restrict(sub)
        back = ProjectiveRep.from_json(rep.group, _through_json(rep))
        assert np.array_equal(back.matrices, rep.matrices)
        assert back.cocycle == rep.cocycle


def test_rep_json_without_cocycle_still_loads():
    model = _model("xp:4")
    data = _through_json(model.rep)
    del data["cocycle"]
    back = ProjectiveRep.from_json(model.group, data)
    assert np.array_equal(back.matrices, model.rep.matrices)
    assert back.cocycle == model.rep.cocycle


def test_the_complex_reader_inverts_the_writer_bit_for_bit():
    # complex_from_json is complex_json's one inverse: every bit of each
    # entry comes back, signed zeros and the rounding of each float included
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    a[0, 0, 0], a[1, 2, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
    back = complex_from_json(json.loads(json.dumps(complex_json(a))), 3)
    assert back.shape == a.shape and back.tobytes() == a.tobytes()
    assert np.signbit(back[0, 0, 0].real) and np.signbit(back[1, 2, 1].imag)
    assert np.array_equal(complex_from_json([[1, 2], [3, -4]], 1), [1 + 2j, 3 - 4j])


@pytest.mark.parametrize(
    "data",
    [[], [[]], [[1, 2, 7.0]], [[1]], 5, [[1, 2], [3]], [[[1, 2]], [3, 4]], [["1", "2"]], [[None, 1]],
     [1, 2], [[[1, 2]]]],
    ids=["empty", "empty-pair", "three-entry", "one-entry", "scalar", "ragged", "ragged-depth",
         "strings", "null", "too-shallow", "too-deep"],
)
def test_the_complex_reader_refuses_what_is_not_pairs(data):
    # a one-axis array is [[re, im], ...]; anything else is refused
    assert complex_from_json([[1, 2]], 1).shape == (1,)
    with pytest.raises(ValueError):
        complex_from_json(data, 1)


def test_json_writers_match_the_entry_loops():
    model = _model("oddfam:3")
    sub = model.group.full_subgroup()
    # exact entries over den 12, to be reduced, and some that fail to snap
    turns = np.arange(len(sub)) / 12
    turns[::5] += 0.01
    f = PhaseFunction.from_complex(sub, np.exp(2j * np.pi * turns), max_den=12)
    assert not f.is_exact and f.exact_mask.any() and f.den == 12
    assert json.dumps(f.to_json()) == json.dumps(phase_function_json_loop(f))
    neg = complex(-0.0, -0.0)
    code = CodeSpace(2, np.array([[1.0, neg], [neg, -1.0]]))
    channel = KrausChannel(2, np.array([[[1.0, neg], [neg, 1.0]]]))
    writers = [(code, code.basis.T, "basis"), (channel, channel.kraus, "kraus")]
    writers.append((model.rep, model.rep.matrices, "matrices"))
    for obj, arr, key in writers:
        parts = np.concatenate([arr.real.ravel(), arr.imag.ravel()])
        assert np.signbit(parts[parts == 0]).any()   # a -0.0 is written as such
        want = complex_json_loop(arr)
        assert json.dumps(obj.to_json()[key]) == json.dumps(want)
