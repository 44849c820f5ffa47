"""One Subgroup per member set, one restricted cocycle per subgroup.

The library interns the subgroups it builds in their parent group, so each
member set is built once and its as_group() and restricted cocycles are
shared.  The counters here pin that: a search followed by classify builds
exactly the lattice's member sets, unchecked where the construction proves
them subgroups (their checks run here by hand), validates none of their
as_group() tables, and no cocycle runs its identity check twice.  The
public Subgroup and group constructors keep validating every call.
"""

import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CATALOG_64, conjugated_model, relabeled_model

from qeclab.cli import parse_model_spec
from qeclab import groups, projreps
from qeclab.cocycles import Cocycle, _linear_characters, find_trivializing_phase
from qeclab.codes import classify
from qeclab.groups import (
    FiniteGroup,
    GroupValidationError,
    Subgroup,
    dihedral,
    group_from_mul_table,
)
from qeclab.search import enumerate_weak_stabilizer_codes, q3_probe


class _Counters:
    """Subgroup constructions (checked by __init__ or built unchecked by
    Subgroup._from_valid), group validations, the cocycles whose
    identity check ran, one entry per run (the objects are kept, so no id
    is reused while counting), and make_rep's integer edge checks."""

    def __init__(self, monkeypatch):
        self.subgroups = 0
        self.validations = 0
        self.checked: list[Cocycle] = []
        self.edge_checks = 0
        init, validate, holds = Subgroup.__init__, FiniteGroup._validate, Cocycle._identity_holds
        from_valid = Subgroup._from_valid.__func__
        edges_hold = projreps._monomial_edges_hold

        def counted_init(sub, *args, **kwargs):
            self.subgroups += 1
            init(sub, *args, **kwargs)

        def counted_from_valid(cls, *args):
            self.subgroups += 1
            return from_valid(cls, *args)

        def counted_validate(group):
            self.validations += 1
            validate(group)

        def counted_holds(sigma):
            self.checked.append(sigma)
            return holds(sigma)

        def counted_edges(*args):
            self.edge_checks += 1
            return edges_hold(*args)

        monkeypatch.setattr(Subgroup, "__init__", counted_init)
        monkeypatch.setattr(Subgroup, "_from_valid", classmethod(counted_from_valid))
        monkeypatch.setattr(FiniteGroup, "_validate", counted_validate)
        monkeypatch.setattr(Cocycle, "_identity_holds", counted_holds)
        monkeypatch.setattr(projreps, "_monomial_edges_hold", counted_edges)

    def checked_once_each(self) -> bool:
        return len({id(c) for c in self.checked}) == len(self.checked)


def test_search_and_classify_validate_each_lattice_subgroup_once(monkeypatch):
    base = parse_model_spec("prod(genpauli:2,genpauli:4)").model
    counters = _Counters(monkeypatch)
    model = relabeled_model(base, seed=3)
    built = counters.validations
    found = enumerate_weak_stabilizer_codes(model)
    reports = [classify(model, code) for _, _, code in found]
    lattice = model.group.all_subgroups()
    assert len(found) == 515
    # lattice cuts build their as_group() tables without a validation (see
    # Subgroup.as_group); test_every_lattice_cut_passes_the_validation runs it.
    # Each lattice subgroup is built once, unchecked (Subgroup._from_valid);
    # test_every_unchecked_subgroup_passes_the_validation runs the checks
    assert counters.subgroups == len(lattice) == 249
    assert counters.validations == built
    # the model's stack is monomial, so its cocycle is proved once, by
    # make_rep's integer edge check, with no identity scan, and every
    # restriction inherits that verdict without a check of its own
    assert counters.edge_checks == 1 and counters.checked == []
    # classify's subgroups are the lattice's objects
    ids = {id(sub) for sub in lattice}
    assert all(id(r.logical) in ids and id(r.stabilizer) in ids for r in reports)
    # control: a conjugated copy is not monomial, so its cocycle is checked
    # once by the identity scan when it is built, and never again
    conjugated = conjugated_model(model, seed=3)
    found = enumerate_weak_stabilizer_codes(conjugated)
    for _, _, code in found:
        classify(conjugated, code)
    assert len(found) == 515
    assert counters.edge_checks == 1
    assert len(counters.checked) == 1 and counters.checked[0] is conjugated.cocycle


@pytest.mark.parametrize("spec", CATALOG_64)
def test_every_lattice_cut_passes_the_validation(spec, monkeypatch):
    # Light's test still covers every as_group() table, run here by hand
    g = parse_model_spec(spec).model.group
    lattice = g.all_subgroups()
    counters = _Counters(monkeypatch)
    for sub in lattice:
        sub.as_group()._validate()
    assert counters.validations == len(lattice)
    # the unvalidated build sets every attribute the public one sets
    cut = lattice[-1].as_group()
    public = FiniteGroup(cut.order, cut.mul, cut.identity, cut.inv, cut.label, cut.element_names)
    assert vars(cut).keys() == vars(public).keys()
    assert counters.validations == len(lattice) + 1


def test_every_direct_product_passes_the_validation(monkeypatch):
    # direct_product builds its table without a validation, through
    # FiniteGroup._from_valid_table; Light's test still covers every product
    # the catalog builds, run here by hand, and the unvalidated build sets
    # every attribute, with the same values, that the public one sets
    built = []
    raw = FiniteGroup._from_valid_table.__func__

    def recorded(cls, *args):
        group = raw(cls, *args)
        if sys._getframe(1).f_code is groups.direct_product.__code__:
            built.append(group)
        return group

    monkeypatch.setattr(FiniteGroup, "_from_valid_table", classmethod(recorded))
    for spec in CATALOG_64:
        parse_model_spec(spec)
    assert len(built) >= len(CATALOG_64) // 2
    counters = _Counters(monkeypatch)
    for group in built:
        public = FiniteGroup(group.order, group.mul, group.identity, group.inv, group.label, group.element_names)
        group._validate()
        assert vars(group).keys() == vars(public).keys()
        assert (group.order, group.identity, group.label, group.element_names) == (
            public.order, public.identity, public.label, public.element_names)
        for table in ("mul", "inv"):
            mine, theirs = getattr(group, table), getattr(public, table)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    assert counters.validations == 2 * len(built)


@pytest.mark.parametrize("spec", CATALOG_64)
def test_every_unchecked_subgroup_passes_the_validation(spec, monkeypatch):
    # the lattice's member sets and the key reader's S and L are built with
    # no check (Subgroup._from_valid); __init__'s checks still cover every
    # one that a search, classify, the q3 probe and all_subgroups build, run
    # here by hand, and the unchecked build sets every attribute, with the
    # same members and mask, that the public one sets
    built = []
    raw = Subgroup._from_valid.__func__

    def recorded(cls, *args):
        built.append(raw(cls, *args))
        return built[-1]

    monkeypatch.setattr(Subgroup, "_from_valid", classmethod(recorded))
    model = parse_model_spec(spec).model
    for _, _, code in enumerate_weak_stabilizer_codes(model):
        classify(model, code)
    if model.is_central_type():
        q3_probe(model, return_candidates=True)
    model.group.all_subgroups()
    assert built
    for sub in built:
        public = Subgroup(sub.parent, sub.members)
        assert vars(sub).keys() == vars(public).keys()
        assert sub.members == public.members and sub._inside.tobytes() == public._inside.tobytes()


def _intercalate_swapped(mul: np.ndarray, e: int) -> np.ndarray:
    """mul with one 2 x 2 latin subsquare a b / b a swapped, off the
    identity's row and column and off the cells holding the identity, so
    the table keeps its identity and inverses."""
    n = len(mul)
    for x, x2, y in itertools.product(range(n), repeat=3):
        if e in (x, x2, y) or x >= x2 or e in (mul[x, y], mul[x2, y]):
            continue
        y2 = int(np.flatnonzero(mul[x] == mul[x2, y])[0])
        if y2 != e and mul[x2, y2] == mul[x, y]:
            out = mul.copy()
            out[x, y], out[x2, y2] = mul[x, y2], mul[x2, y]
            out[x, y2], out[x2, y] = mul[x, y], mul[x2, y2]
            return out
    raise AssertionError("no intercalate off the identity")


def test_public_constructors_validate_a_cut_table(monkeypatch):
    g = parse_model_spec("genpauli:4").model.group
    sub = next(h for h in g.all_subgroups() if len(h) == 8)
    cut = sub.as_group()
    counters = _Counters(monkeypatch)
    FiniteGroup(cut.order, cut.mul, cut.identity, cut.inv)
    group_from_mul_table(cut.mul)
    assert counters.validations == 2
    with pytest.raises(GroupValidationError, match="not associative"):
        group_from_mul_table(_intercalate_swapped(cut.mul, cut.identity))


def test_q3_probe_validates_each_lattice_subgroup_at_most_once(monkeypatch):
    model = relabeled_model(parse_model_spec("oddfam:3").model, seed=5)
    counters = _Counters(monkeypatch)
    hits, candidates = q3_probe(model, return_candidates=True)
    lattice = model.group.all_subgroups()
    assert (len(hits), len(candidates)) == (48, 115)
    assert counters.subgroups == len(lattice)
    assert counters.validations <= len(lattice)
    assert counters.checked_once_each()
    assert len(counters.checked) <= len(lattice)


def test_cocycle_numerators_are_read_only():
    sigma = parse_model_spec("genpauli:3").model.cocycle
    with pytest.raises(ValueError):
        sigma.num[0, 0] = 1
    fresh = Cocycle(sigma.group, sigma.num, sigma.den)
    assert fresh.num is not sigma.num and not fresh.num.flags.writeable


def test_public_constructor_validates_and_failures_are_not_interned():
    g = dihedral(4)
    not_closed = [g.identity, 1]                  # a rotation without its powers
    with pytest.raises(GroupValidationError):
        Subgroup(g, not_closed)
    with pytest.raises(GroupValidationError):
        g.subgroup(not_closed)
    assert (g.identity, 1) not in g._interned
    assert Subgroup(g, [g.identity]) is not Subgroup(g, [g.identity])
    rot = g.subgroup_generated([1])
    assert g.subgroup(rot.members) is rot
    assert any(sub is rot for sub in g.all_subgroups())


def test_subgroup_refuses_sets_without_the_identity_or_inverses():
    g = dihedral(4)                               # rotations a^l are 0..3
    with pytest.raises(GroupValidationError):
        Subgroup(g, [2])                          # a^2 alone: closed only with the identity
    with pytest.raises(GroupValidationError):
        Subgroup(g, [g.identity, 1])              # a without a^-1 = a^3
    with pytest.raises(GroupValidationError):
        g.subgroup([1, 2, 3])                     # <a> minus the identity
    for outside in ([-1, g.identity], [g.identity, g.order]):   # no index wraps or overruns
        with pytest.raises(GroupValidationError):
            Subgroup(g, outside)
    assert len(Subgroup(g, [g.identity, 1, 2, 3])) == 4


def test_subgroup_membership_and_positions_are_read_on_members_only():
    g = dihedral(4)
    sub = Subgroup(g, [0, 2])
    assert 0 in sub and 2 in sub and np.int64(2) in sub
    assert 1 not in sub and -1 not in sub and g.order not in sub and g.order - 2 not in sub
    assert [sub.position(x) for x in (0, np.int64(2))] == [0, 1]
    for x in (1, -1, g.order, g.order + 2):
        with pytest.raises(KeyError):
            sub.position(x)


def test_only_a_passed_verify_is_remembered(monkeypatch):
    model = parse_model_spec("genpauli:4").model
    good = Cocycle(model.group, model.cocycle.num, model.cocycle.den)
    num = model.cocycle.num.copy()
    num[1, 2] += 1
    bent = Cocycle(model.group, num, model.cocycle.den)
    counters = _Counters(monkeypatch)
    assert [good.verify(), good.verify(), bent.verify(), bent.verify()] == [True, True, False, False]
    assert [c is good for c in counters.checked] == [True, False, False]


def test_restriction_is_shared_and_lives_on_the_subgroup_group():
    model = parse_model_spec("c2d2n:3").model
    sub = model.group.all_subgroups()[5]
    res = model.cocycle.restrict(sub)
    assert model.cocycle.restrict(sub) is res
    assert res.group is sub.as_group()
    assert model.rep.restrict(sub).cocycle is res
    # a separately constructed subgroup gets its own restriction and group
    other = Subgroup(model.group, sub.members)
    assert model.cocycle.restrict(other) is not res
    assert model.cocycle.restrict(other) == res


def _small_catalog_models():
    models = [parse_model_spec(spec).model for spec in CATALOG_64]
    return [m for m in models if m.group.order <= 32]


SMALL_MODELS = _small_catalog_models()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_interned_subgroups_match_freshly_validated_ones(data):
    model = data.draw(st.sampled_from(SMALL_MODELS))
    g = model.group
    members = data.draw(st.sampled_from(g._lattice()))
    interned = g.subgroup(members)
    fresh = Subgroup(g, members)
    assert interned == fresh and interned is not fresh
    h, h_fresh = interned.as_group(), fresh.as_group()
    assert np.array_equal(h.mul, h_fresh.mul) and np.array_equal(h.inv, h_fresh.inv)
    mem = np.array(members)
    res = model.cocycle.restrict(interned)
    want = Cocycle(h_fresh, model.cocycle.num[np.ix_(mem, mem)], model.cocycle.den)
    assert np.array_equal(res.num, want.num) and res.den == want.den


def test_one_greedy_closure_per_group(monkeypatch):
    # building the group validates it (Light's test), make_rep snaps and
    # fills along the walk and validates on its edges, verify reads the
    # generators, and so does the trivializer: one closure between them
    closed = []
    closure = FiniteGroup._closure

    def counted_closure(group, candidates):
        closed.append(group)
        return closure(group, candidates)

    monkeypatch.setattr(FiniteGroup, "_closure", counted_closure)
    model = relabeled_model(parse_model_spec("genpauli:3").model, seed=2)
    g = model.group
    assert find_trivializing_phase(model.cocycle) is None
    assert model.cocycle.verify() and len(g.greedy_generators()) == 2
    assert [h for h in closed if h is g] == [g]


def test_one_spanning_tree_per_group(monkeypatch):
    # make_rep builds no tree on a monomial stack: the read, the integer
    # edge check and the entry test need none (the snap path fills down the
    # tree, and the dense validation reads its depth); two trivializer
    # solves and the linear characters read the same tree: it is built once
    built = []
    tree = groups._depth_first_tree

    def counted_tree(mul, gens, e):
        built.append(mul)
        return tree(mul, gens, e)

    monkeypatch.setattr(groups, "_depth_first_tree", counted_tree)
    model = relabeled_model(parse_model_spec("oddfam:3").model, seed=2)
    g = model.group
    assert model.cocycle.verify()
    assert find_trivializing_phase(model.cocycle) is None
    assert find_trivializing_phase(Cocycle.trivial(g)) is not None
    chars, e = _linear_characters(g)
    assert len(chars) == 4 and e == 6             # the dual of C2 x C2
    assert [m for m in built if m is g.mul] == [g.mul]


def test_the_character_is_computed_once_with_read_only_values():
    rep = parse_model_spec("c2d2n:3").model.rep
    chi = rep.character()
    assert rep.character() is chi
    assert np.allclose(chi.values, np.trace(rep.matrices, axis1=1, axis2=2), atol=1e-12)
    with pytest.raises(ValueError):
        chi.values[0] = 0


@pytest.mark.parametrize("spec", ["pauli:2", "c2d2n:3", "oddfam:3"])
def test_the_checked_and_unchecked_subgroup_constructors_set_the_same_fields(spec):
    # a field added to one constructor and missed by the other shows here
    g = parse_model_spec(spec).model.group
    for members in g._lattice():
        checked, unchecked = Subgroup(g, members), Subgroup._from_valid(g, members)
        assert sorted(vars(checked)) == sorted(vars(unchecked))
        for name, value in vars(checked).items():
            other = getattr(unchecked, name)
            if name == "_inside":
                assert value.dtype == other.dtype and np.array_equal(value, other)
            else:
                assert value is other or value == other, name
