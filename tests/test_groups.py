import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CATALOG_64,
    cayley_bfs_oracle,
    closure_oracle,
    coset_lattice_oracle,
    coset_representatives_loop,
    dihedral_loop,
    inversion_semidirect_loop,
    lattice_oracle,
    permutation_semidirect_loop,
    quotient_loop,
    random_subgroup,
    relabeled_model,
    symmetric_loop,
    word_walk_oracle,
)
from qeclab import groups
from qeclab.cli import parse_model_spec
from qeclab.groups import (
    GroupValidationError,
    cyclic,
    dihedral,
    direct_product,
    group_from_mul_table,
    inversion_semidirect,
    permutation_semidirect,
    symmetric,
)


def test_cyclic_basics():
    g = cyclic(6)
    assert g.order == 6
    assert g.identity == 0
    assert g.is_abelian()
    assert g.element_order(1) == 6
    assert g.element_order(2) == 3
    assert g.exponent() == 6
    for a in range(6):
        for b in range(6):
            assert g.mul[a, b] == (a + b) % 6


def test_dihedral_structure():
    g = dihedral(4)
    assert g.order == 8
    assert not g.is_abelian()
    # index k*n + l encodes b^k a^l with a^n = b^2 = 1, b a b = a^{-1}
    a, b = 1, 4
    assert g.element_order(a) == 4
    assert g.element_order(b) == 2
    aba = g.mul[b, g.mul[a, b]]
    assert aba == g.inv[a]
    assert g.center().members == (0, 2)


def test_dihedral_all_reflections_order_two():
    g = dihedral(5)
    for l in range(5):
        assert g.element_order(5 + l) == 2


def test_symmetric_group():
    g = symmetric(3)
    assert g.order == 6
    assert not g.is_abelian()
    assert sorted(g.element_order(x) for x in range(6)) == [1, 2, 2, 2, 3, 3]
    assert symmetric(4).order == 24


def test_direct_product_indexing():
    g1, g2 = cyclic(2), cyclic(3)
    g = direct_product(g1, g2)
    assert g.order == 6
    assert g.is_abelian()
    for x1 in range(2):
        for y1 in range(3):
            for x2 in range(2):
                for y2 in range(3):
                    lhs = g.mul[x1 * 3 + y1, x2 * 3 + y2]
                    rhs = ((x1 + x2) % 2) * 3 + (y1 + y2) % 3
                    assert lhs == rhs


def test_inversion_semidirect():
    g = inversion_semidirect(3)
    # Z3 x Z3 flipped by an order-2 inversion: nonabelian of order 18
    assert g.order == 18
    assert not g.is_abelian()
    flip = 1  # (0, 0, 1)
    assert g.element_order(flip) == 2
    a = (1 * 3 + 0) * 2 + 0  # (1, 0, 0)
    assert g.element_order(a) == 3
    # conjugation by the flip inverts the translation part
    assert g.conjugate(flip, a) == g.inv[a]


def test_inversion_semidirect_rejects_even():
    with pytest.raises(ValueError):
        inversion_semidirect(4)


def test_permutation_semidirect_order():
    base = cyclic(2)
    g = permutation_semidirect(base, 3)
    assert g.order == 2 ** 3 * 6
    # the vector part with identity permutation is an abelian subgroup
    vec = g.subgroup([k * 6 for k in range(8)])
    assert len(vec) == 8
    assert vec.is_abelian()
    # pure permutations form a copy of S3
    perms = g.subgroup(range(6))
    assert perms.as_group().order == 6
    assert not perms.is_abelian()


def test_group_from_mul_table_validation():
    ok = group_from_mul_table([[0, 1], [1, 0]])
    assert ok.order == 2
    with pytest.raises(GroupValidationError):
        group_from_mul_table([[0, 1], [0, 1]])  # not a latin square
    with pytest.raises(GroupValidationError):
        # latin square but not associative (order-5 quasigroup)
        group_from_mul_table(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )


def test_subgroup_generated_and_membership():
    g = dihedral(6)
    rot = g.subgroup_generated([1])
    assert len(rot) == 6
    assert rot.is_normal()
    refl = g.subgroup_generated([6])
    assert len(refl) == 2
    assert not refl.is_normal()
    assert 1 in rot and 6 not in rot


def test_subgroup_as_group_relabels():
    g = dihedral(4)
    sub = g.subgroup_generated([2, 4])  # {1, a^2, b, a^2 b}: Klein four
    h = sub.as_group()
    assert h.order == 4
    assert h.is_abelian()
    assert all(h.element_order(x) in (1, 2) for x in range(4))
    # member order is preserved by the relabeling
    for i, m in enumerate(sub.members):
        assert sub.position(m) == i


def test_all_subgroups_klein_four():
    g = direct_product(cyclic(2), cyclic(2))
    subs = g.all_subgroups()
    # 1 trivial + 3 order-2 + the whole group
    assert len(subs) == 5
    sizes = sorted(len(s) for s in subs)
    assert sizes == [1, 2, 2, 2, 4]


def test_all_subgroups_d4_count():
    # the order-8 dihedral group has exactly 10 subgroups
    assert len(dihedral(4).all_subgroups()) == 10


def test_quotient_of_dihedral_by_rotations():
    g = dihedral(6)
    rot = g.subgroup_generated([1])
    q, proj = g.quotient(rot)
    assert q.order == 2
    assert proj.shape == (12,)
    assert proj[0] == 0
    for x in range(12):
        for y in range(12):
            assert q.mul[proj[x], proj[y]] == proj[g.mul[x, y]]


def test_quotient_requires_normal():
    g = dihedral(4)
    refl = g.subgroup_generated([4])
    assert not refl.is_normal()
    with pytest.raises(ValueError):
        g.quotient(refl)


def test_coset_representatives():
    g = dihedral(4)
    sub = g.subgroup_generated([1])
    reps = g.coset_representatives(sub)
    assert len(reps) == 2
    assert reps[0] in sub  # identity coset first
    seen = set()
    for r in reps:
        seen |= {g.mul[r, h] for h in sub.members}
    assert seen == set(range(8))


def test_center_of_quaternion_like():
    g = dihedral(4)
    z = g.center()
    assert len(z) == 2
    assert z.is_normal()


def test_element_names_compose():
    g = dihedral(3)
    assert g.name_of(0) == "1"
    names = {g.name_of(x) for x in range(6)}
    assert len(names) == 6


def test_associativity_check_is_conclusive_above_order_64():
    # XOR table of (Z_2)^9 with one intercalate swapped: still a latin square
    # with identity and inverses, but only 8144 of its 512^3 triples break
    # associativity, so 20,000 random triples miss them all about 30% of the
    # time; a conclusive check must still reject it
    n = 512
    idx = np.arange(n)
    mul = idx[:, None] ^ idx[None, :]
    mul[[1, 257], [2, 258]] = 259
    mul[[1, 257], [258, 2]] = 3
    with pytest.raises(GroupValidationError, match="not associative"):
        group_from_mul_table(mul)


SMALL_CATALOG = (
    [f"genpauli:{n}" for n in range(2, 7)]
    + ["pauli:1", "pauli:2"]
    + [f"xp:{n}" for n in range(2, 19)]
    + [f"c2d2n:{n}" for n in range(2, 5)]
    + ["oddfam:3", "permprod(genpauli:2,2)", "prod(genpauli:2,genpauli:3)"]
)


@pytest.mark.parametrize("spec", SMALL_CATALOG)
def test_all_subgroups_match_oracle(spec):
    g = parse_model_spec(spec).model.group
    assert g.order <= 36
    subs = g.all_subgroups()
    assert [h.members for h in subs] == lattice_oracle(g)
    for h in subs:
        inside = set(h.members)
        normal = all(g.conjugate(x, m) in inside for x in range(g.order) for m in h.members)
        abelian = all(g.mul[a, b] == g.mul[b, a] for a in h.members for b in h.members)
        assert h.is_normal() == normal
        assert h.is_abelian() == abelian


@pytest.mark.parametrize(
    "spec, count",
    [
        ("prod(genpauli:2,genpauli:4)", 249),
        ("c2d2n:8", 137),
        ("genpauli:8", 37),
        ("pauli:3", 2825),
    ],
)
def test_all_subgroups_counts_at_order_64(spec, count):
    g = parse_model_spec(spec).model.group
    assert g.order == 64
    assert len(g.all_subgroups()) == count


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SMALL_CATALOG), st.integers(0, 2**32 - 1))
def test_all_subgroups_match_oracle_on_relabeled_groups(spec, seed):
    # the coset cover skips representatives by their index, so a renumbering
    # changes which pairs it skips, never the lattice
    g = _relabeled(parse_model_spec(spec).model.group, seed)
    assert [h.members for h in g.all_subgroups()] == lattice_oracle(g)


@pytest.mark.parametrize(
    "spec, bound, count",
    [
        # 4,146, 3,782 and 468 extensions without the coset cover
        ("prod(genpauli:2,genpauli:4)", 1700, 249),
        ("c2d2n:8", 1100, 137),
        ("genpauli:8", 200, 37),
    ],
)
def test_covered_extensions_are_not_closed(spec, bound, count, monkeypatch):
    g = parse_model_spec(spec).model.group
    g = group_from_mul_table(g.mul)   # a fresh group, its lattice not yet built
    built = {"one column": 0, "more columns": 0}
    extend = groups._extend_closure

    def counted(members, mask, cols):
        built["one column" if len(cols) == 1 else "more columns"] += 1
        return extend(members, mask, cols)

    monkeypatch.setattr(groups, "_extend_closure", counted)
    assert len(g.all_subgroups()) == count
    # every extension built is one closure; in an abelian group every x
    # normalizes H, so each is closed under x's column alone
    assert 0 < sum(built.values()) <= bound
    if g.is_abelian():
        assert built["more columns"] == 0


def test_all_subgroups_cap_checked_first():
    g = cyclic(65)
    with pytest.raises(ValueError, match="capped at order 64"):
        g.all_subgroups()
    assert len(g.all_subgroups(max_order=65)) == 4


CONSTRUCTED = [
    cyclic(12),
    dihedral(6),
    direct_product(cyclic(2), dihedral(3)),
    inversion_semidirect(3),
    symmetric(4),
    permutation_semidirect(cyclic(2), 2),
    group_from_mul_table(dihedral(5).mul),
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subgroup_generated_matches_oracle(data):
    g = data.draw(st.sampled_from(CONSTRUCTED))
    gens = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    assert g.subgroup_generated(gens).members == closure_oracle(g, gens)


# ------------------------------------------------ table-memory cap


@pytest.mark.parametrize(
    "build",
    [
        lambda: cyclic(10**6),
        lambda: dihedral(10**5),
        lambda: inversion_semidirect(2001),
        lambda: direct_product(cyclic(100), cyclic(100)),
        lambda: permutation_semidirect(cyclic(4), 6),
        lambda: symmetric(12),
    ],
    ids=["cyclic", "dihedral", "inversion", "product", "wreath", "symmetric"],
)
def test_oversized_table_refused_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_table_cap_is_the_table_memory():
    limit = int((groups._MAX_TABLE_BYTES // 8) ** 0.5)
    groups._check_table_size(limit)
    with pytest.raises(ValueError, match="MiB multiplication table"):
        groups._check_table_size(limit + 1)
    with pytest.raises(ValueError, match="MiB multiplication table"):
        cyclic(limit + 1)


# ------------------------------------------------ whole-array constructors


def _assert_same_group(got, want):
    assert got.mul.dtype == want.mul.dtype
    assert got.mul.tobytes() == want.mul.tobytes()
    assert got.inv.tobytes() == want.inv.tobytes()
    assert got.identity == want.identity
    assert got.element_names == want.element_names
    assert got.label == want.label


@pytest.mark.parametrize(
    "spec, n",
    [("genpauli:2", 1), ("genpauli:2", 2), ("genpauli:2", 3), ("pauli:1", 3),
     ("cyclic:3", 2), ("genpauli:3", 2)],
)
def test_permutation_semidirect_matches_the_entry_loop(spec, n):
    base = cyclic(3) if spec == "cyclic:3" else parse_model_spec(spec).model.group
    _assert_same_group(permutation_semidirect(base, n), permutation_semidirect_loop(base, n))


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_matches_the_entry_loop(n):
    _assert_same_group(symmetric(n), symmetric_loop(n))


@pytest.mark.parametrize("n", range(2, 40))
def test_dihedral_matches_the_entry_loop(n):
    _assert_same_group(dihedral(n), dihedral_loop(n))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_inversion_semidirect_matches_the_entry_loop(n):
    _assert_same_group(inversion_semidirect(n), inversion_semidirect_loop(n))


def _relabeled(group: groups.FiniteGroup, seed: int) -> groups.FiniteGroup:
    """group with its elements renumbered at random, so the identity need not be 0."""
    perm = np.random.default_rng(seed).permutation(group.order)
    mul = np.empty_like(group.mul)
    mul[np.ix_(perm, perm)] = perm[group.mul]
    return group_from_mul_table(mul, label=f"{group.label}'")


@pytest.mark.parametrize(
    "spec", CATALOG_64 + ["permprod(genpauli:2,3)", "relabeled oddfam:3", "relabeled c2d2n:3"]
)
def test_cosets_match_the_per_element_loop(spec):
    relabel = spec.startswith("relabeled ")
    g = parse_model_spec(spec.removeprefix("relabeled ")).model.group
    if relabel:
        g = _relabeled(g, seed=3)
        assert g.identity != 0
    rng = np.random.default_rng(5)
    if g.order > 64:  # above the lattice cap
        subs = [g.trivial_subgroup(), g.full_subgroup(), *(random_subgroup(g, rng) for _ in range(40))]
    else:
        subs = g.all_subgroups()
        if len(subs) > 300:
            subs = [subs[i] for i in rng.choice(len(subs), 300, replace=False)]
    for sub in subs:
        assert g.coset_representatives(sub) == coset_representatives_loop(g, sub)
        if sub.is_normal():
            (quo, projection), (want, want_projection) = g.quotient(sub), quotient_loop(g, sub)
            assert np.array_equal(projection, want_projection)
            assert np.array_equal(quo.mul, want.mul)
            assert quo.element_names == want.element_names


# ------------------------------------------------ the cached Cayley walk


def _walk_groups():
    yield from (parse_model_spec(spec).model.group for spec in CATALOG_64 if spec != "pauli:3")
    yield parse_model_spec("permprod(genpauli:2,3)").model.group
    yield from (cyclic(1), cyclic(7), dihedral(5), symmetric(4), inversion_semidirect(3))
    yield relabeled_model(parse_model_spec("c2d2n:4").model, seed=4).group


def _tree_by_element(walk):
    """(depth, parent, step) per element, as lists read from the walk's arrays."""
    parent, step, depth = walk.tree
    return depth.tolist(), parent.tolist(), step.tolist()


@pytest.mark.parametrize("g", list(_walk_groups()), ids=lambda g: f"{g.label}-{g.order}")
def test_cached_walk_matches_a_brute_force_bfs(g):
    # what a breadth-first search pins of the cached walk: the generators,
    # the edge columns and ends, and depths 0 and 1 of its tree; deeper, a
    # tree depth is the length of one word, never below the BFS distance
    walk = g._cayley_walk()
    assert g._cayley_walk() is walk
    gens = g._closure(range(g.order))[1]
    assert walk.gens == gens == g.greedy_generators()
    assert walk.cols.tolist() == [g.identity, *gens]
    assert np.array_equal(walk.ends, g.mul[:, walk.cols])
    bfs_depth, bfs_parent, bfs_step = cayley_bfs_oracle(g)
    depth, parent, step = _tree_by_element(walk)
    assert all(d >= b for d, b in zip(depth, bfs_depth))
    assert [x for x in range(g.order) if depth[x] <= 1] == [
        x for x in range(g.order) if bfs_depth[x] <= 1
    ]
    assert all(parent[x] == bfs_parent[x] and step[x] == bfs_step[x]
               for x in range(g.order) if depth[x] <= 1)
    assert walk.length == max(depth) >= max(bfs_depth)
    _check_tree_against_the_word_walk(g)


def _check_tree_against_the_word_walk(g):
    from qeclab.cocycles import _edge_system

    walk = g._cayley_walk()
    gens, coeff, edges = word_walk_oracle(g)
    assert walk.gens == gens
    want_parent = [-1] * g.order
    want_step = [-1] * g.order
    want_depth = [0] * g.order
    for x in gens:
        want_parent[x], want_step[x], want_depth[x] = g.identity, x, 1
    for x, s, y in edges:
        want_parent[y], want_step[y], want_depth[y] = x, s, want_depth[x] + 1
    depth, parent, step = _tree_by_element(walk)
    assert (depth, parent, step) == (want_depth, want_parent, want_step)
    assert walk.length == max(want_depth)
    below = np.arange(g.order) != g.identity
    parents, steps = walk.tree[0][below], walk.tree[1][below]
    assert np.array_equal(g.mul[parents, steps], np.flatnonzero(below))
    got = _edge_system(g)[1]
    assert got.dtype == coeff.dtype and np.array_equal(got, coeff)


@pytest.mark.parametrize("spec", ["c2d2n:3", "oddfam:3"])
def test_cached_tree_matches_the_word_walk_oracle_on_every_subgroup(spec):
    for sub in parse_model_spec(spec).model.group.all_subgroups():
        _check_tree_against_the_word_walk(sub.as_group())


# ------------------------------------------------ group axioms, by property


def _small_groups(max_order: int):
    """Every constructor on small drawn parameters, filtered to order <= max_order."""
    factors = st.one_of(
        st.integers(1, 8).map(cyclic),
        st.integers(2, 4).map(dihedral),
        st.integers(1, 3).map(symmetric),
    )
    return st.one_of(
        st.integers(1, 12).map(cyclic),
        st.integers(2, 8).map(dihedral),
        st.sampled_from([3, 5]).map(inversion_semidirect),
        st.integers(1, 5).map(symmetric),
        st.tuples(factors, factors).map(lambda pair: direct_product(*pair)),
        st.tuples(factors, st.integers(1, 3))
        .filter(lambda bn: bn[0].order ** bn[1] * math.factorial(bn[1]) <= max_order)
        .map(lambda bn: permutation_semidirect(*bn)),
    ).filter(lambda g: g.order <= max_order)


def _assert_group_axioms(mul, identity, inv):
    # whole-array checks on the table alone: every product, the identity
    # and the inverses, and (xy)z = x(yz) on all n^3 triples
    n = len(mul)
    idx = np.arange(n)
    assert mul.shape == (n, n) and mul.min() >= 0 and mul.max() < n
    assert (mul[identity] == idx).all() and (mul[:, identity] == idx).all()
    assert (mul[idx, inv] == identity).all() and (mul[inv, idx] == identity).all()
    assert (mul[mul, :] == mul[idx[:, None, None], mul[None, :, :]]).all()


@settings(max_examples=60, deadline=None)
@given(g=_small_groups(120))
def test_every_constructor_satisfies_the_group_axioms(g):
    _assert_group_axioms(g.mul, g.identity, g.inv)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_relabeled_table_satisfies_the_group_axioms(data):
    g = data.draw(_small_groups(64))
    perm = np.array(data.draw(st.permutations(range(g.order))))   # new i is old perm[i]
    pos = np.argsort(perm)
    h = group_from_mul_table(pos[g.mul[np.ix_(perm, perm)]])
    assert h.identity == pos[g.identity]
    assert (h.inv == pos[g.inv[perm]]).all()
    _assert_group_axioms(h.mul, h.identity, h.inv)


_NAMED_GROUPS = {"dihedral(6)": lambda: dihedral(6), "symmetric(4)": lambda: symmetric(4)}


@pytest.mark.parametrize(
    "spec",
    CATALOG_64 + ["relabeled dihedral(6)", "relabeled symmetric(4)", "relabeled oddfam:3"],
)
def test_all_subgroups_match_the_coset_oracle(spec):
    # one-column closures (x normalizing H) and closures under H's
    # generators (the rest) mix in the nonabelian groups; relabeling moves
    # which x the extensions meet first
    name = spec.removeprefix("relabeled ")
    g = _NAMED_GROUPS.get(name, lambda: parse_model_spec(name).model.group)()
    g = _relabeled(g, seed=3) if spec != name else group_from_mul_table(g.mul)
    want = coset_lattice_oracle(g)
    assert [h.members for h in g.all_subgroups()] == want
    if g.order <= 36:
        assert want == lattice_oracle(g)
