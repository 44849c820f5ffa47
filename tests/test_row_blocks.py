"""The O(|G|^2) table passes of model construction, run in row blocks.

Group validation (groups), the cocycle identity (cocycles), and make_rep's
cocycle fill and denominator guard (projreps) all take their rows from
_linalg._blocks, one row holding the |G| entries of one table row.
Shrinking _linalg._PRODUCT_BLOCK_ENTRIES to one row or a few rows must
leave every table, verdict and error text as the default block gives them,
and at order 384 the passes must stay within a fixed memory budget.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from helpers import CATALOG_64, relabeled_model
from qeclab import _linalg, groups, projreps
from qeclab.cli import parse_model_spec
from qeclab.cocycles import Cocycle
from qeclab.groups import GroupValidationError, group_from_mul_table
from qeclab.projreps import make_rep

BIG = "permprod(genpauli:2,3)"
# one row, a few rows, and the default block
ROWS = [1, 3, None]


@functools.lru_cache(maxsize=None)
def _model(spec):
    return parse_model_spec(spec).model


def _block(monkeypatch, rows, n):
    """Table passes in blocks of `rows` rows of n entries, or the default."""
    if rows is not None:
        monkeypatch.setattr(_linalg, "_PRODUCT_BLOCK_ENTRIES", rows * n)


def test_the_bound_is_defined_once():
    # only _linalg names the bound (tests/test_tools.py); orders up to 128
    # fill one block, so they run one pass as before
    assert 128 * 128 == _linalg._PRODUCT_BLOCK_ENTRIES
    assert _linalg._blocks(128, 128) == [slice(0, 128)]
    assert len(_linalg._blocks(129, 129)) == 2


def _covers_in_order(count, per_row, entries):
    """_blocks(count, per_row) under a bound of entries: consecutive
    clamped slices of range(count), each of one row or at most entries."""
    blocks = _linalg._blocks(count, per_row)
    assert [i for b in blocks for i in range(count)[b]] == list(range(count))
    assert all(b.stop <= count for b in blocks)
    assert all(b.stop - b.start == 1 or (b.stop - b.start) * per_row <= entries for b in blocks)
    return blocks


@pytest.mark.parametrize("n, entries", [(0, 10), (7, 1), (10, 30), (10, 39), (10, 40), (5, 100)])
def test_row_blocks_cover_the_rows_in_order(n, entries, monkeypatch):
    monkeypatch.setattr(_linalg, "_PRODUCT_BLOCK_ENTRIES", entries)
    _covers_in_order(n, n, entries)


def test_blocks_of_rows_of_any_width(monkeypatch):
    # per_row apart from count: no rows give no block, a row wider than the
    # bound is a block of its own, and the last stop is clamped to count
    monkeypatch.setattr(_linalg, "_PRODUCT_BLOCK_ENTRIES", 100)
    assert _covers_in_order(0, 7, 100) == []
    assert _covers_in_order(3, 101, 100) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert _covers_in_order(10, 30, 100) == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10)]
    assert _covers_in_order(5, 0, 100) == [slice(0, 5)]


@pytest.mark.parametrize("rows", ROWS)
def test_the_cocycle_fill_is_byte_identical_at_every_block_size(rows, monkeypatch):
    # the 36 catalog models and the order-384 model: the table filled from
    # the edge columns is the model's cocycle table, byte for byte
    for spec in CATALOG_64 + [BIG]:
        model = _model(spec)
        g, sigma = model.group, model.cocycle
        _block(monkeypatch, rows, g.order)
        filled = projreps._fill_cocycle(g, sigma.num[:, g._cayley_walk().cols], sigma.den)
        assert filled.flags.c_contiguous
        assert filled.tobytes() == sigma.num.tobytes(), spec


@pytest.mark.parametrize("rows", ROWS)
def test_relabeled_big_model_is_byte_identical_at_every_block_size(rows, monkeypatch):
    # every blocked pass at once: group_from_mul_table's inverses and Light's
    # test, make_rep's fill, and the cocycle identity
    want = relabeled_model(_model(BIG), seed=3)
    _block(monkeypatch, rows, want.group.order)
    got = relabeled_model(_model(BIG), seed=3)
    assert got.group.identity == want.group.identity
    assert got.group.inv.tobytes() == want.group.inv.tobytes()
    assert got.group.greedy_generators() == want.group.greedy_generators()
    assert got.cocycle.den == want.cocycle.den
    assert got.cocycle.num.tobytes() == want.cocycle.num.tobytes()


def _corrupted(sigma, x, y):
    num = sigma.num.copy()
    num[x, y] = (num[x, y] + 1) % sigma.den
    return Cocycle(sigma.group, num, sigma.den)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("spec", ["xp:12", "oddfam:3", BIG])
def test_verify_finds_one_corrupted_entry_in_any_block(spec, rows, monkeypatch):
    # With y neither e, x nor a generator, sigma(x, y) enters the identity
    # s(x,y) + s(xy,z) = s(x,yz) + s(y,z), z a generator, only on row x:
    # once at (x, y, z) and once at (x, y z^-1, z).  So one step more on it
    # breaks those two and no identity outside x's block.  x lies in the
    # first, a middle and the last block.
    sigma = _model(spec).cocycle
    g = sigma.group
    n = g.order
    _block(monkeypatch, rows, n)
    assert Cocycle(g, sigma.num, sigma.den).verify()
    skip = {g.identity, *g.greedy_generators()}
    for x in (0, n // 2, n - 1):
        y = next(y for y in range(n) if y not in skip | {x})
        bad = _corrupted(sigma, x, y)
        assert not bad.verify()
        assert bad.find_violation() is not None


def _xor_table(bits):
    idx = np.arange(2**bits)
    return idx[:, None] ^ idx[None, :]


def _swapped(mul, row, col):
    """mul with the intercalate at rows row, row ^ 1 and columns col, col ^ 1
    swapped: still a latin square, and with row and col outside {0, 1} and
    row ^ col > 1, the identity's row and column and the inverses (the
    zeros) are untouched."""
    mul = mul.copy()
    rows, cols = [[row], [row ^ 1]], [col, col ^ 1]
    mul[rows, cols] = mul[rows, cols[::-1]]
    return mul


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("row", [2, 100, 254])
def test_an_associativity_violation_raises_at_every_block_size(row, rows, monkeypatch):
    # order 256 runs Light's test in 4 default blocks of 64 rows; the
    # swapped intercalate sits in the first, a middle or the last of them
    _block(monkeypatch, rows, 256)
    mul = _swapped(_xor_table(8), row, 6)
    idx = np.arange(256)
    assert (np.sort(mul, axis=1) == idx).all() and (np.sort(mul, axis=0) == idx[:, None]).all()
    with pytest.raises(GroupValidationError, match="^multiplication table is not associative$"):
        group_from_mul_table(mul)
    assert group_from_mul_table(_xor_table(8)).order == 256


@pytest.mark.parametrize("rows", ROWS)
def test_group_from_mul_table_keeps_its_errors_at_every_block_size(rows, monkeypatch):
    _block(monkeypatch, rows, 6)
    z6 = np.add.outer(np.arange(6), np.arange(6)) % 6
    perm = np.array([3, 1, 2, 0, 4, 5])         # new x is old perm[x]; e moves to 3
    group = group_from_mul_table(perm[z6[np.ix_(perm, perm)]])
    assert group.identity == 3
    assert group.inv.tolist() == [0, 5, 4, 3, 2, 1]
    with pytest.raises(GroupValidationError, match="^table has no identity element$"):
        group_from_mul_table(np.zeros((6, 6), dtype=int))
    with pytest.raises(GroupValidationError, match="^table has no identity element$"):
        group_from_mul_table(z6[:, :4])
    two_inverses = z6.copy()
    two_inverses[3, 4] = 0          # 3 * 3 = 3 * 4 = e
    with pytest.raises(GroupValidationError, match="^table has no two-sided inverse for some element$"):
        group_from_mul_table(two_inverses)
    one_sided = z6.copy()
    one_sided[2, 3], one_sided[2, 4] = 0, 5      # 2 * 3 = e, but 3 * 2 = 5
    with pytest.raises(GroupValidationError, match="^table has no two-sided inverse for some element$"):
        group_from_mul_table(one_sided)


@pytest.mark.parametrize("rows", ROWS)
def test_the_denominator_guard_names_the_same_entry_at_every_block_size(rows, monkeypatch):
    # on the edge columns sigma(g, g) = 1/12 and sigma(g^2, g) = 1/11 snap,
    # and the filled sigma(g^2, g^2) = 1/132 is above 4|G| = 12
    g = groups.cyclic(3)
    _block(monkeypatch, rows, 3)
    mats = np.exp(2j * np.pi * np.array([0, 23, 13]) / 396).reshape(3, 1, 1)
    with pytest.raises(projreps.MakeRepError, match=r"^filled cocycle has a denominator above 4\|G\| at \(2,2\)$"):
        make_rep(g, mats)


def test_a_cocycle_keeps_its_own_read_only_table():
    # the caller's table is copied once and the copy reduced in place, here
    # by 2; the caller's table is left as it was
    sigma = _model("oddfam:3").cocycle
    mine = sigma.num * 2
    copied = Cocycle(sigma.group, mine, 2 * sigma.den)
    assert copied == sigma and copied.den == sigma.den
    assert not np.shares_memory(copied.num, mine) and mine.flags.writeable
    assert np.array_equal(mine, sigma.num * 2)
    with pytest.raises(ValueError):
        copied.num[0, 0] = 1


# Peak memory above the start, less the memory kept, of building the
# relabeled order-384 model's group and rep.  A full int64 table of order
# 384 is 1.125 MiB.  Measured with the blocked passes: 0.33 MiB for
# group_from_mul_table (its row blocks) and 1.17 MiB for make_rep, which on
# this monomial stack is set by the read's numerator table, one full table
# that Cocycle copies as it reduces it; the unitarity check and the raw
# scalars, with their O(|G| dim^2) complex stacks of 0.375 MiB each, do
# not run.  Before the passes were blocked the two read 2.46 MiB and
# 6.06 MiB.
GROUP_BUDGET = 2**19            # 0.5 MiB
MAKE_REP_BUDGET = 3 * 2**19     # 1.5 MiB


def _excess(build):
    """(result, peak above the start less what is still held at the end)."""
    tracemalloc.start()
    try:
        out = build()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - end


def test_building_the_order_384_model_stays_within_its_memory_budget():
    model = _model(BIG)
    g = model.group
    perm = np.random.default_rng(3).permutation(g.order)
    pos = np.empty_like(perm)
    pos[perm] = np.arange(g.order)
    mul = pos[g.mul[np.ix_(perm, perm)]]
    mats = model.rep.matrices[perm]
    group, excess = _excess(lambda: group_from_mul_table(mul))
    assert excess <= GROUP_BUDGET
    rep, excess = _excess(lambda: make_rep(group, mats))
    assert excess <= MAKE_REP_BUDGET
    assert not rep.cocycle.num.flags.writeable
    assert rep.cocycle.den == model.cocycle.den
    assert rep.cocycle.num.tobytes() == model.cocycle.num[np.ix_(perm, perm)].tobytes()
