import json
import random

import numpy as np
import pytest

from hdx import groups
from hdx.errors import BadParamsError, ParseError
from hdx.groups import (
    CyclicGroup,
    DihedralGroup,
    SymmetricGroup,
    TableGroup,
    group_from_spec,
)

ALL_SPECS = ["Z1", "Z2", "Z3", "Z6", "Z2xZ2", "Z2xZ3", "S3", "S4", "D4", "D6"]


def test_cyclic_basics():
    z2 = CyclicGroup(2)
    assert z2.op(1, 1) == 0
    z3 = CyclicGroup(3)
    assert z3.inv(1) == 2
    assert z3.signed(1, -1) == 2
    assert z3.signed(2, 1) == 2
    z5 = CyclicGroup(5)
    assert z5.signed(2, 1) == 2


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_axioms_exhaustive(spec):
    g = group_from_spec(spec)
    g.check_axioms()
    for a in range(g.order):
        assert g.op(a, g.inv(a)) == 0


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_abelian_flag_matches_table(spec):
    g = group_from_spec(spec)
    actual = all(g.op(a, b) == g.op(b, a) for a in range(g.order) for b in range(g.order))
    assert g.is_abelian == actual


def test_symmetric_composition_convention():
    s3 = SymmetricGroup(3)
    # (0 1) followed by applying the product to (1 2): the transposition
    # indices in the lexicographic ordering of the permutations of 0..2.
    swap01 = s3.perms.index((1, 0, 2))
    swap12 = s3.perms.index((0, 2, 1))
    product = s3.op(swap01, swap12)
    assert s3.perms[product] == (1, 2, 0)  # the 3-cycle 0 -> 1 -> 2 -> 0


def test_symmetric_identity_is_index_zero():
    for m in (1, 2, 3, 4):
        sm = SymmetricGroup(m)
        assert sm.perms[0] == tuple(range(m))


def test_dihedral_structure():
    d4 = DihedralGroup(4)
    assert d4.order == 8
    assert not d4.is_abelian
    r = 1  # a rotation generator
    s = 4  # a reflection
    assert d4.op(s, s) == 0
    # s r s = r^-1
    assert d4.op(d4.op(s, r), s) == d4.inv(r)


def test_direct_product_indexing():
    g = group_from_spec("Z2xZ3")
    assert g.order == 6
    assert g.is_abelian
    # index = 3*a + b for (a, b) in Z2 x Z3
    assert g.op(3, 1) == 4  # (1,0) + (0,1) = (1,1)
    assert g.inv(4) == 5  # -(1,1) = (1,2)


@pytest.mark.parametrize("spec", ALL_SPECS + ["S5xZ3", "Z1000"])
def test_array_ops_match_scalar_ops(spec):
    # S5xZ3 has order 360: joining its factors must not wrap a small dtype.
    g = group_from_spec(spec)
    a = np.arange(g.order, dtype=np.int64)
    rows = a[:: max(1, g.order // 12)]
    got = g.op_array(rows[:, None], a[None, :])
    assert got.tolist() == [[g.op(int(x), int(y)) for y in a] for x in rows]
    assert g.inv_array(a).tolist() == [g.inv(int(x)) for x in a]


@pytest.mark.parametrize("m", [1, 2, 3, 17, 128, 256, 2**40, 2**70])
def test_cyclic_array_ops_match_the_modulo_form(m):
    # The subtract-and-zero forms give the values and dtypes of (a + b) % m and
    # -a % m on reduced elements: numpy rows in the narrowest signed dtype that
    # holds 2m - 2 (Python-int object rows past 2^62), numpy scalars and 0-d arrays.
    g = CyclicGroup(m)
    dtype = np.min_scalar_type(-2 * m) if m <= 2**62 else object
    rng = random.Random(m)
    values = sorted({0, m - 1, m // 2} | {rng.randrange(m) for _ in range(40)})
    a = np.array(values, dtype=dtype)
    pairs = [(a[:, None], a[None, :]), (a, a[::-1].copy())]
    if dtype is not object:
        pairs += [(a.dtype.type(m - 1), a.dtype.type(m // 2)), (np.asarray(a[-1]), np.asarray(a[0]))]
    for x, y in pairs:
        for got, want in ((g.op_array(x, y), (x + y) % m), (g.inv_array(x), -x % m)):
            assert type(got) is type(want) and np.asarray(got).dtype == np.asarray(want).dtype
            assert np.asarray(got).tolist() == np.asarray(want).tolist()
    assert g.op_array(m - 1, m - 1) == (2 * m - 2) % m and g.inv_array(0) == 0


def test_direct_product_ops_on_scalars_and_0d_arrays():
    # _split hands each Z_m factor 0-d int64 arrays; their sums are numpy scalars.
    g = group_from_spec("Z2xZ3")
    for x in range(g.order):
        for y in range(g.order):
            want = 3 * ((x // 3 + y // 3) % 2) + (x % 3 + y % 3) % 3
            assert int(g.op_array(np.int64(x), np.int64(y))) == want
            assert int(g.op_array(np.asarray(x), np.asarray(y))) == want
        assert int(g.inv_array(np.asarray(x))) == 3 * (x // 3) + (-x % 3) % 3


Z2_70 = "Z1180591620717411303424"  # Z_(2^70)


@pytest.mark.parametrize("spec", [Z2_70 + "xS3", "S3x" + Z2_70, Z2_70 + "xZ2"])
def test_products_past_2_62_compute_on_python_ints(spec):
    # Past 2^62 elements a cochain row holds Python ints: digits split with // and %,
    # a table factor reads int64 digits and the indices join as Python ints.
    g = group_from_spec(spec)
    big, small = (g.factors[0], g.factors[1]) if spec.startswith("Z") else (g.factors[1], g.factors[0])
    rng = random.Random(spec)
    a = np.array([rng.randrange(g.order) for _ in range(30)] + [0, g.order - 1], dtype=object)
    b = a[::-1].copy()
    got, inv = g.op_array(a, b), g.inv_array(a)
    assert got.dtype == inv.dtype == object
    assert got.tolist() == [g.op(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert inv.tolist() == [g.inv(x) for x in a.tolist()]
    assert all(type(x) is int for x in got.tolist() + inv.tolist())

    def pair(x):  # (element of Z_2^70, element of the small factor)
        hi, lo = divmod(x, g.factors[1].order)
        return (hi, lo) if spec.startswith("Z") else (lo, hi)

    def index(z, s):
        return z * small.order + s if spec.startswith("Z") else s * big.order + z

    for x, y, xy, xi in zip(a.tolist(), b.tolist(), got.tolist(), inv.tolist()):
        (zx, sx), (zy, sy) = pair(x), pair(y)
        assert xy == index((zx + zy) % big.order, small.op(sx, sy))
        assert xi == index(-zx % big.order, small.inv(sx))


def test_spec_parsing_errors():
    with pytest.raises(ParseError):
        group_from_spec("")
    with pytest.raises(ParseError):
        group_from_spec("Q8")
    with pytest.raises(ParseError):
        group_from_spec("Z2x")


def test_table_group_roundtrip(tmp_path):
    z3 = CyclicGroup(3)
    table = [[z3.op(a, b) for b in range(3)] for a in range(3)]
    path = tmp_path / "z3.json"
    path.write_text(json.dumps({"name": "Z3-table", "table": table}))
    g = group_from_spec(f"table:{path}")
    assert g.order == 3
    assert g.op(1, 2) == 0
    assert g.inv(2) == 1


def test_table_group_rejects_bad_tables():
    with pytest.raises(BadParamsError):
        TableGroup("bad", [[0, 1], [1, 1]])  # second row not a permutation
    for rows in ([[0, 1], [1]], [[0, 1], [1, 0, 0]], [[0, 1], [1, 2**70]]):  # short, long, past int64
        with pytest.raises(BadParamsError, match="table row 1 is not a permutation"):
            TableGroup("bad", rows)
    with pytest.raises(BadParamsError):
        TableGroup("bad", [[1, 0], [0, 1]])  # index 0 not the identity
    # A magma table that is a latin square but not associative.
    with pytest.raises(BadParamsError):
        TableGroup(
            "bad",
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ],
        )


@pytest.mark.parametrize("cells", [36, 72, 108, 144, 1 << 16])
def test_associativity_names_the_smallest_failing_left_factor(monkeypatch, cells):
    # A loop of order 6 (identity 0, two-sided inverses) in which exactly the
    # left factors 3, 4 and 5 break associativity.  The check compares blocks
    # of cells // 36 left factors: 1; 2, with 3 after 2; 3, with 3 first; 4,
    # with 3 last; all 6.
    rows = [
        [0, 1, 2, 3, 4, 5],
        [1, 2, 0, 4, 5, 3],
        [2, 0, 1, 5, 3, 4],
        [3, 5, 4, 2, 0, 1],
        [4, 3, 5, 0, 1, 2],
        [5, 4, 3, 1, 2, 0],
    ]
    failing = [
        a for a in range(6) if any(rows[rows[a][b]][c] != rows[a][rows[b][c]] for b in range(6) for c in range(6))
    ]
    assert failing == [3, 4, 5]
    monkeypatch.setattr(groups, "_AXIOM_CELLS", cells)
    with pytest.raises(BadParamsError, match="^associativity fails for left factor 3$"):
        TableGroup("loop", rows)


def _no_listing(*args):
    raise AssertionError("permutations listed for a group past the table limit")


@pytest.mark.parametrize(
    "spec, error",
    [
        ("D2000", BadParamsError),
        ("S12", BadParamsError),
        ("Z" + "9" * 5000, ParseError),
        ("S" + "9" * 5000, ParseError),
    ],
    ids=["D2000", "S12", "Z-past-digit-limit", "S-past-digit-limit"],
)
def test_oversized_group_specs_are_refused_at_once(monkeypatch, one_second, spec, error):
    # The order alone decides: no table is built and no permutation listed.
    monkeypatch.setattr(groups, "permutations", _no_listing)
    with one_second(), pytest.raises(error):
        group_from_spec(spec)
