import json

import numpy as np
import pytest

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
    for a in g.elements():
        assert g.op(a, g.inv(a)) == g.identity


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_abelian_flag_matches_table(spec):
    g = group_from_spec(spec)
    actual = all(g.op(a, b) == g.op(b, a) for a in g.elements() for b in g.elements())
    assert g.is_abelian == actual


def test_symmetric_composition_convention():
    s3 = SymmetricGroup(3)
    # (0 1) followed by applying the product to (1 2): the transposition
    # indices in the lexicographic ordering of the permutations of 0..2.
    swap01 = s3.perms.index((1, 0, 2))
    swap12 = s3.perms.index((0, 2, 1))
    product = s3.op(swap01, swap12)
    assert s3.perms[product] == (1, 2, 0)  # the 3-cycle 0 -> 1 -> 2 -> 0
    assert s3.element_label(product) == "(0 1 2)"


def test_symmetric_identity_is_index_zero():
    for m in (1, 2, 3, 4):
        sm = SymmetricGroup(m)
        assert sm.perms[0] == tuple(range(m))
        assert sm.identity == 0


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


def test_element_labels():
    s3 = SymmetricGroup(3)
    assert s3.element_label(0) == "e"
    d4 = DihedralGroup(4)
    assert d4.element_label(0) == "r0"
    assert d4.element_label(5) == "r1s"
    g = group_from_spec("Z2xZ3")
    assert g.element_label(4) == "(1,1)"
