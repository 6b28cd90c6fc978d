from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_complexes import weighted_complexes

from hdx.cochains import (
    Cochain,
    act,
    cochain_from_text,
    cochain_to_text,
    coboundary_abelian,
    coboundary_nonabelian_0,
    coboundary_nonabelian_1,
    distance,
    perm_parity,
    random_cochain,
)

from hdx.errors import (
    BadDimensionError,
    DimensionMismatchError,
    GroupMismatchError,
    NonAbelianGroupError,
    ParseError,
    UndefinedCoboundaryError,
    UnknownFaceError,
)
from hdx.groups import group_from_spec
from hdx.instances import complete_complex, glued_simplices, single_simplex


def test_perm_parity():
    assert perm_parity((0, 1, 2)) == 1
    assert perm_parity((1, 0, 2)) == -1
    assert perm_parity((2, 0, 1)) == 1


def test_eval_antisymmetry_z3(k4_skeleton, z3):
    f = Cochain(k4_skeleton, 1, z3, {(0, 1): 1})
    assert f.eval((0, 1)) == 1
    assert f.eval((1, 0)) == 2


def test_eval_char2_symmetric(k4_skeleton, f2):
    f = Cochain(k4_skeleton, 1, f2, {(0, 1): 1})
    assert f.eval((1, 0)) == f.eval((0, 1)) == 1


def test_eval_odd_permutation_z4():
    X = single_simplex(2)
    z4 = group_from_spec("Z4")
    f = Cochain(X, 2, z4, {(0, 1, 2): 1})
    assert f.eval((1, 0, 2)) == 3
    assert f.eval((1, 2, 0)) == 1


def test_eval_unknown_face(k4_skeleton, f2):
    f = Cochain(k4_skeleton, 1, f2, {(0, 1): 1})
    with pytest.raises(UnknownFaceError):
        f.eval((0, 9))
    with pytest.raises(UnknownFaceError):
        f.eval((0, 0))


def test_coboundary_single_triangle(f2):
    X = single_simplex(2)
    f = Cochain(X, 1, f2, {(0, 1): 1})
    df = coboundary_abelian(f)
    assert df.values == {(0, 1, 2): 1}
    assert df.weight() == 1


def test_coboundary_k4_z3(k4_skeleton, z3):
    f = Cochain(k4_skeleton, 1, z3, {(0, 1): 1})
    df = coboundary_abelian(f)
    # delta f(v0 v1 v2) = f(v1 v2) - f(v0 v2) + f(v0 v1)
    assert set(df.values) == {(0, 1, 2), (0, 1, 3)}
    assert df.values[(0, 1, 2)] == 1
    assert df.values[(0, 1, 3)] == 1


def test_coboundary_squared_zero_random(rng):
    specs = ["Z2", "Z3", "Z6", "Z2xZ2"]
    for X in (complete_complex(5, 2), complete_complex(6, 3)):
        for spec in specs:
            G = group_from_spec(spec)
            for k in range(0, X.dimension - 1):
                f = random_cochain(X, k, G, rng, 0.4)
                assert coboundary_abelian(coboundary_abelian(f)).is_zero()


def test_coboundary_errors(k4_skeleton, s3, f2):
    f = Cochain(k4_skeleton, 1, s3, {})
    with pytest.raises(NonAbelianGroupError):
        coboundary_abelian(f)
    top = Cochain(k4_skeleton, 2, f2, {})
    with pytest.raises(BadDimensionError):
        coboundary_abelian(top)
    with pytest.raises(UndefinedCoboundaryError):
        Cochain(k4_skeleton, 2, s3, {}).coboundary()


def test_nonabelian_coboundary_0(s3):
    X = single_simplex(1)
    # f(0) = the transposition swapping 0 and 1, f(1) = identity.
    swap = 1  # lexicographic index of (0, 2, 1) is 1: the (1 2) transposition
    assert s3.perms[swap] == (0, 2, 1)
    f = Cochain(X, 0, s3, {(0,): swap})
    df = coboundary_nonabelian_0(f)
    assert df.values[(0, 1)] == swap  # f(0) f(1)^-1 = swap


def test_nonabelian_coboundary_0_constant_vanishes(s3):
    X = complete_complex(4, 2)
    f = Cochain(X, 0, s3, {(v,): 3 for v in X.vertices()})
    assert coboundary_nonabelian_0(f).is_zero()


def test_nonabelian_delta_delta_identity(rng, s3):
    X = glued_simplices(3, 2)
    for _ in range(50):
        f = random_cochain(X, 0, s3, rng, 0.6)
        assert coboundary_nonabelian_1(coboundary_nonabelian_0(f)).is_zero()


def test_nonabelian_coboundary_1_hand_product(s3):
    X = single_simplex(2)
    # g(0,1) = (0 1), g(1,2) = (1 2), g(0,2) = identity.
    g01 = s3.perms.index((1, 0, 2))
    g12 = s3.perms.index((0, 2, 1))
    g = Cochain(X, 1, s3, {(0, 1): g01, (1, 2): g12})
    dg = coboundary_nonabelian_1(g)
    # g(01) g(12) g(20) = (0 1)(1 2) = the cycle 0 -> 1 -> 2 -> 0.
    assert s3.perms[dg.values[(0, 1, 2)]] == (1, 2, 0)


def test_weight_examples(k4_skeleton, f2):
    assert Cochain(k4_skeleton, 1, f2).weight() == 0
    single = Cochain(k4_skeleton, 1, f2, {(0, 1): 1})
    assert single.weight() == Fraction(1, 6)
    full = Cochain(k4_skeleton, 1, f2, {e: 1 for e in k4_skeleton.faces(1)})
    assert full.weight() == 1


def test_localize_example(k4_skeleton, f2):
    f = Cochain(k4_skeleton, 1, f2, {(0, 1): 1})
    f0 = f.localize((0,))
    assert f0.dimension == 0
    assert set(f0.values) == {(1,)}
    assert f0.weight() == Fraction(1, 3)
    assert Cochain(k4_skeleton, 1, f2).localize((0,)).is_zero()


def test_localize_empty_face_is_identity(k4_skeleton, z3):
    f = Cochain(k4_skeleton, 1, z3, {(0, 1): 1, (2, 3): 2})
    f_empty = f.localize(())
    assert f_empty.values == f.values


def test_localize_sign_convention(z3):
    X = single_simplex(2)
    f = Cochain(X, 1, z3, {(0, 1): 1, (0, 2): 2, (1, 2): 1})
    f1 = f.localize((1,))
    # f_1(tau) = f(1, tau): f(1,0) = -f(0,1) = 2, f(1,2) = 1.
    assert f1.values == {(0,): 2, (2,): 1}


def test_localize_support_commutes(rng, z3):
    X = complete_complex(6, 3)
    for _ in range(20):
        f = random_cochain(X, 2, z3, rng, 0.4)
        sigma = rng.choice([(0,), (1,), (0, 1), (2, 4)])
        localized = f.localize(sigma)
        rest = [tuple(v for v in face if v not in sigma) for face in f.support() if set(sigma) <= set(face)]
        assert localized.support().faces == frozenset(rest)


def test_distance_metric(rng, z3, k4_skeleton):
    f = random_cochain(k4_skeleton, 1, z3, rng, 0.5)
    g = random_cochain(k4_skeleton, 1, z3, rng, 0.5)
    h = random_cochain(k4_skeleton, 1, z3, rng, 0.5)
    assert distance(f, f) == 0
    assert distance(f, g) == distance(g, f)
    assert distance(f, h) <= distance(f, g) + distance(g, h)


def test_distance_on_single_edge_complex(s3):
    X = single_simplex(1)
    f = Cochain(X, 1, s3, {(0, 1): s3.perms.index((1, 0, 2))})
    g = Cochain(X, 1, s3, {(0, 1): s3.perms.index((2, 1, 0))})
    assert distance(f, g) == 1


def test_distance_char2_is_xor_weight(rng, f2, k4_skeleton):
    f = random_cochain(k4_skeleton, 1, f2, rng, 0.5)
    g = random_cochain(k4_skeleton, 1, f2, rng, 0.5)
    xor = f + g  # over a two-element group, f + g = f - g
    assert distance(f, g) == xor.weight()


def test_distance_mismatch_errors(f2, z3, k4_skeleton, tetrahedron):
    f = Cochain(k4_skeleton, 1, f2, {(0, 1): 1})
    with pytest.raises(GroupMismatchError):
        distance(f, Cochain(k4_skeleton, 1, z3, {(0, 1): 1}))
    with pytest.raises(DimensionMismatchError):
        distance(f, Cochain(k4_skeleton, 0, f2, {(0,): 1}))


def test_act_identity_and_coboundary(rng, s3):
    X = glued_simplices(3, 2)
    g1 = random_cochain(X, 1, s3, rng, 0.5)
    identity = Cochain(X, 0, s3)
    assert act(identity, g1) == g1
    # f.(delta h) = delta(f h) pointwise.
    for _ in range(20):
        f0 = random_cochain(X, 0, s3, rng, 0.5)
        h0 = random_cochain(X, 0, s3, rng, 0.5)
        product = Cochain(
            X, 0, s3, {(v,): s3.op(f0.value((v,)), h0.value((v,))) for v in X.vertices()}
        )
        assert act(f0, coboundary_nonabelian_0(h0)) == coboundary_nonabelian_0(product)


def test_act_is_group_action(rng, s3):
    X = glued_simplices(3, 2)
    for _ in range(10):
        f1 = random_cochain(X, 0, s3, rng, 0.5)
        f2_ = random_cochain(X, 0, s3, rng, 0.5)
        g = random_cochain(X, 1, s3, rng, 0.5)
        product = Cochain(
            X, 0, s3, {(v,): s3.op(f1.value((v,)), f2_.value((v,))) for v in X.vertices()}
        )
        assert act(f1, act(f2_, g)) == act(product, g)


def test_act_abelian_is_translation_by_coboundary(rng):
    # Over an abelian group the action adds the multiplicative coboundary.
    z6 = group_from_spec("Z6")
    X = complete_complex(5, 2)
    for _ in range(10):
        f0 = random_cochain(X, 0, z6, rng, 0.5)
        g1 = random_cochain(X, 1, z6, rng, 0.5)
        assert act(f0, g1) == g1 + coboundary_nonabelian_0(f0)


def test_conjugation_preserves_coboundary_weight(rng, s3):
    X = glued_simplices(3, 2)
    for _ in range(30):
        f0 = random_cochain(X, 0, s3, rng, 0.5)
        g1 = random_cochain(X, 1, s3, rng, 0.5)
        assert (
            coboundary_nonabelian_1(act(f0, g1)).weight()
            == coboundary_nonabelian_1(g1).weight()
        )


def test_is_cocycle(k4_skeleton, f2, rng, z3):
    f = random_cochain(k4_skeleton, 0, z3, rng, 0.5)
    assert coboundary_abelian(f).is_cocycle()
    single = Cochain(k4_skeleton, 1, f2, {(0, 1): 1})
    assert not single.is_cocycle()
    assert Cochain(k4_skeleton, 1, f2).is_cocycle()


def test_delta1_below_delta_weight_any_group(rng):
    from hdx.expansion import delta1

    X = complete_complex(6, 2)
    for spec in ("Z2", "Z3", "Z6", "S3"):
        G = group_from_spec(spec)
        for _ in range(25):
            f = random_cochain(X, 1, G, rng, 0.35)
            df = (
                coboundary_abelian(f) if G.is_abelian else coboundary_nonabelian_1(f)
            )
            assert delta1(f.support()).weight <= df.weight()


def test_cochain_text_roundtrip(k4_skeleton):
    G = group_from_spec("Z2xZ3")
    f = Cochain(k4_skeleton, 1, G, {(0, 1): 4, (2, 3): 1})
    text = cochain_to_text(f)
    assert text.splitlines()[0] == "dim 1 group Z2xZ3"
    g = cochain_from_text(text, k4_skeleton)
    assert g.values == f.values
    assert g.group.spec == "Z2xZ3"


def test_cochain_parse_errors(k4_skeleton):
    with pytest.raises(ParseError):
        cochain_from_text("", k4_skeleton)
    with pytest.raises(ParseError):
        cochain_from_text("dim 1\n0 1 1\n", k4_skeleton)
    with pytest.raises(ParseError):
        cochain_from_text("dim 1 group Z2\n1 0 1\n", k4_skeleton)
    with pytest.raises(ParseError):
        cochain_from_text("dim 1 group Z2\n0 1\n", k4_skeleton)


def test_cochain_value_validation(k4_skeleton, f2):
    with pytest.raises(UnknownFaceError):
        Cochain(k4_skeleton, 1, f2, {(0, 9): 1})
    with pytest.raises(GroupMismatchError):
        Cochain(k4_skeleton, 1, f2, {(0, 1): 5})
    f = Cochain(k4_skeleton, 1, f2, {(0, 1): 0})
    assert f.is_zero()


# -- the face-product kernel against the module docstring's formulas --------------


def _reference_coboundary(f):
    """delta(f) face by face through Cochain.eval on ordered faces."""
    X, G, k = f.complex, f.group, f.dimension
    out = {}
    for face in X.faces(k + 1):
        if G.is_abelian:
            # sum_i (-1)^i f(v0 .. v_i omitted .. v_k+1)
            acc = 0
            for i in range(len(face)):
                acc = G.op(acc, G.signed(f.eval(face[:i] + face[i + 1 :]), (-1) ** i))
        elif k == 0:
            u, v = face
            acc = G.op(f.eval((u,)), G.inv(f.eval((v,))))
        else:
            u, v, w = face
            acc = G.op(G.op(f.eval((u, v)), f.eval((v, w))), f.eval((w, u)))
        if acc:
            out[face] = acc
    return out


def _reference_act(f0, g1):
    G = g1.group
    out = {}
    for u, v in g1.complex.faces(1):
        val = G.op(G.op(f0.eval((u,)), g1.eval((u, v))), G.inv(f0.eval((v,))))
        if val:
            out[(u, v)] = val
    return out


def _reference_localize(f, sigma):
    """f(sigma + rest) on every face of f's support through sigma, by a scan of
    all of f's values."""
    sig, out = set(sigma), {}
    for face, idx in f.values.items():
        if sig.issubset(face):
            rest = tuple(v for v in face if v not in sig)
            # Both parts are sorted, so the sign is the parity of the concatenation.
            out[rest] = f.group.signed(idx, perm_parity(sigma + rest))
    return out


def _check_row_against_dicts(f, g):
    """The row-backed operations of f and g against {face: value} references."""
    X, G, k = f.complex, f.group, f.dimension
    fv, gv = dict(f.values), dict(g.values)
    either = set(fv) | set(gv)
    if G.is_abelian:
        for got, op in ((f + g, G.op), (f - g, lambda a, b: G.op(a, G.inv(b)))):
            expected = {face: op(fv.get(face, 0), gv.get(face, 0)) for face in either}
            assert got.values == {face: val for face, val in expected.items() if val}
        assert (-f).values == {face: G.inv(val) for face, val in fv.items()}
    differ = [face for face in either if fv.get(face, 0) != gv.get(face, 0)]
    assert distance(f, g) == X.set_weight(differ, k)
    assert f.weight() == X.set_weight(fv, k)
    assert f.support().faces == frozenset(fv) and f.is_zero() == (not fv)
    same = Cochain(X, k, G, fv)
    assert same == f and hash(same) == hash(f)
    assert (f == g) == (fv == gv)
    for s in range(-1, k):
        for sigma in X.faces(s):
            local = f.localize(sigma)
            assert local.complex is X.link(sigma) and local.dimension == k - len(sigma)
            assert local.values == _reference_localize(f, sigma), sigma


# Z_(2^63 - 25) and Z_(2^64 + 13): element sums that would wrap in int64.
@pytest.mark.parametrize(
    "spec", ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "D4", f"Z{2**63 - 25}", f"Z{2**64 + 13}"]
)
@settings(max_examples=30, deadline=None)
@given(X=weighted_complexes(), rng=st.randoms(use_true_random=False))
def test_coboundaries_and_action_match_the_formulas(spec, X, rng):
    G = group_from_spec(spec)
    dims = range(-1, X.dimension) if G.is_abelian else range(0, min(2, X.dimension))
    for k in dims:
        for density in (0.0, 0.5, 1.0):
            f = random_cochain(X, k, G, rng, density)
            if G.is_abelian:
                got = coboundary_abelian(f)
            else:
                got = (coboundary_nonabelian_0 if k == 0 else coboundary_nonabelian_1)(f)
            assert got.dimension == k + 1 and got.values == _reference_coboundary(f)
    if X.dimension >= 1:
        for density in (0.0, 0.5):
            f0 = random_cochain(X, 0, G, rng, density)
            g1 = random_cochain(X, 1, G, rng, 1 - density)
            assert act(f0, g1).values == _reference_act(f0, g1)
    # A second cochain beside each f: arithmetic, distances and localizations.
    for k in range(-1, X.dimension + 1):
        for density in (0.0, 0.5, 1.0):
            f = random_cochain(X, k, G, rng, density)
            _check_row_against_dicts(f, random_cochain(X, k, G, rng, 0.5))
            _check_row_against_dicts(f, f)
