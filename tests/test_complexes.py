import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdx.complexes import FaceSet, SimplicialComplex
from hdx.errors import (
    BadDimensionError,
    DimensionMismatchError,
    DuplicateTopFaceError,
    EmptyInputError,
    HdxError,
    NonUniformCardinalityError,
    ParseError,
    UnknownFaceError,
)
from hdx.instances import bundled_instances, complete_complex, glued_simplices, torus_complex


def test_single_triangle_closure():
    X = SimplicialComplex(2, [{0, 1, 2}])
    assert X.faces(1) == ((0, 1), (0, 2), (1, 2))
    assert X.faces(0) == ((0,), (1,), (2,))
    assert X.faces(-1) == ((),)


def test_k4_counts():
    X = complete_complex(4, 2)
    assert X.face_count(2) == 4
    assert X.face_count(1) == 6
    assert X.face_count(0) == 4


def test_tetrahedron_induced_weights():
    X = SimplicialComplex(3, [{0, 1, 2, 3}])
    for tri in X.faces(2):
        assert X.face_weight(tri) == Fraction(1, 4)
    for edge in X.faces(1):
        assert X.face_weight(edge) == Fraction(1, 6)
    for v in X.faces(0):
        assert X.face_weight(v) == Fraction(1, 4)
    assert X.face_weight(()) == 1


def test_constructor_errors():
    with pytest.raises(EmptyInputError):
        SimplicialComplex(2, [])
    with pytest.raises(NonUniformCardinalityError):
        SimplicialComplex(2, [(0, 1, 2), (0, 1)])
    with pytest.raises(NonUniformCardinalityError):
        SimplicialComplex(2, [(0, 1, 1)])
    with pytest.raises(DuplicateTopFaceError):
        SimplicialComplex(2, [(0, 1, 2), (2, 1, 0)])


def test_distribution_sums_to_one():
    for X in (complete_complex(5, 2), glued_simplices(3, 3), torus_complex()):
        for k in range(-1, X.dimension + 1):
            assert sum(X.face_weight(f) for f in X.faces(k)) == 1


def test_face_weight_unknown():
    X = complete_complex(4, 2)
    with pytest.raises(UnknownFaceError):
        X.face_weight((0, 9))


def test_link_of_vertex_in_tetrahedron(tetrahedron):
    L = tetrahedron.link((0,))
    assert L.dimension == 2
    assert L.faces(2) == ((1, 2, 3),)
    assert L.faces(1) == ((1, 2), (1, 3), (2, 3))


def test_link_of_vertex_in_k4_skeleton(k4_skeleton):
    L = k4_skeleton.link((0,))
    assert L.dimension == 1
    assert L.faces(1) == ((1, 2), (1, 3), (2, 3))


def test_link_of_empty_face_is_whole_complex(k4_skeleton):
    L = k4_skeleton.link(())
    assert L.faces(2) == k4_skeleton.faces(2)
    assert L.top_weights == k4_skeleton.top_weights


def test_link_composition(tetrahedron):
    X = complete_complex(6, 3)
    a = X.link((0,)).link((1,))
    b = X.link((0, 1))
    assert a.faces(1) == b.faces(1)
    assert a.top_weights == b.top_weights
    with pytest.raises(BadDimensionError):
        tetrahedron.link((0, 1, 2, 3))


def test_link_weights_condition_on_containment():
    # Two glued tetrahedra: the link of a shared vertex keeps both sides.
    X = glued_simplices(3, 2)
    L = X.link((1,))
    assert L.dimension == 2
    assert sum(L.top_weights.values()) == 1
    assert set(L.top_weights) == {(0, 2, 3), (2, 3, 4)}


def test_degree_bound(tetrahedron, k4_skeleton):
    assert tetrahedron.degree_bound() == 1
    assert k4_skeleton.degree_bound() == 3
    assert glued_simplices(3, 2).degree_bound() == 2


def test_mutual_weight_example(k4_skeleton):
    A = FaceSet.make(k4_skeleton, 1, [(0, 1)])
    B = FaceSet.make(k4_skeleton, 0, [(0,)])
    assert k4_skeleton.mutual_weight_sets(A.faces, 1, B.faces, 0) == Fraction(1, 12)


def test_mutual_weight_total_probability(k4_skeleton):
    A = FaceSet.make(k4_skeleton, 1, [(0, 1), (2, 3)])
    B = FaceSet.make(k4_skeleton, 0, k4_skeleton.faces(0))
    assert k4_skeleton.mutual_weight_sets(A.faces, 1, B.faces, 0) == A.weight


def test_mutual_weight_dimension_check(k4_skeleton):
    A = FaceSet.make(k4_skeleton, 1, [(0, 1)])
    with pytest.raises(DimensionMismatchError):
        k4_skeleton.mutual_weight_sets(A.faces, 1, A.faces, 1)


def test_decomposition_over_singletons():
    # ||A|| splits exactly into per-face mutual weights at every lower level.
    rng = random.Random(1)
    for X in (complete_complex(6, 2), glued_simplices(3, 2), torus_complex()):
        k = X.dimension
        faces = rng.sample(sorted(X.faces(k)), k=min(4, X.face_count(k)))
        A = FaceSet.make(X, k, faces)
        for ell in range(-1, k):
            total = sum(
                X.mutual_weight_sets(A.faces, k, [tau], ell) for tau in X.faces(ell)
            )
            assert total == A.weight


def test_localized_weight_matches_link_computation():
    X = complete_complex(6, 3)
    rng = random.Random(2)
    faces = rng.sample(sorted(X.faces(2)), k=6)
    for sigma in [(0,), (3,), (0, 1)]:
        localized = [tuple(v for v in f if v not in sigma) for f in faces if set(sigma) <= set(f)]
        expected = X.link(sigma).set_weight(localized, 2 - len(sigma))
        assert X.localized_weight(faces, 2, sigma) == expected


def wide_k4_weights(tiny):
    """Top weights 1/tiny[0], 1/tiny[1], 1/2 and the rest on K4^(2)."""
    tops = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    small = tuple(Fraction(1, t) for t in tiny)
    return dict(zip(tops, small + (Fraction(1, 2), Fraction(1, 2) - sum(small))))


def wide_k4(tiny):
    """K4 with top weights 1/tiny[0], 1/tiny[1], 1/2 and the rest."""
    weights = wide_k4_weights(tiny)
    return SimplicialComplex(2, list(weights), weights)


@pytest.mark.parametrize("tiny", [(3, 7), (3**45, 7**40)])
def test_weight_numerators_row_the_face_weights(tiny):
    X = wide_k4(tiny)
    for k in range(-1, 3):
        row = X.weight_numerators(k)
        assert row is X.weight_numerators(k) and not row.flags.writeable
        assert row.dtype == (object if X.weight_denominator(k) >= 2**63 else np.int64)
        assert [Fraction(int(n), X.weight_denominator(k)) for n in row] == [X.face_weight(f) for f in X.faces(k)]


def test_face_set_validation(k4_skeleton):
    with pytest.raises(UnknownFaceError):
        FaceSet.make(k4_skeleton, 1, [(0, 9)])
    a = FaceSet.make(k4_skeleton, 1, [(0, 1)])
    assert a.weight == Fraction(1, 6)
    assert (0, 1) in a and (0, 2) not in a


def test_text_roundtrip():
    X = torus_complex()
    Y = SimplicialComplex.from_text(X.to_text())
    assert Y.faces(2) == X.faces(2)
    assert Y.top_weights == X.top_weights


def test_text_roundtrip_weighted():
    tops = [(0, 1, 2), (1, 2, 3)]
    weights = {(0, 1, 2): Fraction(1, 3), (1, 2, 3): Fraction(2, 3)}
    X = SimplicialComplex(2, tops, weights)
    text = X.to_text()
    assert "w 1/3" in text
    Y = SimplicialComplex.from_text(text)
    assert Y.top_weights == weights
    assert Y.face_weight((1, 2)) == Fraction(1, 3) * Fraction(1, 3) + Fraction(2, 3) * Fraction(1, 3)


def test_to_text_bytes():
    uniform = SimplicialComplex(2, [(1, 2, 3), (0, 1, 2)])
    assert uniform.to_text() == "dim 2\n0 1 2\n1 2 3\n"
    weights = {(0, 1, 2): Fraction(1, 3), (1, 2, 3): Fraction(2, 3)}
    weighted = SimplicialComplex(2, [(1, 2, 3), (0, 1, 2)], weights)
    assert weighted.to_text() == "dim 2\n0 1 2 w 1/3\n1 2 3 w 2/3\n"
    # Explicit equal weights are uniform and print without a suffix.
    half = Fraction(1, 2)
    halves = SimplicialComplex(2, [(0, 1, 2), (1, 2, 3)], {(0, 1, 2): half, (1, 2, 3): half})
    assert halves.to_text() == uniform.to_text()


def test_parse_errors():
    with pytest.raises(ParseError):
        SimplicialComplex.from_text("0 1 2\n")
    with pytest.raises(ParseError):
        SimplicialComplex.from_text("dim x\n0 1 2\n")
    with pytest.raises(ParseError):
        SimplicialComplex.from_text("dim 2\n0 1 z\n")
    with pytest.raises(ParseError):
        SimplicialComplex.from_text("dim 2\n0 1 2 w 1/2\n1 2 3\n")


def test_nonuniform_weights_must_sum_to_one():
    tops = [(0, 1, 2), (1, 2, 3)]
    with pytest.raises(NonUniformCardinalityError):
        SimplicialComplex(2, tops, {t: Fraction(1, 3) for t in tops})


def test_closure_and_purity_random():
    rng = random.Random(3)
    for _ in range(10):
        n, d = rng.choice([(5, 2), (6, 2), (6, 3)])
        tops = rng.sample(sorted(combinations(range(n), d + 1)), k=rng.randint(2, 6))
        vertices = {v for t in tops for v in t}
        X = SimplicialComplex(d, tops)
        for k in range(0, d + 1):
            for face in X.faces(k):
                for facet in combinations(face, k):
                    assert X.has_face(facet)
                assert any(set(face) <= set(t) for t in tops)
        assert {v for (v,) in X.faces(0)} == vertices


def _facets_reference(X, k):
    """facets(k) from combinations: they drop the last vertex first, so reverse."""
    index = {face: c for c, face in enumerate(X.faces(k - 1))}
    return [[index[sub] for sub in reversed(list(combinations(face, k)))] for face in X.faces(k)]


def _assert_invariants(X):
    """Closure, purity, the facet tables and a total mass of 1 in every dimension."""
    d = X.dimension
    for k in range(0, d + 1):
        for face in X.faces(k):
            assert all(X.has_face(facet) for facet in combinations(face, k))
        table = X.facets(k)
        assert table.shape == (len(X.faces(k)), k + 1)
        assert table.tolist() == _facets_reference(X, k)
        # Purity: every face below the top is a facet of some face above it.
        assert set(table.ravel().tolist()) == set(range(len(X.faces(k - 1))))
    for k in range(-1, d + 1):
        assert sum(X.face_weight(f) for f in X.faces(k)) == 1


def _assert_invariants_with_links(X):
    _assert_invariants(X)
    for k in range(0, X.dimension):
        for sigma in X.faces(k):
            _assert_invariants(X.link(sigma))


@pytest.mark.parametrize("name", sorted(bundled_instances()))
def test_bundled_instances_and_links_are_closed_pure_and_normalized(name):
    _assert_invariants_with_links(bundled_instances()[name])


#: Vertex labels beyond the int64 range and below zero.
WIDE_IDS = st.integers(min_value=-(2**70), max_value=2**70)


@st.composite
def weighted_inputs(draw, labels=st.integers(min_value=0, max_value=6)):
    """(d, tops, weights) of a weighted complex on up to 7 distinct vertex labels."""
    n = draw(st.integers(min_value=2, max_value=7))
    names = draw(st.lists(labels, min_size=n, max_size=n, unique=True))
    d = draw(st.integers(min_value=0, max_value=min(n - 1, 3)))
    candidates = [tuple(sorted(names[i] for i in sub)) for sub in combinations(range(n), d + 1)]
    tops = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=8, unique=True))
    raw = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=len(tops), max_size=len(tops)))
    total = sum(raw)
    return d, tops, {t: Fraction(w, total) for t, w in zip(tops, raw)}


@st.composite
def weighted_complexes(draw):
    return SimplicialComplex(*draw(weighted_inputs()))


@settings(max_examples=60, deadline=None)
@given(weighted_complexes())
def test_weighted_complexes_and_links_are_closed_pure_and_normalized(X):
    _assert_invariants_with_links(X)


def _reference_link(X, sigma):
    """The link from its definition: scan every top face of X, condition P_d on
    containing sigma in Fractions, and build with the public constructor."""
    sig = set(sigma)
    star = {top: X.face_weight(top) for top in X.faces(X.dimension) if sig.issubset(top)}
    mass = sum(star.values())
    weights = {tuple(v for v in top if v not in sig): w / mass for top, w in star.items()}
    return SimplicialComplex(X.dimension - len(sigma), list(weights), weights)


def _same_complex(got, want):
    assert got.dimension == want.dimension
    for k in range(-1, want.dimension + 1):
        assert got.faces(k) == want.faces(k)
        assert got.weight_numerators(k).tolist() == want.weight_numerators(k).tolist()
        assert got.weight_denominator(k) == want.weight_denominator(k)
    assert got.top_weights == want.top_weights


def _assert_links_match_reference(X):
    for k in range(-1, X.dimension):
        for sigma in X.faces(k):
            _same_complex(X.link(sigma), _reference_link(X, sigma))


#: Top numerators 2, 4, 3 over 9: the stars of (0, 1), (1,) and (1, 2) have
#: numerators sharing a factor 2 with their mass, so their links reduce.
SHARED_FACTOR = SimplicialComplex(
    2,
    [(0, 1, 2), (0, 1, 3), (0, 2, 3)],
    {(0, 1, 2): Fraction(2, 9), (0, 1, 3): Fraction(4, 9), (0, 2, 3): Fraction(1, 3)},
)


@pytest.mark.parametrize("name", sorted(bundled_instances()))
def test_star_index_links_match_the_reference_on_bundled_instances(name):
    _assert_links_match_reference(bundled_instances()[name])


@settings(max_examples=60, deadline=None)
@given(weighted_complexes())
def test_star_index_links_match_the_reference_on_weighted_complexes(X):
    _assert_links_match_reference(X)


def test_star_index_links_reduce_by_the_common_factor():
    _assert_links_match_reference(SHARED_FACTOR)
    link = SHARED_FACTOR.link((0, 1))
    assert link.weight_denominator(0) == 3
    assert link.top_weights == {(2,): Fraction(1, 3), (3,): Fraction(2, 3)}
    assert SHARED_FACTOR.link((1, 2)).top_weights == {(0,): Fraction(1)}


def test_text_roundtrip_of_a_weighted_complex_and_its_links():
    X = SHARED_FACTOR
    for k in range(-1, X.dimension):
        for sigma in X.faces(k):
            link = X.link(sigma)
            _same_complex(SimplicialComplex.from_text(link.to_text()), link)


def test_facet_tables_are_cached_read_only_and_per_link(k4_skeleton):
    table = k4_skeleton.facets(2)
    assert k4_skeleton.facets(2) is table and not table.flags.writeable
    assert table.tolist() == [[3, 1, 0], [4, 2, 0], [5, 2, 1], [5, 4, 3]]
    link = k4_skeleton.link((0,))
    assert link.facets(1) is not k4_skeleton.facets(1)
    assert link.facets(1).tolist() == [[1, 0], [2, 0], [2, 1]]
    for k in (-1, 3):
        with pytest.raises(BadDimensionError):
            k4_skeleton.facets(k)


def _reference_closure(d, tops, weights=None):
    """faces, numerator rows, denominators and facet tables from the definition:
    every subset of every top face, numerators summed in a dict over the lcm of
    the top weights' denominators, facets looked up one (face, position) at a time."""
    tops = [tuple(sorted(top)) for top in tops]
    if weights is None:
        weights = {top: Fraction(1, len(tops)) for top in tops}
    scale = lcm(*(Fraction(w).denominator for w in weights.values()))
    num = {k: {} for k in range(-1, d + 1)}
    for top in tops:
        for size in range(d + 2):
            for sub in combinations(top, size):
                num[size - 1][sub] = num[size - 1].get(sub, 0) + int(weights[top] * scale)
    faces = {k: tuple(sorted(num[k])) for k in num}
    index = {k: {face: c for c, face in enumerate(faces[k])} for k in num}
    facets = {
        k: [[index[k - 1][face[:i] + face[i + 1 :]] for i in range(k + 1)] for face in faces[k]]
        for k in range(0, d + 1)
    }
    rows = {k: [num[k][face] for face in faces[k]] for k in num}
    dens = {k: scale * comb(d + 1, k + 1) for k in num}
    return faces, rows, dens, facets


def _assert_matches_reference(X, d, tops, weights=None):
    faces, rows, dens, facets = _reference_closure(d, tops, weights)
    assert X.dimension == d
    for k in range(-1, d + 1):
        assert X.faces(k) == faces[k]
        row = X.weight_numerators(k)
        assert row.tolist() == rows[k] and all(type(n) is int for n in row.tolist())
        assert row.dtype == (np.int64 if dens[k] < 2**63 else object)
        assert X.weight_denominator(k) == dens[k]
    for k in range(0, d + 1):
        assert X.facets(k).tolist() == facets[k]
    assert X.vertices() == tuple(v for (v,) in faces[0])


def _assert_closure_and_links_match_reference(X, d, tops, weights=None):
    _assert_matches_reference(X, d, tops, weights)
    for k in range(0, d):
        for sigma in X.faces(k):
            link = X.link(sigma)
            _assert_matches_reference(link, link.dimension, link.faces(link.dimension), link.top_weights)


@pytest.mark.parametrize("name", sorted(bundled_instances()))
def test_closure_matches_the_reference_on_bundled_instances(name):
    X = bundled_instances()[name]
    tops = X.faces(X.dimension)
    _assert_closure_and_links_match_reference(SimplicialComplex(X.dimension, tops[::-1]), X.dimension, tops)


@settings(max_examples=60, deadline=None)
@given(weighted_inputs(labels=WIDE_IDS))
def test_closure_matches_the_reference_on_weighted_complexes(inputs):
    d, tops, weights = inputs
    _assert_closure_and_links_match_reference(SimplicialComplex(d, tops, weights), d, tops, weights)


@pytest.mark.parametrize("tiny", [(3, 7), (3**20, 7**9), (3**45, 7**40)])
def test_closure_matches_the_reference_on_wide_numerators(tiny):
    weights = wide_k4_weights(tiny)
    _assert_closure_and_links_match_reference(wide_k4(tiny), 2, list(weights), weights)


HUGE = 99999999999999999999


@pytest.mark.parametrize(
    "d, tops, weights",
    [
        (2, [(0, 1, HUGE), (0, 2, -5), (-5, 2, 2**63), (1, HUGE, -(2**64))], None),
        (2, [(0, 1, HUGE), (0, 2, -5)], {(0, 1, HUGE): Fraction(1, 3), (-5, 0, 2): Fraction(2, 3)}),
        (0, [(3,), (-1,), (2**70,)], None),
        (0, [(3,), (-1,)], {(3,): Fraction(1, 4), (-1,): Fraction(3, 4)}),
        (1, [(-2, -1)], None),
    ],
)
def test_closure_matches_the_reference_on_wide_ids_and_dimension_zero(d, tops, weights):
    X = SimplicialComplex(d, tops, weights)
    _assert_closure_and_links_match_reference(X, d, tops, weights)
    _assert_matches_reference(SimplicialComplex.from_text(X.to_text()), d, tops, weights)


def test_weight_numerator_of_an_unknown_face():
    X = complete_complex(5, 2)
    for face in [(0, 9), tuple(range(7)), (9,)]:
        with pytest.raises(UnknownFaceError, match=re.escape(f"face {face} is not in the complex")):
            X.weight_numerator(face)
    assert X.weight_numerator((0, 1)) == 3 and X.weight_numerator(()) == 10


def _error(build):
    with pytest.raises(HdxError) as caught:
        build()
    return type(caught.value), str(caught.value)


WIDTH = NonUniformCardinalityError, "top face {} does not have 3 distinct vertices"
TWICE = DuplicateTopFaceError, "top face {} listed twice"


@pytest.mark.parametrize(
    "tops, expected, shown, read",
    [
        # The error type and message, the offender as the constructor names it, and as
        # the text reader names it: that reader hands over each top face sorted.
        ([(0, 1, 2), (0, 1), (3, 4)], WIDTH, (0, 1), (0, 1)),
        ([(0, 1, 2), (2, 1, 1), (0, 1)], WIDTH, (2, 1, 1), (1, 1, 2)),
        ([(0, 1, 2), (0, 1, 2, 3)], WIDTH, (0, 1, 2, 3), (0, 1, 2, 3)),
        ([(0, 1, 2), (3, 4, 5), (5, 4, 3), (2, 1, 0)], TWICE, (3, 4, 5), (3, 4, 5)),
        ([(0, 1, 2), (2, 1, 0), (0, 1)], TWICE, (0, 1, 2), (0, 1, 2)),
        ([(0, 1, 2), (0, 1), (2, 1, 0)], WIDTH, (0, 1), (0, 1)),
        ([(0, 1, 2), (3, 3, 4), (3, 4, 3)], WIDTH, (3, 3, 4), (3, 3, 4)),
        ([(0, 1, 2), (2, 0, 1), (5, 5, 6)], TWICE, (0, 1, 2), (0, 1, 2)),
        ([(HUGE, -5, 0), (0, HUGE, -5)], TWICE, (-5, 0, HUGE), (-5, 0, HUGE)),
        ([(4, HUGE, 4), (0, 1, 2)], WIDTH, (4, HUGE, 4), (4, 4, HUGE)),
    ],
)
def test_validation_names_the_first_offender_in_input_order(tops, expected, shown, read):
    error, message = expected
    assert _error(lambda: SimplicialComplex(2, tops)) == (error, message.format(shown))
    text = "dim 2\n" + "".join(" ".join(map(str, top)) + "\n" for top in tops)
    assert _error(lambda: SimplicialComplex.from_text(text)) == (error, message.format(read))


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: SimplicialComplex(-1, [(0,)]), (BadDimensionError, "dimension must be >= 0, got -1")),
        (
            lambda: SimplicialComplex(1, [(0, 1), (1, 2)], {(0, 1): Fraction(1)}),
            (EmptyInputError, "missing weight for top face (1, 2)"),
        ),
        (
            lambda: SimplicialComplex(1, [(1, 2), (0, 1)], {(1, 2): Fraction(3, 2), (0, 1): Fraction(-1, 2)}),
            (NonUniformCardinalityError, "weight of (0, 1) must be positive"),
        ),
        (
            lambda: SimplicialComplex(1, [(0, 1), (1, 2)], {(0, 1): Fraction(1, 2), (1, 2): Fraction(1, 3)}),
            (NonUniformCardinalityError, "top weights must sum to 1"),
        ),
        (
            lambda: SimplicialComplex.from_text("dim 1\n0 1 w 1/2\n1 2\n"),
            (ParseError, "either all or no top faces may carry weights"),
        ),
        (
            lambda: SimplicialComplex.from_text("dim 1\n0 1 w 1/2\n1 0 w 1/2\n"),
            (ParseError, "either all or no top faces may carry weights"),
        ),
        (lambda: SimplicialComplex.from_text("dim 1\n0 1\n1 x\n"), (ParseError, "malformed line '1 x'")),
        (lambda: SimplicialComplex.from_text("dim -1\n0\n"), (BadDimensionError, "dimension must be >= 0, got -1")),
        (lambda: SimplicialComplex.from_text("dim 2\n"), (EmptyInputError, "at least one top face is required")),
        (lambda: SimplicialComplex(2, []), (EmptyInputError, "at least one top face is required")),
    ],
)
def test_weight_and_header_errors_keep_their_type_and_message(build, expected):
    assert _error(build) == expected


def test_face_set_membership_reads_the_face_index(k4_skeleton):
    with pytest.raises(UnknownFaceError, match=re.escape("faces [(0, 9), (5, 6)] are not 1-faces of the complex")):
        FaceSet.make(k4_skeleton, 1, [(0, 1), (9, 0), (6, 5)])
    with pytest.raises(BadDimensionError):
        FaceSet.make(k4_skeleton, 3, [])


# -- link_index from the rank rows against the link-built definition ------------------


def _reference_link_index(X, sigma, j):
    """link_index as it was defined on the link complex: every face sigma + tau
    of link(sigma)(j) looked up in the face index, its parity counted pair by pair."""
    taus = X.link(sigma).faces(j)
    index = X.face_index(j + len(sigma))
    at = [index[tuple(sorted(sigma + tau))] for tau in taus]
    odd = [sum(s > t for s in sigma for t in tau) % 2 == 1 for tau in taus]
    return at, odd


def _assert_link_index_matches_reference(X):
    for s in range(-1, X.dimension):
        for sigma in X.faces(s):
            for j in range(-1, X.dimension - s):
                at, odd = X.link_index(sigma, j)
                assert (at.tolist(), odd.tolist()) == _reference_link_index(X, sigma, j), (sigma, j)
                assert not at.flags.writeable and not odd.flags.writeable


@pytest.mark.parametrize("name", sorted(bundled_instances()))
def test_link_index_matches_the_link_built_definition_on_bundled_instances(name):
    _assert_link_index_matches_reference(bundled_instances()[name])


@settings(max_examples=60, deadline=None)
@given(weighted_inputs(labels=WIDE_IDS))
def test_link_index_matches_the_link_built_definition_on_wide_ids(inputs):
    _assert_link_index_matches_reference(SimplicialComplex(*inputs))


def test_link_index_matches_the_link_built_definition_on_a_weighted_complex():
    _assert_link_index_matches_reference(SHARED_FACTOR)


def test_link_index_takes_any_sequence_and_refuses_bad_faces(k4_skeleton):
    # The triangles 012, 013 and 123; vertex 1 follows one vertex of 02 and 03.
    at, odd = k4_skeleton.link_index([1], 1)
    assert at.tolist() == [0, 1, 3] and odd.tolist() == [True, True, False]
    assert all(a is b for a, b in zip(k4_skeleton.link_index((1,), 1), (at, odd)))
    assert _error(lambda: k4_skeleton.link_index([9], 0)) == (UnknownFaceError, "face (9,) is not in the complex")
    assert _error(lambda: k4_skeleton.link_index([1, 0], 0)) == (UnknownFaceError, "face (1, 0) is not in the complex")
    top = BadDimensionError, "the link of a top-dimensional face is empty"
    assert _error(lambda: k4_skeleton.link_index([0, 1, 2], 0)) == top
    for j in (-2, 2):
        assert _error(lambda: k4_skeleton.link_index([0], j)) == (
            BadDimensionError,
            f"no faces of dimension {j} in a 1-complex",
        )
