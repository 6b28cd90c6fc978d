import hashlib
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import freudenthal_torus
from hdx import complexes
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


@pytest.mark.parametrize("n, d", [(12, 2), (42, 2), (9, 3)])
def test_closure_matches_the_reference_where_rows_sort_by_one_key(n, d):
    """The top faces and the closure's subsets are ordered by one mixed-radix
    key per row: uint16 below 2^16 cells, int64 past that (42^3 = 74088).
    The vertices are shuffled, so the rows do not arrive sorted."""
    labels = list(range(n))
    random.Random(n).shuffle(labels)
    tops = [tuple(labels[v] for v in top) for top in combinations(range(n), d + 1)]
    _assert_matches_reference(SimplicialComplex(d, tops), d, tops)


@pytest.mark.parametrize("weighted", [False, True])
def test_closure_matches_the_reference_across_the_int64_key_boundary(weighted):
    """80 vertex ranks in a 10-complex: the subsets of 9 vertices and fewer are
    ordered by one int64 key (80^9 < 2^63), those of 10 and the tops by a
    lexsort (80^10 >= 2^63)."""
    rng = random.Random(80)
    tops = {tuple(range(start, start + 11)) for start in range(0, 70, 11)} | {(69, *range(70, 80))}
    while len(tops) < 40:
        tops.add(tuple(sorted(rng.sample(range(80), 11))))
    tops = [tuple(rng.sample(top, 11)) for top in sorted(tops)]
    rng.shuffle(tops)
    weights = None
    if weighted:
        faces = sorted(tuple(sorted(top)) for top in tops)
        weights = {face: Fraction(2 * i + 1, 40**2) for i, face in enumerate(faces)}
    X = SimplicialComplex(10, tops, weights)
    assert len(X.vertices()) == 80 and 80**9 < 2**63 <= 80**10
    _assert_matches_reference(X, 10, tops, weights)


@pytest.mark.parametrize("base, columns", [(5, 1), (5, 3), (40, 3), (300, 2), (3000, 3), (2**22, 3)])
def test_row_order_is_the_stable_lexicographic_order(base, columns):
    rows = np.random.default_rng(base).integers(0, base, size=(600, columns))
    rows[::7] = rows[3]
    for part in (rows, rows[:100], rows[:1], rows[:3], rows[:17]):
        expected = np.lexsort(part.T[::-1])
        order, fresh = complexes._row_order(part, base)
        assert np.array_equal(order, expected)
        assert fresh[0] and np.array_equal(fresh[1:], (part[expected][1:] != part[expected][:-1]).any(axis=1))
        assert (~fresh).sum() >= len(part) // 7 - 1


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


# The error type and message, the offender as the constructor names it, and as
# the text reader names it: that reader hands over each top face sorted.
OFFENDERS = [
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
]


def _text_of(d, tops):
    return f"dim {d}\n" + "".join(" ".join(map(str, top)) + "\n" for top in tops)


@pytest.mark.parametrize("tops, expected, shown, read", OFFENDERS)
def test_validation_names_the_first_offender_in_input_order(tops, expected, shown, read):
    error, message = expected
    assert _error(lambda: SimplicialComplex(2, tops)) == (error, message.format(shown))
    assert _error(lambda: SimplicialComplex.from_text(_text_of(2, tops))) == (error, message.format(read))


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


# -- the bulk text reader against the per-line reference ------------------------------


def _reference_from_text(text):
    """The per-line complex-file reader the bulk reader replaced, with its
    loader's checks written as one loop over the lines in input order; the
    header must be exactly ``dim d``."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("dim "):
        raise ParseError("complex file must start with a 'dim d' header")
    try:
        _, dimension = lines[0].split()
        dimension = int(dimension)
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc
    rows, weights = [], {}
    for line in lines[1:]:
        parts = line.split()
        at = parts.index("w") if "w" in parts else len(parts)
        if at < len(parts) and at != len(parts) - 2:
            raise ParseError(f"malformed weight suffix in {line!r}")
        try:
            rows.append(list(map(int, parts[:at])))
            if at < len(parts):
                if "e" in parts[at + 1].lower():
                    raise ValueError("exponent in a weight")
                weights[tuple(sorted(rows[-1]))] = Fraction(parts[at + 1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed line {line!r}") from exc
    if weights and len(weights) != len(rows):
        raise ParseError("either all or no top faces may carry weights")
    if dimension < 0:
        raise BadDimensionError(f"dimension must be >= 0, got {dimension}")
    seen = set()
    for row in rows:
        face = tuple(sorted(row))
        if len(row) != dimension + 1 or len(set(row)) != len(row):
            raise NonUniformCardinalityError(f"top face {face} does not have {dimension + 1} distinct vertices")
        if face in seen:
            raise DuplicateTopFaceError(f"top face {face} listed twice")
        seen.add(face)
    return SimplicialComplex(dimension, rows, weights or None)


def _outcome(read, text):
    """What a reader makes of a text: every dimension's faces, numerators and
    denominator, and the vertex ids; or the error's type and message."""
    try:
        X = read(text)
    except HdxError as exc:
        return type(exc), str(exc)
    rows = [(X.faces(k), X.weight_numerators(k).tolist(), X.weight_denominator(k)) for k in range(-1, X.dimension + 1)]
    return rows, X.vertices()


#: Words that int() reads, and words it refuses, in the forms numpy must treat alike.
TOKENS = ["+5", "007", "-0", "1_000", "٣٣", "𝟓", "nan", "1.", "0b1", "_1", "²", "1__0", "0x1", "1e3", "-", "½"]
EDGE_IDS = [2**63 - 1, -(2**63), 2**63, -(2**63) - 1]


def _after_long_prefix(line):
    """A file of 512 distinct triangles, then the given line and one more triangle."""
    tops = list(combinations(range(16), 3))[:512]
    return _text_of(2, tops) + line + "\n" + "13 14 15\n"


READER_CORPUS = [
    # Whitespace: tabs, runs of spaces, CRLF, blank and leading-blank lines, and
    # the other separators str.splitlines and str.split know.
    "dim 2\r\n0 1 2\r\n\r\n1\t2  3\r\n",
    "\n\n  \t\ndim 2\n\t0 1 2 \n   \n1 2 3\n\n",
    "  dim   2  \n0  1\t\t2\n",
    "dim 2\x0c0 1 2\x1c1 2 3 2\xa03 4\x85\x0b",
    "dim 1\r\n0 1 w 1/3\r\n\r\n1\t2 w 2/3\r\n",
    "dim\t2\n0 1 2\n",
    "dim 2\n0 1 2\n1\t x  2\n",
    "",
    "\n \n",
    # Ids at the ends of int64 and just past them.
    _text_of(1, [(EDGE_IDS[0], EDGE_IDS[1]), (0, EDGE_IDS[0])]),
    _text_of(1, [(EDGE_IDS[0], EDGE_IDS[2]), (EDGE_IDS[1], EDGE_IDS[3]), (0, EDGE_IDS[3])]),
    _text_of(2, [(EDGE_IDS[2], EDGE_IDS[2], 0), (0, 1, 2)]),
    # A line after 512 good ones: a wrong width, a duplicate top, a repeated
    # vertex, a malformed word, a lone weight, an id past int64.
    _after_long_prefix("0 1"),
    _after_long_prefix("2 1 0"),
    _after_long_prefix("5 5 6"),
    _after_long_prefix("0 x  2"),
    _after_long_prefix("0 1 15 w 1/2"),
    _after_long_prefix(f"0 1 {2**64}"),
    _after_long_prefix(f"0 1 {2**64} 5"),
    # Ids of 19 digits, which the byte scan leaves to the per-line reader: in
    # the middle of a long file, and exactly 2^63 - 1.
    _after_long_prefix(f"0 1 {10**18}"),
    _after_long_prefix(f"0 {EDGE_IDS[0]} 5"),
    _after_long_prefix("0 1 0000000000000000007"),
    # Line breaks: a lone carriage return, and CRLF with no final break.
    "dim 2\r0 1 2\r1 2 3\r",
    "dim 2\r\n0 1 2\r\n1 2 3",
    "dim 2\n0 1 2\r\r\n\r2 3 4",
    # Bytes the scan does not read, in a file of otherwise plain lines: a NUL,
    # a sign, an underscore.
    _after_long_prefix("0 1\x00 14"),
    _after_long_prefix("0 +1 14"),
    _after_long_prefix("0 -1 14"),
    _after_long_prefix("0 1_1 14"),
    # A body that is only whitespace.
    "dim 2\n \t\r\n\n  \r",
    "dim 0 \n",
    # The header: exactly "dim d"; a huge d is one more wrong width.
    "dim 2 junk\n0 1 2\n",
    "dim 1 group Z2\n0 1 1\n2 3 1\n",
    "dim 99999999999999999999999\n0 1 2\n",
    "dim 99999999999999999999999\n",
    "dim\n0 1 2\n",
    "dim 2.0\n0 1 2\n",
    # The text forms of the cases of test_weight_and_header_errors_keep_their_type_and_message.
    "dim -1\n0\n",
    "dim 1\n0 1 w 1\n1 2\n",
    "dim 1\n1 2 w 3/2\n0 1 w -1/2\n",
    "dim 1\n0 1 w 1/2\n1 2 w 1/3\n",
    "dim 1\n0 1 w 1/2\n1 2\n",
    "dim 1\n0 1 w 1/2\n1 0 w 1/2\n",
    "dim 1\n0 1\n1 x\n",
    "dim 2\n",
    "dim 2\n0 1 2 w 1/0\n",
    "dim 2\n0 1 2 w 1e9999999\n",
    "dim 2\n0 1 2 w\n",
    "dim 2\nw 1/2\n",
    # Every case of test_validation_names_the_first_offender_in_input_order.
    *(_text_of(2, tops) for tops, *_ in OFFENDERS),
    # Every listed word, alone and beside the same value written plainly.
    *(f"dim 2\n{word} 8 9\n1 2 3\n" for word in TOKENS),
    *(f"dim 1\n{word} 5\n5 1000\n" for word in TOKENS),
]


@pytest.mark.parametrize("text", READER_CORPUS)
def test_the_bulk_reader_matches_the_per_line_reference(text):
    assert _outcome(SimplicialComplex.from_text, text) == _outcome(_reference_from_text, text)


def test_the_corpus_reaches_both_outcomes_and_both_id_types():
    outcomes = [_outcome(SimplicialComplex.from_text, text) for text in READER_CORPUS]
    kinds = {outcome[0] for outcome in outcomes if isinstance(outcome[0], type)}
    assert kinds == {ParseError, BadDimensionError, EmptyInputError, NonUniformCardinalityError, DuplicateTopFaceError}
    assert sum(not isinstance(outcome[0], type) for outcome in outcomes) >= 15
    wide = SimplicialComplex.from_text(_after_long_prefix(f"0 1 {2**64}"))
    assert wide._ids.dtype == object and wide.vertices()[-1] == 2**64
    assert SimplicialComplex.from_text(_text_of(1, [EDGE_IDS[:2], (0, EDGE_IDS[0])]))._ids.dtype == np.int64


@pytest.mark.parametrize(
    "body, ids, widths",
    [
        ("0 1 2\r\n\t 3 4 5 \r6 7\n\n8", [0, 1, 2, 3, 4, 5, 6, 7, 8], [3, 3, 2, 1]),
        ("  \t\r\n", [], []),
        (f"007 {10**18 - 1}\n", [7, 10**18 - 1], [2]),
    ],
)
def test_the_byte_scan_reads_ids_and_widths(body, ids, widths):
    scanned = complexes._scan_body(body)
    assert scanned[0].dtype == np.int64 and scanned[0].tolist() == ids and scanned[1].tolist() == widths


@pytest.mark.parametrize(
    "body", ["1 +2", "1 -2", "1 2 w 1/2", "1_0 2", f"1 {10**18}", "1\x0b2", "1\x0c2", "1\x002", "\u0661 2", "1\xa02"]
)
def test_the_byte_scan_leaves_any_other_body_to_the_line_reader(body):
    assert complexes._scan_body(body) is None


def test_a_plain_file_is_read_with_no_line_by_line_parse(monkeypatch):
    text = complete_complex(40, 2).to_text()
    header, body = text.split("\n", 1)
    monkeypatch.setattr(complexes, "_read_line", None)
    for copy in (text, header + "\r\n" + body.replace("\n", "\r\n"), header + "\n" + body.replace(" ", "\t")):
        assert SimplicialComplex.from_text(copy).to_text() == text


LINE_WORDS = st.sampled_from([*map(str, range(40)), "-0", "+1", "007", "1_0", "٣", "x", str(2**63), str(-(2**63) - 1)])


@st.composite
def complex_texts(draw):
    """Complex files of a few short lines: mostly d + 1 ids, now and then
    another width, a malformed word or a blank line, joined by assorted
    whitespace; in one file of four every line, or nearly, carries a weight."""
    d = draw(st.sampled_from([-1, 0, 1, 1, 2, 2, 2, 3]))
    weighted = draw(st.sampled_from([0, 0, 0, 1]))
    lines = [f"dim {d}"]
    for _ in range(draw(st.integers(min_value=0, max_value=9))):
        size = draw(st.sampled_from([d + 1] * 20 + [0, 1, 2, 3, 4, 5]))
        words = draw(st.lists(LINE_WORDS, min_size=size, max_size=size))
        if draw(st.integers(min_value=0, max_value=9)) < 9 * weighted:
            words += ["w", draw(st.sampled_from(["1/2", "1/2", "1/3", "1/4", "1", "0", "x"]))]
        lines.append(draw(st.sampled_from([" ", "\t", "  ", " \t"])).join(words))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\n\n"])) for line in lines)


@settings(max_examples=300, deadline=None)
@given(complex_texts())
def test_the_bulk_reader_matches_the_reference_on_generated_texts(text):
    assert _outcome(SimplicialComplex.from_text, text) == _outcome(_reference_from_text, text)


def test_a_huge_dimension_names_the_first_top_at_both_entry_points():
    expected = NonUniformCardinalityError, f"top face (0, 1, 2) does not have {10**30 + 1} distinct vertices"
    assert _error(lambda: SimplicialComplex(10**30, [(0, 1, 2)])) == expected
    assert _error(lambda: SimplicialComplex.from_text(f"dim {10**30}\n0 1 2\n")) == expected


@pytest.mark.parametrize("header", ["dim 2 junk", "dim 1 group Z2"])
def test_a_header_is_exactly_dim_d(header):
    text = f"{header}\n0 1 2\n1 2 3\n"
    assert _error(lambda: SimplicialComplex.from_text(text)) == (ParseError, f"bad header {header!r}")


#: SHA-256 of to_text, recorded before to_text stopped building a Fraction per top.
TO_TEXT_SHA256 = {
    "K20^(2)": "3d1276b61c8fbd6d7eac80200a3765b4e1b2f299cbda896026e90feba041093d",
    "K14^(3)": "b3fcba85a6354522f87e5e47bfcd2ebebda1f083fa4177a07dcfede2242ea3f8",
    "torus-7": "97bd5c5922574e0bb6b25d5843474127c829f76cdaa9c12497cd2c41285b3957",
    "wide": "463908d449bad5fb63f80f6506e039b338943b77b321e78c494a708449fa5e4d",
    "weighted": "9209efee05d6ddabb9d5bc5264a6cfe4b1ea80b33b92dedba38f9e85be6f94f3",
}


def _to_text_cases():
    H, B = 99999999999999999999, 2**64
    weights = dict(zip(combinations(range(4), 3), map(Fraction, ["1/3", "1/6", "1/4", "1/4"])))
    return {
        "K20^(2)": lambda: complete_complex(20, 2),
        "K14^(3)": lambda: complete_complex(14, 3),
        "torus-7": torus_complex,
        "wide": lambda: SimplicialComplex(2, [(-5, 0, H), (-5, 0, B), (-5, H, B), (0, H, B)]),
        "weighted": lambda: SimplicialComplex(2, list(weights), weights),
    }


@pytest.mark.parametrize("name", sorted(TO_TEXT_SHA256))
def test_to_text_bytes_are_pinned(name):
    X = _to_text_cases()[name]()
    text = X.to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == TO_TEXT_SHA256[name]
    assert SimplicialComplex.from_text(text).to_text() == text


def test_face_set_membership_reads_the_face_index(k4_skeleton):
    with pytest.raises(UnknownFaceError, match=re.escape("faces [(0, 9), (5, 6)] are not 1-faces of the complex")):
        FaceSet.make(k4_skeleton, 1, [(0, 1), (9, 0), (6, 5)])
    with pytest.raises(BadDimensionError):
        FaceSet.make(k4_skeleton, 3, [])


def test_face_set_is_a_read_only_row_with_value_equality(k4_skeleton, rng):
    from hdx.cochains import random_cochain
    from hdx.groups import group_from_spec

    a = FaceSet.make(k4_skeleton, 1, [(0, 1), (2, 3)])
    assert a.row.tolist() == [True, False, False, False, False, True]
    with pytest.raises(ValueError):
        a.row[1] = True
    f = random_cochain(complete_complex(6, 3), 2, group_from_spec("Z3"), rng, 0.4)
    support = f.support()
    assert support.row.tolist() == (f.row != 0).tolist() and len(support) == np.count_nonzero(f.row)
    again = FaceSet.make(f.complex, 2, support.faces)
    assert again == support and hash(again) == hash(support)
    assert again != FaceSet.make(f.complex, 2, list(support)[1:]) and again != support.faces
    # Equal rows on another complex object, or another k, are other sets.
    twin = complete_complex(4, 2)
    assert FaceSet.make(twin, 1, [(0, 1), (2, 3)]) != a
    assert FaceSet.make(k4_skeleton, 0, []) != FaceSet.make(k4_skeleton, 2, [])  # four vertices, four triangles
    assert len({a, FaceSet.make(k4_skeleton, 1, [(2, 3), (0, 1)])}) == 1


def test_face_set_iterates_in_sorted_order_on_wide_ids():
    # Vertex ids below 0 and past 2^63, as in the console-script wide-id complex.
    H, B = 99999999999999999999, 2**64
    X = SimplicialComplex(2, [(-5, 0, H), (-5, 0, B), (-5, H, B), (0, H, B)])
    for k in range(3):
        faces = X.faces(k)
        for size in range(len(faces) + 1):
            a = FaceSet.make(X, k, faces[::-1][:size])
            assert list(a) == sorted(a.faces) and len(a) == size
            assert all(face in a for face in a.faces) and sum(face in a for face in faces) == size


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


def _scanned_link_index(X, sigma, j):
    """link_index as a scan of every rank row of X(j + |sigma|) for the rows
    holding all of sigma's ranks, O(|X|) per (sigma, j)."""
    rows = X._ranks[j + len(sigma)]
    ranks = X._ranks[len(sigma) - 1][X.face_index(len(sigma) - 1)[sigma]]
    mine = (rows[:, :, None] == ranks).any(axis=2)
    at = np.flatnonzero(mine.sum(axis=1) == len(sigma))
    odd = (mine[at] @ np.arange(rows.shape[1]) - comb(len(sigma), 2)) % 2 == 1
    return at.tolist(), odd.tolist()


@pytest.mark.parametrize("name", ["T3", "T5", "K7^(3)", "weighted"])
def test_link_index_from_the_vertex_incidence_matches_the_row_scan(name):
    X = {
        "T3": lambda: freudenthal_torus(3),
        "T5": lambda: freudenthal_torus(5),
        "K7^(3)": lambda: complete_complex(7, 3),
        "weighted": lambda: SHARED_FACTOR,
    }[name]()
    for s in range(-1, X.dimension):
        for sigma in X.faces(s):
            for j in range(-1, X.dimension - s):
                at, odd = X.link_index(sigma, j)
                assert (at.tolist(), odd.tolist()) == _scanned_link_index(X, sigma, j), (sigma, j)
                assert not at.flags.writeable and not odd.flags.writeable


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
