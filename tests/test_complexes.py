import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdx.complexes import (
    FaceSet,
    SimplicialComplex,
    build_complex,
    degree_bound,
    mutual_weight,
    skeleton,
)
from hdx.errors import (
    BadDimensionError,
    DimensionMismatchError,
    DuplicateTopFaceError,
    EmptyInputError,
    NonUniformCardinalityError,
    ParseError,
    UnknownFaceError,
)
from hdx.instances import bundled_instances, complete_complex, glued_simplices, torus_complex


def test_single_triangle_closure():
    X = build_complex([{0, 1, 2}], 2)
    assert X.faces(1) == ((0, 1), (0, 2), (1, 2))
    assert X.faces(0) == ((0,), (1,), (2,))
    assert X.faces(-1) == ((),)


def test_k4_counts():
    X = complete_complex(4, 2)
    assert X.face_count(2) == 4
    assert X.face_count(1) == 6
    assert X.face_count(0) == 4


def test_tetrahedron_induced_weights():
    X = build_complex([{0, 1, 2, 3}], 3)
    for tri in X.faces(2):
        assert X.face_weight(tri) == Fraction(1, 4)
    for edge in X.faces(1):
        assert X.face_weight(edge) == Fraction(1, 6)
    for v in X.faces(0):
        assert X.face_weight(v) == Fraction(1, 4)
    assert X.face_weight(()) == 1


def test_constructor_errors():
    with pytest.raises(EmptyInputError):
        build_complex([], 2)
    with pytest.raises(NonUniformCardinalityError):
        build_complex([(0, 1, 2), (0, 1)], 2)
    with pytest.raises(NonUniformCardinalityError):
        build_complex([(0, 1, 1)], 2)
    with pytest.raises(DuplicateTopFaceError):
        build_complex([(0, 1, 2), (2, 1, 0)], 2)


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


def test_skeleton(tetrahedron):
    S = skeleton(tetrahedron, 2)
    assert S.dimension == 2
    assert S.face_count(2) == 4
    assert S.face_weight((0, 1, 2)) == Fraction(1, 4)
    assert skeleton(tetrahedron, 3) is tetrahedron
    S0 = skeleton(tetrahedron, 0)
    assert S0.face_count(0) == 4
    with pytest.raises(BadDimensionError):
        skeleton(tetrahedron, 5)


def test_degree_bound(tetrahedron, k4_skeleton):
    assert degree_bound(tetrahedron) == 1
    assert degree_bound(k4_skeleton) == 3
    assert degree_bound(glued_simplices(3, 2)) == 2


def test_mutual_weight_example(k4_skeleton):
    A = FaceSet.make(k4_skeleton, 1, [(0, 1)])
    B = FaceSet.make(k4_skeleton, 0, [(0,)])
    assert mutual_weight(k4_skeleton, A, B) == Fraction(1, 12)


def test_mutual_weight_total_probability(k4_skeleton):
    A = FaceSet.make(k4_skeleton, 1, [(0, 1), (2, 3)])
    B = FaceSet.make(k4_skeleton, 0, k4_skeleton.faces(0))
    assert mutual_weight(k4_skeleton, A, B) == A.weight


def test_mutual_weight_dimension_check(k4_skeleton):
    A = FaceSet.make(k4_skeleton, 1, [(0, 1)])
    with pytest.raises(DimensionMismatchError):
        mutual_weight(k4_skeleton, A, A)


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
        expected = X.link(sigma).set_weight(
            X.localized_faces(faces, sigma), 2 - len(sigma)
        )
        assert X.localized_weight(faces, 2, sigma) == expected


def test_face_set_validation(k4_skeleton):
    with pytest.raises(UnknownFaceError):
        FaceSet.make(k4_skeleton, 1, [(0, 9)])
    a = FaceSet.make(k4_skeleton, 1, [(0, 1)])
    assert a.complement().weight == Fraction(5, 6)
    assert (0, 1) in a and (0, 2) not in a


def test_text_roundtrip():
    X = torus_complex()
    Y = SimplicialComplex.from_text(X.to_text())
    assert Y.faces(2) == X.faces(2)
    assert Y.top_weights == X.top_weights


def test_text_roundtrip_weighted():
    tops = [(0, 1, 2), (1, 2, 3)]
    weights = {(0, 1, 2): Fraction(1, 3), (1, 2, 3): Fraction(2, 3)}
    X = build_complex(tops, 2, weights)
    text = X.to_text()
    assert "w 1/3" in text
    Y = SimplicialComplex.from_text(text)
    assert Y.top_weights == weights
    assert Y.face_weight((1, 2)) == Fraction(1, 3) * Fraction(1, 3) + Fraction(2, 3) * Fraction(1, 3)


def test_to_text_bytes():
    uniform = build_complex([(1, 2, 3), (0, 1, 2)], 2)
    assert uniform.to_text() == "dim 2\n0 1 2\n1 2 3\n"
    weights = {(0, 1, 2): Fraction(1, 3), (1, 2, 3): Fraction(2, 3)}
    weighted = build_complex([(1, 2, 3), (0, 1, 2)], 2, weights)
    assert weighted.to_text() == "dim 2\n0 1 2 w 1/3\n1 2 3 w 2/3\n"
    # Explicit equal weights are uniform and print without a suffix.
    half = Fraction(1, 2)
    halves = build_complex([(0, 1, 2), (1, 2, 3)], 2, {(0, 1, 2): half, (1, 2, 3): half})
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
        build_complex(tops, 2, {t: Fraction(1, 3) for t in tops})


def test_closure_and_purity_random():
    rng = random.Random(3)
    for _ in range(10):
        n, d = rng.choice([(5, 2), (6, 2), (6, 3)])
        tops = rng.sample(sorted(combinations(range(n), d + 1)), k=rng.randint(2, 6))
        vertices = {v for t in tops for v in t}
        X = build_complex(tops, d)
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


@st.composite
def weighted_complexes(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    d = draw(st.integers(min_value=0, max_value=min(n - 1, 3)))
    candidates = list(combinations(range(n), d + 1))
    tops = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=8, unique=True))
    raw = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=len(tops), max_size=len(tops)))
    total = sum(raw)
    return SimplicialComplex(d, tops, {t: Fraction(w, total) for t, w in zip(tops, raw)})


@settings(max_examples=60, deadline=None)
@given(weighted_complexes())
def test_weighted_complexes_and_links_are_closed_pure_and_normalized(X):
    _assert_invariants_with_links(X)


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
