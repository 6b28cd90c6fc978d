import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from test_complexes import weighted_complexes

from hdx.complexes import SimplicialComplex
from hdx.errors import BadDimensionError, DisconnectedGraphError, UnknownVertexError
from hdx.instances import bundled_instances, complete_complex, single_simplex
from hdx.spectral import (
    cheeger_quantities,
    cheeger_violations,
    local_spectral_lambda,
    second_eigenvalue,
    underlying_graph,
    vertex_set_weight,
)

TOL = 1e-9


def cycle_graph(n):
    return SimplicialComplex(1, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize("m", [3, 4, 5, 7])
def test_complete_graph_walk_eigenvalue(m):
    K = SimplicialComplex(1, list(combinations(range(m), 2)))
    cert = second_eigenvalue(underlying_graph(K))
    assert abs(cert.lambda_est - 1 / (m - 1)) < TOL
    assert cert.lambda_plus >= cert.lambda_est


def test_single_edge_is_bipartite():
    E = SimplicialComplex(1, [(0, 1)])
    cert = second_eigenvalue(underlying_graph(E))
    assert abs(cert.lambda_est - 1.0) < TOL


def test_even_cycle_is_bipartite():
    # max |nontrivial eigenvalue| of an even cycle is 1 (the -1 eigenvalue);
    # the signed second-largest would be cos(pi/3) = 1/2 for the 6-cycle.
    cert = second_eigenvalue(underlying_graph(cycle_graph(6)))
    assert abs(cert.lambda_est - 1.0) < TOL


def test_odd_cycle_walk_spectrum():
    cert = second_eigenvalue(underlying_graph(cycle_graph(5)))
    assert abs(cert.lambda_est - math.cos(math.pi / 5)) < TOL


def test_local_lambda_complete_complex():
    for n in (5, 6, 7):
        X = complete_complex(n, 2)
        cert = local_spectral_lambda(X)
        assert abs(cert.lambda_est - 1 / (n - 2)) < TOL


def test_local_lambda_single_tetrahedron(tetrahedron):
    cert = local_spectral_lambda(tetrahedron)
    assert abs(cert.lambda_est - 1.0) < TOL
    assert len(cert.witness) == 2  # an edge link is a single edge


def test_disconnected_union_fails_with_witness():
    X = SimplicialComplex(2, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(DisconnectedGraphError) as err:
        local_spectral_lambda(X)
    assert err.value.witness == ()


def test_underlying_graph_requires_dimension():
    with pytest.raises(BadDimensionError):
        underlying_graph(single_simplex(0))


def test_underlying_graph_of_edge_link(tetrahedron):
    L = tetrahedron.link((0, 1))
    g = underlying_graph(L)
    assert g.vertices == (2, 3)
    assert g.edge_weights == {(2, 3): Fraction(1)}


def test_vertex_weights_are_half_incident_mass():
    for X in (complete_complex(5, 2), single_simplex(3)):
        g = underlying_graph(X)
        assert sum(g.edge_weights.values()) == 1
        for v in g.vertices:
            incident = sum(w for e, w in g.edge_weights.items() if v in e)
            assert incident / 2 == g.vertex_weights[v]


def test_cheeger_k4_example():
    K4 = SimplicialComplex(1, list(combinations(range(4), 2)))
    g = underlying_graph(K4)
    cut, internal = cheeger_quantities(g, [0])
    assert (cut, internal) == (Fraction(1, 2), Fraction(0))
    lam = Fraction(1, 3)
    w = vertex_set_weight(g, [0])
    assert cut >= 2 * (1 - lam) * w * (1 - w)
    assert cheeger_quantities(g, []) == (Fraction(0), Fraction(0))
    assert cheeger_quantities(g, [0, 1, 2, 3]) == (Fraction(0), Fraction(1))
    with pytest.raises(UnknownVertexError):
        cheeger_quantities(g, [9])


@pytest.mark.parametrize("build", [lambda: complete_complex(6, 2), lambda: cycle_graph(7)])
def test_cheeger_inequalities_exhaustive(build):
    X = build()
    g = underlying_graph(X)
    lam = second_eigenvalue(g).as_fraction()
    verts = list(g.vertices)
    for bits in range(1, 2 ** len(verts) - 1):
        subset = [v for i, v in enumerate(verts) if bits >> i & 1]
        cut, internal = cheeger_quantities(g, subset)
        w = vertex_set_weight(g, subset)
        assert cut >= 2 * (1 - lam) * w * (1 - w)
        assert internal <= (w + lam) * w


def test_certificate_fraction_is_exact_upper_bound():
    K5 = SimplicialComplex(1, list(combinations(range(5), 2)))
    cert = second_eigenvalue(underlying_graph(K5))
    assert cert.as_fraction() >= Fraction(1, 4)


def _reference_violations(g, lam):
    """The Cheeger sweep in Fractions, one subset at a time."""
    verts = list(g.vertices)
    count = 0
    for bits in range(1, 2 ** len(verts) - 1):
        subset = [v for i, v in enumerate(verts) if bits >> i & 1]
        cut, internal = cheeger_quantities(g, subset)
        w = vertex_set_weight(g, subset)
        count += (cut < 2 * (1 - lam) * w * (1 - w)) + (internal > (w + lam) * w)
    return count


def _tight_lambdas(g):
    """lambda values at which one inequality holds with equality for the first
    vertex, and for all vertices but the first: a strict test and its
    non-strict variant then count differently."""
    out = set()
    verts = list(g.vertices)
    for subset in (verts[:1], verts[1:]):
        if 0 < len(subset) < len(verts):
            cut, internal = cheeger_quantities(g, subset)
            w = vertex_set_weight(g, subset)
            out |= {1 - cut / (2 * w * (1 - w)), internal / w - w}
    return out


def _check_against_reference(X):
    """Kernel and reference agree on every link graph; returns the violations seen."""
    seen = 0
    for k in range(-1, X.dimension - 1):
        for sigma in X.faces(k):
            g = underlying_graph(X.link(sigma))
            lams = {Fraction(0), Fraction(1, 3), Fraction(1)} | _tight_lambdas(g)
            try:
                lams.add(second_eigenvalue(g).as_fraction())
            except DisconnectedGraphError:
                pass
            for lam in lams:
                want = _reference_violations(g, lam)
                assert cheeger_violations(g, lam) == want, (sigma, lam)
                seen += want
    return seen


@pytest.mark.parametrize("name", sorted(bundled_instances()))
def test_cheeger_violations_match_the_fraction_reference(name):
    assert _check_against_reference(bundled_instances()[name]) > 0


@settings(max_examples=20, deadline=None)
@given(weighted_complexes())
def test_cheeger_violations_match_the_fraction_reference_on_weighted_complexes(X):
    _check_against_reference(X)


@pytest.mark.parametrize("tiny, bits", [((3**12, 7**10), 40), ((3**45, 7**40), 64)])
def test_cheeger_violations_on_wide_numerators(tiny, bits):
    # Weights 1/3^a and 1/7^b on K4: numerators past 2^40 sum in int64, those
    # of 185 bits (past 2^64) in Python ints.
    tops = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    small = tuple(Fraction(1, t) for t in tiny)
    X = SimplicialComplex(2, tops, dict(zip(tops, small + (Fraction(1, 2), Fraction(1, 2) - sum(small)))))
    assert max(underlying_graph(X).vertex_num.values()) > 2**bits
    assert _check_against_reference(X) > 0


def test_cheeger_violations_on_the_four_cycle():
    # Uniform C4: an adjacent pair has w = 1/2, cut 1/2 = 2 (1 - 0) w (1 - w)
    # and internal mass 1/4 = (w + 0) w, so lambda = 0 is tight for both
    # inequalities on the four adjacent pairs, and any smaller lambda fails both.
    g = underlying_graph(cycle_graph(4))
    assert cheeger_violations(g, Fraction(0)) == 0
    assert cheeger_violations(g, Fraction(-1, 100)) == 8
