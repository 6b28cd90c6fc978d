import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from conftest import vertex_set_weight, vertex_weights
from hypothesis import given, settings
from test_complexes import weighted_complexes, wide_k4

from hdx.complexes import SimplicialComplex
from hdx.errors import BadDimensionError, DisconnectedGraphError, UnknownVertexError
from hdx.instances import bundled_instances, complete_complex, glued_simplices, single_simplex
from hdx import spectral
from hdx.spectral import (
    EIG_TOLERANCE,
    SpectralCertificate,
    WeightedGraph,
    _cheeger_counts,
    _link_stacks,
    _stack_certificates,
    cheeger_quantities,
    cheeger_sweep,
    link_spectra,
    local_spectral_lambda,
    second_eigenvalue,
    underlying_graph,
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


def test_an_isolated_vertex_is_disconnected():
    g = WeightedGraph((0, 1, 2), {0: 1, 1: 1, 2: 0}, {(0, 1): 1}, 2, 1)
    with pytest.raises(DisconnectedGraphError):
        second_eigenvalue(g)


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
            assert incident / 2 == vertex_weights(g)[v]


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


def _violations_of_one(graph, lam):
    """Failures of the two Cheeger inequalities over every proper nonempty
    vertex subset of one graph: the stacked kernel `_cheeger_counts` on a
    stack of one."""
    n = len(graph.vertices)
    index = {v: i for i, v in enumerate(graph.vertices)}
    vnum = [graph.vertex_num[v] for v in graph.vertices]
    # int64 holds every partial sum below twice the totals; Python ints otherwise.
    wide = 2 * max(sum(vnum), sum(graph.edge_num.values())) >= 2**63
    dtype = object if wide else np.int64
    adj = np.zeros((1, n, n), dtype=dtype)
    for (a, b), num in graph.edge_num.items():
        adj[0, index[a], index[b]] = adj[0, index[b], index[a]] = num
    return _cheeger_counts(
        np.array([vnum], dtype=dtype), adj, [graph.vertex_den], [graph.edge_den], [Fraction(lam)]
    )


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
                assert _violations_of_one(g, lam) == want, (sigma, lam)
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
    X = wide_k4(tiny)
    assert max(underlying_graph(X).vertex_num.values()) > 2**bits
    assert _check_against_reference(X) > 0


def test_cheeger_violations_on_the_four_cycle():
    # Uniform C4: an adjacent pair has w = 1/2, cut 1/2 = 2 (1 - 0) w (1 - w)
    # and internal mass 1/4 = (w + 0) w, so lambda = 0 is tight for both
    # inequalities on the four adjacent pairs, and any smaller lambda fails both.
    g = underlying_graph(cycle_graph(4))
    assert _violations_of_one(g, Fraction(0)) == 0
    assert _violations_of_one(g, Fraction(-1, 100)) == 8


# -- the batched link pass against the per-link path ------------------------------


def _per_link_certificate(graph):
    """The per-link path the batched pass replaced: a graph search for
    connectivity, then one dense eigensolve; (lambda_est, lambda_plus) as
    float hex strings, or None for a disconnected graph."""
    neighbours = {v: set() for v in graph.vertices}
    for a, b in graph.edge_num:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen, stack = {graph.vertices[0]}, [graph.vertices[0]]
    while stack:
        for w in neighbours[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    if len(seen) < len(graph.vertices):
        return None
    index = {v: i for i, v in enumerate(graph.vertices)}
    adj = np.zeros((len(index), len(index)))
    for (a, b), num in graph.edge_num.items():
        adj[index[a], index[b]] = adj[index[b], index[a]] = num / graph.edge_den
    scale = 1.0 / np.sqrt(adj.sum(axis=1))
    eigs = np.linalg.eigvalsh(adj * scale[:, None] * scale[None, :])
    lam = float(min(max(abs(eigs[0]), abs(eigs[-2]), 0.0), 1.0))
    return lam.hex(), min(lam + EIG_TOLERANCE, 1.0).hex()


def _assert_matches_the_per_link_path(X):
    spectra = link_spectra(X)
    assert list(spectra) == [sigma for k in range(-1, X.dimension - 1) for sigma in X.faces(k)]
    for sigma, cert in spectra.items():
        want = _per_link_certificate(underlying_graph(X.link(sigma)))
        if cert is None:
            assert want is None, sigma
        else:
            assert (cert.lambda_est.hex(), cert.lambda_plus.hex()) == want, sigma
            assert cert.witness == sigma and cert.method == "dense eigensolve"


@pytest.mark.parametrize("name", sorted(bundled_instances()))
def test_link_spectra_match_the_per_link_path_on_bundled_instances(name):
    _assert_matches_the_per_link_path(bundled_instances()[name])


@pytest.mark.parametrize("name", sorted(bundled_instances()))
def test_the_root_certificate_is_the_single_graph_reference(name):
    # The link of () comes out of the face table like every other link.
    X = bundled_instances()[name]
    want = second_eigenvalue(underlying_graph(X))
    got = link_spectra(X)[()]
    assert got == SpectralCertificate(want.lambda_est, want.lambda_plus, want.method, ())


@settings(max_examples=40, deadline=None)
@given(weighted_complexes())
def test_link_spectra_match_the_per_link_path_on_weighted_complexes(X):
    if X.dimension < 1:
        with pytest.raises(BadDimensionError):
            link_spectra(X)
    else:
        _assert_matches_the_per_link_path(X)


@pytest.mark.parametrize("tiny", [(3**12, 7**10), (3**20, 7**9), (3**45, 7**40)])
def test_link_spectra_keep_correctly_rounded_weights(tiny):
    # Triangle numerators below 2^53 divide in floats; from 2^53 on, in int64
    # (3^20, 7^9) and past 2^63 in Python ints, they must divide as Python ints.
    X = wide_k4(tiny)
    assert (int(max(X.weight_numerators(2))) >= 2**53) == (tiny[0] > 3**12)
    _assert_matches_the_per_link_path(X)


def test_link_spectra_match_the_per_link_path_on_t3_and_k8(t3):
    for X in (t3, complete_complex(8, 3)):
        _assert_matches_the_per_link_path(X)


@pytest.mark.parametrize(
    "dimension, tops, first",
    [
        # Link of 0: edges 12 and 34; link of 4: edges 03 and 56.
        (2, [(0, 1, 2), (0, 3, 4), (4, 5, 6)], (0,)),
        # Link of the edge 01: edges 23 and 45; every vertex link is connected.
        (3, [(0, 1, 2, 3), (0, 1, 4, 5)], (0, 1)),
    ],
)
def test_first_disconnected_link_below_the_root_is_the_witness(dimension, tops, first):
    X = SimplicialComplex(dimension, tops)
    spectra = link_spectra(X)
    assert spectra[()] is not None
    assert next(sigma for sigma, cert in spectra.items() if cert is None) == first
    with pytest.raises(DisconnectedGraphError) as err:
        local_spectral_lambda(X)
    assert err.value.witness == first
    _assert_matches_the_per_link_path(X)


def test_local_lambda_witness_is_the_first_maximal_link():
    X = glued_simplices(3, 2)
    spectra = link_spectra(X)
    best = max(cert.lambda_plus for cert in spectra.values())
    cert = local_spectral_lambda(X)
    assert cert.lambda_plus == best
    assert cert.witness == next(sigma for sigma, c in spectra.items() if c.lambda_plus == best)


# -- the face-table Cheeger sweep against the link-built reference ----------------


def _link_built_sweep(X, max_vertices):
    """The sweep the face-table pass replaced: one link complex per face, its
    underlying graph, and the one-graph kernel."""
    violations = graphs = subsets = 0
    for sigma, cert in link_spectra(X).items():
        if cert is None:
            continue
        graph = underlying_graph(X.link(sigma))
        if len(graph.vertices) > max_vertices:
            continue
        graphs += 1
        subsets += 2 ** len(graph.vertices) - 2
        violations += _violations_of_one(graph, cert.as_fraction())
    return violations, graphs, subsets


# The certified bound, and smaller values at which some subsets fail.
_LAMBDA_SHIFTS = (lambda lam: lam, lambda lam: lam - Fraction(1, 3), lambda lam: -lam)


def _assert_sweep_matches_the_link_built_path(monkeypatch, X, max_vertices=14):
    seen = 0
    for shift in _LAMBDA_SHIFTS:
        monkeypatch.setattr(SpectralCertificate, "as_fraction", lambda cert: shift(Fraction(cert.lambda_plus)))
        got = cheeger_sweep(X, max_vertices)
        assert got == _link_built_sweep(X, max_vertices)
        seen += got[0]
    return seen


@pytest.mark.parametrize("name", sorted(bundled_instances()))
def test_cheeger_sweep_matches_the_link_built_path_on_bundled_instances(monkeypatch, name):
    assert _assert_sweep_matches_the_link_built_path(monkeypatch, bundled_instances()[name]) > 0


def test_cheeger_sweep_matches_the_link_built_path_on_a_weighted_complex(monkeypatch):
    # Non-uniform tops on K5^(3): every link graph has unequal weights.
    tops = list(combinations(range(5), 4))
    weights = {top: Fraction(i + 1, 15) for i, top in enumerate(tops)}
    X = SimplicialComplex(3, tops, weights)
    assert not X.is_uniform
    assert _assert_sweep_matches_the_link_built_path(monkeypatch, X) > 0


@pytest.mark.parametrize("tiny", [(3**20, 7**9), (3**45, 7**40)])
def test_cheeger_sweep_matches_the_link_built_path_on_wide_numerators(monkeypatch, tiny):
    # Numerators from 2^53 on put the link stacks, and the kernel, on Python ints.
    X = wide_k4(tiny)
    assert all(edge.dtype == object for _, edge, _ in _link_stacks(X, 0))
    assert _assert_sweep_matches_the_link_built_path(monkeypatch, X) > 0


@pytest.mark.parametrize("max_vertices", [0, 5, 6])
def test_cheeger_sweep_matches_the_link_built_path_below_the_largest_link(monkeypatch, max_vertices):
    # K7^(3): the root has 7 vertices, vertex links 6 and edge links 5.
    X = complete_complex(7, 3)
    _assert_sweep_matches_the_link_built_path(monkeypatch, X, max_vertices)
    assert cheeger_sweep(X, max_vertices)[1] == {0: 0, 5: 21, 6: 28}[max_vertices]


@settings(max_examples=20, deadline=None)
@given(weighted_complexes())
def test_cheeger_sweep_matches_the_link_built_path_on_weighted_complexes(X):
    if X.dimension >= 1:
        with pytest.MonkeyPatch.context() as monkeypatch:
            _assert_sweep_matches_the_link_built_path(monkeypatch, X)


def test_cheeger_kernel_steps_over_capped_graph_stacks(monkeypatch):
    # A cap of one subset row per step gives the same counts as one step.
    X = complete_complex(6, 3)
    want = _assert_sweep_matches_the_link_built_path(monkeypatch, X)
    monkeypatch.setattr("hdx.spectral._CHEEGER_ROWS", 1)
    assert _assert_sweep_matches_the_link_built_path(monkeypatch, X) == want


def test_cheeger_sweep_builds_no_link_complex(monkeypatch):
    def no_link(self, sigma):
        raise AssertionError(f"link of {sigma} built")

    monkeypatch.setattr(SimplicialComplex, "link", no_link)
    assert cheeger_sweep(complete_complex(6, 3)) == (0, 1 + 6 + 15, 62 + 6 * 30 + 15 * 14)


# -- each class of exactly equal link graphs certified once ------------------------


def _first_max_over_link_spectra(X):
    """local_spectral_lambda's contract read off link_spectra: the face of the
    first disconnected link, or the first certificate of maximal lambda_plus."""
    best = None
    for sigma, cert in link_spectra(X).items():
        if cert is None:
            return sigma
        if best is None or cert.lambda_plus > best.lambda_plus:
            best = cert
    return best


def _assert_local_lambda_is_the_first_max(X):
    want = _first_max_over_link_spectra(X)
    if isinstance(want, SpectralCertificate):
        got = local_spectral_lambda(X)
        assert got == want
        assert (got.lambda_est.hex(), got.lambda_plus.hex()) == (want.lambda_est.hex(), want.lambda_plus.hex())
    else:
        with pytest.raises(DisconnectedGraphError) as err:
            local_spectral_lambda(X)
        assert err.value.witness == want


@pytest.fixture
def solved(monkeypatch):
    """The number of matrices np.linalg.eigvalsh has been given since the start."""
    count = [0]
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        count[0] += len(a) if a.ndim == 3 else 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return count


@pytest.mark.parametrize(
    "build, graphs, distinct",
    [
        (lambda request: complete_complex(7, 3), 29, 3),
        (lambda request: complete_complex(40, 2), 41, 2),
        (lambda request: complete_complex(14, 3), 106, 3),
        (lambda request: request.getfixturevalue("t3"), 217, 53),
    ],
)
def test_each_distinct_link_graph_is_solved_once(request, solved, build, graphs, distinct):
    X = build(request)
    assert len(link_spectra(X)) == graphs
    assert solved[0] == distinct
    local_spectral_lambda(X)
    assert solved[0] == 2 * distinct


def test_the_cheeger_sweep_solves_each_distinct_link_graph_once(solved):
    # K7^(3): one root, 7 equal vertex links and 21 equal edge links.
    assert cheeger_sweep(complete_complex(7, 3)) == (0, 29, 126 + 7 * 62 + 21 * 30)
    assert solved[0] == 3


def test_identical_disconnected_links_read_none_and_the_first_is_the_witness():
    # Three bowties, centred at 0, 5 and 10, joined by two triangles away from
    # the centres: the three vertex links are the same two disjoint edges, one
    # class of the stack of 4-vertex links.
    bowties = [(0, 1, 2), (0, 3, 4), (5, 6, 7), (5, 8, 9), (10, 11, 12), (10, 13, 14)]
    X = SimplicialComplex(2, bowties + [(2, 3, 6), (4, 7, 11)])
    centres = [(0,), (5,), (10,)]
    ((at, edge, totals),) = [stack for stack in _link_stacks(X, 0) if stack[1].shape[1] == 4]
    _, classes, connected, _ = _stack_certificates(edge, totals)
    (c,) = {classes[at.index(X.face_index(0)[v])] for v in centres}
    assert not connected[c]
    spectra = link_spectra(X)
    assert spectra[()] is not None and all(spectra[v] is None for v in centres)
    assert next(sigma for sigma, cert in spectra.items() if cert is None) == (0,)
    with pytest.raises(DisconnectedGraphError) as err:
        local_spectral_lambda(X)
    assert err.value.witness == (0,)
    _assert_matches_the_per_link_path(X)


def _two_wide_k4(tiny):
    """Two disjoint copies of wide_k4(tiny), each of mass 1/2: the vertex links
    of one copy equal those of the other, on Python-int numerators."""
    weights = {}
    for shift in (0, 4):
        for top, w in wide_k4(tiny).top_weights.items():
            weights[tuple(v + shift for v in top)] = w / 2
    return SimplicialComplex(2, list(weights), weights)


@pytest.mark.parametrize("tiny", [(3**20, 7**9), (3**45, 7**40)])
def test_object_stacks_merge_by_value_and_stay_hex_equal(tiny):
    X = _two_wide_k4(tiny)
    ((at, edge, totals),) = list(_link_stacks(X, 0))
    assert edge.dtype == object and at == list(range(8))
    first, classes, connected, _ = _stack_certificates(edge, totals)
    assert first == [0, 1, 2, 3] and classes.tolist() == [0, 1, 2, 3, 0, 1, 2, 3] and connected.all()
    _assert_matches_the_per_link_path(X)
    _assert_local_lambda_is_the_first_max(X)
    spectra, alone = link_spectra(X), link_spectra(wide_k4(tiny))
    for v in range(4):
        assert spectra[(v,)].lambda_est.hex() == spectra[(v + 4,)].lambda_est.hex() == alone[(v,)].lambda_est.hex()


def test_certification_and_the_sweep_leave_the_link_stacks_unchanged(monkeypatch):
    for X in (complete_complex(7, 3), wide_k4((3**45, 7**40)), glued_simplices(3, 2)):
        for k in range(-1, X.dimension - 1):
            for _, edge, totals in _link_stacks(X, k):
                before = edge.copy(), totals.copy()
                _stack_certificates(edge, totals)
                assert edge.dtype == before[0].dtype and (edge == before[0]).all() and (totals == before[1]).all()
        seen = []

        def recording(X, k, stacks=_link_stacks):
            for at, edge, totals in stacks(X, k):
                seen.append((edge, edge.copy(), totals, totals.copy()))
                yield at, edge, totals

        monkeypatch.setattr(spectral, "_link_stacks", recording)
        cheeger_sweep(X)
        monkeypatch.undo()
        assert seen and all((e == e0).all() and (t == t0).all() for e, e0, t, t0 in seen)


@pytest.mark.parametrize("name", sorted(bundled_instances()))
def test_local_lambda_is_the_first_max_over_link_spectra_on_bundled_instances(name):
    _assert_local_lambda_is_the_first_max(bundled_instances()[name])


def test_local_lambda_is_the_first_max_over_link_spectra_on_t3_and_k8(t3):
    for X in (t3, complete_complex(8, 3)):
        _assert_local_lambda_is_the_first_max(X)


@settings(max_examples=40, deadline=None)
@given(weighted_complexes())
def test_local_lambda_is_the_first_max_over_link_spectra_on_weighted_complexes(X):
    if X.dimension < 1:
        with pytest.raises(BadDimensionError):
            local_spectral_lambda(X)
    else:
        _assert_local_lambda_is_the_first_max(X)
