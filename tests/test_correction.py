import random
from fractions import Fraction
from functools import partial

import pytest

from conftest import cochain_eval
from hdx import correction
from hdx.cochains import (
    DELTA0_TERMS,
    Cochain,
    act,
    coboundary_abelian,
    coboundary_nonabelian_0,
    coboundary_nonabelian_1,
    distance,
    random_cochain,
)
from hdx.complexes import SimplicialComplex
from hdx.correction import (
    CorrectionTrace,
    _scan_stars,
    _stars,
    _triangles_at,
    correct_abelian,
    correct_nonabelian,
    cosystolic_certificate,
    is_locally_minimal,
    is_minimal,
    one_step_abelian,
    one_step_nonabelian,
    parameter_schedule,
    saturation_diagnostic,
    verify_cosystolic_pair,
)
from hdx.errors import (
    AlreadyLocallyMinimalError,
    BadDimensionError,
    BudgetExceededError,
    FalsificationError,
    NonAbelianGroupError,
    PremiseFailedError,
    WrongDimensionError,
)
from hdx.groups import group_from_spec
from hdx.instances import complete_complex, glued_simplices, single_simplex, torus_complex
from hdx.oracle import EnumerationBudget, enumerate_spaces, exact_distance
from hdx.spectral import cheeger_sweep, link_spectra


def test_zero_cochain_is_minimal(k4_skeleton, f2):
    assert is_minimal(Cochain(k4_skeleton, 1, f2))


def test_nonzero_coboundary_is_not_minimal(k4_skeleton, f2, rng):
    g = random_cochain(k4_skeleton, 0, f2, rng, 0.9)
    f = coboundary_abelian(g)
    if not f.is_zero():
        assert not is_minimal(f)


def test_single_edge_minimality_matches_enumeration(k4_skeleton, f2):
    f = Cochain(k4_skeleton, 1, f2, {(0, 1): 1})
    dist, _ = exact_distance(f, "B")
    assert is_minimal(f) == (dist == f.weight())
    assert is_minimal(f)


def test_minimality_agrees_with_oracle_random(rng):
    X = complete_complex(5, 2)
    for spec in ("Z2", "Z3", "S3"):
        G = group_from_spec(spec)
        for _ in range(10):
            f = random_cochain(X, 1, G, rng, 0.4)
            dist, _ = exact_distance(f, "B")
            assert is_minimal(f) == (dist == f.weight())


def test_minimality_budget(k4_skeleton):
    G = group_from_spec("Z6")
    f = Cochain(k4_skeleton, 1, G, {(0, 1): 1})
    with pytest.raises(BudgetExceededError):
        is_minimal(f, EnumerationBudget(max_states=10))


def test_locally_minimal_zero(k4_skeleton, f2):
    ok, witness = is_locally_minimal(Cochain(k4_skeleton, 1, f2))
    assert ok and witness is None


def test_locally_minimal_witness(f2, rng):
    # A coboundary concentrated at one vertex is correctable in that link.
    X = complete_complex(6, 3)
    w = Cochain(X, 1, f2, {(0, 1): 1, (0, 2): 1})
    h = coboundary_abelian(w)
    ok, witness = is_locally_minimal(h)
    assert not ok
    assert witness in X.vertices()


def test_one_step_contract(f2):
    X = complete_complex(6, 3)
    noise = Cochain(X, 1, f2, {(0, 1): 1})
    h = coboundary_abelian(noise)
    v, g, new_h = one_step_abelian(h)
    assert g.dimension == 1
    assert all(v in face for face in g.support())
    assert new_h == h - coboundary_abelian(g)
    assert (h - coboundary_abelian(g)).weight() < h.weight()
    assert g.weight() <= h.dimension * X.face_weight((v,))


def test_one_step_requires_improvable_input(k4_skeleton, f2):
    zero = Cochain(k4_skeleton, 2, f2)
    with pytest.raises(AlreadyLocallyMinimalError):
        one_step_abelian(zero)


def test_one_step_recovers_planted_link_correction(f2, rng):
    # Noise lifted into the star of one vertex is fully removable there.
    X = glued_simplices(3, 2)
    noise = Cochain(X, 1, f2, {(1, 2): 1, (1, 3): 1})
    h = coboundary_abelian(noise)
    assert not h.is_zero()
    v, g, new_h = one_step_abelian(h)
    assert (h - coboundary_abelian(g)).is_zero()
    assert new_h.is_zero()


def test_correct_abelian_on_cocycle_is_a_no_op(rng):
    X = complete_complex(6, 3)
    G = group_from_spec("Z3")
    z = coboundary_abelian(random_cochain(X, 0, G, rng, 0.5))
    fixed, trace = correct_abelian(z)
    assert trace.step_count == 0
    assert fixed == z
    assert trace.final_delta_weight == 0


def test_correct_abelian_planted_instances(rng):
    X = complete_complex(6, 3)
    for spec in ("Z2", "Z3"):
        G = group_from_spec(spec)
        for trial in range(5):
            base = coboundary_abelian(random_cochain(X, 0, G, rng, 0.5))
            v = rng.choice(sorted(X.vertices()))
            star = sorted(f for f in X.faces(1) if v in f)
            noise = Cochain(
                X, 1, G, {f: rng.randrange(1, G.order) for f in rng.sample(star, 2)}
            )
            f = base + noise
            before = coboundary_abelian(f).weight()
            fixed, trace = correct_abelian(f)
            assert trace.initial_delta_weight == before
            assert trace.final_delta_weight <= before
            # Monotone decrease step by step.
            weights = [s.delta_weight_before for s in trace.steps] + [trace.final_delta_weight]
            assert all(a > b for a, b in zip(weights, weights[1:]))
            assert trace.total_moved <= trace.dist_bound
            assert trace.step_count <= trace.r_bound
            # Single-vertex noise is recoverable: the loop reaches a cocycle.
            assert trace.final_delta_weight == 0
            if G.order == 2:  # the bitmask scan keeps the cocycle oracle cheap
                assert distance(f, fixed) >= exact_distance(f, "Z")[0]


def test_correct_abelian_rejects_bad_dimension(k4_skeleton, f2, s3):
    f = Cochain(k4_skeleton, 1, f2, {(0, 1): 1})
    with pytest.raises(BadDimensionError):
        correct_abelian(f)  # k = d - 1 on a 2-complex
    X = complete_complex(6, 3)
    with pytest.raises(NonAbelianGroupError):
        correct_abelian(Cochain(X, 1, s3, {(0, 1): 1}))


def test_correct_abelian_with_classification_params(rng):
    # eta large enough that the weight precondition fires and the verdict runs.
    X = complete_complex(6, 3)
    G = group_from_spec("Z2")
    noise = Cochain(X, 1, G, {(0, 1): 1})
    f = noise
    fixed, trace = correct_abelian(f, eta=Fraction(9, 10), eps=Fraction(1, 2))
    assert trace.verdict is not None
    assert trace.verdict["passed"]


def _two_edges(spec):
    """Two planted edges on K6^(3): delta has weight 2/5 on either path."""
    return Cochain(complete_complex(6, 3), 1, group_from_spec(spec), {(0, 1): 1, (3, 4): 2})


def _stopped(*args):
    raise AlreadyLocallyMinimalError("no step taken")


@pytest.mark.parametrize(
    "correct, step, spec, options, kind, measured, params",
    [
        (
            correct_abelian,
            "one_step_abelian",
            "Z3",
            {"eps": Fraction(1, 10)},
            "non-local",
            {"weight": Fraction(2, 5), "weight_on_thin": Fraction(4, 15)},
            {"eta": Fraction(9, 10), "eps": Fraction(1, 10)},
        ),
        (
            correct_nonabelian,
            "one_step_nonabelian",
            "S3",
            {"eps": Fraction(1, 2), "beta": Fraction(1)},
            "weakly-non-local",
            {"weight": Fraction(2, 5), "thin_mass": Fraction(1)},
            {"eta": Fraction(9, 10), "eps": Fraction(1, 2), "alpha": Fraction(1, 6)},
        ),
    ],
)
def test_a_failed_classification_raises_with_the_trace(
    monkeypatch, correct, step, spec, options, kind, measured, params
):
    # A loop stopped before its first step hands the classifier the planted
    # support, which is below the weight threshold and fails the classification.
    monkeypatch.setattr(correction, step, _stopped)
    with pytest.raises(FalsificationError) as caught:
        correct(_two_edges(spec), eta=Fraction(9, 10), **options)
    assert type(caught.value) is FalsificationError
    assert str(caught.value) == f"corrected coboundary failed its {kind} classification"
    trace = caught.value.report
    assert isinstance(trace, CorrectionTrace)
    assert trace.steps == [] and trace.final_delta_weight == trace.initial_delta_weight == Fraction(2, 5)
    assert trace.verdict == {"kind": kind, "passed": False, "measured": measured, "params": params}


@pytest.mark.parametrize("correct, spec", [(correct_abelian, "Z3"), (correct_nonabelian, "S3")])
def test_a_broken_movement_bound_raises(monkeypatch, correct, spec):
    # With q = 0 the movement bound q C(d, k+1) ||delta f|| (additive) or
    # 2q ||delta f|| (multiplicative) is 0, and the run moves two edges.
    monkeypatch.setattr(SimplicialComplex, "degree_bound", lambda self: 0)
    with pytest.raises(FalsificationError) as caught:
        correct(_two_edges(spec))
    assert type(caught.value) is FalsificationError
    assert str(caught.value) == "moved 2/15, over the bound 0"
    trace = caught.value.report
    assert isinstance(trace, CorrectionTrace) and trace.locally_minimal and trace.verdict is None
    assert trace.steps and trace.total_moved == Fraction(2, 15) and trace.dist_bound == 0
    assert trace.initial_delta_weight == Fraction(2, 5) and trace.r_bound > 0


def test_one_step_nonabelian_contracts(s3):
    X = glued_simplices(3, 2)
    base = Cochain(X, 1, s3)
    vals = {(1, 2): 1}
    noisy = Cochain(X, 1, s3, vals)
    before = coboundary_nonabelian_1(noisy).weight()
    v, updated, d_updated = one_step_nonabelian(noisy)
    assert d_updated == coboundary_nonabelian_1(updated)
    after = coboundary_nonabelian_1(updated).weight()
    assert after < before
    assert distance(noisy, updated) <= 2 * X.face_weight((v,))
    changed = {
        face
        for face in set(noisy.values) | set(updated.values)
        if noisy.values.get(face, 0) != updated.values.get(face, 0)
    }
    assert all(v in face for face in changed)


def test_nonabelian_link_decrease_is_the_coboundary_drop():
    # Every vertex search of the multiplicative path reports the exact drop of
    # the numerator of ||delta f|| (units of X(2)) that its new edge values
    # give.  A search that scored only the triangles already unsatisfied
    # missed the ones its edge update breaks, and mis-reported most drops.
    X = complete_complex(5, 3)
    budget = EnumerationBudget()

    def numerator(f):
        return sum(X.weight_numerator(t) for t in coboundary_nonabelian_1(f).values)

    improving = 0
    for spec in ("S3", "Z3"):
        G = group_from_spec(spec)
        for seed in range(30):
            f = random_cochain(X, 1, G, random.Random(seed), 0.3)
            df = coboundary_nonabelian_1(f)
            for star in _stars(df, budget):
                v = star.vertex
                local = partial(_triangles_at, f)
                found = _scan_stars(df, [star], local, DELTA0_TERMS[:1], DELTA0_TERMS[1:])[0]
                if found.decrease_num <= 0:
                    continue
                improving += 1
                values = {e: val for e, val in f.values.items() if v not in e}
                for (u,), x in zip(X.link((v,)).faces(0), found.assignment):
                    y = G.op(x, cochain_eval(f, (v, u)))
                    edge, val = ((v, u), y) if v < u else ((u, v), G.inv(y))
                    if val:
                        values[edge] = val
                updated = Cochain(X, 1, G, values)
                assert found.decrease_num == numerator(f) - numerator(updated), (spec, seed, v)
    assert improving > 0


def test_nonabelian_step_keeps_f_among_tied_minimizers():
    # On the tetrahedron, f(01) = f(02) = a breaks the triangles 013 and 023.
    # Vertex 0 clears both by making its three edge values equal: to a (one
    # edge rewritten) or to any other element, e.g. the identity (two edges).
    # The step must keep f where it can: f'(03) = a, and it moves one edge.
    X = single_simplex(3)
    for spec in ("S3", "D4", "Z3"):
        G = group_from_spec(spec)
        f = Cochain(X, 1, G, {(0, 1): 1, (0, 2): 1})
        v, updated, _ = one_step_nonabelian(f)
        assert v == 0
        assert updated.values == {(0, 1): 1, (0, 2): 1, (0, 3): 1}, spec
        assert distance(f, updated) == X.set_weight([(0, 3)], 1)


@pytest.mark.parametrize(
    "path, n, spec",
    [("abelian", n, spec) for n in (6, 7) for spec in ("Z2", "Z3")]
    + [("nonabelian", n, spec) for n in (5, 6) for spec in ("S3", "Z3")],
)
def test_every_one_edge_error_moves_one_edge(path, n, spec):
    # A step at vertex 0 can clear an error on (0, 1) by rewriting that edge,
    # or by rewriting the other n - 2 edges at 0: both clear the same
    # triangles, and the second comes first in product order.  Ties go to the
    # lighter rewrite, so every one-edge error is undone by moving that edge.
    X, G = complete_complex(n, 3), group_from_spec(spec)
    correct = correct_abelian if path == "abelian" else correct_nonabelian
    for edge in X.faces(1):
        for a in range(1, G.order):
            f = Cochain(X, 1, G, {edge: a})
            fixed, trace = correct(f)
            assert fixed.is_zero() and trace.total_moved == X.face_weight(edge), (edge, a)


def test_one_step_nonabelian_rejects_cocycles(s3, rng):
    X = glued_simplices(3, 2)
    f = coboundary_nonabelian_0(random_cochain(X, 0, s3, rng, 0.5))
    with pytest.raises(AlreadyLocallyMinimalError):
        one_step_nonabelian(f)


def test_correct_nonabelian_planted(rng):
    X = glued_simplices(3, 2)
    for spec in ("S3", "D4"):
        G = group_from_spec(spec)
        for _ in range(4):
            base = coboundary_nonabelian_0(random_cochain(X, 0, G, rng, 0.5))
            values = dict(base.values)
            edge = rng.choice(sorted(X.faces(1)))
            noisy_val = G.op(values.get(edge, 0), rng.randrange(1, G.order))
            if noisy_val:
                values[edge] = noisy_val
            else:
                values.pop(edge, None)
            f = Cochain(X, 1, G, values)
            fixed, trace = correct_nonabelian(f)
            assert trace.final_delta_weight <= trace.initial_delta_weight
            assert trace.total_moved <= trace.dist_bound
            assert trace.step_count <= trace.r_bound
            weights = [s.delta_weight_before for s in trace.steps] + [trace.final_delta_weight]
            assert all(a > b for a, b in zip(weights, weights[1:]))


def test_each_step_computes_one_coboundary(monkeypatch):
    # A run computes delta(f) once; each step returns the coboundary its own
    # check computed, and the loop reuses it.
    calls = []
    for name in ("coboundary_abelian", "coboundary_nonabelian_1"):

        def counted(f, _original=getattr(correction, name)):
            calls.append(f.dimension)
            return _original(f)

        monkeypatch.setattr(correction, name, counted)
    rng = random.Random(11)
    steps = []
    for spec, correct in (("Z2", correct_abelian), ("Z3", correct_abelian), ("S3", correct_nonabelian)):
        G = group_from_spec(spec)
        X = complete_complex(6, 3) if G.is_abelian else glued_simplices(3, 2)
        for _ in range(4):
            f = random_cochain(X, 1, G, rng, 0.2)
            calls.clear()
            _, trace = correct(f)
            assert len(calls) == 1 + trace.step_count, (spec, trace.step_count)
            steps.append(trace.step_count)
    assert max(steps) >= 2


def test_correct_nonabelian_wrong_dimension(s3):
    X = complete_complex(5, 2)
    f = Cochain(X, 1, s3, {(0, 1): 1})
    with pytest.raises(WrongDimensionError):
        correct_nonabelian(f)


def test_cross_path_consistency(rng):
    # An abelian group through the multiplicative path also satisfies its
    # contracts, and both paths end with small coboundaries on planted noise.
    X = glued_simplices(3, 2)
    G = group_from_spec("Z6")
    base = coboundary_nonabelian_0(random_cochain(X, 0, G, rng, 0.5))
    values = dict(base.values)
    values[(0, 1)] = G.op(values.get((0, 1), 0), 3)
    f = Cochain(X, 1, G, values)
    fixed_m, trace_m = correct_nonabelian(f)
    fixed_a, trace_a = correct_abelian(f)
    assert trace_m.final_delta_weight <= trace_m.initial_delta_weight
    assert trace_a.final_delta_weight <= trace_a.initial_delta_weight


def test_parameter_schedule_formulas():
    s = parameter_schedule(2, 3, Fraction(1), Fraction(1, 18), "abelian")
    assert s.eta == Fraction(1, 18) / (4 * 36)
    assert s.eta == Fraction(1, 2592)
    assert s.lam == s.eta**2
    d3 = parameter_schedule(3, 3, Fraction(1, 2), Fraction(1, 32), "abelian")
    assert d3.eta == Fraction(1, 2) ** 2 * Fraction(1, 32) / (2**3 * 24**2)
    assert d3.eta == Fraction(1, 589824)
    assert d3.lam == d3.eta**4
    n = parameter_schedule(3, 2, Fraction(1, 2), Fraction(1, 486), "nonabelian")
    assert n.eta == Fraction(1, 486) ** 3
    assert n.lam == Fraction(1, 4) * n.eta**2 * Fraction(1, 486) / 64


def test_parameter_schedule_monotone_in_eps():
    etas = [
        parameter_schedule(3, 3, Fraction(1, 2), Fraction(1, k), "abelian").eta
        for k in (8, 16, 32, 64)
    ]
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_certificate_refuses_on_desk_scale_spectral():
    X = complete_complex(6, 3)
    with pytest.raises(PremiseFailedError) as err:
        cosystolic_certificate(X, group_from_spec("Z2"))
    assert err.value.premise == "spectral"
    assert "lambda_plus" in err.value.details


def test_certificate_refuses_on_disconnected_link():
    X = SimplicialComplex(2, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(PremiseFailedError) as err:
        cosystolic_certificate(X, group_from_spec("Z2"))
    assert err.value.premise == "spectral"


def test_certificate_nonabelian_needs_dimension_3():
    with pytest.raises(WrongDimensionError):
        cosystolic_certificate(complete_complex(5, 2), group_from_spec("S3"), "nonabelian")


def test_verify_cosystolic_pair_on_tetrahedron(f2):
    from hdx.oracle import cosystolic_expansion_constants

    X = single_simplex(3)
    constants = cosystolic_expansion_constants(X, f2)
    report = verify_cosystolic_pair(X, f2, constants.epsilon, Fraction(1, 4))
    assert report.passed
    too_strong = verify_cosystolic_pair(X, f2, constants.epsilon * 2, Fraction(1, 4))
    assert not too_strong.passed


def test_saturation_diagnostic_on_corrected_output(rng):
    X = glued_simplices(3, 2)
    for spec in ("S3", "Z6"):
        G = group_from_spec(spec)
        for _ in range(3):
            base = coboundary_nonabelian_0(random_cochain(X, 0, G, rng, 0.5))
            values = dict(base.values)
            edge = rng.choice(sorted(X.faces(1)))
            new = G.op(values.get(edge, 0), rng.randrange(1, G.order))
            if new:
                values[edge] = new
            else:
                values.pop(edge, None)
            fixed, trace = correct_nonabelian(Cochain(X, 1, G, values))
            assert trace.diagnostics and trace.diagnostics[0].passed


@pytest.mark.parametrize("spec", ["Z2", "S3"])
def test_saturation_diagnostic_matches_the_localized_weight_reference(spec, t3, rng):
    G = group_from_spec(spec)
    for X in (complete_complex(6, 3), t3):
        for density in (0.0, 0.05, 0.3, 0.9):
            f = random_cochain(X, 2, G, rng, density)
            support = f.support()
            weights = [X.localized_weight(support, 2, edge) for edge in X.faces(1)]
            worst = max(weights)
            report = saturation_diagnostic(f)
            assert report.lhs == worst and report.witness == X.faces(1)[weights.index(worst)]
            assert report.passed == (worst <= 1 - Fraction(1, G.order))


def test_equations_expand_at_schedule_rate(rng, f2):
    # Sampled check: ||delta f|| >= min(eta^(2^(k+2)-1), 1/(q C(d,k+1))) * dist(f, Z^k)
    # with the oracle distance and the schedule eta from the measured link beta.
    from math import comb

    from hdx.correction import parameter_schedule
    from hdx.oracle import link_coboundary_beta

    X = complete_complex(6, 3)
    q = X.degree_bound()
    d = X.dimension
    beta, _ = link_coboundary_beta(X, f2)
    eps = Fraction(1, 2 * (d + 1) ** 2)
    schedule = parameter_schedule(d, q, min(beta, Fraction(99, 100)), eps, "abelian")
    k = 1
    rate = min(schedule.eta ** (2 ** (k + 2) - 1), Fraction(1, q * comb(d, k + 1)))
    for _ in range(10):
        f = random_cochain(X, k, f2, rng, 0.3)
        if f.is_cocycle():
            continue
        dist, _ = exact_distance(f, "Z")
        assert coboundary_abelian(f).weight() >= rate * dist


def test_locally_minimal_torus_systole(f2):
    # The lightest nontrivial cocycle on the torus is minimal and locally minimal.
    X = torus_complex()
    spaces = enumerate_spaces(X, f2, 1)
    b_rows = set(map(tuple, spaces.coboundaries.tolist()))
    nontrivial = [
        Cochain(X, 1, f2, {e: v for e, v in zip(X.faces(1), row) if v})
        for row in map(tuple, spaces.cocycles.tolist())
        if row not in b_rows
    ]
    lightest = min(nontrivial, key=lambda c: (c.weight(), tuple(sorted(c.values))))
    assert lightest.weight() == Fraction(2, 7)
    assert is_minimal(lightest)
    ok, witness = is_locally_minimal(lightest)
    assert ok, witness


# -- the step reads the face table, not the link complex ----------------------------


def _link_built_triangles_at(f, v):
    """_triangles_at as it was defined on the link complex: f's values on the
    link's edges, acted on by the localization of f at v."""
    link, index = f.complex.link((v,)), f.complex.face_index(1)
    inside = f.row[[index[edge] for edge in link.faces(1)]]
    return act(f.localize((v,)), Cochain.of_row(link, 1, f.group, inside)).row


def test_star_tables_match_the_link_complex(t3):
    for X in (complete_complex(7, 3), t3, glued_simplices(3, 2)):
        for v in X.vertices():
            link = X.link((v,))
            for j in range(1, X.dimension + 1):
                table, rim = X.star_facets(v, j)
                assert table.tolist() == link.facets(j - 1).tolist(), (v, j)
                assert [X.faces(j - 1)[r] for r in rim.tolist()] == list(link.faces(j - 1))
        for spec in ("Z3", "S3"):
            G = group_from_spec(spec)
            f = random_cochain(X, 1, G, random.Random(5), 0.4)
            for v in X.vertices():
                assert _triangles_at(f, v).tolist() == _link_built_triangles_at(f, v).tolist(), (spec, v)


def _planted(X, G, seed, noisy=2):
    """A multiplicative 1-coboundary h(u) h(v)^-1 with `noisy` edges multiplied by noise."""
    rng = random.Random(seed)
    h = [rng.randrange(G.order) for _ in X.vertices()]
    at = {v: i for i, v in enumerate(X.vertices())}
    values = {(u, w): G.op(h[at[u]], G.inv(h[at[w]])) for u, w in X.faces(1)}
    for edge in rng.sample(X.faces(1), noisy):
        values[edge] = G.op(values[edge], rng.randrange(1, G.order))
    return Cochain(X, 1, G, values)


def _fast_side_results(tops, spec):
    """link_spectra, cheeger_sweep and both correction paths' results on a
    fresh complex, in plain values that compare across complexes."""
    X, G = SimplicialComplex(3, tops), group_from_spec(spec)
    f = _planted(X, G, 3)
    out = [link_spectra(X), cheeger_sweep(X)]
    if G.is_abelian:
        v, g, h = one_step_abelian(coboundary_abelian(f))
        fixed, trace = correct_abelian(f)
        out += [v, g.values, h.values, fixed.values, trace.steps, trace.total_moved]
    v, f_new, df = one_step_nonabelian(f)
    fixed, trace = correct_nonabelian(f)
    return out + [v, f_new.values, df.values, fixed.values, trace.steps, trace.diagnostics]


@pytest.mark.parametrize("instance, spec", [("k7", "Z3"), ("k7", "S3"), ("t3", "Z2")])
def test_fast_side_builds_no_link_complex(monkeypatch, t3, instance, spec):
    # T3's vertex links have 14 vertices, so it runs both paths over Z2 only.
    tops = complete_complex(7, 3).faces(3) if instance == "k7" else t3.faces(3)
    want = _fast_side_results(tops, spec)

    def no_link(self, sigma):
        raise AssertionError(f"link of {sigma} built")

    monkeypatch.setattr(SimplicialComplex, "link", no_link)
    assert _fast_side_results(tops, spec) == want


def relabeled(X, shift):
    """X with every vertex id moved by shift, weights kept."""
    tops = X.faces(X.dimension)
    weights = {tuple(v + shift for v in top): X.face_weight(top) for top in tops}
    return SimplicialComplex(X.dimension, list(weights), weights)


def test_a_step_needs_a_positive_decrease_whatever_the_vertex_ids(f2):
    # A lone triangle of the tetrahedron boundary is locally minimal: no
    # vertex link gains by a correction, also with the vertices at -4..-1.
    for shift in (0, -4):
        X = relabeled(complete_complex(4, 2), shift)
        h = Cochain(X, 2, f2, {(shift, shift + 1, shift + 2): 1})
        with pytest.raises(AlreadyLocallyMinimalError):
            one_step_abelian(h)


@pytest.mark.parametrize("correct", [correct_abelian, correct_nonabelian])
def test_negative_vertex_ids_shift_the_trace_and_nothing_else(t3, f2, correct):
    # Moving every id by the same amount keeps the order of the vertices, so
    # the runs take the same steps at the moved vertices and end cleanly at
    # the same nonzero local minimum, where no search decreases the weight.
    f = random_cochain(t3, 1, f2, random.Random(1), 0.5)
    _, trace = correct(f)
    assert trace.final_delta_weight > 0
    for shift in (-30, -3):
        Y = relabeled(t3, shift)
        g = Cochain(Y, 1, f2, {tuple(v + shift for v in face): val for face, val in f.values.items()})
        _, moved = correct(g)
        assert [(s.vertex - shift, s.delta_weight_after, s.moved) for s in moved.steps] == [
            (s.vertex, s.delta_weight_after, s.moved) for s in trace.steps
        ]
        assert moved.final_delta_weight == trace.final_delta_weight
