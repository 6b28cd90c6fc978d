from fractions import Fraction

import pytest

from hdx.cochains import (
    Cochain,
    coboundary_abelian,
    coboundary_nonabelian_0,
    coboundary_nonabelian_1,
    distance,
    random_cochain,
)
from hdx.complexes import SimplicialComplex
from hdx.correction import (
    correct_abelian,
    correct_nonabelian,
    cosystolic_certificate,
    is_locally_minimal,
    is_minimal,
    one_step_abelian,
    one_step_nonabelian,
    parameter_schedule,
    verify_cosystolic_pair,
)
from hdx.errors import (
    AlreadyLocallyMinimalError,
    BadDimensionError,
    BudgetExceededError,
    NonAbelianGroupError,
    PremiseFailedError,
    WrongDimensionError,
)
from hdx.groups import group_from_spec
from hdx.instances import complete_complex, glued_simplices, single_simplex, torus_complex
from hdx.oracle import EnumerationBudget, enumerate_spaces, exact_distance


def test_zero_cochain_is_minimal(k4_skeleton, f2):
    assert is_minimal(Cochain.zero(k4_skeleton, 1, f2))


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
    ok, witness = is_locally_minimal(Cochain.zero(k4_skeleton, 1, f2))
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
    v, g = one_step_abelian(h)
    assert g.dimension == 1
    assert all(v in face for face in g.support())
    assert (h - coboundary_abelian(g)).weight() < h.weight()
    assert g.weight() <= h.dimension * X.face_weight((v,))


def test_one_step_requires_improvable_input(k4_skeleton, f2):
    zero = Cochain.zero(k4_skeleton, 2, f2)
    with pytest.raises(AlreadyLocallyMinimalError):
        one_step_abelian(zero)


def test_one_step_recovers_planted_link_correction(f2, rng):
    # Noise lifted into the star of one vertex is fully removable there.
    X = glued_simplices(3, 2)
    noise = Cochain(X, 1, f2, {(1, 2): 1, (1, 3): 1})
    h = coboundary_abelian(noise)
    assert not h.is_zero()
    v, g = one_step_abelian(h)
    assert (h - coboundary_abelian(g)).is_zero()


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


def test_one_step_nonabelian_contracts(s3):
    X = glued_simplices(3, 2)
    base = Cochain.zero(X, 1, s3)
    vals = {(1, 2): 1}
    noisy = Cochain(X, 1, s3, vals)
    before = coboundary_nonabelian_1(noisy).weight()
    v, updated = one_step_nonabelian(noisy)
    after = coboundary_nonabelian_1(updated).weight()
    assert after < before
    assert distance(noisy, updated) <= 2 * X.face_weight((v,))
    changed = {
        face
        for face in set(noisy.values) | set(updated.values)
        if noisy.values.get(face, 0) != updated.values.get(face, 0)
    }
    assert all(v in face for face in changed)


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


def test_localization_restriction_diagnostic(f2, rng):
    from hdx.correction import localization_restriction_diagnostic
    from hdx.oracle import link_coboundary_beta

    X = glued_simplices(3, 2)
    beta, _ = link_coboundary_beta(X, f2)
    assert beta > 0
    for _ in range(5):
        g = random_cochain(X, 1, f2, rng, 0.4)
        f = coboundary_nonabelian_1(g)
        fixed, trace = correct_nonabelian(g)
        final = coboundary_nonabelian_1(fixed)
        report = localization_restriction_diagnostic(final, beta)
        assert report.passed, report


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
    b_vals = {tuple(sorted(c.values.items())) for c in spaces.coboundaries}
    nontrivial = [
        c for c in spaces.cocycles if tuple(sorted(c.values.items())) not in b_vals
    ]
    lightest = min(nontrivial, key=lambda c: (c.weight(), tuple(sorted(c.values))))
    assert lightest.weight() == Fraction(2, 7)
    assert is_minimal(lightest)
    ok, witness = is_locally_minimal(lightest)
    assert ok, witness
