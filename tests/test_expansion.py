from fractions import Fraction
from itertools import combinations

import pytest

from hdx.cochains import Cochain, random_cochain
from hdx.complexes import FaceSet
from hdx.errors import (
    BadDimensionError,
    BadIndexError,
    NotNonLocalError,
    ParameterViolationError,
)
from hdx.expansion import (
    check_delta1_theorem_abelian,
    check_delta1_theorem_nonabelian,
    check_empty_face_is_thin,
    check_fat_mass_bound,
    check_upsilon_bound_abelian,
    check_upsilon_bound_nonabelian,
    check_vanishing_corollary_abelian,
    check_vanishing_corollary_nonabelian,
    classify_non_local,
    classify_weakly_non_local,
    degenerate_above,
    degenerate_inside,
    delta1,
    delta_i,
    thin_hierarchy,
)
from hdx.groups import group_from_spec
from hdx.instances import complete_complex
from hdx.oracle import enumerate_spaces
from hdx.spectral import local_spectral_lambda


def faceset(X, k, faces):
    return FaceSet.make(X, k, faces)


# -- delta1 / delta_i ------------------------------------------------------------


def test_delta1_single_edge(k4_skeleton):
    a = faceset(k4_skeleton, 1, [(0, 1)])
    d1 = delta1(a)
    assert d1.faces == frozenset({(0, 1, 2), (0, 1, 3)})
    assert d1.weight == Fraction(1, 2)


def test_delta1_star_is_empty(k4_skeleton):
    star = faceset(k4_skeleton, 1, [(0, 1), (0, 2), (0, 3)])
    assert len(delta1(star)) == 0


def test_delta1_empty_set(k4_skeleton):
    assert len(delta1(FaceSet(k4_skeleton, 1, frozenset()))) == 0


def test_delta_i_star(k4_skeleton):
    star = faceset(k4_skeleton, 1, [(0, 1), (0, 2), (0, 3)])
    assert delta_i(star, 2).faces == frozenset({(0, 1, 2), (0, 1, 3), (0, 2, 3)})
    assert delta_i(star, 0).faces == frozenset({(1, 2, 3)})
    assert delta_i(faceset(k4_skeleton, 1, k4_skeleton.faces(1)), 0).faces == frozenset()


def test_delta_i_partition_identities(rng):
    X = complete_complex(7, 2)
    for _ in range(30):
        size = rng.randint(0, 6)
        a = faceset(X, 1, rng.sample(sorted(X.faces(1)), k=size))
        total = Fraction(0)
        weighted = Fraction(0)
        for i in range(0, 4):
            w = delta_i(a, i).weight
            total += w
            weighted += i * w
        assert total == 1
        assert weighted == 3 * a.weight


def test_delta_i_bad_index(k4_skeleton):
    a = faceset(k4_skeleton, 1, [(0, 1)])
    with pytest.raises(BadIndexError):
        delta_i(a, 5)
    top = faceset(k4_skeleton, 2, [(0, 1, 2)])
    with pytest.raises(BadDimensionError):
        delta1(top)


# -- hierarchies ------------------------------------------------------------------


def test_hierarchy_k4_example(k4_skeleton):
    a = faceset(k4_skeleton, 1, [(0, 1)])
    h = thin_hierarchy(a, Fraction(1, 2))
    # ||A_v|| = 1/3 <= 1/2 at the endpoints, 0 elsewhere: every vertex is thin.
    assert h.thin(0) == frozenset({(0,), (1,), (2,), (3,)})
    assert h.thin(-1) == frozenset({()})


def test_hierarchy_empty_set_is_all_thin(k4_skeleton):
    h = thin_hierarchy(FaceSet(k4_skeleton, 1, frozenset()), Fraction(1, 3))
    assert h.thin(0) == frozenset(k4_skeleton.faces(0))
    assert h.thin(-1) == frozenset({()})


def test_hierarchy_small_support_keeps_empty_face_thin():
    X = complete_complex(8, 2)
    a = faceset(X, 1, [(0, 1)])  # ||A|| = 1/28 <= (1/2)^(2^2 - 1) = 1/8
    h = thin_hierarchy(a, Fraction(1, 2))
    report = check_empty_face_is_thin(h, a.weight)
    assert report.passed and report.params["applicable"]
    assert () in h.thin(-1)


def test_hierarchy_exponent_schedule():
    X = complete_complex(6, 3)
    a = faceset(X, 2, [(0, 1, 2)])
    h = thin_hierarchy(a, Fraction(1, 3))
    assert h.exponents == {1: (1, 1), 0: (2, 1), -1: (4, 1)}
    hn = thin_hierarchy(a, Fraction(1, 3), "nonabelian")
    assert hn.exponents == {1: (1, 3), 0: (1, 1)}


def test_fat_mass_bound_random(rng):
    X = complete_complex(7, 3)
    for _ in range(50):
        k = rng.randint(1, 2)
        G = group_from_spec(rng.choice(("Z2", "Z3")))
        f = random_cochain(X, k, G, rng, rng.choice((0.05, 0.2, 0.5)))
        eta = Fraction(rng.randint(1, 9), 10)
        h = thin_hierarchy(FaceSet(X, k, f.support()), eta)
        assert check_fat_mass_bound(h, f.weight()).passed


# -- degenerate-face sets -----------------------------------------------------------


def _upsilon_pair_scan(X, hierarchy, k):
    """Independent scan: (k+1)-faces holding two fat j-faces, j <= k, whose
    union is a (j+1)-face and whose intersection is thin at level j-1."""
    out = set()
    for above in X.faces(k + 1):
        for j in range(k + 1):
            fat = [s for s in combinations(above, j + 1) if s in hierarchy.fat(j)]
            if any(
                len(set(s1) | set(s2)) == j + 2
                and tuple(sorted(set(s1) & set(s2))) in hierarchy.thin(j - 1)
                for s1, s2 in combinations(fat, 2)
            ):
                out.add(above)
                break
    return frozenset(out)


def test_upsilon_matches_pair_scan(rng):
    # Every level j = 0..k, on 2- and 3-complexes; the larger sets mix fat
    # and thin faces at each level (on K7^(2), sets of 10 to 14 edges give
    # faces that only two fat vertices meeting in a thin empty face make
    # degenerate).
    hits = 0
    for n, d, k, most in ((7, 2, 1, 6), (7, 3, 1, 12), (7, 3, 2, 12), (7, 2, 1, 14)):
        X = complete_complex(n, d)
        for _ in range(25):
            size = rng.randint(0, most)
            a = faceset(X, k, rng.sample(sorted(X.faces(k)), k=size))
            eta = Fraction(rng.randint(1, 9), 10)
            h = thin_hierarchy(a, eta)
            got = degenerate_above(a, h).faces
            assert got == _upsilon_pair_scan(X, h, k), (n, d, k)
            hits += len(got)
    assert hits > 0


def test_upsilon_empty_set(k4_skeleton):
    a = FaceSet(k4_skeleton, 1, frozenset())
    h = thin_hierarchy(a, Fraction(1, 2))
    assert len(degenerate_above(a, h)) == 0
    hn = thin_hierarchy(a, Fraction(1, 2), "nonabelian")
    assert len(degenerate_inside(a, hn)) == 0


def test_upsilon_bound_abelian_needs_spectral_premise():
    X = complete_complex(7, 3)
    lam = local_spectral_lambda(X).as_fraction()
    f = Cochain(X, 2, group_from_spec("Z2"), {(0, 1, 2): 1})
    h_small = thin_hierarchy(FaceSet(X, 2, f.support()), Fraction(1, 10))
    with pytest.raises(ParameterViolationError):
        check_upsilon_bound_abelian(f, h_small, lam)


def test_upsilon_bound_abelian_random(rng):
    X = complete_complex(7, 3)
    lam = local_spectral_lambda(X).as_fraction()
    applicable = 0
    for _ in range(30):
        G = group_from_spec("Z2")
        f = random_cochain(X, 2, G, rng, 0.2)
        eta = Fraction(rng.randint(85, 99), 100)  # keeps lambda <= eta^(2^(d-1))
        h = thin_hierarchy(FaceSet(X, 2, f.support()), eta)
        try:
            report = check_upsilon_bound_abelian(f, h, lam)
        except ParameterViolationError:
            continue
        applicable += 1
        assert report.passed
    assert applicable > 0


def test_upsilon_bound_nonabelian_random(rng):
    X = complete_complex(7, 3)
    lam = local_spectral_lambda(X).as_fraction()
    for _ in range(30):
        k = rng.randint(1, 2)
        a = faceset(X, k, rng.sample(sorted(X.faces(k)), k=rng.randint(0, 6)))
        eta = Fraction(rng.randint(1, 9), 10)
        h = thin_hierarchy(a, eta, "nonabelian")
        assert check_upsilon_bound_nonabelian(a, h, lam).passed


# -- classification ------------------------------------------------------------------


def test_classify_empty_set_non_local():
    X = complete_complex(6, 2)
    verdict = classify_non_local(FaceSet(X, 1, frozenset()), Fraction(1, 4), Fraction(1, 4))
    assert verdict.passed


def test_classify_star_is_local():
    X = complete_complex(6, 2)
    star = faceset(X, 1, [(0, u) for u in range(1, 6)])
    verdict = classify_non_local(star, Fraction(1, 4), Fraction(1, 4))
    assert not verdict.passed
    assert verdict.measured["weight_on_thin"] == star.weight / 2


def test_classify_singleton_passes():
    X = complete_complex(6, 2)
    single = faceset(X, 1, [(0, 1)])
    verdict = classify_non_local(single, Fraction(1, 3), Fraction(1, 8))
    assert verdict.passed
    assert verdict.measured["weight_on_thin"] == single.weight


def test_classify_parameter_validation(k4_skeleton):
    a = faceset(k4_skeleton, 1, [(0, 1)])
    with pytest.raises(ParameterViolationError):
        classify_non_local(a, Fraction(2), Fraction(1, 4))
    with pytest.raises(ParameterViolationError):
        classify_weakly_non_local(a, Fraction(1, 4), Fraction(1, 4), Fraction(0))


def test_classify_weakly_non_local():
    X = complete_complex(7, 3)
    assert classify_weakly_non_local(
        FaceSet(X, 2, frozenset()), Fraction(1, 4), Fraction(1, 4), Fraction(1, 6)
    ).passed
    # Saturate one edge: every triangle over it belongs to the set.
    saturated = faceset(X, 2, [t for t in X.faces(2) if set((0, 1)) <= set(t)])
    verdict = classify_weakly_non_local(
        saturated, Fraction(1, 4), Fraction(1, 4), Fraction(1, 6)
    )
    assert not verdict.passed
    assert verdict.witness == (0, 1)


def test_classify_weakly_non_local_matches_direct(rng):
    X = complete_complex(7, 3)
    eta, eps, alpha = Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)
    for _ in range(20):
        a = faceset(X, 2, rng.sample(sorted(X.faces(2)), k=rng.randint(0, 6)))
        verdict = classify_weakly_non_local(a, eta, eps, alpha)
        # Direct re-evaluation of both conditions.
        cond1 = X.set_weight(
            [s for s in X.faces(0) if not a.faces or X.localized_weight(a.faces, 2, s) <= eta],
            0,
        ) >= 1 - eps * a.weight
        cond2 = all(X.localized_weight(a.faces, 2, tau) <= 1 - alpha for tau in X.faces(1)) if a.faces else True
        assert verdict.passed == (cond1 and cond2)


# -- theorem checks -------------------------------------------------------------------


def test_delta1_theorem_singleton_complete_8():
    X = complete_complex(8, 2)
    lam = local_spectral_lambda(X).as_fraction()
    a = faceset(X, 1, [(0, 1)])
    eta, eps = Fraction(1, 7), Fraction(1, 200)
    report = check_delta1_theorem_abelian(a, lam, eta, eps)
    assert report.passed
    assert report.rhs > 0  # the bound is non-vacuous at these parameters
    assert report.lhs == delta1(a).weight


def test_delta1_theorem_requires_non_local():
    X = complete_complex(6, 2)
    star = faceset(X, 1, [(0, u) for u in range(1, 6)])
    with pytest.raises(NotNonLocalError):
        check_delta1_theorem_abelian(star, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))


def test_delta1_theorem_small_sweep():
    X = complete_complex(6, 2)
    lam = local_spectral_lambda(X).as_fraction()
    eta, eps = Fraction(1, 5), Fraction(1, 10)
    classified = violations = 0
    for size in (1, 2):
        for edges in combinations(X.faces(1), size):
            a = faceset(X, 1, edges)
            if not classify_non_local(a, eta, eps).passed:
                continue
            classified += 1
            if not check_delta1_theorem_abelian(a, lam, eta, eps).passed:
                violations += 1
    assert classified > 0 and violations == 0


def test_delta1_theorem_nonabelian_refuses_at_desk_scale():
    X = complete_complex(8, 3)
    lam = local_spectral_lambda(X).as_fraction()
    a = faceset(X, 2, [(0, 1, 2)])
    # lambda+ ~ 1/5 forces eps >= sqrt(lambda) ~ 0.45, but eps <= alpha/(3 d^3)
    # caps it at 1/162: the premises cannot be met on desk-scale instances.
    with pytest.raises(ParameterViolationError):
        check_delta1_theorem_nonabelian(
            a, lam, Fraction(1, 10**6), Fraction(1, 162), Fraction(1, 2)
        )


def test_delta1_theorem_nonabelian_gate_and_empty_set():
    # Even with the spectral term forced to zero, the eta <= eps^3 gate makes
    # the thin threshold so small that nonempty desk-scale sets fail the
    # classification; the empty set passes vacuously (0 >= 0).
    from hdx.errors import NotWeaklyNonLocalError

    X = complete_complex(8, 3)
    alpha = Fraction(1, 2)
    eps = alpha / 81
    eta = eps**3
    report = check_delta1_theorem_nonabelian(FaceSet(X, 2, frozenset()), Fraction(0), eta, eps, alpha)
    assert report.passed and report.lhs == 0 and report.rhs == 0
    with pytest.raises(NotWeaklyNonLocalError):
        check_delta1_theorem_nonabelian(
            faceset(X, 2, [(0, 1, 2)]), Fraction(0), eta, eps, alpha
        )


# -- vanishing corollaries -------------------------------------------------------------


def test_vanishing_corollary_rejects_infeasible_params():
    X = complete_complex(6, 2)
    lam = local_spectral_lambda(X).as_fraction()  # 1/4 + tolerance > 2/9
    f = Cochain(X, 1, group_from_spec("Z2"))
    with pytest.raises(ParameterViolationError):
        check_vanishing_corollary_abelian(f, lam, Fraction(1, 100), Fraction(1, 100))


def test_vanishing_corollary_all_cocycles_complete_7():
    # Exhaustive: every nonzero cocycle fails the non-local test, so every
    # non-local cocycle is zero, at parameters satisfying the gate.
    X = complete_complex(7, 2)
    lam = local_spectral_lambda(X).as_fraction()
    eta, eps = Fraction(1, 91), Fraction(1, 182)
    assert lam + eta + 2 * eps <= Fraction(2, 9)
    F2 = group_from_spec("Z2")
    spaces = enumerate_spaces(X, F2, 1)
    for row in spaces.cocycles.tolist():
        f = Cochain(X, 1, F2, {e: v for e, v in zip(X.faces(1), row) if v})
        report = check_vanishing_corollary_abelian(f, lam, eta, eps)
        assert report.passed


def test_vanishing_corollary_zero_passes():
    X = complete_complex(7, 2)
    lam = local_spectral_lambda(X).as_fraction()
    f = Cochain(X, 1, group_from_spec("Z3"))
    assert check_vanishing_corollary_abelian(f, lam, Fraction(1, 91), Fraction(1, 182)).passed


def test_vanishing_corollary_nonabelian_gate():
    X = complete_complex(7, 3)
    a = FaceSet(X, 2, frozenset())
    with pytest.raises(ParameterViolationError):
        check_vanishing_corollary_nonabelian(
            a, Fraction(1, 4), Fraction(1, 10), Fraction(1, 10), Fraction(1, 2)
        )
    alpha = Fraction(1, 2)
    eps = alpha / 81
    report = check_vanishing_corollary_nonabelian(a, Fraction(0), eps**3, eps, alpha)
    assert report.passed

