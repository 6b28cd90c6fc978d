from fractions import Fraction
from itertools import product

import pytest

from hdx.cochains import Cochain, coboundary_abelian, random_cochain
from hdx.complexes import SimplicialComplex
from hdx.errors import BadDimensionError, BudgetExceededError, ParseError, UndefinedCoboundaryError
from hdx.groups import group_from_spec
from hdx.instances import (
    complete_complex,
    projective_plane_complex,
    single_simplex,
    torus_complex,
)
from hdx.oracle import (
    BUDGET_ENV_VAR,
    EnumerationBudget,
    coboundary_expansion_constant,
    cosystolic_expansion_constants,
    enumerate_spaces,
    exact_distance,
    link_coboundary_beta,
    min_nontrivial_cocycle_weight,
    space_size,
    verify_against_oracle,
)


def test_triangle_space_sizes(f2):
    X = single_simplex(2)
    spaces = enumerate_spaces(X, f2, 1)
    assert spaces.c_count == 8
    assert len(spaces.cocycles) == 4
    assert len(spaces.coboundaries) == 4


def test_connected_zero_cocycles_are_constants(z3):
    X = complete_complex(5, 2)
    spaces = enumerate_spaces(X, z3, 0)
    assert len(spaces.cocycles) == 3
    for f in spaces.cocycles:
        values = {f.value((v,)) for v in X.vertices()}
        assert len(values) == 1
    assert len(spaces.coboundaries) == 3  # constants, from the (-1)-level scan


def test_trivial_group_spaces():
    X = single_simplex(2)
    G = group_from_spec("Z1")
    spaces = enumerate_spaces(X, G, 1)
    assert spaces.c_count == 1
    assert len(spaces.cocycles) == 1
    assert len(spaces.coboundaries) == 1


def test_inclusion_chain_and_quotient(rng):
    for spec in ("Z2", "Z3", "Z2xZ2"):
        G = group_from_spec(spec)
        for X in (single_simplex(2), complete_complex(4, 2)):
            spaces = enumerate_spaces(X, G, 1)
            z = {tuple(sorted(c.values.items())) for c in spaces.cocycles}
            b = {tuple(sorted(c.values.items())) for c in spaces.coboundaries}
            assert b <= z
            assert len(z) % len(b) == 0  # subgroup index is integral


def test_abelian_spaces_closed_under_addition(rng, f2):
    X = complete_complex(4, 2)
    spaces = enumerate_spaces(X, f2, 1)
    for pool in (spaces.cocycles, spaces.coboundaries):
        members = {tuple(sorted(c.values.items())) for c in pool}
        for a in pool[:6]:
            for b in pool[:6]:
                assert tuple(sorted((a + b).values.items())) in members


def test_exact_distance_of_cocycle_is_zero(rng, f2):
    X = complete_complex(4, 2)
    z = coboundary_abelian(random_cochain(X, 0, f2, rng, 0.5))
    dist, witness = exact_distance(z, "Z")
    assert dist == 0
    assert witness == z


def test_exact_distance_single_edge(k4_skeleton, f2):
    f = Cochain(k4_skeleton, 1, f2, {(0, 1): 1})
    dist, witness = exact_distance(f, "Z")
    assert dist == Fraction(1, 6)
    assert witness.is_zero()
    assert dist <= f.weight()


def test_exact_distance_undefined_space(s3):
    X = complete_complex(5, 3)
    f = Cochain(X, 2, s3, {(0, 1, 2): 1})
    with pytest.raises(UndefinedCoboundaryError):
        exact_distance(f, "Z")


def test_expansion_constant_simplex_links_positive(f2, z3):
    X = single_simplex(3)
    for G in (f2, z3):
        for k in (0, 1, 2):
            const = coboundary_expansion_constant(X, G, k)
            assert const.vacuous or const.epsilon > 0


def test_expansion_constant_known_value_triangle(f2):
    X = single_simplex(2)
    const = coboundary_expansion_constant(X, f2, 1)
    # Any single edge has delta of weight 1 and distance 1/3 to the nearest
    # coboundary; the minimum ratio over the 4 non-coboundaries is 3.
    assert const.epsilon == 3


def test_expansion_constant_zero_with_nontrivial_cohomology(f2):
    X = projective_plane_complex()
    const = coboundary_expansion_constant(X, f2, 1)
    assert const.epsilon == 0
    assert const.witness is not None
    assert const.witness.is_cocycle()


def test_expansion_constant_trivial_group():
    X = single_simplex(2)
    const = coboundary_expansion_constant(X, group_from_spec("Z1"), 1)
    assert const.vacuous and const.epsilon is None


def test_projective_plane_cohomology_is_torsion(z3):
    # Degree-1 cohomology of the projective plane is 2-torsion: over Z3 the
    # cocycles are exactly the coboundaries.  The cocycle count comes from an
    # independent rank computation of the coboundary matrix over GF(3).
    X = projective_plane_complex()
    edges = list(X.faces(1))
    rows = []
    for tri in X.faces(2):
        row = [0] * len(edges)
        for i in range(3):
            sub = tri[:i] + tri[i + 1 :]
            row[edges.index(sub)] = 1 if i % 2 == 0 else 2
        rows.append(row)
    rank = _gf3_rank(rows)
    z_dim = len(edges) - rank
    b_dim = X.face_count(0) - 1  # kernel of the vertex-level map is constants
    assert z_dim == b_dim == 5


def _gf3_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0])
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % 3), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 if rows[rank][col] % 3 == 1 else 2
        rows[rank] = [(x * inv) % 3 for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % 3:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % 3 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_cosystolic_constants_simplex_sentinels(f2):
    X = single_simplex(3)
    constants = cosystolic_expansion_constants(X, f2)
    for k, entry in constants.per_dim.items():
        assert entry["mu"] is None  # Z = B everywhere on a simplex
        assert entry["epsilon"] > 0
    assert constants.mu is None


def test_cosystolic_constants_torus(f2):
    X = torus_complex()
    constants = cosystolic_expansion_constants(X, f2)
    entry = constants.per_dim[1]
    assert entry["z_size"] == 256 and entry["b_size"] == 64
    assert entry["mu"] == Fraction(2, 7)
    assert entry["skipped"]  # the epsilon ratio scan exceeds the state budget


def test_min_nontrivial_cocycle_weight_matches(f2):
    assert min_nontrivial_cocycle_weight(single_simplex(2), f2, 1) is None
    assert min_nontrivial_cocycle_weight(torus_complex(), f2, 1) == Fraction(2, 7)
    assert min_nontrivial_cocycle_weight(projective_plane_complex(), f2, 1) == Fraction(1, 3)


def test_oracle_constants_invariant_under_relabeling(rng, f2):
    X = complete_complex(4, 2)
    perm = {0: 2, 1: 0, 2: 3, 3: 1}
    relabeled = SimplicialComplex(
        2, [tuple(sorted(perm[v] for v in t)) for t in X.faces(2)]
    )
    for k in (0, 1):
        a = coboundary_expansion_constant(X, f2, k).epsilon
        b = coboundary_expansion_constant(relabeled, f2, k).epsilon
        assert a == b


def test_link_coboundary_beta(f2):
    beta, witness = link_coboundary_beta(single_simplex(3), f2)
    assert beta > 0
    beta_t, _ = link_coboundary_beta(torus_complex(), f2)
    assert beta_t > 0  # hexagon links have positive constants


def test_budget_refusals(f2):
    X = torus_complex()
    small = EnumerationBudget(max_states=100)
    with pytest.raises(BudgetExceededError):
        enumerate_spaces(X, f2, 1, small)
    assert space_size(f2, 21) == 2**21


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "12345")
    assert EnumerationBudget.default().max_states == 12345
    monkeypatch.setenv(BUDGET_ENV_VAR, "0")
    assert EnumerationBudget.default().max_states == 0
    monkeypatch.setenv(BUDGET_ENV_VAR, "")
    assert EnumerationBudget.default().max_states == 2**24
    for junk in ("junk", "lots", "-5", "1e6"):
        monkeypatch.setenv(BUDGET_ENV_VAR, junk)
        with pytest.raises(ParseError, match=BUDGET_ENV_VAR):
            EnumerationBudget.default()


def test_verify_against_oracle_claims(k4_skeleton, f2):
    f = Cochain(k4_skeleton, 1, f2, {(0, 1): 1})
    good = verify_against_oracle(
        {"kind": "is_cocycle", "expected": False}, k4_skeleton, f2, f
    )
    assert good.passed
    bad = verify_against_oracle(
        {"kind": "is_cocycle", "expected": True}, k4_skeleton, f2, f
    )
    assert not bad.passed
    dist = verify_against_oracle(
        {"kind": "distance_to", "space": "Z", "expected": "1/6"}, k4_skeleton, f2, f
    )
    assert dist.passed
    minimal = verify_against_oracle(
        {"kind": "is_minimal", "expected": True}, k4_skeleton, f2, f
    )
    assert minimal.passed
    const = verify_against_oracle(
        {"kind": "coboundary_expansion_constant", "k": 1, "expected": "2/1"},
        single_simplex(2),
        f2,
        None,
    )
    assert not const.passed  # the true constant is 3


def test_enumerate_spaces_dimension_validation(f2):
    with pytest.raises(BadDimensionError):
        enumerate_spaces(single_simplex(2), f2, 5)


def test_cosystolic_refusals_are_per_dimension(k4_skeleton, f2):
    # C^0 has 16 states and fits; C^1 has 64 and is refused on its own, so
    # dimension 0 keeps its constant instead of being dropped with dimension 1.
    constants = cosystolic_expansion_constants(k4_skeleton, f2, EnumerationBudget(max_states=32))
    zero, one = constants.per_dim[0], constants.per_dim[1]
    assert zero["epsilon"] == Fraction(4, 3) and zero["skipped"] is None
    assert one["epsilon"] is None
    assert "C^1 scan needs 64 states" in one["skipped"]


@pytest.mark.parametrize("spec", ["Z2", "Z3", "S3"])
def test_top_dimension_cocycles_are_every_vector_in_order(k4_skeleton, spec):
    G = group_from_spec(spec)
    spaces = enumerate_spaces(k4_skeleton, G, 2)
    assert spaces.cocycle_values() == list(product(range(G.order), repeat=4))


def _brute_force_first_minimizer(X, G, k):
    """First minimum of ||df|| / dist(f, B^k) over f outside B^k, by product loops."""
    faces = X.faces(k)

    def cochain(vec, dim, dim_faces):
        return Cochain(X, dim, G, {f: v for f, v in zip(dim_faces, vec) if v})

    if k == 0:
        b_vecs = {(c,) * len(faces) for c in range(G.order)}
    else:
        lower = X.faces(k - 1)
        b_vecs = set()
        for vec in product(range(G.order), repeat=len(lower)):
            delta = coboundary_abelian(cochain(vec, k - 1, lower))
            b_vecs.add(tuple(delta.value(f) for f in faces))
    best = best_vec = None
    for vec in product(range(G.order), repeat=len(faces)):
        if vec in b_vecs:
            continue
        norm = coboundary_abelian(cochain(vec, k, faces)).weight()
        dist = min(
            sum(X.face_weight(f) for f, a, b in zip(faces, vec, bvec) if a != b)
            for bvec in b_vecs
        )
        if best is None or norm / dist < best:
            best, best_vec = norm / dist, vec
    return best, best_vec


@pytest.mark.parametrize("spec", ["Z2", "Z3"])
@pytest.mark.parametrize("k", [0, 1])
def test_coboundary_constant_witness_is_first_minimizer(k4_skeleton, spec, k):
    G = group_from_spec(spec)
    const = coboundary_expansion_constant(k4_skeleton, G, k)
    best, best_vec = _brute_force_first_minimizer(k4_skeleton, G, k)
    assert const.epsilon == best
    assert tuple(const.witness.value(f) for f in k4_skeleton.faces(k)) == best_vec


@pytest.mark.parametrize("spec", ["Z2", "Z3"])
def test_distance_of_minus_one_cochain_to_cocycles(k4_skeleton, spec):
    # d of the constant (-1)-cochain c is c on every vertex, so only 0 is a
    # (-1)-cocycle and c != 0 lies at distance P_{-1}(()) = 1 from it.
    G = group_from_spec(spec)
    f = Cochain(k4_skeleton, -1, G, {(): 1})
    dist, witness = exact_distance(f, "Z")
    assert dist == 1 and witness.values == {}


def test_support_search_keeps_its_refusals(k4_skeleton, f2, s3):
    # No coboundary leaves the top dimension, and the multiplicative one
    # stops at dimension 1; the support search refuses both like is_cocycle.
    with pytest.raises(BadDimensionError):
        min_nontrivial_cocycle_weight(k4_skeleton, f2, 2)
    with pytest.raises(UndefinedCoboundaryError):
        min_nontrivial_cocycle_weight(complete_complex(4, 3), s3, 2)


def test_oracle_does_not_call_the_fast_coboundary(monkeypatch):
    def refuse(self):
        raise AssertionError("the oracle called Cochain.coboundary")

    monkeypatch.setattr(Cochain, "coboundary", refuse)
    z2, z3, s3 = (group_from_spec(s) for s in ("Z2", "Z3", "S3"))
    k4, rp2 = complete_complex(4, 2), projective_plane_complex()
    assert min_nontrivial_cocycle_weight(rp2, z2, 1) == Fraction(1, 3)
    assert min_nontrivial_cocycle_weight(torus_complex(), z2, 1) == Fraction(2, 7)
    assert min_nontrivial_cocycle_weight(k4, z3, 1) is None
    assert min_nontrivial_cocycle_weight(k4, s3, 1) is None
    spaces = enumerate_spaces(k4, z3, 1)
    assert (spaces.c_count, len(spaces.cocycles), len(spaces.coboundaries)) == (729, 27, 27)
    spaces = enumerate_spaces(single_simplex(2), s3, 0)
    assert (spaces.c_count, len(spaces.cocycles), len(spaces.coboundaries)) == (216, 6, 6)
    assert coboundary_expansion_constant(k4, s3, 0).epsilon == Fraction(4, 3)
    assert coboundary_expansion_constant(k4, z3, 1).epsilon == Fraction(9, 4)
    assert coboundary_expansion_constant(rp2, z2, 1).epsilon == 0
    per_dim = cosystolic_expansion_constants(k4, z3).per_dim
    assert [(e["epsilon"], e["mu"], e["z_size"], e["b_size"]) for e in per_dim.values()] == [
        (Fraction(4, 3), None, 3, 3),
        (Fraction(9, 4), None, 27, 27),
    ]
