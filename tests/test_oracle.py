import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from hdx.cochains import Cochain, coboundary_abelian, random_cochain
from hdx.complexes import SimplicialComplex
from hdx.errors import BadDimensionError, BudgetExceededError, ParseError, UndefinedCoboundaryError
from hdx.groups import group_from_spec
from hdx.instances import (
    bundled_instances,
    complete_complex,
    glued_simplices,
    projective_plane_complex,
    single_simplex,
    torus_complex,
)
from hdx.oracle import (
    _BLOCK_STATES,
    BUDGET_ENV_VAR,
    EnumerationBudget,
    _min_ratio_scan,
    _Scan,
    coboundary_expansion_constant,
    coboundary_list,
    cocycle_list,
    cosystolic_expansion_constants,
    enumerate_spaces,
    exact_distance,
    link_coboundary_beta,
    min_nontrivial_cocycle_weight,
    space_size,
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
    for row in spaces.cocycles.tolist():
        assert len(set(row)) == 1
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
            z = set(map(tuple, spaces.cocycles.tolist()))
            b = set(map(tuple, spaces.coboundaries.tolist()))
            assert b <= z
            assert len(z) % len(b) == 0  # subgroup index is integral


def test_abelian_spaces_closed_under_addition(rng, f2):
    X = complete_complex(4, 2)
    spaces = enumerate_spaces(X, f2, 1)
    for pool in (spaces.cocycles, spaces.coboundaries):
        members = set(map(tuple, pool.tolist()))
        for a in pool[:6]:
            for b in pool[:6]:
                assert tuple(((a + b) % 2).tolist()) in members


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
    # A count with more digits than str() prints, as Z_m with a 3000-digit m gives.
    with pytest.raises(BudgetExceededError, match=r"more than 2\^20000 states"):
        small.ensure(2**20000, "scan")


def test_budget_env_override(monkeypatch, one_second):
    monkeypatch.setenv(BUDGET_ENV_VAR, "12345")
    assert EnumerationBudget.default().max_states == 12345
    monkeypatch.setenv(BUDGET_ENV_VAR, "0")
    assert EnumerationBudget.default().max_states == 0
    monkeypatch.setenv(BUDGET_ENV_VAR, "")
    assert EnumerationBudget.default().max_states == 2**24
    # The last value has more digits than int() converts by default.
    for junk in ("junk", "lots", "-5", "1e6", "9" * 5000):
        monkeypatch.setenv(BUDGET_ENV_VAR, junk)
        with one_second(), pytest.raises(ParseError, match=BUDGET_ENV_VAR):
            EnumerationBudget.default()


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
    assert spaces.cocycles.tolist() == [list(v) for v in product(range(G.order), repeat=4)]


def _coboundary_vector(X, G, k, vec):
    """df on X(k+1), as a value vector, for the value vector vec on X(k)."""
    f = Cochain(X, k, G, {face: v for face, v in zip(X.faces(k), vec) if v})
    df = f.coboundary()
    return tuple(df.value(face) for face in X.faces(k + 1))


def _pair_scan_first_minimizer(X, G, k, space):
    """First minimum of ||df|| / dist(f, pool) over f outside pool, by product loops.

    pool is B^k (space "B") or Z^k (space "Z"), both enumerated here; every f
    is measured against every pool vector, in lexicographic order of f.
    Returns (ratio, vector of f, pool); (None, None, pool) when pool is all
    of C^k.
    """
    faces, above = X.faces(k), X.faces(k + 1)
    states = list(product(range(G.order), repeat=len(faces)))
    deltas = [_coboundary_vector(X, G, k, vec) for vec in states]
    if space == "Z":
        pool = [vec for vec, d in zip(states, deltas) if not any(d)]
    elif k == 0:
        pool = [(c,) * len(faces) for c in range(G.order)]
    else:
        lower = product(range(G.order), repeat=len(X.faces(k - 1)))
        pool = sorted({_coboundary_vector(X, G, k - 1, vec) for vec in lower})
    pool_set = set(pool)
    pool_arr = np.array(pool)
    nums = np.array([X.weight_numerator(f) for f in faces])
    best = best_vec = None
    for vec, d in zip(states, deltas):
        if vec in pool_set:
            continue
        norm = sum(X.face_weight(up) for up, v in zip(above, d) if v)
        dist = Fraction(int(((pool_arr != vec) @ nums).min()), X.weight_denominator(k))
        if best is None or norm / dist < best:
            best, best_vec = norm / dist, vec
    return best, best_vec, pool


def _vector(f, k):
    return tuple(f.value(face) for face in f.complex.faces(k))


def _weighted_k4():
    tops = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    weights = dict(zip(tops, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))))
    return SimplicialComplex(2, tops, weights)


_COMPLEXES = {
    "k4": lambda: complete_complex(4, 2),
    "k5": lambda: complete_complex(5, 2),
    "triangle": lambda: single_simplex(2),
    "two-triangles": lambda: glued_simplices(2, 2),
    "torus": torus_complex,
    "rp2": projective_plane_complex,
    "weighted-k4": _weighted_k4,
    "weighted-two-triangles": lambda: SimplicialComplex(
        2, [(0, 1, 2), (1, 2, 3)], {(0, 1, 2): Fraction(2, 7), (1, 2, 3): Fraction(5, 7)}
    ),
    # Weight numerators past uint64 (185 bits), so weights are Python ints.
    "huge-weighted-k4": lambda: SimplicialComplex(
        2,
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        {
            (0, 1, 2): Fraction(1, 3**45),
            (0, 1, 3): Fraction(1, 7**40),
            (0, 2, 3): Fraction(1, 2),
            (1, 2, 3): Fraction(1, 2) - Fraction(1, 3**45) - Fraction(1, 7**40),
        },
    ),
    # Disconnected: Z^0 is the locally constant maps, larger than B^0.
    "two-edges": lambda: SimplicialComplex(1, [(0, 1), (2, 3)]),
    "path-and-edge": lambda: SimplicialComplex(1, [(0, 1), (1, 2), (3, 4)]),
}


# The odometer's block size, and an odd one at which scans end mid-block and
# minima and first preimages straddle blocks.
_BLOCKS = (_BLOCK_STATES, 7)


def _check_coboundary_constant(monkeypatch, X, G, k):
    best, best_vec, pool = _pair_scan_first_minimizer(X, G, k, "B")
    for block in _BLOCKS:
        monkeypatch.setattr("hdx.oracle._BLOCK_STATES", block)
        const = coboundary_expansion_constant(X, G, k)
        assert const.epsilon == best
        # When Z^k != B^k (best == 0) the first minimizer of the pair scan is
        # the lexicographically first cocycle outside B^k.
        assert _vector(const.witness, k) == best_vec


@pytest.mark.parametrize("spec", ["Z2", "Z3"])
@pytest.mark.parametrize("k", [0, 1])
def test_coboundary_constant_witness_is_first_minimizer(monkeypatch, k4_skeleton, spec, k):
    _check_coboundary_constant(monkeypatch, k4_skeleton, group_from_spec(spec), k)


@pytest.mark.parametrize(
    "name, spec, k",
    [("k4", spec, k) for spec in ("Z4", "Z2xZ2") for k in (0, 1)]
    + [("k4", "S3", 0), ("k4", "D4", 0), ("k4", "S3", 1)]
    + [("triangle", "S3", 1), ("two-triangles", "S3", 1)]
    + [("two-edges", "S3", 0), ("two-edges", "D4", 0), ("path-and-edge", "S3", 0)]
    + [("weighted-k4", spec, k) for spec in ("Z2", "Z3") for k in (0, 1)]
    + [("weighted-k4", "S3", 0), ("weighted-two-triangles", "Z2", 0)]
    + [("weighted-two-triangles", "S3", 1)]
    + [("huge-weighted-k4", "Z3", 1), ("huge-weighted-k4", "S3", 0)],
)
def test_coboundary_constant_matches_pair_scan(monkeypatch, name, spec, k):
    _check_coboundary_constant(monkeypatch, _COMPLEXES[name](), group_from_spec(spec), k)


@pytest.mark.parametrize(
    "name, spec, k",
    [("torus", "Z2", 0), ("k5", "Z2", 0), ("k5", "Z2", 1), ("k5", "Z3", 0)]
    + [("rp2", "Z2", 0), ("rp2", "Z2", 1), ("rp2", "Z3", 0), ("k4", "Z4", 1)]
    + [("two-edges", "S3", 0), ("two-edges", "D4", 0), ("path-and-edge", "S3", 0)]
    + [("triangle", "S3", 1), ("two-triangles", "S3", 1)]
    + [("weighted-k4", "Z3", 1), ("weighted-k4", "S3", 0)]
    + [("weighted-two-triangles", "Z2", 0), ("weighted-two-triangles", "S3", 1)],
)
def test_cosystolic_ratio_scan_matches_pair_scan(monkeypatch, name, spec, k):
    X, G = _COMPLEXES[name](), group_from_spec(spec)
    best, best_vec, pool = _pair_scan_first_minimizer(X, G, k, "Z")
    budget = EnumerationBudget()
    for block in _BLOCKS:
        monkeypatch.setattr("hdx.oracle._BLOCK_STATES", block)
        assert _min_ratio_scan(X, G, k, pool, budget, "test scan") == (best, best_vec)
        entry = cosystolic_expansion_constants(X, G, budget, dims=[k]).per_dim[k]
        assert entry["epsilon"] == best and entry["z_size"] == len(pool)


@pytest.mark.parametrize(
    "name, spec, k",
    [("k5", "Z2", 0), ("k5", "Z3", 0), ("k4", "Z4", 1), ("weighted-k4", "Z3", 1)]
    + [("two-edges", "D4", 0), ("path-and-edge", "S3", 0), ("weighted-two-triangles", "Z2", 0)]
    + [("huge-weighted-k4", "Z3", 1)],
)
def test_ratio_scan_past_the_fiber_bound_matches_pair_scan(monkeypatch, name, spec, k):
    # With no room for a fiber table the scan measures every state against
    # the pool, as it does for non-abelian k = 1.
    monkeypatch.setattr("hdx.oracle._MAX_FIBERS", 0)
    X, G = _COMPLEXES[name](), group_from_spec(spec)
    best, best_vec, pool = _pair_scan_first_minimizer(X, G, k, "Z")
    for block in _BLOCKS:
        monkeypatch.setattr("hdx.oracle._BLOCK_STATES", block)
        assert _min_ratio_scan(X, G, k, pool, EnumerationBudget(), "test scan") == (best, best_vec)


def test_ratio_scan_past_the_fiber_bound_keeps_no_table(monkeypatch):
    # A path on 14 vertices over Z2 at k = 0 has 2^14 / 2 = 8192 images.
    X = SimplicialComplex(1, [(i, i + 1) for i in range(13)])
    G = group_from_spec("Z2")
    pool = [(0,) * 14, (1,) * 14]

    def traced_scan():
        tracemalloc.start()
        try:
            result = _min_ratio_scan(X, G, 0, pool, EnumerationBudget(), "test scan")
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr("hdx.oracle._MAX_FIBERS", 8192)
    table, table_peak = traced_scan()
    monkeypatch.setattr("hdx.oracle._MAX_FIBERS", 8191)
    pooled, pool_peak = traced_scan()
    assert pooled == table
    assert pool_peak * 4 < table_peak


@pytest.mark.parametrize("name, spec", [("k4", "Z3"), ("two-triangles", "S3")])
def test_enumerated_spaces_match_product_enumeration(monkeypatch, name, spec):
    # Z^k: the vectors whose coboundary vanishes (all of C^k at the top);
    # B^k: the distinct coboundaries of the level below, in increasing order.
    X, G = _COMPLEXES[name](), group_from_spec(spec)
    for k in range(X.dimension + 1):
        vectors = list(product(range(G.order), repeat=X.face_count(k)))
        if k < X.dimension:
            cocycles = [v for v in vectors if not any(_coboundary_vector(X, G, k, v))]
        else:
            cocycles = vectors
        if k == 0:
            images = [(c,) * X.face_count(0) for c in range(G.order)]
        else:
            lower = product(range(G.order), repeat=X.face_count(k - 1))
            images = sorted({_coboundary_vector(X, G, k - 1, v) for v in lower})
        for block in _BLOCKS:
            monkeypatch.setattr("hdx.oracle._BLOCK_STATES", block)
            spaces = enumerate_spaces(X, G, k)
            assert list(map(tuple, spaces.cocycles.tolist())) == cocycles, (k, block)
            assert list(map(tuple, spaces.coboundaries.tolist())) == images, (k, block)


def test_fiber_keys_past_int64():
    # K12^(1) at k = 0 has 66 edges, so a coboundary's code reaches 2^66 and
    # its key takes two int64 words.
    X, G = complete_complex(12, 1), group_from_spec("Z2")
    const = coboundary_expansion_constant(X, G, 0)
    assert const.epsilon == Fraction(12, 11)
    assert const.witness.values == {(v,): 1 for v in range(6, 12)}
    assert cosystolic_expansion_constants(X, G).per_dim[0]["epsilon"] == Fraction(12, 11)
    # Over Z3 the 45 edges of K10 code up to 3^45 > 2^71; the images still
    # come out distinct and in increasing order.
    X = complete_complex(10, 1)
    rows = coboundary_list(X, group_from_spec("Z3"), 1, EnumerationBudget())
    images = list(map(tuple, rows.tolist()))
    assert len(images) == 3**9 and images == sorted(set(images))


def test_coboundary_list_sorts_multi_byte_values():
    # Over Z300 a value takes two bytes; the images of one edge are 0..299 in order.
    X = SimplicialComplex(1, [(0, 1)])
    images = coboundary_list(X, group_from_spec("Z300"), 1, EnumerationBudget())
    assert images.tolist() == [[v] for v in range(300)]


@pytest.mark.parametrize(
    "make, weight, enough",
    [(torus_complex, Fraction(2, 7), 28495), (projective_plane_complex, Fraction(1, 3), 2411)],
)
def test_support_search_budget_boundary(monkeypatch, f2, make, weight, enough):
    # The state count of the support-ordered search, pruning included, is the
    # same at every batch size: one state fewer and the search is refused.
    X = make()
    for block in _BLOCKS:
        monkeypatch.setattr("hdx.oracle._BLOCK_STATES", block)
        assert min_nontrivial_cocycle_weight(X, f2, 1, EnumerationBudget(enough)) == weight
        with pytest.raises(BudgetExceededError, match="support search exceeded the state budget"):
            min_nontrivial_cocycle_weight(X, f2, 1, EnumerationBudget(enough - 1))


def _support_search_reference(X, G, k):
    """(minimum numerator, states) of the support-ordered search, one support
    at a time, with Z^k and B^k from the row lists."""
    z = set(map(tuple, cocycle_list(X, G, k, EnumerationBudget()).tolist()))
    b = set(map(tuple, coboundary_list(X, G, k, EnumerationBudget()).tolist()))
    nums = [X.weight_numerator(face) for face in X.faces(k)]
    m, best, states = len(nums), None, 0
    for size in range(1, m + 1):
        if best is not None and sum(sorted(nums)[:size]) >= best:
            break
        for support in combinations(range(m), size):
            num = sum(nums[i] for i in support)
            if best is not None and num >= best:
                continue
            states += (G.order - 1) ** size
            for values in product(range(1, G.order), repeat=size):
                vec = [0] * m
                for i, value in zip(support, values):
                    vec[i] = value
                if tuple(vec) in z and tuple(vec) not in b:
                    best = num
                    break
    return best, states


def test_support_search_on_object_numerators(monkeypatch, f2):
    # Numerators past uint64 are Python ints in an object array; the batched
    # sums, the pruning and the state count match the one-support reference.
    tops = projective_plane_complex().faces(2)
    tiny = (Fraction(1, 3**45), Fraction(1, 7**40))
    rest = (1 - sum(tiny)) / (len(tops) - 2)
    X = SimplicialComplex(2, tops, dict(zip(tops, tiny + (rest,) * (len(tops) - 2))))
    assert _Scan(X, 1, f2).nums.dtype == object
    best, states = _support_search_reference(X, f2, 1)
    assert best is not None and best > 2**64
    for block in _BLOCKS:
        monkeypatch.setattr("hdx.oracle._BLOCK_STATES", block)
        weight = min_nontrivial_cocycle_weight(X, f2, 1, EnumerationBudget(states))
        assert weight == Fraction(best, X.weight_denominator(1))
        with pytest.raises(BudgetExceededError, match="support search exceeded the state budget"):
            min_nontrivial_cocycle_weight(X, f2, 1, EnumerationBudget(states - 1))


def _all_instances_and_links():
    for name, X in bundled_instances().items():
        yield name, X
        for i in range(X.dimension):
            for sigma in X.faces(i):
                yield f"{name}/{sigma}", X.link(sigma)


def _f2_product_rows(X, k):
    """Every 0/1 vector on X(k) in lexicographic order, and its coboundary.

    Over GF(2) the coboundary on a face is the parity of its facets' values.
    """
    states = np.array(list(product((0, 1), repeat=X.face_count(k))), dtype=np.int64)
    return states, states[:, X.facets(k + 1)].sum(axis=2) % 2


def test_f2_spans_match_product_enumeration():
    # Every k with at most 2^16 vectors to enumerate is checked; the larger
    # ones (torus edges, K6^(3) triangles, K7^(3) edges and triangles) are not.
    # Over Z2 both lists come from GF(2) spans, as sorted value rows.
    budget, z2 = EnumerationBudget(), group_from_spec("Z2")
    checked = 0
    for name, X in _all_instances_and_links():
        for k in range(X.dimension):
            if X.face_count(k) <= 16:
                states, deltas = _f2_product_rows(X, k)
                cocycles = states[~deltas.any(axis=1)]
                images = np.array(sorted(set(map(tuple, deltas.tolist()))))
                assert np.array_equal(cocycle_list(X, z2, k, budget), cocycles), (name, k)
                assert np.array_equal(coboundary_list(X, z2, k + 1, budget), images), (name, k + 1)
                checked += 1
    assert checked > 100


def test_f2_rows_past_64_faces():
    # K12^(2) has 66 edges, so a mask of Z^1 needs more than one int64 word.
    # Z^1 = B^1 there: 2^11 rows, the coboundaries of the 12 vertex values
    # modulo the constants.
    X, z2 = complete_complex(12, 2), group_from_spec("Z2")
    budget = EnumerationBudget(2**70)
    rows = cocycle_list(X, z2, 1, budget)
    assert rows.shape == (2048, 66)
    assert len(np.unique(rows, axis=0)) == 2048
    assert rows.tolist() == sorted(rows.tolist())
    for row in rows.tolist():
        f = Cochain(X, 1, z2, {e: v for e, v in zip(X.faces(1), row) if v})
        assert coboundary_abelian(f).is_zero()
    assert np.array_equal(rows, coboundary_list(X, z2, 1, budget))


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


def test_support_search_refuses_before_scanning_coboundaries(f2, s3):
    # On K7^(3) the B^k scans would need 2^35 (Z2, k = 3) and 6^21 states
    # (S3, k = 2); the dimension refusals come first.
    X = complete_complex(7, 3)
    with pytest.raises(BadDimensionError):
        min_nontrivial_cocycle_weight(X, f2, 3)
    with pytest.raises(UndefinedCoboundaryError):
        min_nontrivial_cocycle_weight(X, s3, 2)


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
