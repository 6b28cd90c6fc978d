import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import hdx.oracle
from hdx.cli import main
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
    _combination_blocks,
    _min_ratio_scan,
    _Scan,
    coboundary_expansion_constant,
    coboundary_list,
    cocycle_list,
    cosystolic_expansion_constants,
    enumerate_spaces,
    exact_distance,
    link_coboundary_beta,
    link_constants,
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
    # Past 64 faces the one state is still one block of one row.
    spaces = enumerate_spaces(complete_complex(12, 2), G, 1)
    assert spaces.cocycles.tolist() == spaces.coboundaries.tolist() == [[0] * 66]


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
    return tuple(df.row.tolist())


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
    return tuple(f.row.tolist())


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
    "two-components": lambda: SimplicialComplex(2, [(0, 1, 2), (3, 4, 5)]),
    "k5-3": lambda: complete_complex(5, 3),
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


_COSYSTOLIC_CASES = (
    [("torus", "Z2", 0), ("k5", "Z2", 0), ("k5", "Z2", 1), ("k5", "Z3", 0)]
    + [("rp2", "Z2", 0), ("rp2", "Z2", 1), ("rp2", "Z3", 0), ("k4", "Z4", 1)]
    + [("two-edges", "S3", 0), ("two-edges", "D4", 0), ("path-and-edge", "S3", 0)]
    + [("triangle", "S3", 1), ("two-triangles", "S3", 1)]
    + [("weighted-k4", "Z3", 1), ("weighted-k4", "S3", 0)]
    + [("weighted-two-triangles", "Z2", 0), ("weighted-two-triangles", "S3", 1)]
)


@pytest.mark.parametrize("name, spec, k", _COSYSTOLIC_CASES)
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


def _path(n):
    """The path on n vertices; over Z2 at k = 0 its ratio scan has 2^(n-1) images."""
    return SimplicialComplex(1, [(i, i + 1) for i in range(n - 1)])


def test_ratio_scan_past_the_fiber_bound_keeps_no_table(monkeypatch):
    # A path on 14 vertices over Z2 at k = 0 has 2^14 / 2 = 8192 images: the
    # table is built at a bound of 8192 fibers and not at 8191, and both
    # scans find the same ratio and witness.
    X, G = _path(14), group_from_spec("Z2")
    pool = [(0,) * 14, (1,) * 14]
    built = []
    build_table = hdx.oracle._fiber_table
    monkeypatch.setattr("hdx.oracle._fiber_table", lambda *a: built.append(a) or build_table(*a))
    monkeypatch.setattr("hdx.oracle._MAX_FIBERS", 8192)
    table = _min_ratio_scan(X, G, 0, pool, EnumerationBudget(), "test scan")
    assert len(built) == 1
    monkeypatch.setattr("hdx.oracle._MAX_FIBERS", 8191)
    assert _min_ratio_scan(X, G, 0, pool, EnumerationBudget(), "test scan") == table
    assert len(built) == 1


def test_ratio_scan_past_the_fiber_bound_holds_less_memory(monkeypatch):
    # On the path on 16 vertices the table has 2^15 entries, and it dominates
    # the scan's peak: one bound lower, the pool scan holds a block at a time.
    X, G = _path(16), group_from_spec("Z2")
    pool = [(0,) * 16, (1,) * 16]

    def traced_scan():
        tracemalloc.start()
        try:
            result = _min_ratio_scan(X, G, 0, pool, EnumerationBudget(), "test scan")
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr("hdx.oracle._MAX_FIBERS", 2**15)
    table, table_peak = traced_scan()
    monkeypatch.setattr("hdx.oracle._MAX_FIBERS", 2**15 - 1)
    pooled, pool_peak = traced_scan()
    assert pooled == table
    assert pool_peak * 4 < table_peak


@pytest.mark.parametrize(
    "name, spec, k",
    [
        (name, spec, 0)
        for name in ("k4", "k5", "rp2", "torus", "two-edges", "path-and-edge")
        for spec in ("Z2", "S3", "D4")
    ]
    + [(name, "Z2", 1) for name in ("k4", "k5", "rp2", "torus")]
    + [("k5-3", "Z2", k) for k in (1, 2)]
    # Integer generating faces; Z6 only on k4, as 6^10 states pass the budget.
    + [(name, spec, 1) for name in ("k4", "k5", "k5-3") for spec in ("Z3", "Z4", "Z2xZ2")]
    + [("k5-3", spec, 2) for spec in ("Z3", "Z4", "Z2xZ2")]
    + [("k4", "Z6", 1)],
)
def test_fiber_faces_index_the_coboundaries_one_to_one(name, spec, k):
    # B^{k+1} restricted to S is all of G^S, each value once: a syndrome is
    # one fiber of d, and on these torsion-free complexes every syndrome is
    # some df's.
    X, G = _COMPLEXES[name](), group_from_spec(spec)
    faces = hdx.oracle._fiber_faces(_Scan(X, k, G))
    assert faces == sorted(set(faces))
    images = coboundary_list(X, G, k + 1, EnumerationBudget())
    syndromes = set(map(tuple, images[:, faces].tolist()))
    assert len(syndromes) == len(images) == G.order ** len(faces)


def _merged_images(X, G, k, cols, values):
    """How many of the distinct df of 4000 seeded random k-cochains, with
    values drawn from values, share df on cols with another."""
    rng = random.Random(0)
    m = X.face_count(k)
    images = {_coboundary_vector(X, G, k, [rng.choice(values) for _ in range(m)]) for _ in range(4000)}
    return len(images) - len({tuple(df[c] for c in cols) for df in images})


def test_integer_fiber_faces_see_the_torsion_that_gf2_pivots_miss():
    # H^2(RP^2; Z) = Z2: the GF(2) pivots are nine of the ten triangles, and
    # over Z4 distinct df can agree on those nine; the integer set is all ten
    # triangles, on which distinct df never agree.
    X, G = projective_plane_complex(), group_from_spec("Z4")
    faces = hdx.oracle._fiber_faces(_Scan(X, 1, G))
    pivots = hdx.oracle._fiber_faces(_Scan(X, 1, group_from_spec("Z2")))
    assert faces == list(range(10)) and len(pivots) == 9
    assert _merged_images(X, G, 1, pivots, range(4)) > 0
    assert _merged_images(X, G, 1, faces, range(4)) == 0


def test_integer_fiber_faces_keep_a_row_that_only_euclid_adds():
    # RP^2 with a cone over one of its non-face triangles, relabeled so the
    # cone's three triangles come last: its one 2-cycle covers the cone
    # twice, so twice the last row is in the lattice of the rows before it,
    # the row itself is not, and only the extended-gcd step keeps it.  Over
    # Z4, distinct df agree on the twelve faces before it: df = 2 dg for a
    # 0/1 cochain g, and the last row is outside the GF(2) span of the rest.
    swap = {0: 3, 1: 4, 2: 5, 3: 0, 4: 1, 5: 2}
    tops = [tuple(sorted(swap[v] for v in t)) for t in projective_plane_complex().faces(2)]
    X = SimplicialComplex(2, tops + [(3, 4, 6), (3, 5, 6), (4, 5, 6)])
    G = group_from_spec("Z4")
    faces = hdx.oracle._fiber_faces(_Scan(X, 1, G))
    assert faces == list(range(13))
    assert _merged_images(X, G, 1, faces[:-1], (0, 2)) > 0
    assert _merged_images(X, G, 1, faces, (0, 2)) == _merged_images(X, G, 1, faces, range(4)) == 0


def _every_face(scan):
    """Every (k+1)-face as a syndrome set: one-to-one, and onto only where d is."""
    return list(range(len(scan.roles)))


@pytest.mark.parametrize("name, spec, k", _COSYSTOLIC_CASES)
def test_every_face_fiber_table_matches_the_pair_scan(monkeypatch, name, spec, k):
    # With every (k+1)-face as the syndrome set most syndromes are no df's;
    # they are dropped, and the table finds the pair scan's first minimizer
    # at every block size.  Cases with more than _MAX_FIBERS syndromes (the
    # torus over Z2 and RP^2 over Z3 at k = 0) take the pool scan.
    X, G = _COMPLEXES[name](), group_from_spec(spec)
    best, best_vec, pool = _pair_scan_first_minimizer(X, G, k, "Z")
    monkeypatch.setattr("hdx.oracle._fiber_faces", _every_face)
    for block in _BLOCKS:
        monkeypatch.setattr("hdx.oracle._BLOCK_STATES", block)
        assert _min_ratio_scan(X, G, k, pool, EnumerationBudget(), "test scan") == (best, best_vec)


@pytest.mark.parametrize("spec", ["Z3", "Z4", "Z2xZ2", "S3"])
def test_every_face_coboundary_list_is_the_product_enumeration(monkeypatch, spec):
    # B^1 and B^2 of K4^(2) read from tables with unhit syndromes: the same
    # rows, in the same order, as the distinct product images.
    X, G = _COMPLEXES["k4"](), group_from_spec(spec)
    monkeypatch.setattr("hdx.oracle._fiber_faces", _every_face)
    for k in (1, 2):
        lower = product(range(G.order), repeat=X.face_count(k - 1))
        images = sorted({_coboundary_vector(X, G, k - 1, v) for v in lower})
        for block in _BLOCKS:
            monkeypatch.setattr("hdx.oracle._BLOCK_STATES", block)
            rows = coboundary_list(X, G, k, EnumerationBudget())
            assert list(map(tuple, rows.tolist())) == images, (k, block)


@pytest.mark.parametrize("spec", ["Z1", "Z3", "S3", "D4"])
@pytest.mark.parametrize("name", ["k4", "two-edges", "path-and-edge", "two-triangles", "two-components"])
def test_zero_cocycles_from_components_match_the_filtered_scan(name, spec):
    # Z^0, listed as the locally constant rows, is the C^0 scan's cocycles:
    # the same rows, in the same order, of the same dtype.
    X, G = _COMPLEXES[name](), group_from_spec(spec)
    scan = _Scan(X, 0, G)
    blocks = scan.blocks(EnumerationBudget(), "test scan")
    scanned = np.concatenate([digits[~delta.any(axis=1)] for _s, digits, delta, _w in blocks])
    listed = cocycle_list(X, G, 0, EnumerationBudget())
    assert listed.dtype == scanned.dtype and np.array_equal(listed, scanned)


def test_zero_cocycle_listing_keeps_its_charge(monkeypatch, s3):
    # Z^0 of two triangles over S3 is charged as the 6^6-state scan of C^0.
    X = _COMPLEXES["two-components"]()
    f = Cochain(X, 0, s3, {(0,): 1})
    monkeypatch.setenv(BUDGET_ENV_VAR, str(6**6 - 1))
    refusal = "Z^0 scan needs 46656 states, over the budget of 46655"
    with pytest.raises(BudgetExceededError) as caught:
        exact_distance(f, "Z")
    assert str(caught.value) == refusal
    with pytest.raises(BudgetExceededError) as caught:
        cocycle_list(X, s3, 0, EnumerationBudget.default())
    assert str(caught.value) == refusal
    monkeypatch.setenv(BUDGET_ENV_VAR, str(6**6))
    assert exact_distance(f, "Z") == (Fraction(1, 6), Cochain(X, 0, s3, {}))


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


@pytest.mark.parametrize(
    "name, spec, k",
    [("k4", spec, k) for spec in ("Z3", "Z2xZ2") for k in (0, 1, 2)]
    + [("k4", "S3", 0), ("triangle", "S3", 1), ("triangle", "Z17", 0), ("weighted-k4", "Z3", 1)],
)
@pytest.mark.parametrize("block", [_BLOCK_STATES, 7, 1])
def test_block_stream_is_the_product_enumeration(monkeypatch, name, spec, k, block):
    # Blocks of whole prefixes with every suffix concatenate to C^k in
    # lexicographic order, with each state's coboundary and weight numerator:
    # the whole space in one block (4^4 <= 2^10), one state a block, a suffix
    # of one face for g > 7 (Z17), and the op chain for non-abelian S3.
    X, G = _COMPLEXES[name](), group_from_spec(spec)
    monkeypatch.setattr("hdx.oracle._BLOCK_STATES", block)
    states = list(product(range(G.order), repeat=X.face_count(k)))
    nums = [X.weight_numerator(face) for face in X.faces(k)]
    tracked = k < X.dimension
    seen = 0
    for start, digits, delta, weights in _Scan(X, k, G).blocks(EnumerationBudget(), "test scan"):
        assert start == seen and 1 <= len(digits) <= block
        assert len(digits) == len(delta) == len(weights)
        rows = states[start : start + len(digits)]
        assert list(map(tuple, digits.tolist())) == rows
        expected = [_coboundary_vector(X, G, k, row) for row in rows] if tracked else [()] * len(rows)
        assert list(map(tuple, delta.tolist())) == expected
        assert weights.tolist() == [sum(n for n, v in zip(nums, row) if v) for row in rows]
        seen += len(digits)
    assert seen == len(states)


def _roles_reference(X, k, tracked):
    """The oracle's former incidence: each (k+1)-face's k-faces, position i
    dropped, looked up by tuple; no rows where nothing is tracked."""
    index = X.face_index(k)
    above = X.faces(k + 1) if tracked else ()
    return [[index[f[:i] + f[i + 1 :]] for i in range(k + 2)] for f in above]


@pytest.mark.parametrize("name", sorted(bundled_instances()))
@pytest.mark.parametrize("spec", ["Z2", "S3"])
def test_scan_roles_are_the_tuple_lookup_incidence(name, spec):
    # The scan reads X.facets(k + 1); it is the table the oracle once built
    # from face tuples, on every bundled instance and each proper link, and
    # empty at the top dimension and, for S3, above k = 1.
    X, G = bundled_instances()[name], group_from_spec(spec)
    complexes = [X] + [X.link(sigma) for j in range(X.dimension) for sigma in X.faces(j)]
    for Y in complexes:
        for k in range(-1, Y.dimension + 1):
            tracked = k < Y.dimension and (G.is_abelian or k <= 1)
            roles = _Scan(Y, k, G).roles
            assert roles.shape == (Y.face_count(k + 1) if tracked else 0, k + 2)
            assert roles.tolist() == _roles_reference(Y, k, tracked)


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
    # At the top dimension the 300 states fit one block with no prefix faces.
    assert np.array_equal(cocycle_list(X, group_from_spec("Z300"), 1, EnumerationBudget()), images)


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


@pytest.mark.parametrize(
    "m, size, rows",
    [
        (21, 6, 1024),
        (10, 3, 7),
        (12, 5, 1),  # one row per block
        (7, 3, 100),  # more rows than C(7, 3)
        (6, 1, 4),  # size 1
        (8, 8, 3),  # size m
        (30, 4, 4096),
        (5, 0, 3),
        (3, 5, 2),  # no rows
    ],
)
def test_combination_blocks_match_itertools(m, size, rows):
    blocks = list(_combination_blocks(m, size, rows))
    assert all(block.dtype == np.intp and block.shape[1] == size for block in blocks)
    assert [tuple(row) for block in blocks for row in block.tolist()] == list(combinations(range(m), size))
    assert all(1 <= len(block) <= rows for block in blocks)
    assert max(map(len, blocks), default=0) == min(rows, math.comb(m, size))


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


# -- link constants: one scan per order-preserving link shape --------------------------


def _per_link(X, G, budget, sigmas):
    """Each sigma's link constants as one scan per (sigma, k) gives them, a
    refusal as its message, one sigma at a time."""
    for sigma in sigmas:
        lk = X.link(sigma)
        row = []
        for k in range(lk.dimension if G.is_abelian else min(lk.dimension, 2)):
            try:
                const = coboundary_expansion_constant(lk, G, k, budget)
            except BudgetExceededError as exc:
                row.append(str(exc))
                continue
            row.append(None if const.vacuous else const.epsilon)
        yield tuple(row)


def _shared(X, G, budget, sigmas):
    return tuple(
        tuple(str(c) if isinstance(c, BudgetExceededError) else c for c in row)
        for row in link_constants(X, G, budget, sigmas)
    )


@pytest.fixture
def scans(monkeypatch):
    """The links that link_constants scans, one entry per call of
    coboundary_expansion_constant."""
    seen = []
    real = hdx.oracle.coboundary_expansion_constant

    def counted(X, G, k, budget=None):
        seen.append((X, k))
        return real(X, G, k, budget)

    monkeypatch.setattr(hdx.oracle, "coboundary_expansion_constant", counted)
    return seen


def _vertex_links(X):
    return [(v,) for v in X.vertices()]


def _weighted_k5():
    """K5^(2) with top weights 1 + sum(t) % 3: every vertex link is K4 on
    ranks 0..3, with different weights."""
    tops = list(combinations(range(5), 3))
    raw = {t: 1 + sum(t) % 3 for t in tops}
    return SimplicialComplex(2, tops, {t: Fraction(r, sum(raw.values())) for t, r in raw.items()})


def test_links_with_other_weights_do_not_share_a_scan(f2, s3, scans):
    X = _weighted_k5()
    sigmas = _vertex_links(X)
    for G in (f2, s3):
        reference = tuple(_per_link(X, G, EnumerationBudget(), sigmas))
        # The same renamed tops carry different constants, so a key without weights would show.
        assert len({row for row in reference}) > 1
        assert _shared(X, G, EnumerationBudget(), sigmas) == reference
    assert len(scans) == 2 * len(sigmas)


def test_isomorphic_links_under_other_orders_stay_separate(f2, scans):
    torus = torus_complex()
    perm = list(range(7))
    random.Random(3).shuffle(perm)
    X = SimplicialComplex(2, [tuple(sorted(perm[v] for v in t)) for t in torus.faces(2)])
    sigmas = _vertex_links(X)
    shapes = set()
    for sigma in sigmas:
        lk = X.link(sigma)
        names = sorted(lk.vertices())
        shapes.add(tuple(tuple(names.index(v) for v in top) for top in lk.faces(1)))
    # Every vertex link is a 6-cycle, but not the same one under the renaming that keeps order.
    assert 1 < len(shapes)
    assert _shared(X, f2, EnumerationBudget(), sigmas) == tuple(_per_link(X, f2, EnumerationBudget(), sigmas))
    assert len(scans) == len(shapes)


def test_link_constants_with_python_int_numerators(f2, z3):
    # Top weights over a shared denominator past 2^63, so some links hold Python-int rows.
    N = 2**64 + 1
    X = SimplicialComplex(
        2,
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        {(0, 1, 2): Fraction(1, N), (0, 1, 3): Fraction(2, N), (0, 2, 3): Fraction(3, N), (1, 2, 3): Fraction(N - 6, N)},
    )
    sigmas = _vertex_links(X)
    assert any(X.link(sigma).weight_numerators(1).dtype == object for sigma in sigmas)
    for G in (f2, z3):
        assert _shared(X, G, EnumerationBudget(), sigmas) == tuple(_per_link(X, G, EnumerationBudget(), sigmas))


def test_a_refused_shape_is_skipped_at_every_link(tmp_path, capsys, monkeypatch, f2, scans):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    X = complete_complex(6, 3)
    path = tmp_path / "k6.txt"
    path.write_text(X.to_text())
    # 2^10 states for C^1 of a vertex link K5^(2): refused; C^0 and the edge links fit.
    assert main(["analyze", str(path), "--budget", "500", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    sigmas = [f for k in (0, 1) for f in X.faces(k)]
    reference = _per_link(X, f2, EnumerationBudget(500), sigmas)
    got = [report["links"][" ".join(map(str, sigma))]["coboundary_expansion"] for sigma in sigmas]
    assert [{str(k): "skipped" if isinstance(c, str) else c for k, c in enumerate(row)} for row in reference] == [
        {k: c if c == "skipped" or c is None else Fraction(c) for k, c in entry.items()} for entry in got
    ]
    assert all(entry["1"] == "skipped" for entry in got[:6])
    assert len(scans) == 3


def test_link_coboundary_beta_matches_the_per_link_loop(f2, s3, monkeypatch):
    def per_link_beta(X, G, budget):
        sigmas = [sigma for i in range(X.dimension) for sigma in X.faces(i)]
        best = witness = None
        for sigma, row in zip(sigmas, _per_link(X, G, budget, sigmas)):
            for c in row:
                if isinstance(c, str):
                    raise BudgetExceededError(c)
                if c is not None and (best is None or c < best):
                    best, witness = c, sigma
        return best, witness

    def outcome(beta, X, G):
        try:
            return beta(X, G, EnumerationBudget())
        except BudgetExceededError as exc:
            return str(exc)

    instances = bundled_instances()
    for name in ("tetrahedron", "complete-3-6", "torus-7", "projective-plane-6", "glued-tetrahedra"):
        for G in (f2, s3):
            X = instances[name]
            assert outcome(link_coboundary_beta, X, G) == outcome(per_link_beta, X, G), (name, G.spec)
    assert link_coboundary_beta(_weighted_k5(), f2) == per_link_beta(_weighted_k5(), f2, EnumerationBudget())

    # Vertex 0's link is one edge and fits; vertex 1's needs 2^5 states and is the first refused.
    X = SimplicialComplex(2, [(0, 1, 2)] + list(combinations(range(1, 6), 3)))
    asked = []
    real_link = SimplicialComplex.link

    def logged(self, sigma):
        asked.append(tuple(sigma))
        return real_link(self, sigma)

    monkeypatch.setattr(SimplicialComplex, "link", logged)
    small = EnumerationBudget(20)
    with pytest.raises(BudgetExceededError) as want:
        per_link_beta(X, f2, small)
    where, asked[:] = asked[-1], []
    with pytest.raises(BudgetExceededError) as got:
        link_coboundary_beta(X, f2, small)
    assert str(got.value) == str(want.value)
    assert asked[-1] == where == (1,)


@pytest.mark.parametrize("n", [6, 7])
def test_analyze_scans_each_link_shape_of_a_complete_complex_once(tmp_path, capsys, monkeypatch, scans, n):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    path = tmp_path / "complex.txt"
    path.write_text(complete_complex(n, 3).to_text())
    assert main(["analyze", str(path), "--format", "json"]) == 0
    # Vertex links K_(n-1)^(2) in k = 0, 1 and edge links K_(n-2)^(1) in k = 0; one scan per (sigma, k) is 27 or 35.
    assert [(X.dimension, k) for X, k in scans] == [(2, 0), (2, 1), (1, 0)]
