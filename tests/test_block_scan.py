"""The correction layer's block scan against a brute-force product() reference."""

import random
import tracemalloc
from fractions import Fraction
from functools import cache, partial
from itertools import product

import numpy as np
import pytest

from hdx import correction
from hdx.cochains import (
    DELTA0_TERMS,
    Cochain,
    additive_terms,
    coboundary_abelian,
    coboundary_nonabelian_1,
    perm_parity,
    random_cochain,
)
from hdx.complexes import SimplicialComplex
from hdx.correction import (
    _scan_first_min,
    _triangles_at,
    is_minimal,
    one_step_abelian,
    one_step_nonabelian,
)
from hdx.errors import AlreadyLocallyMinimalError
from hdx.groups import TableGroup, group_from_spec
from hdx.instances import complete_complex
from hdx.oracle import EnumerationBudget

ABELIAN = ("Z2", "Z3", "Z4", "Z2xZ2")
NONABELIAN = ("S3", "D4")


class Tabulated:
    """A group's scalar product and inverse read from its Cayley table and
    inverse list, built from G.op and G.inv: the references below call them
    millions of times."""

    def __init__(self, G):
        self.order = G.order
        self.table = [[G.op(a, b) for b in range(G.order)] for a in range(G.order)]
        self.inverse = [G.inv(a) for a in range(G.order)]

    def op(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def signed(self, a, sign):
        return a if sign >= 0 else self.inverse[a]


@cache
def tabulated(G):
    """G's Tabulated, built once per group."""
    return Tabulated(G)


def first_min(G, n, weight_of, moved_of=lambda x: 0):
    """(weight, x) of the x with the least weight; among those, the least
    moved_of(x), then the first in product() order."""
    best = None
    for x in product(range(G.order), repeat=n):
        key = (weight_of(x), moved_of(x))
        if best is None or key < best[0]:
            best = (key, x)
    return best[0][0], best[1]


def moved_at(X, v, lower):
    """The numerators of the faces v + tau, tau in lower, that x rewrites."""
    nums = [X.weight_numerator(tuple(sorted((v,) + tau))) for tau in lower]
    return lambda x: sum(num for num, a in zip(nums, x) if a)


def alternating_shift(G, face, g, even_sign):
    """The group element sum_i (-1)^i even_sign g(face minus its i-th vertex)."""
    acc = 0
    for i in range(len(face)):
        sign = even_sign if i % 2 == 0 else -even_sign
        acc = G.op(acc, G.signed(g[face[:i] + face[i + 1 :]], sign))
    return acc


def brute_link_abelian(h, v):
    X, G, j = h.complex, tabulated(h.group), h.dimension
    link = X.link((v,))
    hv = h.localize((v,))
    if hv.is_zero():
        return None
    lower, faces = link.faces(j - 2), link.faces(j - 1)
    star = {face: X.weight_numerator(tuple(sorted((v,) + face))) for face in faces}
    values = dict(hv.values)
    old = sum(star[face] for face in values)

    def weight_of(x):
        g = dict(zip(lower, x))
        return sum(
            star[face]
            for face in faces
            if G.op(values.get(face, 0), alternating_shift(G, face, g, 1))
        )

    new, x = first_min(G, len(lower), weight_of, moved_at(X, v, lower))
    return None if new >= old else (old - new, x)


def brute_link_nonabelian(f, v):
    """Every link edge uw scored by its triangle vuw, over offsets x in
    product() order; returns the new edge values y(u) = f'(v, u) = x(u) f(v, u)
    of the first minimizer.  The triangle carries y(u) f(uw) y(w)^-1."""
    X, G = f.complex, tabulated(f.group)
    link = X.link((v,))
    vertices = [u for (u,) in link.faces(0)]
    star = {(u, w): X.weight_numerator(tuple(sorted((v, u, w)))) for (u, w) in link.faces(1)}
    old = sum(
        num
        for (u, w), num in star.items()
        if G.op(G.op(f.eval((v, u)), f.eval((u, w))), f.eval((w, v)))
    )
    if not old:
        return None
    spokes = [f.eval((v, u)) for u in vertices]
    rim = {edge: f.value(edge) for edge in star}

    def new_values(x):
        return tuple(G.op(a, spoke) for a, spoke in zip(x, spokes))

    def weight_of(x):
        yv = dict(zip(vertices, new_values(x)))
        return sum(
            num
            for (u, w), num in star.items()
            if G.op(G.op(yv[u], rim[u, w]), G.inv(yv[w]))
        )

    new, x = first_min(G, len(vertices), weight_of, moved_at(X, v, link.faces(0)))
    return None if new >= old else (old - new, new_values(x))


def lift(G, v, lower, x):
    """The values x on the faces v + tau, tau in lower, as canonical faces."""
    values = {}
    for tau, val in zip(lower, x):
        if val:
            ordered = (v,) + tau
            values[tuple(sorted(ordered))] = G.signed(val, perm_parity(ordered))
    return values


def link_searches(target, local, left, right, budget):
    """vertex -> the link search at that vertex, each star scanned on its own;
    a vertex with no star, or with a decrease <= 0, is left out."""
    stars = correction._stars(target, budget)
    found = (correction._scan_stars(target, [star], local, left, right)[0] for star in stars)
    return {got.vertex: got for got in found if got.decrease_num > 0}


def search_abelian(h, budget):
    """vertex -> (decrease, assignment) of the additive step's searches."""
    right = additive_terms(h.dimension - 2)
    found = link_searches(h, lambda u: h.localize((u,)).row, (), right, budget)
    return {v: (got.decrease_num, got.assignment) for v, got in found.items()}


def search_nonabelian(f, budget):
    """vertex -> (decrease, new edge values) of the multiplicative step's
    searches, the offsets turned into new edge values."""
    df = coboundary_nonabelian_1(f)
    found = link_searches(df, partial(_triangles_at, f), DELTA0_TERMS[:1], DELTA0_TERMS[1:], budget)
    searches = {}
    for v, got in found.items():
        lower = f.complex.link((v,)).faces(0)
        y = tuple(f.group.op(x, f.eval((v, u))) for (u,), x in zip(lower, got.assignment))
        searches[v] = got.decrease_num, y
    return searches


def brute_is_minimal(f):
    X, G, k = f.complex, tabulated(f.group), f.dimension
    faces = X.faces(k)
    values, nums = dict(f.values), {face: X.weight_numerator(face) for face in faces}
    target = sum(nums[face] for face in values)
    if f.group.is_abelian or k == 0:
        lower = X.faces(k - 1)

        def weight_of(x):
            g = dict(zip(lower, x))
            return sum(
                nums[face]
                for face in faces
                if G.op(values.get(face, 0), alternating_shift(G, face, g, -1))
            )

    elif k == 1:
        lower = X.vertices()

        def weight_of(x):
            hv = dict(zip(lower, x))
            return sum(
                nums[u, w]
                for (u, w) in faces
                if G.op(G.op(hv[u], values.get((u, w), 0)), G.inv(hv[w]))
            )

    else:
        lower = X.faces(1)

        def weight_of(x):
            shift = coboundary_nonabelian_1(Cochain(X, 1, f.group, dict(zip(lower, x)))).values
            return sum(
                nums[face]
                for face in faces
                if G.op(values.get(face, 0), G.inv(shift.get(face, 0)))
            )

    return first_min(G, len(lower), weight_of)[0] >= target


def check_abelian_links(rng, specs, shapes):
    budget = EnumerationBudget()
    for spec in specs:
        G = group_from_spec(spec)
        for n, d, j in shapes:
            X = complete_complex(n, d)
            h = random_cochain(X, j, G, rng, 0.4)
            searches = search_abelian(h, budget)
            for v in X.vertices():
                assert searches.get(v) == brute_link_abelian(h, v), (spec, n, d, j, v)


def check_nonabelian_links(rng, specs, n):
    budget = EnumerationBudget()
    X = complete_complex(n, 3)
    for spec in specs:
        G = group_from_spec(spec)
        for density in (0.2, 0.5):
            f = random_cochain(X, 1, G, rng, density)
            searches = search_nonabelian(f, budget)
            for v in X.vertices():
                assert searches.get(v) == brute_link_nonabelian(f, v), (spec, density, v)


def test_abelian_link_search_matches_brute_force():
    # j = 1, 2, 3: constant shifts, vertex shifts, edge shifts in the link.
    rng = random.Random(3)
    check_abelian_links(rng, ABELIAN, [(5, 2, 1), (6, 3, 2)])
    check_abelian_links(rng, ("Z2", "Z3"), [(5, 4, 3)])


def test_nonabelian_link_search_matches_brute_force():
    check_nonabelian_links(random.Random(4), NONABELIAN + ("Z2xZ2", "Z3"), 5)


def test_steps_pick_the_argmax_of_the_unpruned_searches(monkeypatch):
    # The vertex loop does not scan a star too light to beat the best decrease
    # so far; the steps must still pick the vertex and assignment of the
    # largest brute-force decrease, ties to the smallest vertex id.
    scans = []

    def counted(*args, **kwargs):
        scans.append(1)
        return _scan_first_min(*args, **kwargs)

    monkeypatch.setattr(correction, "_scan_first_min", counted)
    rng = random.Random(7)
    starred = 0  # vertices whose star meets the support: what an unpruned loop scans
    for n in (5, 6):
        X = complete_complex(n, 3)
        for spec in ("Z2", "Z3") + NONABELIAN:
            G = group_from_spec(spec)
            f = random_cochain(X, 1, G, rng, 0.3)
            vertices = sorted(X.vertices())
            cases = [(one_step_nonabelian, f, brute_link_nonabelian, coboundary_nonabelian_1(f))]
            if G.is_abelian:
                h = coboundary_abelian(f)
                cases.append((one_step_abelian, h, brute_link_abelian, h))
            for step, x, brute, target in cases:
                found = [(-s[0], v, s[1]) for v in vertices for s in [brute(x, v)] if s]
                starred += sum(any(v in face for face in target.values) for v in vertices)
                if not found:
                    with pytest.raises(AlreadyLocallyMinimalError):
                        step(x)
                    continue
                _, v, assignment = min(found)
                expected = lift(G, v, X.link((v,)).faces(0), assignment)
                got_v, got, _ = step(x)
                if step is one_step_nonabelian:
                    expected.update((e, val) for e, val in f.values.items() if v not in e)
                assert (got_v, got.values) == (v, expected), (spec, n, step.__name__)
    assert len(scans) < starred


def test_is_minimal_matches_brute_force():
    rng = random.Random(5)
    K4 = complete_complex(4, 2)
    two_triangles = SimplicialComplex(2, [(0, 1, 2), (1, 2, 3)])
    for spec in ABELIAN + NONABELIAN:
        G = group_from_spec(spec)
        for k in (0, 1, 2):
            X = K4 if k < 2 else two_triangles if G.order <= 6 else complete_complex(3, 2)
            for density in (0.2, 0.5, 0.9):
                f = random_cochain(X, k, G, rng, density)
                assert is_minimal(f) == brute_is_minimal(f), (spec, k, density)


def test_small_blocks_keep_the_first_minimum(monkeypatch):
    # Two faces over x in Z2^3: 1 + x0 + x1 and x1 + x2.  Both vanish exactly
    # at (0,1,1) and (1,0,0), indices 3 and 4 in product() order.  With two
    # rows per block the minimum first appears in the second block and ties
    # in the third, where the earlier assignment must be kept.
    G = group_from_spec("Z2")
    left, right = [], [np.array([0, 1]), np.array([1, 2])]
    monkeypatch.setattr(correction, "_BLOCK_CELLS", 6)
    assert _scan_first_min(G, 3, [1, 0], left, right, [1, 1]) == (0, (0, 1, 1))
    monkeypatch.setattr(correction, "_BLOCK_CELLS", 1)
    assert _scan_first_min(G, 3, [1, 0], left, right, [1, 1]) == (0, (0, 1, 1))
    monkeypatch.undo()
    assert _scan_first_min(G, 3, [1, 0], left, right, [1, 1]) == (0, (0, 1, 1))
    # Weighing the coordinates each minimizer rewrites, (1,0,0) rewrites less
    # and wins across the block boundary; with weight 5 on the first
    # coordinate, (0,1,1) is the lighter one.
    for cells in (6, 1, correction._BLOCK_CELLS):
        monkeypatch.setattr(correction, "_BLOCK_CELLS", cells)
        assert _scan_first_min(G, 3, [1, 0], left, right, [1, 1], moved=[1, 1, 1]) == (0, (1, 0, 0))
        assert _scan_first_min(G, 3, [1, 0], left, right, [1, 1], moved=[5, 1, 1]) == (0, (0, 1, 1))


@pytest.mark.parametrize("cells", [16])
def test_small_blocks_match_brute_force(monkeypatch, cells):
    monkeypatch.setattr(correction, "_BLOCK_CELLS", cells)
    rng = random.Random(cells)
    check_abelian_links(rng, ("Z3", "Z2xZ2"), [(6, 3, 2)])
    check_abelian_links(rng, ("Z3",), [(5, 4, 3)])
    check_nonabelian_links(rng, ("S3",), 5)
    for spec in ("Z3", "S3"):
        G = group_from_spec(spec)
        for X, k in ((complete_complex(4, 2), 1), (SimplicialComplex(2, [(0, 1, 2), (1, 2, 3)]), 2)):
            f = random_cochain(X, k, G, rng, 0.5)
            assert is_minimal(f) == brute_is_minimal(f)


def test_large_orders_scan_without_a_cayley_table():
    # Minimality of a 0-cochain scans only the |G| constant shifts; Z_m and
    # direct products evaluate it by arithmetic, with no |G|^2 table.
    X = complete_complex(4, 2)
    for spec in ("Z100000", "Z300xZ300"):
        G = group_from_spec(spec)
        shifted = Cochain(X, 0, G, {(0,): 7, (1,): 7, (2,): 7, (3,): 12})
        single = Cochain(X, 0, G, {(3,): 12})
        assert not is_minimal(shifted)
        assert is_minimal(single)
        assert not any(hasattr(g, "table") for g in (G, *getattr(G, "factors", ())))


def test_weight_numerators_past_int64_stay_exact():
    # Top weights 1 - 1/q and 1/q give face numerators near q = 10^20 > 2^63.
    q = 10**20
    weights = {(0, 1, 2): 1 - Fraction(1, q), (1, 2, 3): Fraction(1, q)}
    X = SimplicialComplex(2, [(0, 1, 2), (1, 2, 3)], weights)
    rng = random.Random(6)
    G = group_from_spec("Z3")
    for _ in range(10):
        f = random_cochain(X, 1, G, rng, 0.5)
        assert is_minimal(f) == brute_is_minimal(f)


# -- the factor-table kernel against product() on random term columns ----------------

#: Q8 = {1, -1, i, -i, j, -j, k, -k} as a table group.
Q8 = TableGroup(
    "Q8",
    [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [1, 0, 3, 2, 5, 4, 7, 6],
        [2, 3, 1, 0, 6, 7, 5, 4],
        [3, 2, 0, 1, 7, 6, 4, 5],
        [4, 5, 7, 6, 1, 0, 2, 3],
        [5, 4, 6, 7, 0, 1, 3, 2],
        [6, 7, 4, 5, 3, 2, 1, 0],
        [7, 6, 5, 4, 2, 3, 0, 1],
    ],
)
KERNEL_GROUPS = [group_from_spec(spec) for spec in ("Z2", "Z3", "Z2xZ2", "S3", "D4")] + [Q8]


def random_scan(rng, G, t, n, m):
    """Kernel inputs for m faces of t terms over G^n, each term inverted at
    random: most faces read t distinct coordinates, as the facets of a face
    do, and some read a coordinate twice."""
    places = [rng.sample(range(n), t) if rng.random() < 0.7 else rng.choices(range(n), k=t) for _ in range(m)]
    cols = [np.array([face[i] + n * rng.randrange(2) for face in places]) for i in range(t)]
    split = rng.randrange(t + 1)
    const = [rng.randrange(G.order) for _ in range(m)]
    return const, cols[:split], cols[split:]


def face_weight_of(G, const, left, right, weights):
    """x -> the weight of the faces whose x[left...] * const * x[right...] is not the identity."""
    G = tabulated(G)

    def weight_of(x):
        xs = list(x) + [G.inv(a) for a in x]
        total = 0
        for f, c in enumerate(const):
            acc = c
            for cols in reversed(left):
                acc = G.op(xs[cols[f]], acc)
            for cols in right:
                acc = G.op(acc, xs[cols[f]])
            total += weights[f] if acc else 0
        return total

    return weight_of


def moved_weight_of(moved):
    return lambda x: sum(w for w, a in zip(moved, x) if a)


def block_sizes(G, n):
    """_BLOCK_CELLS values that put the split coordinate at every position,
    with runs of one value, of two, and of all of them."""
    return sorted({G.order**free * run for free in range(n) for run in (1, 2, G.order)} | {1})


@pytest.mark.parametrize("G", KERNEL_GROUPS, ids=lambda G: G.name)
def test_factor_tables_match_product_on_random_columns(monkeypatch, G):
    rng = random.Random(G.name)
    for t in (1, 2, 3, 4):
        n = 5 if G.order <= 3 else 4
        const, left, right = random_scan(rng, G, t, n, rng.randint(1, 6))
        weights = [rng.randint(1, 9) for _ in const]
        moved = [rng.randint(0, 4) for _ in range(n)]
        weight_of = face_weight_of(G, const, left, right, weights)
        want = first_min(G, n, weight_of)
        want_moved = first_min(G, n, weight_of, moved_weight_of(moved))
        for cells in block_sizes(G, n) + [1 << 16]:
            monkeypatch.setattr(correction, "_BLOCK_CELLS", cells)
            assert _scan_first_min(G, n, const, left, right, weights) == want, (t, cells)
            assert _scan_first_min(G, n, const, left, right, weights, moved=moved) == want_moved, (t, cells)


@pytest.mark.parametrize("G", KERNEL_GROUPS[:4], ids=lambda G: G.name)
def test_stop_below_ends_on_a_weight_below_it_or_the_first_minimum(monkeypatch, G):
    rng = random.Random(f"stop-{G.name}")
    for t in (1, 2, 3):
        n = 4
        const, left, right = random_scan(rng, G, t, n, 5)
        weights = [rng.randint(1, 9) for _ in const]
        weight_of = face_weight_of(G, const, left, right, weights)
        low, first = first_min(G, n, weight_of)
        for stop in (low, low + 1, weight_of((0,) * n) + 1):
            for cells in block_sizes(G, n):
                monkeypatch.setattr(correction, "_BLOCK_CELLS", cells)
                got, x = _scan_first_min(G, n, const, left, right, weights, stop_below=stop)
                assert got == weight_of(x)
                assert got < stop if low < stop else (got, x) == (low, first)


def test_weights_past_int64_scan_with_python_ints(monkeypatch):
    # Five faces of weight near 2^62 sum past 2^63, and the moved scale of a
    # stacked row multiplies them further: the keys must stay exact.
    G = group_from_spec("S3")
    rng = random.Random(9)
    n = 4
    const, left, right = random_scan(rng, G, 2, n, 5)
    weights = [2**62 + rng.randrange(2**40) for _ in const]
    moved = [2**61 + i for i in range(n)]
    weight_of = face_weight_of(G, const, left, right, weights)
    want = first_min(G, n, weight_of, moved_weight_of(moved))
    assert sum(weights) >= 2**63 and all(isinstance(w, int) for w in want[1])
    for cells in (6, 36, 1 << 16):
        monkeypatch.setattr(correction, "_BLOCK_CELLS", cells)
        assert _scan_first_min(G, n, const, left, right, weights, moved=moved) == want
        assert _scan_first_min(G, n, const, left, right, weights) == first_min(G, n, weight_of)


@pytest.mark.parametrize("cells", [1, 16, 200, 1 << 16])
def test_a_stacked_call_equals_its_per_row_calls(monkeypatch, cells):
    # Rows share the columns and differ in const, weights and moved weights;
    # small blocks also cut the stack.
    monkeypatch.setattr(correction, "_BLOCK_CELLS", cells)
    rng = random.Random(cells)
    for G in (group_from_spec("Z3"), group_from_spec("S3"), Q8):
        n = 4
        const, left, right = random_scan(rng, G, 2, n, 6)
        rows = 5
        consts = np.array([[rng.randrange(G.order) for _ in const] for _ in range(rows)])
        weights = np.array([[rng.randint(1, 9) for _ in const] for _ in range(rows)])
        moved = np.array([[rng.randint(0, 4) for _ in range(n)] for _ in range(rows)])
        stacked = _scan_first_min(G, n, consts, left, right, weights, moved=moved)
        single = [_scan_first_min(G, n, c, left, right, w, moved=mw) for c, w, mw in zip(consts, weights, moved)]
        assert stacked == single
        for row, (c, w, mw) in enumerate(zip(consts.tolist(), weights.tolist(), moved.tolist())):
            weight_of = face_weight_of(G, c, left, right, w)
            assert stacked[row] == first_min(G, n, weight_of, moved_weight_of(mw)), (G.name, row)


def test_stacked_link_searches_equal_the_per_vertex_searches():
    # Every star of K_n^(3) has the same facet table, so a step scans them in
    # one stacked call; each vertex's result must be its own search's.
    budget = EnumerationBudget()
    X = complete_complex(6, 3)
    for spec in ("Z3", "S3"):
        G = group_from_spec(spec)
        f = random_cochain(X, 1, G, random.Random(spec), 0.4)
        df = coboundary_nonabelian_1(f)
        local = partial(_triangles_at, f)
        stars = correction._stars(df, budget)
        assert len({star.table.tobytes() for star in stars}) == 1
        stacked = correction._scan_stars(df, stars, local, DELTA0_TERMS[:1], DELTA0_TERMS[1:])
        for star, found in zip(stars, stacked):
            v = star.vertex
            assert found == correction._scan_stars(df, [star], local, DELTA0_TERMS[:1], DELTA0_TERMS[1:])[0]
            y = tuple(G.op(x, f.eval((v, u))) for (u,), x in zip(X.link((v,)).faces(0), found.assignment))
            assert brute_link_nonabelian(f, v) == ((found.decrease_num, y) if found.decrease_num > 0 else None)


def test_tables_past_the_block_size_are_built_block_by_block(monkeypatch):
    # Eight faces x0 + c +- x1 over Z256 have one table of 2^16 cells, 64
    # blocks of 2^10: the scan builds it over each block's ranges, so what it
    # holds at once stays within a few blocks.  The reference scores all of
    # G^2 at once, in product() order.
    G = group_from_spec("Z256")
    rng = random.Random(11)
    n, m, rows = 2, 8, 3
    signs = np.array([rng.choice((1, -1)) for _ in range(m)])
    left, right = [np.zeros(m, dtype=np.intp)], [np.where(signs > 0, 1, 1 + n)]
    consts = np.array([[rng.randrange(G.order) for _ in range(m)] for _ in range(rows)])
    weights = np.array([[rng.randint(1, 9) for _ in range(m)] for _ in range(rows)])
    moved = np.array([[rng.randint(0, 4) for _ in range(n)] for _ in range(rows)])
    x0, x1 = np.divmod(np.arange(G.order**n), G.order)
    want = []
    for c, w, mw in zip(consts, weights, moved):
        weight = ((x0[:, None] + c + signs * x1[:, None]) % G.order != 0) @ w
        first = int(np.argmin(weight * (mw.sum() + 1) + (x0 != 0) * mw[0] + (x1 != 0) * mw[1]))
        want.append((int(weight[first]), (int(x0[first]), int(x1[first]))))
    monkeypatch.setattr(correction, "_BLOCK_CELLS", 1 << 10)
    tracemalloc.start()
    try:
        stacked = _scan_first_min(G, n, consts, left, right, weights, moved=moved)
        single = _scan_first_min(G, n, consts[0], left, right, weights[0], moved=moved[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (stacked, single) == (want, want[0])
    assert peak < 32 * 8 * correction._BLOCK_CELLS


def test_a_table_is_built_again_only_when_a_block_leaves_its_box(monkeypatch):
    # Over Z3^4 with one row and _BLOCK_CELLS = 3, a block fixes x0 and x1,
    # takes one value of x2 and leaves x3 free.  The unary table of the face
    # x3 c x3 fits the cap and covers all of G; each pair x_a c x_b^-1 has a
    # table of 9 cells, built over the box of the block at hand and kept
    # while the blocks stay in that box.  So the scan builds the unary table
    # once and one table per (pair, box) that the walk visits, a box it
    # comes back to counted again.
    G = group_from_spec("Z3")
    n = 4
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    left = [np.array([a for a, _ in pairs] + [3])]
    right = [np.array([b + n for _, b in pairs] + [3])]
    rng = random.Random(13)
    const = [rng.randrange(G.order) for _ in range(len(pairs) + 1)]
    weights = [rng.randint(1, 9) for _ in const]
    moved = [rng.randint(0, 4) for _ in range(n)]
    built = []

    def counted(G, faces, const, keyed, first, stop, ranges):
        built.append(stop - first)
        return cost_tables(G, faces, const, keyed, first, stop, ranges)

    cost_tables = correction._cost_tables
    monkeypatch.setattr(correction, "_cost_tables", counted)
    monkeypatch.setattr(correction, "_BLOCK_CELLS", 3)
    got = _scan_first_min(G, n, const, left, right, weights, moved=moved)
    assert got == first_min(G, n, face_weight_of(G, const, left, right, weights), moved_weight_of(moved))
    blocks = [[(a, 1), (b, 1), (c, 1), (0, 3)] for a, b, c in product(range(3), repeat=3)]
    visits = 0
    for key in pairs:
        boxes = [[block[c] for c in key] for block in blocks]
        visits += 1 + sum(box != last for last, box in zip(boxes, boxes[1:]))
    assert sum(built) == 1 + visits
