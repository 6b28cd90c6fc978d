"""The correction layer's block scan against a brute-force product() reference."""

import random
from fractions import Fraction
from functools import partial
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
    _search_link,
    _triangles_at,
    is_minimal,
    one_step_abelian,
    one_step_nonabelian,
)
from hdx.errors import AlreadyLocallyMinimalError
from hdx.groups import group_from_spec
from hdx.instances import complete_complex
from hdx.oracle import EnumerationBudget

ABELIAN = ("Z2", "Z3", "Z4", "Z2xZ2")
NONABELIAN = ("S3", "D4")


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
    X, G, j = h.complex, h.group, h.dimension
    link = X.link((v,))
    hv = h.localize((v,))
    if hv.is_zero():
        return None
    lower, faces = link.faces(j - 2), link.faces(j - 1)
    star = {face: X.weight_numerator(tuple(sorted((v,) + face))) for face in faces}
    old = sum(star[face] for face in hv.values)

    def weight_of(x):
        g = dict(zip(lower, x))
        return sum(
            star[face]
            for face in faces
            if G.op(hv.values.get(face, 0), alternating_shift(G, face, g, 1))
        )

    new, x = first_min(G, len(lower), weight_of, moved_at(X, v, lower))
    return None if new >= old else (old - new, x)


def brute_link_nonabelian(f, v):
    """Every link edge uw scored by its triangle vuw, over offsets x in
    product() order; returns the new edge values y(u) = f'(v, u) = x(u) f(v, u)
    of the first minimizer.  The triangle carries y(u) f(uw) y(w)^-1."""
    X, G = f.complex, f.group
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

    def new_values(x):
        return tuple(G.op(a, f.eval((v, u))) for a, u in zip(x, vertices))

    def weight_of(x):
        yv = dict(zip(vertices, new_values(x)))
        return sum(
            num
            for (u, w), num in star.items()
            if G.op(G.op(yv[u], f.value((u, w))), G.inv(yv[w]))
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


def search_abelian(h, v, budget):
    right = additive_terms(h.dimension - 2)
    got = _search_link(h, v, lambda u: h.localize((u,)).row, (), right, budget)
    return None if got is None else (got.decrease_num, got.assignment)


def search_nonabelian(f, v, budget):
    """The step's search at v, with its offsets turned into new edge values."""
    df = coboundary_nonabelian_1(f)
    local = partial(_triangles_at, f)
    got = _search_link(df, v, local, DELTA0_TERMS[:1], DELTA0_TERMS[1:], budget)
    if got is None:
        return None
    lower = f.complex.link((v,)).faces(0)
    y = tuple(f.group.op(x, f.eval((v, u))) for (u,), x in zip(lower, got.assignment))
    return got.decrease_num, y


def brute_is_minimal(f):
    X, G, k = f.complex, f.group, f.dimension
    target = sum(X.weight_numerator(face) for face in f.values)
    faces = X.faces(k)
    if G.is_abelian or k == 0:
        lower = X.faces(k - 1)

        def weight_of(x):
            g = dict(zip(lower, x))
            return sum(
                X.weight_numerator(face)
                for face in faces
                if G.op(f.values.get(face, 0), alternating_shift(G, face, g, -1))
            )

    elif k == 1:
        lower = X.vertices()

        def weight_of(x):
            hv = dict(zip(lower, x))
            return sum(
                X.weight_numerator((u, w))
                for (u, w) in faces
                if G.op(G.op(hv[u], f.values.get((u, w), 0)), G.inv(hv[w]))
            )

    else:
        lower = X.faces(1)

        def weight_of(x):
            shift = coboundary_nonabelian_1(Cochain(X, 1, G, dict(zip(lower, x))))
            return sum(
                X.weight_numerator(face)
                for face in faces
                if G.op(f.values.get(face, 0), G.inv(shift.values.get(face, 0)))
            )

    return first_min(G, len(lower), weight_of)[0] >= target


def check_abelian_links(rng, specs, shapes):
    budget = EnumerationBudget()
    for spec in specs:
        G = group_from_spec(spec)
        for n, d, j in shapes:
            X = complete_complex(n, d)
            h = random_cochain(X, j, G, rng, 0.4)
            for v in X.vertices():
                assert search_abelian(h, v, budget) == brute_link_abelian(h, v), (spec, n, d, j, v)


def check_nonabelian_links(rng, specs, n):
    budget = EnumerationBudget()
    X = complete_complex(n, 3)
    for spec in specs:
        G = group_from_spec(spec)
        for density in (0.2, 0.5):
            f = random_cochain(X, 1, G, rng, density)
            for v in X.vertices():
                assert search_nonabelian(f, v, budget) == brute_link_nonabelian(f, v), (spec, density, v)


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
