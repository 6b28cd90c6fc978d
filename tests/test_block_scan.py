"""The correction layer's block scan against a brute-force product() reference."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from hdx import correction
from hdx.cochains import Cochain, coboundary_nonabelian_1, random_cochain
from hdx.complexes import build_complex
from hdx.correction import (
    _scan_first_min,
    _search_link_abelian,
    _search_link_nonabelian,
    is_minimal,
)
from hdx.groups import group_from_spec
from hdx.instances import complete_complex
from hdx.oracle import EnumerationBudget

ABELIAN = ("Z2", "Z3", "Z4", "Z2xZ2")
NONABELIAN = ("S3", "D4")


def first_min(G, n, weight_of):
    """(weight, x) of the first x in product() order with the least weight."""
    best = None
    for x in product(range(G.order), repeat=n):
        w = weight_of(x)
        if best is None or w < best[0]:
            best = (w, x)
    return best


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

    new, x = first_min(G, len(lower), weight_of)
    return None if new >= old else (old - new, x)


def brute_link_nonabelian(f, v):
    X, G = f.complex, f.group
    link = X.link((v,))
    anchored = {}
    for (u, w) in link.faces(1):
        val = G.op(G.op(f.eval((v, u)), f.eval((u, w))), f.eval((w, v)))
        if val:
            anchored[(u, w)] = val
    if not anchored:
        return None
    vertices = link.vertices()
    star = {e: X.weight_numerator(tuple(sorted((v,) + e))) for e in anchored}
    old = sum(star.values())

    def weight_of(x):
        hv = dict(zip(vertices, x))
        return sum(
            star[(u, w)]
            for (u, w), val in anchored.items()
            if G.op(G.op(hv[u], val), G.inv(hv[w]))
        )

    new, x = first_min(G, len(vertices), weight_of)
    return None if new >= old else (old - new, x)


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
                got = _search_link_abelian(h, v, budget)
                got = None if got is None else (got.decrease_num, got.assignment)
                assert got == brute_link_abelian(h, v), (spec, n, d, j, v)


def check_nonabelian_links(rng, specs, n):
    budget = EnumerationBudget()
    X = complete_complex(n, 3)
    for spec in specs:
        G = group_from_spec(spec)
        for density in (0.2, 0.5):
            f = random_cochain(X, 1, G, rng, density)
            for v in X.vertices():
                got = _search_link_nonabelian(f, v, budget)
                got = None if got is None else (got[0], got[2])
                assert got == brute_link_nonabelian(f, v), (spec, density, v)


def test_abelian_link_search_matches_brute_force():
    # j = 1, 2, 3: constant shifts, vertex shifts, edge shifts in the link.
    rng = random.Random(3)
    check_abelian_links(rng, ABELIAN, [(5, 2, 1), (6, 3, 2)])
    check_abelian_links(rng, ("Z2", "Z3"), [(5, 4, 3)])


def test_nonabelian_link_search_matches_brute_force():
    check_nonabelian_links(random.Random(4), NONABELIAN + ("Z2xZ2", "Z3"), 5)


def test_is_minimal_matches_brute_force():
    rng = random.Random(5)
    K4 = complete_complex(4, 2)
    two_triangles = build_complex([(0, 1, 2), (1, 2, 3)], 2)
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


@pytest.mark.parametrize("cells", [16])
def test_small_blocks_match_brute_force(monkeypatch, cells):
    monkeypatch.setattr(correction, "_BLOCK_CELLS", cells)
    rng = random.Random(cells)
    check_abelian_links(rng, ("Z3", "Z2xZ2"), [(6, 3, 2)])
    check_abelian_links(rng, ("Z3",), [(5, 4, 3)])
    check_nonabelian_links(rng, ("S3",), 5)
    for spec in ("Z3", "S3"):
        G = group_from_spec(spec)
        for X, k in ((complete_complex(4, 2), 1), (build_complex([(0, 1, 2), (1, 2, 3)], 2), 2)):
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
        assert G._tables is None and all(g._tables is None for g in getattr(G, "factors", ()))


def test_weight_numerators_past_int64_stay_exact():
    # Top weights 1 - 1/q and 1/q give face numerators near q = 10^20 > 2^63.
    q = 10**20
    weights = {(0, 1, 2): 1 - Fraction(1, q), (1, 2, 3): Fraction(1, q)}
    X = build_complex([(0, 1, 2), (1, 2, 3)], 2, weights)
    rng = random.Random(6)
    G = group_from_spec("Z3")
    for _ in range(10):
        f = random_cochain(X, 1, G, rng, 0.5)
        assert is_minimal(f) == brute_is_minimal(f)
