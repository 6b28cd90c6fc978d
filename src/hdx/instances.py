"""Factories for the small test complexes used throughout the suites."""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Dict

from .complexes import SimplicialComplex
from .errors import BadParamsError


def complete_complex(n: int, d: int) -> SimplicialComplex:
    """All (d+1)-subsets of n vertices."""
    if not 0 <= d < n:
        raise BadParamsError(f"need 0 <= d < n, got d={d}, n={n}")
    return SimplicialComplex(d, list(combinations(range(n), d + 1)))


def single_simplex(d: int) -> SimplicialComplex:
    """One d-simplex with its full closure."""
    if d < 0:
        raise BadParamsError(f"need d >= 0, got {d}")
    return SimplicialComplex(d, [tuple(range(d + 1))])


def glued_simplices(d: int, count: int = 2) -> SimplicialComplex:
    """A chain of d-simplices, each glued to the previous along a facet.

    Simplex i spans vertices i..i+d, so consecutive simplices share d vertices.
    """
    if d < 1 or count < 1:
        raise BadParamsError(f"need d >= 1 and count >= 1, got d={d}, count={count}")
    tops = [tuple(range(i, i + d + 1)) for i in range(count)]
    return SimplicialComplex(d, tops)


def torus_complex() -> SimplicialComplex:
    """The minimal 7-vertex triangulation of the torus (14 triangles, 21 edges)."""
    tops = []
    for i in range(7):
        tops.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        tops.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return SimplicialComplex(2, tops)


def torus3_complex(n: int) -> SimplicialComplex:
    """The Freudenthal triangulation of the 3-torus (Z/n)^3: every unit cube
    cut into six tetrahedra along its main diagonal, one per order in which
    the three coordinates step up, 6 n^3 in all.  Vertex (x, y, z) is
    x n^2 + y n + z.  From n = 3 on the tetrahedra are distinct and every
    vertex link has 14 vertices; below that they are not a complex."""
    if n < 3:
        raise BadParamsError(f"the Freudenthal 3-torus needs n >= 3, got {n}")

    def vertex(p):
        return p[0] % n * n * n + p[1] % n * n + p[2] % n

    tops = []
    for corner in product(range(n), repeat=3):
        for order in permutations(range(3)):
            p = list(corner)
            tet = [vertex(p)]
            for axis in order:
                p[axis] += 1
                tet.append(vertex(p))
            tops.append(tet)
    return SimplicialComplex(3, tops)


def projective_plane_complex() -> SimplicialComplex:
    """The minimal 6-vertex triangulation of the projective plane.

    10 triangles on the 15 edges of a complete graph; its degree-1 cohomology
    is nontrivial over groups of even order and trivial over odd ones.
    """
    tops = [
        (0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 2, 5), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5),
    ]
    return SimplicialComplex(2, tops)


def bundled_instances() -> Dict[str, SimplicialComplex]:
    """The named desk-scale instances exercised by the verification suites."""
    return {
        "triangle": single_simplex(2),
        "tetrahedron": single_simplex(3),
        "k4-skeleton": complete_complex(4, 2),
        "complete-2-5": complete_complex(5, 2),
        "complete-2-6": complete_complex(6, 2),
        "complete-3-6": complete_complex(6, 3),
        "complete-3-7": complete_complex(7, 3),
        "glued-tetrahedra": glued_simplices(3, 2),
        "torus-7": torus_complex(),
        "projective-plane-6": projective_plane_complex(),
    }
