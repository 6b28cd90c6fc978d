"""Seeded benchmark inputs and the benchmark's own file writers.

Everything here is independent of the hdx package except the bundled
instances (whose top faces are read once) and the group tables used for the
non-abelian plants.  Complex files are written by ``write_complex`` rather
than ``SimplicialComplex.to_text``, whose cost is quadratic in the number of
top faces and would otherwise inflate the measured set-up time.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import Dict, List, Sequence, Tuple

Face = Tuple[int, ...]


# -- complexes -------------------------------------------------------------------


def complete_tops(n: int, d: int) -> List[Face]:
    """Top faces of the complete d-complex on n vertices."""
    return list(combinations(range(n), d + 1))


def torus3_tops(n: int) -> List[Face]:
    """Freudenthal triangulation of the 3-torus (Z/n)^3: 6 n^3 tetrahedra.

    Every unit cube is cut into the six tetrahedra along its main diagonal, one
    per order in which the three coordinates are incremented.  For n >= 3 the
    result is a simplicial complex whose vertex links all have 14 vertices.
    """
    if n < 3:
        raise ValueError(f"the Freudenthal 3-torus needs n >= 3, got {n}")

    def vid(p: Sequence[int]) -> int:
        return (p[0] % n) * n * n + (p[1] % n) * n + (p[2] % n)

    tops = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for order in permutations(range(3)):
                    p = [i, j, k]
                    tet = [vid(p)]
                    for axis in order:
                        p[axis] += 1
                        tet.append(vid(p))
                    tops.add(tuple(sorted(tet)))
    return sorted(tops)


def relabel(tops: Sequence[Face], rng: random.Random) -> List[Face]:
    """The same complex under a uniformly random permutation of its vertex ids."""
    vertices = sorted({v for face in tops for v in face})
    image = dict(zip(vertices, rng.sample(vertices, len(vertices))))
    return sorted(tuple(sorted(image[v] for v in face)) for face in tops)


def write_complex(tops: Sequence[Face]) -> str:
    """Complex file text: a 'dim d' header and one top face per line."""
    d = len(tops[0]) - 1
    return "".join([f"dim {d}\n"] + [" ".join(map(str, face)) + "\n" for face in tops])


def read_complex(text: str) -> Tuple[int, List[Face]]:
    """Parse complex-file text into (dimension, sorted canonical top faces)."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if not lines or lines[0][0] != "dim":
        raise ValueError("complex text does not start with a 'dim d' header")
    return int(lines[0][1]), sorted(tuple(sorted(map(int, parts))) for parts in lines[1:])


def faces_of(tops: Sequence[Face], k: int) -> Dict[Face, int]:
    """Every k-face with the number of top faces containing it."""
    counts: Dict[Face, int] = {}
    for top in tops:
        for sub in combinations(top, k + 1):
            counts[sub] = counts.get(sub, 0) + 1
    return counts


# -- cochains --------------------------------------------------------------------


def write_cochain(values: Dict[Face, int], k: int, spec: str) -> str:
    lines = [f"dim {k} group {spec}\n"]
    for face in sorted(values):
        lines.append(" ".join(map(str, face)) + f" {values[face]}\n")
    return "".join(lines)


def sparse_edges(tops: Sequence[Face], count: int, rng: random.Random) -> Dict[Face, int]:
    """A Z2 1-cochain supported on `count` random edges."""
    edges = sorted(faces_of(tops, 1))
    return {e: 1 for e in rng.sample(edges, count)}


def plant_abelian(
    tops: Sequence[Face], order: int, r: int, rng: random.Random
) -> Dict[Face, int]:
    """A Z_order 1-coboundary plus noise on two star edges at each of r vertices."""
    vertices = sorted({v for face in tops for v in face})
    g = {v: rng.randrange(order) for v in vertices}
    edges = sorted(faces_of(tops, 1))
    values = {(u, v): (g[v] - g[u]) % order for (u, v) in edges}
    for centre in rng.sample(vertices, r):
        star = [e for e in edges if centre in e]
        for e in rng.sample(star, 2):
            values[e] = (values[e] + rng.randrange(1, order)) % order
    return {e: x for e, x in values.items() if x}


def plant_nonabelian(
    tops: Sequence[Face], table: Sequence[Sequence[int]], r: int, rng: random.Random
) -> Dict[Face, int]:
    """A multiplicative 1-coboundary h(u) h(v)^-1 with r edges multiplied by noise."""
    order = len(table)
    inv = [row.index(0) for row in table]
    vertices = sorted({v for face in tops for v in face})
    h = {v: rng.randrange(order) for v in vertices}
    edges = sorted(faces_of(tops, 1))
    values = {(u, v): table[h[u]][inv[h[v]]] for (u, v) in edges}
    for e in rng.sample(edges, r):
        values[e] = table[values[e]][rng.randrange(1, order)]
    return {e: x for e, x in values.items() if x}
