import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

import pytest

from hdx.complexes import SimplicialComplex
from hdx.errors import UnknownFaceError, UnknownVertexError
from hdx.groups import group_from_spec
from hdx.instances import complete_complex, single_simplex, torus3_complex


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture(scope="session")
def f2():
    return group_from_spec("Z2")


@pytest.fixture(scope="session")
def z3():
    return group_from_spec("Z3")


@pytest.fixture(scope="session")
def s3():
    return group_from_spec("S3")


@pytest.fixture(scope="session")
def k4_skeleton():
    return complete_complex(4, 2)


@pytest.fixture(scope="session")
def tetrahedron():
    return single_simplex(3)


def perm_parity(ordered):
    """+1 for an even permutation of the sorted tuple, -1 for an odd one."""
    inversions = sum(
        1 for i in range(len(ordered)) for j in range(i + 1, len(ordered)) if ordered[i] > ordered[j]
    )
    return -1 if inversions % 2 else 1


def signed(G, a, sign):
    """a for sign +1 and the inverse of a in G for sign -1."""
    return a if sign >= 0 else G.inv(a)


def cochain_eval(f, ordered):
    """The value of the cochain f on an ordered face: its value on the sorted
    face, inverted for an odd ordering; a repeated vertex, or a face that is
    not in the complex, raises UnknownFaceError."""
    ordered = tuple(ordered)
    if len(set(ordered)) != len(ordered):
        raise UnknownFaceError(f"{ordered} repeats a vertex")
    at = f.complex.face_index(f.dimension).get(tuple(sorted(ordered)))
    if at is None:
        raise UnknownFaceError(f"{ordered} is not a {f.dimension}-face of the complex")
    return signed(f.group, int(f.row[at]), perm_parity(ordered))


def vertex_weights(graph):
    """The vertex weights of a spectral.WeightedGraph, as Fractions."""
    return {v: Fraction(n, graph.vertex_den) for v, n in graph.vertex_num.items()}


def vertex_set_weight(graph, subset):
    """The summed vertex weight of subset in graph; a vertex not in graph
    raises UnknownVertexError."""
    weights = vertex_weights(graph)
    total = Fraction(0)
    for v in subset:
        if v not in weights:
            raise UnknownVertexError(f"vertex {v} is not in the graph")
        total += weights[v]
    return total


def freudenthal_torus(n):
    """The Freudenthal triangulation of the 3-torus (Z/n)^3: each unit cube
    cut into six tetrahedra along its main diagonal, 6 n^3 in all."""

    def vid(p):
        return (p[0] % n) * n * n + (p[1] % n) * n + p[2] % n

    tops = set()
    for corner in ((i, j, k) for i in range(n) for j in range(n) for k in range(n)):
        for order in permutations(range(3)):
            p, tet = list(corner), [vid(corner)]
            for axis in order:
                p[axis] += 1
                tet.append(vid(p))
            tops.add(tuple(sorted(tet)))
    return SimplicialComplex(3, sorted(tops))


@pytest.fixture(scope="session")
def t3():
    """T3, the Freudenthal 3-torus for n = 3: 162 tetrahedra."""
    return torus3_complex(3)


@pytest.fixture
def one_second():
    """A context manager that fails its body with TimeoutError after 1 s."""

    @contextmanager
    def alarm():
        def too_slow(signum, frame):
            raise TimeoutError("did not return within 1 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return alarm
