import random
import signal
from contextlib import contextmanager
from itertools import permutations

import pytest

from hdx.groups import group_from_spec
from hdx.complexes import SimplicialComplex
from hdx.instances import complete_complex, single_simplex


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
    return freudenthal_torus(3)


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
