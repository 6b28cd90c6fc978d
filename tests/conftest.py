import random
import signal
from contextlib import contextmanager

import pytest

from hdx.groups import group_from_spec
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
