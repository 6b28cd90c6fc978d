import random
import signal
from fractions import Fraction

import pytest

from hdx.exact import (
    _is_perfect_cube,
    cbrt_bounds,
    cbrt_exact,
    frac_pow_le,
    quad_at_cbrt_is_nonneg,
)


def test_integer_exponent_threshold():
    assert frac_pow_le(Fraction(1, 8), Fraction(1, 2), 3)
    assert not frac_pow_le(Fraction(1, 7), Fraction(1, 2), 3)
    assert frac_pow_le(Fraction(1, 4), Fraction(1, 2), 2)
    assert frac_pow_le(Fraction(0), Fraction(1, 2), 5)


def test_cube_root_threshold():
    # w <= eta^(1/3)  <=>  w^3 <= eta
    assert frac_pow_le(Fraction(1, 2), Fraction(1, 8), 1, 3)
    assert not frac_pow_le(Fraction(51, 100), Fraction(1, 8), 1, 3)


def test_threshold_agrees_with_floats():
    rng = random.Random(0)
    for _ in range(300):
        w = Fraction(rng.randint(0, 50), rng.randint(51, 100))
        eta = Fraction(rng.randint(1, 99), 100)
        num, den = rng.choice([(1, 1), (2, 1), (3, 1), (1, 3), (2, 3)])
        exact = frac_pow_le(w, eta, num, den)
        approx = float(w) <= float(eta) ** (num / den) + 1e-12
        if abs(float(w) - float(eta) ** (num / den)) > 1e-9:
            assert exact == approx


def test_cbrt_exact():
    assert cbrt_exact(Fraction(8, 27)) == Fraction(2, 3)
    assert cbrt_exact(Fraction(1)) == 1
    assert cbrt_exact(Fraction(1, 2)) is None


def test_cbrt_bounds_bracket():
    for x in (Fraction(1, 2), Fraction(3, 7), Fraction(99, 100)):
        lo, hi = cbrt_bounds(x, Fraction(1, 10**9))
        assert lo**3 <= x <= hi**3
        assert hi - lo <= Fraction(1, 10**9)
    with pytest.raises(ValueError):
        cbrt_bounds(Fraction(0), Fraction(1, 10))


def test_quadratic_sign_at_cube_root():
    rng = random.Random(1)
    for _ in range(200):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 10))
        eta = Fraction(rng.randint(1, 99), 100)
        t = float(eta) ** (1 / 3)
        value = float(a) * t * t + float(b) * t + float(c)
        if abs(value) > 1e-9:
            assert quad_at_cbrt_is_nonneg(a, b, c, eta) == (value >= 0)


def test_quadratic_sign_degenerate_cases():
    assert quad_at_cbrt_is_nonneg(Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2))
    assert quad_at_cbrt_is_nonneg(Fraction(0), Fraction(0), Fraction(1), Fraction(1, 2))
    assert not quad_at_cbrt_is_nonneg(Fraction(0), Fraction(0), Fraction(-1), Fraction(1, 2))
    # Exact rational cube root: evaluate directly.
    assert quad_at_cbrt_is_nonneg(Fraction(1), Fraction(0), Fraction(-1, 4), Fraction(8, 27))


def test_perfect_cube_beyond_float_precision():
    r = 10**17 + 3
    assert _is_perfect_cube(r**3) == r
    assert _is_perfect_cube(-(r**3)) == -r
    assert _is_perfect_cube(r**3 + 1) is None
    assert cbrt_exact(Fraction(r**3, 10**54)) == Fraction(r, 10**18)


def test_perfect_cube_beyond_float_range():
    assert _is_perfect_cube(10**400) is None
    assert _is_perfect_cube(10**402) == 10**134
    assert all(_is_perfect_cube(c**3) == c for c in range(200))


def test_quadratic_sign_at_large_exact_cube_root():
    # (t - r)^2 at t = (r^3)^(1/3) = r is exactly 0: decided from the exact
    # cube root, where interval refinement alone would never settle the sign.
    r = Fraction(10**17 + 3, 10**18)

    def too_slow(signum, frame):
        raise TimeoutError("quad_at_cbrt_is_nonneg did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        assert quad_at_cbrt_is_nonneg(Fraction(1), -2 * r, r * r, r**3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
