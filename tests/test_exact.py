import random
import signal
from fractions import Fraction

from hdx.exact import (
    _is_perfect_cube,
    cbrt_exact,
    frac_pow_le,
    quad_at_cbrt_is_nonneg,
)


def _sign_by_refinement(a, b, c, eta):
    """Reference for quad_at_cbrt_is_nonneg: shrink a rational interval around
    t = eta^(1/3) until interval arithmetic fixes the sign of a t^2 + b t + c.
    Terminates when eta is not a rational cube and the quadratic is not zero,
    since t is then not a root of any nonzero rational quadratic."""
    if a == 0 and b == 0:
        return c >= 0
    exact = cbrt_exact(eta)
    if exact is not None:
        return a * exact * exact + b * exact + c >= 0
    lo, hi, width = Fraction(0), max(Fraction(1), eta), Fraction(1, 16)
    while True:
        while hi - lo > width:
            mid = (lo + hi) / 2
            if mid**3 <= eta:
                lo = mid
            else:
                hi = mid
        qlo = (a * lo * lo if a >= 0 else a * hi * hi) + (b * lo if b >= 0 else b * hi) + c
        qhi = (a * hi * hi if a >= 0 else a * lo * lo) + (b * hi if b >= 0 else b * lo) + c
        if qlo > 0:
            return True
        if qhi < 0:
            return False
        width /= 16


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
        assert quad_at_cbrt_is_nonneg(a, b, c, eta) == _sign_by_refinement(a, b, c, eta)


def test_quadratic_sign_near_cube_root():
    # A rational r within 1e-15 of t = eta^(1/3), on either side: the linear
    # t - r and the quadratics (t - r)(t + s) have a root that close to t, so
    # floats cannot tell their sign; the norm and the refinement both can.
    rng = random.Random(2)
    for eta in (Fraction(1, 2), Fraction(3, 7), Fraction(99, 100), Fraction(5, 3)):
        lo, hi = Fraction(0), max(Fraction(1), eta)
        while hi - lo > Fraction(1, 10**18):
            mid = (lo + hi) / 2
            if mid**3 <= eta:
                lo = mid
            else:
                hi = mid
        for r in (lo, hi, lo - Fraction(1, 10**16), hi + Fraction(1, 10**16)):
            below = r <= lo
            assert abs(r**3 - eta) < Fraction(1, 10**14)
            # t - r > 0 exactly when r lies below t.
            assert quad_at_cbrt_is_nonneg(Fraction(0), Fraction(1), -r, eta) == below
            assert quad_at_cbrt_is_nonneg(Fraction(0), Fraction(-1), r, eta) == (not below)
            for _ in range(5):
                s = Fraction(rng.randint(1, 20), rng.randint(1, 10))
                k = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                # k (t - r)(t + s) = k t^2 + k (s - r) t - k r s, with t + s > 0.
                a, b, c = k, k * (s - r), -k * r * s
                want = below == (k > 0)
                assert quad_at_cbrt_is_nonneg(a, b, c, eta) == want
                assert _sign_by_refinement(a, b, c, eta) == want


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
