"""Exact comparisons against fractional powers of rationals.

Threshold tests of the form  w <= eta^(a/b)  are decided by integer
cross-multiplication (both sides are in [0, 1], so raising to the b-th power
preserves the order).  Sign tests of quadratics evaluated at eta^(1/3) are
decided by rational interval refinement; a cube root of a non-cube rational
cannot be a root of a rational quadratic, so refinement terminates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple


def frac_pow_le(w: Fraction, eta: Fraction, num: int, den: int = 1) -> bool:
    """Exact test  w <= eta^(num/den)  for w >= 0 and eta in (0, 1]."""
    if w < 0 or eta <= 0 or num < 0 or den <= 0:
        raise ValueError("frac_pow_le needs w >= 0, eta > 0, num >= 0, den > 0")
    # w^den <= eta^num  <=>  (wp^den)(eq^num) <= (ep^num)(wq^den)
    wp, wq = w.numerator, w.denominator
    ep, eq = eta.numerator, eta.denominator
    return wp**den * eq**num <= ep**num * wq**den


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for an integer n >= 0, by integer Newton iteration."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)  # 2^ceil(bits/3) >= n^(1/3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _is_perfect_cube(n: int) -> Optional[int]:
    if n < 0:
        r = _is_perfect_cube(-n)
        return None if r is None else -r
    r = _icbrt(n)
    return r if r**3 == n else None


def cbrt_exact(x: Fraction) -> Optional[Fraction]:
    """The exact rational cube root of x, or None if it is irrational."""
    p = _is_perfect_cube(x.numerator)
    q = _is_perfect_cube(x.denominator)
    if p is None or q is None:
        return None
    return Fraction(p, q)


def cbrt_bounds(x: Fraction, width: Fraction) -> Tuple[Fraction, Fraction]:
    """Rational lo <= x^(1/3) <= hi with hi - lo <= width, for x > 0."""
    if x <= 0:
        raise ValueError("cbrt_bounds needs x > 0")
    exact = cbrt_exact(x)
    if exact is not None:
        return exact, exact
    lo, hi = Fraction(0), max(Fraction(1), x)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid**3 <= x:
            lo = mid
        else:
            hi = mid
    return lo, hi


def quad_at_cbrt_is_nonneg(a: Fraction, b: Fraction, c: Fraction, eta: Fraction) -> bool:
    """Exact sign test:  a*t^2 + b*t + c >= 0  at  t = eta^(1/3),  eta > 0.

    Works by shrinking a rational interval around t until interval arithmetic
    determines the sign.  If the quadratic is identically zero the answer is
    True.
    """
    if a == 0 and b == 0:
        return c >= 0
    exact = cbrt_exact(eta)
    if exact is not None:
        return a * exact * exact + b * exact + c >= 0
    width = Fraction(1, 16)
    while True:
        lo, hi = cbrt_bounds(eta, width)
        qlo = (a * lo * lo if a >= 0 else a * hi * hi) + (b * lo if b >= 0 else b * hi) + c
        qhi = (a * hi * hi if a >= 0 else a * lo * lo) + (b * hi if b >= 0 else b * lo) + c
        if qlo > 0:
            return True
        if qhi < 0:
            return False
        if qlo == 0 and qhi == 0:
            return True
        width /= 16
