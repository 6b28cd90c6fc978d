"""Exact comparisons against fractional powers of rationals.

Threshold tests of the form  w <= eta^(a/b)  are decided by integer
cross-multiplication (both sides are in [0, 1], so raising to the b-th power
preserves the order).  Sign tests of quadratics evaluated at eta^(1/3) are
decided by the field norm of Q(eta^(1/3)): one rational expression, no loop.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


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


def quad_at_cbrt_is_nonneg(a: Fraction, b: Fraction, c: Fraction, eta: Fraction) -> bool:
    """Exact sign test:  a*t^2 + b*t + c >= 0  at  t = eta^(1/3),  eta > 0.

    If eta has a rational cube root, t is substituted directly.  Otherwise
    x^3 - eta is irreducible, so q(t) = c + b t + a t^2 vanishes only when
    a = b = c = 0, and its conjugates q(wt), q(w^2 t) (w a primitive cube
    root of unity) multiply to |q(wt)|^2 > 0.  The sign of q(t) is then the
    sign of the norm  q(t) q(wt) q(w^2 t) = c^3 + eta b^3 + eta^2 a^3 - 3 eta a b c.
    The zero quadratic counts as nonnegative.
    """
    exact = cbrt_exact(eta)
    if exact is not None:
        return a * exact * exact + b * exact + c >= 0
    return c**3 + eta * b**3 + eta * eta * a**3 - 3 * eta * a * b * c >= 0
