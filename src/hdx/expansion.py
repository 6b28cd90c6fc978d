"""Exactly-one-covered faces, thin-face hierarchies, and non-local sets.

For a set A of k-faces, delta1(A) is the set of (k+1)-faces containing exactly
one member of A; such a face yields an unsatisfied equation over every group.
The thin hierarchy S_i collects the faces whose localized view of A is sparse;
non-locality says A sits almost entirely on thin (k-1)-faces.  All comparisons
are exact: thresholds eta^(a/b) go through integer cross-multiplication and
cube-root bounds, and spectral terms enter only through certified rational
upper bounds, so a reported violation of any checked inequality would be a
genuine counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from .complexes import Face, FaceSet, SimplicialComplex
from .errors import (
    BadDimensionError,
    BadIndexError,
    NotNonLocalError,
    NotWeaklyNonLocalError,
    ParameterViolationError,
    UnknownVariantError,
)
from .exact import frac_pow_le, quad_at_cbrt_is_nonneg
from .reporting import CheckReport

ABELIAN = "abelian"
NONABELIAN = "nonabelian"


@dataclass(frozen=True)
class ThinHierarchy:
    """Per-level thin sets S_i for a set A of k-faces at sparsity eta.

    The additive path keeps every level i = k-1 .. -1 with threshold
    eta^(2^(k-i-1)) on the localized mass of the complement of the level
    above; the multiplicative path keeps S_(k-1) at threshold eta^(1/3) and
    S_(k-2) at threshold eta.  Exponents are recorded as (num, den) pairs.
    """

    complex: SimplicialComplex
    k: int
    eta: Fraction
    path: str
    set_a: FrozenSet[Face]
    levels: Dict[int, FrozenSet[Face]]
    exponents: Dict[int, Tuple[int, int]]

    def thin(self, i: int) -> FrozenSet[Face]:
        if i not in self.levels:
            raise BadIndexError(f"no level {i} in this {self.path} hierarchy")
        return self.levels[i]

    def fat(self, i: int) -> FrozenSet[Face]:
        """Complement of S_i inside X(i); at level k it is the set A itself."""
        if i == self.k:
            return self.set_a
        return frozenset(self.complex.faces(i)) - self.thin(i)

    def fat_weight(self, i: int) -> Fraction:
        return self.complex.set_weight(self.fat(i), i)


@dataclass(frozen=True)
class NonLocalVerdict:
    """Classification outcome with the exact measured quantities."""

    passed: bool
    measured: Dict[str, Fraction]
    params: Dict[str, Fraction]
    witness: Optional[Face] = None


def _faces_of(a) -> Tuple[FrozenSet[Face], int, SimplicialComplex]:
    if isinstance(a, FaceSet):
        return a.faces, a.dimension, a.complex
    # Cochain-like: use the support.
    return a.support(), a.dimension, a.complex


def delta1(a: FaceSet) -> FaceSet:
    """(k+1)-faces containing exactly one k-face from A."""
    return delta_i(a, 1)


def delta_i(a: FaceSet, i: int) -> FaceSet:
    """(k+1)-faces containing exactly i k-faces from A; i ranges over 0..k+2."""
    k, X = a.dimension, a.complex
    if k > X.dimension - 1:
        raise BadDimensionError("no faces one dimension above a top-dimensional set")
    if not 0 <= i <= k + 2:
        raise BadIndexError(f"containment count {i} out of range 0..{k + 2}")
    members = np.array([face in a.faces for face in X.faces(k)], dtype=bool)
    hit = np.flatnonzero(members[X.facets(k + 1)].sum(axis=1) == i)
    above = X.faces(k + 1)
    return FaceSet(X, k + 1, frozenset(above[j] for j in hit.tolist()))


def thin_hierarchy(a, eta: Fraction, path: str = ABELIAN) -> ThinHierarchy:
    """Thin-face hierarchy below a set (or the support of a cochain) of k-faces."""
    faces, k, X = _faces_of(a)
    eta = Fraction(eta)
    if not 0 < eta < 1:
        raise ParameterViolationError(f"eta must lie in (0,1), got {eta}")
    if path not in (ABELIAN, NONABELIAN):
        raise UnknownVariantError(f"unknown hierarchy path {path!r}")
    levels: Dict[int, FrozenSet[Face]] = {}
    exponents: Dict[int, Tuple[int, int]] = {}

    if path == NONABELIAN:
        if k < 1:
            raise BadDimensionError("the multiplicative path needs k >= 1")
        levels[k - 1] = _sparse_level(X, faces, k, k - 1, eta, 1, 3)
        exponents[k - 1] = (1, 3)
        levels[k - 2] = _sparse_level(X, faces, k, k - 2, eta, 1, 1)
        exponents[k - 2] = (1, 1)
        return ThinHierarchy(X, k, eta, path, frozenset(faces), levels, exponents)

    # Additive path: S_(k-1) thresholds the localization of A itself, then each
    # S_i thresholds the localization of the complement of S_(i+1).
    levels[k - 1] = _sparse_level(X, faces, k, k - 1, eta, 1, 1)
    exponents[k - 1] = (1, 1)
    for i in range(k - 2, -2, -1):
        above_bad = frozenset(X.faces(i + 1)) - levels[i + 1]
        exponent = 2 ** (k - i - 1)
        levels[i] = _sparse_level(X, above_bad, i + 1, i, eta, exponent, 1)
        exponents[i] = (exponent, 1)
    return ThinHierarchy(X, k, eta, path, frozenset(faces), levels, exponents)


def _sparse_level(
    X: SimplicialComplex,
    members: FrozenSet[Face],
    member_dim: int,
    level: int,
    eta: Fraction,
    exp_num: int,
    exp_den: int,
) -> FrozenSet[Face]:
    """Faces sigma of the level dimension with ||members_sigma|| <= eta^(exp_num/exp_den)."""
    num = {}
    for face in members:
        w = X.weight_numerator(face)
        for sub in combinations(face, level + 1):
            num[sub] = num.get(sub, 0) + w
    d = X.dimension
    factor = comb(d - level, member_dim - level)
    out = []
    for sigma in X.faces(level):
        mass_num = num.get(sigma, 0)
        if mass_num == 0:
            out.append(sigma)
            continue
        local = Fraction(mass_num, X.weight_numerator(sigma) * factor)
        if frac_pow_le(local, eta, exp_num, exp_den):
            out.append(sigma)
    return frozenset(out)


def degenerate_above(f, hierarchy: ThinHierarchy) -> FaceSet:
    """(k+1)-faces holding two fat j-faces, for some level j <= k, that meet in a
    thin (j-1)-face; at level k the fat faces are the members of A.

    Two j-faces inside a (k+1)-face meet in a (j-1)-face t exactly when they
    are t plus one vertex each, so a face qualifies when some thin t inside it
    extends by two of its other vertices to fat j-faces.  Each level maps
    every thin t to the vertices that extend it to a fat face, read off the
    facets of the fat faces.
    """
    _, k, X = _faces_of(f)
    levels: List[Dict[Face, Set[int]]] = []
    for j in range(0, k + 1):
        thin, extend = hierarchy.thin(j - 1), {}
        for face in hierarchy.fat(j):
            for i, u in enumerate(face):
                t = face[:i] + face[i + 1 :]
                if t in thin:
                    extend.setdefault(t, set()).add(u)
        levels.append(extend)
    out = []
    for above in X.faces(k + 1):
        inside = set(above)
        if any(
            len(extend[t] & inside) >= 2
            for j, extend in enumerate(levels)
            for t in combinations(above, j)
            if t in extend
        ):
            out.append(above)
    return FaceSet(X, k + 1, frozenset(out))


def degenerate_inside(a: FaceSet, hierarchy: ThinHierarchy) -> FaceSet:
    """Members of A with two facets outside S_(k-1) that meet in a face of S_(k-2)."""
    k, X = a.dimension, a.complex
    thin_high = hierarchy.thin(k - 1)
    thin_low = hierarchy.thin(k - 2)
    fat_high_universe = frozenset(X.faces(k - 1)) - thin_high
    out = []
    for face in a.faces:
        hit = False
        for drop in combinations(range(k + 1), 2):
            t1 = tuple(v for j, v in enumerate(face) if j != drop[0])
            t2 = tuple(v for j, v in enumerate(face) if j != drop[1])
            if t1 in fat_high_universe and t2 in fat_high_universe:
                inter = tuple(v for j, v in enumerate(face) if j not in drop)
                if inter in thin_low:
                    hit = True
                    break
        if hit:
            out.append(face)
    return FaceSet(X, k, frozenset(out))


def classify_non_local(a: FaceSet, eta: Fraction, eps: Fraction) -> NonLocalVerdict:
    """A is non-local when its mass sits on thin (k-1)-faces up to an eps fraction."""
    eta, eps = Fraction(eta), Fraction(eps)
    for name, val in (("eta", eta), ("eps", eps)):
        if not 0 < val < 1:
            raise ParameterViolationError(f"{name} must lie in (0,1), got {val}")
    hierarchy = thin_hierarchy(a, eta, ABELIAN)
    weight = a.weight
    on_thin = a.complex.mutual_weight_sets(a.faces, a.dimension, hierarchy.thin(a.dimension - 1), a.dimension - 1)
    passed = on_thin >= (1 - eps) * weight
    return NonLocalVerdict(
        passed,
        measured={"weight": weight, "weight_on_thin": on_thin},
        params={"eta": eta, "eps": eps},
    )


def classify_weakly_non_local(
    a: FaceSet, eta: Fraction, eps: Fraction, alpha: Fraction
) -> NonLocalVerdict:
    """Thin (k-2)-mass at least 1 - eps*||A|| and no saturated (k-1)-face."""
    eta, eps, alpha = Fraction(eta), Fraction(eps), Fraction(alpha)
    for name, val in (("eta", eta), ("eps", eps), ("alpha", alpha)):
        if not 0 < val < 1:
            raise ParameterViolationError(f"{name} must lie in (0,1), got {val}")
    k, X = a.dimension, a.complex
    if k < 1:
        raise BadDimensionError("weak non-locality needs k >= 1")
    hierarchy = thin_hierarchy(a, eta, NONABELIAN)
    weight = a.weight
    thin_mass = X.set_weight(hierarchy.thin(k - 2), k - 2)
    witness = None
    saturated_ok = True
    for tau in X.faces(k - 1):
        local = X.localized_weight(a.faces, k, tau)
        if local > 1 - alpha:
            saturated_ok = False
            witness = tau
            break
    passed = thin_mass >= 1 - eps * weight and saturated_ok
    return NonLocalVerdict(
        passed,
        measured={"weight": weight, "thin_mass": thin_mass},
        params={"eta": eta, "eps": eps, "alpha": alpha},
        witness=witness,
    )


def check_delta1_theorem_abelian(
    a: FaceSet, lambda_plus: Fraction, eta: Fraction, eps: Fraction
) -> CheckReport:
    """||delta1(A)|| >= (1 - C(k+2,2)(lambda + eta + 2 eps)) ||A|| for non-local A."""
    lam = Fraction(lambda_plus)
    verdict = classify_non_local(a, eta, eps)
    if not verdict.passed:
        raise NotNonLocalError("the set is not non-local at these parameters")
    k = a.dimension
    lhs = delta1(a).weight
    coefficient = 1 - comb(k + 2, 2) * (lam + Fraction(eta) + 2 * Fraction(eps))
    rhs = coefficient * a.weight
    return CheckReport(
        name="delta1-lower-bound",
        passed=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
        params={"lambda_plus": lam, "eta": Fraction(eta), "eps": Fraction(eps), "k": k},
    )


def check_delta1_theorem_nonabelian(
    a: FaceSet,
    lambda_plus: Fraction,
    eta: Fraction,
    eps: Fraction,
    alpha: Fraction,
) -> CheckReport:
    """||delta1(A)|| >= alpha ||A|| for weakly-non-local A under the stated params.

    Requires eps <= alpha / (3 d^3), lambda <= eps^2, eta <= eps^3.
    """
    lam = Fraction(lambda_plus)
    eta, eps, alpha = Fraction(eta), Fraction(eps), Fraction(alpha)
    d = a.complex.dimension
    k = a.dimension
    if eps > alpha / (3 * d**3) or lam > eps**2 or eta > eps**3:
        raise ParameterViolationError(
            f"need eps <= alpha/(3 d^3), lambda <= eps^2, eta <= eps^3; got "
            f"eps={eps}, alpha={alpha}, lambda_plus={lam}, eta={eta}, d={d}"
        )
    verdict = classify_weakly_non_local(a, eta, eps, alpha)
    if not verdict.passed:
        raise NotWeaklyNonLocalError("the set is not weakly-non-local at these parameters")
    lhs = delta1(a).weight
    rhs = alpha * a.weight
    return CheckReport(
        name="delta1-lower-bound-multiplicative",
        passed=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
        params={"lambda_plus": lam, "eta": eta, "eps": eps, "alpha": alpha, "k": k},
    )


def check_vanishing_corollary_abelian(
    f, lambda_plus: Fraction, eta: Fraction, eps: Fraction
) -> CheckReport:
    """A non-local cocycle must vanish when lambda + eta + 2 eps <= 2/(d+1)^2."""
    lam, eta, eps = Fraction(lambda_plus), Fraction(eta), Fraction(eps)
    X = f.complex
    bound = Fraction(2, (X.dimension + 1) ** 2)
    if lam + eta + 2 * eps > bound:
        raise ParameterViolationError(
            f"need lambda + eta + 2 eps <= {bound}, got {lam + eta + 2 * eps}"
        )
    if not f.is_cocycle():
        raise ParameterViolationError("input must be a cocycle")
    support = FaceSet(X, f.dimension, f.support())
    verdict = classify_non_local(support, eta, eps)
    passed = (not verdict.passed) or f.is_zero()
    return CheckReport(
        name="non-local-cocycles-vanish",
        passed=passed,
        lhs=f.weight(),
        rhs=Fraction(0),
        params={"lambda_plus": lam, "eta": eta, "eps": eps},
        witness=None if passed else sorted(f.support())[:3],
    )


def check_vanishing_corollary_nonabelian(
    a: FaceSet, lambda_plus: Fraction, eta: Fraction, eps: Fraction, alpha: Fraction
) -> CheckReport:
    """A weakly-non-local set with empty delta1 must be empty (under the params)."""
    lam, eta, eps, alpha = Fraction(lambda_plus), Fraction(eta), Fraction(eps), Fraction(alpha)
    d = a.complex.dimension
    if eps > alpha / (3 * d**3) or lam > eps**2 or eta > eps**3:
        raise ParameterViolationError(
            "need eps <= alpha/(3 d^3), lambda <= eps^2, eta <= eps^3"
        )
    if len(delta1(a)) != 0:
        raise ParameterViolationError("input must have empty delta1")
    verdict = classify_weakly_non_local(a, eta, eps, alpha)
    passed = (not verdict.passed) or len(a) == 0
    return CheckReport(
        name="weakly-non-local-with-empty-delta1-vanish",
        passed=passed,
        lhs=a.weight,
        rhs=Fraction(0),
        params={"lambda_plus": lam, "eta": eta, "eps": eps, "alpha": alpha},
    )


# -- hierarchy-level bound checks -------------------------------------------------


def check_fat_mass_bound(hierarchy: ThinHierarchy, f_weight: Fraction) -> CheckReport:
    """||fat_i|| < eta^(1 - 2^(k-i)) ||f|| for every level of an additive hierarchy.

    The degenerate all-empty levels (possible only when ||f|| is tiny) satisfy
    the bound with equality 0 = 0 and are treated as passing.
    """
    if hierarchy.path != ABELIAN:
        raise UnknownVariantError("fat-mass bound applies to the additive hierarchy")
    k, eta, X = hierarchy.k, hierarchy.eta, hierarchy.complex
    worst: Optional[Tuple[int, Fraction, Fraction]] = None
    passed = True
    for i in range(-1, k):
        fat_w = hierarchy.fat_weight(i)
        # fat_w < eta^(1 - 2^(k-i)) * f_weight  <=>  fat_w * eta^(2^(k-i) - 1) < f_weight
        exponent = 2 ** (k - i) - 1
        lhs = fat_w * eta**exponent
        ok = lhs < f_weight or fat_w == 0
        if not ok:
            passed = False
            worst = (i, fat_w, f_weight / eta**exponent)
            break
    return CheckReport(
        name="fat-mass-per-level",
        passed=passed,
        lhs=None if worst is None else worst[1],
        rhs=None if worst is None else worst[2],
        params={"eta": eta, "k": k},
        witness=None if worst is None else worst[0],
    )


def check_empty_face_is_thin(hierarchy: ThinHierarchy, f_weight: Fraction) -> CheckReport:
    """If ||f|| <= eta^(2^(k+1) - 1) then the empty face is thin (S_-1 has mass 1)."""
    if hierarchy.path != ABELIAN:
        raise UnknownVariantError("the empty-face check applies to the additive hierarchy")
    k, eta = hierarchy.k, hierarchy.eta
    threshold = eta ** (2 ** (k + 1) - 1)
    applicable = f_weight <= threshold
    bottom_mass = Fraction(1) if () in hierarchy.thin(-1) else Fraction(0)
    return CheckReport(
        name="empty-face-is-thin",
        passed=(not applicable) or bottom_mass == 1,
        lhs=bottom_mass,
        rhs=Fraction(1),
        params={"eta": eta, "k": k, "threshold": threshold, "applicable": applicable},
    )


def check_upsilon_bound_abelian(
    f, hierarchy: ThinHierarchy, lambda_plus: Fraction
) -> CheckReport:
    """||Upsilon|| <= eta C(k+2,2) 2^(k+2) ||f||, assuming lambda <= eta^(2^(d-1))."""
    faces, k, X = _faces_of(f)
    lam, eta = Fraction(lambda_plus), hierarchy.eta
    if not frac_pow_le(lam, eta, 2 ** (X.dimension - 1), 1):
        raise ParameterViolationError(
            f"need lambda <= eta^(2^(d-1)); lambda_plus={lam}, eta={eta}"
        )
    ups = degenerate_above(f, hierarchy)
    lhs = ups.weight
    f_weight = X.set_weight(faces, k)
    rhs = eta * comb(k + 2, 2) * 2 ** (k + 2) * f_weight
    return CheckReport(
        name="degenerate-above-set-mass",
        passed=lhs <= rhs,
        lhs=lhs,
        rhs=rhs,
        params={"eta": eta, "lambda_plus": lam, "k": k},
    )


def check_upsilon_bound_nonabelian(
    a: FaceSet, hierarchy: ThinHierarchy, lambda_plus: Fraction
) -> CheckReport:
    """||Upsilon|| <= C(k+1,2) (eta^(1/3) + lambda eta^(-1/3)) ||A||, exactly.

    Multiplying through by eta^(1/3) = t turns the comparison into the sign of
    the rational quadratic  C ||A|| t^2 - ||Upsilon|| t + C lambda ||A||  at t.
    """
    k = a.dimension
    lam, eta = Fraction(lambda_plus), hierarchy.eta
    ups = degenerate_inside(a, hierarchy)
    lhs = ups.weight
    c = comb(k + 1, 2)
    a_weight = a.weight
    passed = quad_at_cbrt_is_nonneg(c * a_weight, -lhs, c * lam * a_weight, eta)
    return CheckReport(
        name="degenerate-inside-set-mass",
        passed=passed,
        lhs=lhs,
        rhs=None,
        params={"eta": eta, "lambda_plus": lam, "k": k, "coefficient": c},
        notes="rhs = C(k+1,2) (eta^(1/3) + lambda eta^(-1/3)) ||A||, compared exactly",
    )

