"""Exactly-one-covered faces, thin-face hierarchies, and non-local sets.

For a set A of k-faces, delta1(A) is the set of (k+1)-faces containing exactly
one member of A; such a face yields an unsatisfied equation over every group.
The thin hierarchy S_i collects the faces whose localized view of A is sparse;
non-locality says A sits almost entirely on thin (k-1)-faces.

Every set is a ``FaceSet``, a boolean row over ``X.faces(k)`` (a cochain's
is ``f.support()``), and every incidence is read from the facet tables
(``SimplicialComplex.facets``), a face below codimension 1 by dropping places
from the last one down.  One kernel, ``localized_weights``, gives ||A_sigma||
for every sigma of a level; the hierarchy levels, weak non-locality and the
correction layer's saturation diagnostic read it.  The face-by-face
``SimplicialComplex.localized_weight`` and ``mutual_weight_sets`` remain as
the references it is tested against.  All comparisons are exact: thresholds
eta^(a/b) go through integer cross-multiplication and cube-root bounds, and
spectral terms enter only through certified rational upper bounds, so a
reported violation of any checked inequality would be a genuine
counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from .complexes import Face, FaceSet, SimplicialComplex
from .errors import (
    BadDimensionError,
    BadIndexError,
    DimensionMismatchError,
    NotNonLocalError,
    NotWeaklyNonLocalError,
    ParameterViolationError,
    UnknownVariantError,
)
from .exact import frac_pow_le, quad_at_cbrt_is_nonneg
from .reporting import CheckReport

ABELIAN = "abelian"
NONABELIAN = "nonabelian"
_ZERO = Fraction(0)


@dataclass(frozen=True, eq=False)
class ThinHierarchy:
    """Per-level thin sets S_i for a set A of k-faces at sparsity eta.

    The additive path keeps every level i = k-1 .. -1 with threshold
    eta^(2^(k-i-1)) on the localized mass of the complement of the level
    above; the multiplicative path keeps S_(k-1) at threshold eta^(1/3) and
    S_(k-2) at threshold eta.  Each level is a boolean row over the faces of
    its dimension; exponents are recorded as (num, den) pairs.
    """

    complex: SimplicialComplex
    k: int
    eta: Fraction
    path: str
    members: FaceSet
    levels: Dict[int, np.ndarray]
    exponents: Dict[int, Tuple[int, int]]

    def row(self, i: int) -> np.ndarray:
        """S_i as a read-only boolean row over X.faces(i)."""
        if i not in self.levels:
            raise BadIndexError(f"no level {i} in this {self.path} hierarchy")
        return self.levels[i]

    def thin(self, i: int) -> FrozenSet[Face]:
        return frozenset(self.complex.faces_where(i, self.row(i)))

    def members_of(self, a: FaceSet) -> np.ndarray:
        """A's member row, once A is the set this hierarchy was built for."""
        if a != self.members:
            raise DimensionMismatchError("the hierarchy was built for another set, dimension or complex")
        return a.row


@dataclass(frozen=True)
class NonLocalVerdict:
    """Classification outcome with the exact measured quantities."""

    passed: bool
    measured: Dict[str, Fraction]
    params: Dict[str, Fraction]
    witness: Optional[Face] = None


def _in_unit_interval(**params) -> Tuple[Fraction, ...]:
    """The parameters as Fractions, in order; ParameterViolationError unless each lies in (0, 1)."""
    values = tuple(map(Fraction, params.values()))
    for name, val in zip(params, values):
        if not 0 < val < 1:
            raise ParameterViolationError(f"{name} must lie in (0,1), got {val}")
    return values


def _subfaces(X: SimplicialComplex, at: np.ndarray, k: int, level: int) -> np.ndarray:
    """Row r: the indices in X.faces(level) of the level-faces inside
    X.faces(k)[at[r]], each once.  One facet table per step gathers every
    chain of dropped places; the chains that drop places from the last one
    down, which leaves the places below untouched, name each subface once."""
    sub = at
    for dim in range(k, level, -1):
        sub = X.facets(dim)[sub]
    if k - level > 1:
        places = np.indices(sub.shape[1:]).reshape(k - level, -1)
        sub = sub.reshape(len(at), places.shape[1])[:, (places[:-1] > places[1:]).all(axis=0)]
    return sub


def localized_weights(X: SimplicialComplex, members: np.ndarray, k: int, level: int) -> List[Fraction]:
    """||A_sigma|| for every sigma in X(level), in order, where A is the set of
    k-faces that members, a boolean row over them, marks: the numerators of the
    members holding sigma, over num(sigma) C(d - level, k - level)."""
    at = members.nonzero()[0]
    num = X.weight_numerators(k)
    mass = np.zeros(X.face_count(level), dtype=num.dtype)
    np.add.at(mass, _subfaces(X, at, k, level), num[at, None])
    scale = comb(X.dimension - level, k - level)
    below = X.weight_numerators(level).tolist()
    return [Fraction(m, n * scale) if m else _ZERO for m, n in zip(mass.tolist(), below)]


def _sparse_level(X, members, k, level, eta, exp_num, exp_den) -> np.ndarray:
    """The row of sigma in X(level) with ||members_sigma|| <= eta^(exp_num/exp_den)."""
    weights = localized_weights(X, members, k, level)
    return np.array([not w or frac_pow_le(w, eta, exp_num, exp_den) for w in weights], dtype=bool)


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
    return FaceSet(X, k + 1, a.row[X.facets(k + 1)].sum(axis=1) == i)


def thin_hierarchy(a: FaceSet, eta: Fraction, path: str = ABELIAN) -> ThinHierarchy:
    """Thin-face hierarchy below a set of k-faces."""
    members, k, X = a.row, a.dimension, a.complex
    (eta,) = _in_unit_interval(eta=eta)
    if path not in (ABELIAN, NONABELIAN):
        raise UnknownVariantError(f"unknown hierarchy path {path!r}")
    if path == NONABELIAN:
        if k < 1:
            raise BadDimensionError("the multiplicative path needs k >= 1")
        exponents = {k - 1: (1, 3), k - 2: (1, 1)}
    else:
        exponents = {i: (2 ** (k - i - 1), 1) for i in range(k - 1, -2, -1)}
    # The multiplicative levels and the additive S_(k-1) threshold the localization
    # of A itself; each lower additive S_i that of the complement of S_(i+1).
    levels: Dict[int, np.ndarray] = {}
    for i, (num, den) in exponents.items():
        if path == NONABELIAN or i == k - 1:
            levels[i] = _sparse_level(X, members, k, i, eta, num, den)
        else:
            levels[i] = _sparse_level(X, ~levels[i + 1], i + 1, i, eta, num, den)
    for row in levels.values():
        row.flags.writeable = False
    return ThinHierarchy(X, k, eta, path, a, levels, exponents)


def _pinched(X: SimplicialComplex, at: np.ndarray, dim: int, fat: np.ndarray, thin: np.ndarray) -> np.ndarray:
    """For the dim-faces at indices at: whether two of their facets in the row
    fat meet in a face in the row thin.  Dropping place i and then a place
    below i leaves the face without both."""
    up, below = X.facets(dim)[at], X.facets(dim - 1)
    out = np.zeros(len(at), dtype=bool)
    for i in range(dim + 1):
        for j in range(i):
            out |= fat[up[:, i]] & fat[up[:, j]] & thin[below[up[:, i], j]]
    return out


def degenerate_above(a: FaceSet, hierarchy: ThinHierarchy) -> FaceSet:
    """(k+1)-faces holding two fat j-faces, for some level j <= k, that meet in a
    thin (j-1)-face; at level k the fat faces are the members of A.

    Two such j-faces span a (j+1)-face, whose facets they are, so a face
    qualifies when it holds a (j+1)-face pinched at level j.  Holding one
    passes up the facet tables a dimension at a time.
    """
    members, k, X = hierarchy.members_of(a), hierarchy.k, hierarchy.complex
    held = np.zeros(X.face_count(0), dtype=bool)
    for j in range(k + 1):
        fat = members if j == k else ~hierarchy.row(j)
        at = np.arange(X.face_count(j + 1))
        held = held[X.facets(j + 1)].any(axis=1) | _pinched(X, at, j + 1, fat, hierarchy.row(j - 1))
    return FaceSet(X, k + 1, held)


def degenerate_inside(a: FaceSet, hierarchy: ThinHierarchy) -> FaceSet:
    """Members of A with two facets outside S_(k-1) that meet in a face of S_(k-2)."""
    k, X = a.dimension, a.complex
    at = hierarchy.members_of(a).nonzero()[0]
    inside = np.zeros_like(a.row)
    inside[at] = _pinched(X, at, k, ~hierarchy.row(k - 1), hierarchy.row(k - 2))
    return FaceSet(X, k, inside)


def classify_non_local(a: FaceSet, eta: Fraction, eps: Fraction) -> NonLocalVerdict:
    """A is non-local when its mass sits on thin (k-1)-faces up to an eps fraction."""
    eta, eps = _in_unit_interval(eta=eta, eps=eps)
    k, X, members, weight = a.dimension, a.complex, a.row, a.weight
    # Pr over a k-face of A and one of its facets that the facet is in S_(k-1),
    # the top level of the additive hierarchy.
    at = members.nonzero()[0]
    hits = _sparse_level(X, members, k, k - 1, eta, 1, 1)[X.facets(k)[at]].sum(axis=1)
    total = sum(n * h for n, h in zip(X.weight_numerators(k)[at].tolist(), hits.tolist()))
    on_thin = Fraction(total, X.weight_denominator(k) * (k + 1))
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
    eta, eps, alpha = _in_unit_interval(eta=eta, eps=eps, alpha=alpha)
    k, X = a.dimension, a.complex
    if k < 1:
        raise BadDimensionError("weak non-locality needs k >= 1")
    members, weight = a.row, a.weight
    # S_(k-2) of the multiplicative hierarchy.
    thin_mass = X.mask_weight(_sparse_level(X, members, k, k - 2, eta, 1, 1), k - 2)
    weights, bound = localized_weights(X, members, k, k - 1), 1 - alpha
    witness = next((tau for tau, w in zip(X.faces(k - 1), weights) if w > bound), None)
    passed = thin_mass >= 1 - eps * weight and witness is None
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
    verdict = classify_non_local(a, eta, eps)
    if not verdict.passed:
        raise NotNonLocalError("the set is not non-local at these parameters")
    return _delta1_bound(a, delta1(a), lambda_plus, verdict)


def _delta1_bound(a: FaceSet, d1: FaceSet, lambda_plus: Fraction, verdict: NonLocalVerdict) -> CheckReport:
    """check_delta1_theorem_abelian given delta1(A) and A's passing non-local verdict."""
    lam, eta, eps, k = Fraction(lambda_plus), verdict.params["eta"], verdict.params["eps"], a.dimension
    lhs = d1.weight
    rhs = (1 - comb(k + 2, 2) * (lam + eta + 2 * eps)) * a.weight
    return CheckReport(
        name="delta1-lower-bound",
        passed=lhs >= rhs,
        lhs=lhs,
        rhs=rhs,
        params={"lambda_plus": lam, "eta": eta, "eps": eps, "k": k},
    )


def _require_nonabelian_premises(lam: Fraction, eta: Fraction, eps: Fraction, alpha: Fraction, d: int) -> None:
    """The premises of the non-abelian statements on a d-complex, refused with the values given."""
    if eps > alpha / (3 * d**3) or lam > eps**2 or eta > eps**3:
        raise ParameterViolationError(
            f"need eps <= alpha/(3 d^3), lambda <= eps^2, eta <= eps^3; got "
            f"eps={eps}, alpha={alpha}, lambda_plus={lam}, eta={eta}, d={d}"
        )


def check_delta1_theorem_nonabelian(
    a: FaceSet, lambda_plus: Fraction, eta: Fraction, eps: Fraction, alpha: Fraction
) -> CheckReport:
    """||delta1(A)|| >= alpha ||A|| for weakly-non-local A under the stated params.

    Requires eps <= alpha / (3 d^3), lambda <= eps^2, eta <= eps^3.
    """
    lam, eta, eps, alpha = Fraction(lambda_plus), Fraction(eta), Fraction(eps), Fraction(alpha)
    _require_nonabelian_premises(lam, eta, eps, alpha, a.complex.dimension)
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
        params={"lambda_plus": lam, "eta": eta, "eps": eps, "alpha": alpha, "k": a.dimension},
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
    support = f.support()
    verdict = classify_non_local(support, eta, eps)
    passed = (not verdict.passed) or f.is_zero()
    return CheckReport(
        name="non-local-cocycles-vanish",
        passed=passed,
        lhs=f.weight(),
        rhs=Fraction(0),
        params={"lambda_plus": lam, "eta": eta, "eps": eps},
        witness=None if passed else list(support)[:3],
    )


def check_vanishing_corollary_nonabelian(
    a: FaceSet, lambda_plus: Fraction, eta: Fraction, eps: Fraction, alpha: Fraction
) -> CheckReport:
    """A weakly-non-local set with empty delta1 must be empty (under the params)."""
    lam, eta, eps, alpha = Fraction(lambda_plus), Fraction(eta), Fraction(eps), Fraction(alpha)
    _require_nonabelian_premises(lam, eta, eps, alpha, a.complex.dimension)
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
        fat_w = X.mask_weight(~hierarchy.row(i), i)
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
    bottom_mass = Fraction(1) if hierarchy.row(-1)[0] else Fraction(0)
    return CheckReport(
        name="empty-face-is-thin",
        passed=(not applicable) or bottom_mass == 1,
        lhs=bottom_mass,
        rhs=Fraction(1),
        params={"eta": eta, "k": k, "threshold": threshold, "applicable": applicable},
    )


def check_upsilon_bound_abelian(
    a: FaceSet, hierarchy: ThinHierarchy, lambda_plus: Fraction
) -> CheckReport:
    """||Upsilon|| <= eta C(k+2,2) 2^(k+2) ||A||, assuming lambda <= eta^(2^(d-1))."""
    hierarchy.members_of(a)  # another set's hierarchy is refused before the premise
    k, X = a.dimension, a.complex
    lam, eta = Fraction(lambda_plus), hierarchy.eta
    if not frac_pow_le(lam, eta, 2 ** (X.dimension - 1), 1):
        raise ParameterViolationError(
            f"need lambda <= eta^(2^(d-1)); lambda_plus={lam}, eta={eta}"
        )
    lhs = degenerate_above(a, hierarchy).weight
    rhs = eta * comb(k + 2, 2) * 2 ** (k + 2) * a.weight
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

