"""Minimality testing and the iterative local-correction algorithm.

A cochain is minimal when no coboundary shift reduces its weight, and locally
minimal when every vertex localization is minimal in its link.  The correction
loop repeatedly fixes the vertex whose link admits the largest weight decrease
(ties to the smallest vertex id; within a link, see ``_search_link``), so
traces are reproducible.  Each run checks its own contracts:
the coboundary weight strictly decreases, the step count and total movement
respect their a-priori bounds, and when the input coboundary is small enough
the output classification is verified; any violation raises
FalsificationError rather than passing silently.

Both paths run one link search, ``_search_link``, and one loop over the
vertices.  A step at v rewrites the (j-1)-cochain on the faces through v and
scores every j-face of the star of v by its weight: the additive path scores
h_v + delta(w) on the link, the multiplicative path the triangles
x(u) f(vu) f(uw) f(wv) x(w)^-1 for new edge values f'(v, u) = x(u) f(v, u).
The reported decrease is thus the exact drop of the coboundary weight.

Every exhaustive search here (the link searches of a step and the minimality
scans) is one block scan, ``_scan_first_min``.  It walks G^n in lexicographic
mixed-radix order, the order of ``itertools.product``, in blocks of about
``_BLOCK_CELLS`` cells, so memory stays flat.  A block's face values come from
the face-product kernel of ``cochains`` on columns read from the facet table
of the complex, its face weights from one matrix-vector product of the
non-identity mask; a link search reads the star of v, and its facet table,
from X's own tables (``_star``) and builds no link.  The first minimum wins:
argmin within a block, a strict comparison across blocks, so ties resolve
exactly as in a plain loop over ``product``.  A link search first keeps the
tied minimizers that rewrite the least weight, so a step moves as little as
it can.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, isqrt
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cochains import (
    DELTA0_TERMS,
    DELTA1_TERMS,
    Cochain,
    Terms,
    additive_terms,
    coboundary_abelian,
    coboundary_nonabelian_1,
    distance,
    face_products,
    oriented,
    term_columns,
)
from .complexes import FaceSet, SimplicialComplex
from .errors import (
    AlreadyLocallyMinimalError,
    BadDimensionError,
    DisconnectedGraphError,
    FalsificationError,
    NonAbelianGroupError,
    ParameterViolationError,
    PremiseFailedError,
    UndefinedCoboundaryError,
    WrongDimensionError,
)
from .expansion import classify_non_local, classify_weakly_non_local
from .groups import FiniteGroup
from .oracle import (
    EnumerationBudget,
    cosystolic_expansion_constants,
    link_coboundary_beta,
    space_size,
)
from .reporting import CheckReport
from .spectral import local_spectral_lambda


# -- the block scan ----------------------------------------------------------------

#: Cells (rows x columns) per block of the assignment scan; bounds its memory.
_BLOCK_CELLS = 1 << 12


def _scan_first_min(
    G: FiniteGroup,
    n: int,
    const: Sequence[int],
    left: Sequence[np.ndarray],
    right: Sequence[np.ndarray],
    weights: Sequence[int],
    stop_below: Optional[int] = None,
    moved: Optional[Sequence[int]] = None,
) -> Tuple[int, Tuple[int, ...]]:
    """First x in G^n, in ``product`` order, minimizing the weighted count of faces
    whose value  x[left...] * const * x[right...]  is not the identity.

    The columns are those of ``face_products``, which evaluates each block of
    consecutive assignments; argmin keeps the first minimum in a block and a
    strict comparison the first across blocks.  With ``moved``, one weight per
    coordinate of x, the minimizers are first ranked by the moved weight of
    their non-identity coordinates; only the rows that tie a block's minimum
    are weighed.  With ``stop_below`` the scan ends at the first block whose
    minimum falls below it.  Returns (weight, assignment).
    """
    m = len(const)
    w, mw = _exact(weights), _exact([0] * n if moved is None else moved)
    const_row = np.asarray(const, dtype=np.int64)
    order, total = G.order, G.order**n
    place = order ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = max(1, _BLOCK_CELLS // max(m, n))
    best: Optional[Tuple[Tuple[int, int], Tuple[int, ...]]] = None
    for start in range(0, total, rows):
        x = np.arange(start, min(start + rows, total), dtype=np.int64)[:, None] // place % order
        counts = (face_products(G, x, const_row, left, right) != 0) @ w
        low = counts.min()
        if best is not None and low > best[0][0]:
            continue
        ties = np.flatnonzero(counts == low)
        shift = (x[ties] != 0) @ mw
        i = int(ties[np.argmin(shift)])
        key = (int(low), int(shift.min()))
        if best is None or key < best[0]:
            best = (key, tuple(int(a) for a in x[i]))
            if stop_below is not None and key[0] < stop_below:
                break
    assert best is not None
    return best[0][0], best[1]


def _exact(weights: Sequence[int]) -> np.ndarray:
    """Weights as int64, or Python ints when their sum could pass int64."""
    return np.array(weights, dtype=np.int64 if sum(weights) < 2**63 else object)


def _inverse(terms: Terms) -> Terms:
    """Terms of the inverse product: reversed order, each factor inverted."""
    return tuple((i, not inverted) for i, inverted in reversed(terms))


# -- minimality -------------------------------------------------------------------


def is_minimal(f: Cochain, budget: Optional[EnumerationBudget] = None) -> bool:
    """Exact minimality by scanning the relevant coboundary space with early exit.

    Abelian cochains compare against all shifts delta(g), g one level down
    (constants when k = 0); non-abelian 1-cochains compare against the vertex
    action, non-abelian 2-cochains against shifts by images of 1-cochains.
    """
    budget = budget or EnumerationBudget.default()
    X, G, k = f.complex, f.group, f.dimension
    if f.is_zero():
        return True
    left: Terms = ()
    if G.is_abelian or k == 0:
        # f - delta(g), with g on X(k-1); X(-1) = {()} carries the constants.
        right = _inverse(additive_terms(k - 1))
    elif k == 1:
        # The vertex action h(u) f(uv) h(v)^-1.
        left, right = DELTA0_TERMS[:1], DELTA0_TERMS[1:]
    elif k == 2:
        # f(uvw) (g(uv) g(vw) g(uw)^-1)^-1 = f(uvw) g(uw) g(vw)^-1 g(uv)^-1
        right = _inverse(DELTA1_TERMS)
    else:
        raise UndefinedCoboundaryError("no coboundary space for this (group, dimension)")
    lower = X.faces(k - 1)
    budget.ensure(space_size(G, len(lower)), "minimality scan")
    weights = X.weight_numerators(k).tolist()
    target_num = sum(weights[j] for j in np.flatnonzero(f.row).tolist())
    best, _ = _scan_first_min(
        G,
        len(lower),
        f.row,
        term_columns(X.facets(k), len(lower), left),
        term_columns(X.facets(k), len(lower), right),
        weights,
        stop_below=target_num,
    )
    return best >= target_num


def is_locally_minimal(
    f: Cochain, budget: Optional[EnumerationBudget] = None
) -> Tuple[bool, Optional[int]]:
    """True when every vertex localization is minimal in its link; else a witness."""
    budget = budget or EnumerationBudget.default()
    for v in sorted(f.complex.vertices()):
        local = f.localize((v,))
        if local.is_zero():
            continue
        if not is_minimal(local, budget):
            return False, v
    return True, None


# -- one correction step ----------------------------------------------------------


@dataclass
class _LinkSearch:
    vertex: int
    decrease_num: int
    assignment: Tuple[int, ...]


def _search_link(
    target: Cochain,
    v: int,
    local: Callable[[int], np.ndarray],
    left: Terms,
    right: Terms,
    budget: EnumerationBudget,
    beat: int = 0,
) -> Optional[_LinkSearch]:
    """Best correction of the j-cochain target at v, if it gains more than ``beat``.

    The star of v holds one j-face v + tau per (j-1)-face tau of link(v),
    weighted by its numerator.  An assignment x of the (j-2)-faces of the link
    gives every tau the value  x[left...] * local(v)[tau] * x[right...], local(v)
    being a value row over the (j-1)-faces of the link.  The x minimizing the
    mass of the non-identity values wins; among those, the x whose non-identity
    entries carry the least mass of the faces v + sigma they rewrite, then the
    first in product order.  The old star mass is the mass of target's support
    in the star, so the decrease is the exact drop of the weight numerator of
    target.  A star whose old mass is at most ``beat`` cannot gain more and is
    not scanned; the budget is checked before that skip, so refusals do not
    depend on it.
    """
    X, G, j = target.complex, target.group, target.dimension
    at = X.link_index((v,), j - 1)[0]
    star = X.weight_numerators(j)[at].tolist()
    old_star = sum(num for num, hit in zip(star, target.row[at].tolist()) if hit)
    if not old_star:
        return None
    lower = X.link_index((v,), j - 2)[0]
    n = len(lower)
    budget.ensure(space_size(G, n), f"link correction scan at {v}")
    if old_star <= beat:
        return None
    table, _ = _star(X, v, j)
    new_star, assignment = _scan_first_min(
        G,
        n,
        local(v),
        term_columns(table, n, left),
        term_columns(table, n, right),
        star,
        moved=X.weight_numerators(j - 1)[lower].tolist(),
    )
    if old_star - new_star <= beat:
        return None
    return _LinkSearch(v, old_star - new_star, assignment)


def _star(X: SimplicialComplex, v: int, j: int) -> Tuple[np.ndarray, np.ndarray]:
    """The facet table of link(v)(j-1), read from X's facet table of X(j): the
    facets of v + tau that hold v are v + each facet of tau, in order.  Also
    the index in X(j-1) of each tau, the facet of v + tau without v."""
    at, lower = X.link_index((v,), j - 1)[0], X.link_index((v,), j - 2)[0]
    facets = X.facets(j)[at]
    pos = np.searchsorted(lower, facets)
    holds = lower.take(pos, mode="clip") == facets
    return pos[holds].reshape(len(at), j), facets[~holds]


def _local(f: Cochain, v: int) -> np.ndarray:
    """The value row of f.localize((v,)), read with no link built."""
    at, odd = f.complex.link_index((v,), f.dimension - 1)
    return oriented(f.group, f.row[at], odd)


def _best_link_search(
    target: Cochain,
    local: Callable[[int], np.ndarray],
    left: Terms,
    right: Terms,
    budget: EnumerationBudget,
) -> _LinkSearch:
    """The vertex search with the largest decrease, ties to the smallest id."""
    best: Optional[_LinkSearch] = None
    for v in sorted(target.complex.vertices()):
        beat = best.decrease_num if best else 0
        best = _search_link(target, v, local, left, right, budget, beat) or best
    if best is None:
        raise AlreadyLocallyMinimalError("no vertex link admits a decreasing correction")
    return best


def _lift_assignment(f: Cochain, v: int, assignment: Sequence[int]) -> Cochain:
    """f with its values on the faces v + tau through v replaced by an
    assignment to the faces tau of link(v), oriented as (v,) + tau."""
    X, G, k = f.complex, f.group, f.dimension
    at, odd = X.link_index((v,), k - 1)
    row = f.row.copy()
    row[at] = oriented(G, np.asarray(assignment, dtype=row.dtype), odd)
    return Cochain.of_row(X, k, G, row)


def one_step_abelian(
    h: Cochain, budget: Optional[EnumerationBudget] = None
) -> Tuple[int, Cochain, Cochain]:
    """One correction step for a non-locally-minimal abelian cochain.

    Returns (v, g, h - delta(g)) with g supported on faces containing v,
    ||g|| <= dim(h)*||v|| and ||h - delta(g)|| < ||h||.  The link search at v
    minimizes the star mass of h_v + delta(w) over the (j-2)-faces w of link(v).
    """
    budget = budget or EnumerationBudget.default()
    if not h.group.is_abelian:
        raise NonAbelianGroupError("the additive step needs an abelian group")
    if h.dimension < 1:
        raise BadDimensionError("nothing below dimension 0 to correct with")
    right = additive_terms(h.dimension - 2)
    best = _best_link_search(h, lambda v: _local(h, v), (), right, budget)
    g = _lift_assignment(Cochain(h.complex, h.dimension - 1, h.group), best.vertex, best.assignment)
    new_h = h - coboundary_abelian(g)
    j = h.dimension
    v_weight = h.complex.face_weight((best.vertex,))
    if g.weight() > j * v_weight:
        raise FalsificationError("correction support bound ||g|| <= j ||v|| failed")
    if not new_h.weight() < h.weight():
        raise FalsificationError("correction step failed to decrease the weight")
    return best.vertex, g, new_h


def _triangles_at(f: Cochain, v: int) -> np.ndarray:
    """f(vu) f(uw) f(wv) on each edge uw of link(v), as a value row over the
    link's edges: the vertex action of u -> f(v, u) on f's values there, one
    face-product call on the star's facet table."""
    table, rim = _star(f.complex, v, 2)
    spokes = _local(f, v)
    left, right = (term_columns(table, len(spokes), terms) for terms in (DELTA0_TERMS[:1], DELTA0_TERMS[1:]))
    return face_products(f.group, spokes[None, :], f.row[rim], left, right)[0]


def one_step_nonabelian(
    f: Cochain, budget: Optional[EnumerationBudget] = None, df: Optional[Cochain] = None
) -> Tuple[int, Cochain, Cochain]:
    """One multiplicative correction step on a 1-cochain of a 3-complex.

    Returns (v, f', delta(f')) with f' differing from f only on edges at v,
    dist(f, f') <= 2 ||v|| and ||delta(f')|| < ||delta(f)||; df, when given,
    is delta(f).  The link search at v scans offsets x(u), the new values
    being y(u) = f'(v, u) = x(u) f(v, u): the triangle vuw then carries
    x(u) f(vu) f(uw) f(wv) x(w)^-1, which is d0 with f's own triangle in
    between.  An offset x(u) other than the identity rewrites the edge vu, so
    ties go to the offsets that rewrite the least edge mass.
    """
    budget = budget or EnumerationBudget.default()
    X, G = f.complex, f.group
    if X.dimension != 3:
        raise WrongDimensionError("the multiplicative correction path needs a 3-complex")
    if f.dimension != 1:
        raise BadDimensionError("the multiplicative correction path corrects 1-cochains")
    if df is None:
        df = coboundary_nonabelian_1(f)
    best = _best_link_search(
        df, lambda v: _triangles_at(f, v), DELTA0_TERMS[:1], DELTA0_TERMS[1:], budget
    )
    shift = _local(f, best.vertex)
    y = G.op_array(np.asarray(best.assignment, dtype=shift.dtype), shift)
    f_new = _lift_assignment(f, best.vertex, y)
    if distance(f, f_new) > 2 * X.face_weight((best.vertex,)):
        raise FalsificationError("edge-update bound dist(f, f') <= 2 ||v|| failed")
    df_new = coboundary_nonabelian_1(f_new)
    if not df_new.weight() < df.weight():
        raise FalsificationError("multiplicative step failed to decrease ||delta||")
    return best.vertex, f_new, df_new


# -- the full correction loop ------------------------------------------------------


@dataclass
class StepRecord:
    step: int
    vertex: int
    delta_weight_before: Fraction
    delta_weight_after: Fraction
    moved: Fraction


@dataclass
class CorrectionTrace:
    path: str
    steps: List[StepRecord] = field(default_factory=list)
    initial_delta_weight: Fraction = Fraction(0)
    final_delta_weight: Fraction = Fraction(0)
    total_moved: Fraction = Fraction(0)
    r_bound: Fraction = Fraction(0)
    dist_bound: Fraction = Fraction(0)
    locally_minimal: bool = False
    verdict: Optional[Dict[str, object]] = None
    diagnostics: List[CheckReport] = field(default_factory=list)

    @property
    def step_count(self) -> int:
        return len(self.steps)


def _correct(
    f: Cochain, path: str, budget: EnumerationBudget
) -> Tuple[Cochain, CorrectionTrace, Cochain]:
    """Step until no vertex link improves f; returns (f', trace, delta(f')).

    The additive step corrects the coboundary and returns g, so f' = f - g;
    the multiplicative step returns f' itself.  Each step also returns the new
    coboundary, delta(f') = delta(f) - delta(g) on the additive path, so a run
    computes 1 + steps coboundaries.  The steps are looked up as module
    globals at each call, so wrappers installed on them see every step.
    """
    delta = coboundary_abelian if path == "abelian" else coboundary_nonabelian_1
    trace = CorrectionTrace(path=path)
    current, h = f, delta(f)
    trace.initial_delta_weight = h.weight()
    while True:
        try:
            if path == "abelian":
                v, g, new_h = one_step_abelian(h, budget)
                updated = current - g
            else:
                v, updated, new_h = one_step_nonabelian(current, budget, h)
        except AlreadyLocallyMinimalError:
            break
        before, moved = h.weight(), distance(current, updated)
        current, h = updated, new_h
        after = h.weight()
        trace.steps.append(StepRecord(len(trace.steps) + 1, v, before, after, moved))
        if not after < before:
            raise FalsificationError("correction loop failed strict monotonicity")
    trace.final_delta_weight = h.weight()
    trace.locally_minimal = True
    trace.total_moved = distance(f, current)
    return current, trace, h


def _check_trace_bounds(trace: CorrectionTrace) -> None:
    """Raise FalsificationError when a finished loop breaks its a-priori bounds."""
    if trace.step_count > trace.r_bound:
        raise FalsificationError(
            f"step count {trace.step_count} exceeds the bound {trace.r_bound}"
        )
    if trace.total_moved > trace.dist_bound:
        raise FalsificationError(
            f"moved {trace.total_moved}, over the bound {trace.dist_bound}"
        )
    if trace.final_delta_weight > trace.initial_delta_weight:
        raise FalsificationError("||delta|| grew over the correction loop")


def _classifies(**params: Optional[Fraction]) -> bool:
    """Whether a run classifies its output: all of params given, each in (0, 1)
    and beta in (0, 1], or none; else ParameterViolationError."""
    given = [name for name, val in params.items() if val is not None]
    if given and len(given) < len(params):
        raise ParameterViolationError(f"a classification needs {', '.join(params)}; got only {', '.join(given)}")
    for name, val in params.items():
        if val is not None and not (0 < val < 1 or name == "beta" and val == 1):
            raise ParameterViolationError(f"{name} must lie in (0,1{']' if name == 'beta' else ')'}, got {val}")
    return bool(given)


def correct_abelian(
    f: Cochain,
    budget: Optional[EnumerationBudget] = None,
    eta: Optional[Fraction] = None,
    eps: Optional[Fraction] = None,
) -> Tuple[Cochain, CorrectionTrace]:
    """Correct f until its coboundary is locally minimal; verify the trace bounds.

    With eta and eps given and ||delta(f)|| below eta^(2^(k+2)-1), the output
    coboundary's support must classify as non-local; a failure of that or of
    any trace bound raises FalsificationError.  Bad parameters are refused first.
    """
    budget = budget or EnumerationBudget.default()
    X, G, k = f.complex, f.group, f.dimension
    if not G.is_abelian:
        raise NonAbelianGroupError("use correct_nonabelian for non-abelian groups")
    if not 1 <= k <= X.dimension - 2:
        raise BadDimensionError(f"correction needs 1 <= k <= d-2, got k={k}, d={X.dimension}")
    classify = _classifies(eta=eta, eps=eps)
    current, trace, h = _correct(f, "abelian", budget)
    q = X.degree_bound()
    d = X.dimension
    trace.r_bound = X.face_count(d) * comb(d + 1, k + 2) * trace.initial_delta_weight
    trace.dist_bound = q * comb(d, k + 1) * trace.initial_delta_weight
    _check_trace_bounds(trace)
    if classify:
        threshold = Fraction(eta) ** (2 ** (k + 2) - 1)
        if trace.initial_delta_weight <= threshold:
            support = FaceSet(X, k + 1, h.support())
            verdict = classify_non_local(support, Fraction(eta), Fraction(eps))
            trace.verdict = {
                "kind": "non-local",
                "passed": verdict.passed,
                "measured": verdict.measured,
                "params": verdict.params,
            }
            if not verdict.passed:
                raise FalsificationError(
                    "corrected coboundary failed its non-local classification", trace
                )
    return current, trace


def correct_nonabelian(
    f: Cochain,
    budget: Optional[EnumerationBudget] = None,
    eta: Optional[Fraction] = None,
    eps: Optional[Fraction] = None,
    beta: Optional[Fraction] = None,
) -> Tuple[Cochain, CorrectionTrace]:
    """Correct a 1-cochain on a 3-complex until no vertex relabel improves it.

    With eta, eps, beta given and ||delta(f)|| <= beta*eta/2, the output
    coboundary must classify as weakly-non-local with saturation 1/|G|.  Bad
    parameters are refused first.
    """
    budget = budget or EnumerationBudget.default()
    X, G = f.complex, f.group
    if X.dimension != 3:
        raise WrongDimensionError("the multiplicative correction path needs a 3-complex")
    classify = _classifies(eta=eta, eps=eps, beta=beta)
    current, trace, final_delta = _correct(f, "nonabelian", budget)
    trace.diagnostics.append(saturation_diagnostic(final_delta))
    q = X.degree_bound()
    trace.r_bound = 4 * X.face_count(3) * trace.initial_delta_weight
    trace.dist_bound = 2 * q * trace.initial_delta_weight
    _check_trace_bounds(trace)
    if classify:
        threshold = Fraction(beta) * Fraction(eta) / 2
        if trace.initial_delta_weight <= threshold:
            support = FaceSet(X, 2, final_delta.support())
            if support.faces:
                verdict = classify_weakly_non_local(
                    support, Fraction(eta), Fraction(eps), Fraction(1, G.order)
                )
                passed = verdict.passed
                measured = verdict.measured
            else:
                passed, measured = True, {"weight": Fraction(0)}
            trace.verdict = {
                "kind": "weakly-non-local",
                "passed": passed,
                "measured": measured,
                "params": {"eta": Fraction(eta), "eps": Fraction(eps), "alpha": Fraction(1, G.order)},
            }
            if not passed:
                raise FalsificationError(
                    "corrected coboundary failed its weakly-non-local classification", trace
                )
    return current, trace


def saturation_diagnostic(f: Cochain) -> CheckReport:
    """No edge localization of a locally minimal 2-coboundary is saturated.

    A value shared by at least a 1/|G| fraction of an edge link could be
    cancelled wholesale, so ||f_e|| <= 1 - 1/|G| whenever no local correction
    applies.  Reported per edge with the worst offender as witness.  The
    localized weight at e is the mass of f's support on the triangles
    through e over num(e) C(d - 1, 1); one scatter of the supported triangles
    over the facet table of X(2) gives every edge's mass.
    """
    X, G = f.complex, f.group
    bound = 1 - Fraction(1, G.order)
    on = f.row != 0
    num = X.weight_numerators(2)
    mass = np.zeros(X.face_count(1), dtype=num.dtype)
    np.add.at(mass, X.facets(2)[on], num[on, None])
    scale = X.dimension - 1
    weights = [Fraction(m, n * scale) for m, n in zip(mass.tolist(), X.weight_numerators(1).tolist())]
    worst = max(range(len(weights)), key=weights.__getitem__)
    return CheckReport(
        name="edge-saturation-bound",
        passed=weights[worst] <= bound,
        lhs=weights[worst],
        rhs=bound,
        params={"group": G.spec},
        witness=X.faces(1)[worst],
    )


# -- parameter schedules and certificates -------------------------------------------


@dataclass(frozen=True)
class ParameterSchedule:
    path: str
    d: int
    q: int
    beta: Fraction
    eps: Fraction
    eta: Fraction
    lam: Fraction
    notes: str = ""


def parameter_schedule(d: int, q: int, beta: Fraction, eps: Fraction, path: str) -> ParameterSchedule:
    """Derived (eta, lambda) for the correction guarantees.

    Additive path: eta = beta^(d-1) eps / (2^d ((d+1)!)^2), lambda = eta^(2^(d-1)).
    Multiplicative path: eta = eps^3 and lambda = beta^2 eta^2 eps / 64; the
    1/64 constant is implementation-chosen and recorded in certificates.
    """
    beta, eps = Fraction(beta), Fraction(eps)
    if not (0 < beta <= 1 and 0 < eps < 1):
        raise PremiseFailedError("parameters", f"need beta in (0,1] and eps in (0,1), got {beta}, {eps}")
    if path == "abelian":
        eta = beta ** (d - 1) * eps / (2**d * factorial(d + 1) ** 2)
        lam = eta ** (2 ** (d - 1))
        return ParameterSchedule(path, d, q, beta, eps, eta, lam)
    if path == "nonabelian":
        eta = eps**3
        lam = beta**2 * eta**2 * eps / 64
        return ParameterSchedule(
            path, d, q, beta, eps, eta, lam, notes="lambda constant 1/64 is implementation-chosen"
        )
    raise PremiseFailedError("parameters", f"unknown path {path!r}")


@dataclass
class CosystolicCertificate:
    path: str
    object: str
    d: int
    q: int
    lambda_est: float
    lambda_plus: float
    beta: Fraction
    schedule: ParameterSchedule
    epsilon: Fraction
    mu: Fraction
    premises: Dict[str, object] = field(default_factory=dict)


def cosystolic_certificate(
    X: SimplicialComplex,
    G: FiniteGroup,
    path: str = "abelian",
    budget: Optional[EnumerationBudget] = None,
    eps: Optional[Fraction] = None,
) -> CosystolicCertificate:
    """Certificate that the (d-1)-skeleton is a cosystolic expander over G.

    Every premise is measured, never assumed: the local spectral bound must
    meet the schedule's lambda and every proper link must be a coboundary
    expander.  A failed premise raises PremiseFailedError with the measured
    values; no extrapolated certificates are issued.
    """
    budget = budget or EnumerationBudget.default()
    d = X.dimension
    q = X.degree_bound()
    if path == "nonabelian" and d != 3:
        raise WrongDimensionError("the multiplicative certificate path needs d = 3")
    try:
        cert = local_spectral_lambda(X)
    except DisconnectedGraphError as exc:
        raise PremiseFailedError(
            "spectral", f"disconnected link at {exc.witness}", {"witness": exc.witness}
        ) from exc
    beta, beta_witness = link_coboundary_beta(X, G, budget)
    if beta is None or beta <= 0:
        raise PremiseFailedError(
            "link-coboundary-expansion",
            f"a link is not a coboundary expander (witness {beta_witness})",
            {"witness": beta_witness, "beta": beta},
        )
    beta_capped = min(beta, Fraction(99, 100))
    if path == "abelian":
        eps_val = Fraction(eps) if eps is not None else Fraction(1, 2 * (d + 1) ** 2)
    else:
        eps_val = Fraction(eps) if eps is not None else Fraction(1, 81 * G.order)
        if eps_val > Fraction(1, 81 * G.order):
            raise PremiseFailedError(
                "parameters", f"need eps <= 1/(81 |G|) = {Fraction(1, 81 * G.order)}"
            )
    schedule = parameter_schedule(d, q, beta_capped, eps_val, path)
    lam_measured = cert.as_fraction()
    if lam_measured > schedule.lam:
        raise PremiseFailedError(
            "spectral",
            f"measured lambda+ {float(lam_measured):.6g} exceeds the schedule's {float(schedule.lam):.6g}",
            {"lambda_plus": lam_measured, "required": schedule.lam},
        )
    if path == "abelian":
        s = isqrt(d**d)
        if s * s < d**d:
            s += 1  # rational lower bound for 1/(q d^(d/2))
        epsilon = min(schedule.eta ** (2**d - 1), Fraction(1, q * s))
        mu = schedule.eta ** (2**d - 1)
    else:
        epsilon = min(beta_capped * schedule.eta / 2, Fraction(1, 2 * q))
        mu = beta_capped * schedule.eta / 2
    return CosystolicCertificate(
        path=path,
        object=f"{d - 1}-skeleton",
        d=d,
        q=q,
        lambda_est=cert.lambda_est,
        lambda_plus=cert.lambda_plus,
        beta=beta,
        schedule=schedule,
        epsilon=epsilon,
        mu=mu,
        premises={
            "lambda_plus": lam_measured,
            "lambda_required": schedule.lam,
            "beta": beta,
            "beta_witness": beta_witness,
        },
    )


def verify_cosystolic_pair(
    X: SimplicialComplex,
    G: FiniteGroup,
    epsilon: Fraction,
    mu: Fraction,
    budget: Optional[EnumerationBudget] = None,
) -> CheckReport:
    """Oracle cross-check of a claimed (epsilon, mu) pair on a small instance."""
    budget = budget or EnumerationBudget.default()
    constants = cosystolic_expansion_constants(X, G, budget)
    skipped = [k for k, v in constants.per_dim.items() if v.get("skipped")]
    eps_ok = constants.epsilon is None or constants.epsilon >= Fraction(epsilon)
    mu_ok = constants.mu is None or constants.mu >= Fraction(mu)
    return CheckReport(
        name="cosystolic-pair-cross-check",
        passed=eps_ok and mu_ok,
        lhs={"epsilon": constants.epsilon, "mu": constants.mu},
        rhs={"epsilon": Fraction(epsilon), "mu": Fraction(mu)},
        params={"group": G.spec},
        notes=f"dimensions skipped by budget: {skipped}" if skipped else "",
    )
