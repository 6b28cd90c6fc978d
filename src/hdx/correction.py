"""Minimality testing and the iterative local-correction algorithm.

A cochain is minimal when no coboundary shift reduces its weight, and locally
minimal when every vertex localization is minimal in its link.  The correction
loop repeatedly fixes the vertex whose link admits the largest weight decrease
(ties to the smallest vertex id; within a link, to the lexicographically first
minimizer), so traces are reproducible.  Each run checks its own contracts:
the coboundary weight strictly decreases, the step count and total movement
respect their a-priori bounds, and when the input coboundary is small enough
the output classification is verified; any violation raises
FalsificationError rather than passing silently.

Every exhaustive search here (the link searches of a step and the minimality
scans) is one block scan, ``_scan_first_min``.  It walks G^n in lexicographic
mixed-radix order, the order of ``itertools.product``, in blocks of about
``_BLOCK_CELLS`` cells, so memory stays flat.  A block's face values come from
the face-product kernel of ``cochains`` on columns read from the facet table
of the complex or link, its face weights from one matrix-vector product of the
non-identity mask.  The first minimum wins: argmin within a block, a strict
comparison across blocks, so ties resolve exactly as in a plain loop over
``product``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, isqrt
from typing import Dict, List, Optional, Sequence, Tuple

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
    perm_parity,
    term_columns,
)
from .complexes import Face, FaceSet, SimplicialComplex
from .errors import (
    AlreadyLocallyMinimalError,
    BadDimensionError,
    DisconnectedGraphError,
    FalsificationError,
    NonAbelianGroupError,
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
) -> Tuple[int, Tuple[int, ...]]:
    """First x in G^n, in ``product`` order, minimizing the weighted count of faces
    whose value  x[left...] * const * x[right...]  is not the identity.

    The columns are those of ``face_products``, which evaluates each block of
    consecutive assignments; argmin keeps the first minimum in a block and a
    strict comparison the first across blocks.  With ``stop_below`` the scan
    ends at the first block whose minimum falls below it.  Returns (weight,
    assignment).
    """
    m = len(const)
    # Python ints when a count could pass int64 (weighted complexes, large denominators).
    w = np.array(weights, dtype=np.int64 if sum(weights) < 2**63 else object)
    const_row = np.asarray(const, dtype=np.int64)
    order, total = G.order, G.order**n
    place = order ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = max(1, _BLOCK_CELLS // max(m, n))
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    for start in range(0, total, rows):
        x = np.arange(start, min(start + rows, total), dtype=np.int64)[:, None] // place % order
        counts = (face_products(G, x, const_row, left, right) != 0) @ w
        i = int(np.argmin(counts))
        if best is None or counts[i] < best[0]:
            best = (int(counts[i]), tuple(int(a) for a in x[i]))
            if stop_below is not None and best[0] < stop_below:
                break
    assert best is not None
    return best


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
    if not f.values:
        return True
    faces = X.faces(k)
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
    target_num = sum(X.weight_numerator(face) for face in f.values)
    best, _ = _scan_first_min(
        G,
        len(lower),
        [f.values.get(face, 0) for face in faces],
        term_columns(X, k, left),
        term_columns(X, k, right),
        [X.weight_numerator(face) for face in faces],
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
    new_star_num: int
    assignment: Tuple[int, ...]
    lower_faces: Tuple[Face, ...]


def _search_link_abelian(
    h: Cochain, v: int, budget: EnumerationBudget
) -> Optional[_LinkSearch]:
    """Best correction at one vertex: minimize the star mass of h_v + delta(w)."""
    X, G, j = h.complex, h.group, h.dimension
    link = X.link((v,))
    hv = h.localize((v,))
    if hv.is_zero():
        return None
    lower_faces = link.faces(j - 2)
    budget.ensure(space_size(G, len(lower_faces)), f"link correction scan at {v}")
    faces = link.faces(j - 1)
    star = [X.weight_numerator(tuple(sorted((v,) + face))) for face in faces]
    old_star = sum(num for face, num in zip(faces, star) if face in hv.values)
    # h_v + delta(w): the alternating sum of w over the facets of each link face.
    const = [hv.values.get(face, 0) for face in faces]
    right = term_columns(link, j - 1, additive_terms(j - 2))
    new_star, assignment = _scan_first_min(G, len(lower_faces), const, [], right, star)
    if new_star >= old_star:
        return None
    return _LinkSearch(v, old_star - new_star, new_star, assignment, lower_faces)


def _lift_assignment(h: Cochain, search: _LinkSearch) -> Cochain:
    """Lift the chosen link assignment to a global cochain supported at the vertex."""
    X, G, j = h.complex, h.group, h.dimension
    v = search.vertex
    values: Dict[Face, int] = {}
    for face, val in zip(search.lower_faces, search.assignment):
        if not val:
            continue
        ordered = (v,) + face
        canonical = tuple(sorted(ordered))
        values[canonical] = G.signed(val, perm_parity(ordered))
    return Cochain(X, j - 1, G, values, _trusted=True)


def one_step_abelian(
    h: Cochain, budget: Optional[EnumerationBudget] = None
) -> Tuple[int, Cochain]:
    """One correction step for a non-locally-minimal abelian cochain.

    Returns (v, g) with g supported on faces containing v, ||g|| <= dim(h)*||v||
    and ||h - delta(g)|| < ||h||.  The vertex with the largest decrease wins,
    ties to the smallest id; inside a link the lexicographically first
    minimizer wins.
    """
    budget = budget or EnumerationBudget.default()
    if not h.group.is_abelian:
        raise NonAbelianGroupError("the additive step needs an abelian group")
    if h.dimension < 1:
        raise BadDimensionError("nothing below dimension 0 to correct with")
    best: Optional[_LinkSearch] = None
    for v in sorted(h.complex.vertices()):
        found = _search_link_abelian(h, v, budget)
        if found and (best is None or found.decrease_num > best.decrease_num):
            best = found
    if best is None:
        raise AlreadyLocallyMinimalError("every vertex localization is already minimal")
    g = _lift_assignment(h, best)
    new_h = h - coboundary_abelian(g)
    j = h.dimension
    v_weight = h.complex.face_weight((best.vertex,))
    if g.weight() > j * v_weight:
        raise FalsificationError("correction support bound ||g|| <= j ||v|| failed")
    if not new_h.weight() < h.weight():
        raise FalsificationError("correction step failed to decrease the weight")
    return best.vertex, g


def _search_link_nonabelian(
    f: Cochain, v: int, budget: EnumerationBudget
) -> Optional[Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]]:
    """Best vertex assignment h minimizing the unsatisfied star mass at v.

    The anchored values (u, w) -> f(vu) f(uw) f(wv) on the link edges are the
    coboundary seen from v; the vertex action on them tracks edge updates at v.
    Only the edges whose anchored value is not the identity are scored.
    """
    X, G = f.complex, f.group
    link = X.link((v,))
    edges = link.faces(1)
    anchored = np.array(
        [G.op(G.op(f.eval((v, u)), f.eval((u, w))), f.eval((w, v))) for u, w in edges],
        dtype=np.int64,
    )
    rows = np.flatnonzero(anchored)
    if not len(rows):
        return None
    vertices = link.vertices()
    budget.ensure(space_size(G, len(vertices)), f"link correction scan at {v}")
    star = [X.weight_numerator(tuple(sorted((v,) + edges[j]))) for j in rows.tolist()]
    # The action h(u) a(uw) h(w)^-1 is d0 with the anchored value a in between.
    cols = [c[rows] for c in term_columns(link, 1, DELTA0_TERMS)]
    new_star, assignment = _scan_first_min(
        G, len(vertices), anchored[rows], cols[:1], cols[1:], star
    )
    old_star = sum(star)
    if new_star >= old_star:
        return None
    return (old_star - new_star, v, assignment, vertices)


def one_step_nonabelian(
    f: Cochain, budget: Optional[EnumerationBudget] = None
) -> Tuple[int, Cochain]:
    """One multiplicative correction step on a 1-cochain of a 3-complex.

    Returns (v, f') with f' differing from f only on edges at v,
    dist(f, f') <= 2 ||v|| and ||delta(f')|| < ||delta(f)||.
    """
    budget = budget or EnumerationBudget.default()
    X, G = f.complex, f.group
    if X.dimension != 3:
        raise WrongDimensionError("the multiplicative correction path needs a 3-complex")
    if f.dimension != 1:
        raise BadDimensionError("the multiplicative correction path corrects 1-cochains")
    best = None
    for v in sorted(X.vertices()):
        found = _search_link_nonabelian(f, v, budget)
        if found and (best is None or found[0] > best[0]):
            best = found
    if best is None:
        raise AlreadyLocallyMinimalError("no vertex admits an improving relabel")
    _, v, assignment, vertices = best
    h = dict(zip(vertices, assignment))
    values = dict(f.values)
    for u in vertices:
        hu = h[u]
        if v < u:
            new = G.op(hu, values.get((v, u), 0))
            _set_or_drop(values, (v, u), new)
        else:
            new = G.op(values.get((u, v), 0), G.inv(hu))
            _set_or_drop(values, (u, v), new)
    f_new = Cochain(X, 1, G, values, _trusted=True)
    moved = distance(f, f_new)
    if moved > 2 * X.face_weight((v,)):
        raise FalsificationError("edge-update bound dist(f, f') <= 2 ||v|| failed")
    before = coboundary_nonabelian_1(f).weight()
    after = coboundary_nonabelian_1(f_new).weight()
    if not after < before:
        raise FalsificationError("multiplicative step failed to decrease ||delta||")
    return v, f_new


def _set_or_drop(values: Dict[Face, int], key: Face, val: int) -> None:
    if val:
        values[key] = val
    else:
        values.pop(key, None)


# -- the full correction loops -----------------------------------------------------


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


def correct_abelian(
    f: Cochain,
    budget: Optional[EnumerationBudget] = None,
    eta: Optional[Fraction] = None,
    eps: Optional[Fraction] = None,
) -> Tuple[Cochain, CorrectionTrace]:
    """Correct f until its coboundary is locally minimal; verify the trace bounds.

    With eta and eps given and ||delta(f)|| below eta^(2^(k+2)-1), the output
    coboundary's support must classify as non-local; a failure of that or of
    any trace bound raises FalsificationError.
    """
    budget = budget or EnumerationBudget.default()
    X, G, k = f.complex, f.group, f.dimension
    if not G.is_abelian:
        raise NonAbelianGroupError("use correct_nonabelian for non-abelian groups")
    if not 1 <= k <= X.dimension - 2:
        raise BadDimensionError(f"correction needs 1 <= k <= d-2, got k={k}, d={X.dimension}")
    trace = CorrectionTrace(path="abelian")
    current = f
    h = coboundary_abelian(current)
    trace.initial_delta_weight = h.weight()
    while True:
        try:
            v, g = one_step_abelian(h, budget)
        except AlreadyLocallyMinimalError:
            break
        before = h.weight()
        current = current - g
        h = coboundary_abelian(current)
        after = h.weight()
        trace.steps.append(
            StepRecord(len(trace.steps) + 1, v, before, after, g.weight())
        )
        if not after < before:
            raise FalsificationError("correction loop failed strict monotonicity")
    trace.final_delta_weight = h.weight()
    trace.locally_minimal = True
    trace.total_moved = distance(f, current)
    q = X.degree_bound()
    d = X.dimension
    trace.r_bound = X.face_count(d) * comb(d + 1, k + 2) * trace.initial_delta_weight
    trace.dist_bound = q * comb(d, k + 1) * trace.initial_delta_weight
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
    if eta is not None and eps is not None:
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
    coboundary must classify as weakly-non-local with saturation 1/|G|.
    """
    budget = budget or EnumerationBudget.default()
    X, G = f.complex, f.group
    if X.dimension != 3:
        raise WrongDimensionError("the multiplicative correction path needs a 3-complex")
    trace = CorrectionTrace(path="nonabelian")
    current = f
    trace.initial_delta_weight = coboundary_nonabelian_1(current).weight()
    while True:
        try:
            v, updated = one_step_nonabelian(current, budget)
        except AlreadyLocallyMinimalError:
            break
        before = coboundary_nonabelian_1(current).weight()
        moved = distance(current, updated)
        current = updated
        after = coboundary_nonabelian_1(current).weight()
        trace.steps.append(StepRecord(len(trace.steps) + 1, v, before, after, moved))
    final_delta = coboundary_nonabelian_1(current)
    trace.final_delta_weight = final_delta.weight()
    trace.locally_minimal = True
    trace.total_moved = distance(f, current)
    trace.diagnostics.append(saturation_diagnostic(final_delta))
    q = X.degree_bound()
    trace.r_bound = 4 * X.face_count(3) * trace.initial_delta_weight
    trace.dist_bound = 2 * q * trace.initial_delta_weight
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
    if eta is not None and eps is not None and beta is not None:
        threshold = Fraction(beta) * Fraction(eta) / 2
        if trace.initial_delta_weight <= threshold:
            support = FaceSet(X, 2, coboundary_nonabelian_1(current).support())
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
    applies.  Reported per edge with the worst offender as witness.
    """
    X, G = f.complex, f.group
    bound = 1 - Fraction(1, G.order)
    worst: Optional[Tuple[Face, Fraction]] = None
    for edge in X.faces(1):
        local = f.localize(edge)
        w = local.complex.set_weight(local.values, 0)
        if worst is None or w > worst[1]:
            worst = (edge, w)
    passed = worst is None or worst[1] <= bound
    return CheckReport(
        name="edge-saturation-bound",
        passed=passed,
        lhs=None if worst is None else worst[1],
        rhs=bound,
        params={"group": G.spec},
        witness=None if worst is None else worst[0],
    )


def localization_restriction_diagnostic(f: Cochain, beta: Fraction) -> CheckReport:
    """||f_v|| <= ||f^v|| / beta at every vertex, for measured link expansion beta."""
    beta = Fraction(beta)
    worst = None
    for v in sorted(f.complex.vertices()):
        local = f.localize((v,)).weight()
        restricted = f.restrict(v).weight()
        if local * beta > restricted:
            worst = (v, local, restricted)
            break
    return CheckReport(
        name="localization-vs-restriction",
        passed=worst is None,
        lhs=None if worst is None else worst[1],
        rhs=None if worst is None else worst[2] / beta,
        params={"beta": beta},
        witness=None if worst is None else worst[0],
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
