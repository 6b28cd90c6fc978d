"""Bundled verification suites behind the `verify` command.

Each suite replays a family of checked inequalities on the bundled desk-scale
instances with a seeded generator, returning CheckReport entries; a failure is
a falsification event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .cochains import (
    Cochain,
    act,
    coboundary_abelian,
    coboundary_nonabelian_0,
    coboundary_nonabelian_1,
    random_cochain,
)
from .complexes import FaceSet, SimplicialComplex
from .correction import (
    correct_abelian,
    correct_nonabelian,
    verify_cosystolic_pair,
)
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    HdxError,
    ParameterViolationError,
    PremiseFailedError,
)
from .expansion import (
    check_delta1_theorem_abelian,
    check_empty_face_is_thin,
    check_fat_mass_bound,
    check_upsilon_bound_abelian,
    check_upsilon_bound_nonabelian,
    classify_non_local,
    classify_weakly_non_local,
    delta1,
    delta_i,
    thin_hierarchy,
)
from .groups import FiniteGroup, group_from_spec
from .instances import bundled_instances, complete_complex, glued_simplices, torus_complex
from .oracle import (
    EnumerationBudget,
    cosystolic_expansion_constants,
    enumerate_spaces,
    min_nontrivial_cocycle_weight,
)
from .reporting import CheckReport
from .spectral import (
    cheeger_violations,
    local_spectral_lambda,
    second_eigenvalue,
    underlying_graph,
)

SUITE_NAMES = ("delta1", "hierarchy", "correction", "cosystolic", "nonabelian")


@dataclass
class SuiteResult:
    name: str
    seed: int
    checks: List[CheckReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckReport) -> None:
        self.checks.append(check)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }


# -- planted instances ---------------------------------------------------------------


def plant_abelian_instance(
    X: SimplicialComplex, k: int, G: FiniteGroup, rng: random.Random
) -> Cochain:
    """A cocycle plus sparse noise concentrated around one vertex."""
    base = coboundary_abelian(random_cochain(X, k - 1, G, rng, 0.5))
    v = rng.choice(sorted(X.vertices()))
    star = [f for f in X.faces(k) if v in f]
    noise_faces = rng.sample(star, k=min(len(star), rng.randint(1, 2)))
    noise = Cochain(
        X, k, G, {f: rng.randrange(1, G.order) for f in noise_faces}
    )
    return base + noise


def plant_nonabelian_instance(
    X: SimplicialComplex, G: FiniteGroup, rng: random.Random
) -> Cochain:
    """A multiplicative 1-coboundary with a few edges multiplied by noise."""
    base = coboundary_nonabelian_0(random_cochain(X, 0, G, rng, 0.6))
    values = dict(base.values)
    edges = sorted(X.faces(1))
    for edge in rng.sample(edges, k=min(2, len(edges))):
        noisy = G.op(values.get(edge, 0), rng.randrange(1, G.order))
        if noisy:
            values[edge] = noisy
        else:
            values.pop(edge, None)
    return Cochain(X, 1, G, values, _trusted=True)


# -- suites ---------------------------------------------------------------------------


def cheeger_sweep(X: SimplicialComplex, max_vertices: int = 14) -> Tuple[int, int, int]:
    """Exhaustive cut/internal-mass checks over every link graph of a complex.

    Returns (violations, graphs checked, subsets checked).  Disconnected link
    graphs are skipped; both inequalities use the certified eigenvalue bound
    and are decided exactly on integer numerators by `cheeger_violations`.
    """
    violations = graphs = subsets = 0
    for k in range(-1, X.dimension - 1):
        for sigma in X.faces(k):
            graph = underlying_graph(X.link(sigma))
            if len(graph.vertices) > max_vertices:
                continue
            try:
                cert = second_eigenvalue(graph)
            except DisconnectedGraphError:
                continue
            graphs += 1
            subsets += 2 ** len(graph.vertices) - 2
            violations += cheeger_violations(graph, cert.as_fraction())
    return violations, graphs, subsets


def suite_delta1(seed: int = 0, budget: Optional[EnumerationBudget] = None) -> SuiteResult:
    budget = budget or EnumerationBudget.default()
    rng = random.Random(seed)
    out = SuiteResult("delta1", seed)

    # The star of a vertex in a complete 2-skeleton: empty delta1, and exactly
    # half of its mass sits on thin vertices once eta clears the link scale.
    for n in (4, 5, 6):
        X = complete_complex(n, 2)
        star = FaceSet.make(X, 1, [(0, u) for u in range(1, n)])
        d1 = delta1(star)
        hierarchy = thin_hierarchy(star, Fraction(1, 2))
        on_thin = X.mutual_weight_sets(star.faces, 1, hierarchy.thin(0), 0)
        out.add(
            CheckReport(
                name=f"star-example-n{n}",
                passed=len(d1) == 0 and on_thin == star.weight / 2,
                lhs={"delta1_count": len(d1), "mass_on_thin": on_thin},
                rhs={"delta1_count": 0, "mass_on_thin": star.weight / 2},
                params={"eta": Fraction(1, 2)},
            )
        )

    # Cheeger inequalities with the certified eigenvalue bound, exhaustively
    # over all vertex subsets of every connected link graph up to 14 vertices.
    for name, X in sorted(bundled_instances().items()):
        violations, graphs, subsets = cheeger_sweep(X)
        out.add(
            CheckReport(
                name=f"cheeger-{name}",
                passed=violations == 0,
                lhs=violations,
                rhs=0,
                params={"instance": name, "graphs": graphs, "subsets": subsets},
            )
        )

    # Exactly-one-covered faces are unsatisfied over every group.
    specs = ("Z2", "Z3", "Z6", "S3")
    X = complete_complex(6, 2)
    violations = 0
    for spec in specs:
        G = group_from_spec(spec)
        for _ in range(25):
            f = random_cochain(X, 1, G, rng, 0.3)
            df = f.coboundary()
            d1 = delta1(FaceSet(X, 1, f.support()))
            if not d1.weight <= df.weight():
                violations += 1
    out.add(
        CheckReport(
            name="delta1-below-coboundary-weight",
            passed=violations == 0,
            lhs=violations,
            rhs=0,
            params={"groups": specs, "samples": 25},
        )
    )

    # Non-local sets expand: sweep all small edge sets on a complete 2-complex.
    X = complete_complex(6, 2)
    lam = local_spectral_lambda(X).as_fraction()
    eta, eps = Fraction(1, 4), Fraction(1, 16)
    checked = 0
    failed = 0
    for size in (1, 2):
        for edges in combinations(X.faces(1), size):
            a = FaceSet.make(X, 1, edges)
            verdict = classify_non_local(a, eta, eps)
            if not verdict.passed:
                continue
            checked += 1
            report = check_delta1_theorem_abelian(a, lam, eta, eps)
            if not report.passed:
                failed += 1
    out.add(
        CheckReport(
            name="non-local-sets-expand-sweep",
            passed=failed == 0 and checked > 0,
            lhs={"violations": failed, "classified": checked},
            rhs={"violations": 0},
            params={"eta": eta, "eps": eps, "lambda_plus": lam},
        )
    )

    # Containment-count partition identities on random sets.
    violations = 0
    for _ in range(20):
        size = rng.randint(0, 5)
        faces = rng.sample(sorted(X.faces(1)), k=size)
        a = FaceSet.make(X, 1, faces)
        total = sum(delta_i(a, i).weight for i in range(0, 4))
        weighted = sum(i * delta_i(a, i).weight for i in range(0, 4))
        if total != 1 or weighted != 3 * a.weight:
            violations += 1
    out.add(
        CheckReport(
            name="containment-partition-identities",
            passed=violations == 0,
            lhs=violations,
            rhs=0,
            params={"samples": 20},
        )
    )
    return out


def suite_hierarchy(seed: int = 0, budget: Optional[EnumerationBudget] = None) -> SuiteResult:
    budget = budget or EnumerationBudget.default()
    rng = random.Random(seed)
    out = SuiteResult("hierarchy", seed)
    X3 = complete_complex(7, 3)
    lam3 = local_spectral_lambda(X3).as_fraction()
    X2 = complete_complex(6, 2)
    lam2 = local_spectral_lambda(X2).as_fraction()

    fat_failures = 0
    empty_failures = 0
    for _ in range(40):
        X, lam = (X3, lam3) if rng.random() < 0.5 else (X2, lam2)
        k = rng.randint(1, X.dimension - 1)
        G = group_from_spec(rng.choice(("Z2", "Z3")))
        f = random_cochain(X, k, G, rng, rng.choice((0.02, 0.1, 0.3)))
        eta = Fraction(rng.randint(1, 9), 10)
        h = thin_hierarchy(FaceSet(X, k, f.support()), eta)
        w = f.weight()
        if not check_fat_mass_bound(h, w).passed:
            fat_failures += 1
        if not check_empty_face_is_thin(h, w).passed:
            empty_failures += 1
    out.add(CheckReport("fat-mass-bound-random", fat_failures == 0, fat_failures, 0, {"samples": 40}))
    out.add(CheckReport("empty-face-thin-random", empty_failures == 0, empty_failures, 0, {"samples": 40}))

    # Degenerate-face bounds need eta large enough for the spectral premise.
    ups_failures = 0
    applicable = 0
    for _ in range(20):
        k = 2
        G = group_from_spec("Z2")
        f = random_cochain(X3, k, G, rng, 0.15)
        eta = Fraction(rng.randint(80, 99), 100)
        h = thin_hierarchy(FaceSet(X3, k, f.support()), eta)
        try:
            report = check_upsilon_bound_abelian(f, h, lam3)
        except ParameterViolationError:
            continue
        applicable += 1
        if not report.passed:
            ups_failures += 1
    out.add(
        CheckReport(
            "degenerate-above-set-random",
            ups_failures == 0 and applicable > 0,
            {"violations": ups_failures, "applicable": applicable},
            {"violations": 0},
            {"samples": 20},
        )
    )

    ups2_failures = 0
    for _ in range(20):
        k = rng.randint(1, 2)
        a_faces = rng.sample(sorted(X3.faces(k)), k=rng.randint(1, 6))
        a = FaceSet.make(X3, k, a_faces)
        eta = Fraction(rng.randint(1, 9), 10)
        h = thin_hierarchy(a, eta, "nonabelian")
        if not check_upsilon_bound_nonabelian(a, h, lam3).passed:
            ups2_failures += 1
    out.add(CheckReport("degenerate-inside-set-random", ups2_failures == 0, ups2_failures, 0, {"samples": 20}))
    return out


def suite_correction(seed: int = 0, budget: Optional[EnumerationBudget] = None) -> SuiteResult:
    budget = budget or EnumerationBudget.default()
    rng = random.Random(seed)
    out = SuiteResult("correction", seed)

    failures = 0
    zero_steps_on_cocycles = True
    for _ in range(8):
        X = complete_complex(6, 3)
        G = group_from_spec(rng.choice(("Z2", "Z3")))
        f = plant_abelian_instance(X, 1, G, rng)
        try:
            _, trace = correct_abelian(f, budget)
        except HdxError:
            failures += 1
            continue
        if trace.step_count and trace.final_delta_weight >= trace.initial_delta_weight:
            failures += 1
        z = coboundary_abelian(random_cochain(X, 0, G, rng, 0.5))
        _, ztrace = correct_abelian(z, budget)
        if ztrace.step_count != 0:
            zero_steps_on_cocycles = False
    out.add(CheckReport("planted-additive-contracts", failures == 0, failures, 0, {"instances": 8}))
    out.add(CheckReport("cocycles-need-no-steps", zero_steps_on_cocycles, None, None, {}))

    na_failures = 0
    for _ in range(6):
        X = glued_simplices(3, 2)
        G = group_from_spec(rng.choice(("S3", "D4")))
        f = plant_nonabelian_instance(X, G, rng)
        try:
            _, trace = correct_nonabelian(f, budget)
            if not trace.diagnostics[0].passed:
                na_failures += 1
        except HdxError:
            na_failures += 1
    out.add(CheckReport("planted-multiplicative-contracts", na_failures == 0, na_failures, 0, {"instances": 6}))
    return out


def suite_cosystolic(seed: int = 0, budget: Optional[EnumerationBudget] = None) -> SuiteResult:
    from .correction import cosystolic_certificate

    budget = budget or EnumerationBudget.default()
    out = SuiteResult("cosystolic", seed)
    F2 = group_from_spec("Z2")

    torus = torus_complex()
    constants = cosystolic_expansion_constants(torus, F2, budget)
    entry = constants.per_dim[1]
    if "z_size" not in entry:
        raise BudgetExceededError(entry["skipped"])
    independent = min_nontrivial_cocycle_weight(torus, F2, 1, budget)
    out.add(
        CheckReport(
            name="torus-nontrivial-cohomology",
            passed=entry["z_size"] > entry["b_size"] and entry["mu"] == independent,
            lhs={"z": entry["z_size"], "b": entry["b_size"], "mu": entry["mu"]},
            rhs={"mu_independent": independent},
            params={"group": "Z2"},
        )
    )

    simplex_ok = True
    from .instances import single_simplex

    for d in (2, 3):
        X = single_simplex(d)
        for k in range(0, d):
            spaces = enumerate_spaces(X, F2, k, budget)
            if not np.array_equal(spaces.cocycles, spaces.coboundaries):
                simplex_ok = False
    out.add(CheckReport("simplex-trivial-cohomology", simplex_ok, None, None, {"dims": [2, 3]}))

    refused = False
    try:
        cosystolic_certificate(complete_complex(6, 3), F2, "abelian", budget)
    except PremiseFailedError as exc:
        refused = True
        premise = exc.premise
    out.add(
        CheckReport(
            name="certificate-refuses-at-desk-scale",
            passed=refused,
            lhs=premise if refused else "issued",
            rhs="spectral",
            params={"instance": "complete-3-6"},
        )
    )

    tetra = single_simplex(3)
    consts = cosystolic_expansion_constants(tetra, F2, budget)
    pair = verify_cosystolic_pair(tetra, F2, consts.epsilon, Fraction(1, 4), budget)
    out.add(pair)
    return out


def suite_nonabelian(seed: int = 0, budget: Optional[EnumerationBudget] = None) -> SuiteResult:
    budget = budget or EnumerationBudget.default()
    rng = random.Random(seed)
    out = SuiteResult("nonabelian", seed)
    X = glued_simplices(3, 2)

    conj_failures = 0
    for spec in ("S3", "D4"):
        G = group_from_spec(spec)
        for _ in range(40):
            f0 = random_cochain(X, 0, G, rng, 0.5)
            g1 = random_cochain(X, 1, G, rng, 0.4)
            if coboundary_nonabelian_1(act(f0, g1)).weight() != coboundary_nonabelian_1(g1).weight():
                conj_failures += 1
    out.add(CheckReport("conjugation-invariance", conj_failures == 0, conj_failures, 0, {"samples": 80}))

    act_failures = 0
    for spec in ("S3", "Z6"):
        G = group_from_spec(spec)
        for _ in range(20):
            f0 = random_cochain(X, 0, G, rng, 0.5)
            h0 = random_cochain(X, 0, G, rng, 0.5)
            lhs = act(f0, coboundary_nonabelian_0(h0))
            prod = Cochain(
                X, 0, G,
                {(v,): G.op(f0.value((v,)), h0.value((v,))) for v in X.vertices()},
            )
            if lhs != coboundary_nonabelian_0(prod):
                act_failures += 1
    out.add(CheckReport("action-on-coboundaries", act_failures == 0, act_failures, 0, {"samples": 40}))

    wnl_failures = 0
    X3 = complete_complex(7, 3)
    for _ in range(15):
        k = 2
        a_faces = rng.sample(sorted(X3.faces(k)), k=rng.randint(0, 5))
        a = FaceSet.make(X3, k, a_faces)
        eta, eps, alpha = Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)
        verdict = classify_weakly_non_local(a, eta, eps, alpha)
        # Direct re-evaluation of both defining conditions.
        hierarchy = thin_hierarchy(a, eta, "nonabelian")
        thin_mass = X3.set_weight(hierarchy.thin(k - 2), k - 2)
        cond1 = thin_mass >= 1 - eps * a.weight
        cond2 = all(
            X3.localized_weight(a.faces, k, tau) <= 1 - alpha for tau in X3.faces(k - 1)
        )
        if verdict.passed != (cond1 and cond2):
            wnl_failures += 1
    out.add(CheckReport("weakly-non-local-definition", wnl_failures == 0, wnl_failures, 0, {"samples": 15}))

    # An abelian group run through the multiplicative path still satisfies the
    # multiplicative trace contracts.
    cross_failures = 0
    Z6 = group_from_spec("Z6")
    for _ in range(4):
        f = plant_nonabelian_instance(X, Z6, rng)
        try:
            _, trace = correct_nonabelian(f, budget)
        except HdxError:
            cross_failures += 1
    out.add(CheckReport("abelian-through-multiplicative-path", cross_failures == 0, cross_failures, 0, {"samples": 4}))
    return out


SUITES: Dict[str, Callable[..., SuiteResult]] = {
    "delta1": suite_delta1,
    "hierarchy": suite_hierarchy,
    "correction": suite_correction,
    "cosystolic": suite_cosystolic,
    "nonabelian": suite_nonabelian,
}


def run_suites(
    names: Tuple[str, ...],
    seed: int = 0,
    budget: Optional[EnumerationBudget] = None,
) -> Dict[str, object]:
    budget = budget or EnumerationBudget.default()
    results = [SUITES[name](seed=seed, budget=budget) for name in names]
    return {
        "seed": seed,
        "suites": {r.name: r.as_dict() for r in results},
        "passed": all(r.passed for r in results),
    }
