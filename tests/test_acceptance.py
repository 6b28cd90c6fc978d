"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every inequality is checked exactly: weights are rationals, thresholds go
through integer cross-multiplication, and spectral terms enter only as
certified rational upper bounds.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

from hdx.cochains import (
    Cochain,
    act,
    coboundary_abelian,
    coboundary_nonabelian_0,
    coboundary_nonabelian_1,
    distance,
    random_cochain,
)
from hdx.complexes import FaceSet
from hdx.correction import correct_abelian, correct_nonabelian, is_minimal
from hdx.errors import ParameterViolationError
from hdx.expansion import (
    check_delta1_theorem_abelian,
    check_empty_face_is_thin,
    check_fat_mass_bound,
    check_upsilon_bound_abelian,
    check_upsilon_bound_nonabelian,
    classify_non_local,
    delta1,
    thin_hierarchy,
)
from hdx.groups import group_from_spec
from hdx.instances import (
    bundled_instances,
    complete_complex,
    glued_simplices,
    single_simplex,
    torus_complex,
)
from hdx.oracle import (
    coboundary_expansion_constant,
    cosystolic_expansion_constants,
    enumerate_spaces,
    exact_distance,
    min_nontrivial_cocycle_weight,
)
from hdx.spectral import local_spectral_lambda
from hdx.suites import cheeger_sweep

GROUPS = ("Z2", "Z3", "Z6", "Z2xZ2", "S3", "D4")
ABELIAN_GROUPS = ("Z2", "Z3", "Z6", "Z2xZ2")


def report(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_01_algebraic_identities():
    rng = random.Random(101)
    pool = [
        complete_complex(8, 3),
        complete_complex(6, 2),
        glued_simplices(3, 3),
        torus_complex(),
    ]
    groups = {spec: group_from_spec(spec) for spec in GROUPS}
    abelian_failures = 0
    for i in range(1000):
        X = pool[i % len(pool)]
        G = groups[ABELIAN_GROUPS[i % len(ABELIAN_GROUPS)]]
        k = rng.randint(0, X.dimension - 2) if X.dimension >= 2 else 0
        f = random_cochain(X, k, G, rng, rng.choice((0.1, 0.4)))
        if not coboundary_abelian(coboundary_abelian(f)).is_zero():
            abelian_failures += 1
    mult_failures = 0
    for i in range(1000):
        X = pool[i % len(pool)]
        G = groups[GROUPS[i % len(GROUPS)]]
        f = random_cochain(X, 0, G, rng, rng.choice((0.2, 0.6)))
        if not coboundary_nonabelian_1(coboundary_nonabelian_0(f)).is_zero():
            mult_failures += 1
    report(
        1,
        abelian_failures == 0 and mult_failures == 0,
        f"dd=0 on 1000 additive and 1000 multiplicative samples "
        f"({abelian_failures}+{mult_failures} violations)",
    )


def test_criterion_02_weight_decomposition():
    rng = random.Random(102)
    pool = [complete_complex(8, 3), complete_complex(7, 2), torus_complex()]
    failures = 0
    for i in range(500):
        X = pool[i % len(pool)]
        G = group_from_spec(GROUPS[i % len(GROUPS)])
        k = rng.randint(1, X.dimension)
        f = random_cochain(X, k, G, rng, rng.choice((0.1, 0.3, 0.6)))
        w = f.weight()
        support = f.support()
        for ell in range(-1, k):
            total = sum(
                X.mutual_weight_sets(support, k, [tau], ell) for tau in X.faces(ell)
            )
            if total != w:
                failures += 1
    report(2, failures == 0, f"||f|| = sum of mutual weights on 500 samples ({failures} violations)")


def test_criterion_03_cheeger_exhaustive():
    total_violations = total_graphs = total_subsets = 0
    for name, X in sorted(bundled_instances().items()):
        violations, graphs, subsets = cheeger_sweep(X, max_vertices=14)
        total_violations += violations
        total_graphs += graphs
        total_subsets += subsets
    report(
        3,
        total_violations == 0 and total_subsets > 0,
        f"cut and internal-mass bounds on {total_subsets} subsets over "
        f"{total_graphs} link graphs ({total_violations} violations)",
    )


def test_criterion_04_delta1_theorem_sweep():
    violations = classified = nonvacuous = 0
    for k in (1, 2):
        d = k + 1
        for n in (6, 7, 8):
            X = complete_complex(n, d)
            lam = local_spectral_lambda(X).as_fraction()
            eta = Fraction(1, n - k)
            eps = Fraction(1, 200)
            faces = X.faces(k)
            for size in (1, 2, 3):
                for chosen in combinations(faces, size):
                    a = FaceSet.make(X, k, chosen)
                    verdict = classify_non_local(a, eta, eps)
                    if not verdict.passed:
                        continue
                    classified += 1
                    check = check_delta1_theorem_abelian(a, lam, eta, eps)
                    if check.rhs > 0:
                        nonvacuous += 1
                    if not check.passed:
                        violations += 1
    report(
        4,
        violations == 0 and classified > 0 and nonvacuous > 0,
        f"{classified} non-local sets checked, {nonvacuous} with a positive bound "
        f"({violations} violations)",
    )


def test_criterion_05_star_example():
    X = complete_complex(6, 2)
    star = FaceSet.make(X, 1, [(0, u) for u in range(1, 6)])
    d1 = delta1(star)
    hierarchy = thin_hierarchy(star, Fraction(1, 2))
    on_thin = X.mutual_weight_sets(star.faces, 1, hierarchy.thin(0), 0)
    ok = len(d1) == 0 and on_thin == star.weight / 2
    report(5, ok, f"star of a vertex: delta1 empty, thin mass {on_thin} = ||A||/2")


def test_criterion_06_hierarchy_bounds():
    rng = random.Random(106)
    X3 = complete_complex(7, 3)
    X2 = complete_complex(6, 2)
    lam3 = local_spectral_lambda(X3).as_fraction()
    lam2 = local_spectral_lambda(X2).as_fraction()
    fat_fail = empty_fail = 0
    for _ in range(500):
        X, lam = (X3, lam3) if rng.random() < 0.5 else (X2, lam2)
        k = rng.randint(1, X.dimension - 1)
        G = group_from_spec(rng.choice(ABELIAN_GROUPS))
        f = random_cochain(X, k, G, rng, rng.choice((0.02, 0.1, 0.3, 0.6)))
        eta = Fraction(rng.randint(1, 19), 20)
        h = thin_hierarchy(f.support(), eta)
        w = f.weight()
        if not check_fat_mass_bound(h, w).passed:
            fat_fail += 1
        if not check_empty_face_is_thin(h, w).passed:
            empty_fail += 1
    ups_fail = 0
    ups_checked = 0
    for _ in range(500):
        f = random_cochain(X3, 2, group_from_spec("Z2"), rng, rng.choice((0.05, 0.2)))
        eta = Fraction(rng.randint(85, 99), 100)
        a = f.support()
        h = thin_hierarchy(a, eta)
        try:
            if not check_upsilon_bound_abelian(a, h, lam3).passed:
                ups_fail += 1
            ups_checked += 1
        except ParameterViolationError:
            continue
    ups2_fail = 0
    for _ in range(500):
        k = rng.randint(1, 2)
        a = FaceSet.make(X3, k, rng.sample(sorted(X3.faces(k)), k=rng.randint(0, 8)))
        eta = Fraction(rng.randint(1, 19), 20)
        h = thin_hierarchy(a, eta, "nonabelian")
        if not check_upsilon_bound_nonabelian(a, h, lam3).passed:
            ups2_fail += 1
    ok = fat_fail == 0 and empty_fail == 0 and ups_fail == 0 and ups2_fail == 0 and ups_checked > 400
    report(
        6,
        ok,
        f"fat-mass/empty-face/degenerate bounds over 500 samples each "
        f"({fat_fail}+{empty_fail}+{ups_fail}+{ups2_fail} violations)",
    )


def test_criterion_07_correction_contracts():
    rng = random.Random(107)
    failures = 0
    instances = 0

    def check_trace(trace):
        weights = [s.delta_weight_before for s in trace.steps] + [trace.final_delta_weight]
        monotone = all(a > b for a, b in zip(weights, weights[1:]))
        return (
            monotone
            and trace.total_moved <= trace.dist_bound
            and trace.step_count <= trace.r_bound
            and trace.final_delta_weight <= trace.initial_delta_weight
        )

    abelian_pool = [
        (complete_complex(6, 3), "Z2"),
        (complete_complex(6, 3), "Z3"),
        (complete_complex(7, 3), "Z2"),
        (glued_simplices(3, 2), "Z6"),
        (glued_simplices(3, 3), "Z3"),
    ]
    for i in range(120):
        X, spec = abelian_pool[i % len(abelian_pool)]
        G = group_from_spec(spec)
        base = coboundary_abelian(random_cochain(X, 0, G, rng, 0.5))
        v = rng.choice(sorted(X.vertices()))
        star = sorted(f for f in X.faces(1) if v in f)
        noise = Cochain(
            X, 1, G,
            {f: rng.randrange(1, G.order) for f in rng.sample(star, rng.randint(1, 2))},
        )
        f = base + noise
        instances += 1
        fixed, trace = correct_abelian(f)
        if not check_trace(trace):
            failures += 1

    nonabelian_pool = [(glued_simplices(3, 2), "S3"), (glued_simplices(3, 2), "D4")]
    for i in range(80):
        X, spec = nonabelian_pool[i % len(nonabelian_pool)]
        G = group_from_spec(spec)
        base = coboundary_nonabelian_0(random_cochain(X, 0, G, rng, 0.5))
        values = dict(base.values)
        for edge in rng.sample(sorted(X.faces(1)), rng.randint(1, 2)):
            new = G.op(values.get(edge, 0), rng.randrange(1, G.order))
            if new:
                values[edge] = new
            else:
                values.pop(edge, None)
        f = Cochain(X, 1, G, values)
        instances += 1
        fixed, trace = correct_nonabelian(f)
        if not check_trace(trace):
            failures += 1
    report(7, failures == 0 and instances == 200, f"{instances} planted corrections ({failures} violations)")


def _plain_expansion_constant(X, G, k):
    """Independent slow path: direct double loop over explicit value vectors."""
    faces = list(X.faces(k))
    lower = list(X.faces(k - 1))
    above = list(X.faces(k + 1))

    def delta_onto(target, values):
        out = []
        for face in target:
            acc = 0
            for i in range(len(face)):
                sub = face[:i] + face[i + 1 :]
                val = values.get(sub, 0)
                if val:
                    acc = G.op(acc, val if i % 2 == 0 else G.inv(val))
            out.append(acc)
        return tuple(out)

    coboundaries = set()
    for assignment in product(range(G.order), repeat=len(lower)):
        coboundaries.add(delta_onto(faces, dict(zip(lower, assignment))))
    best = None
    for assignment in product(range(G.order), repeat=len(faces)):
        if assignment in coboundaries:
            continue
        dvals = delta_onto(above, dict(zip(faces, assignment)))
        delta_weight = sum(X.face_weight(up) for up, v in zip(above, dvals) if v)
        dist = min(
            sum(X.face_weight(f) for f, a, b in zip(faces, assignment, other) if a != b)
            for other in coboundaries
        )
        ratio = Fraction(delta_weight) / dist
        if best is None or ratio < best:
            best = ratio
    return best


def test_criterion_08_oracle_equivalence():
    rng = random.Random(108)
    # Pairs chosen so every enumeration stays under the 2^24-state budget.
    pairs = [
        (single_simplex(2), "Z2"),
        (single_simplex(2), "S3"),
        (complete_complex(4, 2), "Z3"),
        (complete_complex(4, 2), "Z6"),
        (glued_simplices(2, 2), "D4"),
        (glued_simplices(2, 2), "Z2xZ2"),
        (single_simplex(3), "S3"),
        (single_simplex(3), "Z6"),
        (complete_complex(5, 2), "Z2"),
        (complete_complex(5, 2), "Z3"),
    ]
    failures = 0
    instances = 0
    for i in range(100):
        X, spec = pairs[i % len(pairs)]
        G = group_from_spec(spec)
        k = 1
        f = random_cochain(X, k, G, rng, rng.choice((0.2, 0.5)))
        instances += 1
        # is_minimal (early-exit scan) vs the full-enumeration distance.
        dist, _ = exact_distance(f, "B")
        if is_minimal(f) != (dist == f.weight()):
            failures += 1
        # is_cocycle (sparse coboundary) vs membership in the enumerated space.
        if G.is_abelian or k <= 1:
            spaces = enumerate_spaces(X, G, k)
            in_z = f.row.tolist() in spaces.cocycles.tolist()
            if f.is_cocycle() != in_z:
                failures += 1
        # distance (sparse support diff) vs a full face-by-face re-evaluation.
        g = random_cochain(X, k, G, rng, 0.5)
        full = sum(
            X.face_weight(face)
            for face in X.faces(k)
            if f.values.get(face, 0) != g.values.get(face, 0)
        )
        if distance(f, g) != full:
            failures += 1
    # coboundary_expansion_constant vs the independent plain scan.
    for X, spec, k in [
        (single_simplex(2), "Z2", 1),
        (single_simplex(2), "Z3", 1),
        (complete_complex(4, 2), "Z2", 1),
        (glued_simplices(2, 2), "Z3", 0),
        (glued_simplices(2, 2), "Z2", 1),
    ]:
        G = group_from_spec(spec)
        fast = coboundary_expansion_constant(X, G, k).epsilon
        plain = _plain_expansion_constant(X, G, k)
        instances += 1
        if fast != plain:
            failures += 1
    report(8, failures == 0, f"{instances} oracle-agreement instances ({failures} mismatches)")


def test_criterion_09_cosystolic_cross_check():
    f2 = group_from_spec("Z2")
    torus = torus_complex()
    constants = cosystolic_expansion_constants(torus, f2)
    entry = constants.per_dim[1]
    independent = min_nontrivial_cocycle_weight(torus, f2, 1)
    torus_ok = (
        entry["z_size"] > entry["b_size"]
        and entry["mu"] == independent == Fraction(2, 7)
    )
    simplex_ok = True
    for d in (2, 3):
        X = single_simplex(d)
        for k in range(0, d):
            spaces = enumerate_spaces(X, f2, k)
            z = set(map(tuple, spaces.cocycles.tolist()))
            b = set(map(tuple, spaces.coboundaries.tolist()))
            if z != b:
                simplex_ok = False
    report(
        9,
        torus_ok and simplex_ok,
        f"torus mu = {entry['mu']} (independent {independent}), simplices have Z = B",
    )


def test_criterion_10_conjugation_invariance():
    rng = random.Random(110)
    X = glued_simplices(3, 2)
    failures = 0
    for spec in ("S3", "D4"):
        G = group_from_spec(spec)
        for _ in range(250):
            f0 = random_cochain(X, 0, G, rng, 0.5)
            g1 = random_cochain(X, 1, G, rng, 0.4)
            if (
                coboundary_nonabelian_1(act(f0, g1)).weight()
                != coboundary_nonabelian_1(g1).weight()
            ):
                failures += 1
    report(10, failures == 0, f"500 relabeling-invariance pairs ({failures} violations)")


def test_criterion_11_deterministic_reports():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "hdx.cli", "verify", "all", "--seed", "0"],
            capture_output=True,
            text=True,
        )
        for _ in range(2)
    ]
    identical = runs[0].stdout == runs[1].stdout
    ok = identical and all(r.returncode == 0 for r in runs)
    payload = json.loads(runs[0].stdout)
    report(
        11,
        ok and payload["passed"],
        f"verify all --seed 0 twice: byte-identical={identical}, all suites passed",
    )
