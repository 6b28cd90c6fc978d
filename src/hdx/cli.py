"""Command-line interface: generate, analyze, delta1, correct, verify.

All machine output is canonical JSON (identical inputs and seeds give
byte-identical reports); the default human-readable view is rendered from the
same JSON payload.  The enumeration budget defaults to 2^24 states and can be
overridden with --budget or the HDX_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional

from .cochains import Cochain, cochain_from_text, cochain_to_text
from .complexes import FaceSet, SimplicialComplex
from .correction import correct_abelian, correct_nonabelian
from .errors import BadParamsError, BudgetExceededError, HdxError, PremiseFailedError
from .expansion import (
    check_delta1_theorem_abelian,
    classify_non_local,
    classify_weakly_non_local,
    delta1,
)
from .groups import group_from_spec
from .instances import complete_complex, glued_simplices, torus_complex
from .oracle import (
    EnumerationBudget,
    coboundary_expansion_constant,
    cosystolic_expansion_constants,
    verify_against_oracle,
)
from .reporting import dumps_report, render_table, to_jsonable
from .spectral import (
    DisconnectedGraphError,
    second_eigenvalue,
    underlying_graph,
)
from .suites import SUITE_NAMES, run_suites


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational like 1/3, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdx",
        description="Exact expansion analysis of simplicial complexes over finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a complex file for a named family")
    gen.add_argument("kind", choices=("complete", "file", "glued-simplices", "torus"))
    gen.add_argument("--n", type=int, default=None, help="vertex count (complete)")
    gen.add_argument("--d", type=int, default=None, help="dimension")
    gen.add_argument("--count", type=int, default=2, help="simplex count (glued-simplices)")
    gen.add_argument("--input", type=Path, default=None, help="source file (kind=file)")
    gen.add_argument("--out", type=Path, default=None, help="output path (default stdout)")

    ana = sub.add_parser("analyze", help="spectral and expansion report for a complex")
    ana.add_argument("complex", type=Path)
    ana.add_argument("--group", default="Z2")
    ana.add_argument("--budget", type=int, default=None)
    ana.add_argument("--out", type=Path, default=None)
    ana.add_argument("--format", choices=("json", "table"), default="table")

    dl1 = sub.add_parser("delta1", help="exactly-one-covered faces and locality of a support")
    dl1.add_argument("complex", type=Path)
    dl1.add_argument("--cochain", type=Path, required=True)
    dl1.add_argument("--group", default=None, help="override the cochain header group")
    dl1.add_argument("--eta", type=_fraction, default=Fraction(1, 4))
    dl1.add_argument("--eps", type=_fraction, default=Fraction(1, 16))
    dl1.add_argument("--alpha", type=_fraction, default=None)
    dl1.add_argument("--out", type=Path, default=None)
    dl1.add_argument("--format", choices=("json", "table"), default="table")

    cor = sub.add_parser("correct", help="run the local-correction loop on a cochain")
    cor.add_argument("complex", type=Path)
    cor.add_argument("--cochain", type=Path, required=True)
    cor.add_argument("--path", choices=("abelian", "nonabelian"), default="abelian")
    cor.add_argument("--group", default=None)
    cor.add_argument("--eta", type=_fraction, default=None)
    cor.add_argument("--eps", type=_fraction, default=None)
    cor.add_argument("--beta", type=_fraction, default=None)
    cor.add_argument("--budget", type=int, default=None)
    cor.add_argument("--out", type=Path, required=True, help="output directory")

    ver = sub.add_parser("verify", help="run the theorem-verification suites")
    ver.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=("all",) + SUITE_NAMES + ("none",),
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--budget", type=int, default=None)
    ver.add_argument("--out", type=Path, default=None)
    ver.add_argument("--format", choices=("json", "table"), default="json")
    ver.add_argument("--bundle", type=Path, default=None, help="replay a counterexample bundle")
    return parser


def _budget(args) -> EnumerationBudget:
    budget = getattr(args, "budget", None)
    if budget is None:
        return EnumerationBudget.default()
    if budget < 0:
        raise BadParamsError(f"--budget must be a non-negative number of states, got {budget}")
    return EnumerationBudget(max_states=budget)


def _emit(payload: Dict[str, object], fmt: str, out: Optional[Path]) -> None:
    text = dumps_report(payload) if fmt == "json" else render_table(payload) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _load_complex(path: Path) -> SimplicialComplex:
    return SimplicialComplex.from_text(path.read_text(encoding="utf-8"))


def cmd_generate(args) -> int:
    if args.kind == "complete":
        if args.n is None or args.d is None:
            raise BadParamsError("generate complete needs --n and --d")
        X = complete_complex(args.n, args.d)
    elif args.kind == "glued-simplices":
        if args.d is None:
            raise BadParamsError("generate glued-simplices needs --d")
        X = glued_simplices(args.d, args.count)
    elif args.kind == "torus":
        X = torus_complex()
    else:
        if args.input is None:
            raise BadParamsError("generate file needs --input")
        X = _load_complex(args.input)
    text = X.to_text()
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


def cmd_analyze(args) -> int:
    budget = _budget(args)
    X = _load_complex(args.complex)
    G = group_from_spec(args.group)
    report: Dict[str, object] = {
        "complex": {
            "dimension": X.dimension,
            "faces": {str(k): X.face_count(k) for k in range(-1, X.dimension + 1)},
            "degree_bound": X.degree_bound(),
        },
        "group": G.spec,
    }
    links: Dict[str, object] = {}
    global_lambda = None
    disconnected = []
    for k in range(-1, X.dimension - 1):
        for sigma in X.faces(k):
            sub = X if sigma == () else X.link(sigma)
            key = "root" if sigma == () else " ".join(map(str, sigma))
            try:
                cert = second_eigenvalue(underlying_graph(sub))
            except DisconnectedGraphError:
                links[key] = {"lambda": 1.0, "connected": False}
                disconnected.append(sigma)
                continue
            links[key] = {"lambda": cert.lambda_est, "lambda_plus": cert.lambda_plus}
            if global_lambda is None or cert.lambda_plus > global_lambda:
                global_lambda = cert.lambda_plus
            beta_entry = {}
            if sigma != () and sub.dimension >= 1:
                top_k = sub.dimension if G.is_abelian else min(sub.dimension, 2)
                for kk in range(0, top_k):
                    try:
                        const = coboundary_expansion_constant(sub, G, kk, budget)
                    except BudgetExceededError:
                        beta_entry[str(kk)] = "skipped"
                        continue
                    beta_entry[str(kk)] = None if const.vacuous else const.epsilon
                links[key]["coboundary_expansion"] = beta_entry
    report["links"] = links
    report["lambda"] = 1.0 if disconnected else global_lambda
    report["disconnected_links"] = disconnected
    constants = cosystolic_expansion_constants(X, G, budget)
    report["cosystolic"] = {
        str(k): {
            "epsilon": v.get("epsilon"),
            "mu": v.get("mu"),
            "skipped": v.get("skipped"),
            "z_size": v.get("z_size"),
            "b_size": v.get("b_size"),
        }
        for k, v in constants.per_dim.items()
    }
    report["provenance"] = {
        "weights": "exact rationals",
        "lambda": "dense eigensolve with certified upper bound",
        "expansion_constants": "exhaustive enumeration within budget",
    }
    _emit(report, args.format, args.out)
    return 0


def cmd_delta1(args) -> int:
    X = _load_complex(args.complex)
    group = group_from_spec(args.group) if args.group else None
    f = cochain_from_text(args.cochain.read_text(encoding="utf-8"), X, group)
    support = FaceSet(X, f.dimension, f.support())
    d1 = delta1(support)
    from .spectral import local_spectral_lambda

    cert = local_spectral_lambda(X)
    verdict = classify_non_local(support, args.eta, args.eps)
    report: Dict[str, object] = {
        "support_size": len(support),
        "support_weight": support.weight,
        "delta1_size": len(d1),
        "delta1_weight": d1.weight,
        "lambda_plus": cert.lambda_plus,
        "non_local": {
            "passed": verdict.passed,
            "measured": dict(verdict.measured),
            "params": dict(verdict.params),
        },
    }
    if verdict.passed:
        check = check_delta1_theorem_abelian(support, cert.as_fraction(), args.eta, args.eps)
        report["expansion_check"] = check.as_dict()
    if args.alpha is not None:
        wverdict = classify_weakly_non_local(support, args.eta, args.eps, args.alpha)
        report["weakly_non_local"] = {
            "passed": wverdict.passed,
            "measured": dict(wverdict.measured),
            "witness": wverdict.witness,
        }
    _emit(report, args.format, args.out)
    return 0


def cmd_correct(args) -> int:
    budget = _budget(args)
    X = _load_complex(args.complex)
    group = group_from_spec(args.group) if args.group else None
    f = cochain_from_text(args.cochain.read_text(encoding="utf-8"), X, group)
    if args.path == "abelian":
        fixed, trace = correct_abelian(f, budget, args.eta, args.eps)
    else:
        fixed, trace = correct_nonabelian(f, budget, args.eta, args.eps, args.beta)
    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    for s in trace.steps:
        lines.append(
            json.dumps(
                to_jsonable(
                    {
                        "step": s.step,
                        "vertex": s.vertex,
                        "delta_weight_before": s.delta_weight_before,
                        "delta_weight_after": s.delta_weight_after,
                        "moved": s.moved,
                    }
                ),
                sort_keys=True,
            )
        )
    (outdir / "trace.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    (outdir / "corrected.cochain").write_text(cochain_to_text(fixed), encoding="utf-8")
    verdict = {
        "path": trace.path,
        "steps": trace.step_count,
        "initial_delta_weight": trace.initial_delta_weight,
        "final_delta_weight": trace.final_delta_weight,
        "total_moved": trace.total_moved,
        "dist_bound": trace.dist_bound,
        "r_bound": trace.r_bound,
        "locally_minimal": trace.locally_minimal,
        "classification": trace.verdict,
    }
    (outdir / "verdict.json").write_text(dumps_report(verdict), encoding="utf-8")
    sys.stdout.write(dumps_report({"out": str(outdir), "steps": trace.step_count}))
    return 0


def cmd_verify(args) -> int:
    budget = _budget(args)
    if args.bundle is not None:
        report = replay_bundle(args.bundle, budget)
        _emit(report, args.format, args.out)
        return 0 if report["passed"] else 1
    if args.suite == "none":
        payload = {"seed": args.seed, "suites": {}, "passed": True}
        _emit(payload, args.format, args.out)
        return 0
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    report = run_suites(names, seed=args.seed, budget=budget)
    _emit(report, args.format, args.out)
    if not report["passed"] and args.out is not None:
        emit_failure_records(report, args.out.parent / (args.out.stem + "-failures"))
    return 0 if report["passed"] else 1


def emit_failure_records(report: Dict[str, object], outdir: Path) -> None:
    """Write one JSON record per failed check so falsifications are archived."""
    outdir.mkdir(parents=True, exist_ok=True)
    for suite_name, suite in report["suites"].items():
        for check in suite["checks"]:
            if check["passed"]:
                continue
            path = outdir / f"{suite_name}-{check['name']}.json"
            path.write_text(dumps_report(check), encoding="utf-8")


def replay_bundle(bundle_dir: Path, budget: EnumerationBudget) -> Dict[str, object]:
    """Re-run the claim stored in a counterexample bundle directory."""
    claim = json.loads((bundle_dir / "claim.json").read_text(encoding="utf-8"))
    X = _load_complex(bundle_dir / "complex.txt")
    G = group_from_spec(claim["group"])
    cochain = None
    cochain_path = bundle_dir / "cochain.txt"
    if cochain_path.exists():
        cochain = cochain_from_text(cochain_path.read_text(encoding="utf-8"), X, G)
    check = verify_against_oracle(claim["claim"], X, G, cochain, budget)
    return {"bundle": bundle_dir.name, "passed": check.passed, "check": check.as_dict()}


def write_bundle(
    bundle_dir: Path,
    X: SimplicialComplex,
    group_spec: str,
    claim: Dict[str, object],
    cochain: Optional[Cochain] = None,
) -> None:
    """Serialize a replayable counterexample bundle."""
    bundle_dir.mkdir(parents=True, exist_ok=True)
    (bundle_dir / "complex.txt").write_text(X.to_text(), encoding="utf-8")
    if cochain is not None:
        (bundle_dir / "cochain.txt").write_text(cochain_to_text(cochain), encoding="utf-8")
    (bundle_dir / "claim.json").write_text(
        dumps_report({"group": group_spec, "claim": claim}), encoding="utf-8"
    )


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "analyze": cmd_analyze,
        "delta1": cmd_delta1,
        "correct": cmd_correct,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except PremiseFailedError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 3
    except HdxError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
