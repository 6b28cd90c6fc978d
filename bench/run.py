"""hdx benchmark: closed-loop CLI workloads run in-process through hdx.cli.main.

Usage (from the repository root):

    python3 bench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

One client sends one command at a time and waits for it.  Inputs are made from
--seed; every command's output is checked from outside the package.  A run
repeats whole passes over the workload's commands until another pass would end
past --seconds (at least one pass).  With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 the run also makes one traced pass and
reports per-layer metrics.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import gen
import outcheck

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
# Reported times are reference seconds: wall seconds scaled by K_REF_S over the
# calibration kernel's time measured on either side of them (see Clock).
K_REF_S = 0.015

# (bundled instance, group, relabelings per pass): the four instances that take
# seconds get two relabelings each, so more commands share the run-to-run noise
# of complete-3-7, which alone takes ~20 s.
ANALYZE_INSTANCES = (
    ("torus-7", "Z2", 2),
    ("projective-plane-6", "Z2", 2),
    ("complete-3-6", "Z2", 2),
    ("complete-3-6", "S3", 2),
    ("complete-3-7", "Z2", 1),
)
# (name, top faces, group, r, plants per pass): noise at r vertices (abelian) or
# on r edges (non-abelian).  With r = 1 every plant takes exactly one step, so
# a command's time does not hang on a seed-dependent step count (r = 3 took 2
# to 4 steps); T3 gets one plant per pass because its step costs ~10 s.
CORRECT_INSTANCES = (
    ("complete-3-8", lambda: gen.complete_tops(8, 3), "Z3", 1, 6),
    ("complete-3-9", lambda: gen.complete_tops(9, 3), "Z2", 1, 6),
    ("complete-3-6", lambda: gen.complete_tops(6, 3), "D4", 1, 6),
    ("complete-3-7", lambda: gen.complete_tops(7, 3), "S3", 1, 6),
    ("torus3-3", lambda: gen.torus3_tops(3), "Z2", 1, 1),
)
FASTPATH_COMPLEXES = (
    ("complete-2-40", lambda: gen.complete_tops(40, 2)),
    ("complete-3-14", lambda: gen.complete_tops(14, 3)),
    ("torus3-5", lambda: gen.torus3_tops(5)),
)
FASTPATH_SUPPORT = 6
GENERATE_N = 20


@dataclass
class Op:
    kind: str
    argv: List[str]
    # check(stdout) -> (problem or None, work units); only called when the exit code is 0
    check: Callable[[str], Tuple[Optional[str], float]]


@dataclass
class Result:
    kind: str
    wall: float
    seconds: float  # reference seconds
    work: float
    problem: Optional[str]


@dataclass
class Run:
    results: List[Result] = field(default_factory=list)
    pass_seconds: List[float] = field(default_factory=list)
    skipped: Dict[str, int] = field(default_factory=dict)  # instance -> refused constants
    lifted: List[str] = field(default_factory=list)


# -- workloads ------------------------------------------------------------------------


class Workload:
    """Makes a pass of ops from the seed; `main` is the command timed by op_s."""

    main = ""

    def __init__(self, seed: int, workdir: Path, run: Run):
        self.seed, self.workdir, self.run = seed, workdir, run

    def prepare(self) -> None:
        """Input generation shared by every pass."""

    def make_pass(self, index: int) -> List[Op]:
        raise NotImplementedError

    def warmup(self) -> List[Op]:
        raise NotImplementedError

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def rng(self, *salt) -> random.Random:
        return random.Random(":".join(map(str, (self.seed,) + salt)))


class Analyze(Workload):
    """`analyze --format json` on seeded relabelings of the bundled instances."""

    main = "analyze"

    def prepare(self):
        from hdx.groups import group_from_spec
        from hdx.instances import bundled_instances

        bundled = bundled_instances()
        reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
        rng = self.rng("analyze")
        self.ops = []
        for name, spec, copies in ANALYZE_INSTANCES:
            X = bundled[name]
            G = group_from_spec(spec)
            for copy in range(copies):
                tops = gen.relabel(X.faces(X.dimension), rng)
                path = self.write(f"{name}-{spec}-{copy}.txt", gen.write_complex(tops))
                check = self._checker(tops, G, reference[f"{name}/{spec}"], f"{name}/{spec}")
                self.ops.append(Op("analyze", ["analyze", path, "--group", spec, "--format", "json"], check))
        small = bundled["complete-2-5"]
        self.warm = self.write("warmup.txt", gen.write_complex(small.faces(small.dimension)))

    def _checker(self, tops, G, reference, label):
        d = len(tops[0]) - 1

        def check(stdout):
            report = json.loads(stdout)
            states, skipped = outcheck.analyze_tally(report, tops, G.order, G.is_abelian)
            self.run.skipped[label] = skipped
            summary = outcheck.analyze_summary(report, d, G.is_abelian)
            mismatches, lifted = outcheck.compare_summary(reference, summary)
            self.run.lifted.extend(f"{label} {item}" for item in lifted)
            return ("; ".join(mismatches) or None), states

        return check

    def make_pass(self, index):
        return list(self.ops)

    def warmup(self):
        return [Op("analyze", ["analyze", self.warm, "--group", "Z2", "--format", "json"], lambda out: (None, 0))]


class Correct(Workload):
    """`correct` on planted cochains: a coboundary plus noise near r vertices or edges."""

    main = "correct"

    def prepare(self):
        from hdx.groups import group_from_spec

        self.instances = []
        for name, tops_fn, spec, r, plants in CORRECT_INSTANCES:
            tops = gen.relabel(tops_fn(), self.rng("relabel", name))
            G = group_from_spec(spec)
            table = None if G.is_abelian else [[G.op(a, b) for b in range(G.order)] for a in range(G.order)]
            path = self.write(f"{name}.txt", gen.write_complex(tops))
            triangles = outcheck.face_weights(tops, 2)
            self.instances.append((name, tops, spec, G.order, table, r, plants, path, triangles))

    def _op(self, tag, tops, spec, order, table, r, path, triangles, rng):
        if table is None:
            values = gen.plant_abelian(tops, order, r, rng)
        else:
            values = gen.plant_nonabelian(tops, table, r, rng)
        cochain = self.write(f"{tag}.cochain", gen.write_cochain(values, 1, spec))
        outdir = self.workdir / f"{tag}.out"
        argv = ["correct", path, "--cochain", cochain, "--path", "abelian" if table is None else "nonabelian", "--out", str(outdir)]

        def check(stdout):
            return outcheck.check_correct(stdout, outdir, triangles, table, order)

        return Op("correct", argv, check)

    def make_pass(self, index):
        return [
            self._op(f"{name}-p{index}-{j}", tops, spec, order, table, r, path, tri, self.rng("plant", name, index, j))
            for name, tops, spec, order, table, r, plants, path, tri in self.instances
            for j in range(plants)
        ]

    def warmup(self):
        tops = gen.complete_tops(5, 3)
        path = self.write("warmup.txt", gen.write_complex(tops))
        return [self._op("warmup", tops, "Z2", 2, None, 1, path, outcheck.face_weights(tops, 2), self.rng("warmup"))]


class Fastpath(Workload):
    """`generate complete`, then `delta1 --alpha 1/2` with sparse 1-cochains on large complexes."""

    main = "delta1"

    def prepare(self):
        self.complexes = []
        for name, tops_fn in FASTPATH_COMPLEXES:
            tops = tops_fn()
            path = self.write(f"{name}.txt", gen.write_complex(tops))
            self.complexes.append((name, tops, path, outcheck.face_weights(tops, 2)))
        self.generated = gen.complete_tops(GENERATE_N, 2)

    def _delta1(self, tag, tops, path, triangles, count, rng):
        values = gen.sparse_edges(tops, count, rng)
        cochain = self.write(f"{tag}.cochain", gen.write_cochain(values, 1, "Z2"))
        argv = ["delta1", path, "--cochain", cochain, "--alpha", "1/2", "--format", "json"]
        return Op("delta1", argv, lambda out: (outcheck.check_delta1(json.loads(out), list(values), triangles), 1))

    def make_pass(self, index):
        argv = ["generate", "complete", "--n", str(GENERATE_N), "--d", "2"]
        ops = [Op("generate", argv, lambda out: (outcheck.check_generate(out, self.generated), 1))]
        for name, tops, path, triangles in self.complexes:
            ops.append(self._delta1(f"{name}-p{index}", tops, path, triangles, FASTPATH_SUPPORT, self.rng(name, index)))
        return ops

    def warmup(self):
        tops = gen.complete_tops(8, 2)
        path = self.write("warmup.txt", gen.write_complex(tops))
        small = Op("generate", ["generate", "complete", "--n", "6", "--d", "2"], lambda out: (None, 0))
        return [small, self._delta1("warmup", tops, path, outcheck.face_weights(tops, 2), 3, self.rng("warmup"))]


class Verify(Workload):
    """`verify all --seed S` with a new S per pass.

    The first pass runs its S twice and the two reports must be byte-identical;
    later passes run once, so a run averages over more suite seeds.
    """

    main = "verify"

    def make_pass(self, index):
        suite_seed = self.seed * 1000 + index
        first: Dict[str, str] = {}

        def check(stdout):
            report = json.loads(stdout)
            if not report.get("passed"):
                return f"verify --seed {suite_seed} did not pass", 0
            if "text" in first and first["text"] != stdout:
                return f"verify --seed {suite_seed} is not byte-identical across runs", 0
            first.setdefault("text", stdout)
            return None, sum(len(suite["checks"]) for suite in report["suites"].values())

        argv = ["verify", "all", "--seed", str(suite_seed)]
        return [Op("verify", argv, check) for _ in range(2 if index == 0 else 1)]

    def warmup(self):
        return [Op("verify", ["verify", "hierarchy", "--seed", "0"], lambda out: (None, 0))]


WORKLOADS = {"analyze": Analyze, "correct": Correct, "fastpath": Fastpath, "verify": Verify}


# -- timing ---------------------------------------------------------------------------------


def _kernel(table: Dict[Tuple[int, int, int], int], n: int = 30000) -> None:
    for i in range(n):
        key = (i, i * 7 % 1013, i ^ 91)
        table[key] = table.get(key, 0) + i


class Clock:
    """Turns wall seconds into reference seconds.

    The host is shared, and its speed for one process swings by a third within
    seconds to minutes.  A fixed pure-Python kernel (tuple hashing and dict
    updates, like hdx's own work) is timed before and after every measured
    interval, and the interval is scaled by K_REF_S over the mean of those two
    kernel times.  Host swings cancel, while changes in hdx still show because
    the kernel never calls it.  Over six seeds of the verify workload this cut
    the spread of op_s (IQR over median) from 0.13, with one speed estimate
    per run, to 0.04.  The kernel's table lives as long as the clock, so it
    adds a constant to the peak RSS instead of hiding hdx's peak.
    """

    def __init__(self):
        self._table: Dict[Tuple[int, int, int], int] = {}
        _kernel(self._table)
        self.samples: List[float] = []
        self._sample()

    def _sample(self) -> None:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _kernel(self._table)
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))

    def scale(self, wall: float) -> float:
        """Reference seconds of an interval that just ended; the last sample preceded it."""
        self._sample()
        return wall * K_REF_S / ((self.samples[-2] + self.samples[-1]) / 2)


# -- running ops -------------------------------------------------------------------------


def execute(cli, op: Op, clock: Optional[Clock] = None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    problem = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except (Exception, SystemExit) as exc:
        code = None
        problem = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    seconds = clock.scale(wall) if clock is not None else wall
    work = 0.0
    if problem is None and code != 0:
        problem = f"exit code {code}: {err.getvalue().strip()[:200]}"
    if problem is None:
        try:
            problem, work = op.check(out.getvalue())
        except (ValueError, KeyError, TypeError, OSError) as exc:
            problem = f"output check raised {type(exc).__name__}: {exc}"
    if problem is not None:
        print(f"FAILED {' '.join(op.argv)}: {problem}", file=sys.stderr)
    return Result(op.kind, wall, seconds, work, problem)


def run_pass(cli, ops: List[Op], run: Run, clock: Clock, tracer=None) -> float:
    """Run one pass; returns its wall seconds."""
    start = time.perf_counter()
    done = len(run.results)
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        run.results.append(execute(cli, op, clock))
    run.pass_seconds.append(sum(r.wall for r in run.results[done:]))
    return time.perf_counter() - start


def measure(cli, workload: Workload, first: List[Op], budget_s: float, clock: Clock) -> None:
    """Whole passes until the next one would end past budget_s (at least one)."""
    start = time.perf_counter()
    ops, index = first, 0
    while True:
        last = run_pass(cli, ops, workload.run, clock)
        index += 1
        if time.perf_counter() - start + last > budget_s:
            return
        ops = workload.make_pass(index)


# -- metrics --------------------------------------------------------------------------------


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: List[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n} (too few for a tail)"
    ordered = sorted(values)
    return f"p{100 * (n - 10) // n}={ordered[n - 11]:.4f}s n={n}"


def end_to_end(workload: Workload, run: Run, setup_s: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics; times are in reference seconds."""
    main = [r for r in run.results if r.kind == workload.main]
    # fastpath counts every command as one unit of work, so generate time shows here
    worked = run.results if workload.main == "delta1" else main
    rates = [r.work / r.seconds for r in worked if r.work > 0]
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (geomean([r.seconds for r in main]), "s"),
        "work_per_s": (geomean(rates) if rates else 0.0, "work/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def describe(workload: Workload, run: Run, clock: Clock) -> List[str]:
    """Human-readable lines in wall seconds, under the per-command metric names."""
    lines = []
    for kind in sorted({r.kind for r in run.results}):
        secs = [r.wall for r in run.results if r.kind == kind]
        lines.append(f"{kind}_s (wall): median={statistics.median(secs):.4f}s {tail(secs)}")
    mains = [r for r in run.results if r.kind == workload.main]
    if workload.main == "analyze":
        lines.append(f"analyze_states_per_s (wall): {sum(r.work for r in mains) / sum(r.wall for r in mains):.1f}")
        lines.append(f"analyze_skipped: {sum(run.skipped.values())} {run.skipped}")
    if workload.main == "correct":
        lines.append(f"correct_step_s (wall): {sum(r.wall for r in mains) / max(sum(r.work for r in mains), 1):.4f}s")
    failed = sum(r.problem is not None for r in run.results)
    lines.append(f"failed_ops: {failed}/{len(run.results)}")
    lines.append(f"pass_s (wall): {[round(s, 3) for s in run.pass_seconds]}")
    kernel = sorted(clock.samples)
    lines.append(
        f"calibration kernel: median {statistics.median(kernel) * 1000:.2f} ms, range "
        f"{kernel[0] * 1000:.2f}-{kernel[-1] * 1000:.2f} ms, n={len(kernel)}"
    )
    return lines


LAYER_ORDER = ("cli", "reporting", "complexes", "spectral", "expansion", "cochains", "correction", "oracle", "suites")


def per_layer(tracer, traced: Run, untraced_median: float) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    table = tracer.span_table()
    wall = sum(r.wall for r in traced.results)
    metrics: Dict[str, Tuple[float, str]] = {}
    lines = [f"{'span':58s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s}"]
    for name in sorted(table):
        row = table[name]
        lines.append(f"{name:58s} {row['calls']:8d} {row['busy_s']:10.4f} {row['self_s']:10.4f}")
    for layer in LAYER_ORDER:
        rows = [row for name, row in table.items() if name.split(".")[0] == layer]
        self_s = sum(row["self_s"] for row in rows)
        lines.append(f"layer {layer}: self_s={self_s:.4f}")
        metrics[f"{layer}.self_pct"] = (100 * self_s / wall, "%")
        metrics[f"{layer}.calls"] = (sum(row["calls"] for row in rows), "count")
    counters = tracer.counters
    link_calls = counters["complexes.link.calls"]
    metrics["complexes.link.hit_ratio"] = (counters["complexes.link.repeats"] / link_calls if link_calls else 0.0, "ratio")
    metrics["correction.steps"] = (counters["correction.steps"], "count")
    metrics["oracle.nominal_states"] = (counters["oracle.nominal_states"], "count")
    refused, oracle_calls = tracer.refusals()
    metrics["oracle.refusals"] = (refused / oracle_calls if oracle_calls else 0.0, "ratio")
    metrics["analyze_skipped"] = (sum(traced.skipped.values()), "count")
    by_op = tracer.layer_seconds_by_op()
    for kind in sorted({r.kind for r in traced.results}):
        ops = [i for i, r in enumerate(traced.results, start=1) if r.kind == kind]
        kind_wall = sum(traced.results[i - 1].wall for i in ops)
        shares = {layer: 100 * sum(by_op[i].get(layer, 0.0) for i in ops) / kind_wall for layer in LAYER_ORDER}
        lines.append(f"{kind} self-time shares: " + " ".join(f"{k}={v:.1f}%" for k, v in shares.items() if v >= 0.05))
    traced_pass = traced.pass_seconds[0]
    metrics["trace_overhead_pct"] = (100 * (traced_pass - untraced_median) / untraced_median, "%")
    metrics["span_coverage_pct"] = (100 * tracer.root_seconds() / wall, "%")
    lines.append(f"traced pass {traced_pass:.4f}s, untraced median {untraced_median:.4f}s (wall)")
    return metrics, lines


# -- entry point ---------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hdx" / "cli.py").is_file():
        print(f"error: no hdx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pin BLAS to one thread before numpy loads; measure at the default budget.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("HDX_BUDGET", None)
    sys.path.insert(0, str(ROOT / "src"))

    clock = Clock()
    start = time.perf_counter()
    from hdx import cli

    import_s = time.perf_counter() - start

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run()
        workload = WORKLOADS[args.workload](args.seed, workdir, run)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.prepare()
            first = workload.make_pass(0)
            for op in workload.warmup():
                execute(cli, op)
            setups.append(time.perf_counter() - start)
        setup_wall = import_s + statistics.median(setups)
        setup_s = clock.scale(setup_wall)

        measure(cli, workload, first, args.seconds, clock)
        lines = describe(workload, run, clock)
        metrics = end_to_end(workload, run, setup_s)
        results = list(run.results)

        if args.trace:
            from spans import Tracer

            traced = Run()
            workload.run = traced
            tracer = Tracer()
            tracer.install()
            try:
                run_pass(cli, workload.make_pass(0), traced, clock, tracer)
            finally:
                tracer.uninstall()
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics, layer_lines = per_layer(tracer, traced, statistics.median(run.pass_seconds))
            lines += layer_lines
            results += traced.results
            run.lifted += traced.lifted

        if run.lifted:
            review = WORK / f"review-{args.workload}-seed{args.seed}.json"
            review.write_text(json.dumps(sorted(set(run.lifted)), indent=2) + "\n", encoding="utf-8")
            lines.append(f"refusals lifted since the reference (see {review.name}): {len(set(run.lifted))}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines.append(
        f"setup_s (wall): {setup_wall:.4f} = import {import_s:.4f} + median of "
        f"{SETUP_REPEATS} set-ups {[round(s, 4) for s in setups]}"
    )
    for line in lines:
        print(line)
    failed = sum(r.problem is not None for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
