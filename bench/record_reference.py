"""Rewrite bench/reference.json from the current program.

Runs `analyze --format json` on every analyze instance, unrelabeled and at
the default budget, and stores the relabeling-invariant summary that the
benchmark checks each analyze report against:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import outcheck
import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from hdx import cli
    from hdx.groups import group_from_spec
    from hdx.instances import bundled_instances

    bundled = bundled_instances()
    workdir = run.WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name, spec, _ in run.ANALYZE_INSTANCES:
            X = bundled[name]
            path = workdir / f"{name}.txt"
            path.write_text(run.gen.write_complex(X.faces(X.dimension)), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["analyze", str(path), "--group", spec, "--format", "json"])
            if code != 0:
                print(f"analyze failed on {name}/{spec} with exit code {code}", file=sys.stderr)
                return 1
            G = group_from_spec(spec)
            reference[f"{name}/{spec}"] = outcheck.analyze_summary(json.loads(out.getvalue()), X.dimension, G.is_abelian)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
