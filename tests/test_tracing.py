"""The benchmark's span tracer sees every correction step.

``bench/spans.py`` wraps the public functions of each layer by rebinding the
module globals that hold them; the correction loop must call its steps
through those globals for ``correction.steps`` to count them.
"""

import importlib.util
from pathlib import Path

from hdx import correction
from hdx.cochains import Cochain, coboundary_abelian, coboundary_nonabelian_0, random_cochain
from hdx.groups import group_from_spec
from hdx.instances import complete_complex

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def planted(X, G, rng, coboundary):
    """A coboundary with two edges at vertex 0 shifted by non-identity values."""
    values = dict(coboundary(random_cochain(X, 0, G, rng, 0.5)).values)
    for edge in ((0, 1), (0, 2)):
        new = G.op(values.get(edge, 0), 1)
        if new:
            values[edge] = new
        else:
            values.pop(edge, None)
    return Cochain(X, 1, G, values)


def test_traced_correction_counts_every_step(rng):
    X = complete_complex(6, 3)
    f_ab = planted(X, group_from_spec("Z3"), rng, coboundary_abelian)
    f_na = planted(X, group_from_spec("S3"), rng, coboundary_nonabelian_0)
    originals = (correction.one_step_abelian, correction.one_step_nonabelian)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        _, ab = correction.correct_abelian(f_ab)
        _, na = correction.correct_nonabelian(f_na)
    finally:
        tracer.uninstall()
    assert ab.step_count > 0 and na.step_count > 0
    assert tracer.counters["correction.steps"] == ab.step_count + na.step_count
    names = [span.name for span in tracer.spans]
    assert names.count("correction.correct_abelian") == names.count("correction.correct_nonabelian") == 1
    assert (correction.one_step_abelian, correction.one_step_nonabelian) == originals
