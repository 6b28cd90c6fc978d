import pytest

import hdx.suites as suites
from hdx.complexes import FaceSet
from hdx.expansion import delta_i
from hdx.suites import SUITE_NAMES, SUITES, run_suites


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_at_seed_zero(name):
    result = SUITES[name](seed=0)
    assert result.passed, [c.name for c in result.checks if not c.passed]
    payload = result.as_dict()
    assert payload["name"] == name
    assert all({"name", "passed", "lhs", "rhs", "params"} <= set(c) for c in payload["checks"])


def test_run_suites_aggregates():
    report = run_suites(("cosystolic",), seed=0)
    assert report["passed"] is True
    assert set(report["suites"]) == {"cosystolic"}


def test_injected_bug_is_caught(monkeypatch):
    # Simulate a buggy build in which delta1 counts "at least one" instead of
    # "exactly one": the suite must fail (the vertex-star example breaks).
    def touching_instead_of_exactly_one(a):
        k, X = a.dimension, a.complex
        out = [
            above
            for above in X.faces(k + 1)
            if any(set(f) <= set(above) for f in a.faces)
        ]
        return FaceSet.make(X, k + 1, out)

    monkeypatch.setattr(suites, "delta1", touching_instead_of_exactly_one)
    result = suites.suite_delta1(seed=0)
    assert not result.passed
    failing = {c.name for c in result.checks if not c.passed}
    assert any(name.startswith("star-example") for name in failing)


def test_injected_weight_bug_is_caught(monkeypatch):
    # A wrong containment count must break the exact partition identities.
    original = delta_i

    def off_by_one(a, i):
        return original(a, min(i + 1, a.dimension + 2))

    monkeypatch.setattr(suites, "delta_i", off_by_one)
    result = suites.suite_delta1(seed=0)
    assert not result.passed
