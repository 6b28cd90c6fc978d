"""Tests of the benchmark's own generators and counters.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import gen
import outcheck

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


@pytest.mark.parametrize("n", [3, 4])
def test_torus3_is_a_closed_pure_3_complex(n):
    from hdx.complexes import SimplicialComplex

    tops = gen.torus3_tops(n)
    assert len(tops) == 6 * n**3
    assert all(len(set(t)) == 4 for t in tops)
    X = SimplicialComplex(3, tops)  # validates closure, purity and distinct faces
    assert X.face_count(0) == n**3
    # a closed 3-manifold: every triangle bounds exactly two tetrahedra, chi = 0
    assert set(gen.faces_of(tops, 2).values()) == {2}
    counts = [len(gen.faces_of(tops, k)) for k in range(4)]
    assert counts[0] - counts[1] + counts[2] - counts[3] == 0
    for v in range(n**3):
        link = outcheck.link_tops(tops, (v,))
        assert len({u for face in link for u in face}) == 14


def test_torus3_needs_n_at_least_3():
    with pytest.raises(ValueError):
        gen.torus3_tops(2)


@pytest.mark.parametrize("tops", [[(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)], gen.torus3_tops(3)])
def test_relabel_preserves_face_counts(tops):
    image = gen.relabel(tops, random.Random(5))
    assert image != tops
    for k in range(len(tops[0])):
        before, after = gen.faces_of(tops, k), gen.faces_of(image, k)
        assert len(before) == len(after)
        assert Counter(before.values()) == Counter(after.values())


def test_writer_round_trips():
    tops = gen.relabel(gen.torus3_tops(3), random.Random(1))
    assert gen.read_complex(gen.write_complex(tops)) == (3, sorted(tops))


def _analyze(tops, spec):
    from hdx import cli

    path = Path(__file__).resolve().parent.parent / ".bench_work"
    path.mkdir(exist_ok=True)
    complex_file = path / f"test-{spec}.txt"
    complex_file.write_text(gen.write_complex(tops), encoding="utf-8")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(["analyze", str(complex_file), "--group", spec, "--format", "json"]) == 0
    finally:
        complex_file.unlink()
    return json.loads(out.getvalue())


def test_nominal_states_on_the_torus():
    from hdx.instances import torus_complex

    X = torus_complex()
    tops = gen.relabel(X.faces(2), random.Random(3))
    report = _analyze(tops, "Z2")
    # 7 hexagonal vertex links with 2^6 states for k = 0, plus 2^7 for the
    # cosystolic dimension 0; the epsilon_1 ratio scan is refused.
    assert outcheck.analyze_tally(report, tops, 2, True) == (7 * 2**6 + 2**7, 1)


def _report_with_every_link(tops, abelian, cosystolic):
    d = len(tops[0]) - 1
    links = {}
    for size in range(1, d):
        for sigma in gen.faces_of(tops, size - 1):
            top_k = d - size if abelian else min(d - size, 2)
            links[" ".join(map(str, sigma))] = {"coboundary_expansion": {str(k): "1/1" for k in range(top_k)}}
    return {"links": links, "cosystolic": cosystolic}


@pytest.mark.parametrize("abelian, dims", [(True, 3), (False, 2)])
def test_whole_block_refusal_counts_every_dimension(abelian, dims):
    tops = gen.complete_tops(5, 3)
    all_states, none_skipped = outcheck.analyze_tally(
        _report_with_every_link(tops, abelian, {str(k): {"skipped": None} for k in range(dims)}),
        tops, 2, abelian,
    )
    assert none_skipped == 0
    block = _report_with_every_link(tops, abelian, {"skipped": "C^1 scan needs 2^40 states"})
    states, skipped = outcheck.analyze_tally(block, tops, 2, abelian)
    assert skipped == dims
    assert states == all_states - sum(2 ** len(gen.faces_of(tops, k)) for k in range(dims))


def test_lifted_refusal_is_not_a_mismatch():
    reference = {"links": {"sigma1-k0": {'"refused"': 2}}, "cosystolic": {"0": {"epsilon": "refused", "mu": "1/2"}}}
    lifted = {"links": {"sigma1-k0": {'"3/2"': 2}}, "cosystolic": {"0": {"epsilon": "4/3", "mu": "1/2"}}}
    assert outcheck.compare_summary(reference, lifted) == ([], [
        "cosystolic[0].epsilon: reference refused, got 4/3",
        "links[sigma1-k0]: reference {'\"refused\"': 2}, got {'\"3/2\"': 2}",
    ])
    wrong = {"links": {"sigma1-k0": {'"3/2"': 2}}, "cosystolic": {"0": {"epsilon": "4/3", "mu": "1/3"}}}
    mismatches, _ = outcheck.compare_summary(reference, wrong)
    assert mismatches == ["cosystolic[0].mu: reference 1/2, got 1/3"]
