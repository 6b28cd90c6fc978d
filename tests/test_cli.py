import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import freudenthal_torus
from hdx import correction, expansion
from hdx.cli import main
from hdx.cochains import Cochain, cochain_from_text, cochain_to_text, random_cochain
from hdx.complexes import SimplicialComplex
from hdx.errors import AlreadyLocallyMinimalError, HdxError, ParseError
from hdx.groups import group_from_spec, load_table_group
from hdx.instances import bundled_instances, complete_complex
from hdx.reporting import format_fraction


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "hdx.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_generate_complete(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["generate", "complete", "--n", "6", "--d", "2", "--out", str(out)]) == 0
    X = SimplicialComplex.from_text(out.read_text())
    assert X.face_count(2) == 20


def test_generate_single_triangle(tmp_path):
    out = tmp_path / "tri.txt"
    main(["generate", "complete", "--n", "3", "--d", "2", "--out", str(out)])
    X = SimplicialComplex.from_text(out.read_text())
    assert X.face_count(2) == 1


def test_generate_torus(tmp_path):
    out = tmp_path / "t.txt"
    main(["generate", "torus", "--out", str(out)])
    X = SimplicialComplex.from_text(out.read_text())
    assert X.face_count(2) == 14
    assert X.face_count(0) == 7


@pytest.mark.parametrize("n", [3, 4])
def test_generate_torus3_is_the_freudenthal_torus(tmp_path, n):
    out = tmp_path / "t3.txt"
    assert main(["generate", "torus3", "--n", str(n), "--out", str(out)]) == 0
    assert out.read_text() == freudenthal_torus(n).to_text()
    X = SimplicialComplex.from_text(out.read_text())
    assert (X.face_count(0), X.face_count(3)) == (n**3, 6 * n**3)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "2"], "the Freudenthal 3-torus needs n >= 3, got 2"),
        (["--n", "-3"], "the Freudenthal 3-torus needs n >= 3, got -3"),
        ([], "generate torus3 needs --n"),
    ],
)
def test_generate_torus3_refuses_a_side_below_three(capsys, argv, message):
    assert main(["generate", "torus3", *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_generate_file_canonicalizes(tmp_path):
    src = tmp_path / "raw.txt"
    src.write_text("dim 2\n2 1 0\n1 2 3\n")
    out = tmp_path / "canon.txt"
    main(["generate", "file", "--input", str(src), "--out", str(out)])
    assert out.read_text() == "dim 2\n0 1 2\n1 2 3\n"


def test_generate_bad_params():
    assert main(["generate", "complete"]) == 2


def test_analyze_reports_link_lambda(tmp_path):
    cpath = tmp_path / "c.txt"
    main(["generate", "complete", "--n", "5", "--d", "2", "--out", str(cpath)])
    out = tmp_path / "report.json"
    assert main(["analyze", str(cpath), "--group", "Z2", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # Vertex links of the complete 2-complex on 5 points are complete graphs
    # on 4 vertices: their walk eigenvalue is 1/3.
    assert abs(report["links"]["0"]["lambda"] - 1 / 3) < 1e-9
    assert report["complex"]["degree_bound"] == 6
    assert report["cosystolic"]["0"]["epsilon"] is not None


def test_analyze_trivial_group(tmp_path):
    cpath = tmp_path / "c.txt"
    main(["generate", "complete", "--n", "4", "--d", "2", "--out", str(cpath)])
    out = tmp_path / "report.json"
    main(["analyze", str(cpath), "--group", "Z1", "--format", "json", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["cosystolic"]["0"]["skipped"] is not None
    assert report["cosystolic"]["0"]["epsilon"] is None


def test_delta1_builds_no_link_complex(tmp_path, monkeypatch):
    cpath = tmp_path / "k8.txt"
    main(["generate", "complete", "--n", "8", "--d", "3", "--out", str(cpath)])
    fpath = tmp_path / "two.cochain"
    fpath.write_text("dim 1 group Z2\n0 1 1\n2 3 1\n")

    def no_link(self, sigma):
        raise AssertionError(f"link of {sigma} built")

    monkeypatch.setattr(SimplicialComplex, "link", no_link)
    out = tmp_path / "d1.json"
    argv = ["delta1", str(cpath), "--cochain", str(fpath), "--alpha", "1/2", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["lambda_plus"] == 0.2000000010000002  # 1/5 on K6, an edge link


def test_delta1_computes_each_level_and_delta1_once(tmp_path, monkeypatch):
    cpath = tmp_path / "k8.txt"
    main(["generate", "complete", "--n", "8", "--d", "3", "--out", str(cpath)])
    fpath = tmp_path / "two.cochain"
    fpath.write_text("dim 1 group Z2\n0 1 1\n2 3 1\n")
    levels, counts = [], []
    sparse_level, delta_i = expansion._sparse_level, expansion.delta_i

    def logged_level(X, members, k, level, *args):
        levels.append((k, level))
        return sparse_level(X, members, k, level, *args)

    def logged_delta_i(a, i):
        counts.append(i)
        return delta_i(a, i)

    monkeypatch.setattr(expansion, "_sparse_level", logged_level)
    monkeypatch.setattr(expansion, "delta_i", logged_delta_i)
    out = tmp_path / "d1.json"
    argv = ["delta1", str(cpath), "--cochain", str(fpath), "--alpha", "1/2", "--eta", "9/10", "--eps", "1/2"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["non_local"]["passed"] and report["expansion_check"]["passed"]
    # S_0 for the non-local verdict, S_(-1) for the weak one, and one delta1.
    assert levels == [(1, 0), (1, -1)] and counts == [1]


@pytest.mark.parametrize(
    "complex_text, cochain_text",
    [
        # link(0) is two disjoint edges, and link(0) of the second two disjoint triangles.
        ("dim 2\n0 1 2\n0 3 4\n", "dim 1 group Z2\n0 1 1\n0 3 1\n"),
        ("dim 3\n0 1 2 3\n0 4 5 6\n", "dim 1 group Z2\n0 1 1\n4 5 1\n"),
    ],
)
def test_delta1_on_a_disconnected_link_reports_lambda_one(tmp_path, complex_text, cochain_text):
    cpath, fpath = tmp_path / "pinched.txt", tmp_path / "f.cochain"
    cpath.write_text(complex_text)
    fpath.write_text(cochain_text)
    out = tmp_path / "d1.json"
    argv = ["delta1", str(cpath), "--cochain", str(fpath), "--alpha", "1/2", "--eta", "9/10", "--eps", "1/2"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    X = SimplicialComplex.from_text(complex_text)
    support = cochain_from_text(cochain_text, X).support()
    d1 = expansion.delta1(support)
    assert report["lambda_plus"] == 1.0
    assert (report["support_size"], report["delta1_size"]) == (len(support), len(d1))
    weights = (format_fraction(support.weight), format_fraction(d1.weight))
    assert (report["support_weight"], report["delta1_weight"]) == weights
    # With lambda = 1 the bound's right side is negative, so the check passes.
    assert report["expansion_check"]["params"]["lambda_plus"] == "1/1"
    analyzed = tmp_path / "analyze.json"
    assert main(["analyze", str(cpath), "--format", "json", "--out", str(analyzed)]) == 0
    assert json.loads(analyzed.read_text())["lambda"] == 1.0


def test_delta1_star_cochain(tmp_path):
    cpath = tmp_path / "c.txt"
    main(["generate", "complete", "--n", "5", "--d", "2", "--out", str(cpath)])
    X = SimplicialComplex.from_text(cpath.read_text())
    f2 = group_from_spec("Z2")
    star = Cochain(X, 1, f2, {(0, u): 1 for u in range(1, 5)})
    fpath = tmp_path / "star.cochain"
    fpath.write_text(cochain_to_text(star))
    out = tmp_path / "d1.json"
    code = main(
        [
            "delta1",
            str(cpath),
            "--cochain",
            str(fpath),
            "--eta",
            "1/2",
            "--eps",
            "1/4",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["delta1_size"] == 0
    assert not report["non_local"]["passed"]


def test_correct_command_writes_trace(tmp_path):
    cpath = tmp_path / "c.txt"
    main(["generate", "complete", "--n", "6", "--d", "3", "--out", str(cpath)])
    X = SimplicialComplex.from_text(cpath.read_text())
    z3 = group_from_spec("Z3")
    noisy = Cochain(X, 1, z3, {(0, 1): 1})
    fpath = tmp_path / "f.cochain"
    fpath.write_text(cochain_to_text(noisy))
    outdir = tmp_path / "run"
    code = main(
        ["correct", str(cpath), "--cochain", str(fpath), "--path", "abelian", "--out", str(outdir)]
    )
    assert code == 0
    verdict = json.loads((outdir / "verdict.json").read_text())
    assert verdict["final_delta_weight"] == "0/1"
    lines = (outdir / "trace.jsonl").read_text().splitlines()
    assert len(lines) == verdict["steps"]
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"step", "vertex", "delta_weight_before", "delta_weight_after", "moved"}


def test_budget_zero_is_honoured_and_negative_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HDX_BUDGET", raising=False)
    cpath = tmp_path / "c.txt"
    main(["generate", "complete", "--n", "6", "--d", "3", "--out", str(cpath)])
    X = SimplicialComplex.from_text(cpath.read_text())
    fpath = tmp_path / "f.cochain"
    fpath.write_text(cochain_to_text(Cochain(X, 1, group_from_spec("Z3"), {(0, 1): 1})))
    out = str(tmp_path / "o")
    argv = ["correct", str(cpath), "--cochain", str(fpath), "--path", "abelian", "--out", out]
    assert main(argv) == 0
    capsys.readouterr()
    # A budget of 0 states refuses every scan instead of falling back to 2^24.
    assert main(argv + ["--budget", "0"]) == 2
    assert "over the budget of 0" in capsys.readouterr().err
    assert main(argv + ["--budget", "-1"]) == 2
    assert "--budget" in capsys.readouterr().err
    monkeypatch.setenv("HDX_BUDGET", "lots")
    assert main(argv) == 2
    assert "HDX_BUDGET" in capsys.readouterr().err


def test_back_to_back_calls_share_one_parser_and_no_options(tmp_path, monkeypatch, capsys):
    from hdx import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    monkeypatch.delenv("HDX_BUDGET", raising=False)
    cpath, out = tmp_path / "c.txt", tmp_path / "report.json"
    assert main(["generate", "complete", "--n", "4", "--d", "2", "--out", str(cpath)]) == 0
    argv = ["analyze", str(cpath), "--format", "json"]
    assert main(argv + ["--group", "Z3", "--budget", "0", "--out", str(out)]) == 0
    refused = json.loads(out.read_text())
    # The next call names no group, budget or output: each takes its default again.
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (refused["group"], report["group"]) == ("Z3", "Z2")
    assert refused["cosystolic"]["0"]["skipped"].endswith("over the budget of 0")
    assert report["cosystolic"]["0"] == {"epsilon": "4/3", "mu": None, "skipped": None, "z_size": 2, "b_size": 2}
    assert main(["generate", "complete", "--n", "3", "--d", "1"]) == 0
    assert capsys.readouterr().out == complete_complex(3, 1).to_text()
    assert len(built) == 1


def test_analyze_refuses_cosystolic_dimensions_one_at_a_time(tmp_path):
    cpath = tmp_path / "c.txt"
    main(["generate", "complete", "--n", "4", "--d", "2", "--out", str(cpath)])
    out = tmp_path / "report.json"
    argv = ["analyze", str(cpath), "--group", "Z2", "--budget", "32", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 0
    cosystolic = json.loads(out.read_text())["cosystolic"]
    assert cosystolic["0"]["epsilon"] == "4/3" and cosystolic["0"]["skipped"] is None
    assert cosystolic["1"]["skipped"].startswith("C^1 scan needs 64 states")


def test_cosystolic_suite_refuses_when_the_torus_is_over_budget(capsys):
    assert main(["verify", "cosystolic", "--budget", "1000"]) == 2
    assert "C^1 scan needs 2097152 states" in capsys.readouterr().err


def test_correct_wrong_dimension_exit_code(tmp_path):
    cpath = tmp_path / "c.txt"
    main(["generate", "complete", "--n", "4", "--d", "2", "--out", str(cpath)])
    X = SimplicialComplex.from_text(cpath.read_text())
    s3 = group_from_spec("S3")
    f = Cochain(X, 1, s3, {(0, 1): 1})
    fpath = tmp_path / "f.cochain"
    fpath.write_text(cochain_to_text(f))
    code = main(
        ["correct", str(cpath), "--cochain", str(fpath), "--path", "nonabelian", "--out", str(tmp_path / "o")]
    )
    assert code == 2


def _k6_cochain(tmp_path, text):
    """K6^(3) and a 1-cochain file on it, as CLI arguments."""
    cpath, fpath = tmp_path / "k6.txt", tmp_path / "f.cochain"
    cpath.write_text(complete_complex(6, 3).to_text())
    fpath.write_text(text)
    return [str(cpath), "--cochain", str(fpath), "--out", str(tmp_path / "o")]


@pytest.mark.parametrize("path, second", [("nonabelian", "S3"), ("abelian", "Z2")])
def test_correct_over_a_product_past_2_62_is_refused_by_the_budget(tmp_path, capsys, path, second):
    # Rows of a group with 2^70 * |G2| elements hold Python ints; its digits split without divmod.
    argv = _k6_cochain(tmp_path, f"dim 1 group Z1180591620717411303424x{second}\n0 1 2\n3 4 5\n")
    assert main(["correct", *argv, "--path", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: link correction scan at 0 needs ") and "states, over the budget of " in err


def test_correct_nonabelian_classifies_the_corrected_support(tmp_path):
    argv = _k6_cochain(tmp_path, "dim 1 group S3\n0 1 1\n3 4 2\n")
    assert main(["correct", *argv, "--path", "nonabelian", "--eta", "9/10", "--eps", "1/2", "--beta", "1"]) == 0
    verdict = json.loads((tmp_path / "o" / "verdict.json").read_text())
    assert verdict["classification"] == {
        "kind": "weakly-non-local",
        "measured": {"weight": "0/1"},
        "params": {"alpha": "1/6", "eps": "1/2", "eta": "9/10"},
        "passed": True,
    }
    assert (verdict["steps"], verdict["final_delta_weight"]) == (2, "0/1")


def _stopped(*args):
    raise AlreadyLocallyMinimalError("no step taken")


def test_a_falsified_classification_keeps_its_trace_and_verdict(tmp_path, capsys, monkeypatch):
    # The step stops at once, so the planted support itself is classified, and
    # fails: the run exits 2 and leaves its (empty) trace and failed verdict.
    monkeypatch.setattr(correction, "one_step_nonabelian", _stopped)
    argv = _k6_cochain(tmp_path, "dim 1 group S3\n0 1 1\n3 4 2\n")
    assert main(["correct", *argv, "--path", "nonabelian", "--eta", "9/10", "--eps", "1/2", "--beta", "1"]) == 2
    assert capsys.readouterr().err == "error: corrected coboundary failed its weakly-non-local classification\n"
    out = tmp_path / "o"
    assert sorted(path.name for path in out.iterdir()) == ["trace.jsonl", "verdict.json"]
    assert (out / "trace.jsonl").read_text() == ""
    verdict = json.loads((out / "verdict.json").read_text())
    assert (verdict["steps"], verdict["initial_delta_weight"], verdict["final_delta_weight"]) == (0, "2/5", "2/5")
    assert verdict["classification"]["kind"] == "weakly-non-local" and verdict["classification"]["passed"] is False


def test_a_broken_bound_keeps_its_trace(tmp_path, capsys, monkeypatch):
    # With degree bound 0 the movement bound is 0 and the run moves two edges.
    monkeypatch.setattr(SimplicialComplex, "degree_bound", lambda self: 0)
    argv = _k6_cochain(tmp_path, "dim 1 group Z3\n0 1 1\n3 4 2\n")
    assert main(["correct", *argv]) == 2
    assert capsys.readouterr().err == "error: moved 2/15, over the bound 0\n"
    out = tmp_path / "o"
    steps = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    verdict = json.loads((out / "verdict.json").read_text())
    assert steps and verdict["steps"] == len(steps) and verdict["classification"] is None
    assert (verdict["total_moved"], verdict["dist_bound"]) == ("2/15", "0/1")
    assert not (out / "corrected.cochain").exists()


# Q8 = {1, -1, i, -i, j, -j, k, -k} in that index order, a group only a table file names.
Q8 = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 0, 3, 2, 5, 4, 7, 6],
    [2, 3, 1, 0, 6, 7, 5, 4],
    [3, 2, 0, 1, 7, 6, 4, 5],
    [4, 5, 7, 6, 1, 0, 2, 3],
    [5, 4, 6, 7, 0, 1, 3, 2],
    [6, 7, 4, 5, 3, 2, 1, 0],
    [7, 6, 5, 4, 2, 3, 0, 1],
]


def test_quaternion_table_group_runs_analyze_and_correct(tmp_path):
    path = tmp_path / "q8.json"
    path.write_text(json.dumps({"name": "Q8", "table": Q8}))
    q8 = load_table_group(path)
    assert not q8.is_abelian
    assert (q8.op(2, 4), q8.op(4, 2), q8.op(2, 2), q8.inv(6)) == (6, 7, 1, 7)  # ij = k, ji = -k, i^2 = -1
    k5 = tmp_path / "k5.txt"
    k5.write_text(complete_complex(5, 2).to_text())
    out = tmp_path / "analyze.json"
    assert main(["analyze", str(k5), "--group", f"table:{path}", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["links"]["0"]["coboundary_expansion"] == {"0": "4/3"}
    assert report["cosystolic"]["0"]["epsilon"] == "5/4"
    assert report["cosystolic"]["1"]["skipped"].startswith("C^1 scan needs 1073741824 states")
    argv = _k6_cochain(tmp_path, f"dim 1 group table:{path}\n0 1 2\n3 4 5\n")
    assert main(["correct", *argv, "--path", "nonabelian"]) == 0
    verdict = json.loads((tmp_path / "o" / "verdict.json").read_text())
    assert (verdict["steps"], verdict["final_delta_weight"], verdict["classification"]) == (2, "0/1", None)


def test_table_views_of_analyze_and_delta1(tmp_path, capsys):
    cpath = tmp_path / "k5.txt"
    cpath.write_text(complete_complex(5, 2).to_text())
    assert main(["analyze", str(cpath)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "complex:" and "group: Z2" in lines and "lambda: 0.3333333343333333" in lines
    at = lines.index("links:")
    assert lines[at + 1 : at + 4] == ["  0:", "    coboundary_expansion:", "      0: 4/3"]
    fpath = tmp_path / "f.cochain"
    fpath.write_text("dim 1 group Z2\n0 1 1\n")
    assert main(["delta1", str(cpath), "--cochain", str(fpath)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in ("delta1_size: 3", "delta1_weight: 3/10", "support_size: 1", "support_weight: 1/10"):
        assert line in lines
    assert lines[lines.index("non_local:") + 4 :][:2] == ["  params:", "    eps: 1/16"]


def test_analyze_reports_a_disconnected_vertex_link(tmp_path):
    # The bowtie: two triangles that meet only at vertex 0, whose link is two disjoint edges.
    cpath = tmp_path / "bowtie.txt"
    cpath.write_text("dim 2\n0 1 2\n0 3 4\n")
    out = tmp_path / "report.json"
    assert main(["analyze", str(cpath), "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["links"]["0"] == {"lambda": 1.0, "connected": False}
    assert report["lambda"] == 1.0
    assert report["disconnected_links"] == [[0]]


def test_analyze_marks_link_constants_over_the_budget_skipped(tmp_path):
    cpath = tmp_path / "k5.txt"
    cpath.write_text(complete_complex(5, 2).to_text())
    out = tmp_path / "report.json"
    assert main(["analyze", str(cpath), "--budget", "8", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(report["links"][str(v)]["coboundary_expansion"] == {"0": "skipped"} for v in range(5))
    assert report["cosystolic"]["0"]["skipped"] == "C^0 scan needs 32 states, over the budget of 8"


@pytest.mark.parametrize(
    "path, params, message",
    [
        ("abelian", ["--eta", "0", "--eps", "1/2"], "eta must lie in (0,1), got 0"),
        ("abelian", ["--eta=-1/4", "--eps", "1/2"], "eta must lie in (0,1), got -1/4"),
        ("abelian", ["--eta", "1/4", "--eps", "1"], "eps must lie in (0,1), got 1"),
        ("abelian", ["--eta", "1/4"], "a classification needs eta, eps; got only eta"),
        ("abelian", ["--eps", "1/4", "--beta", "1/2"], "--beta applies to the nonabelian path only"),
        ("nonabelian", ["--eta", "1/4", "--eps", "1/2"], "a classification needs eta, eps, beta; got only eta, eps"),
        ("nonabelian", ["--beta", "1"], "a classification needs eta, eps, beta; got only beta"),
        ("nonabelian", ["--eta", "1/4", "--eps", "1/2", "--beta", "0"], "beta must lie in (0,1], got 0"),
        ("nonabelian", ["--eta", "1/4", "--eps", "1/2", "--beta", "3/2"], "beta must lie in (0,1], got 3/2"),
    ],
)
def test_correct_refuses_bad_classification_parameters(tmp_path, capsys, path, params, message):
    cpath = tmp_path / "c.txt"
    main(["generate", "complete", "--n", "6", "--d", "3", "--out", str(cpath)])
    X = SimplicialComplex.from_text(cpath.read_text())
    fpath = tmp_path / "f.cochain"
    fpath.write_text(cochain_to_text(Cochain(X, 1, group_from_spec("S3"), {(0, 1): 1})))
    outdir = tmp_path / "o"
    argv = ["correct", str(cpath), "--cochain", str(fpath), "--path", path, "--out", str(outdir)]
    if path == "abelian":
        argv += ["--group", "Z3"]
    assert main(argv + params) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not outdir.exists()
    # beta = 1 closes its interval: the full set runs.
    if path == "nonabelian":
        assert main(argv + ["--eta", "1/4", "--eps", "1/2", "--beta", "1"]) == 0


@pytest.mark.parametrize("argv", [["verify", "none"], ["verify", "--bundle", "x"]], ids=["none", "bundle"])
def test_verify_rejects_removed_arguments(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_single_suite(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "cosystolic", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert set(report["suites"]) == {"cosystolic"}


def test_verify_all_deterministic(tmp_path):
    first = run_cli("verify", "all", "--seed", "0")
    second = run_cli("verify", "all", "--seed", "0")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["passed"] is True


def test_failure_records_are_archived(tmp_path):
    from hdx.cli import emit_failure_records

    report = {
        "suites": {
            "demo": {
                "checks": [
                    {"name": "good", "passed": True},
                    {"name": "bad", "passed": False, "lhs": "1/2", "rhs": "1/3"},
                ]
            }
        }
    }
    outdir = tmp_path / "failures"
    emit_failure_records(report, outdir)
    files = sorted(p.name for p in outdir.iterdir())
    assert files == ["demo-bad.json"]
    assert json.loads((outdir / "demo-bad.json").read_text())["lhs"] == "1/2"


def _complex_file(tmp_path, text):
    path = tmp_path / "complex.txt"
    path.write_text(text)
    return SimplicialComplex.from_text, (text,), ["analyze", str(path)]


def _table_file(tmp_path, payload):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(payload))
    cpath = tmp_path / "k4.txt"
    cpath.write_text(complete_complex(4, 2).to_text())
    spec = f"table:{path}"
    return group_from_spec, (spec,), ["analyze", str(cpath), "--group", spec]


def _table_bytes(tmp_path, data):
    path = tmp_path / "group.json"
    path.write_bytes(data)
    cpath = tmp_path / "k4.txt"
    cpath.write_text(complete_complex(4, 2).to_text())
    spec = f"table:{path}"
    return group_from_spec, (spec,), ["analyze", str(cpath), "--group", spec]


def _group_spec(tmp_path, spec):
    cpath = tmp_path / "k4.txt"
    cpath.write_text(complete_complex(4, 2).to_text())
    return group_from_spec, (spec,), ["analyze", str(cpath), "--group", spec]


def _cochain_file(tmp_path, text):
    path = tmp_path / "f.cochain"
    path.write_text(text)
    cpath = tmp_path / "k4.txt"
    X = complete_complex(4, 2)
    cpath.write_text(X.to_text())
    return cochain_from_text, (text, X), ["delta1", str(cpath), "--cochain", str(path)]


@pytest.mark.parametrize(
    "make, content",
    [
        (_complex_file, "dim 2\n0 1 2 w 1/0\n"),
        (_complex_file, "dim 2\n0 1 2 w 1e9999999\n"),
        (_complex_file, "dim 2 junk\n0 1 2\n"),
        (_complex_file, "dim 1 group Z2\n0 1 1\n2 3 1\n"),
        (_table_file, {"table": [["a"]]}),
        (_table_bytes, b'{"table": [[0]], "name": "\xff"}'),
        (_table_file, {"table": 5}),
        (_cochain_file, "dim 1 group Z3\n0 1 1\n0 1 2\n"),
        (_group_spec, "Z" + "9" * 5000),
    ],
    ids=[
        "zero-denominator-weight",
        "weight-exponent",
        "header-trailing-tokens",
        "cochain-as-complex",
        "non-integer-table",
        "table-not-utf8",
        "non-list-table",
        "face-listed-twice",
        "group-order-past-digit-limit",
    ],
)
def test_malformed_input_raises_parse_error(tmp_path, capsys, make, content):
    parse, args, argv = make(tmp_path, content)
    with pytest.raises(ParseError):
        parse(*args)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_a_huge_header_dimension_exits_2_naming_the_first_top(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("dim 99999999999999999999999\n0 1 2\n")
    assert main(["analyze", str(path)]) == 2
    width = 10**23
    assert capsys.readouterr().err == f"error: top face (0, 1, 2) does not have {width} distinct vertices\n"


def _unreadable(tmp_path, kind):
    """A path that does not exist, or a file whose last byte is not UTF-8."""
    path = tmp_path / "input.txt"
    if kind == "not-utf8":
        path.write_bytes(b"dim 2\n0 1 2\xff")
    return path


@pytest.mark.parametrize("kind", ["missing", "not-utf8"])
@pytest.mark.parametrize("command", ["analyze", "delta1", "correct"])
def test_unreadable_input_files_are_parse_errors(tmp_path, capsys, command, kind):
    bad = _unreadable(tmp_path, kind)
    good = tmp_path / "k4.txt"
    good.write_text(complete_complex(4, 2).to_text())
    argv = {
        "analyze": ["analyze", str(bad)],
        "delta1": ["delta1", str(good), "--cochain", str(bad)],
        "correct": ["correct", str(good), "--cochain", str(bad), "--out", str(tmp_path / "out")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and str(bad) in err


# Pieces a mutation splices into a valid file: numbers at and past the
# parsers' limits, the files' keywords, JSON syntax and bytes that are not text.
_FUZZ_TOKENS = [
    "0", "1", "-1", "7", "9" * 40, "1/0", "0.5", "e9", "e-9", " w ", "w", "dim", "group",
    "Z0", "Z3", "S3", "table:", "\x00", " ", "\n", "\t", "[", "]", "{", "}", ",", ":",
    '"', "null", "true", "1.5", "-0", "\u00e9",
]


def _mutate(text, rng):
    """One to three splices at random places: delete, insert, replace or repeat."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(0, 8))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(_FUZZ_TOKENS) + text[i:]
        elif op == 2:
            text = text[:i] + rng.choice(_FUZZ_TOKENS) + text[j:]
        else:
            text = text[:i] + text[i:j] * rng.randint(2, 4) + text[j:]
    return text


def test_fuzzed_inputs_raise_only_hdx_errors(tmp_path, one_second):
    # Seeded mutations of valid complex, cochain and group-table files: each
    # parse returns or raises an HdxError within 1 s, never a raw exception.
    rng = random.Random(0)
    k4 = complete_complex(4, 2)
    weighted = SimplicialComplex(
        2, [(0, 1, 2), (1, 2, 3)], {(0, 1, 2): Fraction(1, 3), (1, 2, 3): Fraction(2, 3)}
    )
    complexes = [X.to_text() for X in bundled_instances().values()] + [weighted.to_text()]
    cochains = [cochain_to_text(random_cochain(k4, k, group_from_spec(spec), rng, 0.5))
                for spec in ("Z2", "Z3", "S3") for k in (0, 1, 2)]
    s3 = group_from_spec("S3")
    table = json.dumps({"name": "S3", "table": [[s3.op(a, b) for b in range(6)] for a in range(6)]})
    path = tmp_path / "group.json"

    def load_table(text):
        # Whole bytes are cut or spliced too, so the file need not be UTF-8.
        data = text.encode("utf-8")
        cut = rng.randrange(len(data) + 1)
        path.write_bytes(data[:cut] + rng.choice((b"", b"\xff", b"\xc3")) + data[cut:])
        return load_table_group(path)

    cases = [
        (SimplicialComplex.from_text, complexes),
        (lambda t: cochain_from_text(t, k4), cochains),
        (load_table, [table]),
    ]
    for parse, seeds in cases:
        for _ in range(300):
            text = _mutate(rng.choice(seeds), rng)
            try:
                with one_second():
                    parse(text)
            except HdxError:
                pass
