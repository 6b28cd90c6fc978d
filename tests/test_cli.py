import json
import subprocess
import sys

import pytest

from hdx.cli import main, replay_bundle, write_bundle
from hdx.cochains import Cochain, cochain_from_text, cochain_to_text
from hdx.complexes import SimplicialComplex
from hdx.errors import ParseError
from hdx.groups import group_from_spec
from hdx.instances import complete_complex
from hdx.oracle import EnumerationBudget


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


def test_verify_none_is_noop(capsys):
    assert main(["verify", "none"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True and payload["suites"] == {}


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


def test_bundle_roundtrip(tmp_path):
    X = complete_complex(4, 2)
    f2 = group_from_spec("Z2")
    f = Cochain(X, 1, f2, {(0, 1): 1})
    bundle = tmp_path / "bundle"
    write_bundle(bundle, X, "Z2", {"kind": "is_minimal", "expected": True}, f)
    report = replay_bundle(bundle, EnumerationBudget.default())
    assert report["passed"] is True
    # A failing claim replays as a failure with exit code 1.
    bad = tmp_path / "bad"
    write_bundle(bad, X, "Z2", {"kind": "is_minimal", "expected": False}, f)
    assert main(["verify", "--bundle", str(bad)]) == 1
    assert main(["verify", "--bundle", str(bundle)]) == 0


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
        (_table_file, {"table": [["a"]]}),
        (_table_file, {"table": 5}),
        (_cochain_file, "dim 1 group Z3\n0 1 1\n0 1 2\n"),
    ],
    ids=["zero-denominator-weight", "non-integer-table", "non-list-table", "face-listed-twice"],
)
def test_malformed_input_raises_parse_error(tmp_path, capsys, make, content):
    parse, args, argv = make(tmp_path, content)
    with pytest.raises(ParseError):
        parse(*args)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
