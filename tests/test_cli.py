import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hdx.cli import main
from hdx.cochains import Cochain, cochain_from_text, cochain_to_text, random_cochain
from hdx.complexes import SimplicialComplex
from hdx.errors import HdxError, ParseError
from hdx.groups import group_from_spec, load_table_group
from hdx.instances import bundled_instances, complete_complex


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
        (_table_file, {"table": [["a"]]}),
        (_table_bytes, b'{"table": [[0]], "name": "\xff"}'),
        (_table_file, {"table": 5}),
        (_cochain_file, "dim 1 group Z3\n0 1 1\n0 1 2\n"),
        (_group_spec, "Z" + "9" * 5000),
    ],
    ids=[
        "zero-denominator-weight",
        "weight-exponent",
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
