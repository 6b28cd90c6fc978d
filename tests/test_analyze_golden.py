"""Golden outputs of `hdx analyze --format json`: the SHA-256 of the report on
bundled instances over abelian and non-abelian groups, pinned so that a change
to the oracle's odometer that moves any byte of a constant, a witness-bearing
value or a refusal shows."""

import hashlib

import pytest

from hdx.cli import main
from hdx.instances import bundled_instances

#: (bundled instance, group) -> SHA-256 of the JSON report, recorded before
#: the odometer was split into prefix and suffix tables.
GOLDEN = {
    ("tetrahedron", "Z3"): "bfb6802a7fb47280b6d5cf32ff643f6487ef384ad57b5a00372c0feb358db05b",
    ("tetrahedron", "Z2xZ3"): "ea5e3db1de262303653d1f07f357d6293c2b546f847e308f5e16f142fb10a54b",
    ("tetrahedron", "S3"): "a5a14316d9853e9d6cadeaac068858305f375bceb4d025c897eed68c5b71f1a2",
    ("complete-2-5", "Z2xZ2"): "77e6fe193c26e92ac875fcaacf766edea3789a195e25cdb55d0b81057c3a0f2d",
    ("k4-skeleton", "S3"): "a92375dc1f93a8278c9139bd4fccba877bab3a6a3c504b9fead8e6c9d139d360",
    # 17^6 states in dimension 1: past the default budget, so a refusal is pinned too.
    ("k4-skeleton", "Z17"): "4dbfe5a95f3a12c802a3c86d9a73496d453e31a7101dc511d814b0ccd032037d",
    ("torus-7", "Z2"): "24a5a4bbd10fc437a5a15a64370705617f65979e4ef6d81fd05ba74531b8d243",
    ("complete-3-6", "S3"): "0480c7c82ed580679f8f99c7a791dd9219a0009f2fee5d800eab587a906a64c0",
}


@pytest.mark.parametrize("name, spec", sorted(GOLDEN))
def test_analyze_reports_match_their_golden_hashes(tmp_path, monkeypatch, capsys, name, spec):
    monkeypatch.delenv("HDX_BUDGET", raising=False)
    path = tmp_path / "complex.txt"
    path.write_text(bundled_instances()[name].to_text())
    assert main(["analyze", str(path), "--group", spec, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN[name, spec]
