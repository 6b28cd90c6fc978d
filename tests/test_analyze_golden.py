"""Golden outputs of `hdx analyze --format json`: the SHA-256 of the report on
bundled instances, one weighted complex and one disconnected complex over
abelian and non-abelian groups, pinned so that a change to the oracle's
odometer, its fiber tables, or to how links of one shape share their scans,
that moves any byte of a constant, a witness-bearing value or a refusal
shows."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from hdx.cli import main
from hdx.complexes import SimplicialComplex
from hdx.instances import bundled_instances


def _weighted_k6():
    """K6^(3) with top weights 1 + sum(t) % 3, so links of one renamed shape differ in weight."""
    tops = list(combinations(range(6), 4))
    raw = {t: 1 + sum(t) % 3 for t in tops}
    return SimplicialComplex(3, tops, {t: Fraction(r, sum(raw.values())) for t, r in raw.items()})


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
    # Recorded before link constants were scanned once per link shape, when
    # every link was scanned on its own.
    ("complete-3-6", "Z2"): "8d6c2091b04227b23823684fcc92e1013033a8fa47ca40cf97a54cfa93c40320",
    ("complete-3-7", "Z2"): "140f2261b232a24eb249934829b42cb77c6deeca84fe00e1085341159c9257f5",
    ("weighted-3-6", "Z2"): "444462abf9b814869533696e55f5defd79a8f5302910f25503b4c9029ff5812f",
    ("weighted-3-6", "S3"): "54302f8e7bd4728a964035d962d74db8cf7927ea8b345a95c4e6e9baf984b8f1",
    # Recorded before the ratio scans indexed their fiber tables by syndrome
    # and Z^0 was listed from the components: the GF(2) pivot syndromes of
    # k = 1 on 15 edges, S3 over the torus, and Z^0 of two components, whose
    # k = 0 pair scan over D4 costs 8^6 * 64 = 2^24 states, the default budget.
    ("projective-plane-6", "Z2"): "737f5c99189afe2d03ba34887f26f65f98ed218db14beecee5ab182b6a9d2731",
    ("torus-7", "S3"): "52c2ed22bc60be69b27d8fdc9c2129eac4764518bbc8eef68ea4c63246a45c9d",
    ("two-triangles", "S3"): "b215ddde6306cb701c094599ad2aaa04ef01ac0a47409fee46e4c17752a7f77f",
    ("two-triangles", "D4"): "0a85ef4b318c261213adf09cd80baf2a9ee2d1aff937182df759c299e8e05a30",
    # Recorded while larger abelian groups above dimension 0 still sorted
    # exact int64 keys of their images: the k = 1 Z3 ratio scan of the K5^(2)
    # links (3^10 states), and Z4 ratio scans at k = 1 and 2 with the B^2 listing.
    ("complete-3-6", "Z3"): "7ea5f5012528b7c8b9a11c981d6e56275abd8afded9671e5db4e48c9a9d914f4",
    ("tetrahedron", "Z4"): "aa84603d206efe637450fc50e3b873f541d4989ec0a17dbd93458f803670a78f",
}


@pytest.mark.parametrize("name, spec", sorted(GOLDEN))
def test_analyze_reports_match_their_golden_hashes(tmp_path, monkeypatch, capsys, name, spec):
    monkeypatch.delenv("HDX_BUDGET", raising=False)
    path = tmp_path / "complex.txt"
    instances = {
        **bundled_instances(),
        "weighted-3-6": _weighted_k6(),
        "two-triangles": SimplicialComplex(2, [(0, 1, 2), (3, 4, 5)]),
    }
    path.write_text(instances[name].to_text())
    assert main(["analyze", str(path), "--group", spec, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN[name, spec]
