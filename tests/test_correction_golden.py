"""Golden outputs of `hdx correct`: the SHA-256 of trace.jsonl, verdict.json
and corrected.cochain on planted runs, pinned so that a change to the link
search or the correction loop that moves any byte of a result shows."""

import hashlib
import json
import random

import pytest

from conftest import freudenthal_torus
from hdx.cli import main
from hdx.cochains import Cochain, coboundary_abelian, cochain_to_text
from hdx.groups import group_from_spec
from hdx.instances import complete_complex

#: Q8 = {1, -1, i, -i, j, -j, k, -k}, a group only a table file names.
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


def _t3_z2():
    """A Z2 coboundary on T3 with three edges flipped."""
    X, G = freudenthal_torus(3), group_from_spec("Z2")
    rng = random.Random(11)
    f = coboundary_abelian(Cochain.of_row(X, 0, G, [rng.randrange(2) for _ in X.vertices()]))
    row = f.row.copy()
    row[rng.sample(range(len(row)), 3)] ^= 1
    return X.to_text(), cochain_to_text(Cochain.of_row(X, 1, G, row))


def _k7_s3():
    """A multiplicative S3 coboundary h(u) h(v)^-1 on K7^(3) with two edges multiplied by noise."""
    X, G = complete_complex(7, 3), group_from_spec("S3")
    rng = random.Random(12)
    h = [rng.randrange(G.order) for _ in X.vertices()]
    values = {(u, w): G.op(h[u], G.inv(h[w])) for u, w in X.faces(1)}
    for edge in rng.sample(X.faces(1), 2):
        values[edge] = G.op(values[edge], rng.randrange(1, G.order))
    return X.to_text(), cochain_to_text(Cochain(X, 1, G, values))


#: name -> (complex: generated K_n^(3) or a planted builder, cochain text, path)
CASES = {
    "t3-Z2": (_t3_z2, None, "abelian"),
    "k7-S3": (_k7_s3, None, "nonabelian"),
    # The byte-stable runs of CI's correction step.
    "k7-Z3": (7, "dim 1 group Z3\n0 1 1\n2 5 2\n", "abelian"),
    "k6-S3": (6, "dim 1 group S3\n0 1 1\n3 4 2\n", "nonabelian"),
    "k6-Q8": (6, "dim 1 group table:q8.json\n0 1 2\n3 4 5\n", "nonabelian"),
    # 17^5 assignments per link: the link scans run in many blocks.
    "k6-Z17": (6, "dim 1 group Z17\n0 1 3\n2 5 7\n", "abelian"),
    # 256^3 assignments per link and three pair tables of 2^16 cells: one
    # covers all of G, one reads only free coordinates, and one is built over
    # each block's part of G.
    "tetrahedron-Z256": (4, "dim 1 group Z256\n0 1 3\n1 2 200\n", "abelian"),
}

#: name -> SHA-256 of (trace.jsonl, verdict.json, corrected.cochain), recorded
#: before the link searches were stacked and scored from cost tables, and for
#: tetrahedron-Z256 before the scan kept its block tables across blocks.
GOLDEN = {
    'k6-Q8': (
        '6b72bf0af36418e62b36fe690e0ca8fc81156ddb3bda0c131fd624053ad56c55',
        '992d4415d550c242f3f2ae24bf7581f008fd10e1e2e1089193b6a0be83ccb345',
        '395e38a9a072f02200814d4e0f9154a696342d065314c1a3cb50453f86d01927',
    ),
    'k6-S3': (
        '6b72bf0af36418e62b36fe690e0ca8fc81156ddb3bda0c131fd624053ad56c55',
        '992d4415d550c242f3f2ae24bf7581f008fd10e1e2e1089193b6a0be83ccb345',
        '867e1180cad37c7eff374789269f44b2b78115db64cc18e0794b376d7b4623b4',
    ),
    'k6-Z17': (
        '445e335c6c64e7217a9b2033200d4c368fb26e38ec8367bc80e828eca893a6bd',
        '070829a5d2bb36b8c888373aa0a7a144287d5d3532f75ec562e4befe2a86d25a',
        '0e0f47288e9b69d98f1358d0adbd47100e8bc55285e694f6a7d172dfa5c3b921',
    ),
    'k7-S3': (
        'e271bcdcc7f8e0982b81be3361bff1ed7526b3376db5e42b38d488c0bb3f362c',
        'c5f8fdd445867bc6097eeec590993718035413a801086a089012cd7ebc64aa01',
        '2f1c71a3b5105003c281934d37a360a276f7ba9f5131ec2082e63dfa2d33f685',
    ),
    'k7-Z3': (
        'e271bcdcc7f8e0982b81be3361bff1ed7526b3376db5e42b38d488c0bb3f362c',
        '45f76f7337da6a87d89afcd6806fa8129448aee5962668b03ac9d7831a064ca9',
        'c44602918f533abc9a2848f0f07b9c72118d2698bc3406bb9763dd5ccdfde392',
    ),
    'tetrahedron-Z256': (
        '2e1fa4d835a17891aa89686be96be49f412d4e2d88544482d2099cd736da4751',
        '6202b7dff6a7f3a0145a6c294abd13380e71380d33f275850d3b42affd48b2c3',
        'ca3ff73da5c4ac2b7befc492607f8853c9adb410c96961a928ee5d0bdd183639',
    ),
    't3-Z2': (
        'c4f33306195b0f1ba814d6920515c38839ef379af9894ffc17f51e838e6fb5a8',
        '2f80e4a9e19d6545c8ffde70779aef87614ec0b8704dd9dc45ceb5c80546d2f8',
        '3557abddbc351f919e5820f3cc9e5930cea7ce89a0ab5ba06f50b5027cc04536',
    ),
}


def _run(root, name):
    """Write the case's inputs under root, the working directory, and run
    `hdx correct` on them; returns the hashes of the three output files."""
    source, cochain, path = CASES[name]
    if callable(source):
        complex_text, cochain = source()
        (root / "complex.txt").write_text(complex_text)
    else:
        assert main(["generate", "complete", "--n", str(source), "--d", "3", "--out", "complex.txt"]) == 0
    (root / "q8.json").write_text(json.dumps({"name": "Q8", "table": Q8}))
    (root / "f.cochain").write_text(cochain)
    assert main(["correct", "complex.txt", "--cochain", "f.cochain", "--path", path, "--out", "out"]) == 0
    files = ("trace.jsonl", "verdict.json", "corrected.cochain")
    return tuple(hashlib.sha256((root / "out" / file).read_bytes()).hexdigest() for file in files)


@pytest.mark.parametrize("name", sorted(CASES))
def test_correct_outputs_match_their_golden_hashes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert _run(tmp_path, name) == GOLDEN[name]
