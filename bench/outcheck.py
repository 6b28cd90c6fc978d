"""Output checks and counters computed from outside the hdx package.

Face counts, face weights, coboundaries and exactly-one-covered faces are
recomputed here from the benchmark's own top-face lists, so a check never
trusts the code it checks.  Only group tables come from hdx.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from gen import Face, faces_of, read_complex

REFUSED = "refused"


def face_weights(tops: Sequence[Face], k: int) -> Dict[Face, Fraction]:
    """P_k under the uniform top distribution: containing tops / (|X(d)| C(d+1, k+1))."""
    d = len(tops[0]) - 1
    den = len(tops) * comb(d + 1, k + 1)
    return {face: Fraction(count, den) for face, count in faces_of(tops, k).items()}


def link_tops(tops: Sequence[Face], sigma: Face) -> List[Face]:
    s = set(sigma)
    return [tuple(v for v in top if v not in s) for top in tops if s.issubset(top)]


# -- analyze ----------------------------------------------------------------------


def analyze_tally(report: dict, tops: Sequence[Face], order: int, abelian: bool) -> Tuple[int, int]:
    """(nominal states, skipped constants) of one analyze report.

    Expected constants are every (link, k) pair with a link of dimension >= 1
    and every cosystolic dimension 0..d-1 (k <= 1 for non-abelian groups).  A
    computed constant adds |G|^|X(k)| of the complex it was computed on; a
    whole-block cosystolic refusal counts once per dimension it drops.
    """
    d = len(tops[0]) - 1
    states = expected = computed = 0
    for size in range(1, d):
        for sigma in sorted(faces_of(tops, size - 1)):
            link = link_tops(tops, sigma)
            link_dim = d - size
            top_k = link_dim if abelian else min(link_dim, 2)
            entry = report["links"].get(" ".join(map(str, sigma)), {})
            constants = entry.get("coboundary_expansion", {})
            for k in range(top_k):
                expected += 1
                if str(k) in constants and constants[str(k)] != "skipped":
                    computed += 1
                    states += order ** len(faces_of(link, k))
    cosystolic = report["cosystolic"]
    for k in range(d) if abelian else range(min(2, d)):
        expected += 1
        entry = cosystolic.get(str(k))
        if isinstance(entry, dict) and entry.get("skipped") is None:
            computed += 1
            states += order ** len(faces_of(tops, k))
    return states, expected - computed


def analyze_summary(report: dict, d: int, abelian: bool) -> dict:
    """The relabeling-invariant part of an analyze report.

    Link constants become a multiset per (|sigma|, k); cosystolic data is kept
    per dimension, with refused fields (including a whole-block refusal) marked.
    """
    links: Dict[str, Counter] = {}
    for key, entry in report["links"].items():
        if key == "root":
            continue
        size = len(key.split())
        for k, value in entry.get("coboundary_expansion", {}).items():
            value = REFUSED if value == "skipped" else value
            links.setdefault(f"sigma{size}-k{k}", Counter())[json.dumps(value)] += 1
    cosystolic = {}
    block = report["cosystolic"]
    for k in range(d) if abelian else range(min(2, d)):
        entry = block.get(str(k))
        if not isinstance(entry, dict):
            cosystolic[str(k)] = {f: REFUSED for f in ("epsilon", "mu", "z_size", "b_size")}
            continue
        cosystolic[str(k)] = {
            "epsilon": REFUSED if entry.get("skipped") is not None else entry.get("epsilon"),
            "mu": entry.get("mu"),
            "z_size": entry.get("z_size"),
            "b_size": entry.get("b_size"),
        }
    return {"links": {k: dict(sorted(v.items())) for k, v in sorted(links.items())}, "cosystolic": cosystolic}


def compare_summary(reference: dict, summary: dict) -> Tuple[List[str], List[str]]:
    """(mismatches, lifted refusals) between a reference summary and a new one."""
    mismatches: List[str] = []
    lifted: List[str] = []
    for dim, want_entry in reference["cosystolic"].items():
        have_entry = summary["cosystolic"].get(dim, {})
        for field, want in want_entry.items():
            have = have_entry.get(field, REFUSED)
            if have == want:
                continue
            where = f"cosystolic[{dim}].{field}: reference {want}, got {have}"
            (lifted if want == REFUSED and have != REFUSED else mismatches).append(where)
    for group in sorted(set(reference["links"]) | set(summary["links"])):
        want = Counter(reference["links"].get(group, {}))
        have = Counter(summary["links"].get(group, {}))
        if want == have:
            continue
        missing, extra = want - have, have - want
        where = f"links[{group}]: reference {dict(want)}, got {dict(have)}"
        refused = json.dumps(REFUSED)
        only_lifted = (
            set(missing) == {refused}
            and refused not in extra
            and sum(missing.values()) == sum(extra.values())
        )
        (lifted if only_lifted else mismatches).append(where)
    return mismatches, lifted


# -- correct ----------------------------------------------------------------------


def read_cochain(text: str) -> Dict[Face, int]:
    lines = [line.split() for line in text.splitlines() if line.strip()]
    return {tuple(map(int, parts[:-1])): int(parts[-1]) for parts in lines[1:]}


def delta1_weight(
    values: Dict[Face, int], triangles: Dict[Face, Fraction], table: Optional[Sequence[Sequence[int]]], order: int
) -> Fraction:
    """||delta f|| of a 1-cochain: additive mod `order`, or g(uv) g(vw) g(uw)^-1 over `table`."""
    inv = [row.index(0) for row in table] if table is not None else None
    total = Fraction(0)
    for (u, v, w), weight in triangles.items():
        a, b, c = values.get((u, v), 0), values.get((v, w), 0), values.get((u, w), 0)
        if table is None:
            nonzero = (a + b - c) % order != 0
        else:
            nonzero = table[table[a][b]][inv[c]] != 0
        if nonzero:
            total += weight
    return total


def check_correct(
    stdout: str,
    outdir: Path,
    triangles: Dict[Face, Fraction],
    table: Optional[Sequence[Sequence[int]]],
    order: int,
) -> Tuple[Optional[str], int]:
    """(problem or None, steps) for one `correct` run."""
    verdict = json.loads((outdir / "verdict.json").read_text(encoding="utf-8"))
    records = [
        json.loads(line)
        for line in (outdir / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    steps = json.loads(stdout)["steps"]
    if not steps == verdict["steps"] == len(records):
        return f"step counts disagree: stdout {steps}, verdict {verdict['steps']}, trace {len(records)}", steps
    previous = Fraction(verdict["initial_delta_weight"])
    for record in records:
        before = Fraction(record["delta_weight_before"])
        after = Fraction(record["delta_weight_after"])
        if before != previous or not after < before:
            return f"trace does not decrease strictly at step {record['step']}", steps
        previous = after
    final = Fraction(verdict["final_delta_weight"])
    if previous != final:
        return f"trace ends at {previous}, verdict says {final}", steps
    corrected = read_cochain((outdir / "corrected.cochain").read_text(encoding="utf-8"))
    recomputed = delta1_weight(corrected, triangles, table, order)
    if recomputed != final:
        return f"||delta(corrected)|| is {recomputed}, verdict says {final}", steps
    return None, steps


# -- delta1 and generate ------------------------------------------------------------


def check_delta1(report: dict, support: Sequence[Face], triangles: Dict[Face, Fraction]) -> Optional[str]:
    members = set(support)
    size = 0
    weight = Fraction(0)
    for (u, v, w), tri_weight in triangles.items():
        if ((u, v) in members) + ((v, w) in members) + ((u, w) in members) == 1:
            size += 1
            weight += tri_weight
    got_size, got_weight = report["delta1_size"], Fraction(report["delta1_weight"])
    if (got_size, got_weight) != (size, weight):
        return f"delta1 is ({got_size}, {got_weight}), brute force gives ({size}, {weight})"
    return None


def check_generate(stdout: str, tops: Sequence[Face]) -> Optional[str]:
    d, parsed = read_complex(stdout)
    if d != len(tops[0]) - 1 or parsed != sorted(tops):
        return "generated complex differs from the expected top faces"
    return None
