"""Canonical JSON reports.

All machine output is JSON with sorted keys and exact rationals rendered as
"p/q" strings, so identical inputs and seeds produce byte-identical reports.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List


@dataclass
class CheckReport:
    """Outcome of one verified claim: both sides, parameters, and a verdict."""

    name: str
    passed: bool
    lhs: Any = None
    rhs: Any = None
    params: Dict[str, Any] = field(default_factory=dict)
    witness: Any = None
    notes: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return to_jsonable(dataclasses.asdict(self))


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def to_jsonable(obj: Any) -> Any:
    """Recursively convert fractions, faces, sets, and dataclasses for JSON."""
    if isinstance(obj, Fraction):
        return format_fraction(obj)
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: _key(kv[0]))}
    if isinstance(obj, (set, frozenset)):
        return [to_jsonable(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return to_jsonable(dataclasses.asdict(obj))
    return obj


def _key(k: Any) -> str:
    if isinstance(k, (tuple, frozenset)):
        return " ".join(map(str, k))
    return str(k)


def dumps_report(payload: Any) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace drift)."""
    return json.dumps(to_jsonable(payload), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def render_table(payload: Dict[str, Any], indent: int = 0) -> str:
    """Human-readable view derived from the JSON payload, never computed separately."""
    lines: List[str] = []
    pad = "  " * indent
    data = to_jsonable(payload)
    _render(data, pad, lines)
    return "\n".join(lines)


def _render(data: Any, pad: str, lines: List[str]) -> None:
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                _render(v, pad + "  ", lines)
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                _render(v, pad + "  ", lines)
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{data}")
