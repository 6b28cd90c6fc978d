"""Finite groups with 0-based element indices (index 0 is always the identity).

Abelian groups are written additively in the rest of the library (their
identity plays the role of 0), non-abelian groups multiplicatively, but both
share the same integer-indexed interface: ``op``, ``inv``, and
``op_array``/``inv_array`` for elementwise use on numpy index arrays.
"""

from __future__ import annotations

import json
import re
from itertools import permutations
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .errors import BadParamsError, ParseError

#: Largest order for which table-backed construction and exhaustive axiom
#: checks are supported.  Structured groups (Z_m) work past this limit.
MAX_TABLE_ORDER = 512


class FiniteGroup:
    """A finite group on elements ``0..order-1`` with identity ``0``."""

    name: str
    spec: str
    order: int
    _is_abelian: Optional[bool] = None
    _tables: Optional[tuple] = None

    def op(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def op_array(self, a, b):
        """Elementwise ``op`` on int64 arrays of element indices."""
        return self._cayley()[0][a, b]

    def inv_array(self, a):
        """Elementwise ``inv`` on an int64 array of element indices."""
        return self._cayley()[1][a]

    def _cayley(self) -> tuple:
        """The Cayley table and inverse map as int64 arrays, built once per group."""
        if self._tables is None:
            import numpy as np

            n = self.order
            mul = np.array([[self.op(a, b) for b in range(n)] for a in range(n)], dtype=np.int64)
            inv = np.array([self.inv(a) for a in range(n)], dtype=np.int64)
            self._tables = (mul, inv)
        return self._tables

    def elements(self) -> range:
        return range(self.order)

    def signed(self, a: int, sign: int) -> int:
        """Return ``a`` for sign +1 and the inverse of ``a`` for sign -1."""
        return a if sign >= 0 else self.inv(a)

    @property
    def is_abelian(self) -> bool:
        if self._is_abelian is None:
            self._is_abelian = all(
                self.op(a, b) == self.op(b, a)
                for a in self.elements()
                for b in self.elements()
            )
        return self._is_abelian

    def check_axioms(self) -> None:
        """Exhaustively verify identity, inverses, and associativity.

        Raises BadParamsError on the first violation.  Quadratic/cubic in the
        order, so guarded by MAX_TABLE_ORDER.
        """
        n = self.order
        if n <= 0:
            raise BadParamsError("group order must be positive")
        if n > MAX_TABLE_ORDER:
            raise BadParamsError(
                f"exhaustive axiom check limited to order {MAX_TABLE_ORDER}, got {n}"
            )
        for a in range(n):
            if self.op(0, a) != a or self.op(a, 0) != a:
                raise BadParamsError(f"element 0 is not an identity at {a}")
            b = self.inv(a)
            if not 0 <= b < n or self.op(a, b) != 0 or self.op(b, a) != 0:
                raise BadParamsError(f"element {a} has no valid inverse")
        # Row a compares (ab)c, read as table[ab][c], with a(bc), read as table[a][bc].
        table = self._cayley()[0]
        for a in range(n):
            if not (table[table[a]] == table[a][table]).all():
                raise BadParamsError(f"associativity fails for left factor {a}")
        declared = self._is_abelian
        if declared is not None:
            actual = all(
                self.op(a, b) == self.op(b, a) for a in range(n) for b in range(n)
            )
            if actual != declared:
                raise BadParamsError("is_abelian flag inconsistent with the table")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, order={self.order})"


class CyclicGroup(FiniteGroup):
    """Z_m with addition modulo m; no table, works for any m >= 1."""

    def __init__(self, m: int):
        if m <= 0:
            raise BadParamsError(f"cyclic order must be positive, got {m}")
        self.order = m
        self.name = f"Z{m}"
        self.spec = self.name
        self._is_abelian = True

    def op(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def inv(self, a: int) -> int:
        return (-a) % self.order

    # The arithmetic is elementwise, so no table: the order of Z_m is unbounded.
    op_array = op
    inv_array = inv


class DirectProductGroup(FiniteGroup):
    """Direct product with mixed-radix element indices (left factor is slow)."""

    def __init__(self, factors: Sequence[FiniteGroup]):
        if len(factors) < 2:
            raise BadParamsError("a direct product needs at least two factors")
        self.factors = tuple(factors)
        self.order = 1
        for g in self.factors:
            self.order *= g.order
        self.spec = "x".join(g.spec for g in self.factors)
        self.name = self.spec
        self._is_abelian = all(g.is_abelian for g in self.factors)

    def _split(self, a: int) -> Tuple[int, ...]:
        parts = []
        for g in reversed(self.factors):
            a, r = divmod(a, g.order)
            parts.append(r)
        return tuple(reversed(parts))

    def _join(self, parts: Sequence[int]) -> int:
        a = 0
        for g, p in zip(self.factors, parts):
            a = a * g.order + p
        return a

    def op(self, a: int, b: int) -> int:
        pa, pb = self._split(a), self._split(b)
        return self._join([g.op(x, y) for g, x, y in zip(self.factors, pa, pb)])

    def inv(self, a: int) -> int:
        return self._join([g.inv(x) for g, x in zip(self.factors, self._split(a))])

    # Factor by factor, like op and inv, so no table of order^2 entries is built.
    def op_array(self, a, b):
        pa, pb = self._split(a), self._split(b)
        return self._join([g.op_array(x, y) for g, x, y in zip(self.factors, pa, pb)])

    def inv_array(self, a):
        return self._join([g.inv_array(x) for g, x in zip(self.factors, self._split(a))])


class TableGroup(FiniteGroup):
    """Group given by an explicit Cayley table; axioms verified on build."""

    def __init__(self, name: str, table: Sequence[Sequence[int]], spec: Optional[str] = None):
        n = len(table)
        if n == 0 or n > MAX_TABLE_ORDER:
            raise BadParamsError(f"table order must be in 1..{MAX_TABLE_ORDER}, got {n}")
        rows: List[Tuple[int, ...]] = []
        for i, row in enumerate(table):
            vals = tuple(int(x) for x in row)
            if len(vals) != n or any(not 0 <= v < n for v in vals):
                raise BadParamsError(f"table row {i} is not a permutation of 0..{n - 1}")
            rows.append(vals)
        self.order = n
        self.name = name
        self.spec = spec or name
        self._table = rows
        self._inv = [0] * n
        for a in range(n):
            found = None
            for b in range(n):
                if rows[a][b] == 0 and rows[b][a] == 0:
                    found = b
                    break
            if found is None:
                raise BadParamsError(f"element {a} has no two-sided inverse")
            self._inv[a] = found
        self.check_axioms()

    def op(self, a: int, b: int) -> int:
        return self._table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]


class SymmetricGroup(TableGroup):
    """S_m on symbols 0..m-1; elements are permutations in lexicographic order.

    The product a*b is composition: apply b first, then a, which matches the
    usual cycle arithmetic where (0 1)(1 2) maps 0 -> 1 -> 2.
    """

    def __init__(self, m: int):
        if m < 1:
            raise BadParamsError(f"symmetric group degree must be >= 1, got {m}")
        # Refuse before listing permutations; the running product stops early.
        n = 1
        for i in range(2, m + 1):
            n *= i
            if n > MAX_TABLE_ORDER:
                raise BadParamsError(f"S{m} has order {m}! > {MAX_TABLE_ORDER}")
        perms = list(permutations(range(m)))
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(pa[pb[x]] for x in range(m))] for pb in perms]
            for pa in perms
        ]
        self.perms = perms
        super().__init__(f"S{m}", table)
        self._is_abelian = m <= 2


class DihedralGroup(TableGroup):
    """D_m of order 2m: rotations r^i (indices 0..m-1) and reflections r^i s."""

    def __init__(self, m: int):
        if m < 1:
            raise BadParamsError(f"dihedral parameter must be >= 1, got {m}")
        n = 2 * m
        if n > MAX_TABLE_ORDER:
            raise BadParamsError(f"D{m} has order {n} > {MAX_TABLE_ORDER}")

        def mul(a: int, b: int) -> int:
            i, j = a % m, a // m
            p, q = b % m, b // m
            # (r^i s^j)(r^p s^q) = r^(i + p*(-1)^j) s^(j+q)
            rot = (i + (p if j == 0 else -p)) % m
            return rot + m * ((j + q) % 2)

        table = [[mul(a, b) for b in range(n)] for a in range(n)]
        super().__init__(f"D{m}", table)
        self._is_abelian = m <= 2


_ATOM_RE = re.compile(r"^([ZSD])(\d+)$")


def _group_atom(token: str) -> FiniteGroup:
    m = _ATOM_RE.match(token)
    if not m:
        raise ParseError(f"unrecognized group atom {token!r}")
    kind, digits = m.group(1), m.group(2)
    try:
        arg = int(digits)
    except ValueError as exc:  # past the interpreter's limit on digits
        raise ParseError(f"group atom {kind} with {len(digits)} digits is too large") from exc
    if kind == "Z":
        return CyclicGroup(arg)
    if kind == "S":
        return SymmetricGroup(arg)
    return DihedralGroup(arg)


def group_from_spec(spec: str) -> FiniteGroup:
    """Build a group from a spec string: Z2, Z6, Z2xZ3, S3, D4, table:<file>."""
    text = spec.strip()
    if not text:
        raise ParseError("empty group spec")
    if text.startswith("table:"):
        return load_table_group(Path(text[len("table:"):]))
    tokens = [t.strip() for t in text.replace("X", "x").split("x")]
    if any(not t for t in tokens):
        raise ParseError(f"malformed group spec {spec!r}")
    atoms = [_group_atom(t) for t in tokens]
    if len(atoms) == 1:
        return atoms[0]
    return DirectProductGroup(atoms)


def load_table_group(path: Path) -> TableGroup:
    """Load a Cayley-table group from a JSON file {"name":..., "table": [[...]]}."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError covers bad JSON, bytes that are not UTF-8 and a NUL in the path.
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read group table {path}: {exc}") from exc
    if not isinstance(payload, dict) or "table" not in payload:
        raise ParseError(f"group table file {path} must contain a 'table' key")
    table = payload["table"]
    if not isinstance(table, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in table
    ):
        raise ParseError(f"the table in {path} must be a list of rows of integers")
    name = str(payload.get("name", Path(path).stem))
    return TableGroup(name, table, spec=f"table:{path}")
