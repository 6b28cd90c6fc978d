"""Finite groups with 0-based element indices (index 0 is always the identity).

Abelian groups are written additively in the rest of the library (their
identity plays the role of 0), non-abelian groups multiplicatively.  Every
group defines only ``op_array``/``inv_array``, elementwise on numpy index
arrays or Python ints, and derives the scalar ``op``/``inv`` from them.  A table
group (S_m, D_m, a table file) holds one read-only int64 Cayley table and one
inverse row; Z_m and direct products compute factor by factor with no table.
"""

from __future__ import annotations

import json
import re
from itertools import permutations
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import BadParamsError, ParseError

#: Largest order for which table-backed construction and exhaustive axiom
#: checks are supported.  Structured groups (Z_m) work past this limit.
MAX_TABLE_ORDER = 512

#: Cells per block of check_axioms' associativity comparison.
_AXIOM_CELLS = 1 << 16


def _row_dtype(order: int):
    """int64 while the sum of two element indices fits in it, Python ints past that."""
    return np.int64 if order <= 2**62 else object


class FiniteGroup:
    """A finite group on elements ``0..order-1`` with identity ``0``."""

    name: str
    spec: str
    order: int
    is_abelian: bool

    def op_array(self, a, b):
        """Elementwise product of element indices: numpy arrays or Python ints."""
        raise NotImplementedError

    def inv_array(self, a):
        """Elementwise inverse of element indices: a numpy array or a Python int."""
        raise NotImplementedError

    def op(self, a: int, b: int) -> int:
        return int(self.op_array(a, b))

    def inv(self, a: int) -> int:
        return int(self.inv_array(a))

    def check_axioms(self) -> None:
        """Exhaustively verify identity, inverses, associativity and the
        ``is_abelian`` flag on the Cayley table read through ``op_array``.

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
        every = np.arange(n, dtype=np.int64)
        table = np.asarray(self.op_array(every[:, None], every), dtype=np.int64)
        inv = np.asarray(self.inv_array(every), dtype=np.int64)
        bad = np.flatnonzero((table[0] != every) | (table[:, 0] != every))
        if bad.size:
            raise BadParamsError(f"element 0 is not an identity at {bad[0]}")
        bad = np.flatnonzero((table[every, inv] != 0) | (table[inv, every] != 0))
        if bad.size:
            raise BadParamsError(f"element {bad[0]} has no valid inverse")
        # Left factor a compares (ab)c, read as table[ab][c], with a(bc), read as
        # table[a][bc]: a block of left factors at a time, in buffers reused
        # from block to block.  Entries are element indices, so take may clip.
        rows = min(n, max(1, _AXIOM_CELLS // (n * n)))
        lhs, rhs = np.empty((2, rows, n, n), dtype=np.int64)
        same = np.empty((rows, n, n), dtype=bool)
        for a in range(0, n, rows):
            k = min(rows, n - a)
            np.take(table, table[a : a + k], axis=0, out=lhs[:k], mode="clip")
            np.take(table[a : a + k], table, axis=1, out=rhs[:k], mode="clip")
            np.equal(lhs[:k], rhs[:k], out=same[:k])
            bad = np.flatnonzero(~same[:k].reshape(k, -1).all(axis=1))
            if bad.size:
                raise BadParamsError(f"associativity fails for left factor {a + bad[0]}")
        if self.is_abelian != bool((table == table.T).all()):
            raise BadParamsError("is_abelian flag inconsistent with the table")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, order={self.order})"


class CyclicGroup(FiniteGroup):
    """Z_m with addition modulo m; no table, works for any m >= 1.

    The ops take reduced elements 0..m-1, and arrays in a dtype that holds
    2m - 2 (Python-int object arrays past 2^62).  On an array a sum is reduced
    by one conditional subtract of m, in place in its own dtype, and the
    inverse m - a by zeroing the cells where a = 0; Python ints and numpy
    scalars, which 0-d arrays add up to, keep %.
    """

    def __init__(self, m: int):
        if m <= 0:
            raise BadParamsError(f"cyclic order must be positive, got {m}")
        self.order = m
        self.name = f"Z{m}"
        self.spec = self.name
        self.is_abelian = True

    # The arithmetic is elementwise, so no table: the order of Z_m is unbounded.
    def op_array(self, a, b):
        s = a + b
        if not isinstance(s, np.ndarray):
            return s % self.order
        s -= np.multiply(s >= self.order, self.order, dtype=s.dtype)
        return s

    def inv_array(self, a):
        r = self.order - a
        if not isinstance(r, np.ndarray):
            return -a % self.order
        r *= a != 0
        return r


class DirectProductGroup(FiniteGroup):
    """Direct product with mixed-radix element indices (left factor is slow).
    Digits are int64 for factors of order up to 2^62, which a table factor
    indexes with, Python ints past that; indices join in the product's dtype."""

    def __init__(self, factors: Sequence[FiniteGroup]):
        if len(factors) < 2:
            raise BadParamsError("a direct product needs at least two factors")
        self.factors = tuple(factors)
        self.order = 1
        for g in self.factors:
            self.order *= g.order
        self.spec = "x".join(g.spec for g in self.factors)
        self.name = self.spec
        self.is_abelian = all(g.is_abelian for g in self.factors)

    def _split(self, a) -> list:
        parts = []
        for g in reversed(self.factors):
            parts.append(np.asarray(a % g.order, dtype=_row_dtype(g.order)))
            a = a // g.order
        return parts[::-1]

    def _join(self, parts):
        a = 0
        for g, p in zip(self.factors, parts):
            a = a * g.order + np.asarray(p).astype(_row_dtype(self.order), copy=False)
        return a

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
        cells = np.empty((n, n), dtype=np.int64)
        for i, row in enumerate(table):
            try:
                cells[i] = row
            except (TypeError, ValueError, OverflowError):  # not ints, wrong length, past int64
                cells[i] = -1
        bad = np.flatnonzero((np.sort(cells, axis=1) != np.arange(n)).any(axis=1))
        if bad.size:
            raise BadParamsError(f"table row {bad[0]} is not a permutation of 0..{n - 1}")
        self.order = n
        self.name = name
        self.spec = spec or name
        self.table = cells
        # Row a holds the identity at the candidate inverse of a; check_axioms tests both sides.
        self.inverse = self.table.argmin(axis=1)
        self.table.flags.writeable = self.inverse.flags.writeable = False
        self.is_abelian = bool((self.table == self.table.T).all())
        self.check_axioms()

    # One gather from the flat table at a * n + b, about twice as fast as the 2-D index.
    def op_array(self, a, b):
        return self.table.take(np.multiply(a, self.order, dtype=np.intp) + b)

    def inv_array(self, a):
        return self.inverse.take(a)


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
        self.perms = list(permutations(range(m)))
        perms = np.array(self.perms, dtype=np.int64)
        # perms[:, perms][a, b, x] = pa[pb[x]]; as m base-m digits, lexicographic is numeric order.
        places = m ** np.arange(m - 1, -1, -1)
        super().__init__(f"S{m}", np.searchsorted(perms @ places, perms[:, perms] @ places))


class DihedralGroup(TableGroup):
    """D_m of order 2m: rotations r^i (indices 0..m-1) and reflections r^i s."""

    def __init__(self, m: int):
        if m < 1:
            raise BadParamsError(f"dihedral parameter must be >= 1, got {m}")
        n = 2 * m
        if n > MAX_TABLE_ORDER:
            raise BadParamsError(f"D{m} has order {n} > {MAX_TABLE_ORDER}")
        i, j = np.arange(n) % m, np.arange(n) // m
        # (r^i s^j)(r^p s^q) = r^(i + p*(-1)^j) s^(j+q)
        rot = (i[:, None] + (1 - 2 * j[:, None]) * i) % m
        super().__init__(f"D{m}", rot + m * ((j[:, None] + j) % 2))


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
