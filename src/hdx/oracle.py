"""Brute-force ground truth: full cochain-space enumeration on small instances.

Everything here is an independent slow path.  One block odometer (`_Scan`)
walks C^k in lexicographic order for every group, `_BLOCK_STATES` consecutive
states at a time: a block's digits come from the state indices, its weights
from one product with the face numerators, and its coboundary from the
oracle's own role array over X(k+1), never from `cochains`.  Coboundary rows
are sorted and merged by exact keys, int64 words that each code a run of
faces in mixed radix, so images compare in numpy for any number of faces.
Z^k and B^k are sorted value rows for every group: 2-D arrays with one row
per vector over X(k), in lexicographic order, and a `Cochain` is built only
for a returned witness.  For two-element groups they are spans over GF(2):
the kernel and the row space of the incidence rows, listed at a cost of |Z|
or |B| rather than 2^|X(k)|, with face 0 in the highest bit so sorted masks
are sorted rows.  Ratio scans keep one table row per coboundary fiber wherever
dist(f, Z^k) is the lightest weight in the fiber of df (abelian groups, and
dimension 0 for every group) and the table stays small; otherwise they
measure every state against a pool of cocycles.  Distances and expansion
constants are exact rational minima with deterministic witnesses, a scan over
budget is refused for the dimension that needs it, and nothing is shared with
the fast paths these results are checked against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cochains import Cochain
from .complexes import Face, SimplicialComplex
from .errors import (
    BadDimensionError,
    BudgetExceededError,
    ParseError,
    UndefinedCoboundaryError,
)
from .groups import FiniteGroup

DEFAULT_MAX_STATES = 2**24
BUDGET_ENV_VAR = "HDX_BUDGET"
_MAX_FIBERS = 2**16  # fiber-table rows in a ratio scan, about |X(k+1)| + 16 bytes each
_BLOCK_STATES = 2**10  # states per block of the odometer; bounds its memory
_POOL_CELLS = 2**16  # face comparisons per step of a pool scan


@dataclass(frozen=True)
class EnumerationBudget:
    """Most states one exhaustive scan may visit; checked before the scan starts.

    A scan over budget raises `BudgetExceededError` without doing any work.
    The default is 2^24 states, or the value of the HDX_BUDGET variable.
    """

    max_states: int = DEFAULT_MAX_STATES

    @classmethod
    def default(cls) -> "EnumerationBudget":
        raw = os.environ.get(BUDGET_ENV_VAR)
        if not raw:
            return cls()
        try:
            # isdecimal admits no sign; int() refuses digits past the interpreter's limit.
            states = int(raw) if raw.strip().isdecimal() else None
        except ValueError:
            states = None
        if states is None:
            raise ParseError(
                f"{BUDGET_ENV_VAR} must be a non-negative number of states, got {raw!r}"
            )
        return cls(max_states=states)

    def ensure(self, states: int, what: str) -> None:
        if states > self.max_states:
            # str() refuses ints past the interpreter's digit limit (huge Z_m).
            shown = states if states.bit_length() < 10**4 else f"more than 2^{states.bit_length() - 1}"
            raise BudgetExceededError(
                f"{what} needs {shown} states, over the budget of {self.max_states}"
            )


def space_size(group: FiniteGroup, face_count: int) -> int:
    return group.order**face_count


# -- enumeration engine ----------------------------------------------------------


def _numerators(values: Sequence[int]) -> np.ndarray:
    """Weight numerators in the narrowest type that holds their sum (Python
    ints past uint64), so weights computed with them are exact and small."""
    return np.array(values, dtype=np.min_scalar_type(sum(values)))


class _Scan:
    """Block odometer over the assignments to X(k), with their coboundaries.

    State i is the i-th vector of C^k in lexicographic order: its value on the
    j-th k-face is (i // g^(m-1-j)) % g, the first face most significant.
    `blocks` yields the states `_BLOCK_STATES` at a time with their
    coboundaries on X(k+1).  Nothing is tracked at the top dimension, nor
    above dimension 1 for non-abelian groups, so there a coboundary row has
    no entries and every state is a cocycle.
    """

    def __init__(self, X: SimplicialComplex, k: int, G: FiniteGroup):
        self.k, self.G = k, G
        faces: List[Face] = list(X.faces(k))
        self.m = len(faces)
        self.nums = _numerators([X.weight_numerator(f) for f in faces])
        self.track = k < X.dimension and (G.is_abelian or k <= 1)
        above: List[Face] = list(X.faces(k + 1)) if self.track else []
        self.above_nums = _numerators([X.weight_numerator(f) for f in above])
        index = {f: i for i, f in enumerate(faces)}
        # roles[j, i]: the k-face left when position i is dropped from the j-th (k+1)-face.
        self.roles = np.array(
            [[index[f[:i] + f[i + 1 :]] for i in range(k + 2)] for f in above], dtype=np.intp
        ).reshape(len(above), k + 2)
        # Signed and wide enough for a + b: Z_m adds before it reduces.
        self.dtype = np.min_scalar_type(-2 * G.order)
        # A key word codes `width` faces below 2^63.
        self.width = 1
        while self.width < len(above) and G.order ** (self.width + 1) < 2**63:
            self.width += 1

    def blocks(
        self, budget: EnumerationBudget, what: str
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield (start, digits, delta) for each block, in lexicographic order.

        digits holds the states start, start + 1, ... as rows of values on
        X(k), and delta their coboundaries as rows of values on X(k+1).
        """
        g, total = self.G.order, space_size(self.G, self.m)
        budget.ensure(total, what)
        # Index arithmetic in the narrowest type that holds the state count.
        index_type = np.min_scalar_type(total)
        place = np.array([g ** (self.m - 1 - j) for j in range(self.m)], dtype=index_type)
        for start in range(0, total, _BLOCK_STATES):
            index = np.arange(start, min(start + _BLOCK_STATES, total), dtype=index_type)
            digits = index[:, None] // place
            digits %= g
            digits = digits.astype(self.dtype)
            yield start, digits, self.delta(digits)

    def delta(self, digits: np.ndarray) -> np.ndarray:
        """The coboundary of each row of digits, one column per (k+1)-face."""
        G, k = self.G, self.k
        if not self.track:
            return digits[:, :0]
        col = [digits[:, self.roles[:, i]] for i in range(k + 2)]
        if G.is_abelian or k == -1:
            out = col[0]
            for i in range(1, k + 2):
                out = G.op_array(out, col[i] if i % 2 == 0 else G.inv_array(col[i]))
        elif k == 0:
            # For an edge (u, v) dropping position 1 leaves u: f(u) f(v)^-1.
            out = G.op_array(col[1], G.inv_array(col[0]))
        else:
            # k == 1, above = (u, v, w): g(uv) g(vw) g(uw)^-1.
            out = G.op_array(G.op_array(col[2], col[0]), G.inv_array(col[1]))
        # Table groups answer in int64; keep rows narrow.
        return out.astype(self.dtype, copy=False)

    def keys(self, delta: np.ndarray) -> np.ndarray:
        """Exact sort keys of coboundary rows: one int64 word per run of faces.

        Each word codes its faces in mixed radix, the first most significant,
        so rows and their keys sort alike, past int64 and past one byte a digit.
        """
        n = delta.shape[1]
        keys = np.zeros((len(delta), max(1, -(-n // self.width))), dtype=np.int64)
        for j in range(n):
            word = keys[:, j // self.width]
            word *= self.G.order
            word += delta[:, j]
        return keys


def _digits(code: int, base: int, length: int) -> Tuple[int, ...]:
    """The mixed-radix digits of code, most significant first."""
    out = [0] * length
    for i in range(length - 1, -1, -1):
        code, out[i] = divmod(code, base)
    return tuple(out)


def _images(
    scan: _Scan, budget: EnumerationBudget, what: str, nonzero: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every distinct coboundary of the scan, in increasing order (only df != 0
    when nonzero), with the index of its first preimage and the least weight
    numerator of its preimages, as three aligned arrays.

    Block rows wait in a list and merge into the table once they outnumber it,
    so each row is sorted O(1) times.  Indices are held in the narrowest
    type that fits them.
    """
    index_type = np.min_scalar_type(space_size(scan.G, scan.m))
    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    table = waiting = 0
    for start, digits, delta in scan.blocks(budget, what):
        keep = np.flatnonzero(delta.any(axis=1)) if nonzero else np.arange(len(delta))
        first = (keep + start).astype(index_type)
        parts.append((delta[keep], first, ((digits[keep] != 0) @ scan.nums)))
        waiting += len(keep)
        if waiting > max(table, _BLOCK_STATES):
            parts = [_merge(scan, parts)]
            table, waiting = len(parts[0][0]), 0
    return _merge(scan, parts)


def _merge(scan: _Scan, parts: list) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One row per distinct image of parts, sorted, keeping the first index
    and the least weight.  Parts come in scan order, and the sort is stable.
    Empties parts, so its blocks are freed before the sort."""
    rows, first, light = (np.concatenate(a) for a in zip(*parts))
    parts.clear()
    keys = scan.keys(rows)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    pick = order[starts]
    return rows[pick], first[pick], np.minimum.reduceat(light[order], starts)


def _first_min_ratio(num: np.ndarray, den: np.ndarray) -> int:
    """Index of the first least num[i] / den[i] (every den > 0), compared exactly."""
    exact = np.int64 if int(num.max()) * int(den.max()) < 2**63 else object
    num, den = num.astype(exact), den.astype(exact)
    approx = num / den
    i = int(np.argmin(approx))
    # The float guess is refined by cross-multiplication until nothing is below it.
    while True:
        below = np.flatnonzero(num * den[i] < num[i] * den)
        if not len(below):
            return int(np.flatnonzero(num * den[i] == num[i] * den)[0])
        i = int(below[np.argmin(approx[below])])


def _f2_incidence(scan: _Scan) -> List[int]:
    """Row i: the bitmask of the (k+1)-faces that contain the i-th k-face,
    read from the scan's roles, with the first (k+1)-face in the highest bit."""
    rows = [0] * scan.m
    top = len(scan.roles) - 1
    for j, faces in enumerate(scan.roles.tolist()):
        for i in faces:
            rows[i] ^= 1 << (top - j)
    return rows


def _f2_eliminate(rows: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Gaussian elimination over GF(2) on bitmask rows.

    Returns a basis of the row space and a basis of the kernel, the masks of
    row indices whose rows XOR to 0, with row 0 in the highest bit.
    """
    pivots: Dict[int, Tuple[int, int]] = {}
    kernel: List[int] = []
    for i, row in enumerate(rows):
        combo = 1 << (len(rows) - 1 - i)
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, combo)
                break
            pivot_row, pivot_combo = pivots[top]
            row ^= pivot_row
            combo ^= pivot_combo
        else:
            kernel.append(combo)
    return [row for row, _combo in pivots.values()], kernel


def _f2_span(basis: Sequence[int], m: int, dtype: np.dtype) -> np.ndarray:
    """Every XOR of a subset of independent bitmasks over m faces, as sorted
    value rows.  Face 0 is the highest bit, so sorted masks are sorted rows;
    the bytes of each mask unpack into its row, exactly for any m."""
    masks = [0]
    for b in basis:
        masks += [v ^ b for v in masks]
    masks.sort()
    width = -(-m // 8)
    raw = np.frombuffer(b"".join(v.to_bytes(width, "big") for v in masks), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(masks), width), axis=1)
    return bits[:, 8 * width - m :].astype(dtype)


def _rows_in(rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Whether each value row of rows is a row of table, both over the same
    faces.  Rows compare as byte strings of one dtype, in a binary search."""
    dtype = np.promote_types(rows.dtype, table.dtype)

    def keys(a: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a, dtype=dtype)
        return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()

    table_keys, row_keys = np.sort(keys(table)), keys(rows)
    at = np.searchsorted(table_keys, row_keys).clip(max=len(table_keys) - 1)
    return table_keys[at] == row_keys


@dataclass
class EnumeratedSpaces:
    """Z^k and B^k materialized as sorted value rows (one row per vector over
    X(k), in lexicographic order); C^k kept as a count (it can be huge)."""

    complex: SimplicialComplex
    dimension: int
    group: FiniteGroup
    c_count: int
    cocycles: Optional[np.ndarray]
    coboundaries: np.ndarray


def _cochain_from_vector(
    X: SimplicialComplex, k: int, G: FiniteGroup, vec: Sequence[int]
) -> Cochain:
    return Cochain(X, k, G, {f: v for f, v in zip(X.faces(k), map(int, vec)) if v}, _trusted=True)


def cocycle_list(
    X: SimplicialComplex, G: FiniteGroup, k: int, budget: EnumerationBudget
) -> Optional[np.ndarray]:
    """All cocycles of dimension k as sorted value rows (None when the space
    is undefined).

    At the top dimension every cochain is a cocycle, which the generic scan
    finds because it tracks no coboundary there.
    """
    scan = _Scan(X, k, G)
    if k < X.dimension:
        if not (G.is_abelian or k <= 1):
            return None
        if G.order == 2:
            budget.ensure(2**scan.m, f"cocycle scan in dimension {k}")
            return _f2_span(_f2_eliminate(_f2_incidence(scan))[1], scan.m, scan.dtype)
    blocks = scan.blocks(budget, f"Z^{k} scan")
    return np.concatenate([digits[~delta.any(axis=1)] for _start, digits, delta in blocks])


def coboundary_list(
    X: SimplicialComplex, G: FiniteGroup, k: int, budget: EnumerationBudget
) -> np.ndarray:
    """B^k as sorted value rows: the image of the scan one level down
    (constants when k == 0)."""
    budget.ensure(space_size(G, len(X.faces(k - 1)) if k >= 1 else 1), f"B^{k} scan")
    if k == 0:
        constants = np.arange(G.order, dtype=np.min_scalar_type(-2 * G.order))
        return np.repeat(constants[:, None], X.face_count(0), axis=1)
    scan = _Scan(X, k - 1, G)
    if G.order == 2:
        budget.ensure(2**scan.m, f"coboundary scan into dimension {k}")
        return _f2_span(_f2_eliminate(_f2_incidence(scan))[0], len(scan.roles), scan.dtype)
    return _images(scan, budget, f"B^{k} scan", nonzero=False)[0]


def enumerate_spaces(
    X: SimplicialComplex,
    G: FiniteGroup,
    k: int,
    budget: Optional[EnumerationBudget] = None,
) -> EnumeratedSpaces:
    """Materialize Z^k and B^k by exhaustive scans; C^k is returned as a count.

    For non-abelian groups the cocycle space exists only for k <= 1 (the
    multiplicative coboundary stops there); B^k is enumerated as the image of
    the level below, which for k = 0 is the set of constant assignments.
    """
    budget = budget or EnumerationBudget.default()
    if not 0 <= k <= X.dimension:
        raise BadDimensionError(f"no cochains of dimension {k}")
    c_count = space_size(G, X.face_count(k))
    budget.ensure(c_count, f"C^{k} scan")
    cocycles = cocycle_list(X, G, k, budget)
    coboundaries = coboundary_list(X, G, k, budget)
    if cocycles is not None and not _rows_in(coboundaries, cocycles).all():
        raise AssertionError("a coboundary failed the cocycle condition")
    return EnumeratedSpaces(X, k, G, c_count, cocycles, coboundaries)


def exact_distance(
    f: Cochain,
    space: str = "B",
    budget: Optional[EnumerationBudget] = None,
) -> Tuple[Fraction, Cochain]:
    """Exact distance from f to Z^k or B^k, with a lexicographic-min witness."""
    budget = budget or EnumerationBudget.default()
    if space == "Z":
        pool = cocycle_list(f.complex, f.group, f.dimension, budget)
        if pool is None:
            raise UndefinedCoboundaryError("no cocycle space for this (group, dimension)")
    elif space == "B":
        pool = coboundary_list(f.complex, f.group, f.dimension, budget)
    else:
        raise BadDimensionError(f"unknown space tag {space!r}")
    X, k = f.complex, f.dimension
    faces = X.faces(k)
    nums = _numerators([X.weight_numerator(face) for face in faces])
    # The pool is sorted, so the first nearest row is the lexicographic minimum.
    dist = (pool != [f.value(face) for face in faces]) @ nums
    i = int(np.argmin(dist))
    witness = _cochain_from_vector(X, k, f.group, pool[i])
    return Fraction(int(dist[i]), X.weight_denominator(k)), witness


def _min_ratio_scan(
    X: SimplicialComplex,
    G: FiniteGroup,
    k: int,
    pool: np.ndarray,
    budget: EnumerationBudget,
    what: str,
) -> Tuple[Optional[Fraction], Optional[Tuple[int, ...]]]:
    """First minimum of ||df|| / dist(f, Z^k) over the f in C^k with df != 0.

    pool is Z^k (or B^k where it equals Z^k) as value rows.  Returns the
    ratio and the vector of f, or (None, None) when df = 0 for every f.  The scan runs in lexicographic
    order, so ties keep the smallest vector.
    """
    scan = _Scan(X, k, G)
    den_k = X.weight_denominator(k)
    den_k1 = X.weight_denominator(k + 1)
    # For abelian G and for k = 0 the fibers of d are the |C^k| / |Z^k|
    # cosets of Z^k.
    if (G.is_abelian or k == 0) and space_size(G, scan.m) // len(pool) <= _MAX_FIBERS:
        # dist(f, Z^k) = min{||g|| : dg = df}: for abelian G the fiber of df
        # is the coset f - Z^k, and for k = 0 it is {f c : c locally constant}.
        # So the ratio depends on df alone, and the first minimizer is the
        # first preimage of the image whose ratio is least, ties going to the
        # image seen first.  The table keeps, per image, its first preimage
        # and its lightest weight.
        images, first, lightest = _images(scan, budget, what, nonzero=True)
        if not len(first):
            return None, None
        seen = np.argsort(first)
        images, first, lightest = images[seen], first[seen], lightest[seen]
        norms = (images != 0) @ scan.above_nums
        i = _first_min_ratio(norms, lightest)
        best = Fraction(int(norms[i]) * den_k, den_k1 * int(lightest[i]))
        return best, _digits(int(first[i]), G.order, scan.m)
    # Non-abelian k = 1, where the distance is not constant on a fiber, and
    # tables past _MAX_FIBERS: every state is measured against the pool
    # vectors, a few at a time, in memory O(|Z^k| + block).
    pool_rows = np.asarray(pool, dtype=scan.dtype).reshape(len(pool), scan.m)
    best_ratio: Optional[Tuple[int, int]] = None
    best_vec: Optional[Tuple[int, ...]] = None
    for _start, digits, delta in scan.blocks(budget, what):
        moving = np.flatnonzero(delta.any(axis=1))
        if not len(moving):
            continue
        digits = digits[moving]
        step = max(1, _POOL_CELLS // (len(digits) * max(scan.m, 1)))
        dist = None
        for lo in range(0, len(pool_rows), step):
            near = ((digits[:, None, :] != pool_rows[None, lo : lo + step]) @ scan.nums).min(axis=1)
            dist = near if dist is None else np.minimum(dist, near)
        norms = (delta[moving] != 0) @ scan.above_nums
        i = _first_min_ratio(norms, dist)
        norm, dist_num = int(norms[i]), int(dist[i])
        if best_ratio is None or norm * best_ratio[1] < best_ratio[0] * dist_num:
            best_ratio, best_vec = (norm, dist_num), tuple(digits[i].tolist())
    if best_ratio is None:
        return None, None
    return Fraction(best_ratio[0] * den_k, den_k1 * best_ratio[1]), best_vec


@dataclass
class CoboundaryConstant:
    """min ||df|| / dist(f, B^k) over f outside B^k; None means vacuous."""

    dimension: int
    epsilon: Optional[Fraction]
    witness: Optional[Cochain]
    vacuous: bool = False


def coboundary_expansion_constant(
    X: SimplicialComplex,
    G: FiniteGroup,
    k: int,
    budget: Optional[EnumerationBudget] = None,
) -> CoboundaryConstant:
    """Exact coboundary-expansion constant in dimension k by full enumeration."""
    budget = budget or EnumerationBudget.default()
    if k >= X.dimension or k < 0:
        raise BadDimensionError(f"need 0 <= k < d, got k={k}, d={X.dimension}")
    if not G.is_abelian and k > 1:
        raise UndefinedCoboundaryError("no multiplicative coboundary above dimension 1")
    if G.order == 1:
        return CoboundaryConstant(k, None, None, vacuous=True)
    c_count = space_size(G, X.face_count(k))
    budget.ensure(c_count, f"C^{k} scan")
    b_rows = coboundary_list(X, G, k, budget)
    budget.ensure(c_count * max(len(b_rows), 1), f"expansion ratio scan in dim {k}")
    # A cocycle outside B^k pins the constant at 0 without the ratio scan, the
    # first such row being the first minimizer.  Otherwise Z^k = B^k, so the f
    # outside B^k are exactly those with df != 0.
    z_rows = cocycle_list(X, G, k, budget)
    outside = np.flatnonzero(~_rows_in(z_rows, b_rows))
    if len(outside):
        witness = _cochain_from_vector(X, k, G, z_rows[outside[0]])
        return CoboundaryConstant(k, Fraction(0), witness)
    best, best_vec = _min_ratio_scan(X, G, k, b_rows, budget, f"C^{k} ratio scan")
    if best is None:
        return CoboundaryConstant(k, None, None, vacuous=True)
    witness = _cochain_from_vector(X, k, G, best_vec)
    return CoboundaryConstant(k, best, witness)


@dataclass
class CosystolicConstants:
    """Exact per-dimension cosystolic data; None fields were refused or vacuous."""

    group_spec: str
    per_dim: Dict[int, Dict[str, object]] = field(default_factory=dict)

    @property
    def epsilon(self) -> Optional[Fraction]:
        vals = [d["epsilon"] for d in self.per_dim.values() if d.get("epsilon") is not None]
        return min(vals) if vals else None

    @property
    def mu(self) -> Optional[Fraction]:
        vals = [d["mu"] for d in self.per_dim.values() if d.get("mu") is not None]
        return min(vals) if vals else None


def cosystolic_expansion_constants(
    X: SimplicialComplex,
    G: FiniteGroup,
    budget: Optional[EnumerationBudget] = None,
    dims: Optional[Iterable[int]] = None,
) -> CosystolicConstants:
    """Exact (epsilon, mu) per dimension.

    epsilon_k = min ||df|| / dist(f, Z^k) over f outside Z^k; mu_k = min ||f||
    over cocycles outside B^k (None when Z^k = B^k, the "infinite" sentinel).
    A dimension whose spaces or ratio scan exceed the budget is marked
    skipped with the reason; the other dimensions are still computed.
    """
    budget = budget or EnumerationBudget.default()
    if dims is None:
        dims = range(0, X.dimension) if G.is_abelian else range(0, min(2, X.dimension))
    out = CosystolicConstants(G.spec)
    for k in dims:
        entry: Dict[str, object] = {"epsilon": None, "mu": None, "skipped": None}
        if G.order == 1:
            entry["skipped"] = "vacuous for the one-element group"
            out.per_dim[k] = entry
            continue
        try:
            spaces = enumerate_spaces(X, G, k, budget)
        except BudgetExceededError as exc:
            entry["skipped"] = str(exc)
            out.per_dim[k] = entry
            continue
        z_rows, b_rows = spaces.cocycles, spaces.coboundaries
        entry["z_size"] = len(z_rows)
        entry["b_size"] = len(b_rows)
        nontrivial = z_rows[~_rows_in(z_rows, b_rows)]
        if len(nontrivial):
            # Rows are sorted, so the first lightest is the lexicographic minimum.
            weights = (nontrivial != 0) @ _numerators([X.weight_numerator(f) for f in X.faces(k)])
            i = int(np.argmin(weights))
            entry["mu"] = Fraction(int(weights[i]), X.weight_denominator(k))
            entry["mu_witness"] = _cochain_from_vector(X, k, G, nontrivial[i])

        pair_cost = spaces.c_count * max(len(z_rows), 1)
        if pair_cost > budget.max_states:
            entry["skipped"] = f"ratio scan needs {pair_cost} states"
            out.per_dim[k] = entry
            continue
        entry["epsilon"] = _min_ratio_scan(
            X, G, k, z_rows, budget, f"cosystolic scan dim {k}"
        )[0]
        out.per_dim[k] = entry
    return out


def min_nontrivial_cocycle_weight(
    X: SimplicialComplex,
    G: FiniteGroup,
    k: int,
    budget: Optional[EnumerationBudget] = None,
) -> Optional[Fraction]:
    """Minimum weight over Z^k \\ B^k found by support-size-ordered search.

    Independent of enumerate_spaces: supports are enumerated by size with
    value products over non-identity elements, pruning once every remaining
    support is heavier than the best cocycle found.  The candidates of a batch
    of supports go through the odometer's coboundary about one block at a
    time; the batch is then replayed in order, so pruning and the state count
    (and a refusal) fall exactly as support by support.  Returns None when no
    nontrivial cocycle exists.
    """
    budget = budget or EnumerationBudget.default()
    den = X.weight_denominator(k)
    scan = _Scan(X, k, G)
    # The one-element group has no candidates; otherwise refused where the
    # coboundary is, before any scan.
    if G.order == 1:
        return None
    if not scan.track:
        if not G.is_abelian and k >= 2:
            raise UndefinedCoboundaryError("no multiplicative coboundary above dimension 1")
        raise BadDimensionError("no coboundary above the top dimension")
    b_rows = coboundary_list(X, G, k, budget)
    sorted_nums = sorted(scan.nums.tolist())
    best_num: Optional[int] = None
    states = 0
    for size in range(1, scan.m + 1):
        if best_num is not None and sum(sorted_nums[:size]) >= best_num:
            break
        per_support = (G.order - 1) ** size
        rows = max(1, _BLOCK_STATES // per_support)
        supports = chain.from_iterable(combinations(range(scan.m), size))
        while len(chunk := np.fromiter(islice(supports, rows * size), np.intp).reshape(-1, size)):
            # Exact: the numerators' dtype holds any sum of them (Python ints past uint64).
            nums = scan.nums[chunk].sum(axis=1)
            if best_num is not None:
                light = nums < best_num
                chunk, nums = chunk[light], nums[light]
            # The first support of a batch is never pruned on replay.
            if not len(chunk) or states + per_support > budget.max_states:
                states += per_support * len(chunk)
            else:
                # Replay in order: a hit prunes every later support at least as heavy.
                live = np.ones(len(chunk), dtype=bool)
                for i in np.flatnonzero(_support_hits(scan, chunk, per_support, b_rows)).tolist():
                    if live[i]:
                        best_num = int(nums[i])
                        live[i + 1 :] &= nums[i + 1 :] < best_num
                states += per_support * int(np.count_nonzero(live))
            if states > budget.max_states:
                raise BudgetExceededError("support search exceeded the state budget")
    if best_num is None:
        return None
    return Fraction(best_num, den)


def _support_hits(
    scan: _Scan, cols: np.ndarray, per_support: int, b_rows: np.ndarray
) -> np.ndarray:
    """For each support of one size, one row of face indices in cols, whether a
    cocycle outside b_rows has exactly that support: every assignment of
    non-identity values, in product order."""
    g1 = scan.G.order - 1
    place = g1 ** np.arange(cols.shape[1] - 1, -1, -1, dtype=np.int64)
    hit = np.zeros(len(cols), dtype=bool)
    total = len(cols) * per_support
    for lo in range(0, total, _BLOCK_STATES):
        flat = np.arange(lo, min(lo + _BLOCK_STATES, total), dtype=np.int64)
        which = flat // per_support
        values = np.zeros((len(flat), scan.m), dtype=scan.dtype)
        assignment = (flat % per_support)[:, None] // place % g1 + 1
        values[np.arange(len(flat))[:, None], cols[which]] = assignment
        cocycles = np.flatnonzero(~scan.delta(values).any(axis=1))
        if len(cocycles):
            hit[which[cocycles[~_rows_in(values[cocycles], b_rows)]]] = True
    return hit


def link_coboundary_beta(
    X: SimplicialComplex,
    G: FiniteGroup,
    budget: Optional[EnumerationBudget] = None,
) -> Tuple[Optional[Fraction], Optional[Face]]:
    """Min coboundary-expansion constant over all proper links, with a witness.

    Links of dimension < 1 are skipped (no equations).  Returns (None, sigma)
    when some link has a vacuous or zero constant in a checkable dimension.
    """
    budget = budget or EnumerationBudget.default()
    best: Optional[Fraction] = None
    witness: Optional[Face] = None
    for i in range(0, X.dimension):
        for sigma in X.faces(i):
            lk = X.link(sigma)
            if lk.dimension < 1:
                continue
            top_k = lk.dimension if G.is_abelian else min(lk.dimension, 2)
            for k in range(0, top_k):
                const = coboundary_expansion_constant(lk, G, k, budget)
                if const.vacuous:
                    continue
                if best is None or const.epsilon < best:
                    best, witness = const.epsilon, sigma
    return best, witness

