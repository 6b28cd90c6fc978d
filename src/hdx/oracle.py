"""Brute-force ground truth: full cochain-space enumeration on small instances.

Everything here is an independent slow path.  One block odometer (`_Scan`)
walks C^k in lexicographic order for every group, at most `_BLOCK_STATES`
states at a time.  A state is a prefix on the first faces and a suffix on the
last L, the most faces whose assignments fit in a block, and a block is a run
of prefixes, each with every suffix.  The suffix digits and weights are
tables built once per scan, and a block writes only its prefix digits and
adds its prefix weights.  Coboundaries come from the oracle's own role array
over X(k+1), never from `cochains`: for abelian groups d is additive, so a
block's coboundaries are its prefixes' added to a suffix table built once;
non-abelian groups run the op chain on the block.  Z^k and B^k are sorted
value rows for every group: 2-D arrays with one row per vector over X(k), in
lexicographic order, and a `Cochain` is built only for a returned witness.
For two-element groups they are spans over GF(2): the kernel and the row
space of the incidence rows, listed at a cost of |Z| or |B| rather than
2^|X(k)|, with face 0 in the highest bit so sorted masks are sorted rows.
Z^0 is the locally constant rows, one value per component of the 1-skeleton,
listed in product order.  Ratio scans keep one table entry per coboundary
fiber wherever dist(f, Z^k) is the lightest weight in the fiber of df
(abelian groups, and dimension 0 for every group) and the table stays small;
otherwise they measure every state against a pool of cocycles.  The fibers
are cosets of Z^k, so, as with a code's syndromes, df on a few (k+1)-faces
that fix it indexes its table entry directly: a spanning forest at k = 0, the
GF(2) pivot columns for two-element groups, and otherwise faces whose signed
incidence rows generate every row of d over the integers, which fix df over
every abelian group at once.  With torsion some syndromes are no df's, and
they are dropped.  B^k past GF(2) is read from the same table, d of each
fiber's first preimage; only the multiplicative B^2, which has no syndromes,
sorts and merges its raw rows.  Distances and expansion constants are exact
rational minima with deterministic witnesses, a scan over budget is refused
for the dimension that needs it, and nothing is shared with the fast paths
these results are checked against.  Link constants are scanned once per
order-preserving link shape (``link_constants``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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
# Fiber-table entries in a ratio scan: a first index, a weight and a norm, at
# most 24 bytes each.
_MAX_FIBERS = 2**16
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


def _numerators(row: np.ndarray) -> np.ndarray:
    """A row of weight numerators in the narrowest type that holds its sum
    (Python ints past uint64), so weights computed with it are exact and small."""
    return row.astype(np.min_scalar_type(sum(row.tolist())))


class _Scan:
    """Block odometer over the assignments to X(k), with their coboundaries.

    State i is the i-th vector of C^k in lexicographic order: its value on the
    j-th k-face is (i // g^(m-1-j)) % g, the first face most significant.  A
    state is a prefix, its values on the first h faces, followed by a suffix,
    its values on the last L = m - h, where L is the most faces with
    g^L <= `_BLOCK_STATES`.  A block is a run of consecutive prefixes, each
    with every suffix, so the suffix digits, weights and (for a linear d)
    coboundaries are tables built once per scan, and a block adds only its
    prefixes.  Nothing is tracked at the top dimension, nor above dimension 1
    for non-abelian groups, so there a coboundary row has no entries and
    every state is a cocycle.
    """

    def __init__(self, X: SimplicialComplex, k: int, G: FiniteGroup):
        self.k, self.G = k, G
        self.m = X.face_count(k)
        self.nums = _numerators(X.weight_numerators(k))
        self.track = k < X.dimension and (G.is_abelian or k <= 1)
        # An additive d splits: d(prefix, suffix) = d(prefix, 0) + d(0, suffix).
        self.linear = self.track and (G.is_abelian or k == -1)
        above: List[Face] = list(X.faces(k + 1)) if self.track else []
        self.above_nums = _numerators(X.weight_numerators(k + 1) if self.track else self.nums[:0])
        index = X.face_index(k)
        # roles[j, i]: the k-face left when position i is dropped from the j-th (k+1)-face.
        self.roles = np.array(
            [[index[f[:i] + f[i + 1 :]] for i in range(k + 2)] for f in above], dtype=np.intp
        ).reshape(len(above), k + 2)
        # Signed and wide enough for a + b: Z_m adds before it reduces.
        self.dtype = np.min_scalar_type(-2 * G.order)

    def blocks(
        self, budget: EnumerationBudget, what: str
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield (start, digits, delta, weights) for each block, in lexicographic order.

        digits holds the states start, start + 1, ... as rows of values on
        X(k), delta their coboundaries as rows of values on X(k+1), and
        weights their weight numerators.  digits is one buffer, rewritten
        from block to block: copy what outlives the block.
        """
        G, g, m = self.G, self.G.order, self.m
        budget.ensure(space_size(G, m), what)
        tail = 0
        while tail < m and g ** (tail + 1) <= _BLOCK_STATES:
            tail += 1
        h, suffixes, prefixes = m - tail, g**tail, g ** (m - tail)
        run = min(prefixes, max(1, _BLOCK_STATES // suffixes))
        # The suffix digits are written once, into every prefix slot of the buffer.
        buffer = np.zeros((run * suffixes, m), dtype=self.dtype)
        for j in range(tail):
            grid = buffer[:suffixes].reshape(g**j, g, g ** (tail - 1 - j), m)
            grid[:, :, :, h + j] = np.arange(g, dtype=self.dtype)[:, None]
        buffer.reshape(run, suffixes, m)[1:, :, h:] = buffer[:suffixes, h:]
        # Prefix 0 is all zeros, so the first slot gives d(0, suffix) and the suffix weights.
        suffix_delta = self.delta(buffer[:suffixes]) if self.linear and suffixes > 1 else None
        suffix_weights = (buffer[:suffixes, h:] != 0) @ self.nums[h:]
        # Index arithmetic in the narrowest type that holds the prefix count and g.
        index_type = np.min_scalar_type(max(prefixes, g))
        place = np.array([g ** (h - 1 - j) for j in range(h)], dtype=index_type)
        for first in range(0, prefixes, run):
            count = min(run, prefixes - first)
            prefix = np.arange(first, first + count, dtype=index_type)[:, None] // place % g
            digits = buffer[: count * suffixes]
            digits.reshape(count, suffixes, m)[:, :, :h] = prefix[:, None, :]
            if suffix_delta is None:
                delta = self.delta(digits)
            else:
                # Each prefix slot starts with suffix 0: its first row is (prefix, 0).
                delta = G.op_array(self.delta(digits[::suffixes])[:, None], suffix_delta)
                delta = delta.astype(self.dtype, copy=False).reshape(len(digits), -1)
            weights = ((prefix != 0) @ self.nums[:h])[:, None] + suffix_weights
            yield first * suffixes, digits, delta, weights.reshape(-1)

    def cut(self, faces: Sequence[int]) -> "_Scan":
        """This scan with its coboundary rows kept on the given (k+1)-faces
        alone; its blocks split and charge the budget as this scan's do."""
        out = object.__new__(_Scan)
        out.__dict__.update(self.__dict__, roles=self.roles[faces])
        return out

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


def _digit_rows(codes: np.ndarray, base: int, length: int) -> np.ndarray:
    """The mixed-radix digits of each code, most significant first, one row
    per code, in the codes' dtype."""
    place = np.array([base ** (length - 1 - j) for j in range(length)], dtype=codes.dtype)
    return codes[:, None] // place % base


def _sorted_distinct(rows: np.ndarray) -> np.ndarray:
    """The distinct value rows of rows, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[new]


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


def _forest(scan: _Scan) -> Tuple[List[int], List[int]]:
    """A spanning forest of the 1-skeleton, by union-find on a k = 0 scan's
    roles: the edges that join two trees, in face order, and each vertex's
    root, the first vertex of its component."""
    parent = list(range(scan.m))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = []
    for j, (v, u) in enumerate(scan.roles.tolist()):
        a, b = root(u), root(v)
        if a != b:
            # The smaller vertex stays the root, so each root is its component's first vertex.
            parent[max(a, b)] = min(a, b)
            edges.append(j)
    return edges, [root(v) for v in range(scan.m)]


def _lattice_faces(scan: _Scan) -> List[int]:
    """The (k+1)-faces, in face order, whose signed incidence rows a greedy
    echelon basis over Z keeps: a row is kept when it is not in the lattice
    that the rows kept so far span, so the kept rows span every row.

    The basis holds one row per leading column, in exact Python ints.  A row
    is reduced by the pivot of its leading column; where the pivot does not
    divide, Euclid on the pair (an extended-gcd step) makes the remainder the
    pivot, and the lattice has grown.
    """
    basis: Dict[int, List[int]] = {}
    kept = []
    for j, faces in enumerate(scan.roles.tolist()):
        row = [0] * scan.m
        for i, face in enumerate(faces):
            row[face] = (-1) ** i
        grew = False
        while any(row):
            lead = next(c for c, v in enumerate(row) if v)
            if lead not in basis:
                basis[lead], grew = row, True
                break
            pivot = basis[lead]
            q = row[lead] // pivot[lead]
            row = [r - q * p for r, p in zip(row, pivot)]
            if row[lead]:
                # The pivot does not divide: Euclid goes on with the pair swapped.
                basis[lead], row, grew = row, pivot, True
        if grew:
            kept.append(j)
    return kept


def _fiber_faces(scan: _Scan) -> List[int]:
    """(k+1)-faces S, in face order, on which df -> df|S maps B^{k+1}
    one-to-one into G^S, for every abelian G and, at k = 0, every group.

    At k = 0 S is a spanning forest: f is fixed by its values at the roots
    and df on the forest edges, and any values on those edges are some df's.
    For two-element groups at k >= 1, S is the pivot columns of a row-space
    basis over GF(2): their leading bits are distinct, so the projection is
    triangular and onto.  Otherwise S is ``_lattice_faces``: every row of d
    is an integer combination of the rows of S, so df on S fixes df over
    every abelian group at once.  With torsion (RP^2 over Z4) the projection
    is not onto, and some syndromes are no df's.
    """
    if scan.k == 0:
        return _forest(scan)[0]
    if scan.G.order != 2:
        return _lattice_faces(scan)
    top = len(scan.roles) - 1
    return sorted(top - (row.bit_length() - 1) for row in _f2_eliminate(_f2_incidence(scan))[0])


def _fiber_table(
    scan: _Scan, faces: List[int], budget: EnumerationBudget, what: str
) -> Tuple[np.ndarray, np.ndarray]:
    """For every df != 0, in the order of its syndrome (df on faces, read in
    base |G|, the first face most significant): the index of its first
    preimage and the least weight numerator of its preimages, as two aligned
    arrays.

    faces are ``_fiber_faces(scan)``, so each syndrome is at most one fiber,
    and a block's syndromes index the table directly.  Syndrome 0 is df = 0,
    and the syndromes no state hits are no df's: both are dropped.
    """
    g, states = scan.G.order, space_size(scan.G, scan.m)
    index_type = np.min_scalar_type(states)
    first = np.full(g ** len(faces), states, dtype=index_type)
    lightest = np.full(len(first), sum(scan.nums.tolist()), dtype=scan.nums.dtype)
    place = g ** np.arange(len(faces) - 1, -1, -1, dtype=np.int64)
    for start, _digits, delta, weights in scan.cut(faces).blocks(budget, what):
        code = delta @ place
        np.minimum.at(first, code, np.arange(start, start + len(code), dtype=index_type))
        np.minimum.at(lightest, code, weights)
    hit = np.flatnonzero(first[1:] < states) + 1
    return first[hit], lightest[hit]


def _images_of(scan: _Scan, states: np.ndarray) -> Iterator[np.ndarray]:
    """The coboundaries of the given state indices, decoded and pushed
    through the full coboundary `_BLOCK_STATES` rows at a time."""
    for lo in range(0, len(states), _BLOCK_STATES):
        rows = _digit_rows(states[lo : lo + _BLOCK_STATES], scan.G.order, scan.m)
        yield scan.delta(rows.astype(scan.dtype))


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

    c_count: int
    cocycles: Optional[np.ndarray]
    coboundaries: np.ndarray


def cocycle_list(
    X: SimplicialComplex, G: FiniteGroup, k: int, budget: EnumerationBudget
) -> Optional[np.ndarray]:
    """All cocycles of dimension k as sorted value rows (None when the space
    is undefined).

    At the top dimension every cochain is a cocycle, which the generic scan
    finds because it tracks no coboundary there.  Below it, Z^0 is the
    locally constant rows, one value per component, listed in product order
    over the components numbered by their first vertex: so in sorted order.
    It is charged as the scan of C^0 it replaces.
    """
    scan = _Scan(X, k, G)
    if k < X.dimension:
        if not (G.is_abelian or k <= 1):
            return None
        if G.order == 2:
            budget.ensure(2**scan.m, f"cocycle scan in dimension {k}")
            return _f2_span(_f2_eliminate(_f2_incidence(scan))[1], scan.m, scan.dtype)
        if k == 0:
            budget.ensure(space_size(G, scan.m), "Z^0 scan")
            # Components numbered in the order of their first vertex.
            component = np.unique(_forest(scan)[1], return_inverse=True)[1]
            count = int(component.max()) + 1
            codes = np.arange(G.order**count, dtype=np.min_scalar_type(G.order**count))
            return _digit_rows(codes, G.order, count)[:, component].astype(scan.dtype)
    blocks = scan.blocks(budget, f"Z^{k} scan")
    return np.concatenate([digits[~delta.any(axis=1)] for _start, digits, delta, _w in blocks])


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
        return _f2_span(_f2_eliminate(_f2_incidence(scan))[0], len(scan.roles), scan.dtype)
    what = f"B^{k} scan"
    if G.is_abelian or k == 1:
        # The zero row, then d of the first preimage of each fiber.
        first = _fiber_table(scan, _fiber_faces(scan), budget, what)[0]
        zero = np.zeros((1, len(scan.roles)), dtype=scan.dtype)
        rows = np.concatenate([zero, *_images_of(scan, first)])
        return rows[np.lexsort(rows.T[::-1])]
    # The multiplicative B^2 has no syndromes: its raw rows wait in a list
    # and merge into the table once they outnumber it.
    parts, table, waiting = [], 0, 0
    for _start, _digits, delta, _weights in scan.blocks(budget, what):
        parts.append(delta)
        waiting += len(delta)
        if waiting > max(table, _BLOCK_STATES):
            parts = [_sorted_distinct(np.concatenate(parts))]
            table, waiting = len(parts[0]), 0
    return _sorted_distinct(np.concatenate(parts))


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
    return EnumeratedSpaces(c_count, cocycles, coboundaries)


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
    nums = _numerators(X.weight_numerators(k))
    # The pool is sorted, so the first nearest row is the lexicographic minimum.
    dist = (pool != f.row) @ nums
    i = int(np.argmin(dist))
    witness = Cochain.of_row(X, k, f.group, pool[i])
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
    ratio and the vector of f, or (None, None) when df = 0 for every f.  The
    scan runs in lexicographic order, so ties keep the smallest vector.

    Where the ratio depends on df alone and the |G|^|S| syndromes of
    ``_fiber_faces`` fit `_MAX_FIBERS` (|C^k| / |Z^k| where every syndrome
    is some df's), one table entry per fiber holds its first preimage and
    its lightest weight, indexed by the syndrome, df on S in base |G|.  The
    entries are then ranked by first preimage, so the table and the pool
    scan give one ratio and one witness.
    """
    scan = _Scan(X, k, G)
    den_k = X.weight_denominator(k)
    den_k1 = X.weight_denominator(k + 1)
    # For abelian G and for k = 0 the fibers of d are the cosets of Z^k.
    faces = _fiber_faces(scan) if G.is_abelian or k == 0 else None
    if faces is not None and G.order ** len(faces) <= _MAX_FIBERS:
        # dist(f, Z^k) = min{||g|| : dg = df}: for abelian G the fiber of df
        # is the coset f - Z^k, and for k = 0 it is {f c : c locally constant}.
        # So the ratio depends on df alone, and the first minimizer is the
        # first preimage of the image whose ratio is least, ties going to the
        # image seen first.
        first, lightest = _fiber_table(scan, faces, budget, what)
        if not len(first):
            return None, None
        norms = np.concatenate([(d != 0) @ scan.above_nums for d in _images_of(scan, first)])
        seen = np.argsort(first)
        first, lightest, norms = first[seen], lightest[seen], norms[seen]
        i = _first_min_ratio(norms, lightest)
        best = Fraction(int(norms[i]) * den_k, den_k1 * int(lightest[i]))
        return best, tuple(_digit_rows(first[i : i + 1], G.order, scan.m)[0].tolist())
    # Non-abelian k = 1, where the distance is not constant on a fiber, and
    # tables past _MAX_FIBERS: every state is measured against the pool
    # vectors, a few at a time, in memory O(|Z^k| + block).
    pool_rows = np.asarray(pool, dtype=scan.dtype).reshape(len(pool), scan.m)
    best_ratio: Optional[Tuple[int, int]] = None
    best_vec: Optional[Tuple[int, ...]] = None
    for _start, digits, delta, _weights in scan.blocks(budget, what):
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
        witness = Cochain.of_row(X, k, G, z_rows[outside[0]])
        return CoboundaryConstant(k, Fraction(0), witness)
    best, best_vec = _min_ratio_scan(X, G, k, b_rows, budget, f"C^{k} ratio scan")
    if best is None:
        return CoboundaryConstant(k, None, None, vacuous=True)
    witness = Cochain.of_row(X, k, G, best_vec)
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


def _checked_dims(X: SimplicialComplex, G: FiniteGroup) -> range:
    """The dimensions k with a coboundary over G below the top: every
    0 <= k < d for an abelian group, k <= 1 otherwise."""
    return range(0, X.dimension if G.is_abelian else min(X.dimension, 2))


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
        dims = _checked_dims(X, G)
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
            weights = (nontrivial != 0) @ _numerators(X.weight_numerators(k))
            entry["mu"] = Fraction(int(weights.min()), X.weight_denominator(k))

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
        for chunk in _combination_blocks(scan.m, size, max(1, _BLOCK_STATES // per_support)):
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


def _combination_blocks(m: int, size: int, rows: int) -> Iterator[np.ndarray]:
    """The rows of combinations(range(m), size), in the same order, as index
    arrays of at most `rows` rows each.

    Each block of (size-1)-prefixes, the combinations of range(m - 1), is
    repeated once per valid last element: prefix j, whose last element is
    first[j] - 1 (first[j] = 0 for the empty prefix), is followed by
    first[j], ..., m - 1, which are rows ends[j] - m + first[j] up to ends[j]
    of the block's expansion.  The expansion is built a slice of `rows` rows
    at a time, so no level ever holds more than `rows` rows.
    """
    if size == 0:
        yield np.zeros((1, 0), dtype=np.intp)
        return
    for prefix in _combination_blocks(m - 1, size - 1, rows):
        first = prefix[:, -1] + 1 if size > 1 else np.zeros(1, dtype=np.intp)
        ends = np.cumsum(m - first)
        for lo in range(0, int(ends[-1]), rows):
            hi = min(lo + rows, int(ends[-1]))
            a, b = np.searchsorted(ends, (lo, hi - 1), side="right")
            b += 1
            # The rows of each prefix of this slice that fall inside [lo, hi).
            runs = np.minimum(ends[a:b], hi) - np.maximum(ends[a:b] - m + first[a:b], lo)
            block = np.empty((hi - lo, size), dtype=np.intp)
            block[:, :-1] = np.repeat(prefix[a:b], runs, axis=0)
            block[:, -1] = np.arange(lo + m, hi + m) - np.repeat(ends[a:b], runs)
            yield block


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


def _link_shape(lk: SimplicialComplex) -> Tuple:
    """A link up to the order-preserving renaming of its vertices onto
    0..n-1: its dimension, its renamed tops (still sorted), their numerators
    by value and their denominator.  The renaming keeps every face's index
    and orientation, so links of one shape scan identically."""
    d, rank = lk.dimension, {v: i for i, v in enumerate(lk.vertices())}
    tops = tuple(tuple(rank[v] for v in top) for top in lk.faces(d))
    return d, tops, tuple(lk.weight_numerators(d).tolist()), lk.weight_denominator(d)


def link_constants(
    X: SimplicialComplex,
    G: FiniteGroup,
    budget: EnumerationBudget,
    sigmas: Iterable[Face],
) -> Iterator[Tuple[Union[Fraction, None, BudgetExceededError], ...]]:
    """For each sigma, in order, the coboundary-expansion constant of
    link(sigma) over G in each dimension it has one (k < dim, and k <= 1 for
    a non-abelian G): epsilon, None when vacuous, or the BudgetExceededError
    that refused the scan.  Each link shape (``_link_shape``) is scanned once
    per call and its constants are reused for every later sigma of that
    shape; nothing outlives the call."""
    done: Dict[Tuple, tuple] = {}
    for sigma in sigmas:
        lk = X.link(sigma)
        shape = _link_shape(lk)
        if shape not in done:
            found = []
            for k in _checked_dims(lk, G):
                try:
                    const = coboundary_expansion_constant(lk, G, k, budget)
                except BudgetExceededError as exc:
                    found.append(exc)
                    continue
                found.append(None if const.vacuous else const.epsilon)
            done[shape] = tuple(found)
        yield done[shape]


def link_coboundary_beta(
    X: SimplicialComplex,
    G: FiniteGroup,
    budget: Optional[EnumerationBudget] = None,
) -> Tuple[Optional[Fraction], Optional[Face]]:
    """Min coboundary-expansion constant over all proper links, with the first
    sigma that attains it, or (None, None) when every constant is vacuous.

    The links of faces(0), ..., faces(d-1), in order, are read from
    ``link_constants``, one scan per link shape.  A refused scan raises its
    BudgetExceededError at the first sigma that needs it, before any later
    link is scanned."""
    budget = budget or EnumerationBudget.default()
    sigmas = [sigma for i in range(X.dimension) for sigma in X.faces(i)]
    best: Optional[Fraction] = None
    witness: Optional[Face] = None
    for sigma, constants in zip(sigmas, link_constants(X, G, budget, sigmas)):
        for epsilon in constants:
            if isinstance(epsilon, BudgetExceededError):
                raise epsilon
            if epsilon is not None and (best is None or epsilon < best):
                best, witness = epsilon, sigma
    return best, witness
