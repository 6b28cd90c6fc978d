"""Brute-force ground truth: full cochain-space enumeration on small instances.

Everything here is an independent slow path.  One odometer (`_Scan`) walks
C^k in lexicographic order for every group, updating the coboundary of the
current assignment incrementally and keying it by one mixed-radix integer.
For two-element groups Z^k and B^k are spans over GF(2): the kernel and the
row space of the incidence rows, listed at a cost of |Z| or |B| rather than
2^|X(k)|.  Ratio scans keep one table entry per coboundary fiber wherever
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
from itertools import combinations, product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cochains import Cochain
from .complexes import Face, SimplicialComplex
from .errors import (
    BadDimensionError,
    BudgetExceededError,
    ParseError,
    UndefinedCoboundaryError,
)
from .groups import FiniteGroup
from .reporting import CheckReport

DEFAULT_MAX_STATES = 2**24
BUDGET_ENV_VAR = "HDX_BUDGET"
_MAX_FIBERS = 2**16  # fiber-table entries in a ratio scan, about 105 bytes each


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
        if not raw.strip().isdecimal():
            raise ParseError(
                f"{BUDGET_ENV_VAR} must be a non-negative number of states, got {raw!r}"
            )
        return cls(max_states=int(raw))

    def ensure(self, states: int, what: str) -> None:
        if states > self.max_states:
            raise BudgetExceededError(
                f"{what} needs {states} states, over the budget of {self.max_states}"
            )


def space_size(group: FiniteGroup, face_count: int) -> int:
    return group.order**face_count


# -- enumeration engine ----------------------------------------------------------


class _Scan:
    """Odometer over assignments to X(k) with incremental coboundary tracking.

    The coboundary of the current assignment is keyed by its mixed-radix
    code: the value on the j-th (k+1)-face is digit j, the first face most
    significant, so codes sort like the value vectors and 0 means df = 0.
    """

    def __init__(self, X: SimplicialComplex, k: int, G: FiniteGroup):
        self.X, self.k, self.G = X, k, G
        self.faces: List[Face] = list(X.faces(k))
        self.m = len(self.faces)
        self.nums = [X.weight_numerator(f) for f in self.faces]
        index = {f: i for i, f in enumerate(self.faces)}
        self.track = k < X.dimension and (G.is_abelian or k <= 1)
        self.above: List[Face] = list(X.faces(k + 1)) if self.track else []
        self.above_nums = [X.weight_numerator(f) for f in self.above]
        n = len(self.above)
        self.place = [G.order ** (n - 1 - j) for j in range(n)]
        self.roles: List[Tuple] = []
        self.touch: List[List[int]] = [[] for _ in range(self.m)]
        if self.track:
            for j, above in enumerate(self.above):
                role = tuple(index[above[:i] + above[i + 1 :]] for i in range(len(above)))
                self.roles.append(role)
                for idx in set(role):
                    self.touch[idx].append(j)

    def delta_value(self, values: List[int], j: int) -> int:
        """Coboundary value on the j-th (k+1)-face for the current assignment."""
        G, role = self.G, self.roles[j]
        if self.k == -1:
            return values[0]
        if G.is_abelian:
            acc = 0
            for i, idx in enumerate(role):
                v = values[idx]
                if v:
                    acc = G.op(acc, v if i % 2 == 0 else G.inv(v))
            return acc
        if self.k == 0:
            # role indexes the faces left after dropping a position, so for an
            # edge (u, v) role[1] is u and role[0] is v: f(u) f(v)^-1.
            return G.op(values[role[1]], G.inv(values[role[0]]))
        # k == 1, above = (u, v, w): g(uv) g(vw) g(uw)^-1.
        uv, uw, vw = role[2], role[1], role[0]
        return G.op(G.op(values[uv], values[vw]), G.inv(values[uw]))

    def delta_weight(self, code: int) -> int:
        """Weight numerator of the coboundary with the given code."""
        digits = _digits(code, self.G.order, len(self.above))
        return sum(n for v, n in zip(digits, self.above_nums) if v)

    def run(self, budget: EnumerationBudget, what: str):
        """Yield (values, code, weight) in lexicographic order of values.

        code keys the coboundary (see the class docstring) and weight is the
        weight numerator of the assignment.  values is reused in place.
        Nothing is tracked at the top dimension, so there every code is 0.
        """
        budget.ensure(space_size(self.G, self.m), what)
        g = self.G.order
        nums, place, touch, delta_value = self.nums, self.place, self.touch, self.delta_value
        values = [0] * self.m
        delta = [0] * len(self.above)
        code = weight = 0

        def move(p: int, b: int) -> None:
            nonlocal code
            values[p] = b
            for j in touch[p]:
                old = delta[j]
                new = delta_value(values, j)
                if new != old:
                    delta[j] = new
                    code += (new - old) * place[j]

        yield values, code, weight
        if g == 1 or self.m == 0:
            return
        while True:
            p = self.m - 1
            while p >= 0 and values[p] == g - 1:
                move(p, 0)
                weight -= nums[p]
                p -= 1
            if p < 0:
                return
            if not values[p]:
                weight += nums[p]
            move(p, values[p] + 1)
            yield values, code, weight


def _digits(code: int, base: int, length: int) -> Tuple[int, ...]:
    """The mixed-radix digits of code, most significant first."""
    out = [0] * length
    for i in range(length - 1, -1, -1):
        code, out[i] = divmod(code, base)
    return tuple(out)


def _f2_incidence(X: SimplicialComplex, k: int) -> List[int]:
    """Row i: the bitmask of the (k+1)-faces that contain the i-th k-face."""
    index = {f: i for i, f in enumerate(X.faces(k))}
    rows = [0] * len(index)
    for j, up in enumerate(X.faces(k + 1)):
        for i in range(len(up)):
            rows[index[up[:i] + up[i + 1 :]]] ^= 1 << j
    return rows


def _f2_eliminate(rows: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Gaussian elimination over GF(2) on bitmask rows.

    Returns a basis of the row space and a basis of the kernel, the masks of
    row indices whose rows XOR to 0.
    """
    pivots: Dict[int, Tuple[int, int]] = {}
    kernel: List[int] = []
    for i, row in enumerate(rows):
        combo = 1 << i
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


def _f2_span(basis: Sequence[int]) -> List[int]:
    """Every XOR of a subset of independent bitmasks, sorted."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    out.sort()
    return out


def _f2_scan_cocycles(X: SimplicialComplex, k: int, budget: EnumerationBudget) -> List[int]:
    """All cocycle bitmasks over X(k), k < d, for a two-element group: the kernel."""
    rows = _f2_incidence(X, k)
    budget.ensure(2 ** len(rows), f"cocycle scan in dimension {k}")
    return _f2_span(_f2_eliminate(rows)[1])


def _f2_image_masks(X: SimplicialComplex, k: int, budget: EnumerationBudget) -> List[int]:
    """All coboundary bitmasks over X(k): the row space one level down."""
    rows = _f2_incidence(X, k - 1)
    budget.ensure(2 ** len(rows), f"coboundary scan into dimension {k}")
    return _f2_span(_f2_eliminate(rows)[0])


@dataclass
class EnumeratedSpaces:
    """Z^k and B^k materialized; C^k kept as a count (it can be huge)."""

    complex: SimplicialComplex
    dimension: int
    group: FiniteGroup
    c_count: int
    cocycles: Optional[List[Cochain]]
    coboundaries: List[Cochain]

    def cocycle_values(self) -> List[Tuple[int, ...]]:
        return [_vector_of(f, self.complex, self.dimension) for f in self.cocycles or []]

    def coboundary_values(self) -> List[Tuple[int, ...]]:
        return [_vector_of(f, self.complex, self.dimension) for f in self.coboundaries]


def _vector_of(f: Cochain, X: SimplicialComplex, k: int) -> Tuple[int, ...]:
    return tuple(f.values.get(face, 0) for face in X.faces(k))


def _cochain_from_vector(
    X: SimplicialComplex, k: int, G: FiniteGroup, faces: Sequence[Face], vec: Sequence[int]
) -> Cochain:
    return Cochain(X, k, G, {f: v for f, v in zip(faces, vec) if v}, _trusted=True)


def _mask_to_cochain(X: SimplicialComplex, k: int, G: FiniteGroup, faces, mask: int) -> Cochain:
    return Cochain(
        X, k, G, {faces[i]: 1 for i in range(len(faces)) if mask >> i & 1}, _trusted=True
    )


def cocycle_list(
    X: SimplicialComplex, G: FiniteGroup, k: int, budget: EnumerationBudget
) -> Optional[List[Cochain]]:
    """All cocycles of dimension k (None when the space is undefined).

    At the top dimension every cochain is a cocycle, which the generic scan
    finds because it tracks no coboundary there.
    """
    faces = list(X.faces(k))
    if k < X.dimension:
        if not (G.is_abelian or k <= 1):
            return None
        if G.order == 2:
            masks = _f2_scan_cocycles(X, k, budget)
            return [_mask_to_cochain(X, k, G, faces, m) for m in masks]
    return [
        _cochain_from_vector(X, k, G, faces, values)
        for values, code, _weight in _Scan(X, k, G).run(budget, f"Z^{k} scan")
        if code == 0
    ]


def coboundary_list(
    X: SimplicialComplex, G: FiniteGroup, k: int, budget: EnumerationBudget
) -> List[Cochain]:
    """The image of the scan one level down (constants when k == 0)."""
    faces = list(X.faces(k))
    budget.ensure(space_size(G, len(X.faces(k - 1)) if k >= 1 else 1), f"B^{k} scan")
    if k == 0:
        images = sorted({(c,) * len(faces) for c in G.elements()})
        return [_cochain_from_vector(X, k, G, faces, v) for v in images]
    if G.order == 2:
        masks = _f2_image_masks(X, k, budget)
        return [_mask_to_cochain(X, k, G, faces, m) for m in masks]
    seen = {code for _values, code, _weight in _Scan(X, k - 1, G).run(budget, f"B^{k} scan")}
    return [
        _cochain_from_vector(X, k, G, faces, _digits(code, G.order, len(faces)))
        for code in sorted(seen)
    ]


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
    faces = list(X.faces(k))
    c_count = space_size(G, len(faces))
    budget.ensure(c_count, f"C^{k} scan")
    cocycles = cocycle_list(X, G, k, budget)
    coboundaries = coboundary_list(X, G, k, budget)
    if cocycles is not None:
        z_set = {_vector_of(f, X, k) for f in cocycles}
        for b in coboundaries:
            if _vector_of(b, X, k) not in z_set:
                raise AssertionError("a coboundary failed the cocycle condition")
    return EnumeratedSpaces(X, k, G, c_count, cocycles, coboundaries)


def exact_distance(
    f: Cochain,
    space: str = "B",
    budget: Optional[EnumerationBudget] = None,
    spaces: Optional[EnumeratedSpaces] = None,
) -> Tuple[Fraction, Cochain]:
    """Exact distance from f to Z^k or B^k, with a lexicographic-min witness."""
    budget = budget or EnumerationBudget.default()
    if space == "Z":
        pool = (
            spaces.cocycles
            if spaces is not None
            else cocycle_list(f.complex, f.group, f.dimension, budget)
        )
        if pool is None:
            raise UndefinedCoboundaryError("no cocycle space for this (group, dimension)")
    elif space == "B":
        pool = (
            spaces.coboundaries
            if spaces is not None
            else coboundary_list(f.complex, f.group, f.dimension, budget)
        )
    else:
        raise BadDimensionError(f"unknown space tag {space!r}")
    X, k = f.complex, f.dimension
    faces = list(X.faces(k))
    fvec = _vector_of(f, X, k)
    nums = [X.weight_numerator(face) for face in faces]
    best_num: Optional[int] = None
    best_vec: Optional[Tuple[int, ...]] = None
    for candidate in pool:
        cvec = _vector_of(candidate, X, k)
        dnum = sum(n for a, b, n in zip(fvec, cvec, nums) if a != b)
        if best_num is None or dnum < best_num or (dnum == best_num and cvec < best_vec):
            best_num, best_vec = dnum, cvec
    assert best_num is not None and best_vec is not None
    witness = _cochain_from_vector(X, k, f.group, faces, best_vec)
    return Fraction(best_num, X.weight_denominator(k)), witness


def _min_ratio_scan(
    X: SimplicialComplex,
    G: FiniteGroup,
    k: int,
    pool: Sequence[Tuple[int, ...]],
    budget: EnumerationBudget,
    what: str,
) -> Tuple[Optional[Fraction], Optional[Tuple[int, ...]]]:
    """First minimum of ||df|| / dist(f, Z^k) over the f in C^k with df != 0.

    pool is Z^k as value vectors.  Returns the ratio and the vector of f, or
    (None, None) when df = 0 for every f.  The scan runs in lexicographic
    order, so ties keep the smallest vector.
    """
    scan = _Scan(X, k, G)
    den_k = X.weight_denominator(k)
    den_k1 = X.weight_denominator(k + 1)
    best: Optional[Fraction] = None
    # For abelian G and for k = 0 the fibers of d are the |C^k| / |Z^k|
    # cosets of Z^k.
    if (G.is_abelian or k == 0) and space_size(G, scan.m) // len(pool) <= _MAX_FIBERS:
        # dist(f, Z^k) = min{||g|| : dg = df}: for abelian G the fiber of df
        # is the coset f - Z^k, and for k = 0 it is {f c : c locally constant}.
        # So the ratio depends on df alone, and the first minimizer is the
        # first preimage of the first image, in scan order, whose ratio is
        # least.  One table keeps the lightest weight per image; first[i] is
        # the scan index of the first preimage of the i-th image.
        lightest: Dict[int, int] = {}
        first: List[int] = []
        for index, (_values, code, weight) in enumerate(scan.run(budget, what)):
            if code:
                old = lightest.get(code)
                if old is None:
                    lightest[code] = weight
                    first.append(index)
                elif weight < old:
                    lightest[code] = weight
        best_index = 0
        for (code, weight), index in zip(lightest.items(), first):
            ratio = Fraction(scan.delta_weight(code) * den_k, den_k1 * weight)
            if best is None or ratio < best:
                best, best_index = ratio, index
        return (None, None) if best is None else (best, _digits(best_index, G.order, scan.m))
    # Non-abelian k = 1, where the distance is not constant on a fiber, and
    # tables past _MAX_FIBERS: every state is measured against every pool
    # vector, in memory O(|Z^k|).
    nums = scan.nums
    best_vec: Optional[Tuple[int, ...]] = None
    for values, code, _weight in scan.run(budget, what):
        if not code:
            continue
        vec = tuple(values)
        dist_num = min(sum(n for a, b, n in zip(vec, pvec, nums) if a != b) for pvec in pool)
        ratio = Fraction(scan.delta_weight(code) * den_k, den_k1 * dist_num)
        if best is None or ratio < best:
            best, best_vec = ratio, vec
    return best, best_vec


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
    faces = list(X.faces(k))
    c_count = space_size(G, len(faces))
    budget.ensure(c_count, f"C^{k} scan")
    b_pool = coboundary_list(X, G, k, budget)
    b_vecs = sorted(_vector_of(f, X, k) for f in b_pool)
    b_set = set(b_vecs)
    budget.ensure(c_count * max(len(b_vecs), 1), f"expansion ratio scan in dim {k}")
    # A cocycle outside B^k pins the constant at 0 without the ratio scan.
    # Otherwise Z^k = B^k, so the f outside B^k are exactly those with df != 0.
    for candidate in cocycle_list(X, G, k, budget):
        if _vector_of(candidate, X, k) not in b_set:
            return CoboundaryConstant(k, Fraction(0), candidate)
    best, best_vec = _min_ratio_scan(X, G, k, b_vecs, budget, f"C^{k} ratio scan")
    if best is None:
        return CoboundaryConstant(k, None, None, vacuous=True)
    witness = _cochain_from_vector(X, k, G, faces, best_vec)
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
        z_vecs = sorted(spaces.cocycle_values())
        b_set = set(spaces.coboundary_values())
        faces = list(X.faces(k))
        nums = [X.weight_numerator(f) for f in faces]
        den_k = X.weight_denominator(k)

        nontrivial = [v for v in z_vecs if v not in b_set]
        entry["z_size"] = len(z_vecs)
        entry["b_size"] = len(b_set)
        if nontrivial:
            best_vec = min(
                nontrivial,
                key=lambda v: (sum(n for a, n in zip(v, nums) if a), v),
            )
            entry["mu"] = Fraction(
                sum(n for a, n in zip(best_vec, nums) if a), den_k
            )
            entry["mu_witness"] = _cochain_from_vector(X, k, G, faces, best_vec)

        pair_cost = spaces.c_count * max(len(z_vecs), 1)
        if pair_cost > budget.max_states:
            entry["skipped"] = f"ratio scan needs {pair_cost} states"
            out.per_dim[k] = entry
            continue
        entry["epsilon"] = _min_ratio_scan(
            X, G, k, z_vecs, budget, f"cosystolic scan dim {k}"
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
    support is heavier than the best cocycle found.  A candidate is a cocycle
    when `_Scan.delta_value` vanishes on every (k+1)-face touching its support.
    Returns None when no nontrivial cocycle exists.
    """
    budget = budget or EnumerationBudget.default()
    faces = list(X.faces(k))
    nums = [X.weight_numerator(f) for f in faces]
    den = X.weight_denominator(k)
    scan = _Scan(X, k, G)
    # Refused where the coboundary is, before any scan; the one-element group
    # has no candidates.
    if G.order > 1 and not scan.track:
        if not G.is_abelian and k >= 2:
            raise UndefinedCoboundaryError("no multiplicative coboundary above dimension 1")
        raise BadDimensionError("no coboundary above the top dimension")
    b_set = {_vector_of(f, X, k) for f in coboundary_list(X, G, k, budget)}
    sorted_nums = sorted(nums)
    best_num: Optional[int] = None
    best_vec: Optional[Tuple[int, ...]] = None
    states = 0
    nonid = list(range(1, G.order))
    for size in range(1, len(faces) + 1):
        floor_num = sum(sorted_nums[:size])
        if best_num is not None and floor_num >= best_num:
            break
        for support in combinations(range(len(faces)), size):
            support_num = sum(nums[i] for i in support)
            if best_num is not None and support_num >= best_num:
                continue
            for assignment in product(nonid, repeat=size):
                states += 1
                if states > budget.max_states:
                    raise BudgetExceededError("support search exceeded the state budget")
                values = [0] * len(faces)
                for i, v in zip(support, assignment):
                    values[i] = v
                if any(scan.delta_value(values, j) for i in support for j in scan.touch[i]):
                    continue
                vec = tuple(values)
                if vec in b_set:
                    continue
                if best_num is None or support_num < best_num or (
                    support_num == best_num and vec < best_vec
                ):
                    best_num, best_vec = support_num, vec
    if best_num is None:
        return None
    return Fraction(best_num, den)


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


def verify_against_oracle(
    claim: Dict[str, object],
    X: SimplicialComplex,
    G: FiniteGroup,
    cochain: Optional[Cochain] = None,
    budget: Optional[EnumerationBudget] = None,
) -> CheckReport:
    """Re-evaluate a serialized claim exactly; used to replay failure bundles."""
    from .correction import is_minimal  # local import to avoid a cycle

    budget = budget or EnumerationBudget.default()
    kind = claim.get("kind")
    expected = claim.get("expected")
    if kind == "is_cocycle":
        actual = cochain.is_cocycle()
    elif kind == "is_minimal":
        actual = is_minimal(cochain, budget)
    elif kind == "distance_to":
        space = str(claim.get("space", "B"))
        actual = exact_distance(cochain, space, budget)[0]
        expected = Fraction(str(expected))
    elif kind == "weight":
        actual = cochain.weight()
        expected = Fraction(str(expected))
    elif kind == "coboundary_expansion_constant":
        const = coboundary_expansion_constant(X, G, int(claim["k"]), budget)
        actual = const.epsilon
        expected = None if expected is None else Fraction(str(expected))
    elif kind == "min_nontrivial_cocycle_weight":
        actual = min_nontrivial_cocycle_weight(X, G, int(claim["k"]), budget)
        expected = None if expected is None else Fraction(str(expected))
    else:
        raise BadDimensionError(f"unknown claim kind {kind!r}")
    return CheckReport(
        name=f"oracle-replay:{kind}",
        passed=actual == expected,
        lhs=actual,
        rhs=expected,
        params={k: v for k, v in claim.items() if k not in ("kind", "expected")},
    )
