"""Minimality testing and the iterative local-correction algorithm.

A cochain is minimal when no coboundary shift reduces its weight, and locally
minimal when every vertex localization is minimal in its link.  The correction
loop repeatedly fixes the vertex whose link admits the largest weight decrease
(ties to the smallest vertex id; within a link, see ``_scan_stars``), so
traces are reproducible.  Each run checks its own contracts:
the coboundary weight strictly decreases, the step count and total movement
respect their a-priori bounds, and when the input coboundary is small enough
the output classification is verified; any violation raises
FalsificationError rather than passing silently.

Both paths run one vertex search, ``_best_link_search``, over the link
searches that ``_scan_stars`` describes.  A step at v rewrites the
(j-1)-cochain on the faces through v and scores every j-face of the star of v
by its weight: the additive path scores h_v + delta(w) on the link, the
multiplicative path the triangles x(u) f(vu) f(uw) f(wv) x(w)^-1 for new edge
values f'(v, u) = x(u) f(v, u).  The reported decrease is thus the exact drop
of the coboundary weight.

Every exhaustive search here (the link searches of a step and the minimality
scans) is one block scan, ``_scan_first_min``.  A face's value depends only on
the coordinates its terms read (two in both link searches), so the scan
tables the summed weight of the faces that read the same coordinates on
every assignment to them, evaluating the faces with ``face_products`` on a
grid of those assignments.  It walks G^n in lexicographic mixed-radix order,
the order of ``itertools.product``, in blocks of at most about
``_BLOCK_CELLS`` cells.  A block fixes a prefix of the coordinates and leaves
the rest free, and its weights are the sum of the tables, each broadcast
along its own axes.  Tables that fit that bound together are built once over
all of G; a larger one is built over a block's part of G and again only when
a block leaves that part, so the scan's memory stays within a few blocks
whatever the group.
A link search reads the star of v, and its facet table, from X's own tables
(``star_facets``, built once per complex) and builds no link; stars with the
same facet table, such as every star of K_n^(d), are scanned together, one
table per face for all of them.  The first minimum wins: argmin within a
block, a strict comparison across blocks, so ties resolve exactly as in a
plain loop over ``product``.
A link search first keeps the tied minimizers that rewrite the least
weight, so a step moves as little as it can.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, groupby, product
from math import comb, factorial, isqrt, prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cochains import (
    DELTA0_TERMS,
    DELTA1_TERMS,
    Cochain,
    Terms,
    additive_terms,
    coboundary_abelian,
    coboundary_nonabelian_1,
    distance,
    face_products,
    oriented,
    term_columns,
)
from .complexes import SimplicialComplex
from .errors import (
    AlreadyLocallyMinimalError,
    BadDimensionError,
    DisconnectedGraphError,
    FalsificationError,
    NonAbelianGroupError,
    ParameterViolationError,
    PremiseFailedError,
    UndefinedCoboundaryError,
    WrongDimensionError,
)
from .expansion import NonLocalVerdict, classify_non_local, classify_weakly_non_local, localized_weights
from .groups import FiniteGroup
from .oracle import (
    EnumerationBudget,
    cosystolic_expansion_constants,
    link_coboundary_beta,
    space_size,
)
from .reporting import CheckReport
from .spectral import local_spectral_lambda


# -- the block scan ----------------------------------------------------------------

#: Cells per block of the assignment scan, stacked rows included.  Every array
#: the scan builds, its face tables and face products included, has at most
#: about this many cells (times the number of terms of a face).
_BLOCK_CELLS = 1 << 16


def _scan_first_min(
    G: FiniteGroup,
    n: int,
    const: Sequence,
    left: Sequence[np.ndarray],
    right: Sequence[np.ndarray],
    weights: Sequence,
    stop_below: Optional[int] = None,
    moved: Optional[Sequence] = None,
):
    """First x in G^n (n >= 1), in ``product`` order, minimizing the weighted count
    of faces whose value  x[left...] * const * x[right...]  is not the identity.

    The columns are those of ``face_products``.  ``moved`` holds one weight
    per coordinate of x, and the minimizers are first ranked by the moved
    weight of their non-identity coordinates; without it every moved weight
    is zero.  Both ranks fold into one key per assignment, weight * M + moved
    weight with M past every moved sum (M = 1 when they are all zero), so the
    scan looks for the first minimal key (``_first_min_keys``).  With
    ``stop_below`` the scan may end at the first block whose minimum falls
    below it, returning that block's first minimum.

    const, weights and moved may also carry one row per scan, the columns
    shared: rows whose face tables fit one block together are scanned
    together, each table built and added once for the whole stack, and the
    result is a list with one entry per row.  Returns (weight, assignment).
    """
    stacked = np.ndim(const) == 2
    const = np.asarray(const)
    const = const if stacked else const[None, :]
    rows, m = const.shape
    w = np.asarray(weights, dtype=object).reshape(rows, m)
    mw = np.zeros((rows, n), dtype=object) if moved is None else np.asarray(moved, dtype=object).reshape(rows, n)
    scale = mw.sum(axis=1) + 1
    # The largest key is (sum of weights + 1) * M - 1; past int64, keys are Python ints.
    dtype = np.int64 if ((w.sum(axis=1) + 1) * scale).max() <= 2**63 else object
    keyed = (w * scale[:, None]).astype(dtype)
    faces = _Faces(n, m, left, right)
    # Rows stack while their tables fit one block together.
    cut = max(1, _BLOCK_CELLS // sum(G.order ** len(key) for key in faces.keys))
    found = []
    for lo in range(0, rows, cut):
        part = slice(lo, lo + cut)
        keys = _first_min_keys(G, n, faces, const[part], keyed[part], mw[part].astype(dtype), stop_below, scale[part])
        found += [(key // M, x) for (key, x), M in zip(keys, scale[part].tolist())]
    return found if stacked else found[0]


class _Faces:
    """The faces of a scan grouped by the set of coordinates they read, its
    key.  ``keys`` run by size, and key i holds the faces at[bounds[i] :
    bounds[i + 1]]; ``runs`` are the (first, stop) spans of keys of one size.
    A term of a face reads the slot of its coordinate's rank in the key
    (``slots``), inverted or not (``inverted``), both in ``at`` order, and
    ``split`` terms multiply on the left."""

    __slots__ = ("keys", "at", "bounds", "owner", "runs", "slots", "inverted", "split")

    def __init__(self, n: int, m: int, left: Sequence[np.ndarray], right: Sequence[np.ndarray]):
        cols = [*left, *right]
        terms = np.stack(cols, axis=1) if cols else np.zeros((m, 0), dtype=np.intp)
        coords = terms % n
        ranked = np.sort(coords, axis=1)
        fresh = np.ones(ranked.shape, dtype=bool)
        fresh[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        slots = (fresh[:, None, :] & (ranked[:, None, :] < coords[:, :, None])).sum(axis=2)
        grouped: Dict[Tuple[int, ...], List[int]] = {}
        for f, row in enumerate(ranked.tolist()):
            grouped.setdefault(tuple(dict.fromkeys(row)), []).append(f)
        self.keys = sorted(grouped, key=len)
        sizes = [len(grouped[key]) for key in self.keys]
        self.at = np.array([f for key in self.keys for f in grouped[key]], dtype=np.intp)
        self.bounds = [0, *accumulate(sizes)]
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        lengths = [len(key) for key in self.keys]
        self.runs = [(lengths.index(k), lengths.index(k) + lengths.count(k)) for k in sorted(set(lengths))]
        self.slots, self.inverted, self.split = slots[self.at], (terms >= n)[self.at], len(left)


def _cost_tables(
    G: FiniteGroup,
    faces: _Faces,
    const: np.ndarray,
    keyed: np.ndarray,
    first: int,
    stop: int,
    ranges: Sequence[Tuple[int, int]],
) -> np.ndarray:
    """The summed key weight of the faces of keys first..stop-1, of one size,
    on every assignment to each key's coordinates, coordinate c taking the
    values ranges[c] = (start, count): a (keys, rows, count, ..., count)
    array, one axis per slot.  The keys' coordinates must have the same
    counts, slot by slot.  Those ranges are the table's box: all of G, or
    the part of G of the block it is built for (``_first_min_keys``).

    The keys share one grid of positions in their ranges, and a term reads
    its slot's grid column shifted to its coordinate's range; one
    ``face_products`` call evaluates a chunk of faces, of at most about
    ``_BLOCK_CELLS`` values, on the grid.
    """
    rows, t = len(const), faces.slots.shape[1]
    keys = faces.keys[first:stop]
    counts = tuple(ranges[c][1] for c in keys[0])
    k, box = len(counts), prod(counts)
    grid = np.indices(counts).reshape(k, box).T
    starts = np.array([start for start, _ in ranges], dtype=np.intp)
    x = (grid[:, None, :] + starts[np.array(keys, dtype=np.intp).reshape(len(keys), k)]).reshape(box, -1)
    sums = np.zeros((len(keys), rows, box), dtype=keyed.dtype)
    bounds = faces.bounds[first : stop + 1]
    chunk = max(1, _BLOCK_CELLS // (box * rows))
    for lo in range(bounds[0], bounds[-1], chunk):
        hi = min(lo + chunk, bounds[-1])
        f, own = faces.at[lo:hi], faces.owner[lo:hi] - first
        cols = own[:, None] * k + faces.slots[lo:hi] + faces.inverted[lo:hi] * x.shape[1]
        cols = [np.tile(cols[:, i], rows) for i in range(t)]
        values = face_products(G, x, const[:, f].reshape(-1), cols[: faces.split], cols[faces.split :])
        cost = (values != 0).T.reshape(rows, hi - lo, box) * keyed[:, f, None]
        # Each key's faces are contiguous: sum the runs that start in this chunk.
        heads = [0] + [b - lo for b in bounds[1:-1] if lo < b < hi]
        sums[own[heads]] += np.add.reduceat(cost, heads, axis=1).transpose(1, 0, 2)
    return sums.reshape((len(keys), rows) + counts)


def _first_min_keys(
    G: FiniteGroup,
    n: int,
    faces: _Faces,
    const: np.ndarray,
    keyed: np.ndarray,
    moved: np.ndarray,
    stop_below: Optional[int],
    scale: np.ndarray,
) -> List[Tuple[int, Tuple[int, ...]]]:
    """Per row, the first minimal key over G^n in ``product`` order, and its
    assignment, by blocks of at most about ``_BLOCK_CELLS`` cells.

    A block fixes a prefix of the coordinates, takes a run of values of the
    next one, the split coordinate, and every value of the rest, the free
    ones.  Its keys are the sum of the face tables (``_cost_tables``), each
    sliced to the block's ranges and broadcast along its free and split axes.
    The store holds one table per key, over a box of its coordinates' values:
    the smallest tables, up to ``_BLOCK_CELLS`` cells in all, cover all of G,
    and the rest the box of the block they were built for, so none is larger
    than a block.  A box table is built again only when a block leaves its
    box, in one call with those of the next keys that do too and whose
    coordinates take the same counts.
    Tables that read only free coordinates are the same in every block: they
    are summed into a base once, one at a time, before the walk.  The
    moved weight of an assignment adds up over its coordinates: the free
    ones' joins the base, and the prefix's and the split coordinate's rides
    on a table into the block's first sum.  argmin keeps a row's first
    minimum in a block and a strict comparison the first across blocks.
    """
    order, rows = G.order, len(const)
    free = 0
    while free < n - 1 and rows * max(order, 2) ** (free + 1) <= _BLOCK_CELLS:
        free += 1
    split, span = n - 1 - free, order**free
    run = min(order, max(1, _BLOCK_CELLS // (rows * span)))

    def spread(key, box, table, ranges):
        # The table's part in the ranges, relative to its box, shaped to broadcast on the block.
        index, shape = [slice(None)], [rows, 1] + [1] * free
        for c in key:
            (start, count), low = ranges[c], box[c][0]
            index.append(slice(start - low, start - low + count))
            if c >= split:
                shape[1 + c - split] = count
        return table[tuple(index)].reshape(shape)

    # Key i -> (box, table): the table over the ranges of box on the key's coordinates.
    store = {}

    def build(lo, hi, ranges):
        # The tables of keys lo..hi-1 over the ranges, from one call.
        tables = _cost_tables(G, faces, const, keyed, lo, hi, ranges)
        store.update(zip(range(lo, hi), ((ranges, table) for table in tables)))

    # Keys run by size, so the tables over all of G are those of the first keys.
    everything = [(0, order)] * n
    wholes = bisect_right(list(accumulate(rows * order ** len(key) for key in faces.keys)), _BLOCK_CELLS)
    for lo, hi in faces.runs:
        if lo < wholes:
            build(lo, min(hi, wholes), everything)
    nonzero = np.arange(order) != 0
    base = np.zeros((rows, 1) + (order,) * free, dtype=keyed.dtype)
    walked = []
    for i, key in enumerate(faces.keys):
        if key and key[0] <= split:
            walked.append(i)
            continue
        if i >= wholes:
            build(i, i + 1, everything)
        base += spread(key, *store.pop(i), everything)
    for c in range(split + 1, n):
        base += spread((c,), everything, moved[:, c, None] * nonzero, everything)
    boxed = [i for i in walked if i >= wholes]
    every = np.arange(rows)
    best = cells = None
    prefixes = enumerate(product(range(order), repeat=split))
    for number, prefix, start in ((*p, start) for p in prefixes for start in range(0, order, run)):
        width = min(run, order - start)
        ranges = [(a, 1) for a in prefix] + [(start, width)] + [(0, order)] * free
        # The tables whose box the block leaves, one call per run of
        # consecutive keys whose coordinates take the same counts.
        leaving = [i for i in boxed if i not in store or any(store[i][0][c] != ranges[c] for c in faces.keys[i])]
        for _, group in groupby(enumerate(leaving), lambda p: (p[1] - p[0], [ranges[c][1] for c in faces.keys[p[1]]])):
            group = [i for _, i in group]
            build(group[0], group[-1] + 1, ranges)
        parts = [spread(faces.keys[i], *store[i], ranges) for i in walked]
        lead = (moved[:, :split] * nonzero[list(prefix)]).sum(axis=1)[:, None]
        lead = lead + moved[:, split, None] * nonzero[start : start + width]
        # The lead rides on one part into the sum that makes the block.
        lead = lead.reshape((rows, width) + (1,) * free)
        block = base + (lead + parts.pop() if parts else lead)
        for part in parts:
            block += part
        block = block.reshape(rows, -1)
        at = block.argmin(axis=1)
        low, cell = block[every, at], (number * order + start) * span + at
        if best is None:
            best, cells = low, cell
        else:
            better = low < best
            best, cells = np.where(better, low, best), np.where(better, cell, cells)
        if stop_below is not None and all(k // M < stop_below for k, M in zip(best.tolist(), scale.tolist())):
            break
    digits = cells[:, None] // order ** np.arange(n - 1, -1, -1) % order
    return [(key, tuple(x)) for key, x in zip(best.tolist(), digits.tolist())]


def _inverse(terms: Terms) -> Terms:
    """Terms of the inverse product: reversed order, each factor inverted."""
    return tuple((i, not inverted) for i, inverted in reversed(terms))


# -- minimality -------------------------------------------------------------------


def is_minimal(f: Cochain, budget: Optional[EnumerationBudget] = None) -> bool:
    """Exact minimality by scanning the relevant coboundary space with early exit.

    Abelian cochains compare against all shifts delta(g), g one level down
    (constants when k = 0); non-abelian 1-cochains compare against the vertex
    action, non-abelian 2-cochains against shifts by images of 1-cochains.
    """
    budget = budget or EnumerationBudget.default()
    X, G, k = f.complex, f.group, f.dimension
    if f.is_zero():
        return True
    left: Terms = ()
    if G.is_abelian or k == 0:
        # f - delta(g), with g on X(k-1); X(-1) = {()} carries the constants.
        right = _inverse(additive_terms(k - 1))
    elif k == 1:
        # The vertex action h(u) f(uv) h(v)^-1.
        left, right = DELTA0_TERMS[:1], DELTA0_TERMS[1:]
    elif k == 2:
        # f(uvw) (g(uv) g(vw) g(uw)^-1)^-1 = f(uvw) g(uw) g(vw)^-1 g(uv)^-1
        right = _inverse(DELTA1_TERMS)
    else:
        raise UndefinedCoboundaryError("no coboundary space for this (group, dimension)")
    lower = X.faces(k - 1)
    budget.ensure(space_size(G, len(lower)), "minimality scan")
    weights = X.weight_numerators(k).tolist()
    target_num = sum(weights[j] for j in np.flatnonzero(f.row).tolist())
    best, _ = _scan_first_min(
        G,
        len(lower),
        f.row,
        term_columns(X.facets(k), len(lower), left),
        term_columns(X.facets(k), len(lower), right),
        weights,
        stop_below=target_num,
    )
    return best >= target_num


def is_locally_minimal(
    f: Cochain, budget: Optional[EnumerationBudget] = None
) -> Tuple[bool, Optional[int]]:
    """True when every vertex localization is minimal in its link; else a witness."""
    budget = budget or EnumerationBudget.default()
    for v in sorted(f.complex.vertices()):
        local = f.localize((v,))
        if local.is_zero():
            continue
        if not is_minimal(local, budget):
            return False, v
    return True, None


# -- one correction step ----------------------------------------------------------


@dataclass
class _LinkSearch:
    vertex: int
    decrease_num: int
    assignment: Tuple[int, ...]


class _Star:
    """The star of a vertex v that a link search at v scans: the mass of the
    target's support there, the numerators of its j-faces v + tau and of the
    (j-1)-faces v + sigma an assignment rewrites, and its facet table."""

    __slots__ = ("vertex", "old", "weights", "moved", "table")

    def __init__(self, vertex: int, old: int, weights: np.ndarray, moved: np.ndarray, table: np.ndarray):
        self.vertex, self.old, self.weights, self.moved, self.table = vertex, old, weights, moved, table


def _stars(target: Cochain, budget: EnumerationBudget) -> List[_Star]:
    """The stars, by vertex id, that meet the support of the j-cochain target,
    each checked against the budget before any is scanned."""
    X, G, j = target.complex, target.group, target.dimension
    stars = []
    for v in sorted(X.vertices()):
        at = X.link_index((v,), j - 1)[0]
        weights = X.weight_numerators(j)[at]
        old = sum(num for num, hit in zip(weights.tolist(), target.row[at].tolist()) if hit)
        if not old:
            continue
        lower = X.link_index((v,), j - 2)[0]
        budget.ensure(space_size(G, len(lower)), f"link correction scan at {v}")
        stars.append(_Star(v, old, weights, X.weight_numerators(j - 1)[lower], X.star_facets(v, j)[0]))
    return stars


def _scan_stars(
    target: Cochain, stars: Sequence[_Star], local: Callable[[int], np.ndarray], left: Terms, right: Terms
) -> List[_LinkSearch]:
    """The link search at each of stars sharing one facet table, from one
    stacked scan; its decrease may be zero or less.

    The star of v holds one j-face v + tau per (j-1)-face tau of link(v),
    weighted by its numerator.  An assignment x of the (j-2)-faces of the link
    gives every tau the value  x[left...] * local(v)[tau] * x[right...], local(v)
    being a value row over the (j-1)-faces of the link.  The x minimizing the
    mass of the non-identity values wins; among those, the x whose non-identity
    entries carry the least mass of the faces v + sigma they rewrite, then the
    first in product order.  The decrease is the old star mass, that of
    target's support in the star, less the new one: the exact drop of the
    weight numerator of target.
    """
    table, n = stars[0].table, len(stars[0].moved)
    found = _scan_first_min(
        target.group,
        n,
        np.stack([local(star.vertex) for star in stars]),
        term_columns(table, n, left),
        term_columns(table, n, right),
        np.stack([star.weights for star in stars]),
        moved=np.stack([star.moved for star in stars]),
    )
    return [_LinkSearch(star.vertex, star.old - new, x) for star, (new, x) in zip(stars, found)]


def _local(f: Cochain, v: int) -> np.ndarray:
    """The value row of f.localize((v,)), read with no link built."""
    at, odd = f.complex.link_index((v,), f.dimension - 1)
    return oriented(f.group, f.row[at], odd)


def _best_link_search(
    target: Cochain,
    local: Callable[[int], np.ndarray],
    left: Terms,
    right: Terms,
    budget: EnumerationBudget,
) -> _LinkSearch:
    """The link search (``_scan_stars``) with the largest decrease, ties to
    the smallest vertex id; only a positive decrease counts.

    Stars with the same facet table, such as every star of K_n^(d), share one
    stacked scan.  A star whose old mass cannot beat the best decrease found
    so far, ties included, is not scanned; every star is checked against the
    budget first, so refusals do not depend on that skip."""
    shapes: Dict[Tuple, List[_Star]] = {}
    for star in _stars(target, budget):
        shapes.setdefault((len(star.moved), star.table.shape, star.table.tobytes()), []).append(star)
    best: Optional[_LinkSearch] = None

    def beats(decrease: int, v: int) -> bool:
        return decrease > 0 and (best is None or (decrease, -v) > (best.decrease_num, -best.vertex))

    for group in shapes.values():
        live = [star for star in group if beats(star.old, star.vertex)]
        for found in _scan_stars(target, live, local, left, right) if live else ():
            if beats(found.decrease_num, found.vertex):
                best = found
    if best is None:
        raise AlreadyLocallyMinimalError("no vertex link admits a decreasing correction")
    return best


def _lift_assignment(f: Cochain, v: int, assignment: Sequence[int]) -> Cochain:
    """f with its values on the faces v + tau through v replaced by an
    assignment to the faces tau of link(v), oriented as (v,) + tau."""
    X, G, k = f.complex, f.group, f.dimension
    at, odd = X.link_index((v,), k - 1)
    row = f.row.copy()
    row[at] = oriented(G, np.asarray(assignment, dtype=row.dtype), odd)
    return Cochain.of_row(X, k, G, row)


def one_step_abelian(
    h: Cochain, budget: Optional[EnumerationBudget] = None
) -> Tuple[int, Cochain, Cochain]:
    """One correction step for a non-locally-minimal abelian cochain.

    Returns (v, g, h - delta(g)) with g supported on faces containing v,
    ||g|| <= dim(h)*||v|| and ||h - delta(g)|| < ||h||.  The link search at v
    minimizes the star mass of h_v + delta(w) over the (j-2)-faces w of link(v).
    """
    budget = budget or EnumerationBudget.default()
    if not h.group.is_abelian:
        raise NonAbelianGroupError("the additive step needs an abelian group")
    if h.dimension < 1:
        raise BadDimensionError("nothing below dimension 0 to correct with")
    right = additive_terms(h.dimension - 2)
    best = _best_link_search(h, lambda v: _local(h, v), (), right, budget)
    g = _lift_assignment(Cochain(h.complex, h.dimension - 1, h.group), best.vertex, best.assignment)
    new_h = h - coboundary_abelian(g)
    j = h.dimension
    v_weight = h.complex.face_weight((best.vertex,))
    if g.weight() > j * v_weight:
        raise FalsificationError("correction support bound ||g|| <= j ||v|| failed")
    if not new_h.weight() < h.weight():
        raise FalsificationError("correction step failed to decrease the weight")
    return best.vertex, g, new_h


def _triangles_at(f: Cochain, v: int) -> np.ndarray:
    """f(vu) f(uw) f(wv) on each edge uw of link(v), as a value row over the
    link's edges: the vertex action of u -> f(v, u) on f's values there, one
    face-product call on the star's facet table."""
    table, rim = f.complex.star_facets(v, 2)
    spokes = _local(f, v)
    left, right = (term_columns(table, len(spokes), terms) for terms in (DELTA0_TERMS[:1], DELTA0_TERMS[1:]))
    return face_products(f.group, spokes[None, :], f.row[rim], left, right)[0]


def one_step_nonabelian(
    f: Cochain, budget: Optional[EnumerationBudget] = None, df: Optional[Cochain] = None
) -> Tuple[int, Cochain, Cochain]:
    """One multiplicative correction step on a 1-cochain of a 3-complex.

    Returns (v, f', delta(f')) with f' differing from f only on edges at v,
    dist(f, f') <= 2 ||v|| and ||delta(f')|| < ||delta(f)||; df, when given,
    is delta(f).  The link search at v scans offsets x(u), the new values
    being y(u) = f'(v, u) = x(u) f(v, u): the triangle vuw then carries
    x(u) f(vu) f(uw) f(wv) x(w)^-1, which is d0 with f's own triangle in
    between.  An offset x(u) other than the identity rewrites the edge vu, so
    ties go to the offsets that rewrite the least edge mass.
    """
    budget = budget or EnumerationBudget.default()
    X, G = f.complex, f.group
    if X.dimension != 3:
        raise WrongDimensionError("the multiplicative correction path needs a 3-complex")
    if f.dimension != 1:
        raise BadDimensionError("the multiplicative correction path corrects 1-cochains")
    if df is None:
        df = coboundary_nonabelian_1(f)
    best = _best_link_search(
        df, lambda v: _triangles_at(f, v), DELTA0_TERMS[:1], DELTA0_TERMS[1:], budget
    )
    shift = _local(f, best.vertex)
    y = G.op_array(np.asarray(best.assignment, dtype=shift.dtype), shift)
    f_new = _lift_assignment(f, best.vertex, y)
    if distance(f, f_new) > 2 * X.face_weight((best.vertex,)):
        raise FalsificationError("edge-update bound dist(f, f') <= 2 ||v|| failed")
    df_new = coboundary_nonabelian_1(f_new)
    if not df_new.weight() < df.weight():
        raise FalsificationError("multiplicative step failed to decrease ||delta||")
    return best.vertex, f_new, df_new


# -- the full correction loop ------------------------------------------------------


@dataclass
class StepRecord:
    step: int
    vertex: int
    delta_weight_before: Fraction
    delta_weight_after: Fraction
    moved: Fraction


@dataclass
class CorrectionTrace:
    path: str
    steps: List[StepRecord] = field(default_factory=list)
    initial_delta_weight: Fraction = Fraction(0)
    final_delta_weight: Fraction = Fraction(0)
    total_moved: Fraction = Fraction(0)
    r_bound: Fraction = Fraction(0)
    dist_bound: Fraction = Fraction(0)
    locally_minimal: bool = False
    verdict: Optional[Dict[str, object]] = None
    diagnostics: List[CheckReport] = field(default_factory=list)

    @property
    def step_count(self) -> int:
        return len(self.steps)


def _correct(
    f: Cochain, path: str, budget: EnumerationBudget
) -> Tuple[Cochain, CorrectionTrace, Cochain]:
    """Step until no vertex link improves f; returns (f', trace, delta(f')).

    The additive step corrects the coboundary and returns g, so f' = f - g;
    the multiplicative step returns f' itself.  Each step also returns the new
    coboundary, delta(f') = delta(f) - delta(g) on the additive path, so a run
    computes 1 + steps coboundaries.  The steps are looked up as module
    globals at each call, so wrappers installed on them see every step.
    """
    delta = coboundary_abelian if path == "abelian" else coboundary_nonabelian_1
    trace = CorrectionTrace(path=path)
    current, h = f, delta(f)
    trace.initial_delta_weight = h.weight()
    while True:
        try:
            if path == "abelian":
                v, g, new_h = one_step_abelian(h, budget)
                updated = current - g
            else:
                v, updated, new_h = one_step_nonabelian(current, budget, h)
        except AlreadyLocallyMinimalError:
            break
        before, moved = h.weight(), distance(current, updated)
        current, h = updated, new_h
        after = h.weight()
        trace.steps.append(StepRecord(len(trace.steps) + 1, v, before, after, moved))
        if not after < before:
            raise FalsificationError("correction loop failed strict monotonicity")
    trace.final_delta_weight = h.weight()
    trace.locally_minimal = True
    trace.total_moved = distance(f, current)
    return current, trace, h


def _check_bounds(trace: CorrectionTrace, steps: int, moves: int) -> None:
    """Set the a-priori bounds of a finished loop, r_bound = steps ||delta f||
    and dist_bound = moves ||delta f||; raise FalsificationError, with the
    trace as its report, when the loop breaks one of them."""
    trace.r_bound = steps * trace.initial_delta_weight
    trace.dist_bound = moves * trace.initial_delta_weight
    if trace.step_count > trace.r_bound:
        raise FalsificationError(f"step count {trace.step_count} exceeds the bound {trace.r_bound}", trace)
    if trace.total_moved > trace.dist_bound:
        raise FalsificationError(f"moved {trace.total_moved}, over the bound {trace.dist_bound}", trace)
    if trace.final_delta_weight > trace.initial_delta_weight:
        raise FalsificationError("||delta|| grew over the correction loop", trace)


def _check_verdict(trace: CorrectionTrace, kind: str, verdict: NonLocalVerdict) -> None:
    """Record the output's classification on the trace; raise
    FalsificationError, with the trace as its report, when it failed."""
    trace.verdict = {"kind": kind, "passed": verdict.passed, "measured": verdict.measured, "params": verdict.params}
    if not verdict.passed:
        raise FalsificationError(f"corrected coboundary failed its {kind} classification", trace)


def _classifies(**params: Optional[Fraction]) -> bool:
    """Whether a run classifies its output: all of params given, each in (0, 1)
    and beta in (0, 1], or none; else ParameterViolationError."""
    given = [name for name, val in params.items() if val is not None]
    if given and len(given) < len(params):
        raise ParameterViolationError(f"a classification needs {', '.join(params)}; got only {', '.join(given)}")
    for name, val in params.items():
        if val is not None and not (0 < val < 1 or name == "beta" and val == 1):
            raise ParameterViolationError(f"{name} must lie in (0,1{']' if name == 'beta' else ')'}, got {val}")
    return bool(given)


def correct_abelian(
    f: Cochain,
    budget: Optional[EnumerationBudget] = None,
    eta: Optional[Fraction] = None,
    eps: Optional[Fraction] = None,
) -> Tuple[Cochain, CorrectionTrace]:
    """Correct f until its coboundary is locally minimal; verify the trace bounds.

    With eta and eps given and ||delta(f)|| below eta^(2^(k+2)-1), the output
    coboundary's support must classify as non-local; a failure of that or of
    any trace bound raises FalsificationError.  Bad parameters are refused first.
    """
    budget = budget or EnumerationBudget.default()
    X, G, k = f.complex, f.group, f.dimension
    if not G.is_abelian:
        raise NonAbelianGroupError("use correct_nonabelian for non-abelian groups")
    if not 1 <= k <= X.dimension - 2:
        raise BadDimensionError(f"correction needs 1 <= k <= d-2, got k={k}, d={X.dimension}")
    classify = _classifies(eta=eta, eps=eps)
    current, trace, h = _correct(f, "abelian", budget)
    d = X.dimension
    _check_bounds(trace, X.face_count(d) * comb(d + 1, k + 2), X.degree_bound() * comb(d, k + 1))
    if classify and trace.initial_delta_weight <= Fraction(eta) ** (2 ** (k + 2) - 1):
        _check_verdict(trace, "non-local", classify_non_local(h.support(), Fraction(eta), Fraction(eps)))
    return current, trace


def correct_nonabelian(
    f: Cochain,
    budget: Optional[EnumerationBudget] = None,
    eta: Optional[Fraction] = None,
    eps: Optional[Fraction] = None,
    beta: Optional[Fraction] = None,
) -> Tuple[Cochain, CorrectionTrace]:
    """Correct a 1-cochain on a 3-complex until no vertex relabel improves it.

    With eta, eps, beta given and ||delta(f)|| <= beta*eta/2, the output
    coboundary must classify as weakly-non-local with saturation 1/|G|.  Bad
    parameters are refused first.
    """
    budget = budget or EnumerationBudget.default()
    X, G = f.complex, f.group
    if X.dimension != 3:
        raise WrongDimensionError("the multiplicative correction path needs a 3-complex")
    classify = _classifies(eta=eta, eps=eps, beta=beta)
    current, trace, final_delta = _correct(f, "nonabelian", budget)
    trace.diagnostics.append(saturation_diagnostic(final_delta))
    _check_bounds(trace, 4 * X.face_count(3), 2 * X.degree_bound())
    if classify and trace.initial_delta_weight <= Fraction(beta) * Fraction(eta) / 2:
        support, alpha = final_delta.support(), Fraction(1, G.order)
        if len(support):
            verdict = classify_weakly_non_local(support, Fraction(eta), Fraction(eps), alpha)
        else:
            params = {"eta": Fraction(eta), "eps": Fraction(eps), "alpha": alpha}
            verdict = NonLocalVerdict(True, {"weight": Fraction(0)}, params)
        _check_verdict(trace, "weakly-non-local", verdict)
    return current, trace


def saturation_diagnostic(f: Cochain) -> CheckReport:
    """No edge localization of a locally minimal 2-coboundary is saturated.

    A value shared by at least a 1/|G| fraction of an edge link could be
    cancelled wholesale, so ||f_e|| <= 1 - 1/|G| whenever no local correction
    applies.  Reported per edge with the worst offender as witness.  The
    localized weight at e is the mass of f's support on the triangles
    through e over num(e) C(d - 1, 1), read off ``localized_weights``.
    """
    X, G = f.complex, f.group
    bound = 1 - Fraction(1, G.order)
    weights = localized_weights(X, f.row != 0, 2, 1)
    worst = max(range(len(weights)), key=weights.__getitem__)
    return CheckReport(
        name="edge-saturation-bound",
        passed=weights[worst] <= bound,
        lhs=weights[worst],
        rhs=bound,
        params={"group": G.spec},
        witness=X.faces(1)[worst],
    )


# -- parameter schedules and certificates -------------------------------------------


@dataclass(frozen=True)
class ParameterSchedule:
    path: str
    d: int
    q: int
    beta: Fraction
    eps: Fraction
    eta: Fraction
    lam: Fraction
    notes: str = ""


def parameter_schedule(d: int, q: int, beta: Fraction, eps: Fraction, path: str) -> ParameterSchedule:
    """Derived (eta, lambda) for the correction guarantees.

    Additive path: eta = beta^(d-1) eps / (2^d ((d+1)!)^2), lambda = eta^(2^(d-1)).
    Multiplicative path: eta = eps^3 and lambda = beta^2 eta^2 eps / 64; the
    1/64 constant is implementation-chosen and recorded in certificates.
    """
    beta, eps = Fraction(beta), Fraction(eps)
    if not (0 < beta <= 1 and 0 < eps < 1):
        raise PremiseFailedError("parameters", f"need beta in (0,1] and eps in (0,1), got {beta}, {eps}")
    if path == "abelian":
        eta = beta ** (d - 1) * eps / (2**d * factorial(d + 1) ** 2)
        lam = eta ** (2 ** (d - 1))
        return ParameterSchedule(path, d, q, beta, eps, eta, lam)
    if path == "nonabelian":
        eta = eps**3
        lam = beta**2 * eta**2 * eps / 64
        return ParameterSchedule(
            path, d, q, beta, eps, eta, lam, notes="lambda constant 1/64 is implementation-chosen"
        )
    raise PremiseFailedError("parameters", f"unknown path {path!r}")


@dataclass
class CosystolicCertificate:
    path: str
    object: str
    d: int
    q: int
    lambda_est: float
    lambda_plus: float
    beta: Fraction
    schedule: ParameterSchedule
    epsilon: Fraction
    mu: Fraction
    premises: Dict[str, object] = field(default_factory=dict)


def cosystolic_certificate(
    X: SimplicialComplex,
    G: FiniteGroup,
    path: str = "abelian",
    budget: Optional[EnumerationBudget] = None,
    eps: Optional[Fraction] = None,
) -> CosystolicCertificate:
    """Certificate that the (d-1)-skeleton is a cosystolic expander over G.

    Every premise is measured, never assumed: the local spectral bound must
    meet the schedule's lambda and every proper link must be a coboundary
    expander.  A failed premise raises PremiseFailedError with the measured
    values; no extrapolated certificates are issued.
    """
    budget = budget or EnumerationBudget.default()
    d = X.dimension
    q = X.degree_bound()
    if path == "nonabelian" and d != 3:
        raise WrongDimensionError("the multiplicative certificate path needs d = 3")
    try:
        cert = local_spectral_lambda(X)
    except DisconnectedGraphError as exc:
        raise PremiseFailedError(
            "spectral", f"disconnected link at {exc.witness}", {"witness": exc.witness}
        ) from exc
    beta, beta_witness = link_coboundary_beta(X, G, budget)
    if beta is None or beta <= 0:
        raise PremiseFailedError(
            "link-coboundary-expansion",
            f"a link is not a coboundary expander (witness {beta_witness})",
            {"witness": beta_witness, "beta": beta},
        )
    beta_capped = min(beta, Fraction(99, 100))
    if path == "abelian":
        eps_val = Fraction(eps) if eps is not None else Fraction(1, 2 * (d + 1) ** 2)
    else:
        eps_val = Fraction(eps) if eps is not None else Fraction(1, 81 * G.order)
        if eps_val > Fraction(1, 81 * G.order):
            raise PremiseFailedError(
                "parameters", f"need eps <= 1/(81 |G|) = {Fraction(1, 81 * G.order)}"
            )
    schedule = parameter_schedule(d, q, beta_capped, eps_val, path)
    lam_measured = cert.as_fraction()
    if lam_measured > schedule.lam:
        raise PremiseFailedError(
            "spectral",
            f"measured lambda+ {float(lam_measured):.6g} exceeds the schedule's {float(schedule.lam):.6g}",
            {"lambda_plus": lam_measured, "required": schedule.lam},
        )
    if path == "abelian":
        s = isqrt(d**d)
        if s * s < d**d:
            s += 1  # rational lower bound for 1/(q d^(d/2))
        epsilon = min(schedule.eta ** (2**d - 1), Fraction(1, q * s))
        mu = schedule.eta ** (2**d - 1)
    else:
        epsilon = min(beta_capped * schedule.eta / 2, Fraction(1, 2 * q))
        mu = beta_capped * schedule.eta / 2
    return CosystolicCertificate(
        path=path,
        object=f"{d - 1}-skeleton",
        d=d,
        q=q,
        lambda_est=cert.lambda_est,
        lambda_plus=cert.lambda_plus,
        beta=beta,
        schedule=schedule,
        epsilon=epsilon,
        mu=mu,
        premises={
            "lambda_plus": lam_measured,
            "lambda_required": schedule.lam,
            "beta": beta,
            "beta_witness": beta_witness,
        },
    )


def verify_cosystolic_pair(
    X: SimplicialComplex,
    G: FiniteGroup,
    epsilon: Fraction,
    mu: Fraction,
    budget: Optional[EnumerationBudget] = None,
) -> CheckReport:
    """Oracle cross-check of a claimed (epsilon, mu) pair on a small instance."""
    budget = budget or EnumerationBudget.default()
    constants = cosystolic_expansion_constants(X, G, budget)
    skipped = [k for k, v in constants.per_dim.items() if v.get("skipped")]
    eps_ok = constants.epsilon is None or constants.epsilon >= Fraction(epsilon)
    mu_ok = constants.mu is None or constants.mu >= Fraction(mu)
    return CheckReport(
        name="cosystolic-pair-cross-check",
        passed=eps_ok and mu_ok,
        lhs={"epsilon": constants.epsilon, "mu": constants.mu},
        rhs={"epsilon": Fraction(epsilon), "mu": Fraction(mu)},
        params={"group": G.spec},
        notes=f"dimensions skipped by budget: {skipped}" if skipped else "",
    )
