"""Walk spectra of underlying graphs and the local spectral expansion bound.

The second eigenvalue of a weighted graph is the largest absolute nontrivial
eigenvalue of the random-walk operator (pick an edge proportionally to its
weight, then a uniform endpoint).  This choice makes both Cheeger-style
inequalities used elsewhere sound when the certified upper bound is
substituted for the true eigenvalue.

Every proper link, X itself as the link of () included, is read off the face
table with no link complex built (`_link_stacks`), one stack of graphs per
vertex count.  The graphs of a stack that are exactly equal form one class,
keyed by each graph's sorted edge entries, and only the first graph of a
class is filled in as a matrix and certified (`_stack_certificates`): many
links of a regular complex share a graph, and graphs equal only up to a
relabeling are not merged, so each certificate is hex-equal to a per-link
eigensolve.  ``link_spectra``, ``local_spectral_lambda`` and
``cheeger_sweep`` all read those classes.
``underlying_graph`` and ``second_eigenvalue``, a dict graph and the same
eigensolve on a stack of one, are the exact reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .complexes import Face, SimplicialComplex, _subsets
from .errors import BadDimensionError, DisconnectedGraphError, UnknownVertexError

#: Additive margin turning a dense eigensolve into a certified upper bound.
EIG_TOLERANCE = 1e-9
_CHEEGER_ROWS = 2**14  # (graph, subset) pairs per step of the Cheeger kernel


@dataclass(frozen=True)
class WeightedGraph:
    """Vertex- and edge-weighted graph with exact integer weights: vertex v
    weighs vertex_num[v] / vertex_den, edge e weighs edge_num[e] / edge_den,
    and the edge weights sum to 1."""

    vertices: Tuple[int, ...]
    vertex_num: Dict[int, int]
    edge_num: Dict[Tuple[int, int], int]
    vertex_den: int
    edge_den: int

    @property
    def edge_weights(self) -> Dict[Tuple[int, int], Fraction]:
        return {e: Fraction(n, self.edge_den) for e, n in self.edge_num.items()}


@dataclass(frozen=True)
class SpectralCertificate:
    """lambda_est is the computed value, lambda_plus a certified upper bound."""

    lambda_est: float
    lambda_plus: float
    method: str
    witness: Optional[Face] = None

    def as_fraction(self) -> Fraction:
        """Exact rational value of the certified upper bound."""
        return Fraction(self.lambda_plus)


def underlying_graph(complex: SimplicialComplex) -> WeightedGraph:
    """The weighted 1-skeleton: vertices with P_0, edges with P_1."""
    if complex.dimension < 1:
        raise BadDimensionError("a 0-dimensional complex has no underlying graph")
    vertices = complex.vertices()
    return WeightedGraph(
        vertices,
        dict(zip(vertices, complex.weight_numerators(0).tolist())),
        dict(zip(complex.faces(1), complex.weight_numerators(1).tolist())),
        complex.weight_denominator(0),
        complex.weight_denominator(1),
    )


def _connected(edges: np.ndarray) -> np.ndarray:
    """Whether each graph of a stack of boolean adjacency matrices is connected:
    the vertices reachable from vertex 0 grow by one step at a time."""
    reach = np.zeros(edges.shape[:2], dtype=bool)
    reach[:, 0] = True
    while True:
        grown = reach | (reach[:, None, :] @ edges)[:, 0, :]
        if (grown == reach).all():
            return reach.all(axis=1)
        reach = grown


def second_eigenvalue(graph: WeightedGraph) -> SpectralCertificate:
    """Largest absolute nontrivial walk eigenvalue with a certified upper bound."""
    n = len(graph.vertices)
    if n == 1:
        return SpectralCertificate(0.0, EIG_TOLERANCE, "trivial")
    index = {v: i for i, v in enumerate(graph.vertices)}
    edge = np.zeros((1, n, n), dtype=object)
    for (a, b), num in graph.edge_num.items():
        edge[0, index[a], index[b]] = edge[0, index[b], index[a]] = num
    if not _connected(edge > 0)[0]:
        raise DisconnectedGraphError("graph is disconnected; lambda = 1", witness=None)
    _, lams = _stack_certificates(edge, np.array([graph.edge_den], dtype=object))
    return _certificate(float(lams[0]), None)


def _certificate(lam: float, witness: Optional[Face]) -> SpectralCertificate:
    return SpectralCertificate(lam, min(lam + EIG_TOLERANCE, 1.0), "dense eigensolve", witness)


def _levels(complex: SimplicialComplex) -> range:
    """k = -1, ..., d - 2: the dimensions whose faces have links of dimension >= 1."""
    if complex.dimension < 1:
        raise BadDimensionError("local spectral expansion needs dimension >= 1")
    return range(-1, complex.dimension - 1)


def _link_stacks(
    complex: SimplicialComplex, k: int
) -> Iterator[Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]]:
    """The graphs of the links of X(k), -1 <= k <= d - 2, read off the face
    table, one stack per vertex count n: the positions in faces(k) of the
    faces sigma of the stack; each one's class, the graphs of a stack that
    are exactly equal (the same edge numerators and the same total, compared
    by value) forming one class, numbered in order of first appearance; and,
    for the first graph of each class only, the edge numerators num(sigma +
    uv) as symmetric (classes, n, n) matrices with a zero diagonal and the
    totals E = C(d - k, 2) num(sigma).  Equal links are in one class only
    when their vertices come in the same order.

    The graph of link(sigma) has a vertex u per (k+1)-face sigma + u, in index
    order, which is the order of u, and an edge uv of walk weight
    num(sigma + uv) / E per (k+2)-face sigma + uv.  So a (k+2)-face tau and
    positions i < j give an edge of the link of tau minus tau[i], tau[j]
    between facets(k+2)[tau, j] and facets(k+2)[tau, i]; the facet table of
    X(k+1) names sigma.  One stable sort by sigma lists each graph's entries
    (a, b, numerator) in the index order of tau, which is the order of (a,
    b): removing sigma keeps the order of faces that hold it.  A class is
    keyed by those entries' bytes and the total, and only its first graph's
    matrix is filled.  Numerators and totals are float64 while all of them
    are below 2^53, so they are exact and divide correctly rounded, and
    Python ints otherwise.  Each stack is freed before the next is built.
    """
    top, down = complex.facets(k + 2), complex.facets(k + 1)
    num, totals = complex.weight_numerators(k + 2), complex.weight_numerators(k)
    scale = comb(complex.dimension - k, 2)
    if max(int(num.max()), int(totals.max()) * scale) < 2**53:
        dtype = np.float64
        num, totals = num.astype(np.min_scalar_type(int(num.max()))), totals.astype(dtype) * scale
    else:
        dtype = object
        num, totals = num.astype(object), totals.astype(object) * scale
    # rank[f, i]: the place of the (k+1)-face f among the vertices of the link
    # of its facet down[f, i].
    flat = down.ravel()
    sizes = np.bincount(flat, minlength=len(totals))
    side = int(sizes.max())
    rank = np.empty_like(flat)
    rank[flat.argsort(kind="stable")] = np.arange(flat.size) - (sizes.cumsum() - sizes).repeat(sizes)
    # Entry (tau, i, j): sigma, and a and b, as places in down's flat layout,
    # read from small copies in the narrowest types that hold them.
    i, j = _subsets(k + 3, 2).T
    near, far = top[:, j] * (k + 2) + i, top[:, i] * (k + 2) + j - 1
    sigma = flat.astype(np.min_scalar_type(len(totals)))[near].ravel()
    order = sigma.argsort(kind="stable")
    rank = rank.astype(np.min_scalar_type(side * side))
    pair = (rank[near] * side + rank[far]).ravel()[order]
    w = num[order // len(i)]
    counts = np.bincount(sigma, minlength=len(totals))
    ends = counts.cumsum()
    # A graph's key: its entries (a * side + b, numerator) in order, and its total.
    if dtype == object:
        entries = tuple(zip(pair.tolist(), w.tolist()))
        runs = zip((ends - counts).tolist(), ends.tolist())
    else:
        stacked = np.empty((len(pair), 2), dtype=np.promote_types(pair.dtype, w.dtype))
        stacked[:, 0], stacked[:, 1] = pair, w
        entries, size = stacked.tobytes(), stacked.strides[0]
        runs = zip(((ends - counts) * size).tolist(), (ends * size).tolist())
    keys = [(entries[lo:hi], total) for (lo, hi), total in zip(runs, totals.tolist())]
    for n in np.bincount(sizes).nonzero()[0].tolist():
        at = (sizes == n).nonzero()[0]
        seen: Dict[object, int] = {}
        pos = [seen.setdefault(keys[f], g) for g, f in enumerate(at.tolist())]
        first = list(seen.values())
        classes = np.empty(len(pos), dtype=np.intp)
        classes[first] = np.arange(len(first))
        # The runs of entries of the first graphs, concatenated, each entry
        # tagged with its class.
        first = at[first]
        many = counts[first]
        tag = np.arange(len(first)).repeat(many)
        rows = np.arange(len(tag)) + (ends[first] - many.cumsum())[tag]
        a, b = np.divmod(pair[rows], side)
        edge = np.zeros((len(first), n, n), dtype=dtype)
        edge[tag, a, b] = edge[tag, b, a] = w[rows]
        yield at.tolist(), classes[pos], edge, totals[first]
        del edge


def _stack_certificates(edge: np.ndarray, totals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Certify a stack of distinct graphs of one size n >= 2 without isolated
    vertices, given as `_link_stacks` gives them: one connectivity test and
    one matrix of a stacked eigensolve per graph.  Returns whether each graph
    is connected and its walk eigenvalue lambda_est.  The division makes a
    new array, so the caller's stack is left as it was; Python ints divide
    correctly rounded."""
    connected = _connected(edge > 0)
    edge = (edge / totals[:, None, None]).astype(np.float64, copy=False)
    scale = 1.0 / np.sqrt(edge.sum(axis=2))
    edge *= scale[:, :, None]
    edge *= scale[:, None, :]
    eigs = np.linalg.eigvalsh(edge)
    lams = np.minimum(np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -2])), 1.0)
    return connected, lams


def _level_spectra(complex: SimplicialComplex, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per face of X(k), in faces(k) order: whether its link graph is
    connected, and its walk eigenvalue lambda_est, read from its class."""
    connected = np.zeros(complex.face_count(k), dtype=bool)
    lam = np.zeros(complex.face_count(k))
    for at, classes, edge, totals in _link_stacks(complex, k):
        ok, lams = _stack_certificates(edge, totals)
        connected[at], lam[at] = ok[classes], lams[classes]
    return connected, lam


def link_spectra(complex: SimplicialComplex) -> Dict[Face, Optional[SpectralCertificate]]:
    """The certificate of each proper link's graph, witnessed by its face sigma,
    or None when that graph is disconnected, in (k, faces(k)) order for k = -1,
    ..., d - 2; X itself is the link of ().  No link complex is built."""
    spectra: Dict[Face, Optional[SpectralCertificate]] = {}
    for k in _levels(complex):
        connected, lam = _level_spectra(complex, k)
        for sigma, ok, lam_est in zip(complex.faces(k), connected.tolist(), lam.tolist()):
            spectra[sigma] = _certificate(lam_est, sigma) if ok else None
    return spectra


def local_spectral_lambda(complex: SimplicialComplex) -> SpectralCertificate:
    """Max walk eigenvalue over the underlying graphs of all links (incl. the empty
    face), witnessed by the first link that attains it: the certificate
    `link_spectra` gives that link, reduced from per-level arrays with no
    other certificate built.  The first disconnected link raises, with its
    face as the witness."""
    best: Optional[Tuple[float, float, Face]] = None  # (lambda_plus, lambda_est, witness)
    for k in _levels(complex):
        connected, lam = _level_spectra(complex, k)
        if not connected.all():
            sigma = complex.faces(k)[int(np.argmin(connected))]
            raise DisconnectedGraphError(f"link of {sigma} has a disconnected underlying graph", witness=sigma)
        plus = np.minimum(lam + EIG_TOLERANCE, 1.0)
        top = int(np.argmax(plus))
        if best is None or plus[top] > best[0]:
            best = (float(plus[top]), float(lam[top]), complex.faces(k)[top])
    assert best is not None
    return _certificate(best[1], best[2])


def cheeger_quantities(graph: WeightedGraph, subset: Iterable[int]) -> Tuple[Fraction, Fraction]:
    """Exact weights of the cut E(A, complement) and the internal edges E(A)."""
    universe = set(graph.vertices)
    a_set = set(subset)
    stray = a_set - universe
    if stray:
        raise UnknownVertexError(f"vertices {sorted(stray)} are not in the graph")
    cut = Fraction(0)
    internal = Fraction(0)
    for (u, v), w in graph.edge_weights.items():
        inside = (u in a_set) + (v in a_set)
        if inside == 1:
            cut += w
        elif inside == 2:
            internal += w
    return cut, internal


def _cheeger_counts(
    vertex_num: np.ndarray,
    edge_num: np.ndarray,
    vertex_den: Sequence[int],
    edge_den: Sequence[int],
    lams: Sequence[Fraction],
    copies: Optional[Sequence[int]] = None,
) -> int:
    """Failures of the two Cheeger inequalities over every proper nonempty
    vertex subset A of each graph of a stack, with w = ||A||, graph g counted
    copies[g] times (once by default):

        ||E(A, A^c)|| >= 2 (1 - lam) w (1 - w)   and   ||E(A)|| <= (w + lam) w.

    Graph g of the stack has vertex numerators vertex_num[g] over D =
    vertex_den[g], symmetric edge numerators edge_num[g] (zero diagonal) over
    E = edge_den[g], and lam = lams[g] = p/q.  One row per subset of a shared
    bit matrix gives, by integer matrix products, the numerators W of w, C of
    the cut and I of the internal mass.  Both tests are then integer
    cross-multiplications, in Python ints since q runs to 2^53 and more:
    C q D^2 < 2 (q - p) W (D - W) E  and  I q D^2 > (q W + p D) W E.
    The numerator arrays are int64 when every partial sum fits, object
    otherwise, and at most `_CHEEGER_ROWS` (graph, subset) pairs are held at once.
    """
    n = vertex_num.shape[1]
    masks = np.arange(1, 2**n - 1, dtype=np.int64)
    bits = (masks >> np.arange(n)[:, None] & 1).astype(edge_num.dtype)  # (n, subsets)
    # Per graph: p, q, D and E as columns of Python ints.
    scalars = np.array(
        [(lam.numerator, lam.denominator, d, e) for lam, d, e in zip(lams, vertex_den, edge_den)], dtype=object
    ).reshape(len(lams), 4, 1)
    copies = np.ones(len(lams), dtype=np.int64) if copies is None else np.asarray(copies, dtype=np.int64)
    step = max(1, _CHEEGER_ROWS // max(len(masks), 1))
    fails = 0
    for lo in range(0, len(lams), step):
        adj = edge_num[lo : lo + step]
        w = vertex_num[lo : lo + step] @ bits
        inside2 = ((adj @ bits) * bits).sum(axis=1)  # twice the internal numerator
        cut = adj.sum(axis=2) @ bits - inside2
        w, cut, internal = (x.astype(object) for x in (w, cut, inside2 // 2))
        p, q, D, E = scalars[lo : lo + step].transpose(1, 0, 2)
        scale = q * D * D
        per_graph = np.count_nonzero(cut * scale < 2 * (q - p) * E * w * (D - w), axis=1)
        per_graph += np.count_nonzero(internal * scale > (q * w + p * D) * w * E, axis=1)
        fails += int(per_graph @ copies[lo : lo + step])
    return fails


def cheeger_sweep(X: SimplicialComplex, max_vertices: int = 14) -> Tuple[int, int, int]:
    """Exhaustive cut/internal-mass checks over every link graph of a complex.

    Returns (violations, graphs checked, subsets checked).  Disconnected link
    graphs are skipped; both inequalities use the certified eigenvalue bound
    and are decided exactly on integer numerators by `_cheeger_counts`.  The
    link graphs, X's own included, are the stacks that `link_spectra`
    certifies, and each class of exactly equal graphs is certified and
    checked once, counted as many times as it has graphs.  In a pure complex
    a link vertex u has degree sum_v num(sigma + uv) = (d - k - 1)
    num(sigma + u), so the degrees over D = 2E stand for the vertex weights:
    both tests are homogeneous in the vertex and in the edge numerators.
    """
    violations = graphs = subsets = 0
    for k in range(-1, X.dimension - 1):
        for _, classes, edge, totals in _link_stacks(X, k):
            n = edge.shape[1]
            if n > max_vertices:
                continue
            connected, lams = _stack_certificates(edge, totals)
            keep = np.flatnonzero(connected)
            if not keep.size:
                continue
            copies = np.bincount(classes)[keep]
            # Exact integers: every partial sum is at most D = 2E < 2^54, so int64 holds it.
            nums = edge[keep].astype(np.int64) if edge.dtype == np.float64 else edge[keep]
            totals = [int(e) for e in totals[keep]]
            graphs += int(copies.sum())
            subsets += int(copies.sum()) * (2**n - 2)
            lam_bounds = [_certificate(lam, None).as_fraction() for lam in lams[keep].tolist()]
            violations += _cheeger_counts(nums.sum(axis=2), nums, [2 * e for e in totals], totals, lam_bounds, copies)
    return violations, graphs, subsets
