"""Walk spectra of underlying graphs and the local spectral expansion bound.

The second eigenvalue of a weighted graph is the largest absolute nontrivial
eigenvalue of the random-walk operator (pick an edge proportionally to its
weight, then a uniform endpoint).  This choice makes both Cheeger-style
inequalities used elsewhere sound when the certified upper bound is
substituted for the true eigenvalue.

Every proper link, X itself as the link of () included, is read off the face
table with no link complex built (`_link_stacks`), one stack of graphs per
vertex count.  The graphs of a stack that are exactly equal form one class,
certified once (`_stack_certificates`): many links of a regular complex share
a graph, and graphs equal only up to a relabeling are not merged, so each
certificate is hex-equal to a per-link eigensolve.  ``link_spectra``,
``local_spectral_lambda`` and ``cheeger_sweep`` all read those classes.
``underlying_graph`` and ``second_eigenvalue``, a dict graph and the same
eigensolve on a stack of one, are the exact reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .complexes import Face, SimplicialComplex
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
    _, _, _, lams = _stack_certificates(edge, np.array([graph.edge_den], dtype=object))
    return _certificate(float(lams[0]), None)


def _certificate(lam: float, witness: Optional[Face]) -> SpectralCertificate:
    return SpectralCertificate(lam, min(lam + EIG_TOLERANCE, 1.0), "dense eigensolve", witness)


def _levels(complex: SimplicialComplex) -> range:
    """k = -1, ..., d - 2: the dimensions whose faces have links of dimension >= 1."""
    if complex.dimension < 1:
        raise BadDimensionError("local spectral expansion needs dimension >= 1")
    return range(-1, complex.dimension - 1)


def _link_stacks(complex: SimplicialComplex, k: int) -> Iterator[Tuple[List[int], np.ndarray, np.ndarray]]:
    """The graphs of the links of X(k), -1 <= k <= d - 2, read off the face
    table, one stack per vertex count n: the positions in faces(k) of the
    faces sigma of the stack, the edge numerators num(sigma + uv) as symmetric
    (graphs, n, n) matrices with a zero diagonal, and their totals
    E = C(d - k, 2) num(sigma).  Equal links give equal matrices here only
    when their vertices come in the same order; `_stack_certificates` merges
    exactly those.

    The graph of link(sigma) has a vertex u per (k+1)-face sigma + u, in index
    order, which is the order of u, and an edge uv of walk weight
    num(sigma + uv) / E per (k+2)-face sigma + uv.  So a (k+2)-face tau and
    positions i < j give an edge of the link of tau minus tau[i], tau[j]
    between facets(k+2)[tau, j] and facets(k+2)[tau, i]; the facet table of
    X(k+1) names sigma.  Numerators and totals are float64 while all of them
    are below 2^53, so they are exact and divide correctly rounded, and Python
    ints otherwise.  Each stack is freed before the next is built.
    """
    top, down = complex.facets(k + 2), complex.facets(k + 1)
    num = complex.weight_numerators(k + 2)
    totals = complex.weight_numerators(k).astype(object) * comb(complex.dimension - k, 2)
    dtype = np.float64 if max(int(num.max()), int(totals.max())) < 2**53 else object
    num, totals = num.astype(dtype), totals.astype(dtype)
    # rank[f, i]: the place of the (k+1)-face f among the vertices of the link
    # of its facet down[f, i].
    flat = down.ravel()
    sizes = np.bincount(flat, minlength=len(totals))
    rank = np.empty_like(flat)
    rank[np.argsort(flat, kind="stable")] = np.arange(flat.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    rank = rank.reshape(down.shape)
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        members = sizes == n
        slot = np.cumsum(members) - 1
        edge = np.zeros((int(members.sum()), n, n), dtype=dtype)
        for i, j in combinations(range(k + 3), 2):
            sigma = down[top[:, j], i]
            keep = members[sigma]
            sigma = sigma[keep]
            s, a, b = slot[sigma], rank[top[keep, j], i], rank[top[keep, i], j - 1]
            edge[s, a, b] = edge[s, b, a] = num[keep]
        at = np.flatnonzero(members)
        yield at.tolist(), edge, totals[at]
        del edge


def _classes(edge: np.ndarray, totals: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """The classes of exactly equal graphs of a stack, the same edge numerators
    and the same total compared by value: the position of the first graph of
    each class, in order, and each graph's class.  One dict pass keyed by each
    graph's bytes: a float64 stack's whole numerators are exact in the
    narrowest unsigned type that holds the largest, which leaves fewer bytes
    to hash; an object stack is keyed by its Python ints."""
    flat = edge.reshape(len(totals), -1)
    if edge.dtype == object:
        rows = [tuple(row) for row in flat.tolist()]
    else:
        buf = flat.astype(np.min_scalar_type(int(flat.max()))).tobytes()
        width = len(buf) // len(totals)
        rows = [buf[at : at + width] for at in range(0, len(buf), width)]
    seen: Dict[object, int] = {}
    pos = [seen.setdefault(key, g) for g, key in enumerate(zip(rows, totals.tolist()))]
    first = list(seen.values())
    classes = np.empty(len(pos), dtype=np.intp)
    classes[first] = range(len(first))
    return first, classes[pos]


def _stack_certificates(
    edge: np.ndarray, totals: np.ndarray
) -> Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]:
    """Certify a stack of graphs of one size n >= 2 without isolated vertices,
    given as `_link_stacks` gives them, once per class of exactly equal graphs
    (`_classes`): one connectivity test and one matrix of a stacked eigensolve
    per class.  Returns the classes' first positions, each graph's class and,
    per class, whether its graph is connected and its walk eigenvalue
    lambda_est.  Only the copy of the distinct graphs is divided and
    normalized, so the caller's stack is left as it was; Python ints divide
    correctly rounded."""
    first, classes = _classes(edge, totals)
    edge, totals = edge[first], totals[first]
    connected = _connected(edge > 0)
    if edge.dtype == object:
        edge = (edge / totals[:, None, None]).astype(np.float64)
    else:
        edge /= totals[:, None, None]
    scale = 1.0 / np.sqrt(edge.sum(axis=2))
    edge *= scale[:, :, None]
    edge *= scale[:, None, :]
    eigs = np.linalg.eigvalsh(edge)
    lams = np.minimum(np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -2])), 1.0)
    return first, classes, connected, lams


def _level_spectra(complex: SimplicialComplex, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per face of X(k), in faces(k) order: whether its link graph is
    connected, and its walk eigenvalue lambda_est, read from its class."""
    connected = np.zeros(complex.face_count(k), dtype=bool)
    lam = np.zeros(complex.face_count(k))
    for at, edge, totals in _link_stacks(complex, k):
        _, classes, ok, lams = _stack_certificates(edge, totals)
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
        for _, edge, totals in _link_stacks(X, k):
            n = edge.shape[1]
            if n > max_vertices:
                continue
            first, classes, connected, lams = _stack_certificates(edge, totals)
            keep = np.flatnonzero(connected)
            if not keep.size:
                continue
            copies = np.bincount(classes)[keep]
            at = [first[c] for c in keep.tolist()]
            # Exact integers: every partial sum is at most D = 2E < 2^54, so int64 holds it.
            nums = edge[at].astype(np.int64) if edge.dtype == np.float64 else edge[at]
            totals = [int(e) for e in totals[at]]
            graphs += int(copies.sum())
            subsets += int(copies.sum()) * (2**n - 2)
            lam_bounds = [_certificate(lam, None).as_fraction() for lam in lams[keep].tolist()]
            violations += _cheeger_counts(nums.sum(axis=2), nums, [2 * e for e in totals], totals, lam_bounds, copies)
    return violations, graphs, subsets
