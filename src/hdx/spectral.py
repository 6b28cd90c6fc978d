"""Walk spectra of underlying graphs and the local spectral expansion bound.

The second eigenvalue of a weighted graph is the largest absolute nontrivial
eigenvalue of the random-walk operator (pick an edge proportionally to its
weight, then a uniform endpoint).  This choice makes both Cheeger-style
inequalities used elsewhere sound when the certified upper bound is
substituted for the true eigenvalue.

``link_spectra`` certifies every proper link in one pass over the face table:
the graph of link(sigma) has the faces sigma + u as vertices and the faces
sigma + uv as edges, so two facet-table gathers give every link's edges and
no link complex is built.  The graphs are grouped by vertex count, and each
group gets one stacked eigensolve; ``second_eigenvalue`` is the same kernel on
a stack of one graph.  ``cheeger_sweep`` reads the same stacks once for both
the certificates and the exhaustive Cheeger checks, which decide every graph
of one size together; ``cheeger_violations`` is that kernel on a stack of one.
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
    def vertex_weights(self) -> Dict[int, Fraction]:
        return {v: Fraction(n, self.vertex_den) for v, n in self.vertex_num.items()}

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


def _certificates(
    adj: np.ndarray, connected: Sequence[bool], witnesses: Sequence[Optional[Face]]
) -> List[Optional[SpectralCertificate]]:
    """One stacked eigensolve for graphs of one size n >= 2 without isolated
    vertices, given by their edge-weight matrices adj (normalized in place):
    each graph's certificate with its witness, or None when it is disconnected."""
    scale = 1.0 / np.sqrt(adj.sum(axis=2))
    adj *= scale[:, :, None]
    adj *= scale[:, None, :]
    eigs = np.linalg.eigvalsh(adj)
    lams = np.minimum(np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -2])), 1.0).tolist()
    return [
        SpectralCertificate(lam, min(lam + EIG_TOLERANCE, 1.0), "dense eigensolve", sigma) if ok else None
        for lam, ok, sigma in zip(lams, connected, witnesses)
    ]


def second_eigenvalue(graph: WeightedGraph) -> SpectralCertificate:
    """Largest absolute nontrivial walk eigenvalue with a certified upper bound."""
    n = len(graph.vertices)
    if n == 1:
        return SpectralCertificate(0.0, EIG_TOLERANCE, "trivial")
    index = {v: i for i, v in enumerate(graph.vertices)}
    adj = np.zeros((1, n, n))
    edges = np.zeros((1, n, n), dtype=bool)
    for (a, b), num in graph.edge_num.items():
        i, j = index[a], index[b]
        # Correctly rounded, as float(Fraction(num, den)) is.
        adj[0, i, j] = adj[0, j, i] = num / graph.edge_den
        edges[0, i, j] = edges[0, j, i] = True
    if not _connected(edges)[0]:
        raise DisconnectedGraphError("graph is disconnected; lambda = 1", witness=None)
    (cert,) = _certificates(adj, (True,), (None,))
    return cert


def _link_stacks(complex: SimplicialComplex, k: int) -> Iterator[Tuple[List[int], np.ndarray, np.ndarray]]:
    """The graphs of the links of X(k), 0 <= k <= d - 2, read off the face
    table, one stack per vertex count n: the positions in faces(k) of the
    faces sigma of the stack, the edge numerators num(sigma + uv) as symmetric
    (graphs, n, n) matrices with a zero diagonal, and their totals
    E = C(d - k, 2) num(sigma).

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


def _stack_certificates(
    edge: np.ndarray, totals: np.ndarray, witnesses: Sequence[Optional[Face]]
) -> List[Optional[SpectralCertificate]]:
    """The certificates of a stack from `_link_stacks`, or None for each
    disconnected graph.  A float64 stack is divided in place into the walk
    weights, as the eigensolve needs no numerators."""
    connected = _connected(edge > 0).tolist()
    if edge.dtype == object:
        edge = (edge / totals[:, None, None]).astype(np.float64)
    else:
        edge /= totals[:, None, None]
    return _certificates(edge, connected, witnesses)


def _root_certificate(graph: WeightedGraph) -> Optional[SpectralCertificate]:
    """The certificate of the link of (), X itself, or None when disconnected."""
    try:
        cert = second_eigenvalue(graph)
    except DisconnectedGraphError:
        return None
    return SpectralCertificate(cert.lambda_est, cert.lambda_plus, cert.method, ())


def link_spectra(complex: SimplicialComplex) -> Dict[Face, Optional[SpectralCertificate]]:
    """The certificate of each proper link's underlying graph, witnessed by its
    face sigma, or None when that graph is disconnected; in (k, faces(k))
    order for k = -1, ..., d - 2.  The link of () is X itself; every other
    link graph is read off the face table, with no link complex built."""
    if complex.dimension < 1:
        raise BadDimensionError("local spectral expansion needs dimension >= 1")
    spectra = {(): _root_certificate(underlying_graph(complex))}
    for k in range(complex.dimension - 1):
        faces = complex.faces(k)
        out: List[Optional[SpectralCertificate]] = [None] * len(faces)
        for at, edge, totals in _link_stacks(complex, k):
            for pos, cert in zip(at, _stack_certificates(edge, totals, [faces[pos] for pos in at])):
                out[pos] = cert
        spectra.update(zip(faces, out))
    return spectra


def local_spectral_lambda(complex: SimplicialComplex) -> SpectralCertificate:
    """Max walk eigenvalue over the underlying graphs of all links (incl. the empty
    face), witnessed by the first link that attains it."""
    best: Optional[SpectralCertificate] = None
    for sigma, cert in link_spectra(complex).items():
        if cert is None:
            raise DisconnectedGraphError(
                f"link of {sigma} has a disconnected underlying graph", witness=sigma
            )
        if best is None or cert.lambda_plus > best.lambda_plus:
            best = cert
    assert best is not None
    return best


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


def vertex_set_weight(graph: WeightedGraph, subset: Iterable[int]) -> Fraction:
    weights = graph.vertex_weights
    total = Fraction(0)
    for v in subset:
        if v not in weights:
            raise UnknownVertexError(f"vertex {v} is not in the graph")
        total += weights[v]
    return total


def _cheeger_counts(
    vertex_num: np.ndarray,
    edge_num: np.ndarray,
    vertex_den: Sequence[int],
    edge_den: Sequence[int],
    lams: Sequence[Fraction],
) -> int:
    """Failures of the two Cheeger inequalities over every proper nonempty
    vertex subset A of each graph of a stack, with w = ||A||:

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
        fails += np.count_nonzero(cut * scale < 2 * (q - p) * E * w * (D - w))
        fails += np.count_nonzero(internal * scale > (q * w + p * D) * w * E)
    return int(fails)


def cheeger_violations(graph: WeightedGraph, lam: Fraction) -> int:
    """Failures of the two Cheeger inequalities over every proper nonempty
    vertex subset of one graph: the stacked kernel `_cheeger_counts` on a
    stack of one."""
    n = len(graph.vertices)
    index = {v: i for i, v in enumerate(graph.vertices)}
    vnum = [graph.vertex_num[v] for v in graph.vertices]
    # int64 holds every partial sum below twice the totals; Python ints otherwise.
    wide = 2 * max(sum(vnum), sum(graph.edge_num.values())) >= 2**63
    dtype = object if wide else np.int64
    adj = np.zeros((1, n, n), dtype=dtype)
    for (a, b), num in graph.edge_num.items():
        adj[0, index[a], index[b]] = adj[0, index[b], index[a]] = num
    return _cheeger_counts(
        np.array([vnum], dtype=dtype), adj, [graph.vertex_den], [graph.edge_den], [Fraction(lam)]
    )


def cheeger_sweep(X: SimplicialComplex, max_vertices: int = 14) -> Tuple[int, int, int]:
    """Exhaustive cut/internal-mass checks over every link graph of a complex.

    Returns (violations, graphs checked, subsets checked).  Disconnected link
    graphs are skipped; both inequalities use the certified eigenvalue bound
    and are decided exactly on integer numerators by `_cheeger_counts`.  The
    link of () is X itself; the other link graphs are the stacks that
    `link_spectra` certifies, read once for both.  In a pure complex a link
    vertex u has degree sum_v num(sigma + uv) = (d - k - 1) num(sigma + u), so
    the degrees over D = 2E stand for the vertex weights: both tests are
    homogeneous in the vertex and in the edge numerators.
    """
    violations = graphs = subsets = 0
    root = underlying_graph(X)
    cert = _root_certificate(root)
    if cert is not None and len(root.vertices) <= max_vertices:
        graphs, subsets = 1, 2 ** len(root.vertices) - 2
        violations = cheeger_violations(root, cert.as_fraction())
    for k in range(X.dimension - 1):
        for _, edge, totals in _link_stacks(X, k):
            n = edge.shape[1]
            if n > max_vertices:
                continue
            # Exact integers: every partial sum is at most D = 2E < 2^54, so int64 holds it.
            nums = edge.astype(np.int64) if edge.dtype == np.float64 else edge
            certs = _stack_certificates(edge, totals, [None] * len(totals))
            keep = [g for g, cert in enumerate(certs) if cert is not None]
            if not keep:
                continue
            nums, totals = nums[keep], [int(e) for e in totals[keep]]
            graphs += len(keep)
            subsets += len(keep) * (2**n - 2)
            violations += _cheeger_counts(
                nums.sum(axis=2), nums, [2 * e for e in totals], totals, [certs[g].as_fraction() for g in keep]
            )
    return violations, graphs, subsets
