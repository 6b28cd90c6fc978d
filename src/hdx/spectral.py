"""Walk spectra of underlying graphs and the local spectral expansion bound.

The second eigenvalue of a weighted graph is the largest absolute nontrivial
eigenvalue of the random-walk operator (pick an edge proportionally to its
weight, then a uniform endpoint).  This choice makes both Cheeger-style
inequalities used elsewhere sound when the certified upper bound is
substituted for the true eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .complexes import Face, SimplicialComplex
from .errors import BadDimensionError, DisconnectedGraphError, UnknownVertexError

#: Additive margin turning a dense eigensolve into a certified upper bound.
EIG_TOLERANCE = 1e-9


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
    num0, num1 = complex._num[0], complex._num[1]
    return WeightedGraph(
        vertices,
        {v: num0[(v,)] for v in vertices},
        {edge: num1[edge] for edge in complex.faces(1)},
        complex.weight_denominator(0),
        complex.weight_denominator(1),
    )


def _components(graph: WeightedGraph) -> int:
    adjacency: Dict[int, list] = {v: [] for v in graph.vertices}
    for (a, b) in graph.edge_num:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = set()
    parts = 0
    for start in graph.vertices:
        if start in seen:
            continue
        parts += 1
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return parts


def second_eigenvalue(graph: WeightedGraph) -> SpectralCertificate:
    """Largest absolute nontrivial walk eigenvalue with a certified upper bound."""
    if _components(graph) != 1:
        raise DisconnectedGraphError("graph is disconnected; lambda = 1", witness=None)
    n = len(graph.vertices)
    if n == 1:
        return SpectralCertificate(0.0, EIG_TOLERANCE, "trivial")
    index = {v: i for i, v in enumerate(graph.vertices)}
    adj = np.zeros((n, n))
    for (a, b), num in graph.edge_num.items():
        # Correctly rounded, as float(Fraction(num, den)) is.
        adj[index[a], index[b]] = adj[index[b], index[a]] = num / graph.edge_den
    degrees = adj.sum(axis=1)
    scale = 1.0 / np.sqrt(degrees)
    sym = adj * scale[:, None] * scale[None, :]
    eigs = np.linalg.eigvalsh(sym)
    lam = float(min(max(abs(eigs[0]), abs(eigs[-2]), 0.0), 1.0))
    return SpectralCertificate(lam, min(lam + EIG_TOLERANCE, 1.0), "dense eigensolve")


def local_spectral_lambda(complex: SimplicialComplex) -> SpectralCertificate:
    """Max walk eigenvalue over the underlying graphs of all links (incl. the empty face)."""
    if complex.dimension < 1:
        raise BadDimensionError("local spectral expansion needs dimension >= 1")
    best: Optional[SpectralCertificate] = None
    for k in range(-1, complex.dimension - 1):
        for sigma in complex.faces(k):
            try:
                cert = second_eigenvalue(underlying_graph(complex.link(sigma)))
            except DisconnectedGraphError as exc:
                raise DisconnectedGraphError(
                    f"link of {sigma} has a disconnected underlying graph", witness=sigma
                ) from exc
            if best is None or cert.lambda_plus > best.lambda_plus:
                best = SpectralCertificate(cert.lambda_est, cert.lambda_plus, cert.method, sigma)
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


def cheeger_violations(graph: WeightedGraph, lam: Fraction) -> int:
    """Failures of the two Cheeger inequalities over every proper nonempty
    vertex subset A, with w = ||A||:

        ||E(A, A^c)|| >= 2 (1 - lam) w (1 - w)   and   ||E(A)|| <= (w + lam) w.

    One row per subset of a bit matrix gives, by integer matrix products, the
    numerators W of w over D = vertex_den, C of the cut and I of the internal
    mass over E = edge_den.  With lam = p/q both tests are integer
    cross-multiplications, in Python ints since q runs to 2^53 and more:
    C q D^2 < 2 (q - p) W (D - W) E  and  I q D^2 > (q W + p D) W E.
    """
    n = len(graph.vertices)
    index = {v: i for i, v in enumerate(graph.vertices)}
    vnum = [graph.vertex_num[v] for v in graph.vertices]
    # int64 holds every partial sum below twice the totals; Python ints otherwise.
    wide = 2 * max(sum(vnum), sum(graph.edge_num.values())) >= 2**63
    dtype = object if wide else np.int64
    adj = np.zeros((n, n), dtype=dtype)
    for (a, b), num in graph.edge_num.items():
        adj[index[a], index[b]] = adj[index[b], index[a]] = num
    masks = np.arange(1, 2**n - 1, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n) & 1).astype(np.uint8)
    if wide:
        bits = bits.astype(object)
    w = bits @ np.array(vnum, dtype=dtype)
    inside2 = ((bits @ adj) * bits).sum(axis=1)  # twice the internal numerator
    cut = bits @ adj.sum(axis=1) - inside2
    w, cut, internal = (x.astype(object) for x in (w, cut, inside2 // 2))
    p, q = lam.numerator, lam.denominator
    D, E = graph.vertex_den, graph.edge_den
    scale = q * D * D
    cut_fails = cut * scale < 2 * (q - p) * E * w * (D - w)
    internal_fails = internal * scale > (q * w + p * D) * w * E
    return int(np.count_nonzero(cut_fails)) + int(np.count_nonzero(internal_fails))
