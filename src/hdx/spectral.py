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
    """Vertex- and edge-weighted graph; edge weights sum to 1."""

    vertices: Tuple[int, ...]
    vertex_weights: Dict[int, Fraction]
    edge_weights: Dict[Tuple[int, int], Fraction]


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
    den0, den1 = complex.weight_denominator(0), complex.weight_denominator(1)
    vweights = {v: Fraction(num0[(v,)], den0) for v in vertices}
    eweights = {edge: Fraction(num1[edge], den1) for edge in complex.faces(1)}
    return WeightedGraph(vertices, vweights, eweights)


def _components(graph: WeightedGraph) -> int:
    adjacency: Dict[int, list] = {v: [] for v in graph.vertices}
    for (a, b) in graph.edge_weights:
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
    for (a, b), w in graph.edge_weights.items():
        adj[index[a], index[b]] = adj[index[b], index[a]] = float(w)
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
    total = Fraction(0)
    for v in subset:
        if v not in graph.vertex_weights:
            raise UnknownVertexError(f"vertex {v} is not in the graph")
        total += graph.vertex_weights[v]
    return total
