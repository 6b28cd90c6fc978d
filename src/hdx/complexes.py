"""Pure simplicial complexes with exact rational face distributions.

A d-dimensional complex is stored as the full downward closure of its top
faces, including the (-1)-dimensional empty face.  The top distribution P_d
(uniform by default) induces P_k for every k by picking a top face and then a
uniform (k+1)-subset; all weights are kept as exact integer numerators over a
per-dimension denominator so hot loops never touch Fraction arithmetic.  The
incidence of X(k) on X(k-1) is one integer table per dimension, ``facets(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    DuplicateTopFaceError,
    EmptyInputError,
    NonUniformCardinalityError,
    ParseError,
    UnknownFaceError,
)

Face = Tuple[int, ...]


def as_face(vertices: Iterable[int]) -> Face:
    """Canonical face form: strictly ascending tuple of vertex ids."""
    return tuple(sorted(int(v) for v in vertices))


class SimplicialComplex:
    """Immutable pure d-dimensional complex with rational face weights."""

    def __init__(
        self,
        dimension: int,
        top_faces: Sequence[Iterable[int]],
        top_weights: Optional[Mapping[Face, Fraction]] = None,
    ):
        if dimension < 0:
            raise BadDimensionError(f"dimension must be >= 0, got {dimension}")
        tops: List[Face] = []
        seen = set()
        for raw in top_faces:
            face = as_face(raw)
            if len(face) != dimension + 1 or len(set(face)) != dimension + 1:
                raise NonUniformCardinalityError(
                    f"top face {tuple(raw)} does not have {dimension + 1} distinct vertices"
                )
            if face in seen:
                raise DuplicateTopFaceError(f"top face {face} listed twice")
            seen.add(face)
            tops.append(face)
        if not tops:
            raise EmptyInputError("at least one top face is required")
        tops.sort()

        self.dimension = dimension
        if top_weights is None:
            uniform = Fraction(1, len(tops))
            weights = {face: uniform for face in tops}
        else:
            weights = {}
            for face in tops:
                if face not in top_weights:
                    raise EmptyInputError(f"missing weight for top face {face}")
                w = Fraction(top_weights[face])
                if w <= 0:
                    raise NonUniformCardinalityError(f"weight of {face} must be positive")
                weights[face] = w
            if sum(weights.values()) != 1:
                raise NonUniformCardinalityError("top weights must sum to 1")
        self.top_weights: Dict[Face, Fraction] = weights

        # One pass over the top faces builds the downward closure, including
        # X(-1) = {()}, with exact distributions P_k(f) = _num[k][f] / _den[k].
        # Closure, purity and total mass 1 hold by construction: every face is
        # a subset of a top face, and the top weights sum to 1.
        scale = lcm(*(w.denominator for w in weights.values()))
        num: Dict[int, Dict[Face, int]] = {k: {} for k in range(-1, dimension + 1)}
        for top in tops:
            wnum = int(weights[top] * scale)
            for size in range(0, dimension + 2):
                bucket = num[size - 1]
                for sub in combinations(top, size):
                    bucket[sub] = bucket.get(sub, 0) + wnum
        self._num = num
        self._faces: Dict[int, Tuple[Face, ...]] = {k: tuple(sorted(num[k])) for k in num}
        self._den: Dict[int, int] = {
            k: scale * comb(dimension + 1, k + 1) for k in range(-1, dimension + 1)
        }

        self._facets: Dict[int, np.ndarray] = {}
        self._links: Dict[Face, "SimplicialComplex"] = {}

    # -- structure ---------------------------------------------------------

    def faces(self, k: int) -> Tuple[Face, ...]:
        if not -1 <= k <= self.dimension:
            raise BadDimensionError(f"no faces of dimension {k} in a {self.dimension}-complex")
        return self._faces[k]

    def face_count(self, k: int) -> int:
        return len(self.faces(k))

    def has_face(self, face: Face) -> bool:
        k = len(face) - 1
        return -1 <= k <= self.dimension and face in self._num[k]

    def require_face(self, face: Face) -> None:
        if not self.has_face(face):
            raise UnknownFaceError(f"face {face} is not in the complex")

    def vertices(self) -> Tuple[int, ...]:
        return tuple(f[0] for f in self._faces[0])

    def facets(self, k: int) -> np.ndarray:
        """Row j, column i: the index in faces(k-1) of faces(k)[j] without its
        i-th vertex.  Built once per complex (links are cached), read-only."""
        if not 0 <= k <= self.dimension:
            raise BadDimensionError(f"no facet table for X({k}) in a {self.dimension}-complex")
        if k not in self._facets:
            index = {face: c for c, face in enumerate(self._faces[k - 1])}
            rows = [[index[f[:i] + f[i + 1 :]] for i in range(k + 1)] for f in self._faces[k]]
            table = np.array(rows, dtype=np.intp)
            table.flags.writeable = False
            self._facets[k] = table
        return self._facets[k]

    # -- weights -----------------------------------------------------------

    def weight_numerator(self, face: Face) -> int:
        return self._num[len(face) - 1][face]

    def weight_denominator(self, k: int) -> int:
        return self._den[k]

    def face_weight(self, face: Face) -> Fraction:
        face = tuple(face)
        self.require_face(face)
        return Fraction(self._num[len(face) - 1][face], self._den[len(face) - 1])

    def set_weight(self, faces: Iterable[Face], k: int) -> Fraction:
        """Total P_k mass of a set of k-faces."""
        num = self._num[k]
        total = 0
        for face in faces:
            if face not in num:
                raise UnknownFaceError(f"face {face} is not a {k}-face of the complex")
            total += num[face]
        return Fraction(total, self._den[k])

    def mutual_weight_sets(self, a_faces: Iterable[Face], k: int, b_faces, ell: int) -> Fraction:
        """Pr over a random k-face and a uniform ell-subface of landing in (A, B)."""
        if not -1 <= ell < k:
            raise DimensionMismatchError(f"need -1 <= ell < k, got ell={ell}, k={k}")
        b_set = frozenset(b_faces)
        num = self._num[k]
        total = 0
        for face in a_faces:
            if face not in num:
                raise UnknownFaceError(f"face {face} is not a {k}-face of the complex")
            hits = sum(1 for sub in combinations(face, ell + 1) if sub in b_set)
            if hits:
                total += num[face] * hits
        return Fraction(total, self._den[k] * comb(k + 1, ell + 1))

    def localized_weight(self, a_faces: Iterable[Face], k: int, sigma: Face) -> Fraction:
        """Weight of the localization of a set of k-faces inside the link of sigma.

        Uses the closed form: the link mass over the k-faces containing sigma
        equals num(sigma) * C(d - dim(sigma), k - dim(sigma)).
        """
        self.require_face(sigma)
        s = len(sigma) - 1
        if not s < k <= self.dimension:
            raise DimensionMismatchError(f"need dim(sigma)={s} < k={k} <= d")
        num = self._num[k]
        sig = set(sigma)
        total = 0
        for face in a_faces:
            if sig.issubset(face):
                total += num[face]
        den = self._num[s][sigma] * comb(self.dimension - s, k - s)
        return Fraction(total, den)

    # -- derived complexes --------------------------------------------------

    def link(self, sigma: Face) -> "SimplicialComplex":
        sigma = tuple(sigma)
        self.require_face(sigma)
        if len(sigma) - 1 >= self.dimension:
            raise BadDimensionError("the link of a top-dimensional face is empty")
        if sigma not in self._links:
            sig = set(sigma)
            tops = []
            weights = {}
            mass = self._num[len(sigma) - 1][sigma]
            top_num = self._num[self.dimension]
            for top in self.top_weights:
                if sig.issubset(top):
                    rest = tuple(v for v in top if v not in sig)
                    tops.append(rest)
                    weights[rest] = Fraction(top_num[top], mass)
            link = SimplicialComplex(self.dimension - len(sigma), tops, weights)
            self._links[sigma] = link
        return self._links[sigma]

    def degree_bound(self) -> int:
        """Max number of top faces containing any single vertex."""
        counts: Dict[int, int] = {}
        for top in self.top_weights:
            for v in top:
                counts[v] = counts.get(v, 0) + 1
        return max(counts.values())

    @property
    def is_uniform(self) -> bool:
        values = set(self.top_weights.values())
        return len(values) == 1

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"dim {self.dimension}"]
        weighted = not self.is_uniform
        for top in sorted(self.top_weights):
            entry = " ".join(map(str, top))
            if weighted:
                w = self.top_weights[top]
                entry += f" w {w.numerator}/{w.denominator}"
            lines.append(entry)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SimplicialComplex":
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines or not lines[0].startswith("dim "):
            raise ParseError("complex file must start with a 'dim d' header")
        try:
            dimension = int(lines[0].split()[1])
        except (IndexError, ValueError) as exc:
            raise ParseError(f"bad header {lines[0]!r}") from exc
        tops = []
        weights = {}
        weighted = False
        for line in lines[1:]:
            parts = line.split()
            if "w" in parts:
                at = parts.index("w")
                if at != len(parts) - 2:
                    raise ParseError(f"malformed weight suffix in {line!r}")
                try:
                    ids = [int(p) for p in parts[:at]]
                    w = Fraction(parts[at + 1])
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"malformed line {line!r}") from exc
                weighted = True
            else:
                try:
                    ids = [int(p) for p in parts]
                except ValueError as exc:
                    raise ParseError(f"malformed line {line!r}") from exc
                w = None
            face = as_face(ids)
            tops.append(face)
            if w is not None:
                weights[face] = w
        if weighted and len(weights) != len(tops):
            raise ParseError("either all or no top faces may carry weights")
        return cls(dimension, tops, weights if weighted else None)

    def __repr__(self) -> str:
        sizes = ", ".join(f"|X({k})|={len(self._faces[k])}" for k in range(self.dimension + 1))
        return f"SimplicialComplex(d={self.dimension}, {sizes})"


@dataclass(frozen=True)
class FaceSet:
    """A weighted subset of X(k), tied to its owning complex."""

    complex: SimplicialComplex
    dimension: int
    faces: FrozenSet[Face]

    @classmethod
    def make(cls, complex: SimplicialComplex, k: int, faces: Iterable[Iterable[int]]) -> "FaceSet":
        members = frozenset(as_face(f) for f in faces)
        universe = frozenset(complex.faces(k))
        stray = members - universe
        if stray:
            raise UnknownFaceError(f"faces {sorted(stray)[:3]} are not {k}-faces of the complex")
        return cls(complex, k, members)

    @property
    def weight(self) -> Fraction:
        return self.complex.set_weight(self.faces, self.dimension)

    def __contains__(self, face: Face) -> bool:
        return face in self.faces

    def __iter__(self):
        return iter(sorted(self.faces))

    def __len__(self) -> int:
        return len(self.faces)

