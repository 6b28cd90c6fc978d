"""Pure simplicial complexes with exact rational face distributions.

A d-dimensional complex is stored as the full downward closure of its top
faces, including the (-1)-dimensional empty face.  The top distribution P_d
(uniform by default) induces P_k for every k by picking a top face and then a
uniform (k+1)-subset; all weights are kept as exact integer numerators over a
per-dimension denominator so hot loops never touch Fraction arithmetic.  One
bulk numpy closure builds every dimension from the sorted top faces' vertex
ranks: the (k+1)-subsets of all tops are sorted together, each run of equal
rows is a face of ``faces(k)``, the layout of every cochain's value row, and
its numerator in ``weight_numerators(k)`` sums the run.  The runs also give
``facets(k)``, the incidence of X(k) on X(k-1), and every link, which is closed
the same way; ``link_index`` tables the faces sigma + tau through sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, gcd, lcm
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import BadDimensionError, DimensionMismatchError, DuplicateTopFaceError, EmptyInputError
from .errors import NonUniformCardinalityError, ParseError, UnknownFaceError

Face = Tuple[int, ...]


def as_face(vertices: Iterable[int]) -> Face:
    """Canonical face form: strictly ascending tuple of vertex ids."""
    return tuple(sorted(int(v) for v in vertices))


@lru_cache(maxsize=None)
def _subsets(n: int, size: int) -> np.ndarray:
    """The size-subsets of range(n) in lexicographic order, one per row; shared, so read only."""
    return np.array(list(combinations(range(n), size)), dtype=np.intp)


@lru_cache(maxsize=None)
def _facet_places(n: int, k: int) -> np.ndarray:
    """Row c, column i: the index in _subsets(n, k) of _subsets(n, k + 1)[c] less its
    i-th place; shared, so read only."""
    lower = {sub: c for c, sub in enumerate(combinations(range(n), k))}
    rows = [[lower[sub[:i] + sub[i + 1 :]] for i in range(k + 1)] for sub in combinations(range(n), k + 1)]
    return np.array(rows, dtype=np.intp)


class SimplicialComplex:
    """Immutable pure d-dimensional complex with rational face weights."""

    def __init__(
        self,
        dimension: int,
        top_faces: Sequence[Iterable[int]],
        top_weights: Optional[Mapping[Face, Fraction]] = None,
    ):
        raws = [tuple(raw) for raw in top_faces]
        self._load(dimension, [[int(v) for v in raw] for raw in raws], raws.__getitem__, top_weights)

    def _load(self, dimension: int, rows: Sequence[Sequence[int]], shown: Callable[[int], Tuple], top_weights):
        """Validate top faces given as rows of int vertex ids, naming the first offender
        in input order as shown(i) prints it, and close them over their vertex ranks."""
        if dimension < 0:
            raise BadDimensionError(f"dimension must be >= 0, got {dimension}")
        width = dimension + 1
        good = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
        flat = list(chain.from_iterable(rows[:good]))
        ids = sorted(set(flat))
        dtype = np.int64 if not ids or -(2**63) <= ids[0] <= ids[-1] < 2**63 else object
        ids, flat = np.array(ids, dtype=dtype), np.array(flat, dtype=dtype)
        tops = np.sort(np.searchsorted(ids, flat).reshape(good, width), axis=1, kind="stable")
        repeated = (tops[:, 1:] == tops[:, :-1]).any(axis=1)
        order = np.lexsort(tops.T[::-1])
        tops = tops[order]
        twice = order[1:][(tops[1:] == tops[:-1]).all(axis=1)]
        bad = min([good, *np.flatnonzero(repeated)[:1].tolist(), *twice.tolist()])
        if bad < len(rows):
            if bad == good or repeated[bad]:
                raise NonUniformCardinalityError(f"top face {shown(bad)} does not have {width} distinct vertices")
            raise DuplicateTopFaceError(f"top face {as_face(rows[bad])} listed twice")
        if not rows:
            raise EmptyInputError("at least one top face is required")
        if top_weights is None:
            return self._close(dimension, ids, tops, np.ones(len(tops), dtype=np.int64), len(tops))
        weights = []
        for face in map(tuple, ids[tops].tolist()):
            if face not in top_weights:
                raise EmptyInputError(f"missing weight for top face {face}")
            w = Fraction(top_weights[face])
            if w <= 0:
                raise NonUniformCardinalityError(f"weight of {face} must be positive")
            weights.append(w)
        if sum(weights) != 1:
            raise NonUniformCardinalityError("top weights must sum to 1")
        scale = lcm(*(w.denominator for w in weights))
        return self._close(dimension, ids, tops, np.array([int(w * scale) for w in weights], dtype=object), scale)

    def _close(self, dimension: int, ids: np.ndarray, tops: np.ndarray, top_num: np.ndarray, scale: int):
        """The downward closure of distinct top faces, given as lexicographically
        sorted rows of ascending ranks into the vertex ids, with P_d(top) =
        top_num[top] / scale, including X(-1) = {()}.  For each k the
        (k+1)-subsets of every top are sorted together, and each run of equal
        rows becomes one face of faces(k), whose numerator of P_k sums the run's
        top numerators over the denominator scale * C(d+1, k+1).  Closure, purity
        and total mass 1 hold by construction."""
        self.dimension = dimension
        self._ids = ids
        self._den: Dict[int, int] = {k: scale * comb(dimension + 1, k + 1) for k in range(-1, dimension + 1)}
        self._ranks = {-1: tops[:1, :0], dimension: tops}
        every = np.arange(len(tops))
        # Per dimension, the (top, subset) pairs in sorted order and where each face's run starts.
        self._runs = {-1: (every, every[:1]), dimension: (every, every)}
        # Sums stay below the largest denominator; each row is narrowed to its own at the end.
        top_num = top_num.astype(object if max(self._den.values()) >= 2**63 else np.int64, copy=False)
        self._rows = {-1: np.array([scale], dtype=top_num.dtype), dimension: top_num}
        for k in range(dimension):
            subsets = _subsets(dimension + 1, k + 1)
            sub = tops[:, subsets].reshape(len(tops) * len(subsets), k + 1)
            order = np.lexsort(sub.T[::-1])
            sub = sub[order]
            first = np.empty(len(sub), dtype=bool)
            first[0] = True
            np.not_equal(sub[1:], sub[:-1]).any(axis=1, out=first[1:])
            starts = first.nonzero()[0]
            self._runs[k] = order, starts
            self._ranks[k] = sub[starts]
            self._rows[k] = np.add.reduceat(top_num.repeat(len(subsets))[order], starts)
        for k, row in self._rows.items():
            self._rows[k] = row.astype(np.int64 if self._den[k] < 2**63 else object, copy=False)
            self._rows[k].flags.writeable = False
        self._faces, self._index, self._facets, self._links, self._link_index = {}, {}, {}, {}, {}
        return self

    # -- structure ---------------------------------------------------------

    def faces(self, k: int) -> Tuple[Face, ...]:
        if not -1 <= k <= self.dimension:
            raise BadDimensionError(f"no faces of dimension {k} in a {self.dimension}-complex")
        if k not in self._faces:
            self._faces[k] = tuple(map(tuple, self._ids[self._ranks[k]].tolist()))
        return self._faces[k]

    def face_count(self, k: int) -> int:
        return len(self.faces(k))

    def has_face(self, face: Face) -> bool:
        k = len(face) - 1
        return -1 <= k <= self.dimension and face in self.face_index(k)

    def require_face(self, face: Face) -> None:
        if not self.has_face(face):
            raise UnknownFaceError(f"face {face} is not in the complex")

    def vertices(self) -> Tuple[int, ...]:
        return tuple(self._ids[self._ranks[0][:, 0]].tolist())

    def face_index(self, k: int) -> Dict[Face, int]:
        """Face -> its position in faces(k), built once per dimension."""
        if k not in self._index:
            faces = self.faces(k)
            self._index[k] = dict(zip(faces, range(len(faces))))
        return self._index[k]

    def facets(self, k: int) -> np.ndarray:
        """Row j, column i: the index in faces(k-1) of faces(k)[j] without its
        i-th vertex.  Built once per complex (links are cached), read-only: the
        first (top, subset) pair of face j's run, less the subset's i-th place,
        is a pair in the run of the facet."""
        if not 0 <= k <= self.dimension:
            raise BadDimensionError(f"no facet table for X({k}) in a {self.dimension}-complex")
        if k not in self._facets:
            n = self.dimension + 1
            order, starts = self._runs[k]
            top, sub = np.divmod(order[starts], comb(n, k + 1))
            order, starts = self._runs[k - 1]
            below = np.empty(len(order), dtype=np.intp)
            below[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(order)))
            table = below[top[:, None] * comb(n, k) + _facet_places(n, k)[sub]]
            table.flags.writeable = False
            self._facets[k] = table
        return self._facets[k]

    # -- weights -----------------------------------------------------------

    @property
    def top_weights(self) -> Dict[Face, Fraction]:
        d = self.dimension
        return {top: Fraction(n, self._den[d]) for top, n in zip(self.faces(d), self._rows[d].tolist())}

    def weight_numerator(self, face: Face) -> int:
        try:
            return self._rows[len(face) - 1].item(self._index[len(face) - 1][face])
        except KeyError:  # an unknown face, or an index not built yet
            self.require_face(face)
            return self.weight_numerator(face)

    def weight_numerators(self, k: int) -> np.ndarray:
        """The numerators of P_k as one row over faces(k), read-only: int64
        while the denominator, a bound on every partial sum, is below 2^63,
        Python ints past that."""
        return self._rows[k]

    def weight_denominator(self, k: int) -> int:
        return self._den[k]

    def face_weight(self, face: Face) -> Fraction:
        face = tuple(face)
        return Fraction(self.weight_numerator(face), self._den[len(face) - 1])

    def _numerators(self, faces: Iterable[Face], k: int) -> List[int]:
        """The P_k numerators of k-faces, in the order given."""
        index, row = self.face_index(k), self._rows[k]
        try:
            return [row.item(index[face]) for face in faces]
        except KeyError as exc:
            raise UnknownFaceError(f"face {exc.args[0]} is not a {k}-face of the complex") from None

    def set_weight(self, faces: Iterable[Face], k: int) -> Fraction:
        """Total P_k mass of a set of k-faces."""
        return Fraction(sum(self._numerators(faces, k)), self._den[k])

    def mutual_weight_sets(self, a_faces: Iterable[Face], k: int, b_faces, ell: int) -> Fraction:
        """Pr over a random k-face and a uniform ell-subface of landing in (A, B)."""
        if not -1 <= ell < k:
            raise DimensionMismatchError(f"need -1 <= ell < k, got ell={ell}, k={k}")
        b_set = frozenset(b_faces)
        a_faces = list(a_faces)
        nums = self._numerators(a_faces, k)
        total = sum(n * sum(sub in b_set for sub in combinations(face, ell + 1)) for n, face in zip(nums, a_faces))
        return Fraction(total, self._den[k] * comb(k + 1, ell + 1))

    def localized_weight(self, a_faces: Iterable[Face], k: int, sigma: Face) -> Fraction:
        """Weight of the localization of a set of k-faces inside the link of sigma.

        Uses the closed form: the link mass over the k-faces containing sigma
        equals num(sigma) * C(d - dim(sigma), k - dim(sigma)).
        """
        mass = self.weight_numerator(sigma)
        s = len(sigma) - 1
        if not s < k <= self.dimension:
            raise DimensionMismatchError(f"need dim(sigma)={s} < k={k} <= d")
        sig = set(sigma)
        nums = self._numerators([face for face in a_faces if sig.issubset(face)], k)
        return Fraction(sum(nums), mass * comb(self.dimension - s, k - s))

    # -- derived complexes --------------------------------------------------

    def link(self, sigma: Face) -> "SimplicialComplex":
        """The complex of faces tau with sigma + tau in X, weighted by P_d
        conditioned on containing sigma; the link of () is X itself.  Its tops
        are the tops whose subsets formed sigma's run in the closure, with
        sigma's places dropped, which keeps them sorted and distinct."""
        sigma = tuple(sigma)
        self.require_face(sigma)
        if len(sigma) - 1 >= self.dimension:
            raise BadDimensionError("the link of a top-dimensional face is empty")
        if not sigma:
            return self
        if sigma not in self._links:
            s, d = len(sigma) - 1, self.dimension
            at = self.face_index(s)[sigma]
            order, starts = self._runs[s]
            end = starts[at + 1] if at + 1 < len(starts) else len(order)
            top, sub = np.divmod(order[starts[at] : end], comb(d + 1, s + 1))
            nums = self._rows[d][top]
            mass = self._rows[s].item(at)
            # The reduced fractions top_num / mass share the denominator mass // g.
            g = gcd(mass, *nums.tolist())
            # Complements reverse the lexicographic order of subsets.
            rest = self._ranks[d][top[:, None], _subsets(d + 1, d - s)[::-1][sub]]
            link = SimplicialComplex.__new__(SimplicialComplex)
            self._links[sigma] = link._close(d - s - 1, self._ids, rest, nums // g, mass // g)
        return self._links[sigma]

    def link_index(self, sigma: Face, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """For the j-faces tau of link(sigma), in order: the index of sigma + tau
        in faces(j + |sigma|), and whether that ordering is odd, having an odd
        number of pairs s > t with s in sigma, t in tau.  Built once, read-only,
        from the rank rows: the faces holding sigma in index order (their taus'
        order); sigma's i-th vertex, in column c, exceeds c - i vertices of tau."""
        sigma = tuple(sigma)
        if (sigma, j) not in self._link_index:
            self.require_face(sigma)
            s, d = len(sigma) - 1, self.dimension
            if s >= d:
                raise BadDimensionError("the link of a top-dimensional face is empty")
            if not -1 <= j < d - s:
                raise BadDimensionError(f"no faces of dimension {j} in a {d - s - 1}-complex")
            rows = self._ranks[j + s + 1]
            mine = (rows[:, :, None] == self._ranks[s][self.face_index(s)[sigma]]).any(axis=2)
            at = np.flatnonzero(mine.sum(axis=1) == len(sigma))
            odd = (mine[at] @ np.arange(rows.shape[1]) - comb(len(sigma), 2)) % 2 == 1
            at.flags.writeable = odd.flags.writeable = False
            self._link_index[sigma, j] = (at, odd)
        return self._link_index[sigma, j]

    def degree_bound(self) -> int:
        """Max number of top faces containing any single vertex."""
        return int(np.bincount(self._ranks[self.dimension].ravel()).max())

    @property
    def is_uniform(self) -> bool:
        return len(set(self._rows[self.dimension].tolist())) == 1

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"dim {self.dimension}"]
        weighted = not self.is_uniform
        for top, w in self.top_weights.items():
            lines.append(" ".join(map(str, top)) + (f" w {w.numerator}/{w.denominator}" if weighted else ""))
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
        rows: List[List[int]] = []
        weights = {}
        for line in lines[1:]:
            parts = line.split()
            at = parts.index("w") if "w" in parts else len(parts)
            if at < len(parts) and at != len(parts) - 2:
                raise ParseError(f"malformed weight suffix in {line!r}")
            try:
                rows.append(list(map(int, parts[:at])))
                if at < len(parts):
                    # An exponent names a huge integer in a few characters; weights are p/q.
                    if "e" in parts[at + 1].lower():
                        raise ValueError("exponent in a weight")
                    weights[as_face(rows[-1])] = Fraction(parts[at + 1])
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"malformed line {line!r}") from exc
        if weights and len(weights) != len(rows):
            raise ParseError("either all or no top faces may carry weights")
        return cls.__new__(cls)._load(dimension, rows, lambda i: as_face(rows[i]), weights or None)

    def __repr__(self) -> str:
        sizes = ", ".join(f"|X({k})|={len(self._ranks[k])}" for k in range(self.dimension + 1))
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
        index = complex.face_index(k)
        stray = [face for face in members if face not in index]
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

