"""Group-valued cochains on ordered faces.

A k-cochain stores one group element per canonical (ascending) face; values on
other orderings are derived from the permutation sign: for abelian groups the
sign acts as negation, for non-abelian groups an odd permutation returns the
inverse.  Value maps are sparse: an absent face means zero/identity.

The coboundary operator is defined for all k <= d-1 over abelian groups.  The
multiplicative coboundary is defined in dimensions 0 and 1 only and works over
any group:

    d0: (u, v)    ->  f(u) f(v)^-1
    d1: (u, v, w) ->  g(u,v) g(v,w) g(w,u)

Every coboundary is a product of f over the facets of a face, read from the
complex's facet table (``SimplicialComplex.facets``): a term list names the
facets in order, each as (i, inverted) for the face without its i-th vertex.
One numpy kernel, ``face_products``, evaluates such products for whole blocks
of assignments; the coboundaries, the vertex action ``act`` and the exhaustive
scans of the correction layer all run on it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .complexes import Face, SimplicialComplex, as_face
from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    GroupMismatchError,
    NonAbelianGroupError,
    ParseError,
    UndefinedCoboundaryError,
    UnknownFaceError,
)
from .groups import FiniteGroup, group_from_spec


def perm_parity(ordered: Tuple[int, ...]) -> int:
    """+1 for an even permutation of the sorted tuple, -1 for an odd one."""
    inversions = sum(
        1
        for i in range(len(ordered))
        for j in range(i + 1, len(ordered))
        if ordered[i] > ordered[j]
    )
    return -1 if inversions % 2 else 1


class Cochain:
    """An antisymmetric assignment of group elements to the k-faces."""

    __slots__ = ("complex", "dimension", "group", "values")

    def __init__(
        self,
        complex: SimplicialComplex,
        dimension: int,
        group: FiniteGroup,
        values: Optional[Dict[Face, int]] = None,
        _trusted: bool = False,
    ):
        if not -1 <= dimension <= complex.dimension:
            raise BadDimensionError(
                f"cochain dimension {dimension} out of range for a {complex.dimension}-complex"
            )
        self.complex = complex
        self.dimension = dimension
        self.group = group
        if values is None:
            self.values = {}
        elif _trusted:
            self.values = values
        else:
            clean: Dict[Face, int] = {}
            for face, idx in values.items():
                face = tuple(face)
                if not complex.has_face(face) or len(face) - 1 != dimension:
                    raise UnknownFaceError(f"{face} is not a {dimension}-face of the complex")
                idx = int(idx)
                if not 0 <= idx < group.order:
                    raise GroupMismatchError(f"element index {idx} out of range for {group.name}")
                if idx != group.identity:
                    clean[face] = idx
            self.values = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, complex: SimplicialComplex, dimension: int, group: FiniteGroup) -> "Cochain":
        return cls(complex, dimension, group)

    def copy_with(self, values: Dict[Face, int]) -> "Cochain":
        return Cochain(self.complex, self.dimension, self.group, values, _trusted=True)

    # -- evaluation ----------------------------------------------------------

    def value(self, face: Face) -> int:
        """Value on the canonical (ascending) ordering of a face."""
        return self.values.get(face, self.group.identity)

    def eval(self, ordered: Tuple[int, ...]) -> int:
        ordered = tuple(ordered)
        face = tuple(sorted(ordered))
        if len(face) - 1 != self.dimension or not self.complex.has_face(face):
            raise UnknownFaceError(f"{ordered} is not an ordering of a {self.dimension}-face")
        if len(set(ordered)) != len(ordered):
            raise UnknownFaceError(f"{ordered} repeats a vertex")
        got = self.values.get(face, self.group.identity)
        return self.group.signed(got, perm_parity(ordered))

    def support(self) -> FrozenSet[Face]:
        return frozenset(self.values)

    def weight(self) -> Fraction:
        return self.complex.set_weight(self.values, self.dimension)

    def is_zero(self) -> bool:
        return not self.values

    # -- abelian arithmetic ----------------------------------------------------

    def _require_same(self, other: "Cochain") -> None:
        if self.complex is not other.complex:
            raise DimensionMismatchError("cochains live on different complexes")
        if self.dimension != other.dimension:
            raise DimensionMismatchError("cochains have different dimensions")
        if self.group is not other.group:
            raise GroupMismatchError("cochains take values in different groups")

    def _require_abelian(self) -> None:
        if not self.group.is_abelian:
            raise NonAbelianGroupError(f"{self.group.name} is not abelian")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._require_same(other)
        self._require_abelian()
        g = self.group
        out = dict(self.values)
        for face, idx in other.values.items():
            new = g.op(out.get(face, 0), idx)
            if new:
                out[face] = new
            else:
                out.pop(face, None)
        return self.copy_with(out)

    def __neg__(self) -> "Cochain":
        self._require_abelian()
        g = self.group
        return self.copy_with({face: g.inv(idx) for face, idx in self.values.items()})

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.complex is other.complex
            and self.dimension == other.dimension
            and self.group is other.group
            and self.values == other.values
        )

    def __hash__(self):
        return hash((id(self.complex), self.dimension, id(self.group), frozenset(self.values.items())))

    # -- slicing ---------------------------------------------------------------

    def localize(self, sigma: Face) -> "Cochain":
        """The (k - |sigma|)-cochain tau -> f(sigma tau) on the link of sigma."""
        sigma = tuple(sigma)
        self.complex.require_face(sigma)
        if len(sigma) - 1 >= self.dimension:
            raise DimensionMismatchError("localization needs dim(sigma) < dim(f)")
        link = self.complex.link(sigma)
        sig = set(sigma)
        g = self.group
        out: Dict[Face, int] = {}
        for face, idx in self.values.items():
            if sig.issubset(face):
                rest = tuple(v for v in face if v not in sig)
                # f_sigma(rest) = f(sigma + rest); both parts are sorted, so the
                # sign is the parity of the concatenation.
                sign = perm_parity(sigma + rest)
                out[rest] = g.signed(idx, sign)
        return Cochain(link, self.dimension - len(sigma), g, out, _trusted=True)

    def restrict(self, vertex: int) -> "Cochain":
        """The same-dimension cochain keeping the faces visible in a vertex link."""
        v_face = (vertex,)
        self.complex.require_face(v_face)
        link = self.complex.link(v_face)
        if self.dimension > link.dimension:
            raise DimensionMismatchError("cochain dimension exceeds link dimension")
        out = {
            face: idx
            for face, idx in self.values.items()
            if link.has_face(face)
        }
        return Cochain(link, self.dimension, self.group, out, _trusted=True)

    # -- coboundary --------------------------------------------------------------

    def coboundary(self) -> "Cochain":
        if self.group.is_abelian:
            return coboundary_abelian(self)
        if self.dimension == 0:
            return coboundary_nonabelian_0(self)
        if self.dimension == 1:
            return coboundary_nonabelian_1(self)
        raise UndefinedCoboundaryError(
            "the multiplicative coboundary exists only in dimensions 0 and 1"
        )

    def is_cocycle(self) -> bool:
        return self.coboundary().is_zero()


# -- the face-product kernel ----------------------------------------------------------

#: (i, inverted) pairs naming facets by the vertex they drop; see the module docstring.
Terms = Sequence[Tuple[int, bool]]

#: d0 on (u, v): f(u) f(v)^-1.
DELTA0_TERMS: Terms = ((1, False), (0, True))
#: d1 on (u, v, w): g(uv) g(vw) g(uw)^-1, since g(w,u) = g(u,w)^-1.
DELTA1_TERMS: Terms = ((2, False), (0, False), (1, True))


def additive_terms(k: int) -> Terms:
    """Terms of the alternating sum  sum_i (-1)^i f(face minus vertex i)  on X(k+1)."""
    return tuple((i, i % 2 == 1) for i in range(k + 2))


def term_columns(X: SimplicialComplex, k: int, terms: Terms) -> List[np.ndarray]:
    """Kernel columns of the facets of X(k) named by terms (see face_products)."""
    table, n = X.facets(k), len(X.faces(k - 1))
    return [table[:, i] + n if inverted else table[:, i] for i, inverted in terms]


def face_products(
    G: FiniteGroup,
    x: np.ndarray,
    const: np.ndarray,
    left: Sequence[np.ndarray],
    right: Sequence[np.ndarray],
) -> np.ndarray:
    """Per row of x, the face values  x[left...] * const * x[right...].

    x is a (rows, n) array of element indices and const has one entry per
    face.  Each column array in ``left``/``right`` holds one index per face:
    c < n means x[c], n + c means x[c]^-1.  The factors multiply in list
    order.  Returns a (rows, faces) array.
    """
    xs = np.concatenate([x, G.inv_array(x)], axis=1)
    acc = np.broadcast_to(const, (len(x), len(const)))
    for cols in reversed(left):
        acc = G.op_array(xs[:, cols], acc)
    for cols in right:
        acc = G.op_array(acc, xs[:, cols])
    return acc


def _row(f: Cochain) -> np.ndarray:
    """The values of f as a one-row array over X(k): int64 while the sum of two
    element indices fits in it, Python ints past that."""
    values = [f.values.get(face, 0) for face in f.complex.faces(f.dimension)]
    return np.array([values], dtype=np.int64 if f.group.order <= 2**62 else object)


def _from_row(X: SimplicialComplex, k: int, G: FiniteGroup, row: np.ndarray) -> Cochain:
    """The k-cochain holding the non-identity entries of row."""
    faces, hit = X.faces(k), np.flatnonzero(row)
    values = dict(zip([faces[j] for j in hit.tolist()], row[hit].tolist()))
    return Cochain(X, k, G, values, _trusted=True)


def _coboundary(f: Cochain, terms: Terms) -> Cochain:
    """delta(f) as the product over the facets that terms names, in order."""
    X, k, x = f.complex, f.dimension, _row(f)
    identity = np.zeros(len(X.faces(k + 1)), dtype=x.dtype)
    row = face_products(f.group, x, identity, [], term_columns(X, k + 1, terms))[0]
    return _from_row(X, k + 1, f.group, row)


def coboundary_abelian(f: Cochain) -> Cochain:
    """Alternating-sum coboundary; defined for k <= d-1 over abelian groups."""
    if not f.group.is_abelian:
        raise NonAbelianGroupError("the alternating-sum coboundary needs an abelian group")
    if f.dimension >= f.complex.dimension:
        raise BadDimensionError("no coboundary above the top dimension")
    return _coboundary(f, additive_terms(f.dimension))


def coboundary_nonabelian_0(f: Cochain) -> Cochain:
    """(u, v) -> f(u) f(v)^-1; defined over any group."""
    if f.dimension != 0:
        raise UndefinedCoboundaryError("expected a 0-cochain")
    if f.complex.dimension < 1:
        raise BadDimensionError("the complex has no edges")
    return _coboundary(f, DELTA0_TERMS)


def coboundary_nonabelian_1(f: Cochain) -> Cochain:
    """(u, v, w) -> f(u,v) f(v,w) f(w,u); defined over any group."""
    if f.dimension != 1:
        raise UndefinedCoboundaryError("expected a 1-cochain")
    if f.complex.dimension < 2:
        raise BadDimensionError("the complex has no triangles")
    return _coboundary(f, DELTA1_TERMS)


def distance(f: Cochain, g: Cochain) -> Fraction:
    """Weighted fraction of faces on which the two cochains differ."""
    f._require_same(g)
    diff = [
        face
        for face in set(f.values) | set(g.values)
        if f.values.get(face, 0) != g.values.get(face, 0)
    ]
    return f.complex.set_weight(diff, f.dimension)


def act(f0: Cochain, g1: Cochain) -> Cochain:
    """The vertex-relabeling action (f.g)(u,v) = f(u) g(u,v) f(v)^-1."""
    if f0.dimension != 0 or g1.dimension != 1:
        raise DimensionMismatchError("the action pairs a 0-cochain with a 1-cochain")
    if f0.complex is not g1.complex:
        raise DimensionMismatchError("cochains live on different complexes")
    if f0.group is not g1.group:
        raise GroupMismatchError("cochains take values in different groups")
    X, G = g1.complex, g1.group
    # d0 with g1 between its two factors: f(u) g(u,v) f(v)^-1.
    left, right = term_columns(X, 1, DELTA0_TERMS[:1]), term_columns(X, 1, DELTA0_TERMS[1:])
    row = face_products(G, _row(f0), _row(g1)[0], left, right)[0]
    return _from_row(X, 1, G, row)


def is_cocycle(f: Cochain) -> bool:
    return f.is_cocycle()


def random_cochain(
    complex: SimplicialComplex,
    dimension: int,
    group: FiniteGroup,
    rng: random.Random,
    density: float = 0.3,
) -> Cochain:
    """Sparse random cochain; each face independently gets a random non-identity value."""
    values: Dict[Face, int] = {}
    if group.order > 1:
        for face in complex.faces(dimension):
            if rng.random() < density:
                values[face] = rng.randrange(1, group.order)
    return Cochain(complex, dimension, group, values, _trusted=True)


# -- file format ---------------------------------------------------------------


def cochain_to_text(f: Cochain) -> str:
    lines = [f"dim {f.dimension} group {f.group.spec}"]
    for face in sorted(f.values):
        lines.append(" ".join(map(str, face)) + f" {f.values[face]}")
    return "\n".join(lines) + "\n"


def cochain_from_text(
    text: str,
    complex: SimplicialComplex,
    group: Optional[FiniteGroup] = None,
) -> Cochain:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty cochain file")
    header = lines[0].split()
    if len(header) < 4 or header[0] != "dim" or header[2] != "group":
        raise ParseError("cochain file must start with 'dim k group <spec>'")
    try:
        dimension = int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad dimension in header {lines[0]!r}") from exc
    spec = " ".join(header[3:])
    if group is None:
        group = group_from_spec(spec)
    values: Dict[Face, int] = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != dimension + 2:
            raise ParseError(f"expected {dimension + 1} vertex ids and a value: {line!r}")
        try:
            ids = [int(p) for p in parts[:-1]]
            idx = int(parts[-1])
        except ValueError as exc:
            raise ParseError(f"malformed line {line!r}") from exc
        face = as_face(ids)
        if list(face) != ids:
            raise ParseError(f"faces must be listed in canonical ascending order: {line!r}")
        if face in values:
            raise ParseError(f"face {face} listed twice")
        values[face] = idx
    return Cochain(complex, dimension, group, values)
