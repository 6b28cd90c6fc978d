"""Group-valued cochains on ordered faces.

A k-cochain stores one group element per canonical (ascending) face, as one
value row over ``X.faces(k)``: entry j is the value on the j-th face, 0 (the
identity) where the cochain vanishes.  The row is int64 while the sum of two
element indices fits in it, Python ints past that.  Values on other orderings
are derived from the permutation sign: for abelian groups the sign acts as
negation, for non-abelian groups an odd permutation returns the inverse.

The coboundary operator is defined for all k <= d-1 over abelian groups.  The
multiplicative coboundary is defined in dimensions 0 and 1 only and works over
any group:

    d0: (u, v)    ->  f(u) f(v)^-1
    d1: (u, v, w) ->  g(u,v) g(v,w) g(w,u)

Every coboundary is a product of f over the facets of a face, read from the
complex's facet table (``SimplicialComplex.facets``): a term list names the
facets in order, each as (i, inverted) for the face without its i-th vertex.
One numpy kernel, ``face_products``, evaluates such products for whole blocks
of value rows; the coboundaries and the vertex action ``act`` run on it, and
the exhaustive scans of the correction layer build their per-face cost tables
with it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .complexes import Face, FaceSet, SimplicialComplex, as_face
from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    GroupMismatchError,
    NonAbelianGroupError,
    ParseError,
    UndefinedCoboundaryError,
    UnknownFaceError,
)
from .groups import FiniteGroup, _row_dtype, group_from_spec


def perm_parity(ordered: Tuple[int, ...]) -> int:
    """+1 for an even permutation of the sorted tuple, -1 for an odd one."""
    inversions = sum(
        1
        for i in range(len(ordered))
        for j in range(i + 1, len(ordered))
        if ordered[i] > ordered[j]
    )
    return -1 if inversions % 2 else 1


def oriented(G: FiniteGroup, values: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """values with the entries at odd orderings inverted (the sign -1 of ``signed``)."""
    return np.where(odd, G.inv_array(values), values) if odd.any() else values


class Cochain:
    """An antisymmetric assignment of group elements to the k-faces."""

    __slots__ = ("complex", "dimension", "group", "row")

    def __init__(
        self,
        complex: SimplicialComplex,
        dimension: int,
        group: FiniteGroup,
        values: Optional[Mapping[Face, int]] = None,
    ):
        """The cochain with the given {face: element} values, validated; absent
        faces carry the identity."""
        index = complex.face_index(dimension)
        row = np.zeros(len(index), dtype=_row_dtype(group.order))
        for face, idx in (values or {}).items():
            face = tuple(face)
            if face not in index:
                raise UnknownFaceError(f"{face} is not a {dimension}-face of the complex")
            idx = int(idx)
            if not 0 <= idx < group.order:
                raise GroupMismatchError(f"element index {idx} out of range for {group.name}")
            row[index[face]] = idx
        self._set(complex, dimension, group, row)

    @classmethod
    def of_row(
        cls, complex: SimplicialComplex, dimension: int, group: FiniteGroup, row: Sequence[int]
    ) -> "Cochain":
        """The cochain whose value row over complex.faces(dimension) is row, trusted."""
        f = cls.__new__(cls)
        f._set(complex, dimension, group, np.asarray(row, dtype=_row_dtype(group.order)))
        return f

    def _set(self, complex, dimension, group, row) -> None:
        row.flags.writeable = False
        self.complex, self.dimension, self.group, self.row = complex, dimension, group, row

    # -- evaluation ----------------------------------------------------------

    @property
    def values(self) -> Mapping[Face, int]:
        """The non-identity values as a read-only {face: element} view."""
        faces = self.complex.faces_where(self.dimension, self.row)
        return MappingProxyType(dict(zip(faces, self.row[self.row != 0].tolist())))

    def value(self, face: Face) -> int:
        """Value on the canonical (ascending) ordering of a face."""
        at = self.complex.face_index(self.dimension).get(tuple(face))
        if at is None:
            raise UnknownFaceError(f"{face} is not a {self.dimension}-face of the complex")
        return int(self.row[at])

    def eval(self, ordered: Tuple[int, ...]) -> int:
        ordered = tuple(ordered)
        if len(set(ordered)) != len(ordered):
            raise UnknownFaceError(f"{ordered} repeats a vertex")
        return self.group.signed(self.value(tuple(sorted(ordered))), perm_parity(ordered))

    def support(self) -> FaceSet:
        """The faces with a non-identity value: the row f.row != 0 as a FaceSet."""
        return FaceSet(self.complex, self.dimension, self.row != 0)

    def weight(self) -> Fraction:
        return self.complex.mask_weight(self.row != 0, self.dimension)

    def is_zero(self) -> bool:
        return not self.row.any()

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

    def _with_row(self, row: np.ndarray) -> "Cochain":
        return Cochain.of_row(self.complex, self.dimension, self.group, row)

    def __add__(self, other: "Cochain") -> "Cochain":
        self._require_same(other)
        self._require_abelian()
        return self._with_row(self.group.op_array(self.row, other.row))

    def __neg__(self) -> "Cochain":
        self._require_abelian()
        return self._with_row(self.group.inv_array(self.row))

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.complex is other.complex
            and self.dimension == other.dimension
            and self.group is other.group
            and np.array_equal(self.row, other.row)
        )

    def __hash__(self):
        # From the values, not the bytes: an object row holds pointers.
        return hash((id(self.complex), self.dimension, id(self.group), tuple(self.row.tolist())))

    # -- slicing ---------------------------------------------------------------

    def localize(self, sigma: Face) -> "Cochain":
        """The (k - |sigma|)-cochain tau -> f(sigma tau) on the link of sigma."""
        sigma = tuple(sigma)
        self.complex.require_face(sigma)
        if len(sigma) - 1 >= self.dimension:
            raise DimensionMismatchError("localization needs dim(sigma) < dim(f)")
        j = self.dimension - len(sigma)
        at, odd = self.complex.link_index(sigma, j)
        row = oriented(self.group, self.row[at], odd)
        return Cochain.of_row(self.complex.link(sigma), j, self.group, row)

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


def term_columns(table: np.ndarray, n: int, terms: Terms) -> List[np.ndarray]:
    """Kernel columns of the facets named by terms (see face_products), from a
    facet table such as X.facets(k) into n faces one dimension down."""
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


def _coboundary(f: Cochain, terms: Terms) -> Cochain:
    """delta(f) as the product over the facets that terms names, in order."""
    X, k = f.complex, f.dimension
    identity = np.zeros(X.face_count(k + 1), dtype=f.row.dtype)
    right = term_columns(X.facets(k + 1), len(f.row), terms)
    row = face_products(f.group, f.row[None, :], identity, [], right)[0]
    return Cochain.of_row(X, k + 1, f.group, row)


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
    return f.complex.mask_weight(f.row != g.row, f.dimension)


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
    table, n = X.facets(1), len(f0.row)
    left, right = term_columns(table, n, DELTA0_TERMS[:1]), term_columns(table, n, DELTA0_TERMS[1:])
    row = face_products(G, f0.row[None, :], g1.row, left, right)[0]
    return Cochain.of_row(X, 1, G, row)


def random_cochain(
    complex: SimplicialComplex,
    dimension: int,
    group: FiniteGroup,
    rng: random.Random,
    density: float = 0.3,
) -> Cochain:
    """Sparse random cochain; each face independently gets a random non-identity value."""
    row = [
        rng.randrange(1, group.order) if group.order > 1 and rng.random() < density else 0
        for _face in complex.faces(dimension)
    ]
    return Cochain.of_row(complex, dimension, group, row)


# -- file format ---------------------------------------------------------------


def cochain_to_text(f: Cochain) -> str:
    lines = [f"dim {f.dimension} group {f.group.spec}"]
    for face, idx in sorted(f.values.items()):
        lines.append(" ".join(map(str, face)) + f" {idx}")
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
