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
the same way; ``link_index`` tables the faces sigma + tau through sigma from
one vertex-to-face incidence per dimension, and ``star_facets`` the facet
table of a vertex's link in X's own indices.  A ``FaceSet``, such as a
cochain's support, is a read-only boolean row over faces(k).

A complex file is a ``dim d`` header and a body, read in bulk: a body of
ASCII digits, spaces, tabs and line breaks goes through one numpy scan of its
bytes, which finds the runs of digits, turns them into int64 ids and counts
the ids on each line.  Any other body (a weight suffix, a sign, an id of more
than 18 digits, a malformed word, other whitespace) is read line by line, and
names the first bad line.  Row widths are checked first, so no reshape uses
an unchecked width; the ids are then ranked by one sort, and repeated
vertices and duplicate tops are found on the rank array.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, gcd, lcm
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import BadDimensionError, BadParamsError, DimensionMismatchError, DuplicateTopFaceError
from .errors import EmptyInputError, NonUniformCardinalityError, ParseError, UnknownFaceError

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


def _id_array(values: Sequence[int]) -> np.ndarray:
    """Vertex ids as one array: int64 while every id fits, Python ints past that."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _row_order(rows: np.ndarray, base: int) -> Tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic order of rows of values in range(base), and
    whether each sorted row opens a run, differing from the row before it.
    One stable argsort of each row's mixed-radix index and a compare of the
    sorted indices; a lexsort and a compare of the sorted rows only where
    base^columns does not fit int64.  Runs of presorted rows make the argsort
    cheap, and an index below 2^16 is sorted as uint16, which numpy
    radix-sorts."""
    fresh = np.empty(len(rows), dtype=bool)
    fresh[0] = True
    cells = base ** rows.shape[1]
    if cells >= 2**63:
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        np.not_equal(rows[1:], rows[:-1]).any(axis=1, out=fresh[1:])
        return order, fresh
    key = np.ravel_multi_index(rows.T, (base,) * rows.shape[1])
    order = (key.astype(np.uint16) if cells <= 2**16 else key).argsort(kind="stable")
    key = key[order]
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    return order, fresh


def _read_line(line: str, weights: Dict[Face, Fraction]) -> List[int]:
    """The vertex ids of one stripped, non-blank line of a complex file, entering
    its ``w p/q`` weight, if any, into weights."""
    parts = line.split()
    at = parts.index("w") if "w" in parts else len(parts)
    if at < len(parts) and at != len(parts) - 2:
        raise ParseError(f"malformed weight suffix in {line!r}")
    try:
        row = list(map(int, parts[:at]))
        if at < len(parts):
            # An exponent names a huge integer in a few characters; weights are p/q.
            if "e" in parts[at + 1].lower():
                raise ValueError("exponent in a weight")
            weights[as_face(row)] = Fraction(parts[at + 1])
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed line {line!r}") from exc
    return row


# A line break as str.splitlines reads one.
_BREAK = re.compile(r"\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


def _scan_body(body: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The ids of a complex file's body, as int64, and the number of ids on
    each non-blank line, read by one numpy scan of its bytes; None unless the
    body holds only ASCII digits, spaces, tabs, line feeds and carriage
    returns, with no run of more than 18 digits.  Blank lines have no ids, so
    a carriage return, a line feed or both may end a line, as for
    str.splitlines."""
    if not body.isascii():
        return None
    data = body.encode("ascii")
    if data.translate(None, b"0123456789 \t\n\r"):  # some other byte is left
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    value = raw - np.uint8(ord("0"))
    # digit[1:-1] flags the digits; a run of them starts or ends where the flag flips.
    digit = np.zeros(len(raw) + 2, dtype=bool)
    np.less(value, 10, out=digit[1:-1])
    bounds = (digit[1:] != digit[:-1]).nonzero()[0]
    starts, ends = bounds[0::2], bounds[1::2]
    if not len(starts):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.intp)
    length = ends - starts
    longest = int(length.max())
    if longest > 18:  # 10^18 - 1 < 2^63 - 1
        return None
    ids = value[starts].astype(np.int64)
    for place in range(1, longest):
        more = (length > place).nonzero()[0]
        ids[more] = ids[more] * 10 + value[starts[more] + place]
    # A line opens at the first id and at the first id after each break; the
    # flag past the last id closes the last line.
    breaks = ((raw == ord("\n")) | (raw == ord("\r"))).nonzero()[0]
    opens = np.zeros(len(starts) + 1, dtype=bool)
    opens[0] = opens[-1] = True
    opens[starts.searchsorted(breaks)] = True
    heads = opens.nonzero()[0]
    return ids, heads[1:] - heads[:-1]


class SimplicialComplex:
    """Immutable pure d-dimensional complex with rational face weights."""

    def __init__(
        self,
        dimension: int,
        top_faces: Sequence[Iterable[int]],
        top_weights: Optional[Mapping[Face, Fraction]] = None,
    ):
        raws = [tuple(raw) for raw in top_faces]
        flat = _id_array([int(v) for raw in raws for v in raw])
        self._load(dimension, flat, list(map(len, raws)), raws.__getitem__, top_weights)

    def _load(self, dimension: int, flat: np.ndarray, widths: List[int], shown: Callable[[int], Tuple], top_weights):
        """Validate top faces given as one array of vertex ids, split into rows of
        the given widths, naming the first offender in input order as shown(i)
        prints it, and close them over their vertex ranks.  Widths are checked
        before any reshape, so a huge dimension is one more wrong width; the ids
        are ranked by one sort, and duplicate tops found by one sort of the rows."""
        if dimension < 0:
            raise BadDimensionError(f"dimension must be >= 0, got {dimension}")
        if not len(widths):
            raise EmptyInputError("at least one top face is required")
        width = dimension + 1

        def uneven(i: int) -> NonUniformCardinalityError:
            return NonUniformCardinalityError(f"top face {shown(i)} does not have {width} distinct vertices")

        wrong = (np.asarray(widths) != width).nonzero()[0]
        good = int(wrong[0]) if len(wrong) else len(widths)
        if good == 0:
            raise uneven(0)
        # An id's rank is the number of distinct ids below it: one sort, its
        # runs counted and scattered back.
        by_id = np.argsort(flat[: good * width])
        ids = flat[by_id]
        fresh = np.empty(len(ids), dtype=bool)
        fresh[0] = True
        np.not_equal(ids[1:], ids[:-1], out=fresh[1:])
        ranks = np.empty(len(ids), dtype=np.intp)
        ranks[by_id] = np.cumsum(fresh) - 1
        ids = ids[fresh]
        tops = np.sort(ranks.reshape(good, width), axis=1)
        repeated = (tops[:, 1:] == tops[:, :-1]).any(axis=1)
        order, fresh = _row_order(tops, len(ids))
        tops = tops[order]
        twice = order[~fresh]
        bad = min([good, *np.flatnonzero(repeated)[:1].tolist(), *twice.tolist()])
        if bad < len(widths):
            if bad == good or repeated[bad]:
                raise uneven(bad)
            raise DuplicateTopFaceError(f"top face {as_face(shown(bad))} listed twice")
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
        top numerators over the denominator scale * C(d+1, k+1); ``_row_order``
        compares the rows by one mixed-radix key where it fits int64, and
        only the first row of each run is gathered.  Closure, purity and total
        mass 1 hold by construction."""
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
            order, fresh = _row_order(sub, len(ids))
            starts = fresh.nonzero()[0]
            self._runs[k] = order, starts
            self._ranks[k] = sub[order[starts]]
            self._rows[k] = np.add.reduceat(top_num.repeat(len(subsets))[order], starts)
        for k, row in self._rows.items():
            self._rows[k] = row.astype(np.int64 if self._den[k] < 2**63 else object, copy=False)
            self._rows[k].flags.writeable = False
        self._faces, self._index, self._facets, self._links, self._link_index, self._stars = {}, {}, {}, {}, {}, {}
        self._star_facets: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        return self

    # -- structure ---------------------------------------------------------

    def faces(self, k: int) -> Tuple[Face, ...]:
        if k not in self._faces:
            self._faces[k] = tuple(map(tuple, self._ids[self._ranks_of(k)].tolist()))
        return self._faces[k]

    def _ranks_of(self, k: int) -> np.ndarray:
        """The vertex ranks of faces(k), one face per row."""
        if not -1 <= k <= self.dimension:
            raise BadDimensionError(f"no faces of dimension {k} in a {self.dimension}-complex")
        return self._ranks[k]

    def faces_where(self, k: int, mask: np.ndarray) -> List[Face]:
        """The k-faces where mask, a row over faces(k), is nonzero, in order."""
        faces = self.faces(k)
        return [faces[j] for j in mask.nonzero()[0].tolist()]

    def face_count(self, k: int) -> int:
        return len(self._ranks_of(k))

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
        self.require_face(face)
        return self._rows[len(face) - 1].item(self.face_index(len(face) - 1)[face])

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

    def mask_weight(self, mask: np.ndarray, k: int) -> Fraction:
        """Total P_k mass of the k-faces where mask, a boolean row over faces(k), is true."""
        return Fraction(int(self._rows[k][mask].sum()), self._den[k])

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
        from the star of sigma's first vertex (``_star_of``): the faces there
        that hold all of sigma, in index order (their taus' order); sigma's
        i-th vertex, in column c, exceeds c - i vertices of tau."""
        sigma = tuple(sigma)
        if (sigma, j) not in self._link_index:
            self.require_face(sigma)
            s, d = len(sigma) - 1, self.dimension
            if s >= d:
                raise BadDimensionError("the link of a top-dimensional face is empty")
            if not -1 <= j < d - s:
                raise BadDimensionError(f"no faces of dimension {j} in a {d - s - 1}-complex")
            k = j + s + 1
            if not sigma:
                at, odd = np.arange(len(self._ranks[k])), np.zeros(len(self._ranks[k]), dtype=bool)
            else:
                ranks = self._ranks[s][self.face_index(s)[sigma]]
                at, column = self._star_of(int(ranks[0]), k)
                if len(sigma) == 1:
                    odd = column % 2 == 1
                else:
                    mine = (self._ranks[k][at][:, :, None] == ranks).any(axis=2)
                    held = mine.sum(axis=1) == len(sigma)
                    at, odd = at[held], (mine[held] @ np.arange(k + 1) - comb(len(sigma), 2)) % 2 == 1
            at.flags.writeable = odd.flags.writeable = False
            self._link_index[sigma, j] = (at, odd)
        return self._link_index[sigma, j]

    def star_facets(self, v: int, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """The facet table of link(v)(j-1), read from the facet table of X(j):
        the facets of v + tau that hold v are v + each facet of tau, in order,
        given by their taus' positions in link(v)(j-2).  Also the index in
        X(j-1) of each tau, the facet of v + tau without v.  Built once per
        (v, j), read-only."""
        if (v, j) not in self._star_facets:
            at, lower = self.link_index((v,), j - 1)[0], self.link_index((v,), j - 2)[0]
            facets = self.facets(j)[at]
            pos = np.searchsorted(lower, facets)
            holds = lower.take(pos, mode="clip") == facets
            table, rim = pos[holds].reshape(len(at), j), facets[~holds]
            table.flags.writeable = rim.flags.writeable = False
            self._star_facets[v, j] = (table, rim)
        return self._star_facets[v, j]

    def _star_of(self, rank: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The indices of the k-faces holding the vertex of the given rank, in
        order, and the vertex's column in each.  One stable argsort of the rank
        rows of X(k) lists every vertex's k-faces, in index order, as a run;
        built once per k."""
        if k not in self._stars:
            flat = self._ranks[k].ravel()
            order = np.argsort(flat, kind="stable")
            starts = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=len(self._ids)))))
            self._stars[k] = (*np.divmod(order, k + 1), starts)
        faces, columns, starts = self._stars[k]
        run = slice(starts[rank], starts[rank + 1])
        return faces[run].copy(), columns[run]

    def degree_bound(self) -> int:
        """Max number of top faces containing any single vertex."""
        return int(np.bincount(self._ranks[self.dimension].ravel()).max())

    @property
    def is_uniform(self) -> bool:
        return len(set(self._rows[self.dimension].tolist())) == 1

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        """The complex file: the header, then one sorted top per line, with a
        ``w p/q`` suffix on every line unless the complex is uniform."""
        d = self.dimension
        lines = [" ".join(map(str, top)) for top in self.faces(d)]
        if not self.is_uniform:
            lines = [f"{line} w {w.numerator}/{w.denominator}" for line, w in zip(lines, self.top_weights.values())]
        return "\n".join([f"dim {d}", *lines]) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SimplicialComplex":
        """Read a complex file: a ``dim d`` header, exactly, then one top per
        line.  Blank lines are skipped.  A body of ASCII digits, spaces, tabs
        and line breaks, with no id longer than 18 digits, is read by one numpy
        scan of its bytes (`_scan_body`); any other body (a weight suffix, a
        sign, an id past int64, a malformed word, other whitespace) is read
        line by line by ``_read_line``, which parses a word as ``int`` does and
        names the first malformed line.  Widths, repeated vertices and
        duplicate tops are then checked on arrays by ``_load``."""
        # The header is the first non-blank line, which holds the first non-space character.
        start = len(text) - len(text.lstrip())
        end = _BREAK.search(text, start)
        header = text[start : end.start() if end else len(text)].strip()
        if not header.startswith("dim "):
            raise ParseError("complex file must start with a 'dim d' header")
        try:
            _, word = header.split()
            dimension = int(word)
        except ValueError as exc:
            raise ParseError(f"bad header {header!r}") from exc
        body = text[end.end() :] if end else ""
        weights: Dict[Face, Fraction] = {}
        scanned = _scan_body(body)
        if scanned is not None:
            flat, widths = scanned
        else:
            rows = [_read_line(line.strip(), weights) for line in body.splitlines() if line.strip()]
            if weights and len(weights) != len(rows):
                raise ParseError("either all or no top faces may carry weights")
            flat = _id_array(list(chain.from_iterable(rows)))
            widths = np.array(list(map(len, rows)), dtype=np.intp)

        def shown(i: int) -> Face:
            start = int(widths[:i].sum())
            return as_face(flat[start : start + widths[i]].tolist())

        return cls.__new__(cls)._load(dimension, flat, widths, shown, weights or None)

    def __repr__(self) -> str:
        sizes = ", ".join(f"|X({k})|={len(self._ranks[k])}" for k in range(self.dimension + 1))
        return f"SimplicialComplex(d={self.dimension}, {sizes})"


class FaceSet:
    """A set of k-faces of a complex: a read-only boolean row over
    ``complex.faces(k)``, the layout of a cochain's value row.  Two sets are
    equal when they share the complex object, k and the row."""

    __slots__ = ("complex", "dimension", "row")

    def __init__(self, complex: SimplicialComplex, dimension: int, row: np.ndarray):
        count = complex.face_count(dimension)
        if not isinstance(row, np.ndarray) or row.dtype != bool or row.shape != (count,):
            raise BadParamsError(f"a set of {dimension}-faces needs a boolean row of length {count}")
        row.flags.writeable = False
        self.complex, self.dimension, self.row = complex, dimension, row

    @classmethod
    def make(cls, complex: SimplicialComplex, k: int, faces: Iterable[Iterable[int]]) -> "FaceSet":
        members = {as_face(f) for f in faces}
        index = complex.face_index(k)
        stray = [face for face in members if face not in index]
        if stray:
            raise UnknownFaceError(f"faces {sorted(stray)[:3]} are not {k}-faces of the complex")
        row = np.zeros(len(index), dtype=bool)
        row[[index[face] for face in members]] = True
        return cls(complex, k, row)

    @property
    def faces(self) -> FrozenSet[Face]:
        return frozenset(self)

    @property
    def weight(self) -> Fraction:
        return self.complex.mask_weight(self.row, self.dimension)

    def __contains__(self, face: Face) -> bool:
        at = self.complex.face_index(self.dimension).get(face)
        return at is not None and bool(self.row[at])

    def __iter__(self):
        """The members in sorted order, the order of faces(k)."""
        return iter(self.complex.faces_where(self.dimension, self.row))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.row))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaceSet) or self.complex is not other.complex:
            return False
        return self.dimension == other.dimension and np.array_equal(self.row, other.row)

    def __hash__(self):
        return hash((id(self.complex), self.dimension, self.row.tobytes()))
