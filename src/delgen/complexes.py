"""Abstract simplicial complexes over vertex ids.

Simplices are sorted tuples of vertex ids, and a complex stores the
downward closed family they generate. It carries no coordinates: every
question asked of it here (stars and star comparison) is a question about
sets of faces. Arrays of simplices, one row of sorted ids each, are sorted
and matched by integer row key (``row_keys``).

The stability statements talk about the closed star of a region Q, the
simplices meeting a vertex of Q plus their faces (``vertex_star``). The
pipeline builds that star, and the wider double star its protection audit
covers, straight from the top simplices of a Delaunay result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import MappingError, PreconditionError


def _canon(simplex) -> tuple[int, ...]:
    t = tuple(sorted(int(v) for v in simplex))
    if len(set(t)) != len(t):
        raise PreconditionError(f"repeated vertex in simplex {t}")
    if not t:
        raise PreconditionError("empty simplex")
    return t


def row_keys(rows: np.ndarray, radix: int) -> np.ndarray:
    """One integer per row of vertex ids below ``radix``: the ids read as
    digits in base ``radix``, so keys order as the rows do
    lexicographically. Where keys could overflow int64 they are Python
    integers instead."""
    rows = np.asarray(rows)
    radix = int(radix)
    exact = radix ** rows.shape[1] <= 2**63
    rows = rows.astype(np.int64 if exact else object)
    keys = rows[:, 0].copy()
    for col in rows.T[1:]:
        keys = keys * radix + col
    return keys


def _faces_of(tops: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct k-vertex faces of the rows of ``tops``, in lexicographic
    order, each with its ids in the order of its row, and the face of each
    (k-subset, row) pair, the subsets in ``combinations`` order and the rows
    within each.

    Each face is keyed as one integer (``row_keys``), so one sort of the
    keys and an adjacent compare give the faces in lexicographic order, as
    ``np.unique`` with index and inverse would, with less work. The sort is
    the stable one the other row sorts use: numpy's default argsort would
    page in SIMD code that raises a small run's peak memory.
    """
    stack = np.vstack([tops[:, list(c)] for c in combinations(range(tops.shape[1]), k)])
    keys = row_keys(stack, int(tops.max()) + 1)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.concatenate(([True], keys[1:] != keys[:-1]))
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return stack[order[new]], inverse


def _holds_any(rows: np.ndarray, ids, radix: int) -> np.ndarray:
    """Whether each row of vertex ids below ``radix`` holds one of ``ids``,
    as ``np.isin(rows, ids).any(axis=-1)`` gives it, by one mask lookup."""
    mask = np.zeros(int(radix), dtype=bool)
    mask[np.asarray(ids, dtype=np.intp)] = True
    return mask[rows].any(axis=-1)


def sorted_rows(rows: np.ndarray, radix: int) -> np.ndarray:
    """Positions of ``rows`` in lexicographic order, by ``row_keys``."""
    return np.argsort(row_keys(rows, radix), kind="stable")


def _faces(simplex: tuple[int, ...]):
    for k in range(1, len(simplex) + 1):
        yield from combinations(simplex, k)


class SimplicialComplex:
    """Downward closed family of simplices."""

    def __init__(self, simplices) -> None:
        closed: set[tuple[int, ...]] = set()
        for s in simplices:
            closed.update(_faces(_canon(s)))
        self._simplices = frozenset(closed)

    # -- basic queries -----------------------------------------------------

    def __contains__(self, simplex) -> bool:
        try:
            return _canon(simplex) in self._simplices
        except PreconditionError:
            return False

    def __len__(self) -> int:
        return len(self._simplices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._simplices == other._simplices

    def __hash__(self) -> int:
        return hash(self._simplices)

    def simplices(self, dim: int | None = None) -> list[tuple[int, ...]]:
        """All simplices, or only those of one combinatorial dimension, sorted."""
        if dim is None:
            return sorted(self._simplices, key=lambda s: (len(s), s))
        return sorted(s for s in self._simplices if len(s) == dim + 1)

    @property
    def dimension(self) -> int:
        return max(len(s) for s in self._simplices) - 1 if self._simplices else -1

    def vertex_ids(self) -> list[int]:
        return sorted({v for s in self._simplices for v in s})

    # -- stars -------------------------------------------------------------

    def vertex_star(self, q) -> "SimplicialComplex":
        """Closed star: simplices meeting the vertex set ``q``, plus faces."""
        qset = {int(v) for v in q}
        hit = [s for s in self._simplices if qset.intersection(s)]
        return SimplicialComplex(hit)


# -- star comparison -------------------------------------------------------


@dataclass(frozen=True)
class IsoReport:
    """Result of comparing two stars face by face."""

    isomorphic: bool
    missing: tuple[tuple[int, ...], ...]
    extra: tuple[tuple[int, ...], ...]


def star_difference(want: SimplicialComplex, got: SimplicialComplex) -> IsoReport:
    """Faces of ``want`` absent from ``got`` (missing) and faces of ``got``
    absent from ``want`` (extra), each sorted."""
    missing = tuple(sorted(want._simplices - got._simplices))
    extra = tuple(sorted(got._simplices - want._simplices))
    return IsoReport(isomorphic=not missing and not extra, missing=missing, extra=extra)


def star_isomorphic(k: SimplicialComplex, k2: SimplicialComplex, q, mapping) -> IsoReport:
    """Compare the closed star of ``q`` in ``k`` with its image star in ``k2``.

    ``mapping`` must be injective and cover ``q`` and every vertex of the
    star of ``q``; a partial mapping raises. The report lists simplices whose
    images are absent from the target star and target-star simplices with
    no preimage.
    """
    mapping = {int(a): int(b) for a, b in mapping.items()}
    if len(set(mapping.values())) != len(mapping):
        raise MappingError("vertex mapping is not injective")
    s1 = k.vertex_star(q)
    needed = set(s1.vertex_ids()).union(int(v) for v in q)
    if not needed.issubset(mapping):
        raise MappingError(f"mapping misses vertices {sorted(needed - set(mapping))}")
    image = SimplicialComplex(tuple(mapping[v] for v in s) for s in s1._simplices)
    return star_difference(image, k2.vertex_star([mapping[int(v)] for v in q]))
