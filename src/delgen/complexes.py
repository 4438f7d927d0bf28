"""Abstract simplicial complexes over vertex ids.

Simplices are sorted tuples of vertex ids, and a complex stores the
downward closed family they generate. It carries no coordinates: every
question asked of it here (stars, purity, boundaries, star comparison) is a
question about sets of faces.

The stability statements talk about the closed star of a region Q, the
simplices meeting a vertex of Q plus their faces (``vertex_star``). The
pipeline builds that star, and the wider double star its protection audit
covers, straight from the top simplices of a Delaunay result.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import MappingError, PreconditionError


def _canon(simplex) -> tuple[int, ...]:
    t = tuple(sorted(int(v) for v in simplex))
    if len(set(t)) != len(t):
        raise PreconditionError(f"repeated vertex in simplex {t}")
    if not t:
        raise PreconditionError("empty simplex")
    return t


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

    # -- purity and boundary ----------------------------------------------

    def is_pure(self, dim: int | None = None) -> bool:
        """True when every simplex is a face of a ``dim``-simplex."""
        if not self._simplices:
            return True
        if dim is None:
            dim = self.dimension
        tops = [s for s in self._simplices if len(s) == dim + 1]
        covered: set[tuple[int, ...]] = set()
        for s in tops:
            covered.update(_faces(s))
        return covered == set(self._simplices)

    def boundary_complex(self, dim: int | None = None) -> "SimplicialComplex":
        """Faces of codimension one incident to exactly one top simplex.

        Requires a pure complex; when the complex triangulates a region, the
        result triangulates the boundary of that region.
        """
        if dim is None:
            dim = self.dimension
        if not self.is_pure(dim):
            raise PreconditionError("boundary extraction needs a pure complex")
        count: dict[tuple[int, ...], int] = {}
        for top in self.simplices(dim):
            for facet in combinations(top, dim):
                count[facet] = count.get(facet, 0) + 1
        rim = [f for f, c in count.items() if c == 1]
        return SimplicialComplex(rim)


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
