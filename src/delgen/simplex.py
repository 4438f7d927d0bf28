"""Geometry of a single simplex.

A j-simplex is given by j+1 vertices in R^m (j <= m for the non-degenerate
operations). Everything here is built around the edge matrix P whose columns
are p_i - p_0: circumcentres come from the Gram system, altitudes from
orthogonal projections onto facet hulls, and the quality measure is the
thickness

    thickness(sigma) = 1                                     if j = 0,
    thickness(sigma) = min_i altitude_i / (j * longest_edge) otherwise,

which controls the smallest singular value of P, the stability of the
circumcentre, and the angle between the simplex and nearby flats.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import combinations

import numpy as np

from .complexes import _faces_of
from .errors import DegenerateSimplexError, PreconditionError

# A simplex counts as degenerate when the edge matrix loses rank at this
# relative level; chosen to sit far above double roundoff and far below any
# honest geometric margin at desk scale.
DEGENERACY_RTOL = 1e-12

# Default slack for the inequality checks below: the bounds are strict
# theorems, so this only has to absorb evaluation roundoff.
CHECK_TOL = 1e-9

_RESIDUAL_RTOL = 1e-10

# The certified degeneracy test (see _degenerate) decides a row when
# det G > _GRAM_RTOL * (tr G)^j and (tr G)^j lies in _GRAM_RANGE, where
# neither it nor _GRAM_RTOL times it leaves the normal floats.
_GRAM_RTOL = 1e-12
_GRAM_RANGE = (1e-280, 1e280)


class Simplex:
    """Geometric simplex, an ordered tuple of vertices in R^m."""

    __slots__ = ("vertices",)

    def __init__(self, vertices) -> None:
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2:
            raise PreconditionError("simplex vertices must form a 2-d array")
        if v.shape[0] < 1:
            raise PreconditionError("simplex needs at least one vertex")
        if not np.all(np.isfinite(v)):
            raise PreconditionError("simplex vertices must be finite")
        self.vertices = v

    @property
    def dim(self) -> int:
        """Combinatorial dimension j (number of vertices minus one)."""
        return self.vertices.shape[0] - 1

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]

    def edge_matrix(self) -> np.ndarray:
        """Matrix with columns p_i - p_0, shape (m, j)."""
        return (self.vertices[1:] - self.vertices[0]).T

    def __repr__(self) -> str:  # pragma: no cover
        return f"Simplex(j={self.dim}, m={self.ambient_dim})"


def _as_simplex(s) -> Simplex:
    return s if isinstance(s, Simplex) else Simplex(s)


def _norms(x: np.ndarray) -> np.ndarray:
    """Row norms of an (S, m) stack, one dot product per row, so each rounds
    as the 1-D ``np.linalg.norm`` does."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _small_det(a: np.ndarray) -> np.ndarray:
    """Determinants of a stack (S, j, j): by cofactors for 1 <= j <= 3, and
    by LAPACK otherwise. A cofactor sum adds products of one entry per row,
    so it lies within a few ulps of the product of the rows' norms from the
    exact determinant."""
    if not 1 <= a.shape[1] <= 3:
        return np.linalg.det(a)
    if a.shape[1] == 1:
        return a[:, 0, 0].copy()
    if a.shape[1] == 2:
        return a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    (p, q, r), (s, t, u), (v, w, x) = a.transpose(1, 2, 0)
    return p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v)


def _edge_stack(v: np.ndarray):
    """Edge rows p_i - p_0, edge lengths and the degeneracy flag of a stack
    of j-simplices ``v`` of shape (S, j+1, m)."""
    j = v.shape[1] - 1
    a, b = zip(*combinations(range(j + 1), 2))
    lengths = np.sqrt(((v[:, a] - v[:, b]) ** 2).sum(axis=-1))
    e = v[:, 1:] - v[:, :1]
    return e, lengths, _degenerate(e)


def _degenerate(e: np.ndarray) -> np.ndarray:
    """Whether s_j < DEGENERACY_RTOL * s_1, or s_1 = 0, for the singular
    values of each edge stack ``e`` (S, j, m), padded with zeros when j > m.

    With G = E E^T, det G <= s_1^(2j-2) s_j^2 and tr G >= s_1^2, so
    det G > _GRAM_RTOL * (tr G)^j gives s_j / s_1 > 1e-6; G's rounding, and
    that of its determinant by cofactors (``_small_det``), move det G by
    about 1e-15 (tr G)^j, far inside that margin. The rows this test does
    not decide, and every row whose (tr G)^j leaves the normal range, take
    the SVD rule, so every flag is the SVD rule's.
    """
    count, j, m = e.shape
    sure = np.zeros(count, dtype=bool)
    if j <= m:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = e @ e.transpose(0, 2, 1)
            scale = np.trace(gram, axis1=1, axis2=2) ** j
            sure = ((scale > _GRAM_RANGE[0]) & (scale < _GRAM_RANGE[1])
                    & (_small_det(gram) > _GRAM_RTOL * scale))
    degenerate = np.zeros(count, dtype=bool)
    rest = np.flatnonzero(~sure)
    if rest.size:
        sv = np.linalg.svd(e[rest].transpose(0, 2, 1), compute_uv=False)
        if sv.shape[1] < j:  # more than m + 1 vertices: the lost rank reads as zeros
            sv = np.hstack([sv, np.zeros((len(sv), j - sv.shape[1]))])
        degenerate[rest] = (sv[:, 0] == 0.0) | (sv[:, -1] < DEGENERACY_RTOL * sv[:, 0])
    return degenerate


def _solve_rows(a, b):
    """Stacked solve of a x = b; a singular stack is solved row by row,
    and only its singular rows fail. Returns (x, solved)."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        x, solved = np.zeros_like(b), np.zeros(len(b), dtype=bool)
        for k in range(len(b)):
            try:
                x[k] = np.linalg.solve(a[k], b[k])
                solved[k] = True
            except np.linalg.LinAlgError:
                pass
        return x, solved


def _circumballs(v, e, degenerate, longest):
    """Circumcentres ``(S, m)``, radii ``(S,)`` and found flags of a stack.

    A non-degenerate row solves the Gram system, and is not found when that
    system is singular; a degenerate row takes least squares and counts as
    found when its equations are consistent. Every row must then pass the
    equidistance residual check.
    """
    centres = np.zeros((v.shape[0], v.shape[2]))
    radii = np.zeros(v.shape[0])
    found = ~degenerate
    b = 0.5 * (e**2).sum(axis=-1)
    good = np.flatnonzero(found)
    eg = e[good]
    y, solved = _solve_rows(eg @ eg.transpose(0, 2, 1), b[good])
    found[good[~solved]] = False
    offset = (eg.transpose(0, 2, 1) @ y[..., None])[..., 0]
    centres[good] = v[good, 0] + offset
    radii[good] = _norms(offset)
    for r in np.flatnonzero(degenerate):
        # Least squares on (p_i - p_0) . x = b_i; the minimum norm solution
        # stays in the affine hull direction space. Consistency means the
        # vertices are concyclic on some sphere.
        x, *_ = np.linalg.lstsq(e[r], b[r], rcond=None)
        residual = e[r] @ x - b[r]
        if np.abs(residual).max() > 1e-9 * max(longest[r] ** 2, 1e-300):
            continue
        centres[r] = v[r, 0] + x
        radii[r] = np.linalg.norm(v[r] - centres[r], axis=1).max()
        found[r] = True
    dists = np.sqrt(((v - centres[:, None, :]) ** 2).sum(axis=-1))
    spread = np.abs(dists - radii[:, None]).max(axis=1)
    found &= ~(spread > _RESIDUAL_RTOL * np.maximum(longest, 1e-300) + 1e-14)
    return centres, radii, found


def circumballs(points, simplices):
    """Circumcentres ``(S, m)``, radii ``(S,)`` and found flags of simplices
    of one dimension, rows of indices into ``points``, in one array pass;
    each row is bit for bit the circumball :func:`simplex_metrics` gives."""
    v = np.asarray(points, dtype=float)[np.asarray(simplices, dtype=np.intp)]
    if v.shape[1] == 1:
        return v[:, 0].copy(), np.zeros(len(v)), np.ones(len(v), dtype=bool)
    e, lengths, degenerate = _edge_stack(v)
    return _circumballs(v, e, degenerate, lengths.max(axis=1))


def circumcenter(simplex):
    """Circumcentre and circumradius of a simplex.

    For a non-degenerate j-simplex the centre is the unique point of the
    affine hull equidistant from all vertices; it is found by solving the
    Gram system P^T P y = (|p_i - p_0|^2 / 2)_i with c = p_0 + P y. For a
    degenerate simplex the same equations are solved by least squares: when
    they are consistent (vertices on a common sphere) the smallest
    circumscribing ball centre is returned, otherwise ``None``.

    Returns ``(centre, radius)`` or ``None``.
    """
    v = _as_simplex(simplex).vertices
    centres, radii, found = circumballs(v, np.arange(len(v))[None])
    return (centres[0], float(radii[0])) if found[0] else None


def _altitude_stack(pts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Distance from each vertex to the affine hull of the opposite facet,
    for the simplices ``idx`` (S, k) of indices into ``pts``, k >= 2.

    Each facet is keyed by its ids in row order (``complexes._faces_of``),
    so a facet that several rows share takes one SVD of its span, whose
    output every such row reads; then one stacked projection per dropped
    vertex. A facet whose span loses rank keeps only the revealed part of
    its basis.
    """
    count, k = idx.shape
    if k == 2:
        v = pts[idx]
        return np.column_stack([_norms(v[:, 0] - v[:, 1]), _norms(v[:, 1] - v[:, 0])])
    facets, which = _faces_of(idx, k - 1)
    # Orthonormal basis of each distinct facet's direction space, rank revealed.
    u, sv, _ = np.linalg.svd((pts[facets[:, 1:]] - pts[facets[:, :1]]).transpose(0, 2, 1),
                             full_matrices=False)
    full = (sv[:, 0] > 0.0) & (sv[:, -1] >= DEGENERACY_RTOL * sv[:, 0])
    # Built after the key and SVD tables are freed, so not held beside them.
    v = pts[idx]
    out = np.zeros((count, k))
    for i in range(k):
        # The subsets in combinations order drop the last vertex first; rel
        # runs from the facet's first vertex.
        facet = which[(k - 1 - i) * count:(k - i) * count]
        rel = v[:, i] - v[:, 1 if i == 0 else 0]
        ui = u[facet]
        proj = (ui @ (ui.transpose(0, 2, 1) @ rel[..., None]))[..., 0]
        out[:, i] = _norms(rel - proj)
        for r in np.flatnonzero(~full[facet]):
            f = facet[r]
            rank = int(np.sum(sv[f] >= DEGENERACY_RTOL * sv[f, 0])) if sv[f, 0] > 0.0 else 0
            basis = u[f, :, :rank]
            out[r, i] = np.linalg.norm(rel[r] - basis @ (basis.T @ rel[r]))
    return out


@dataclass(frozen=True)
class SimplexMetrics:
    """Size and quality numbers for one simplex."""

    dim: int
    longest_edge: float
    shortest_edge: float
    circumcenter: np.ndarray | None
    circumradius: float | None
    altitudes: np.ndarray
    thickness: float
    singular_values: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class SimplexColumns:
    """Metrics of S simplices of one dimension j, one array per quantity.

    Row k describes the simplex ``vertices[k]``; see :func:`simplex_metrics`
    for the definitions. Circumballs are :func:`circumballs`' columns, and
    the spectrum is :func:`simplex_metrics`' alone.
    """

    vertices: np.ndarray       # (S, j+1) vertex ids
    longest_edge: np.ndarray   # (S,)
    shortest_edge: np.ndarray  # (S,)
    altitudes: np.ndarray      # (S, j+1)
    thickness: np.ndarray      # (S,)
    degenerate: np.ndarray     # (S,) bool

    def __len__(self) -> int:
        return self.vertices.shape[0]

    def take(self, rows) -> "SimplexColumns":
        """The columns of a subset of the rows, given as indices or a mask."""
        return SimplexColumns(*(getattr(self, f.name)[rows] for f in fields(self)))


def simplex_metrics_batch(points, simplices) -> SimplexColumns:
    """Edge extremes, altitudes, thickness and degeneracy of a stack of
    simplices of one dimension, one array pass per block of rows.

    ``simplices`` holds S rows of j+1 indices into ``points`` (n, m). Every
    quantity is an array expression over the (S, j+1, m) vertex stack,
    rounded exactly as a stack of one; see :func:`simplex_metrics` for the
    definitions. The rows go in blocks (``hull.blocks``) of that stack; a
    facet shared across blocks takes one SVD in each, of the same input.
    """
    from .hull import blocks  # hull imports this module

    pts = np.asarray(points, dtype=float)
    idx = np.asarray(simplices, dtype=np.intp)
    if idx.size == 0:
        idx = idx.reshape(0, idx.shape[1] if idx.ndim == 2 else 1)
    count, j = idx.shape[0], idx.shape[1] - 1
    if j == 0 or count == 0:
        return SimplexColumns(
            vertices=idx, longest_edge=np.zeros(count), shortest_edge=np.zeros(count),
            altitudes=np.zeros((count, j + 1)), thickness=np.ones(count),
            degenerate=np.zeros(count, dtype=bool))
    longest, shortest, alts = np.empty(count), np.empty(count), np.empty((count, j + 1))
    degenerate = np.empty(count, dtype=bool)
    for b in blocks(count, (j + 1) * pts.shape[1]):
        alts[b] = _altitude_stack(pts, idx[b])
        _, lengths, degenerate[b] = _edge_stack(pts[idx[b]])
        longest[b], shortest[b] = lengths.max(axis=1), lengths.min(axis=1)
    flat = degenerate | (longest == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        thickness = np.where(flat, 0.0, alts.min(axis=1) / (j * longest))
    return SimplexColumns(
        vertices=idx, longest_edge=longest, shortest_edge=shortest,
        altitudes=alts, thickness=thickness, degenerate=degenerate)


def simplex_metrics(simplex) -> SimplexMetrics:
    """Compute edge extremes, circumball, altitudes, thickness and spectrum.

    Thickness is 1 for a vertex, 0 for a degenerate simplex and
    ``min(altitudes) / (j * longest_edge)`` otherwise. The singular values are
    those of the edge matrix, padded with zeros when rank is lost, so
    ``degenerate`` is equivalent to ``s_j < DEGENERACY_RTOL * s_1``.
    """
    s = _as_simplex(simplex)
    ids = np.arange(s.dim + 1)[None]
    cols = simplex_metrics_batch(s.vertices, ids)
    centres, radii, found = circumballs(s.vertices, ids)
    sv = np.linalg.svd(s.edge_matrix(), compute_uv=False)
    return SimplexMetrics(
        dim=s.dim, longest_edge=float(cols.longest_edge[0]),
        shortest_edge=float(cols.shortest_edge[0]),
        circumcenter=centres[0] if found[0] else None,
        circumradius=float(radii[0]) if found[0] else None,
        altitudes=cols.altitudes[0], thickness=float(cols.thickness[0]),
        singular_values=np.concatenate([sv, np.zeros(s.dim - sv.size)]),
        degenerate=bool(cols.degenerate[0]))


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of one inequality check: measured value, bound, verdict."""

    value: float
    bound: float
    holds: bool
    detail: dict = field(default_factory=dict)


def singular_value_floor(simplex) -> BoundCheck:
    """Check s_j(P) >= sqrt(j) * thickness * longest_edge.

    The smallest singular value of the edge matrix of a thick simplex cannot
    collapse; this is the quantitative version used everywhere downstream.
    """
    s = _as_simplex(simplex)
    met = simplex_metrics(s)
    if met.degenerate or s.dim == 0:
        raise DegenerateSimplexError("singular value floor needs a non-degenerate simplex of dim >= 1")
    j = s.dim
    value = float(met.singular_values[-1])
    bound = np.sqrt(j) * met.thickness * met.longest_edge
    holds = value >= bound - CHECK_TOL * met.longest_edge
    return BoundCheck(value=value, bound=float(bound), holds=bool(holds))


class Flat:
    """Affine flat given by a base point and an orthonormal direction basis."""

    __slots__ = ("point", "basis")

    def __init__(self, point, basis) -> None:
        self.point = np.asarray(point, dtype=float)
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2 or b.shape[1] != self.point.shape[0]:
            raise PreconditionError("flat basis must be rows in the ambient space")
        gram = b @ b.T
        if b.shape[0] and np.abs(gram - np.eye(b.shape[0])).max() > 1e-10:
            raise PreconditionError("flat basis must be orthonormal")
        self.basis = b

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_span(cls, point, vectors) -> "Flat":
        """Flat through ``point`` spanned by ``vectors`` (rows, any rank)."""
        point = np.asarray(point, dtype=float)
        vec = np.atleast_2d(np.asarray(vectors, dtype=float))
        if vec.size == 0:
            return cls(point, np.zeros((0, point.shape[0])))
        u, sv, _ = np.linalg.svd(vec.T, full_matrices=False)
        rank = int(np.sum(sv >= DEGENERACY_RTOL * sv[0])) if sv.size and sv[0] > 0 else 0
        return cls(point, u[:, :rank].T)

    @classmethod
    def from_points(cls, points) -> "Flat":
        """Affine hull of a set of points."""
        pts = np.asarray(points, dtype=float)
        return cls.from_span(pts[0], pts[1:] - pts[0])

    def distance(self, x) -> float:
        rel = np.asarray(x, dtype=float) - self.point
        proj = self.basis.T @ (self.basis @ rel)
        return float(np.linalg.norm(rel - proj))


def subspace_angle(u: Flat, v: Flat) -> float:
    """Largest principal angle between the direction spaces of two flats.

    Requires dim(u) <= dim(v). The sine of the returned angle equals
    ``sup { dist(x, v) : x unit vector in u }``.
    """
    if u.dim > v.dim:
        raise PreconditionError("subspace_angle expects dim(u) <= dim(v)")
    if u.dim == 0:
        return 0.0
    if v.dim == 0:
        return float(np.pi / 2)
    m = v.basis @ u.basis.T
    sv = np.linalg.svd(m, compute_uv=False)
    smin = float(sv[-1]) if sv.size == u.dim else 0.0
    smin = min(max(smin, 0.0), 1.0)
    # arccos alone loses half the precision near zero angle; pair the cosine
    # with the residual-based sine, which is exact there.
    res = u.basis - (u.basis @ v.basis.T) @ v.basis
    sine = float(np.linalg.svd(res, compute_uv=False)[0])
    sine = min(max(sine, 0.0), 1.0)
    return float(np.arctan2(sine, smin))


def whitney_angle_check(simplex, flat: Flat) -> BoundCheck:
    """Angle between a simplex and a nearby flat of at least its dimension.

    If every vertex lies within eta of the flat, then
    ``sin(angle(aff(simplex), flat)) <= 2 * eta / (thickness * longest_edge)``.
    """
    s = _as_simplex(simplex)
    met = simplex_metrics(s)
    if met.degenerate or s.dim == 0:
        raise DegenerateSimplexError("angle bound needs a non-degenerate simplex of dim >= 1")
    if flat.dim < s.dim:
        raise PreconditionError("flat must have dimension at least that of the simplex")
    eta = max(flat.distance(p) for p in s.vertices)
    aff = Flat.from_points(s.vertices)
    sine = float(np.sin(subspace_angle(aff, flat)))
    bound = 2.0 * eta / (met.thickness * met.longest_edge)
    holds = sine <= bound + CHECK_TOL
    return BoundCheck(value=sine, bound=float(bound), holds=bool(holds), detail={"eta": float(eta)})


def almost_center_gap(simplex, x) -> BoundCheck:
    """Distance from a near-equidistant point to the centre space.

    The centre space of a simplex is the affine space of centres of all its
    circumscribing balls (the translate of the orthogonal complement of the
    edge matrix column space through the circumcentre). Two bounds apply to a
    point x whose vertex distances almost agree:

    * squared spread: with xi2 the largest difference of squared vertex
      distances, ``dist <= xi2 / (2 * thickness * longest_edge)``;
    * plain spread: with xi the largest difference of vertex distances and
      eps_max the largest vertex distance,
      ``dist <= eps_max * xi / (thickness * longest_edge)``.

    Returns the exact distance together with both bounds; ``holds`` says the
    distance is below their minimum plus slack.
    """
    s = _as_simplex(simplex)
    met = simplex_metrics(s)
    if met.degenerate or s.dim == 0:
        raise DegenerateSimplexError("centre gap needs a non-degenerate simplex of dim >= 1")
    x = np.asarray(x, dtype=float)
    c = met.circumcenter
    p = s.edge_matrix()
    u, sv, _ = np.linalg.svd(p, full_matrices=False)
    basis = u[:, : s.dim]
    dist = float(np.linalg.norm(basis.T @ (x - c)))
    d = np.linalg.norm(s.vertices - x, axis=1)
    d2 = d**2
    xi2 = float(d2.max() - d2.min())
    xi = float(d.max() - d.min())
    eps_max = float(d.max())
    denom = met.thickness * met.longest_edge
    bound_sq = xi2 / (2.0 * denom)
    bound_centre = eps_max * xi / denom
    bound = min(bound_sq, bound_centre)
    holds = dist <= bound + CHECK_TOL
    return BoundCheck(
        value=dist,
        bound=float(bound),
        holds=bool(holds),
        detail={"bound_sq": float(bound_sq), "bound_centre": float(bound_centre)},
    )


def munkres_thickness_check(simplex) -> BoundCheck:
    """Barycentric inradius ratio against its closed form.

    r(sigma) is the radius of the largest ball centred at the barycentre and
    contained in the simplex; within the affine hull that is the least
    distance from the barycentre to a facet hull. The ratio
    ``r / longest_edge`` equals ``j / (j + 1) * thickness`` exactly.
    """
    s = _as_simplex(simplex)
    met = simplex_metrics(s)
    if met.degenerate or s.dim == 0:
        raise DegenerateSimplexError("inradius ratio needs a non-degenerate simplex of dim >= 1")
    v = s.vertices
    j = s.dim
    bary = v.mean(axis=0)
    r = np.inf
    for i in range(j + 1):
        others = np.delete(v, i, axis=0)
        r = min(r, Flat.from_points(others).distance(bary))
    value = float(r / met.longest_edge)
    expected = j / (j + 1) * met.thickness
    holds = abs(value - expected) <= CHECK_TOL * max(1.0, expected)
    return BoundCheck(value=value, bound=float(expected), holds=bool(holds))
