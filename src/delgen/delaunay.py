"""Euclidean Delaunay complexes by two independent routes, plus relaxation.

* :func:`delaunay_bruteforce` enumerates every (m+1)-subset and keeps those
  whose circumball contains no foreign point beyond tolerance. This is the
  oracle route: slow, transparent, and the reference the fast route is held
  against.
* :func:`delaunay_lifted` gets the same complex from the lower convex hull of
  the paraboloid lift (via qhull), then recanonicalises cospherical groups so
  arbitrary triangulation choices inside a degenerate group cannot leak into
  the output.
* :func:`_kept_triangulations` shows, for perturbed copies of a point set,
  where the base triangulation is still the Delaunay triangulation, and
  gives those copies the result of :func:`delaunay_lifted` without a qhull
  build, in one stacked pass over all the copies. The point trials and
  pullback routes of a trial batch build only the copies it leaves.
* :func:`relaxed_delaunay` decides membership in the almost empty ball
  complex. Members come with a witness centre: a first try or the first
  hit of a certified Lipschitz branch and bound over candidate centres.
  Non members are certified by the lifting map (:func:`_lifting_bound`, a
  convex lower bound that holds at every smaller slack) or by the branch
  and bound, one search over the stack of every candidate the certificate
  leaves open. The Newton route of :mod:`delgen.metric` shares the search
  for the candidates its equidistance search misses. Both routes read
  candidate rows (a region vertex and more, of diameter at most the
  reach), by size and then key, and seed centres from one window engine
  (:class:`_Windows`), each at its own reach by one mask on the diameters;
  one build serves every trial of a batch, and :func:`_relaxed_stars`
  decides its slacks in descending order.

A simplex is an affinely independent (m+1)-subset. Both routes, and the
Newton route of :mod:`delgen.metric`, accept balls and gather cospherical
groups through one certifier, :func:`_empty_balls`, with one tolerance,
tau = 1e-9 * diameter, so the two Delaunay routes agree on degenerate inputs
as well as generic ones. The certifier answers from nearest-point queries on
a KD-tree, never from a table of distances from every centre to every point.
A result is columnar: one row per accepted top simplex, in the certifier's
order, holding its sorted vertex ids, its ball (centre and radius) and its
signed protection margin (least distance of a foreign point to the sphere);
a relaxed result, a padded row and a witness centre per member. Later
stages select rows by mask and match simplices by integer row key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb

import numpy as np
from scipy.spatial import Delaunay as _SciDelaunay
from scipy.spatial import ConvexHull, QhullError, cKDTree
from scipy.spatial.distance import cdist

from .complexes import SimplicialComplex, _faces_of, _holds_any, row_keys, sorted_rows
from .errors import PreconditionError
from .hull import _facet_normals, affine_rank, blocks, check_coordinates
from .simplex import _norms, _small_det, circumballs

PROTECTION_RTOL = 1e-9

# KD-tree distances and the ones recomputed by ``_distances`` sum the same
# squared coordinate differences, perhaps in another order, so they agree
# to a few units of roundoff; this relative bound covers that with room.
_TREE_RTOL = 1e-12


class PointSet:
    """Finite indexed point set in R^m with exact duplicate rejection.

    The KD-tree over the points is built on first read and shared by every
    stage that queries the set. No stage builds an n x n distance table.
    """

    __slots__ = ("points", "_diameter", "_min_gap", "_tree")

    def __init__(self, points) -> None:
        pts = np.ascontiguousarray(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise PreconditionError("points must form a nonempty (n, m) array")
        if not np.all(np.isfinite(pts)):
            raise PreconditionError("points must be finite")
        # Sorted, equal rows are neighbours; comparing values keeps -0.0
        # equal to 0.0.
        ordered = pts[np.lexsort(pts.T[::-1])]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise PreconditionError("duplicate points rejected")
        self.points = pts
        self._diameter: float | None = None
        self._min_gap: float | None = None
        self._tree: cKDTree | None = None

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree

    def diameter(self) -> float:
        """Largest pairwise distance, equal to ``pdist(points).max()``.

        Both ends of a farthest pair are hull vertices, so only the rows of
        qhull's vertices, and of the points it finds within rounding of a
        facet, are measured. A set qhull refuses (too few points, or flat)
        measures every row.
        """
        if self._diameter is None:
            pts = self.points
            try:
                hull = ConvexHull(pts, qhull_options="Qc")
                rows = np.union1d(hull.vertices, hull.coplanar[:, 0])
            except (QhullError, ValueError):
                rows = np.arange(self.n)
            self._diameter = _farthest(pts, rows) if self.n > 1 else 0.0
        return self._diameter

    def min_gap(self) -> float:
        """Least pairwise distance (the sparsity bound), equal to
        ``pdist(points).min()``.

        The tree gives each point's nearest neighbour. Every pair within
        rounding of the least of those is measured again with the formula
        of ``pdist``, so ties the tree ranks differently still give its
        value.
        """
        if self._min_gap is None:
            if self.n < 2:
                raise PreconditionError("sparsity needs at least two points")
            nearest = float(self.tree.query(self.points, k=2)[0][:, 1].min())
            pairs = self.tree.query_pairs(nearest * (1.0 + 4.0 * _TREE_RTOL),
                                          output_type="ndarray")
            pts = self.points
            self._min_gap = float(_distances(pts[pairs[:, 0]], pts[pairs[:, 1]]).min())
        return self._min_gap

    def tolerance(self) -> float:
        return PROTECTION_RTOL * self.diameter()


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row distances |a - b| over the last axis, summed in coordinate order
    as ``cdist`` and ``pdist`` do, so each equals their entry bit for bit."""
    diff = a - b
    return np.sqrt((diff * diff).sum(axis=-1))


def _farthest(pts: np.ndarray, rows: np.ndarray) -> float:
    """Largest distance from a point in ``rows`` to any point, one ``cdist``
    block at a time (``blocks``)."""
    return max(float(cdist(pts[rows[block]], pts).max())
               for block in blocks(len(rows), pts.shape[0]))


def as_point_set(points) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(points)


@dataclass(frozen=True, eq=False)
class DelaunayResult:
    """A Delaunay complex as columns, one row per accepted top simplex in
    the certifier's order, plus the certification data behind it.

    ``tops`` holds the sorted vertex ids of each top simplex, ``centres``
    and ``radii`` its certified ball and ``protections`` its signed
    protection margin. The closed complex is derived from ``tops`` on first
    read.
    """

    tops: np.ndarray         # (T, m+1)
    centres: np.ndarray      # (T, m)
    radii: np.ndarray        # (T,)
    protections: np.ndarray  # (T,)
    degeneracy_groups: tuple[tuple[int, ...], ...]
    generic: bool
    tolerance: float

    @cached_property
    def complex(self) -> SimplicialComplex:
        return SimplicialComplex(map(tuple, self.tops.tolist()))

    def protection(self) -> float:
        """Least protection over all top simplices (signed)."""
        return float(self.protections.min())


def _batched_circumballs(pts: np.ndarray, subsets: np.ndarray):
    """Circumcentres of (m+1)-subsets; returns (centres, radii, solvable).
    Every row is solved on its own, so its bits do not depend on the stack.
    A row is solvable when LAPACK's |det a| exceeds 1e-12 of the product of
    its rows' norms. Cofactors (``simplex._small_det``) and LAPACK both err
    by a few ulps of that product, so only rows within 10^3 of the
    threshold take LAPACK's."""
    v = pts[subsets]  # (s, m+1, m)
    a = v[:, 1:, :] - v[:, :1, :]  # (s, m, m)
    b = 0.5 * (a**2).sum(axis=2)
    dets = np.abs(_small_det(a))
    scale = np.prod(np.linalg.norm(a, axis=2), axis=1)
    floor = 1e-12 * np.maximum(scale, 1e-300)
    near = np.flatnonzero((dets > 1e-3 * floor) & (dets < 1e3 * floor))
    dets[near] = np.abs(np.linalg.det(a[near]))
    good = dets > floor
    centers = np.full((subsets.shape[0], pts.shape[1]), np.nan)
    radii = np.full(subsets.shape[0], np.nan)
    if good.any():
        sol = np.linalg.solve(a[good], b[good][..., None])[..., 0]
        centers[good] = v[good, 0, :] + sol
        radii[good] = np.linalg.norm(sol, axis=1)
    return centers, radii, good


def _empty_balls(tree: cKDTree, subsets, centers, radii, tol):
    """The empty-ball certifier behind every Delaunay route.

    Row k proposes the ball of radius ``radii[k]`` about ``centers[k]`` for
    the simplex ``subsets[k]`` of the points ``tree.data``. Its protection
    is the least signed distance from a foreign point to the sphere, and the
    ball is accepted when that exceeds -tol. When more than m+1 points lie
    within tol of an accepted sphere, they form a cospherical group. Returns
    the accepted rows in order, their protections and the set of groups.

    Each centre lists its m+3 nearest points (:func:`_listed`), a block of
    rows (``hull.blocks``) at a time. A row no listed foreign point rejects
    needs every point within tol of its sphere or nearer than its listed
    protection as well (:func:`_widened`). Every row is certified on its
    own, so the blocks move no bit. While it is measured, a listed entry
    holds its tree distance, id and row and the m coordinates, offsets and
    squares of its distance: 3m+3 entries, more than its margins take.
    """
    m = tree.data.shape[1]
    k = m + 3
    protection = np.empty(len(subsets))
    groups: set[tuple[int, ...]] = set()
    for b in blocks(len(subsets), k * (3 * m + 3)):
        protection[b], found = _block_balls(tree, subsets[b], centers[b], radii[b], tol, k)
        groups |= found
    accepted = protection > -tol
    return np.flatnonzero(accepted), protection[accepted], groups


def _block_balls(tree: cKDTree, subsets, centers, radii, tol, k):
    """:func:`_empty_balls` on one block of rows, each listing its k nearest
    points: every row's protection, and the groups of the accepted rows."""
    listing = _listed(tree, centers, k)
    margins, protection = _margins(subsets, radii, *listing[:3])
    need = np.where(protection > -tol, radii + np.maximum(tol, protection), -np.inf)
    rows, cols, dists, short = _widened(tree, centers, listing, need)
    if short.any():
        margins, protection = _margins(subsets, radii, rows, cols, dists)
    accepted = protection > -tol
    near = np.abs(margins) <= tol
    crowded = np.bincount(rows[near], minlength=len(subsets)) > subsets.shape[1]
    member = np.flatnonzero(near & (accepted & crowded)[rows])
    order = np.lexsort((cols[member], rows[member]))
    owner, ids = rows[member][order], cols[member][order]
    groups = set()
    for group in np.split(ids, np.flatnonzero(np.diff(owner)) + 1):
        if group.size:
            groups.add(tuple(group.tolist()))
    return protection, groups


def _margins(subsets, radii, rows, cols, dists):
    """Signed distance ``dists[i] - radii[rows[i]]`` from point ``cols[i]`` to
    sphere ``rows[i]``, and each row's least margin over points not its own."""
    margins = dists - radii[rows]
    own = _owned(subsets.take(rows, axis=0), cols)
    return margins, _least(np.where(own, np.inf, margins), rows, len(subsets))


def _owned(vertices: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Whether each of ``ids`` is among the vertex ids on the last axis of
    ``vertices`` (broadcast against it): one comparison per column."""
    own = vertices[..., 0] == ids
    for k in range(1, vertices.shape[-1]):
        own |= vertices[..., k] == ids
    return own


def _least(values, rows, count):
    """Least of ``values`` at each row id below ``count`` (inf where none)."""
    least = np.full(count, np.inf)
    np.minimum.at(least, rows, values)
    return least


def _listed(tree: cKDTree, centres: np.ndarray, k: int):
    """Each centre's min(k, n) nearest points of ``tree.data`` as (rows, cols,
    dists, edge): each entry's centre, point and distance measured again as
    ``cdist`` does, and each list's edge: its last tree distance, inf when it holds all n."""
    pts = tree.data
    width = min(k, len(pts))
    dist, listed = tree.query(centres, k=width)
    listed = listed.reshape(-1, width)
    edge = dist.reshape(-1, width)[:, -1] if width < len(pts) else np.full(len(centres), np.inf)
    rows = np.repeat(np.arange(len(centres)), width)
    return rows, listed.ravel(), _distances(centres[:, None, :], pts[listed]).ravel(), edge


def _ball_entries(tree: cKDTree, centres: np.ndarray, radii):
    """Every point of ``tree.data`` within ``radii[i]`` of ``centres[i]``, by
    the tree's distances, as (owner, ids): the centre and the point of each
    entry, by centre, then point id."""
    found = tree.query_ball_point(centres, radii)
    sizes = np.fromiter(map(len, found), dtype=np.intp, count=len(found))
    ids = np.fromiter(chain.from_iterable(found), dtype=np.intp, count=sizes.sum())
    return np.repeat(np.arange(len(found)), sizes), ids


def _widened(tree: cKDTree, centres: np.ndarray, listing, need):
    """``listing`` (:func:`_listed`) with every point out to ``need[i]`` from
    centre i. A point left off a list is no nearer than its edge, less
    rounding, so a centre whose need comes that close lists instead every
    point out to past max(edge, need) by more than rounding, in one radius
    query over all such centres: ties the tree ranks otherwise than
    ``cdist`` come out as ``cdist`` has them. Returns (rows, cols, dists)
    and the mask of the centres widened."""
    rows, cols, dists, edge = listing
    short = need >= edge * (1.0 - _TREE_RTOL)
    if short.any():
        again = np.flatnonzero(short)
        at, more = _ball_entries(tree, centres[again], np.maximum(edge, need)[again]
                                 * (1.0 + 4.0 * _TREE_RTOL))
        more_rows = again[at]
        keep = ~short[rows]
        rows = np.concatenate([rows[keep], more_rows])
        cols = np.concatenate([cols[keep], more])
        dists = np.concatenate([dists[keep], _distances(centres[more_rows], tree.data[more])])
    return rows, cols, dists, short


def _delaunay_balls(ps: PointSet, subsets, tol):
    """Certified circumballs of the affinely independent rows of ``subsets``:
    the columns (tops, centres, radii, protections) of the accepted rows,
    and the cospherical groups."""
    centers, radii, solvable = _batched_circumballs(ps.points, subsets)
    subsets, centers, radii = subsets[solvable], centers[solvable], radii[solvable]
    rows, protections, groups = _empty_balls(ps.tree, subsets, centers, radii, tol)
    return (subsets[rows], centers[rows], radii[rows], protections), groups


def _build_result(parts, groups, tol) -> DelaunayResult:
    """The result of the columns of ``parts``, stacked in order."""
    tops, centres, radii, protections = (np.concatenate(col) for col in zip(*parts))
    if not len(tops):
        raise PreconditionError("no Delaunay top simplex found")
    return DelaunayResult(
        tops=tops, centres=centres, radii=radii, protections=protections,
        degeneracy_groups=tuple(sorted(groups)),
        generic=not groups,
        tolerance=tol,
    )


def _check_input(ps: PointSet) -> None:
    m = ps.dim
    if ps.n < m + 1:
        raise PreconditionError("need at least m+1 points")
    check_coordinates(ps.points)
    if affine_rank(ps.points) < m:
        raise PreconditionError("point set is not full dimensional")


# The most (m+1)-subsets delaunay_bruteforce examines: up to n = 392 points
# in 2-D or 125 in 3-D, about 20 s at 2 us per subset on one Xeon core.
BRUTE_FORCE_SUBSETS = 10**7


def delaunay_bruteforce(points) -> DelaunayResult:
    """Delaunay complex by exhaustive circumball tests.

    Every affinely independent (m+1)-subset goes through the empty-ball
    certifier: it is accepted when no foreign point sits deeper than
    tolerance inside its circumball, and points within tolerance of an
    accepted sphere are gathered into cospherical groups. Any group with
    more than m+1 members marks the input as non generic. The subsets are
    generated in blocks (``hull.blocks``), and an input with more than
    ``BRUTE_FORCE_SUBSETS`` of them raises :class:`PreconditionError`.
    """
    ps = as_point_set(points)
    _check_input(ps)
    m = ps.dim
    total = comb(ps.n, m + 1)
    if total > BRUTE_FORCE_SUBSETS:
        raise PreconditionError(
            f"brute force would test {total} subsets, more than {BRUTE_FORCE_SUBSETS}")
    tol = ps.tolerance()
    parts = []
    groups: set[tuple[int, ...]] = set()
    flat = chain.from_iterable(combinations(range(ps.n), m + 1))
    # The certifier lists m+3 points per subset (see _empty_balls).
    for block in blocks(total, m + 3):
        chunk = np.fromiter(islice(flat, (block.stop - block.start) * (m + 1)), dtype=np.intp)
        found, more = _delaunay_balls(ps, chunk.reshape(-1, m + 1), tol)
        parts.append(found)
        groups |= more
    return _build_result(parts, groups, tol)


def _lifted_top_simplices(pts: np.ndarray) -> np.ndarray:
    n, m = pts.shape
    if n == m + 1:
        return np.arange(n, dtype=int)[None, :]
    try:
        tri = _SciDelaunay(pts)
    except QhullError as exc:  # pragma: no cover - guarded by _check_input
        raise PreconditionError(f"lifted construction failed: {exc}") from exc
    return np.sort(tri.simplices, axis=1)


def delaunay_lifted(points) -> DelaunayResult:
    """Delaunay complex via the paraboloid lift (qhull), then canonicalised.

    qhull triangulates cospherical groups arbitrarily. Its simplices go
    through the same empty-ball certifier as :func:`delaunay_bruteforce`,
    and each cospherical group is completed with all of its affinely
    independent (m+1)-subsets, so the output is a canonical function of the
    input alone. The two routes agree on generic inputs and on degenerate
    ones such as exact lattices.
    """
    ps = as_point_set(points)
    _check_input(ps)
    tol = ps.tolerance()
    tops = _lifted_top_simplices(ps.points)
    found, groups = _delaunay_balls(ps, tops[sorted_rows(tops, ps.n)], tol)
    parts = [found]
    # Complete each cospherical group: every full rank (m+1)-subset of a
    # common empty sphere is Delaunay, whatever diagonal qhull picked.
    have = set(map(tuple, found[0].tolist())) if groups else set()
    for group in sorted(groups):
        extra = [s for s in combinations(group, ps.dim + 1) if s not in have]
        if extra:
            parts.append(_delaunay_balls(ps, np.array(extra, dtype=int), tol)[0])
            have.update(map(tuple, parts[-1][0].tolist()))
    return _build_result(parts, groups, tol)


# Least distance of a point from the plane of a boundary facet it is not on,
# relative to the diameter: far past the rounding of qhull's tests.
_HULL_RTOL = 1e-9


def _kept_triangulations(ps: PointSet, base: DelaunayResult,
                         copies) -> list[DelaunayResult | None]:
    """For each perturbed copy of ``ps`` (an (n, m) array of ``copies``), the
    result of ``delaunay_lifted(copy)``, equal column for column and bit for
    bit, where the tops of ``base`` (``delaunay_lifted(ps)``, generic) are
    shown to stay its Delaunay triangulation; None elsewhere.

    A copy keeps the tops when it passes ``check_coordinates``, every top
    has a circumball, every point lies inside every boundary facet (a facet
    of one top) past a margin (:func:`_inside`), and every top's protection
    exceeds the tolerance. Then every ball is strictly empty, so the tops
    are Delaunay cells and do not overlap; each facet of two tops has one on
    either side, and the boundary facets lie on the hull, so the tops fill
    it. They are the copy's only Delaunay triangulation, the one qhull
    returns. Two tops that overlap fail the protection test, so no
    orientation test is needed. The boundary vertices are then the hull
    vertices, so the distances between them give the diameter as
    :meth:`PointSet.diameter` does; a copy with a point outside a boundary
    facet fails the facet test whatever its cushion.

    A protection is the least margin over the points of the base tree within
    R = r + p + 2 (d + s) of the base centre, where d is the shift of the
    copy's centre and s its largest point shift, both known before the one
    radius query that serves every copy: the base ball's nearest foreign
    point, moved, is within r + p + d + s of the copy's centre. Each copy's
    list is checked afterwards: a point left off it lies farther than the
    least listed distance.

    Each test is one pass over the stack of copies, in blocks
    (``hull.blocks``), and computes every row on its own, so a copy's
    columns do not depend on the other copies.
    """
    out: list[DelaunayResult | None] = [None] * len(copies)
    if not base.generic:
        return out
    n, m = ps.n, ps.dim
    tops, count = base.tops, len(base.tops)
    # Entry t * count + r of ``inverse`` is face t of top r, which drops its
    # vertex m - t (``combinations`` order); a boundary facet has one entry.
    faces, inverse = _faces_of(tops, m)
    outer = np.flatnonzero(np.bincount(inverse)[inverse] == 1)
    facets = faces[inverse[outer]]
    # Swapping two vertices turns a facet's normal, so each is made to point
    # into its top: to the side of the top's other vertex.
    corner, _, normal = _facet_normals(ps.points, facets)
    other = ps.points[tops[outer % count, m - outer // count]]
    turn = (normal * (other - corner)).sum(axis=1) < 0.0
    facets[turn, :2] = facets[turn, 1::-1]
    hull_ids = np.unique(facets)
    stack = np.array(copies, dtype=float).reshape(-1, n, m)
    live = []
    for k, pts in enumerate(stack):
        try:
            check_coordinates(pts)
        except PreconditionError:
            continue
        live.append(k)
    live = np.array(live, dtype=np.intp)
    live = live[np.isfinite(stack[live]).all(axis=(1, 2))]
    if not len(live):
        return out
    stack = stack[live]
    centres, radii, solved = _stacked_circumballs(stack, tops)
    diameters = _stacked_diameters(stack, hull_ids)
    keep = solved.all(axis=1) & _inside(stack, facets, diameters)
    if not keep.any():
        return out
    live, stack, centres, radii = live[keep], stack[keep], centres[keep], radii[keep]
    tols = PROTECTION_RTOL * diameters[keep]
    moved = _distances(centres, base.centres) + _distances(stack, ps.points).max(axis=1)[:, None]
    scale = max(np.abs(ps.points).max(), np.abs(base.centres).max(), np.abs(centres).max())
    slack = 1e-12 * (base.radii + base.protections + scale)
    reach = base.radii + base.protections + 2.0 * (moved.max(axis=0) + slack)
    owner, ids = _ball_entries(ps.tree, base.centres, reach * (1.0 + 4.0 * _TREE_RTOL))
    foreign = ~_owned(tops[owner], ids)
    owner, ids = owner[foreign], ids[foreign]
    for part in blocks(len(live), len(owner) * m):
        dists = _distances(centres[part][:, owner], stack[part][:, ids])
        at = (owner + count * np.arange(len(dists))[:, None]).ravel()
        protections = _least((dists - radii[part][:, owner]).ravel(), at,
                             len(dists) * count).reshape(-1, count)
        nearest = _least(dists.ravel(), at, len(dists) * count).reshape(-1, count)
        good = ((nearest < reach - moved[part] - slack).all(axis=1)
                & (protections > tols[part, None]).all(axis=1))
        for j in np.flatnonzero(good).tolist():
            out[live[part][j]] = DelaunayResult(
                tops=tops, centres=centres[part][j], radii=radii[part][j],
                protections=protections[j], degeneracy_groups=(), generic=True,
                tolerance=float(tols[part][j]))
    return out


def _stacked_circumballs(stack: np.ndarray, tops: np.ndarray):
    """:func:`_batched_circumballs` of the rows ``tops`` in each copy of
    ``stack`` (K, n, m), in blocks of copies: centres (K, T, m), radii and
    solved flags (K, T). Every row is solved on its own."""
    count, n, m = stack.shape
    parts = [_batched_circumballs(stack[b].reshape(-1, m), (
        tops + n * np.arange(b.stop - b.start)[:, None, None]).reshape(-1, m + 1))
        for b in blocks(count, len(tops) * (m + 1) * m)]
    centres, radii, solved = (np.concatenate(col) for col in zip(*parts))
    return (centres.reshape(count, len(tops), m), radii.reshape(count, len(tops)),
            solved.reshape(count, len(tops)))


def _stacked_diameters(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Largest distance between two points of ``rows`` in each copy of
    ``stack`` (K, n, m): one table of (copy, row) pairs against the copy's
    rows per block (``blocks``). Where ``rows`` holds the hull vertices this
    is :meth:`PointSet.diameter` bit for bit: a farthest pair is a pair of
    hull vertices, and each distance is the ``cdist`` entry."""
    count, _, m = stack.shape
    hull = stack[:, rows]
    owner, at = np.repeat(np.arange(count), len(rows)), np.tile(np.arange(len(rows)), count)
    far = np.zeros(count)
    for part in blocks(len(owner), len(rows) * m):
        own = owner[part]
        np.maximum.at(far, own, _distances(hull[own, at[part], None], hull[own]).max(axis=1))
    return far


def _inside(stack: np.ndarray, facets: np.ndarray, diameters: np.ndarray) -> np.ndarray:
    """Whether every point of each copy in ``stack`` (K, n, m) lies on the
    positive side of the plane of every facet (rows of m vertex ids, normals
    from ``hull._facet_normals``) it is not on, farther than ``_HULL_RTOL``
    times the copy's diameter past a rounding cushion; one stacked (copies x
    facets x points) table per block of facets (``blocks``)."""
    count, n, m = stack.shape
    ids = (facets + n * np.arange(count)[:, None, None]).reshape(-1, m)
    corner, _, normal = _facet_normals(stack.reshape(-1, m), ids)
    cushion = (_norms(normal).reshape(count, len(facets))
               * (_HULL_RTOL * diameters + 1e-12 * np.abs(stack).max(axis=(1, 2)))[:, None])
    offset = (corner * normal).sum(axis=1).reshape(count, len(facets))
    normal = normal.reshape(count, len(facets), m)
    inside = np.ones(count, dtype=bool)
    for part in blocks(len(facets), count * n):
        side = normal[:, part] @ stack.transpose(0, 2, 1) - offset[:, part, None]
        side[:, np.arange(part.stop - part.start)[:, None], facets[part]] = np.inf
        inside &= (side > cushion[:, part, None]).all(axis=(1, 2))
    return inside


# -- relaxed (almost empty ball) membership --------------------------------


@dataclass(frozen=True, eq=False)
class RelaxedResult:
    """Relaxed Delaunay star of a region as columns, one row per member in
    candidate order: its sorted vertex ids padded to m+1 by repeating the
    first, its vertex count and the centre of its almost empty ball. The
    closed star, with the region's vertices, is derived on first read."""

    region: tuple[int, ...]
    members: np.ndarray    # (K, m+1)
    sizes: np.ndarray      # (K,)
    witnesses: np.ndarray  # (K, m)
    rho: float
    undecided: tuple[tuple[int, ...], ...] = ()
    tolerance: float = 0.0

    @cached_property
    def complex(self) -> SimplicialComplex:
        # The set of a padded row's ids is its simplex.
        return SimplicialComplex([*map(set, self.members.tolist()), *((v,) for v in self.region)])

    @property
    def certified(self) -> bool:
        return not self.undecided


def _nearest(tree: cKDTree, centres: np.ndarray) -> np.ndarray:
    """Distance from each centre to its nearest point of ``tree.data``, equal
    to ``cdist(centres, tree.data).min(axis=1)`` bit for bit: the least of a
    list of m+2 (:func:`_listed`), widened out to that least (:func:`_widened`).
    A circumcentre or a known ball centre is equidistant from up to m+1
    points, so a shorter list would send most of them to the radius query."""
    rows, _, dists, _ = listing = _listed(tree, centres, tree.data.shape[1] + 2)
    rows, _, dists, _ = _widened(tree, centres, listing, _least(dists, rows, len(centres)))
    return _least(dists, rows, len(centres))


def _ball_gap(centres: np.ndarray, members: np.ndarray, tree: cKDTree) -> np.ndarray:
    """g(c) = enclosing radius of the member points minus nearest point gap,
    for each row c; g(c) <= 0 exactly at centres of empty member balls.

    Row k of ``members`` holds the member points of the candidate that owns
    centre k. A candidate with fewer than m+1 vertices repeats one of them,
    which leaves the enclosing radius unchanged. Every distance is measured
    as ``cdist`` measures it.
    """
    need = _distances(centres[:, None, :], members).max(axis=1)
    return need - _nearest(tree, centres)


def _gaps(gap, centres, owner):
    """gap over the rows of a stack of centres in R^m, in blocks
    (``hull.blocks``) of its (m+1) x m table of member offsets. Every row's
    value is computed on its own, so the blocks move no bit."""
    m = centres.shape[1]
    return np.concatenate([gap(centres[b], owner[b]) for b in blocks(len(centres), (m + 1) * m)]
                          or [np.zeros(0)])


def _first_rows(owner: np.ndarray) -> np.ndarray:
    """Positions where a new owner starts in a nondecreasing owner column."""
    return np.flatnonzero(np.diff(owner, prepend=-1))


def _branch_and_bound(gap, seeds, radius, lipschitz, threshold, max_nodes=20000):
    """For each candidate k, search the cube of half width ``radius`` around
    ``seeds[k]`` for a centre c with gap(c) <= threshold, or certify that
    none exists.

    ``gap(centres, owner)`` maps rows of centres, each tagged with the index
    of its candidate, to values. A cube of half width h centred where gap
    was measured cannot hide a value below gap - lipschitz * h, so such
    cubes are pruned and the rest split into 2^m halves. Every candidate
    moves one level per step, its rows kept together in split order, and
    leaves the stack once decided. Returns (verdicts, witnesses), one entry
    per candidate: True with the first hit of its first level that hits as
    witness, False (certified absent) or None (undecided, once more than
    ``max_nodes`` of its cubes stayed alive), the last two with witness
    None.

    Candidates are independent, so the stack is split by candidate whenever
    its next level would hold more than 2^m * ``max_nodes`` rows, the most
    one candidate can reach; the verdicts do not depend on the split.
    """
    seeds = np.asarray(seeds, dtype=float)
    count, m = seeds.shape
    if not count:
        return [], []
    offs = np.array(
        [[(1 if bit & (1 << k) else -1) for k in range(m)] for bit in range(2**m)],
        dtype=float,
    )
    verdicts: list[bool | None] = [False] * count
    witnesses: list[np.ndarray | None] = [None] * count
    nodes = np.zeros(count, dtype=np.int64)
    decided = np.zeros(count, dtype=bool)  # found, or out of budget
    # Entries are (parents, owners, half width of their halves); the seeds
    # enter as the halves of nothing.
    stack = [(seeds, np.arange(count), float(radius))]
    first_level = True
    while stack:
        centers, owner, half = stack.pop()
        if first_level:
            first_level = False
        else:
            centers = (centers[:, None, :] + offs[None, :, :] * half).reshape(-1, m)
            owner = np.repeat(owner, offs.shape[0])
        vals = _gaps(gap, centers, owner)
        hit = np.flatnonzero(vals <= threshold)
        if hit.size:
            first = hit[_first_rows(owner[hit])]
            for k, row in zip(owner[first].tolist(), first.tolist()):
                verdicts[k], witnesses[k] = True, centers[row].copy()
            decided[owner[first]] = True
        alive = (vals - lipschitz * half <= threshold) & ~decided[owner]
        nodes += np.bincount(owner[alive], minlength=count)
        # A candidate outside this entry passed this test at its last level.
        over = np.flatnonzero((nodes > max_nodes) & ~decided)
        if over.size:
            for k in over.tolist():
                verdicts[k] = None
            decided[over] = True
            alive &= ~decided[owner]
        centers, owner = centers[alive], owner[alive]
        # Groups of parents by candidate, none with more than max_nodes
        # rows unless one candidate alone has them (it never has more).
        cuts = [0, len(owner)]
        if len(owner) > max_nodes:
            cuts = [0]
            starts = _first_rows(owner).tolist()
            for lo, hi in zip(starts, starts[1:] + [len(owner)]):
                if hi - cuts[-1] > max_nodes and lo > cuts[-1]:
                    cuts.append(lo)
            cuts.append(len(owner))
        stack.extend((centers[lo:hi], owner[lo:hi], half / 2.0)
                     for lo, hi in reversed(list(zip(cuts[:-1], cuts[1:]))) if hi > lo)
    return verdicts, witnesses


def _checked_region(region, n: int) -> list[int]:
    """Sorted distinct vertex ids of a region of an n-point set; raises
    :class:`PreconditionError` when it is empty or names a vertex outside
    the set."""
    region = sorted({int(v) for v in region})
    if not region:
        raise PreconditionError("region must be nonempty")
    if any(v < 0 or v >= n for v in region):
        raise PreconditionError("region vertex outside point set")
    return region


def _star_candidates(ps: PointSet, region, reach, sizes):
    """Simplices of a vertex in ``region`` and k more vertices, for each k
    in ``sizes``, of diameter at most ``reach`` as ``cdist`` measures it.

    Returns (rows, counts, diameters), by size, then key (``row_keys``), so
    a smaller reach lists a subsequence of the rows of a larger one: vertex
    ids, sorted and padded to m+1 by repeating the first, vertex counts and
    diameters. A row, a region vertex and entries of its KD-tree ball in id
    order, grows size by size by each later entry that keeps its diameter
    within ``reach``, a block of (row, entry) pairs (``hull.blocks``) at a
    time. A simplex grows from its least region vertex only, so none is
    listed twice.
    """
    pts, width, region = ps.points, ps.dim + 1, np.asarray(region, dtype=np.intp)
    owner, ids = _ball_entries(ps.tree, pts[region], reach * (1.0 + 4.0 * _TREE_RTOL))
    diam = _distances(pts[region[owner]], pts[ids])
    in_region = np.bincount(region, minlength=ps.n) > 0
    keep = (diam <= reach) & ~(in_region[ids] & (ids <= region[owner]))
    owner, ids, diam = owner[keep], ids[keep], diam[keep]
    end = np.searchsorted(owner, owner, "right")  # past the last entry of each ball
    # Each row's last entry is ids[last[row]].
    rows, last, parts = np.column_stack([region[owner], ids]), np.arange(len(ids)), []
    for size in range(1, max(sizes) + 1):
        if size > 1:
            stop = np.cumsum(end[last] - last - 1)  # past each row's pairs
            kept, far = [last[:0]], [diam[:0]]
            for part in blocks(int(stop[-1]) if len(stop) else 0, size * ps.dim):
                at = np.arange(part.start, part.stop)
                row = np.searchsorted(stop, at, "right")
                d = _distances(pts[rows[row]], pts[ids[end[last[row]] - stop[row] + at], None])
                d = np.maximum(diam[row], d.max(axis=1))
                kept.append(at[d <= reach])
                far.append(d[d <= reach])
            at, diam = np.concatenate(kept), np.concatenate(far)
            del kept, far
            row = np.searchsorted(stop, at, "right")
            last = end[last[row]] - stop[row] + at
            rows = np.column_stack([rows[row], ids[last]])
        if size in sizes:
            keyed = np.sort(rows, axis=1)
            order = np.argsort(row_keys(keyed, ps.n))
            parts.append((keyed[order][:, [*range(size + 1), *[0] * (width - size - 1)]],
                          np.full(len(order), size + 1), diam[order]))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _containing_tops(tops: np.ndarray, padded: np.ndarray, region, radix: int):
    """(candidate, row) pairs of the candidates ``padded`` (rows of
    :func:`_star_candidates`, 2 to m+1 vertices, one in ``region``) and the
    rows of ``tops`` that contain them, by candidate, then row. The faces of
    the tops that meet the region are padded alike, keyed and sorted by
    (key, row), and each candidate's key is searched among them.
    """
    width = tops.shape[1]
    near = np.flatnonzero(_holds_any(tops, region, radix))
    combos = [(*c, *(c[0],) * (width - k))
              for k in range(2, width + 1) for c in combinations(range(width), k)]
    keys = row_keys(tops[near][:, combos].reshape(-1, width), radix)
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], np.repeat(near, len(combos))[order]
    want = row_keys(padded, radix)
    lo, hi = np.searchsorted(keys, want, "left"), np.searchsorted(keys, want, "right")
    count = hi - lo
    owner = np.repeat(np.arange(len(padded)), count)
    at = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(count.sum())
    return owner, rows[at]


class _Windows:
    """The candidates of a region within ``reach``, built once and read at
    any reach up to it.

    ``rows``, ``sizes`` and ``diameters`` are the columns of
    ``_star_candidates(ps, region, reach, sizes)`` and ``seeds`` the rows'
    :func:`_circumcenter_seeds` centres. A candidate is a row of diameter at
    most its reach, so ``diameters <= r`` lists the candidates of any reach
    r up to ``reach``, in their order. The (m+1)-vertex rows come last, in
    key order, and are also held as ``tops``, with their
    :func:`circumballs` columns ``balls``, from which their seeds are taken.
    No row's bits depend on the stack, so a row read at a smaller reach has
    the bits of a build there.
    """

    def __init__(self, ps: PointSet, region, reach: float, sizes) -> None:
        pts, m = ps.points, ps.dim
        self.rows, self.sizes, self.diameters = _star_candidates(
            ps, _checked_region(region, ps.n), reach, sizes)
        full = self.sizes == m + 1
        self.tops = self.rows[full]
        self.balls = circumballs(pts, self.tops)
        self.seeds = np.zeros((len(self.rows), m))
        self.seeds[~full] = _circumcenter_seeds(pts, self.rows[~full], self.sizes[~full])
        self.seeds[full] = _seeds(pts, self.tops, self.balls)


def relaxed_delaunay(points, rho: float, region, *, eps: float,
                     base: DelaunayResult) -> RelaxedResult:
    """Star of ``region`` in the almost empty ball complex at slack ``rho``.

    A candidate simplex (any dimension, one vertex in the region, diameter at
    most 2 eps) belongs when some centre c satisfies

        max_{p in sigma} |c - p|  <=  min_{q in P} |c - q| + rho.

    Membership is decided with an explicit witness centre: the candidate's
    circumcentre (its vertex mean where it has none) or a centre of one of
    its known Delaunay balls, all tried in one gap evaluation, or else the
    first hit of the branch and bound. Non membership over the cube of half
    width 4 eps around the circumcentre is certified by the lifting map
    (:func:`_lifting_bound`) or, for the candidates it leaves open, by the
    branch and bound, run over all of them at once. Candidates that exhaust
    the search budget are reported in ``undecided`` and leave the result non
    certified. ``eps`` is the sampling radius and ``base`` the Delaunay
    complex of the points, whose balls seed the witness search. This is the
    one-slack call of :func:`_relaxed_stars`.
    """
    return _relaxed_stars(as_point_set(points), [rho], region, eps, base)[0]


def _relaxed_stars(ps: PointSet, rhos, region, eps: float, base: DelaunayResult,
                   windows: _Windows | None = None) -> list[RelaxedResult]:
    """The relaxed stars of ``region`` at each slack of ``rhos``, in order,
    from one build of the candidates, their seeds and their first tries.
    The candidates are the rows of ``windows`` at 2 eps + tol when it is
    given (built at that reach or more, with every candidate size), or of
    one build at that reach.

    The slacks are decided in descending order. The first tries of every
    slack read one gap evaluation. The branch and bound is monotone in its
    threshold: a lower one prunes a superset of the cubes, so it finds no
    new hit and spends no more nodes. A candidate it proves absent at one
    slack is therefore absent at every smaller one and is not searched
    again; an undecided one is. The lifting bounds do not depend on the
    slack either, so they are computed once, for the candidates no first
    try settles at the least slack.
    """
    rhos = [float(rho) for rho in rhos]
    if not all(np.isfinite(rho) and rho >= 0 for rho in rhos):
        raise PreconditionError("rho must be finite and nonnegative")
    region = _checked_region(region, ps.n)
    pts, m = ps.points, ps.dim
    tol = ps.tolerance()
    half = 4.0 * eps
    reach = 2.0 * eps + tol
    if windows is None:
        windows = _Windows(ps, region, reach, range(1, m + 1))
    at = windows.diameters <= reach
    rows, sizes, seeds = windows.rows[at], windows.sizes[at], windows.seeds[at]
    member_pts = pts[rows]

    def gap(centres, owner):
        return _ball_gap(centres, member_pts[owner], ps.tree)

    # First tries, in one gap evaluation: each candidate's seed, then the
    # centre of every known Delaunay ball of the candidate, in row order.
    ball_owner, ball_rows = _containing_tops(base.tops, rows, region, ps.n)
    owner = np.concatenate([np.arange(len(rows)), ball_owner])
    order = np.argsort(owner, kind="stable")
    owner, tries = owner[order], np.vstack([seeds, base.centres[ball_rows]])[order]
    values = _gaps(gap, tries, owner)
    ask = np.ones(len(rows), dtype=bool)
    ask[owner[values <= min(rhos) + tol]] = False
    ask = np.flatnonzero(ask)
    bound, radius = np.full(len(rows), -np.inf), np.ones(len(rows))
    bound[ask], radius[ask] = _lifting_bound(ps, rows[ask], seeds[ask], half)
    absent = np.zeros(len(rows), dtype=bool)
    stars = {}
    for rho in sorted(set(rhos), reverse=True):
        threshold = rho + tol
        hit = np.flatnonzero(values <= threshold)
        first = hit[_first_rows(owner[hit])]
        member = np.zeros(len(rows), dtype=bool)
        witnesses = np.zeros_like(seeds)
        member[owner[first]], witnesses[owner[first]] = True, tries[first]
        # A member centre c has R - d <= threshold, so h = (R - d)(R + d)
        # <= 2 threshold R(c): a bound above that leaves no such centre.
        rest = np.flatnonzero(~member & ~absent & ~(bound > 2.0 * threshold * radius))
        verdicts, found = _branch_and_bound(
            lambda c, k: gap(c, rest[k]), seeds[rest], half, 2.0 * np.sqrt(m), threshold)
        for k, verdict, witness in zip(rest.tolist(), verdicts, found):
            if verdict:
                member[k], witnesses[k] = True, witness
            absent[k] = verdict is False
        undecided = sorted(tuple(r[:k]) for r, k, v in zip(
            rows[rest].tolist(), sizes[rest].tolist(), verdicts) if v is None)
        stars[rho] = RelaxedResult(
            region=tuple(region), members=rows[member], sizes=sizes[member],
            witnesses=witnesses[member], rho=rho, undecided=tuple(undecided), tolerance=tol,
        )
    # Equal slacks share a star; each keeps its own rho (0.0 and -0.0 differ).
    return [replace(stars[rho], rho=rho) for rho in rhos]


# Most pivots of the dual simplex of _lifting_bound. On the jittered grids
# of side 11, 41 and 81 (2-D) and 9 (3-D) every row reaches the optimum
# within 12.
_LIFT_PIVOTS = 32


def _lifting_bound(ps: PointSet, rows, seeds, half: float):
    """Lower bound on h = R^2 - d^2 over the cube of half width ``half``
    about each seed, and the largest R over that cube.

    R(c) is the largest distance from c to a vertex of the candidate (the
    padded ids ``rows[k]``) and d(c) the least to a point of the set, so
    h(c) is the max over pairs (p in sigma, q in P) of the affine
    a.c + b, a = 2(q - p) and b = |p|^2 - |q|^2: convex and piecewise linear,
    the lifting map of Edelsbrunner and Seidel (*Voronoi diagrams and
    arrangements*, 1986). The pairs whose q is a vertex of the candidate or
    one of the 3(m+1) points nearest its seed give h_Q <= h. Weights
    lambda >= 0 summing to 1 over the pairs bound the least h_Q over the cube
    by sum lambda b - half |sum lambda a|_1 (weak duality). The weights are
    those of the basis of a dual simplex on the linear program min t,
    t >= a.x + b, |x_i| <= half, in the seed's frame. It starts at the pair
    largest at the seed with the box faces it leans on. Each live row brings
    in its most violated constraint per step, until none is violated or
    ``_LIFT_PIVOTS`` steps; the objective never falls from step to step. The
    bound of its last basis, or of the best single pair where that is
    higher, is returned less an outward rounding margin. Every row is
    computed on its own, so its bound does not depend on the stack, and
    nothing depends on a slack. The rows go in blocks (``hull.blocks``) of
    their (pairs x (m+1)) constraint tables, 4(m+1)^3 entries a row.
    """
    parts = [_lifting_block(ps, rows[b], seeds[b], half)
             for b in blocks(len(seeds), 4 * (ps.dim + 1) ** 3)] or [(np.zeros(0), np.zeros(0))]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _lifting_block(ps: PointSet, rows, seeds, half: float):
    """:func:`_lifting_bound` of one block of rows."""
    count, m = seeds.shape
    near = ps.tree.query(seeds, k=min(3 * (m + 1), ps.n))[1].reshape(count, -1)
    p = ps.points[rows] - seeds[:, None, :]
    q = ps.points[np.concatenate([rows, near], axis=1)] - seeds[:, None, :]
    a = 2.0 * (q[:, None, :, :] - p[:, :, None, :]).reshape(count, -1, m)
    b = ((p * p).sum(axis=2)[:, :, None] - (q * q).sum(axis=2)[:, None, :]).reshape(count, -1)
    pairs = b.shape[1]
    # Constraint rows g.(x, t) >= r: each pair (-a, 1) >= b, then the box
    # faces x_i >= -half and -x_i >= -half.
    g = np.zeros((count, pairs + 2 * m, m + 1))
    g[:, :pairs, :m], g[:, :pairs, m] = -a, 1.0
    g[:, pairs:, :m] = np.concatenate([np.eye(m), -np.eye(m)])
    r = np.concatenate([b, np.full((count, 2 * m), -half)], axis=1)
    single = b - half * np.abs(a).sum(axis=2)
    start = np.where((a == 0.0).all(axis=2), -np.inf, b).argmax(axis=1)
    lean = a[np.arange(count), start]
    sign = np.where(lean > 0.0, 1.0, -1.0)
    basis = np.column_stack([pairs + np.arange(m) + m * (sign < 0.0), start])
    # The inverse of the basis rows [[diag(sign), 0], [-a, 1]], then kept by
    # the product-form update of each pivot.
    inv = np.zeros((count, m + 1, m + 1))
    inv[:, range(m), range(m)] = sign
    inv[:, m, :m], inv[:, m, m] = lean * sign, 1.0
    live = np.arange(count)
    noise = 1e-12 * np.abs(r).max(axis=1)
    final = basis.copy(), inv[:, m, :].copy()  # each row's last basis and weights
    for _ in range(_LIFT_PIVOTS):
        step = np.arange(len(live))
        x = (inv * r[step[:, None], basis][:, None, :]).sum(axis=2)
        excess = r - (g * x[:, None, :]).sum(axis=2)
        enter = excess.argmax(axis=1)
        # The weights are the last row of the inverse; the entering row's
        # weights in the basis decide which row leaves (the ratio test).
        mu = (g[step, enter][:, :, None] * inv).sum(axis=1)
        ratio = np.divide(inv[:, m, :], mu, out=np.full_like(mu, np.inf), where=mu > 0.0)
        leave = ratio.argmin(axis=1)
        go = (excess[step, enter] > noise) & np.isfinite(ratio[step, leave])
        if not go.all():
            final[0][live[~go]], final[1][live[~go]] = basis[~go], inv[~go, m, :]
            live, g, r, noise, basis, inv, enter, leave, mu = (
                v[go] for v in (live, g, r, noise, basis, inv, enter, leave, mu))
            step = step[:len(live)]
            if not len(live):
                break
        pivot = mu[step, leave].copy()
        mu[step, leave] -= 1.0
        inv -= inv[step, :, leave][:, :, None] * (mu / pivot[:, None])[:, None, :]
        basis[step, leave] = enter
    final[0][live], final[1][live] = basis, inv[:, m, :]
    # The bound of each final basis's pair weights, valid for any weights.
    basis, w = final
    lam = np.where(basis < pairs, np.maximum(w, 0.0), 0.0)
    total = lam.sum(axis=1)
    lam /= np.where(total > 0.0, total, 1.0)[:, None]
    pick = np.minimum(basis, pairs - 1)
    rows_k = np.arange(count)[:, None]
    s = (lam[:, :, None] * a[rows_k, pick]).sum(axis=1)
    value = (lam * b[rows_k, pick]).sum(axis=1) - half * np.abs(s).sum(axis=1)
    best = np.fmax(single.max(axis=1), np.where(total > 0.0, value, -np.inf))
    radius = np.sqrt(((np.abs(p) + half) ** 2).sum(axis=2)).max(axis=1)
    scale = np.maximum(radius, np.sqrt((q * q).sum(axis=2)).max(axis=1))
    return best - 1e-12 * scale * (scale + np.abs(seeds).max(axis=1)), radius


def _circumcenter_seeds(pts, rows, sizes) -> np.ndarray:
    """Circumcentre of each candidate, the first ``sizes[k]`` ids of row k,
    or its vertex mean where :func:`circumballs` finds none, from one call
    per candidate size."""
    seeds = np.zeros((len(rows), pts.shape[1]))
    for size in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == size)
        seeds[at] = _seeds(pts, rows[at, :size], circumballs(pts, rows[at, :size]))
    return seeds


def _seeds(pts, idx, balls) -> np.ndarray:
    """The centre of each row of ``balls`` (:func:`circumballs` of the
    simplices ``idx``) where it was found, the vertex mean elsewhere."""
    centres, _, found = balls
    return np.where(found[:, None], centres, pts[idx].mean(axis=1))
