"""Convex hull support: facet planes, boundary distance, eroded bodies.

Candidate facets come from qhull (Barber, Dobkin & Huhdanpaa, *The Quickhull
Algorithm for Convex Hulls*, 1996) and every one is confirmed with a float
side-of-plane screen backed by the exact predicates. When a candidate fails,
or the candidates do not close up into a boundary, an exhaustive screen over
vertex subsets replaces them, so qhull tolerance surprises on lattice inputs
never reach the facet list.

Eroding the hull by a margin shifts every facet plane inward by it, so the
same planes describe the eroded body; ``clip_lines`` and ``eroded_edges``
compute on it directly. In 3-D, given a point inside the body,
``eroded_edges`` lists the body's vertices with qhull's halfspace
intersection and clips only the pairs of planes that pass near a common
vertex; without one it clips every pair that is not near parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

from . import predicates
from .complexes import _faces_of
from .errors import PreconditionError
from .simplex import _norms

# Entries of one block of dense tables: 2**16 floats are 512 KB, about a
# core's L2 cache. Tables are built block by block (see blocks), and a block
# counts every table it holds at once.
BLOCK = 1 << 16
# Two facet planes whose normals are closer to parallel than this (sine of
# the angle) are treated as meeting in no edge; see eroded_edges.
_PARALLEL_SINE = 1e-8
# Pairs of planes closer to parallel than this (sine) are candidate edges
# whether or not they pass near a vertex of the body; see _vertex_pairs.
_BAND_SINE = 1e-4


@dataclass(frozen=True)
class HullFacets:
    """Supporting halfspaces a . x <= b of the hull, normals unit outward."""

    normals: np.ndarray  # (f, m)
    offsets: np.ndarray  # (f,)

    def depth(self, x: np.ndarray) -> np.ndarray:
        """Signed distance to the boundary, positive inside, for rows of x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(x.shape[0])
        for rows in blocks(x.shape[0], len(self.offsets)):
            slack = x[rows] @ self.normals.T
            out[rows] = np.subtract(self.offsets, slack, out=slack).min(axis=1)
        return out


def blocks(count: int, width: int) -> list[slice]:
    """Row slices of a (count x width) table, each of about BLOCK entries.

    ``width`` counts the entries per row of every table a block holds at
    once, not just of the largest one. A slice holds at least two rows when
    the table does, because numpy sends a one-row matrix product to a
    matrix-vector kernel that rounds otherwise; so a blocked product has
    the bits of the whole one.
    """
    step = max(2, BLOCK // max(width, 1))
    starts = list(range(0, count, step))
    if len(starts) > 1 and starts[-1] == count - 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def check_coordinates(pts: np.ndarray) -> None:
    """Refuse a set, other than all zeros, whose largest coordinate magnitude
    lies outside [10^-k, 10^k]. qhull's lifted Delaunay terms, of degree 2m
    the highest of the pipeline, leave the normal floats past
    DBL_MAX ** (1 / 2m) (it then reports a flat input) and below
    DBL_MIN ** (1 / 2m); k sits a power of ten inside: 76 in 2-D, 50 in 3-D."""
    k = int(np.log10(np.finfo(float).max) / (2 * pts.shape[1])) - 1
    scale = float(np.abs(pts).max())
    if scale > 10.0 ** k or 0.0 < scale < 10.0 ** -k:
        raise PreconditionError(
            f"largest coordinate magnitude {scale!r} is outside [1e-{k}, 1e+{k}], "
            f"where the {pts.shape[1]}-D hull and lifting stay finite")


def affine_rank(points: np.ndarray) -> int:
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] <= 1:
        return 0
    sv = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv >= 1e-12 * sv[0]))


def _facet_normals(pts: np.ndarray, facets: np.ndarray):
    """First vertex, edge vectors (F, m-1, m) from it, and normal w of each
    facet plane: (-d_y, d_x) in 2-D and d1 x d2 in 3-D."""
    base = pts[facets[:, 0]]
    d = pts[facets[:, 1:]] - base[:, None, :]
    if pts.shape[1] == 2:
        return base, d, np.column_stack([-d[:, 0, 1], d[:, 0, 0]])
    return base, d, np.cross(d[:, 0], d[:, 1])


def _facet_sides(pts: np.ndarray, facets: np.ndarray):
    """Float side values w . (x - base) of every point against each facet
    plane, (F, n), and one certified cushion per facet, below which the
    float sign of an entry cannot be trusted: 64u sum_k c_k max |x_k - base_k|
    over the points' bounding box, where c bounds the terms of w, so in 3-D
    it holds the permanents of the absolute 2x2 minors. Rounding is
    monotone, so it is at least each entry's own cushion 64u c . |x - base|.
    The sums accumulate in place, so the call holds two (F, n) tables."""
    base, d, w = _facet_normals(pts, facets)
    if pts.shape[1] == 2:
        c = np.abs(w)
    else:
        a1, a2, i, j = np.abs(d[:, 0]), np.abs(d[:, 1]), [1, 0, 0], [2, 2, 1]
        c = a1[:, i] * a2[:, j] + a1[:, j] * a2[:, i]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    shape = (facets.shape[0], pts.shape[0])
    side, rel, cushion = np.zeros(shape), np.empty(shape), np.zeros(shape[0])
    for k in range(pts.shape[1]):
        np.subtract(pts[None, :, k], base[:, k, None], out=rel)
        side += np.multiply(w[:, k, None], rel, out=rel)
        cushion += c[:, k] * np.maximum(hi[k] - base[:, k], base[:, k] - lo[k])
    cushion *= 64.0 * np.finfo(float).eps
    return side, cushion


def _confirm_facets(pts: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """Exact weak-support test of each facet, rows of ``facets``: no two
    points on strictly opposite sides of its plane.

    One float side table per block of (facet, point) entries (``blocks``)
    decides every entry outside its facet's cushion (``_facet_sides``).
    Only the other entries of facets not already refuted go to the exact
    predicate. A block holds the side table, a scratch table and the masks.
    """
    ok = np.ones(facets.shape[0], dtype=bool)
    for rows in blocks(facets.shape[0], 3 * pts.shape[0]):
        block = facets[rows]
        side, cushion = _facet_sides(pts, block)
        # The facet's own vertices are on the plane by definition; their float
        # side values are pure rounding noise and must not vote.
        np.put_along_axis(side, block, 0.0, axis=1)
        pos, neg = side.max(axis=1) > cushion, side.min(axis=1) < -cushion
        ok[rows] = ~(pos & neg)
        unsure = np.abs(side, out=side) <= cushion[:, None]
        np.put_along_axis(unsure, block, False, axis=1)
        for r in np.flatnonzero(ok[rows] & unsure.any(axis=1)):
            signs = {predicates.side_of_plane(pts[block[r]], pts[k])
                     for k in np.flatnonzero(unsure[r])}
            ok[rows.start + r] = not ((pos[r] or 1 in signs) and (neg[r] or -1 in signs))
    return ok


def _facet_planes_bruteforce(pts: np.ndarray) -> np.ndarray:
    """Subsets of m points whose hyperplane weakly supports every point."""
    subsets = np.array(list(combinations(range(pts.shape[0]), pts.shape[1])), dtype=int)
    return subsets[_confirm_facets(pts, subsets)]


def _facet_planes_seeded(pts: np.ndarray) -> np.ndarray | None:
    """Candidate facets from qhull, each confirmed exactly.

    Returns None when any candidate fails confirmation (a warped
    triangulation of a near-coplanar patch) or when the candidates do not
    form a closed boundary (every ridge shared by exactly two facets),
    signalling the caller to fall back to the exhaustive route.
    """
    try:
        hull = ConvexHull(pts, qhull_options="Qt")
    except Exception:
        return None
    _, ridges = _faces_of(np.sort(hull.simplices, axis=1), pts.shape[1] - 1)
    if not np.all(np.bincount(ridges) == 2):
        return None
    if not _confirm_facets(pts, hull.simplices).all():
        return None
    return hull.simplices


def _facet_planes(pts: np.ndarray, facets: np.ndarray):
    """Unit outward normals and offsets of the facet planes, one per plane.

    Planes whose normals and offsets agree to 9 decimals are merged; the
    first facet of each keeps its plane, in facet order. A facet with a zero
    normal is skipped.
    """
    base, _, nrm = _facet_normals(pts, facets)
    norm = _norms(nrm)
    keep = norm != 0.0
    nrm, base = nrm[keep] / norm[keep, None], base[keep]
    # Row dots, each rounded as the 1-D dot of its rows (see simplex._norms).
    off = (nrm[:, None, :] @ base[:, :, None])[:, 0, 0]
    flip = (nrm[:, None, :] @ pts.mean(axis=0)[:, None])[:, 0, 0] > off
    nrm[flip], off[flip] = -nrm[flip], -off[flip]
    # Adding zero makes -0.0 and 0.0 one key.
    keys = np.round(np.column_stack([nrm, off]), 9) + 0.0
    first = np.sort(np.unique(keys, axis=0, return_index=True)[1])
    return nrm[first], off[first]


def hull_facets(points: np.ndarray) -> HullFacets:
    """Hull facet planes of a full dimensional point set.

    Facet subsets come from qhull and are confirmed with exact predicates;
    if any candidate fails, or the candidates leave the boundary open, the
    exhaustive screen supplies them instead.
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=float))
    m = pts.shape[1]
    if m not in (2, 3):
        raise PreconditionError("hull support covers ambient dimension 2 and 3")
    check_coordinates(pts)
    if affine_rank(pts) < m:
        raise PreconditionError("point set is not full dimensional")
    facets = _facet_planes_seeded(pts)
    if facets is None:
        facets = _facet_planes_bruteforce(pts)
    return HullFacets(*_facet_planes(pts, facets))


def clip_lines(facets: HullFacets, margin: float, origins: np.ndarray,
               directions: np.ndarray, own: np.ndarray | None = None):
    """Clip the lines o + t d to the eroded body { depth >= margin }.

    Returns the parameter bounds (lo, hi) of each line inside the body; a
    line misses the body where lo > hi. Row k of ``own`` lists the facets
    whose shifted planes line k lies in. Their constraints hold by
    construction and are not tested, since rounding noise would decide them.
    The (lines x facets) tables are built block by block (``blocks``); a
    block holds three of them and their masks.
    """
    normals, offsets = facets.normals, facets.offsets - margin
    count = origins.shape[0]
    lo, hi = np.empty(count), np.empty(count)
    for block in blocks(count, 4 * normals.shape[0]):
        slack = origins[block] @ normals.T
        np.subtract(offsets, slack, out=slack)
        rate = directions[block] @ normals.T
        if own is not None:
            np.put_along_axis(slack, own[block], np.inf, axis=1)
        miss = ((rate == 0) & (slack < 0)).any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.divide(slack, rate, out=slack)
        lo[block] = np.where(rate < 0, t, -np.inf).max(axis=1)
        hi[block] = np.where(rate > 0, t, np.inf).min(axis=1)
        lo[block][miss] = np.inf
    return lo, hi


def _vertex_pairs(normals: np.ndarray, offsets: np.ndarray, inside: np.ndarray,
                  band: float) -> np.ndarray | None:
    """(f, f) table of the pairs of planes that pass within a band of a
    common vertex of the body { n_k . x <= b_k } (``normals``, ``offsets``),
    whose vertices qhull lists about ``inside`` (Barber, Dobkin &
    Huhdanpaa, 1996); None when ``inside`` is not strictly inside or qhull
    fails.

    A pair whose line clips to a nonempty piece of the body has a point x
    within rounding r of both planes that breaks no constraint by more than
    r. Where (n_i + n_j) . y peaks over the body, at a vertex v, LP duality
    (multipliers l >= 0, sum l_k n_k = n_i + n_j) puts each plane within
    r (2 + sum l_k) of v. With s the distances from ``inside`` to the
    planes, the dual optimum lies between s_min sum l_k + (n_i + n_j) .
    inside and b_i + b_j, so sum l_k <= 2 s_max / s_min. The band is
    ``band`` s_max / s_min, and ``band`` stands above 4r and qhull's
    rounding of v while r, which grows as 1 / sine of the planes' angle,
    is small: pairs within _BAND_SINE of parallel are listed regardless.
    """
    s = offsets - normals @ inside
    if not s.min() > 0.0:
        return None
    try:
        vertices = HalfspaceIntersection(np.column_stack([normals, -offsets]),
                                         inside).intersections
    except QhullError:
        return None
    gap = vertices @ normals.T
    near = np.abs(np.subtract(gap, offsets, out=gap), out=gap) <= band * s.max() / s.min()
    table = near.T.astype(float) @ near > 0.0
    return table | (np.abs(normals @ normals.T) > np.sqrt(1.0 - _BAND_SINE**2))


def _edge_pairs(facets: HullFacets, margin: float, inside: np.ndarray | None = None):
    """Pairs (i, j), i < j, of facet planes whose line can carry an edge of
    the eroded body { depth >= margin }, in row-major order, with a point
    and a unit direction of each pair's line.

    With a point ``inside`` the body these are the pairs of
    ``_vertex_pairs``; without one, or when that fails, every pair. Pairs of
    planes within _PARALLEL_SINE of parallel are dropped: they meet far
    outside the body, or along an edge between two facets that are coplanar
    up to rounding, which bounds neither facet. Each pair's line is computed
    on its own, so a kept pair keeps its bits and its place in the order
    either way.
    """
    normals, offsets = facets.normals, facets.offsets - margin
    i, j = np.triu_indices(normals.shape[0], 1)
    band = 1e-9 * max(1.0, float(np.abs(offsets).max()))
    table = None if inside is None else _vertex_pairs(normals, offsets, inside, band)
    if table is not None:
        listed = table[i, j]
        i, j = i[listed], j[listed]
    cross = np.cross(normals[i], normals[j])
    sine = np.linalg.norm(cross, axis=1)
    keep = sine > _PARALLEL_SINE
    i, j, sine = i[keep], j[keep], sine[keep, None]
    directions = cross[keep] / sine
    # The point of both planes nearest the coordinate origin.
    origins = (offsets[i, None] * np.cross(normals[j], directions)
               + offsets[j, None] * np.cross(directions, normals[i])) / sine
    return i, j, origins, directions


def eroded_edges(facets: HullFacets, margin: float, inside: np.ndarray | None = None):
    """End points (a, b) of the edges of the eroded body { depth >= margin }.

    Eroding the hull shifts each facet plane inward by the margin. In 2-D
    each shifted facet line is clipped to the body, in 3-D the line through
    each pair of shifted facet planes that ``_edge_pairs`` keeps, from the
    body's vertices when a point ``inside`` it is given. A nonempty clip is
    an edge of the body, possibly of zero length, and its end points are
    vertices of the body.
    """
    normals, offsets = facets.normals, facets.offsets - margin
    f, m = normals.shape
    if m == 2:
        origins = normals * offsets[:, None]
        directions = np.column_stack([-normals[:, 1], normals[:, 0]])
        own = np.arange(f)[:, None]
    else:
        i, j, origins, directions = _edge_pairs(facets, margin, inside)
        own = np.column_stack([i, j])
    lo, hi = clip_lines(facets, margin, origins, directions, own)
    hit = lo <= hi
    origins, directions = origins[hit], directions[hit]
    return origins + lo[hit, None] * directions, origins + hi[hit, None] * directions
