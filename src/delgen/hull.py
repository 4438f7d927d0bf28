"""Convex hull support: facet planes, boundary distance, eroded bodies.

Candidate facets come from qhull (Barber, Dobkin & Huhdanpaa, *The Quickhull
Algorithm for Convex Hulls*, 1996) and every one is confirmed with a float
side-of-plane screen backed by the exact predicates. When a candidate fails,
or the candidates do not close up into a boundary, an exhaustive screen over
vertex subsets replaces them, so qhull tolerance surprises on lattice inputs
never reach the facet list.

Eroding the hull by a margin shifts every facet plane inward by it, so the
same planes describe the eroded body; ``clip_lines`` and ``eroded_edges``
compute on it directly, with no vertex enumeration. Each facet also carries a
ball that holds the points on its plane. A point on an edge of the body
eroded by e lies at distance e from both planes, and moving it out by e along
either normal lands in that facet, so ``eroded_edges`` clips only the pairs
of planes whose balls, shifted inward by e, meet, and whose line passes
through both shifted balls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull

from . import predicates
from .complexes import _faces_of
from .errors import PreconditionError
from .simplex import _norms

# Entries of one block of every dense table: 2**16 floats are 512 KB, about
# a core's L2 cache. Tables are built block by block (see blocks).
BLOCK = 1 << 16
# A point within this fraction of the coordinate scale of a facet plane is
# taken to lie on it; see _facet_balls.
_ON_PLANE = 1e-8
# Two facet planes whose normals are closer to parallel than this (sine of
# the angle) are treated as meeting in no edge; see eroded_edges.
_PARALLEL_SINE = 1e-8


@dataclass(frozen=True)
class HullFacets:
    """Supporting halfspaces a . x <= b of the hull, normals unit outward,
    and a ball (centre, radius) holding the points on each facet plane."""

    normals: np.ndarray  # (f, m)
    offsets: np.ndarray  # (f,)
    centers: np.ndarray  # (f, m)
    radii: np.ndarray    # (f,)

    def depth(self, x: np.ndarray) -> np.ndarray:
        """Signed distance to the boundary, positive inside, for rows of x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty(x.shape[0])
        for rows in blocks(x.shape[0], len(self.offsets)):
            out[rows] = (self.offsets - x[rows] @ self.normals.T).min(axis=1)
        return out


def blocks(count: int, width: int) -> list[slice]:
    """Row slices of a (count x width) table, each of about BLOCK entries.

    A slice holds at least two rows when the table does, because numpy
    sends a one-row matrix product to a matrix-vector kernel that rounds
    otherwise; so a blocked product has the bits of the whole one.
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
    plane, (F, n), with a certified cushion below which the float sign
    cannot be trusted: c . |x - base|, where c bounds the terms of w, so in
    3-D it holds the permanents of the absolute 2x2 minors."""
    base, d, w = _facet_normals(pts, facets)
    if pts.shape[1] == 2:
        c = np.abs(w)
    else:
        a1, a2, i, j = np.abs(d[:, 0]), np.abs(d[:, 1]), [1, 0, 0], [2, 2, 1]
        c = a1[:, i] * a2[:, j] + a1[:, j] * a2[:, i]
    side = perm = 0.0
    for k in range(pts.shape[1]):
        rel = pts[None, :, k] - base[:, k, None]
        side = side + w[:, k, None] * rel
        perm = perm + c[:, k, None] * np.abs(rel)
    return side, 64.0 * np.finfo(float).eps * perm


def _confirm_facets(pts: np.ndarray, facets: np.ndarray) -> np.ndarray:
    """Exact weak-support test of each facet, rows of ``facets``: no two
    points on strictly opposite sides of its plane.

    One float side table per block of (facet, point) entries (``blocks``)
    decides every entry whose sign its cushion certifies. Only the other
    entries of facets not already refuted go to the exact predicate.
    """
    ok = np.ones(facets.shape[0], dtype=bool)
    for rows in blocks(facets.shape[0], pts.shape[0]):
        block = facets[rows]
        side, cushion = _facet_sides(pts, block)
        trusted = np.abs(side) > cushion
        # The facet's own vertices are on the plane by definition; their float
        # side values are pure rounding noise and must not vote.
        np.put_along_axis(side, block, 0.0, axis=1)
        np.put_along_axis(trusted, block, True, axis=1)
        pos = ((side > 0) & trusted).any(axis=1)
        neg = ((side < 0) & trusted).any(axis=1)
        ok[rows] = ~(pos & neg)
        for r in np.flatnonzero(ok[rows] & ~trusted.all(axis=1)):
            signs = {predicates.side_of_plane(pts[block[r]], pts[k])
                     for k in np.flatnonzero(~trusted[r])}
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
    normals, offsets = _facet_planes(pts, facets)
    return HullFacets(normals, offsets, *_facet_balls(pts, normals, offsets))


def _facet_balls(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray):
    """Centre and radius of a ball around the points on each facet plane.

    A point counts as on a plane within _ON_PLANE of the coordinate scale,
    which covers the planes merged by rounding in hull_facets; a point taken
    in needlessly only makes a ball larger. The centre is the middle of the
    points' bounding box. The (facets x points) distance table is built
    block by block (``blocks``).
    """
    tol = _ON_PLANE * max(1.0, float(np.abs(pts).max()))
    f, m = normals.shape
    facet, point = np.vstack([
        np.argwhere(np.abs(offsets[rows, None] - normals[rows] @ pts.T) <= tol)
        + [rows.start, 0] for rows in blocks(f, pts.shape[0])]).T
    lo, hi = np.full((f, m), np.inf), np.full((f, m), -np.inf)
    np.minimum.at(lo, facet, pts[point])
    np.maximum.at(hi, facet, pts[point])
    centers = 0.5 * (lo + hi)
    diff = pts[point] - centers[facet]
    radii = np.full(f, -np.inf)
    np.maximum.at(radii, facet, (diff * diff).sum(axis=1))
    return centers, np.sqrt(radii)


def clip_lines(facets: HullFacets, margin: float, origins: np.ndarray,
               directions: np.ndarray, own: np.ndarray | None = None):
    """Clip the lines o + t d to the eroded body { depth >= margin }.

    Returns the parameter bounds (lo, hi) of each line inside the body; a
    line misses the body where lo > hi. Row k of ``own`` lists the facets
    whose shifted planes line k lies in. Their constraints hold by
    construction and are not tested, since rounding noise would decide them.
    The (lines x facets) tables are built block by block (``blocks``).
    """
    normals, offsets = facets.normals, facets.offsets - margin
    count = origins.shape[0]
    lo, hi = np.empty(count), np.empty(count)
    for block in blocks(count, normals.shape[0]):
        slack = offsets - origins[block] @ normals.T
        rate = directions[block] @ normals.T
        if own is not None:
            np.put_along_axis(slack, own[block], np.inf, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = slack / rate
        lo[block] = np.where(rate < 0, t, -np.inf).max(axis=1)
        hi[block] = np.where(rate > 0, t, np.inf).min(axis=1)
        lo[block][((rate == 0) & (slack < 0)).any(axis=1)] = np.inf
    return lo, hi


def _edge_pairs(facets: HullFacets, margin: float):
    """Pairs (i, j), i < j, of facet planes whose line can carry an edge of
    the eroded body { depth >= margin }, in row-major order, with a point
    and a unit direction of each pair's line.

    A point x on such an edge has depth exactly margin, so x + margin n_i
    lies in facet i and x + margin n_j in facet j: the facet balls shifted
    inward by the margin meet, and the line passes through both. Pairs
    whose shifted balls lie apart, or whose line passes outside either
    ball, by more than rounding are dropped, and so are pairs of planes
    within _PARALLEL_SINE of parallel: they meet far outside the body, or
    along an edge between two facets that are coplanar up to rounding,
    which bounds neither facet.
    """
    normals, offsets, radii = facets.normals, facets.offsets - margin, facets.radii
    i, j = np.triu_indices(normals.shape[0], 1)
    shifted = facets.centers - margin * normals
    slack = 1e-9 * max(1.0, float(np.abs(shifted).max()) + float(radii.max()))
    near = np.linalg.norm(shifted[i] - shifted[j], axis=1) <= radii[i] + radii[j] + slack
    i, j = i[near], j[near]
    cross = np.cross(normals[i], normals[j])
    sine = np.linalg.norm(cross, axis=1)
    keep = sine > _PARALLEL_SINE
    i, j, sine = i[keep], j[keep], sine[keep, None]
    directions = cross[keep] / sine
    # The point of both planes nearest the coordinate origin.
    origins = (offsets[i, None] * np.cross(normals[j], directions)
               + offsets[j, None] * np.cross(directions, normals[i])) / sine
    # The line's point rounds in proportion to 1 / sine.
    keep = np.ones(len(i), dtype=bool)
    for k in (i, j):
        rel = shifted[k] - origins
        rel -= np.einsum("ij,ij->i", rel, directions)[:, None] * directions
        keep &= np.linalg.norm(rel, axis=1) <= radii[k] + slack / sine[:, 0]
    return i[keep], j[keep], origins[keep], directions[keep]


def eroded_edges(facets: HullFacets, margin: float):
    """End points (a, b) of the edges of the eroded body { depth >= margin }.

    Eroding the hull shifts each facet plane inward by the margin. In 2-D
    each shifted facet line is clipped to the body, in 3-D the line through
    each pair of shifted facet planes that ``_edge_pairs`` keeps. A nonempty
    clip is an edge of the body, possibly of zero length, and its end points
    are vertices of the body.
    """
    normals, offsets = facets.normals, facets.offsets - margin
    f, m = normals.shape
    if m == 2:
        origins = normals * offsets[:, None]
        directions = np.column_stack([-normals[:, 1], normals[:, 0]])
        own = np.arange(f)[:, None]
    else:
        i, j, origins, directions = _edge_pairs(facets, margin)
        own = np.column_stack([i, j])
    lo, hi = clip_lines(facets, margin, origins, directions, own)
    hit = lo <= hi
    origins, directions = origins[hit], directions[hit]
    return origins + lo[hit, None] * directions, origins + hi[hit, None] * directions
