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
of planes whose balls, shifted inward by e, meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial import ConvexHull

from . import predicates
from .errors import PreconditionError

_SIDE_BAND = 1e-9

# Entries of one (lines x facets) block in clip_lines.
CLIP_CHUNK = 2_000_000
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
        slack = self.offsets[None, :] - x @ self.normals.T
        return slack.min(axis=1)


def affine_rank(points: np.ndarray) -> int:
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] <= 1:
        return 0
    sv = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv >= 1e-12 * sv[0]))


def _facet_sides(pts: np.ndarray, facet: tuple[int, ...]):
    """Float side values of every point against a facet plane, with a
    certified cushion below which the float sign cannot be trusted."""
    base = pts[facet[0]]
    rel = pts - base
    if pts.shape[1] == 2:
        d = pts[facet[1]] - base
        side = d[0] * rel[:, 1] - d[1] * rel[:, 0]
        perm = np.abs(d[0]) * np.abs(rel[:, 1]) + np.abs(d[1]) * np.abs(rel[:, 0])
    else:
        d1 = pts[facet[1]] - base
        d2 = pts[facet[2]] - base
        nrm = np.cross(d1, d2)
        side = rel @ nrm
        # Permanent of the absolute 3x3 matrix bounds the term magnitudes.
        a1, a2, ar = np.abs(d1), np.abs(d2), np.abs(rel)
        perm = (
            ar[:, 0] * (a1[1] * a2[2] + a1[2] * a2[1])
            + ar[:, 1] * (a1[0] * a2[2] + a1[2] * a2[0])
            + ar[:, 2] * (a1[0] * a2[1] + a1[1] * a2[0])
        )
    cushion = 64.0 * np.finfo(float).eps * perm
    return side, cushion


def _confirm_facet(pts: np.ndarray, facet: tuple[int, ...]) -> bool:
    """Exact weak-support test: no two points on strictly opposite sides."""
    side, cushion = _facet_sides(pts, facet)
    # The facet's own vertices are on the plane by definition; their float
    # side values are pure rounding noise and must not vote.
    side[list(facet)] = 0.0
    trusted = np.abs(side) > cushion
    trusted[list(facet)] = True
    pos = bool(np.any(side[trusted] > 0))
    neg = bool(np.any(side[trusted] < 0))
    if pos and neg:
        return False
    plane = pts[list(facet)]
    for q in np.nonzero(~trusted)[0]:
        s = predicates.side_of_plane(plane, pts[q])
        pos = pos or s > 0
        neg = neg or s < 0
        if pos and neg:
            return False
    return True


def _facet_planes_bruteforce(pts: np.ndarray) -> list[tuple[int, ...]]:
    """Subsets of m points whose hyperplane weakly supports every point."""
    n, m = pts.shape
    subsets = np.array(list(combinations(range(n), m)), dtype=int)
    scale = max(float(np.abs(pts).max()), 1.0)
    keep: list[tuple[int, ...]] = []
    chunk = max(1, 5_000_000 // max(n, 1))
    for start in range(0, subsets.shape[0], chunk):
        block = subsets[start : start + chunk]
        base = pts[block[:, 0]]
        if m == 2:
            d = pts[block[:, 1]] - base
            rel = pts[None, :, :] - base[:, None, :]
            side = d[:, None, 0] * rel[:, :, 1] - d[:, None, 1] * rel[:, :, 0]
        else:
            d1 = pts[block[:, 1]] - base
            d2 = pts[block[:, 2]] - base
            nrm = np.cross(d1, d2)
            rel = pts[None, :, :] - base[:, None, :]
            side = np.einsum("sj,spj->sp", nrm, rel)
        band = _SIDE_BAND * scale**m
        weak_pos = (side >= -band).all(axis=1)
        weak_neg = (side <= band).all(axis=1)
        for idx in np.nonzero(weak_pos | weak_neg)[0]:
            keep.append(tuple(int(v) for v in block[idx]))
    return [facet for facet in keep if _confirm_facet(pts, facet)]


def _facet_planes_seeded(pts: np.ndarray) -> list[tuple[int, ...]] | None:
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
    simplices = np.sort(hull.simplices, axis=1)
    m = pts.shape[1]
    ridges = np.vstack([np.delete(simplices, k, axis=1) for k in range(m)])
    _, counts = np.unique(ridges, axis=0, return_counts=True)
    if not np.all(counts == 2):
        return None
    facets = [tuple(int(v) for v in s) for s in hull.simplices]
    for facet in facets:
        if not _confirm_facet(pts, facet):
            return None
    return facets


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
    if affine_rank(pts) < m:
        raise PreconditionError("point set is not full dimensional")
    facets = _facet_planes_seeded(pts)
    if facets is None:
        facets = _facet_planes_bruteforce(pts)
    interior = pts.mean(axis=0)
    planes: dict[tuple, tuple[np.ndarray, float]] = {}
    for facet in facets:
        base = pts[facet[0]]
        span = pts[list(facet[1:])] - base
        if m == 2:
            d = span[0]
            nrm = np.array([d[1], -d[0]])
        else:
            nrm = np.cross(span[0], span[1])
        norm = np.linalg.norm(nrm)
        if norm == 0.0:
            continue
        nrm = nrm / norm
        off = float(nrm @ base)
        if nrm @ interior > off:
            nrm, off = -nrm, -off
        key = tuple(np.round(np.append(nrm, off), 9))
        planes.setdefault(key, (nrm, off))
    normals = np.array([p[0] for p in planes.values()])
    offsets = np.array([p[1] for p in planes.values()])
    return HullFacets(normals, offsets, *_facet_balls(pts, normals, offsets))


def _facet_balls(pts: np.ndarray, normals: np.ndarray, offsets: np.ndarray):
    """Centre and radius of a ball around the points on each facet plane.

    A point counts as on a plane within _ON_PLANE of the coordinate scale,
    which covers the planes merged by rounding in hull_facets; a point taken
    in needlessly only makes a ball larger. The centre is the middle of the
    points' bounding box.
    """
    tol = _ON_PLANE * max(1.0, float(np.abs(pts).max()))
    centers, radii = np.empty_like(normals), np.empty(len(offsets))
    for k, (nrm, off) in enumerate(zip(normals, offsets)):
        on = pts[np.abs(off - pts @ nrm) <= tol]
        centers[k] = 0.5 * (on.min(axis=0) + on.max(axis=0))
        radii[k] = np.linalg.norm(on - centers[k], axis=1).max()
    return centers, radii


def clip_lines(facets: HullFacets, margin: float, origins: np.ndarray,
               directions: np.ndarray, own: np.ndarray | None = None):
    """Clip the lines o + t d to the eroded body { depth >= margin }.

    Returns the parameter bounds (lo, hi) of each line inside the body; a
    line misses the body where lo > hi. Row k of ``own`` lists the facets
    whose shifted planes line k lies in. Their constraints hold by
    construction and are not tested, since rounding noise would decide them.
    The lines are clipped in (lines x facets) blocks of about CLIP_CHUNK
    entries.
    """
    normals, offsets = facets.normals, facets.offsets - margin
    count = origins.shape[0]
    lo, hi = np.empty(count), np.empty(count)
    step = max(1, CLIP_CHUNK // normals.shape[0])
    for s in range(0, count, step):
        block = slice(s, s + step)
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
    the eroded body { depth >= margin }, in row-major order.

    A point x on such an edge has depth exactly margin, so x + margin n_i
    lies in facet i and x + margin n_j in facet j: the facet balls shifted
    inward by the margin meet. Pairs whose shifted balls lie apart by more
    than rounding are dropped, and so are pairs of planes within
    _PARALLEL_SINE of parallel: they meet far outside the body, or along an
    edge between two facets that are coplanar up to rounding, which bounds
    neither facet.
    """
    normals = facets.normals
    i, j = np.triu_indices(normals.shape[0], 1)
    shifted = facets.centers - margin * normals
    slack = 1e-9 * max(1.0, float(np.abs(shifted).max()) + float(facets.radii.max()))
    near = (np.linalg.norm(shifted[i] - shifted[j], axis=1)
            <= facets.radii[i] + facets.radii[j] + slack)
    i, j = i[near], j[near]
    cross = np.cross(normals[i], normals[j])
    sine = np.linalg.norm(cross, axis=1)
    keep = sine > _PARALLEL_SINE
    return i[keep], j[keep], cross[keep], sine[keep, None]


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
        i, j, cross, sine = _edge_pairs(facets, margin)
        directions = cross / sine
        # The point of both planes nearest the coordinate origin.
        origins = (offsets[i, None] * np.cross(normals[j], directions)
                   + offsets[j, None] * np.cross(directions, normals[i])) / sine
        own = np.column_stack([i, j])
    lo, hi = clip_lines(facets, margin, origins, directions, own)
    hit = lo <= hi
    origins, directions = origins[hit], directions[hit]
    return origins + lo[hit, None] * directions, origins + hi[hit, None] * directions
