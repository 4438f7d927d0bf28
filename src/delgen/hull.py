"""Convex hull support: facet planes, boundary distance, eroded bodies.

Candidate facets come from qhull (Barber, Dobkin & Huhdanpaa, *The Quickhull
Algorithm for Convex Hulls*, 1996) and every one is confirmed with a float
side-of-plane screen backed by the exact predicates. When a candidate fails,
or the candidates do not close up into a boundary, an exhaustive screen over
vertex subsets replaces them, so qhull tolerance surprises on lattice inputs
never reach the facet list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

from . import predicates
from .errors import PreconditionError

_SIDE_BAND = 1e-9

# Largest number of rows eroded_boundary_samples builds (about 480 MB of
# float64 in 3-D). A longer sweep means the pitch, a fraction of the least
# point gap, is tiny against the hull, as with a near duplicate pair.
MAX_BOUNDARY_ROWS = 20_000_000


@dataclass(frozen=True)
class HullFacets:
    """Supporting halfspaces a . x <= b of the hull, normals unit outward."""

    normals: np.ndarray  # (f, m)
    offsets: np.ndarray  # (f,)

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
    return HullFacets(normals=normals, offsets=offsets)


def chebyshev_center(normals: np.ndarray, offsets: np.ndarray):
    """Centre of the largest ball inside a . x <= b, or None when empty."""
    f, m = normals.shape
    a_ub = np.hstack([normals, np.ones((f, 1))])
    c = np.zeros(m + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=offsets, bounds=(None, None), method="highs")
    if not res.success or res.x[-1] <= 0:
        return None
    return res.x[:m], float(res.x[-1])


def _edge_points(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """The k - 1 interior points of the segment ab at steps of 1/k."""
    t = np.linspace(0.0, 1.0, k + 1)[1:-1]
    return a[None, :] + t[:, None] * (b - a)[None, :]


def _triangle_points(a: np.ndarray, b: np.ndarray, c: np.ndarray, k: int) -> np.ndarray:
    """The lattice a + (b - a) i/k + (c - a) j/k over i + j <= k, in
    row-major (i, j) order."""
    i, j = np.triu_indices(k + 1)
    return a + (b - a) * (i / k)[:, None] + (c - a) * ((j - i) / k)[:, None]


def eroded_boundary_samples(facets: HullFacets, margin: float, pitch: float) -> np.ndarray:
    """Sample the boundary of the eroded body { depth >= margin }.

    The eroded body is the intersection of the inward shifted facet
    halfspaces; its boundary facets are sampled on a grid of the given pitch.
    Returns an empty array when the eroded body is empty or degenerate. The
    rows are counted before any is built, and a sweep of more than
    ``MAX_BOUNDARY_ROWS`` rows raises ``PreconditionError``.
    """
    if not pitch > 0:
        raise PreconditionError("boundary sweep pitch must be positive")
    normals, offsets = facets.normals, facets.offsets - margin
    m = normals.shape[1]
    cheb = chebyshev_center(normals, offsets)
    if cheb is None:
        return np.zeros((0, m))
    center, radius = cheb
    if radius <= 1e-12:
        return np.zeros((0, m))
    try:
        hs = HalfspaceIntersection(
            np.hstack([normals, -offsets[:, None]]), center
        )
    except Exception:
        return np.zeros((0, m))
    verts = hs.intersections
    verts = verts[np.all(np.isfinite(verts), axis=1)]
    if verts.shape[0] == 0:
        return np.zeros((0, m))
    pieces, rows = [], verts.shape[0]
    if m == 2:
        order = np.argsort(np.arctan2(*(verts - verts.mean(axis=0)).T[::-1]))
        ring = verts[order]
        for a, b in zip(ring, np.roll(ring, -1, axis=0)):
            k = int(np.ceil(np.linalg.norm(b - a) / pitch))
            if k > 1:
                pieces.append((_edge_points, (a, b, k)))
                rows += k - 1
    elif verts.shape[0] >= 4 and affine_rank(verts) == 3:
        for tri in ConvexHull(verts).simplices:
            a, b, c = verts[tri]
            k = int(np.ceil(max(np.linalg.norm(b - a), np.linalg.norm(c - a)) / pitch))
            if k >= 1:
                pieces.append((_triangle_points, (a, b, c, k)))
                rows += (k + 1) * (k + 2) // 2
    if rows > MAX_BOUNDARY_ROWS:
        raise PreconditionError(
            f"boundary sweep at pitch {pitch:.3g} needs {rows:.3g} rows, more "
            f"than the limit of {MAX_BOUNDARY_ROWS:,}; the points are too close "
            "together for the extent of their hull")
    out = np.empty((rows, m))
    out[:verts.shape[0]] = verts
    pos = verts.shape[0]
    for points, args in pieces:
        block = points(*args)
        out[pos:pos + block.shape[0]] = block
        pos += block.shape[0]
    return out
