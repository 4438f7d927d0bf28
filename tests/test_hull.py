"""Hull facets: the qhull-seeded route, its exhaustive fallback, and their agreement;
the eroded body's edges, and the exact coverage radius against sampled ones."""

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, cKDTree

from delgen import genericity, hull, predicates
from delgen.datasets import grid_points
from delgen.delaunay import PointSet, delaunay_lifted
from delgen.errors import PreconditionError
from delgen.genericity import analyze_genericity, sampling_parameters
from delgen.simplex import simplex_metrics_batch

INPUTS = {
    "jittered-2d": grid_points(15, 2, 0.2, seed=3),
    # Every side of an exact lattice carries collinear boundary points.
    "lattice-2d": grid_points(9, 2, spacing=0.3),
    "grid-3d": grid_points(5, 3, 0.05, seed=1),
}


def plane_set(facets):
    rows = np.round(np.column_stack([facets.normals, facets.offsets]), 9)
    return sorted(map(tuple, rows + 0.0))


def exhaustive(monkeypatch, fn, *args):
    with monkeypatch.context() as mp:
        mp.setattr(hull, "_facet_planes_seeded", lambda pts: None)
        return fn(*args)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_seeded_and_exhaustive_routes_give_one_plane_set(name, monkeypatch):
    pts = INPUTS[name]
    assert hull._facet_planes_seeded(pts) is not None
    seeded = hull.hull_facets(pts)
    brute = exhaustive(monkeypatch, hull.hull_facets, pts)
    assert plane_set(seeded) == plane_set(brute)
    assert np.allclose(seeded.depth(pts), brute.depth(pts), rtol=0, atol=1e-12)


def test_forced_fallback_leaves_the_measurements_unchanged(monkeypatch):
    pts = INPUTS["jittered-2d"]
    calls = []
    seeded = hull._facet_planes_seeded
    monkeypatch.setattr(hull, "_facet_planes_seeded",
                        lambda p: calls.append(1) or seeded(p))
    a = analyze_genericity(pts)
    assert calls
    fallback = exhaustive(monkeypatch, analyze_genericity, pts)
    assert fallback.sampling == a.sampling
    assert fallback.deep_ids == a.deep_ids


def test_open_candidate_boundary_falls_back(monkeypatch):
    pts = INPUTS["jittered-2d"]
    expected = plane_set(hull.hull_facets(pts))
    real = hull.ConvexHull

    class OneFacetShort:
        def __init__(self, points, qhull_options=None):
            self.simplices = real(points, qhull_options=qhull_options).simplices[1:]

    monkeypatch.setattr(hull, "ConvexHull", OneFacetShort)
    assert hull._facet_planes_seeded(pts) is None
    assert plane_set(hull.hull_facets(pts)) == expected


def test_hull_rejects_unsupported_inputs():
    with pytest.raises(PreconditionError, match="dimension 2 and 3"):
        hull.hull_facets(np.eye(4))
    with pytest.raises(PreconditionError, match="full dimensional"):
        hull.hull_facets(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


def boundary_samples_by_loop(facets, margin, pitch):
    """Samples of the boundary of { depth >= margin } at the given pitch:
    its vertices, then a lattice on each edge (2-D) or triangle (3-D) of its
    boundary. Every sample lies in the body, so the largest distance to P
    over the samples is a lower bound on the exact coverage radius."""
    normals, offsets = facets.normals, facets.offsets - margin
    m = normals.shape[1]
    # Chebyshev centre: the deepest point of the body, by linear programming.
    lp = linprog(np.append(np.zeros(m), -1.0),
                 A_ub=np.hstack([normals, np.ones((len(normals), 1))]),
                 b_ub=offsets, bounds=(None, None), method="highs")
    if not lp.success or lp.x[-1] <= 1e-12:
        return np.zeros((0, m))
    verts = HalfspaceIntersection(np.hstack([normals, -offsets[:, None]]),
                                  lp.x[:m]).intersections
    verts = verts[np.all(np.isfinite(verts), axis=1)]
    samples = [verts]
    if m == 2:
        ring = verts[np.argsort(np.arctan2(*(verts - verts.mean(axis=0)).T[::-1]))]
        for a, b in zip(ring, np.roll(ring, -1, axis=0)):
            k = int(np.ceil(np.linalg.norm(b - a) / pitch))
            if k > 1:
                t = np.linspace(0.0, 1.0, k + 1)[1:-1]
                samples.append(a[None, :] + t[:, None] * (b - a)[None, :])
    elif verts.shape[0] >= 4 and hull.affine_rank(verts) == 3:
        for tri in ConvexHull(verts).simplices:
            a, b, c = verts[tri]
            ab, ac = b - a, c - a
            k = int(np.ceil(max(np.linalg.norm(ab), np.linalg.norm(ac)) / pitch))
            if k < 1:
                continue
            for i in range(k + 1):
                j = np.arange(k + 1 - i)
                samples.append(a + ab * (i / k) + ac * (j / k)[:, None])
    return np.vstack(samples)


def test_eroded_edges_of_a_box():
    # An exact lattice: the hull is a box, eroded by 0.5 into a smaller box.
    for dim, edges in ((2, 4), (3, 12)):
        facets = hull.hull_facets(grid_points(4, dim))
        a, b = hull.eroded_edges(facets, 0.5)
        assert a.shape == b.shape == (edges, dim)
        ends = np.vstack([a, b])
        assert np.allclose(np.sort(np.abs(ends - 1.5), axis=None), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(b - a, axis=1), 2.0, atol=1e-12)
        corners = {tuple(np.round(p, 9) + 0.0) for p in ends}
        assert len(corners) == 2**dim


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_sweep_of_an_empty_body(dim):
    pts = grid_points(4, dim, 0.05, seed=2)
    facets = hull.hull_facets(pts)
    assert boundary_samples_by_loop(facets, 5.0, 0.1).shape == (0, dim)
    a, b = hull.eroded_edges(facets, 5.0)
    assert a.shape == b.shape == (0, dim)
    vor = genericity._voronoi_pieces(pts, facets, delaunay_lifted(pts), facets.depth(pts))
    assert genericity._coverage_radius(facets, vor, cKDTree(pts), 5.0) == 0.0


def test_clip_lines_in_chunks(monkeypatch):
    facets = hull.hull_facets(grid_points(4, 3, 0.05, seed=2))
    rng = np.random.default_rng(4)
    origins = rng.uniform(-1.0, 4.0, size=(50, 3))
    directions = rng.normal(size=(50, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    whole = hull.clip_lines(facets, 0.3, origins, directions)
    monkeypatch.setattr(hull, "BLOCK", 1)
    # Two rows per block: the blocked products keep the bits of the whole one.
    for x, y in zip(whole, hull.clip_lines(facets, 0.3, origins, directions)):
        assert np.array_equal(x, y)
    lo, hi = whole
    hit = lo <= hi
    assert hit.any() and not hit.all()
    # The clipped ends lie on the boundary of the eroded body.
    for t in (lo[hit], hi[hit]):
        depth = facets.depth(origins[hit] + t[:, None] * directions[hit])
        assert np.allclose(depth, 0.3, atol=1e-12)
    # A missed line has no point at depth 0.3 or more.
    t = np.linspace(-10.0, 10.0, 2001)[None, :, None]
    miss = origins[~hit][:, None, :] + t * directions[~hit][:, None, :]
    assert (facets.depth(miss.reshape(-1, 3)) < 0.3).all()


PROPERTY_INPUTS = [np.random.default_rng(seed).uniform(size=(n, 2))
                   for seed, n in ((21, 12), (22, 25), (23, 40), (24, 33))]
PROPERTY_INPUTS += [grid_points(4, 3, 0.2, seed=4), grid_points(5, 3, 0.2, seed=5),
                    # Here the largest distance sits where a Voronoi face
                    # crosses an edge of the eroded hull.
                    np.random.default_rng(32).uniform(size=(15, 3))]


@pytest.mark.parametrize("case", range(len(PROPERTY_INPUTS)))
def test_exact_radius_bounds_the_sweep_and_a_dense_sample(case):
    pts = PROPERTY_INPUTS[case]
    ps = PointSet(pts)
    facets = hull.hull_facets(pts)
    base = delaunay_lifted(ps)
    tree = cKDTree(pts)
    vor = genericity._voronoi_pieces(pts, facets, base, facets.depth(pts))
    centers, radii = base.centres, base.radii
    pitch = ps.min_gap() / 16.0

    def exact(e):
        return genericity._coverage_radius(facets, vor, tree, e)

    def sweep(e):  # the boundary sweep the exact candidates replaced
        inside = facets.depth(centers) >= e - 1e-12 * max(1.0, e)
        ring = boundary_samples_by_loop(facets, e, pitch)
        return max(radii[inside].max(initial=0.0), tree.query(ring)[0].max(initial=0.0))

    tol = 1e-9 * ps.diameter()
    eps = genericity._fixed_point(exact, tol)
    assert eps == sampling_parameters(ps, facets, base, facets.depth(pts)).epsilon
    # eps >= its fixed point >= the sweep's fixed point >= what the sweep's
    # solve returns, less its bracket.
    assert eps >= genericity._fixed_point(sweep, tol) - tol
    m = pts.shape[1]
    axes = [np.linspace(lo, hi, 150 if m == 2 else 25)
            for lo, hi in zip(pts.min(axis=0), pts.max(axis=0))]
    grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, m)
    depth, dist = facets.depth(grid), tree.query(grid)[0]
    for e in (0.0, 0.5 * eps, eps):
        ring = boundary_samples_by_loop(facets, e, 4.0 * pitch)
        dense = max(dist[depth >= e].max(initial=0.0), tree.query(ring)[0].max(initial=0.0))
        assert exact(e) >= dense - 1e-12


def sliver_hull(side, seed):
    """An exact lattice whose boundary points move out by up to 1e-6: the
    hull facets are slivers between nearly coplanar triangles."""
    pts = grid_points(side, 3)
    rng = np.random.default_rng(seed)
    out = np.where(pts == 0.0, -1.0, np.where(pts == side - 1.0, 1.0, 0.0))
    return pts + out * rng.uniform(0.0, 1e-6, size=pts.shape)


PRUNING_INPUTS = PROPERTY_INPUTS + [
    # Cospherical groups and coplanar hull facets merged into one plane.
    grid_points(4, 3), grid_points(5, 2),
    grid_points(9, 3, 0.05, seed=8),
    np.random.default_rng(33).uniform(size=(200, 3)),
    # A spacing not exact in binary: the tied circumradii and candidate
    # distances round apart.
    grid_points(5, 3, spacing=0.1),
    sliver_hull(5, 6),
]


def full_pair_clips(facets, margin):
    """Every pair of facet planes that is not near parallel, with its line
    clipped to the eroded body: the pairs eroded_edges clipped before the
    facet balls pruned them."""
    normals, offsets = facets.normals, facets.offsets - margin
    i, j = np.triu_indices(normals.shape[0], 1)
    cross = np.cross(normals[i], normals[j])
    sine = np.linalg.norm(cross, axis=1)
    keep = sine > hull._PARALLEL_SINE
    i, j, sine = i[keep], j[keep], sine[keep, None]
    directions = cross[keep] / sine
    origins = (offsets[i, None] * np.cross(normals[j], directions)
               + offsets[j, None] * np.cross(directions, normals[i])) / sine
    lo, hi = hull.clip_lines(facets, margin, origins, directions, np.column_stack([i, j]))
    return i, j, origins, directions, lo, hi


def full_coverage_radius(facets, vor, tree, eps):
    """The coverage radius over every candidate, with no piece pruned by
    depth and no facet pair pruned by its balls."""
    inside = facets.depth(vor.centers) >= eps - 1e-12 * max(1.0, eps)
    best = float(vor.radii[inside].max()) if inside.any() else 0.0
    if facets.normals.shape[1] == 2:
        a, b = hull.eroded_edges(facets, eps)
    else:
        _, _, origins, directions, lo, hi = full_pair_clips(facets, eps)
        hit = lo <= hi
        a = origins[hit] + lo[hit, None] * directions[hit]
        b = origins[hit] + hi[hit, None] * directions[hit]
    if a.shape[0] == 0:
        return best
    fa, fb = tree.query(a)[0], tree.query(b)[0]
    best = max(best, float(fa.max()), float(fb.max()))
    lo, hi = hull.clip_lines(facets, eps, vor.origins, vor.directions)
    hit = lo <= hi
    origins, directions = vor.origins[hit], vor.directions[hit]
    ends = np.concatenate([origins + lo[hit, None] * directions,
                           origins + hi[hit, None] * directions])
    reach = np.linalg.norm(ends - np.concatenate([vor.sites[hit]] * 2), axis=1)
    ends = ends[reach > best]
    if ends.size:
        best = max(best, float(tree.query(ends)[0].max()))
    if vor.faces is not None:
        crossings = genericity._face_crossings(vor.faces, a, b, fa, fb, best)
        if crossings.size:
            best = max(best, float(tree.query(crossings)[0].max()))
    return best


@pytest.mark.parametrize("case", range(len(PRUNING_INPUTS)))
def test_pruned_coverage_matches_full_candidates(case):
    pts = PRUNING_INPUTS[case]
    ps = PointSet(pts)
    facets = hull.hull_facets(pts)
    base = delaunay_lifted(ps)
    vor = genericity._voronoi_pieces(pts, facets, base, facets.depth(pts))
    tree = cKDTree(pts)
    tol = 1e-9 * ps.diameter()
    eps = sampling_parameters(ps, facets, base, facets.depth(pts)).epsilon
    assert eps == genericity._fixed_point(
        lambda e: full_coverage_radius(facets, vor, tree, e), tol)
    for e in (0.0, 0.25 * eps, 0.5 * eps, eps, 1.5 * eps):
        assert genericity._coverage_radius(facets, vor, tree, e) == \
            full_coverage_radius(facets, vor, tree, e)


@pytest.mark.parametrize("case", range(len(PRUNING_INPUTS)))
def test_circumradius_bounds_hold_the_candidates_of_their_pieces(case):
    """A clip end of an edge line that lies on its Voronoi edge (no site
    nearer than the line's own) is at most the edge's bound from P, as
    measured, rounding included. Eroding by a circumcentre's depth puts
    that Voronoi vertex on the body's boundary, where a clip end lands on
    it and measures its radius up to rounding."""
    pts = PRUNING_INPUTS[case]
    ps = PointSet(pts)
    facets = hull.hull_facets(pts)
    base = delaunay_lifted(ps)
    vor = genericity._voronoi_pieces(pts, facets, base, facets.depth(pts))
    tree = cKDTree(pts)
    eps = sampling_parameters(ps, facets, base, facets.depth(pts)).epsilon
    rounding = 1e-12 * max(1.0, float(np.abs(pts).max()))
    assert np.isfinite(vor.line_bounds).any()
    depths = np.unique(vor.center_depths[vor.center_depths > 0.0])
    depths = depths[np.linspace(0, len(depths) - 1, min(len(depths), 32)).astype(int)]
    for e in [0.0, 0.5 * eps, eps, *depths]:
        lo, hi = hull.clip_lines(facets, e, vor.origins, vor.directions)
        hit = lo <= hi
        for t in (lo[hit], hi[hit]):
            x = vor.origins[hit] + t[:, None] * vor.directions[hit]
            f = tree.query(x)[0]
            on = f >= np.linalg.norm(x - vor.sites[hit], axis=1) - rounding
            assert (f[on] <= vor.line_bounds[hit][on]).all()


def test_circumradius_bounds_halve_the_final_evaluation():
    """At the final eps of the first analyze-3d grid, the circumradius
    bounds leave fewer than half of the edge lines and face planes that
    the depth rule alone keeps."""
    pts = grid_points(9, 3, 0.05, seed=1)
    ps = PointSet(pts)
    facets = hull.hull_facets(pts)
    depths = facets.depth(pts)
    base = delaunay_lifted(ps)
    vor = genericity._voronoi_pieces(pts, facets, base, depths)
    eps = sampling_parameters(ps, facets, base, depths).epsilon
    counts = {}
    real_clip, real_faces = genericity.clip_lines, genericity._face_crossings

    def clip(f, margin, origins, *rest):
        counts["lines"] = len(origins)
        return real_clip(f, margin, origins, *rest)

    def crossings(faces, *rest):
        counts["faces"] = len(faces[0])
        return real_faces(faces, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(genericity, "clip_lines", clip)
        mp.setattr(genericity, "_face_crossings", crossings)
        genericity._coverage_radius(facets, vor, cKDTree(pts), eps)
    assert 0 < 2 * counts["lines"] < np.count_nonzero(vor.line_depths <= eps)
    assert 0 < 2 * counts["faces"] < np.count_nonzero(vor.face_depths <= eps)


def piece_samples(tops, centers, k):
    """Points of the Voronoi piece dual to each k-vertex face of ``tops``:
    seven on the segment between every two circumcentres of the tops around
    the face, with the face of each point. Also the faces and the number of
    tops around each."""
    faces, inverse = genericity._faces_of(tops, k)
    order = np.argsort(inverse, kind="stable")
    face = inverse[order]
    c = centers[np.tile(np.arange(len(tops)), inverse.size // len(tops))[order]]
    t = np.linspace(0.0, 1.0, 7)[:, None, None]
    points, owners = [], []
    for d in range(1, int(np.bincount(inverse).max())):
        same = face[:-d] == face[d:]
        a, b = c[:-d][same], c[d:][same]
        points.append((a + t * (b - a)).reshape(-1, centers.shape[1]))
        owners.append(np.tile(face[:-d][same], len(t)))
    return faces, np.bincount(inverse), np.concatenate(points), np.concatenate(owners)


@pytest.mark.parametrize("case", range(len(PRUNING_INPUTS)))
def test_depth_peaks_bound_their_pieces(case):
    """Every sampled point of a bounded Voronoi piece is at most the piece's
    peak deep, and every piece that may be unbounded has peak +inf: those
    whose vertices all lie on the hull boundary or on the boundary of the
    Delaunay complex, among them the rays dual to its boundary ridges."""
    pts = PRUNING_INPUTS[case]
    facets = hull.hull_facets(pts)
    depths = facets.depth(pts)
    base = delaunay_lifted(PointSet(pts))
    vor = genericity._voronoi_pieces(pts, facets, base, depths)
    m = pts.shape[1]
    ridges, ridge_tops = genericity._faces_of(base.tops, m)
    interior = depths > 1e-12 * max(1.0, float(np.abs(pts).max()))
    interior[ridges[np.bincount(ridge_tops) == 1]] = False
    pieces = [(2, vor.line_peaks)] if m == 2 else [(2, vor.face_peaks), (3, vor.line_peaks)]
    for k, peaks in pieces:
        faces, count, x, owner = piece_samples(base.tops, base.centres, k)
        if k == 3:  # the lines of degenerate triangles are not kept
            tri = pts[faces]
            ok = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]).any(axis=1)
            x, owner = x[ok[owner]], (np.cumsum(ok) - 1)[owner[ok[owner]]]
            faces, count = faces[ok], count[ok]
        assert len(faces) == len(peaks)
        open_ = ~interior[faces].any(axis=1)
        assert open_.any() and open_[count == 1].all()
        assert np.isposinf(peaks[open_]).all() and np.isfinite(peaks[~open_]).all()
        bounded = ~open_[owner]
        assert bounded.any()
        assert (facets.depth(x[bounded]) <= peaks[owner[bounded]]).all()


def test_depth_ranges_and_pair_lines_cut_the_final_evaluation():
    """At the final eps of grid_points(9, 3, 0.05, seed=1), the depth ranges
    of the Voronoi pieces and the pair-line test of the facet balls leave
    few edge lines, faces and facet pairs to clip."""
    pts = grid_points(9, 3, 0.05, seed=1)
    ps = PointSet(pts)
    facets = hull.hull_facets(pts)
    depths = facets.depth(pts)
    base = delaunay_lifted(ps)
    vor = genericity._voronoi_pieces(pts, facets, base, depths)
    eps = sampling_parameters(ps, facets, base, depths).epsilon
    counts = {"lines": 0, "faces": 0, "pairs": 0}
    real_clip, real_faces = genericity.clip_lines, genericity._face_crossings

    def clip(f, margin, origins, *rest):
        counts["lines"] += len(origins)
        return real_clip(f, margin, origins, *rest)

    def crossings(faces, *rest):
        counts["faces"] += len(faces[0])
        return real_faces(faces, *rest)

    def pair_clip(f, margin, origins, *rest):
        counts["pairs"] += len(origins)
        return real_clip(f, margin, origins, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(genericity, "clip_lines", clip)
        mp.setattr(genericity, "_face_crossings", crossings)
        mp.setattr(hull, "clip_lines", pair_clip)
        genericity._coverage_radius(facets, vor, cKDTree(pts), eps)
    assert 0 < counts["lines"] <= 400
    assert 0 < counts["faces"] <= 600
    assert 0 < counts["pairs"] <= 1600


@pytest.mark.parametrize("case", [k for k, pts in enumerate(PRUNING_INPUTS)
                                  if pts.shape[1] == 3])
def test_edge_pair_prefilter_keeps_every_edge(case):
    pts = PRUNING_INPUTS[case]
    facets = hull.hull_facets(pts)
    eps = sampling_parameters(pts, facets, delaunay_lifted(pts), facets.depth(pts)).epsilon
    # The largest ball in the hull, by linear programming: eroding by more
    # than its radius leaves the body empty.
    lp = linprog(np.append(np.zeros(3), -1.0),
                 A_ub=np.hstack([facets.normals, np.ones((len(facets.offsets), 1))]),
                 b_ub=facets.offsets, bounds=(None, None), method="highs")
    inradius = -lp.fun
    for margin in (0.0, eps, 1.01 * inradius):
        i, j, _, _, lo, hi = full_pair_clips(facets, margin)
        edges = set(zip(i[lo <= hi].tolist(), j[lo <= hi].tolist()))
        kept_i, kept_j, _, _ = hull._edge_pairs(facets, margin)
        kept = set(zip(kept_i.tolist(), kept_j.tolist()))
        assert edges <= kept
        assert edges or margin > 0.0
    a, _ = hull.eroded_edges(facets, 1.01 * inradius)
    assert a.shape == (0, 3)


# -- the per-facet loops that the stacked confirmation replaced --------------


def loop_facet_sides(pts, facet):
    base = pts[facet[0]]
    rel = pts - base
    if pts.shape[1] == 2:
        d = pts[facet[1]] - base
        side = d[0] * rel[:, 1] - d[1] * rel[:, 0]
        perm = np.abs(d[0]) * np.abs(rel[:, 1]) + np.abs(d[1]) * np.abs(rel[:, 0])
    else:
        d1 = pts[facet[1]] - base
        d2 = pts[facet[2]] - base
        side = rel @ np.cross(d1, d2)
        a1, a2, ar = np.abs(d1), np.abs(d2), np.abs(rel)
        perm = (ar[:, 0] * (a1[1] * a2[2] + a1[2] * a2[1])
                + ar[:, 1] * (a1[0] * a2[2] + a1[2] * a2[0])
                + ar[:, 2] * (a1[0] * a2[1] + a1[1] * a2[0]))
    return side, 64.0 * np.finfo(float).eps * perm


def loop_confirm_facet(pts, facet):
    side, cushion = loop_facet_sides(pts, facet)
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
        pos, neg = pos or s > 0, neg or s < 0
        if pos and neg:
            return False
    return True


def loop_hull_facets(pts, facets):
    """HullFacets from confirmed facet subsets, one facet at a time."""
    m = pts.shape[1]
    interior = pts.mean(axis=0)
    planes = {}
    for facet in facets:
        base = pts[facet[0]]
        span = pts[list(facet[1:])] - base
        nrm = np.array([span[0][1], -span[0][0]]) if m == 2 else np.cross(span[0], span[1])
        norm = np.linalg.norm(nrm)
        if norm == 0.0:
            continue
        nrm = nrm / norm
        off = float(nrm @ base)
        if nrm @ interior > off:
            nrm, off = -nrm, -off
        planes.setdefault(tuple(np.round(np.append(nrm, off), 9)), (nrm, off))
    normals = np.array([p[0] for p in planes.values()])
    offsets = np.array([p[1] for p in planes.values()])
    tol = hull._ON_PLANE * max(1.0, float(np.abs(pts).max()))
    centers, radii = np.empty_like(normals), np.empty(len(offsets))
    for k, (nrm, off) in enumerate(zip(normals, offsets)):
        on = pts[np.abs(off - pts @ nrm) <= tol]
        centers[k] = 0.5 * (on.min(axis=0) + on.max(axis=0))
        radii[k] = np.linalg.norm(on - centers[k], axis=1).max()
    return hull.HullFacets(normals, offsets, centers, radii)


# Inputs of both routes; the exhaustive screen gets the small ones.
CONFIRM_INPUTS = {
    "seeded": {
        "lattice-2d": grid_points(9, 2, spacing=0.3),
        "lattice-3d": grid_points(5, 3, spacing=0.1),
        "jittered-2d": grid_points(15, 2, 0.2, seed=3),
        "jittered-3d": grid_points(9, 3, 0.05, seed=1),
        "sliver-3d": sliver_hull(5, 6),
        "cloud-3d": np.random.default_rng(33).uniform(size=(200, 3)),
    },
    "exhaustive": {
        "lattice-2d": grid_points(9, 2, spacing=0.3),
        "lattice-3d": grid_points(3, 3, spacing=0.1),
        "jittered-2d": grid_points(8, 2, 0.2, seed=3),
        "jittered-3d": grid_points(3, 3, 0.05, seed=1),
        "sliver-3d": sliver_hull(3, 6),
    },
}


@pytest.mark.parametrize("route, name", [(route, name) for route in sorted(CONFIRM_INPUTS)
                                         for name in sorted(CONFIRM_INPUTS[route])])
def test_stacked_confirmation_matches_the_per_facet_loop(route, name, monkeypatch):
    pts = CONFIRM_INPUTS[route][name]
    exact, confirmed = [], []
    real_side, real_confirm = predicates.side_of_plane, hull._confirm_facets
    monkeypatch.setattr(predicates, "side_of_plane",
                        lambda plane, q: exact.append(1) or real_side(plane, q))
    monkeypatch.setattr(hull, "_confirm_facets",
                        lambda p, c: confirmed.append(c) or real_confirm(p, c))
    if route == "seeded":
        facets = hull._facet_planes_seeded(pts)
    else:
        monkeypatch.setattr(hull, "_facet_planes_seeded", lambda p: None)
        facets = hull._facet_planes_bruteforce(pts)
    (candidates,) = confirmed
    verdicts = real_confirm(pts, candidates)
    assert verdicts.tolist() == [loop_confirm_facet(pts, f) for f in candidates]
    assert np.array_equal(facets, candidates[verdicts])
    sides, cushions = hull._facet_sides(pts, candidates)
    for facet, side, cushion in zip(candidates, sides, cushions):
        ref_side, ref_cushion = loop_facet_sides(pts, facet)
        assert np.array_equal(cushion, ref_cushion)
        # The 3-D sums round in another order: equal within the cushion.
        assert (np.abs(side - ref_side) <= cushion).all()
    got, ref = hull.hull_facets(pts), loop_hull_facets(pts, facets)
    for field in ("normals", "offsets", "centers", "radii"):
        assert np.array_equal(getattr(got, field), getattr(ref, field))
    if name.startswith("lattice"):
        assert exact  # boundary points on a facet plane reach the exact predicate


def test_a_warped_candidate_is_rejected():
    # Four nearly coplanar corners of a box face: the triangle that leaves
    # out the raised corner has it strictly outside, and the box inside.
    pts = grid_points(3, 3)
    raised = (pts == [2.0, 2.0, 2.0]).all(axis=1)
    pts[raised, 2] += 1e-12
    corners = [i for i, p in enumerate(pts) if p[2] == 2.0 and set(p[:2]) <= {0.0, 2.0}]
    warped = np.array([corners[:3]])
    assert hull._confirm_facets(pts, warped).tolist() == [False]
    assert loop_confirm_facet(pts, warped[0]) is False
    candidates = np.vstack([ConvexHull(pts, qhull_options="Qt").simplices, warped])
    verdicts = hull._confirm_facets(pts, candidates)
    assert verdicts.tolist() == [loop_confirm_facet(pts, f) for f in candidates]
    assert not verdicts[-1] and verdicts[:-1].all()


def test_confirmation_in_blocks(monkeypatch):
    pts = CONFIRM_INPUTS["seeded"]["sliver-3d"]
    candidates = ConvexHull(pts, qhull_options="Qt").simplices
    whole = hull._confirm_facets(pts, candidates)
    balls = hull._facet_balls(pts, *hull._facet_planes(pts, candidates))
    monkeypatch.setattr(hull, "BLOCK", 1)
    assert np.array_equal(hull._confirm_facets(pts, candidates), whole)
    for x, y in zip(hull._facet_balls(pts, *hull._facet_planes(pts, candidates)), balls):
        assert np.array_equal(x, y)


BLOCK_INPUTS = {
    "jittered-2d": grid_points(15, 2, 0.2, seed=1),
    "jittered-3d": grid_points(9, 3, 0.05, seed=1),
    "cloud-3d": np.random.default_rng(9).uniform(size=(300, 3)),
}


def block_outputs(pts):
    """Every quantity built from a blocked table, as float.hex strings."""
    from delgen import delaunay, perturb

    analysis = analyze_genericity(pts)
    facets, eps = analysis.facets, analysis.sampling.epsilon
    # The cloud has no deep interior, so no audit: the kernel of the audited
    # metrics runs on every top instead.
    metrics = simplex_metrics_batch(pts, analysis.base.tops)
    # The relaxed candidates of the vertex nearest the centre.
    centre = [int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))]
    windows = delaunay._Windows(analysis.points, centre, 2.0 * eps, range(1, pts.shape[1] + 1))
    rng = np.random.default_rng(4)
    origins = rng.uniform(pts.min(), pts.max(), size=(60, pts.shape[1]))
    directions = rng.normal(size=(60, pts.shape[1]))
    candidates = ConvexHull(pts, qhull_options="Qt").simplices
    values = {
        "eps": [eps],
        "depths": analysis.depths,
        "facet balls": np.column_stack([facets.centers, facets.radii]),
        "clip_lines": hull.clip_lines(facets, 0.5 * eps, origins, directions),
        "eroded edges": hull.eroded_edges(facets, eps),
        "confirmed facets": hull._confirm_facets(pts, candidates),
        "adversarial directions": perturb._adversarial_directions(analysis.points,
                                                                  analysis.base),
        "top metrics": np.column_stack([metrics.longest_edge, metrics.shortest_edge,
                                        metrics.altitudes, metrics.thickness]),
        "lifting bounds": delaunay._lifting_bound(analysis.points, windows.rows,
                                                  windows.seeds, 4.0 * eps),
    }
    return {name: [float(x).hex() for x in np.ravel(value)] for name, value in values.items()}


@pytest.mark.parametrize("name", sorted(BLOCK_INPUTS))
def test_block_size_moves_no_bit(name, monkeypatch):
    pts = BLOCK_INPUTS[name]
    whole = block_outputs(pts)
    monkeypatch.setattr(hull, "BLOCK", 7)
    assert block_outputs(pts) == whole


def test_blocks_cover_the_rows_in_slices_of_two_or_more(monkeypatch):
    monkeypatch.setattr(hull, "BLOCK", 7)
    for count, width in ((0, 3), (1, 3), (2, 9), (5, 1), (7, 3), (9, 2), (10, 100)):
        slices = hull.blocks(count, width)
        assert [i for s in slices for i in range(count)[s]] == list(range(count))
        assert all(s.stop - s.start >= min(2, count) for s in slices)
        assert all((s.stop - s.start) * width <= max(7, 3 * width) for s in slices)
