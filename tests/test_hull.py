"""Hull facets: the qhull-seeded route, its exhaustive fallback, and their agreement;
the eroded body's edges, and the exact coverage radius against sampled ones."""

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection, cKDTree

from delgen import genericity, hull
from delgen.datasets import grid_points
from delgen.delaunay import PointSet, delaunay_lifted
from delgen.errors import PreconditionError
from delgen.genericity import analyze_genericity, sampling_parameters

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
    vor = genericity._voronoi_pieces(pts, delaunay_lifted(pts))
    assert genericity._coverage_radius(facets, vor, cKDTree(pts), 5.0) == 0.0


def test_clip_lines_in_chunks(monkeypatch):
    facets = hull.hull_facets(grid_points(4, 3, 0.05, seed=2))
    rng = np.random.default_rng(4)
    origins = rng.uniform(-1.0, 4.0, size=(50, 3))
    directions = rng.normal(size=(50, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    whole = hull.clip_lines(facets, 0.3, origins, directions)
    monkeypatch.setattr(hull, "CLIP_CHUNK", 1)
    # One row per block may take other BLAS kernels: equal up to rounding.
    for x, y in zip(whole, hull.clip_lines(facets, 0.3, origins, directions)):
        assert np.allclose(x, y, rtol=0, atol=1e-12)
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
    vor = genericity._voronoi_pieces(pts, base)
    centers = np.array([b.center for b in base.balls.values()])
    radii = np.array([b.radius for b in base.balls.values()])
    pitch = ps.min_gap() / 16.0

    def exact(e):
        return genericity._coverage_radius(facets, vor, tree, e)

    def sweep(e):  # the boundary sweep the exact candidates replaced
        inside = facets.depth(centers) >= e - 1e-12 * max(1.0, e)
        ring = boundary_samples_by_loop(facets, e, pitch)
        return max(radii[inside].max(initial=0.0), tree.query(ring)[0].max(initial=0.0))

    tol = 1e-9 * ps.diameter()
    eps = genericity._fixed_point(exact, tol)
    assert eps == sampling_parameters(ps, facets, base).epsilon
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
