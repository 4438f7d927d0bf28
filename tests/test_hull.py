"""Hull facets: the qhull-seeded route, its exhaustive fallback, and their agreement."""

import numpy as np
import pytest

from delgen import hull
from delgen.datasets import grid_points
from delgen.delaunay import PointSet
from delgen.errors import PreconditionError
from delgen.genericity import deep_interior, sampling_parameters

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
    s = sampling_parameters(pts)
    deep = deep_interior(pts, s.epsilon)
    assert calls
    fallback = exhaustive(monkeypatch, sampling_parameters, pts)
    assert fallback == s
    assert exhaustive(monkeypatch, deep_interior, pts, s.epsilon) == deep


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
    """The boundary sweep written point by point: the reference order and values."""
    normals, offsets = facets.normals, facets.offsets - margin
    m = normals.shape[1]
    cheb = hull.chebyshev_center(normals, offsets)
    if cheb is None or cheb[1] <= 1e-12:
        return np.zeros((0, m))
    verts = hull.HalfspaceIntersection(np.hstack([normals, -offsets[:, None]]),
                                       cheb[0]).intersections
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
        for tri in hull.ConvexHull(verts).simplices:
            a, b, c = verts[tri]
            ab, ac = b - a, c - a
            k = int(np.ceil(max(np.linalg.norm(ab), np.linalg.norm(ac)) / pitch))
            if k < 1:
                continue
            for i in range(k + 1):
                for j in range(k + 1 - i):
                    samples.append((a + ab * (i / k) + ac * (j / k))[None, :])
    return np.vstack(samples)


SWEEP_INPUTS = {
    "grid-3d-side9": grid_points(9, 3, 0.05, seed=0),
    "jittered-2d": INPUTS["jittered-2d"],
    "lattice-2d": INPUTS["lattice-2d"],
}


@pytest.mark.parametrize("name", sorted(SWEEP_INPUTS))
def test_boundary_sweep_matches_the_pointwise_loop(name):
    pts = SWEEP_INPUTS[name]
    facets = hull.hull_facets(pts)
    pitch = PointSet(pts).min_gap() / 16.0
    eps = sampling_parameters(pts, facets=facets).epsilon
    for margin in (0.0, eps):
        swept = hull.eroded_boundary_samples(facets, margin, pitch)
        assert swept.shape[0] > 0
        assert np.array_equal(swept, boundary_samples_by_loop(facets, margin, pitch))


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_sweep_of_an_empty_body(dim):
    facets = hull.hull_facets(grid_points(4, dim, 0.05, seed=2))
    swept = hull.eroded_boundary_samples(facets, 5.0, 0.1)
    assert swept.shape == (0, dim)


@pytest.mark.parametrize("name", ["grid-3d", "jittered-2d"])
def test_boundary_sweep_counts_its_rows_before_the_limit(name, monkeypatch):
    facets = hull.hull_facets(INPUTS[name])
    rows = hull.eroded_boundary_samples(facets, 0.1, 0.2).shape[0]
    monkeypatch.setattr(hull, "MAX_BOUNDARY_ROWS", rows)
    assert hull.eroded_boundary_samples(facets, 0.1, 0.2).shape[0] == rows
    monkeypatch.setattr(hull, "MAX_BOUNDARY_ROWS", rows - 1)
    with pytest.raises(PreconditionError, match="more than the limit"):
        hull.eroded_boundary_samples(facets, 0.1, 0.2)
    with pytest.raises(PreconditionError, match="pitch must be positive"):
        hull.eroded_boundary_samples(facets, 0.1, 0.0)
