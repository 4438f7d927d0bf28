"""Hull facets: the qhull-seeded route, its exhaustive fallback, and their agreement."""

import numpy as np
import pytest

from delgen import hull
from delgen.datasets import grid_points
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
