"""Displacement fields, metric models, and the metric Delaunay routes."""

import numpy as np
import pytest

from delgen import metric
from delgen.datasets import grid_points
from delgen.delaunay import PointSet, _ball_gap, delaunay_bruteforce, delaunay_lifted
from delgen.errors import PreconditionError
from delgen.genericity import analyze_genericity
from delgen.metric import (
    DisplacementField,
    MetricModel,
    metric_circumcenter,
    metric_delaunay,
)
from delgen.simplex import circumcenter

THICK_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.1], [0.4, 0.9]])


def test_field_rejects_amplitude_that_is_not_finite():
    for bad in (np.nan, np.inf, -np.inf, -0.1):
        with pytest.raises(PreconditionError, match="amplitude must be finite and nonnegative"):
            DisplacementField(2, amplitude=bad, seed=0)


def test_field_bounds_and_determinism():
    rng = np.random.default_rng(0)
    for dim in (2, 3):
        field = DisplacementField(dim, amplitude=0.05, seed=9)
        again = DisplacementField(dim, amplitude=0.05, seed=9)
        x = rng.uniform(-5.0, 5.0, size=(500, dim))
        disp = field.displacement(x)
        assert np.allclose(disp, again.displacement(x))
        assert np.linalg.norm(disp, axis=1).max() <= 0.05 + 1e-12
        assert field.lipschitz < 0.5


def test_field_empirical_lipschitz():
    rng = np.random.default_rng(1)
    field = DisplacementField(2, amplitude=0.2, seed=3)
    x = rng.uniform(-4.0, 4.0, size=(400, 2))
    y = x + rng.normal(scale=1e-4, size=x.shape)
    num = np.linalg.norm(field.displacement(x) - field.displacement(y), axis=1)
    den = np.linalg.norm(x - y, axis=1)
    assert (num / den).max() <= field.lipschitz + 1e-6


def test_field_inverse_round_trip():
    rng = np.random.default_rng(2)
    field = DisplacementField(3, amplitude=0.3, seed=5)
    x = rng.uniform(-3.0, 3.0, size=(200, 3))
    assert np.abs(field.inverse(field.forward(x)) - x).max() <= 1e-12
    y = rng.uniform(-3.0, 3.0, size=(200, 3))
    assert np.abs(field.forward(field.inverse(y)) - y).max() <= 1e-12


def test_metric_axioms():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(100, 2))
    y = rng.uniform(size=(100, 2))
    models = [
        MetricModel.euclidean(2),
        MetricModel(DisplacementField(2, amplitude=0.1, seed=1)),
    ]
    for model in models:
        assert np.allclose(model.distance(x, y), model.distance(y, x), atol=1e-12)
        assert np.abs(model.distance(x, x)).max() <= 1e-12


def test_pullback_is_genuine_metric():
    rng = np.random.default_rng(6)
    field = DisplacementField(2, amplitude=0.2, seed=7)
    model = MetricModel(field)
    assert model.rho_bound == pytest.approx(0.4)
    assert model.center_lipschitz == 1.0 + field.lipschitz
    x = rng.uniform(size=(300, 2))
    y = rng.uniform(size=(300, 2))
    z = rng.uniform(size=(300, 2))
    dxy = model.distance(x, y)
    dyz = model.distance(y, z)
    dxz = model.distance(x, z)
    assert (dxz <= dxy + dyz + 1e-12).all()
    # Certified deviation from the Euclidean distance.
    assert np.abs(dxy - np.linalg.norm(x - y, axis=1)).max() <= model.rho_bound + 1e-12


def test_distances_to_matches_rowwise():
    field = DisplacementField(2, amplitude=0.1, seed=11)
    model = MetricModel(field)
    pts = np.random.default_rng(12).uniform(size=(50, 2))
    c = np.array([0.3, 0.7])
    rowwise = model.distance(np.broadcast_to(c, pts.shape), pts)
    assert np.allclose(model.distances_to(c, pts), rowwise, atol=1e-12)


def test_metric_gap_over_rows_matches_per_centre_loop():
    # The metric route's branch and bound measures the gap on many centres
    # at once as the Euclidean ball gap between images; it must equal the
    # per-centre distances exactly, or verdicts near the threshold could flip.
    rng = np.random.default_rng(13)
    for dim in (2, 3):
        model = MetricModel(DisplacementField(dim, amplitude=0.05, seed=dim))
        pts = rng.uniform(size=(60, dim))
        members = pts[:dim + 1]
        centers = rng.uniform(-0.5, 1.5, size=(300, dim))
        image = model.field.forward(pts)
        rows = _ball_gap(model.field.forward(centers), model.field.forward(members), image)
        loop = [model.distances_to(c, members).max() - model.distances_to(c, pts, image).min()
                for c in centers]
        assert np.array_equal(rows, loop)


def test_metric_circumcenter_euclidean_identity():
    c0, r0 = circumcenter(THICK_TRIANGLE)
    out = metric_circumcenter(THICK_TRIANGLE, MetricModel.euclidean(2))
    assert out is not None
    c, r = out
    assert np.linalg.norm(c - c0) <= 1e-10
    assert r == pytest.approx(r0, abs=1e-10)


def test_metric_circumcenter_translation_invariant():
    class Translation:
        amplitude = 0.5
        lipschitz = 0.0

        def __init__(self, t):
            self.t = np.asarray(t, dtype=float)

        def forward(self, x):
            return np.atleast_2d(np.asarray(x, dtype=float)) + self.t

        def inverse(self, y):
            return np.atleast_2d(np.asarray(y, dtype=float)) - self.t

    model = MetricModel(Translation([2.0, -3.0]))
    c0, r0 = circumcenter(THICK_TRIANGLE)
    out = metric_circumcenter(THICK_TRIANGLE, model, search_radius=0.5)
    assert out is not None
    c, r = out
    assert np.linalg.norm(c - c0) <= 1e-9
    assert r == pytest.approx(r0, abs=1e-9)


def test_metric_circumcenter_matches_pullback_oracle():
    rng = np.random.default_rng(14)
    field = DisplacementField(2, amplitude=2e-3, seed=15)
    model = MetricModel(field)
    for _ in range(50):
        tri = THICK_TRIANGLE + rng.uniform(-0.05, 0.05, size=(3, 2)) + rng.uniform(-2, 2, size=2)
        c0, _ = circumcenter(tri)
        out = metric_circumcenter(tri, model, upsilon0=0.3, mu0=0.5)
        assert out is not None
        c, r = out
        image_c, image_r = circumcenter(field.forward(tri))
        oracle = field.inverse(image_c[None, :])[0]
        assert np.linalg.norm(c - oracle) <= 1e-8
        assert r == pytest.approx(image_r, abs=1e-8)
        assert np.linalg.norm(c - c0) <= 8.0 * model.rho_bound / (0.3 * 0.5)


def test_metric_circumcenter_rejects_bad_simplices():
    with pytest.raises(PreconditionError):
        metric_circumcenter(np.array([[0.0, 0.0], [1.0, 0.0]]), MetricModel.euclidean(2))
    flat = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(PreconditionError):
        metric_circumcenter(flat, MetricModel.euclidean(2))


def test_metric_delaunay_euclidean_equals_bruteforce_star():
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    base = delaunay_bruteforce(pts)
    star_tops = [s for s in base.complex.simplices(2) if 12 in s]
    eps = analyze_genericity(pts).sampling.epsilon
    for path in ("pullback", "newton", "both"):
        res = metric_delaunay(pts, MetricModel.euclidean(2), [12], eps=eps, path=path)
        assert res.certified
        assert set(res.complex.simplices(2)) == set(star_tops)


def test_metric_delaunay_identity_field():
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    field = DisplacementField(2, amplitude=0.0, seed=0)
    model = MetricModel(field)
    ref = metric_delaunay(pts, MetricModel.euclidean(2), [12])
    eps = analyze_genericity(pts).sampling.epsilon
    res = metric_delaunay(pts, model, [12], eps=eps, path="both")
    assert res.agreement
    assert res.complex == ref.complex


def test_metric_delaunay_dual_path_sweep():
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    eps = analyze_genericity(pts).sampling.epsilon
    for seed in range(5):
        field = DisplacementField(2, amplitude=2e-3, seed=seed)
        model = MetricModel(field)
        res = metric_delaunay(pts, model, [12], eps=eps, path="both")
        assert res.agreement and res.certified
        assert not res.not_found
        # Pullback consistency: the metric balls match the Euclidean balls
        # of the displaced points.
        image = field.forward(pts)
        image_res = delaunay_lifted(image)
        for s, ball in res.balls.items():
            other = image_res.balls[s]
            assert ball.radius == pytest.approx(other.radius, abs=1e-8)


def test_metric_delaunay_newton_balls_verify():
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    field = DisplacementField(2, amplitude=2e-3, seed=1)
    model = MetricModel(field)
    eps = analyze_genericity(pts).sampling.epsilon
    res = metric_delaunay(pts, model, [12], eps=eps, path="newton")
    assert res.certified
    for s, ball in res.balls.items():
        d = model.distances_to(ball.center, pts[list(s)])
        assert np.abs(d - ball.radius).max() <= 1e-7 * ball.radius
        others = [q for q in range(len(pts)) if q not in s]
        d_out = model.distances_to(ball.center, pts[others])
        assert d_out.min() >= ball.radius - 1e-9


def test_metric_delaunay_region_validation():
    pts = grid_points(4, dim=2, jitter=0.1, seed=2)
    model = MetricModel.euclidean(2)
    with pytest.raises(PreconditionError):
        metric_delaunay(pts, model, [])
    with pytest.raises(PreconditionError):
        metric_delaunay(pts, model, [400])


def test_metric_delaunay_rejects_unknown_path():
    pts = grid_points(4, dim=2, jitter=0.1, seed=2)
    for path in ("bogus", "auto", ""):
        with pytest.raises(PreconditionError, match="unknown metric route"):
            metric_delaunay(pts, MetricModel.euclidean(2), [5], path=path)
    # The equidistance route windows its candidates by the sampling radius.
    for path in ("newton", "both"):
        with pytest.raises(PreconditionError, match="needs the sampling radius"):
            metric_delaunay(pts, MetricModel.euclidean(2), [5], path=path)


def test_metric_delaunay_newton_failure_falls_back(monkeypatch):
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    model = MetricModel(DisplacementField(2, amplitude=2e-3, seed=1))
    calls = []

    def no_centre(*args, **kwargs):
        calls.append(args)
        return None

    eps = analyze_genericity(pts).sampling.epsilon
    monkeypatch.setattr(metric, "metric_circumcenter", no_centre)
    res = metric_delaunay(pts, model, [12], eps=eps, path="both")
    assert res.agreement and res.certified
    # Every candidate went through the branch and bound.
    assert len(res.not_found) == len(calls) > 0
    assert set(res.complex.simplices(2)) <= set(res.not_found)
    tol = PointSet(pts).tolerance()
    for s, ball in res.balls.items():
        d = model.distances_to(ball.center, pts)
        assert ball.radius == d[list(s)].max()
        assert ball.radius - d.min() <= tol
