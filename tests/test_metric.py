"""Displacement fields, metric models, and the metric Delaunay routes."""

import time
from itertools import product

import numpy as np
import pytest
from scipy.spatial import cKDTree

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
from delgen.simplex import circumballs, circumcenter, simplex_metrics, simplex_metrics_batch

# The Euclidean distance, as the pullback of a zero displacement.
EUCLIDEAN = MetricModel(DisplacementField(2, 0.0, seed=0))

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


def inverse_by_loop(field, y):
    """The contraction on one row, which stops on that row's own test: the
    reference for the stacked inverse. Returns the inverse and its steps."""
    y = y[None, :]
    x = y.copy()
    for steps in range(1, 201):
        step = y - field.displacement(x) - x
        x = x + step
        if np.abs(step).max() <= 1e-15 * max(1.0, np.abs(y).max()):
            break
    return x[0], steps


def test_stacked_inverse_matches_one_row_calls():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        # Rows near the origin and far from it, where the stop test is
        # looser, in one stack.
        y = np.vstack([rng.uniform(-1.0, 1.0, size=(40, dim)),
                       rng.uniform(-300.0, 300.0, size=(40, dim))])
        y = y[rng.permutation(len(y))]
        for amplitude in (0.0, 1e-3, 0.05, 0.3):
            field = DisplacementField(dim, amplitude=amplitude, seed=dim)
            ref = [inverse_by_loop(field, row) for row in y]
            assert np.array_equal(field.inverse(y), np.array([x for x, _ in ref]))
            assert np.array_equal(field.inverse(y[7]), ref[7][0][None, :])
            # A zero field stops every row after one step; otherwise the
            # rows stop after different numbers of steps.
            steps = {n for _, n in ref}
            if amplitude == 0.0:
                assert steps == {1}
            else:
                assert len(steps) > 1, (dim, amplitude, steps)


def test_metric_axioms():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(100, 2))
    y = rng.uniform(size=(100, 2))
    models = [
        EUCLIDEAN,
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
        rows = _ball_gap(model.field.forward(centers),
                         np.broadcast_to(model.field.forward(members), (len(centers), dim + 1, dim)),
                         cKDTree(image))
        loop = [model.distances_to(c, members).max() - model.distances_to(c, pts, image).min()
                for c in centers]
        assert np.array_equal(rows, loop)


def test_metric_circumcenter_euclidean_identity():
    c0, r0 = circumcenter(THICK_TRIANGLE)
    out = metric_circumcenter(THICK_TRIANGLE, EUCLIDEAN)
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
    out = metric_circumcenter(THICK_TRIANGLE, model)
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
        metric_circumcenter(np.array([[0.0, 0.0], [1.0, 0.0]]), EUCLIDEAN)
    flat = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(PreconditionError):
        metric_circumcenter(flat, EUCLIDEAN)


def test_metric_delaunay_euclidean_equals_bruteforce_star():
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    base = delaunay_bruteforce(pts)
    star_tops = [s for s in base.complex.simplices(2) if 12 in s]
    eps = analyze_genericity(pts).sampling.epsilon
    for path in ("pullback", "newton", "both"):
        res = metric_delaunay(pts, EUCLIDEAN, [12], eps=eps, path=path)
        assert res.certified
        assert set(res.complex.simplices(2)) == set(star_tops)


def test_metric_delaunay_identity_field():
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    field = DisplacementField(2, amplitude=0.0, seed=0)
    model = MetricModel(field)
    ref = metric_delaunay(pts, EUCLIDEAN, [12])
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
        image_radii = dict(zip(map(tuple, image_res.tops.tolist()), image_res.radii))
        for s, radius in zip(map(tuple, res.tops.tolist()), res.radii):
            assert radius == pytest.approx(image_radii[s], abs=1e-8)


def test_metric_delaunay_newton_balls_verify():
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    field = DisplacementField(2, amplitude=2e-3, seed=1)
    model = MetricModel(field)
    eps = analyze_genericity(pts).sampling.epsilon
    res = metric_delaunay(pts, model, [12], eps=eps, path="newton")
    assert res.certified
    for s, centre, radius in zip(res.tops.tolist(), res.centres, res.radii):
        d = model.distances_to(centre, pts[s])
        assert np.abs(d - radius).max() <= 1e-7 * radius
        others = [q for q in range(len(pts)) if q not in s]
        d_out = model.distances_to(centre, pts[others])
        assert d_out.min() >= radius - 1e-9


def test_pullback_route_costs_little_more_than_one_delaunay_build():
    # The route builds the Delaunay complex of the images and keeps the
    # tops that meet the region, here 5,329 of 6,561 points; selecting them
    # must not cost (tops x region).
    pts = grid_points(81, 2, 0.2, seed=1)
    region = analyze_genericity(pts).classification.region
    model = MetricModel(DisplacementField(2, amplitude=1e-4, seed=3))
    image = model.field.forward(pts)

    def best_of_three(call):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return min(times)

    lifted = best_of_three(lambda: delaunay_lifted(image))
    pullback = best_of_three(lambda: metric_delaunay(pts, model, region, path="pullback"))
    assert len(region) == 5329
    assert pullback <= 5.0 * lifted


def test_metric_delaunay_region_validation():
    pts = grid_points(4, dim=2, jitter=0.1, seed=2)
    model = EUCLIDEAN
    with pytest.raises(PreconditionError):
        metric_delaunay(pts, model, [])
    with pytest.raises(PreconditionError):
        metric_delaunay(pts, model, [400])


def test_metric_delaunay_rejects_unknown_path():
    pts = grid_points(4, dim=2, jitter=0.1, seed=2)
    for path in ("bogus", "auto", ""):
        with pytest.raises(PreconditionError, match="unknown metric route"):
            metric_delaunay(pts, EUCLIDEAN, [5], path=path)
    # The equidistance route windows its candidates by the sampling radius.
    for path in ("newton", "both"):
        with pytest.raises(PreconditionError, match="needs the sampling radius"):
            metric_delaunay(pts, EUCLIDEAN, [5], path=path)


def test_metric_delaunay_newton_failure_falls_back(monkeypatch):
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    model = MetricModel(DisplacementField(2, amplitude=2e-3, seed=1))
    calls = []

    def no_centre(points, subsets, *args):
        calls.append(len(subsets))
        return (np.zeros((len(subsets), points.shape[1])), np.zeros(len(subsets)),
                np.zeros(len(subsets), dtype=bool))

    eps = analyze_genericity(pts).sampling.epsilon
    monkeypatch.setattr(metric, "_metric_circumcenters", no_centre)
    res = metric_delaunay(pts, model, [12], eps=eps, path="both")
    assert res.agreement and res.certified
    # Every candidate went through the branch and bound.
    assert len(calls) == 1
    assert len(res.not_found) == calls[0] > 0
    assert set(res.complex.simplices(2)) <= set(res.not_found)
    tol = PointSet(pts).tolerance()
    for s, centre, radius in zip(res.tops.tolist(), res.centres, res.radii):
        d = model.distances_to(centre, pts)
        assert radius == d[s].max()
        assert radius - d.min() <= tol


def test_metric_delaunay_newton_route_makes_one_call_per_stage(monkeypatch):
    # The candidates share one metrics call, one stacked Newton search and
    # one certifier call; the one-row wrapper is never used.
    pts = grid_points(5, dim=2, jitter=0.15, seed=4)
    model = MetricModel(DisplacementField(2, amplitude=2e-3, seed=1))
    eps = analyze_genericity(pts).sampling.epsilon
    calls = {"simplex_metrics_batch": 0, "_empty_balls": 0, "metric_circumcenter": 0}
    for name in calls:
        real = getattr(metric, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(metric, name, counted)
    res = metric_delaunay(pts, model, [12], eps=eps, path="newton")
    assert res.certified and not res.not_found and len(res.tops)
    assert calls == {"simplex_metrics_batch": 1, "_empty_balls": 1, "metric_circumcenter": 0}


def test_windows_at_a_smaller_reach_are_the_candidates_of_that_reach():
    from delgen.complexes import sorted_rows
    from delgen.delaunay import _circumcenter_seeds, _star_candidates

    # On the exact lattices, many diameters equal the reach, so the mask
    # meets ties: a candidate is a row of diameter at most the reach.
    for dim, side, jitter, reaches in ((2, 9, 0.2, (2.5, 2.0, 1.6, 1.2)),
                                       (3, 5, 0.1, (2.5, 2.0, 1.6, 1.2)),
                                       (2, 7, 0.0, (3.0, 2.0 * np.sqrt(2.0), 2.0, np.sqrt(2.0))),
                                       (3, 4, 0.0, (2.0, np.sqrt(3.0), np.sqrt(2.0), 1.0))):
        pts = grid_points(side, dim, jitter=jitter, seed=2)
        ps = PointSet(pts)
        eps = 1.0 if jitter == 0.0 else analyze_genericity(pts).sampling.epsilon
        region = np.argsort(np.linalg.norm(pts - pts.mean(axis=0), axis=1))[:5].tolist()
        # One build serves both routes: the Newton rows and every relaxed row.
        windows = metric._Windows(ps, region, reaches[0] * eps, range(1, dim + 1))
        sizes = set()
        for reach in (r * eps for r in reaches):
            listed = windows.diameters <= reach
            at = np.flatnonzero(listed[windows.sizes == dim + 1])
            rows = windows.tops[at]
            want = _star_candidates(ps, region, reach, (dim,))[0]
            # Both in key order.
            assert np.array_equal(want[sorted_rows(want, ps.n)], want)
            assert np.array_equal(rows, want)
            mets = simplex_metrics_batch(pts, windows.tops).take(at)
            fresh = simplex_metrics_batch(pts, want)
            for name in ("vertices", "longest_edge", "shortest_edge", "altitudes",
                         "thickness", "degenerate"):
                assert np.array_equal(getattr(mets, name), getattr(fresh, name))
            for got, ref in zip((col[at] for col in windows.balls), circumballs(pts, want)):
                assert np.array_equal(got, ref)
            # The relaxed rows, by size, then key.
            at = np.flatnonzero(listed)
            want, counts, diameters = _star_candidates(ps, region, reach, range(1, dim + 1))
            assert np.array_equal(windows.rows[at], want)
            assert np.array_equal(windows.sizes[at], counts)
            assert np.array_equal(windows.diameters[at], diameters)
            assert np.array_equal(windows.seeds[at], _circumcenter_seeds(pts, want, counts))
            sizes.add(len(rows))
        # The reaches cut the window down, so the filter is exercised.
        assert len(sizes) == 4


# -- the stacked Newton against the per-simplex loop -----------------------


def newton_by_loop(c, verts, model, tol, r0, seed_center, search_radius, events):
    """Damped Newton on one simplex: the reference for the stacked search."""
    c = c.copy()
    m = verts.shape[1]
    h = max(1e-7 * r0, 1e-12)
    for _ in range(60):
        d = model.distances_to(c, verts)
        if d.max() - d.min() < tol:
            return c, float(d.mean())
        f = d[1:] - d[0]
        jac = np.empty((m, m))
        for jdx in range(m):
            e = np.zeros(m)
            e[jdx] = h
            dp = model.distances_to(c + e, verts)
            dm = model.distances_to(c - e, verts)
            jac[:, jdx] = ((dp[1:] - dp[0]) - (dm[1:] - dm[0])) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            events.append("singular")
            return None
        if not np.all(np.isfinite(step)):
            return None
        base = np.abs(f).max()
        t = 1.0
        while t > 1e-4:
            trial = c + t * step
            dt = model.distances_to(trial, verts)
            if np.abs(dt[1:] - dt[0]).max() < base or dt.max() - dt.min() < tol:
                c = trial
                break
            t *= 0.5
        else:
            return None
        if np.linalg.norm(c - seed_center) > max(4.0 * search_radius, 10.0 * r0):
            return None
    d = model.distances_to(c, verts)
    if d.max() - d.min() < tol:
        return c, float(d.mean())
    return None


def search_radius_by_loop(met, model, upsilon0, mu0):
    r0, rho = met.circumradius, model.rho_bound
    if upsilon0 and mu0:
        return 8.0 * rho / (upsilon0 * mu0) + 0.05 * r0
    return 16.0 * rho * r0 / max(met.thickness * met.shortest_edge, 1e-300) + 0.05 * r0


def metric_circumcenter_by_loop(verts, model, upsilon0, mu0, events):
    """The per-simplex search from the Euclidean circumcentre, ``None``
    where the route counts a candidate as not found (the search fails, or a
    degenerate simplex)."""
    met = simplex_metrics(verts)
    if met.degenerate or met.circumradius is None:
        events.append("degenerate")
        return None
    r0, c0 = met.circumradius, met.circumcenter
    return newton_by_loop(c0 + np.zeros(verts.shape[1]), verts, model, 1e-9 * r0, r0, c0,
                          search_radius_by_loop(met, model, upsilon0, mu0), events)


class BandField:
    """phi = id, except that the slab |x_0 - centre| <= half is squashed to
    its lower face and what lies beyond it slides down to close the gap.
    phi is flat across the slab, so a Newton start inside it meets a
    singular Jacobian, while offset starts outside it can converge."""

    lipschitz = 0.0

    def __init__(self, centre, half, amplitude):
        self.lo, self.half, self.amplitude = centre - half, half, amplitude

    def forward(self, x):
        x = np.array(np.atleast_2d(x), dtype=float)
        x0 = x[:, 0]
        x[:, 0] = np.where(x0 <= self.lo, x0,
                           np.where(x0 >= self.lo + 2.0 * self.half,
                                    x0 - 2.0 * self.half, self.lo))
        return x

    def inverse(self, y):  # pragma: no cover - the Newton route never inverts
        raise NotImplementedError


def test_stacked_newton_matches_the_per_simplex_loop():
    events = []
    for dim, side, jitter in ((2, 7, 0.2), (3, 4, 0.15)):
        pts = grid_points(side, dim, jitter, seed=4)
        tops = delaunay_lifted(pts).complex.simplices(dim)
        # A degenerate row: a vertex at the midpoint of two others.
        flat = np.vstack([pts, pts[list(tops[0][:2])].mean(axis=0)])
        rows = tops + [(*tops[0][:2], len(pts), *tops[0][3:])]
        models = [MetricModel(DisplacementField(dim, amp, seed=dim))
                  for amp in (0.0, 2e-3, 0.2)]
        models += [MetricModel(BandField(c, 0.15, 0.01)) for c in (1.5, 2.3)]
        for model in models:
            for params in ((0.3, 0.5), (None, None)):
                mets = simplex_metrics_batch(flat, rows)
                centres, radii, found = metric._metric_circumcenters(
                    flat, np.array(rows), mets, circumballs(flat, rows), model, *params)
                for k, s in enumerate(rows):
                    ref = metric_circumcenter_by_loop(flat[list(s)], model, *params, events)
                    assert found[k] == (ref is not None), (dim, s)
                    if ref is not None:
                        assert np.array_equal(centres[k], ref[0]), (dim, s)
                        assert radii[k] == ref[1], (dim, s)
    # The stacks held rows that fail their start on a singular Jacobian, and
    # degenerate rows.
    assert {"singular", "degenerate"} <= set(events)


def test_a_row_an_offset_start_would_find_goes_to_the_branch_and_bound():
    """Rows whose start sits in the flat slab of a BandField, where an
    offset start of a 3^m multistart grid about the circumcentre converges,
    are decided by the branch and bound: the member set agrees with the
    pullback route and nothing is left undecided."""
    pts = grid_points(7, 2, 0.2, seed=4)
    model = MetricModel(BandField(1.5, 0.15, 0.01))
    analysis = analyze_genericity(pts)
    # The 3 x 3 centre of the grid, whose star the Newton route reaches.
    region = np.flatnonzero(analysis.depths > 1.5)
    result = metric_delaunay(pts, model, region, eps=analysis.sampling.epsilon, path="both")
    assert result.agreement and result.undecided == ()
    tops = set(map(tuple, result.tops.tolist()))
    offset_rows = []
    for s in result.not_found:
        verts = pts[list(s)]
        met = simplex_metrics(verts)
        r0, c0 = met.circumradius, met.circumcenter
        radius = search_radius_by_loop(met, model, None, None)
        assert newton_by_loop(c0, verts, model, 1e-9 * r0, r0, c0, radius, []) is None
        step = 0.75 * radius / np.sqrt(2)
        if any(newton_by_loop(c0 + np.array(offs) * step, verts, model, 1e-9 * r0, r0, c0,
                              radius, []) is not None
               for offs in product((-1.0, 0.0, 1.0), repeat=2) if any(offs)):
            offset_rows.append(s)
    # Such rows are decided both ways: some are tops, some are not.
    assert set(offset_rows) & tops and set(offset_rows) - tops


def test_stacked_fields_map_each_row_as_its_own_field():
    # The stacked Newton pass evaluates every metric field of a batch in one
    # call; each row must keep the bits of its own field's forward.
    rng = np.random.default_rng(21)
    for dim in (2, 3):
        for amplitude in (0.0, 2e-3, 0.2):
            fields = [DisplacementField(dim, amplitude * (1.0 + 0.5 * k), seed=dim + k)
                      for k in range(3)]
            x = np.vstack([rng.uniform(-3.0, 3.0, size=(400, dim)),
                           grid_points(4, dim, jitter=0.1, seed=dim)])
            rows = rng.integers(0, len(fields), size=len(x))
            got = metric._FieldStack(fields).forward(x, rows)
            for k, field in enumerate(fields):
                at = rows == k
                assert got[at].tobytes() == field.forward(x[at]).tobytes()
            for i in range(0, len(x), 37):
                assert got[i].tobytes() == fields[rows[i]].forward(x[i])[0].tobytes()
            # A single field is a stack of one.
            one = metric._FieldStack(fields[:1]).forward(x, np.zeros(len(x), dtype=int))
            assert one.tobytes() == fields[0].forward(x).tobytes()
    # Any other field object maps its own rows.
    bands = [BandField(c, 0.15, 0.01) for c in (0.5, 1.5)]
    x = rng.uniform(0.0, 2.0, size=(50, 2))
    rows = np.arange(len(x)) % 2
    got = metric._FieldStack(bands).forward(x, rows)
    for k, band in enumerate(bands):
        assert np.array_equal(got[rows == k], band.forward(x[rows == k]))
