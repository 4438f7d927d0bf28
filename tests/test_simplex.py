"""Geometry kernel tests: closed-form oracles plus randomized identities."""

import numpy as np
import pytest

from delgen.datasets import grid_points, uniform_points
from delgen.delaunay import delaunay_lifted
from delgen.errors import DegenerateSimplexError, PreconditionError
from delgen.simplex import (
    DEGENERACY_RTOL,
    Flat,
    Simplex,
    almost_center_gap,
    circumballs,
    circumcenter,
    munkres_thickness_check,
    simplex_metrics,
    simplex_metrics_batch,
    singular_value_floor,
    subspace_angle,
    whitney_angle_check,
)

RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EQUILATERAL = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
CORNER_TET = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)


def random_simplex(rng, j, m=None, spread=1.0):
    m = j if m is None else m
    return Simplex(rng.normal(scale=spread, size=(j + 1, m)))


def thick_random_simplex(rng, j, m=None, min_thickness=0.05):
    # Rejection sample so downstream bounds are numerically meaningful.
    while True:
        s = random_simplex(rng, j, m)
        met = simplex_metrics(s)
        if not met.degenerate and met.thickness >= min_thickness:
            return s


def random_rotation(rng, m):
    q, r = np.linalg.qr(rng.normal(size=(m, m)))
    return q * np.sign(np.diag(r))


def test_simplex_validation():
    with pytest.raises(PreconditionError):
        Simplex(np.zeros((0, 2)))
    with pytest.raises(PreconditionError):
        Simplex(np.array([1.0, 2.0]))
    with pytest.raises(PreconditionError):
        Simplex(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    s = Simplex(RIGHT)
    assert s.dim == 2 and s.ambient_dim == 2
    assert s.edge_matrix().shape == (2, 2)
    assert Simplex(np.delete(RIGHT, 0, axis=0)).dim == 1


def test_right_triangle_closed_forms():
    met = simplex_metrics(RIGHT)
    assert np.allclose(met.circumcenter, [0.5, 0.5], atol=1e-14)
    assert met.circumradius == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-14)
    assert met.longest_edge == pytest.approx(np.sqrt(2.0))
    assert met.shortest_edge == pytest.approx(1.0)
    assert np.allclose(sorted(met.altitudes), [np.sqrt(2.0) / 2.0, 1.0, 1.0], atol=1e-12)
    assert met.thickness == pytest.approx(0.25, abs=1e-12)
    check = munkres_thickness_check(RIGHT)
    assert check.holds
    assert check.value == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_equilateral_closed_forms():
    met = simplex_metrics(EQUILATERAL)
    assert met.thickness == pytest.approx(np.sqrt(3.0) / 4.0, abs=1e-12)
    assert met.circumradius == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)
    check = munkres_thickness_check(EQUILATERAL)
    assert check.value == pytest.approx(np.sqrt(3.0) / 6.0, abs=1e-12)
    assert check.bound == pytest.approx(np.sqrt(3.0) / 6.0, abs=1e-12)


def test_corner_tetrahedron_closed_forms():
    met = simplex_metrics(CORNER_TET)
    assert np.allclose(met.circumcenter, [0.5, 0.5, 0.5], atol=1e-12)
    assert met.circumradius == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)
    assert np.allclose(
        sorted(met.altitudes), [1.0 / np.sqrt(3.0), 1.0, 1.0, 1.0], atol=1e-12
    )
    assert met.thickness == pytest.approx((1.0 / np.sqrt(3.0)) / (3.0 * np.sqrt(2.0)), abs=1e-12)


def test_vertex_simplex_metrics():
    met = simplex_metrics(np.array([[2.0, 3.0]]))
    assert met.dim == 0
    assert met.thickness == 1.0
    assert met.circumradius == 0.0
    assert not met.degenerate


def test_degeneracy_flags():
    assert simplex_metrics(np.array([[0.0, 0.0], [0.0, 0.0]])).degenerate
    assert not simplex_metrics(RIGHT).degenerate
    met = simplex_metrics(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert met.degenerate and met.thickness == 0.0


def test_circumcenter_cospherical_degenerate():
    # Four corners of the unit square: affinely dependent but concyclic, so
    # the least squares path must still find the centre.
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    c, r = circumcenter(square)
    assert np.allclose(c, [0.5, 0.5], atol=1e-12)
    assert r == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)


def test_circumcenter_inconsistent_degenerate_is_none():
    collinear = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    assert circumcenter(collinear) is None


def test_circumcenter_of_a_singular_gram_system_is_none():
    # The edge's Gram entry, 1e-340, underflows to zero, while its one
    # singular value passes the degeneracy test.
    assert circumcenter(np.array([[0.0, 0.0], [1e-170, 0.0]])) is None


def test_a_singular_row_leaves_the_other_rows_their_bits():
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.normal(size=(30, 2)), [[0.0, 0.0], [1e-170, 0.0], [0.0, 1e-170]]])
    for k in (2, 3):
        rows = np.array([rng.choice(30, k, replace=False) for _ in range(12)])
        rows[5] = [30, 31, 32][:k]
        centres, radii, found = circumballs(pts, rows)
        assert found.tolist() == [r != 5 for r in range(12)]
        for r, row in enumerate(rows):
            one = circumballs(pts, row[None])
            assert np.array_equal(centres[r], one[0][0]) and radii[r] == one[1][0]
            assert found[r] == one[2][0]


def test_circumcenter_equidistance_residual():
    rng = np.random.default_rng(5)
    for _ in range(300):
        j = int(rng.integers(1, 5))
        s = thick_random_simplex(rng, j, min_thickness=0.02)
        met = simplex_metrics(s)
        d = np.linalg.norm(s.vertices - met.circumcenter, axis=1)
        assert np.abs(d - met.circumradius).max() <= 1e-10 * met.longest_edge


def test_singular_value_bounds_sweep():
    rng = np.random.default_rng(13)
    for _ in range(500):
        j = int(rng.integers(1, 5))
        m = int(rng.integers(j, 5))
        s = random_simplex(rng, j, m)
        met = simplex_metrics(s)
        if met.degenerate:
            continue
        check = singular_value_floor(s)
        assert check.holds
        assert check.value >= check.bound - 1e-9 * met.longest_edge
        # Companion upper bound on the largest singular value.
        assert met.singular_values[0] <= np.sqrt(j) * met.longest_edge + 1e-12


def test_singular_value_floor_rejects_degenerate():
    with pytest.raises(DegenerateSimplexError):
        singular_value_floor(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


def test_pseudo_inverse_duality_sweep():
    rng = np.random.default_rng(17)
    for _ in range(500):
        j = int(rng.integers(1, 5))
        m = int(rng.integers(j, 6))
        s = random_simplex(rng, j, m)
        met = simplex_metrics(s)
        if met.degenerate:
            continue
        p = s.edge_matrix()
        sv_p = np.linalg.svd(p, compute_uv=False)[:j]
        sv_pinv = np.linalg.svd(np.linalg.pinv(p), compute_uv=False)[:j]
        assert np.allclose(sv_pinv, 1.0 / sv_p[::-1], rtol=1e-10)


def test_pinv_row_norms_are_inverse_altitudes():
    rng = np.random.default_rng(19)
    for _ in range(500):
        j = int(rng.integers(1, 5))
        m = int(rng.integers(j, 6))
        s = thick_random_simplex(rng, j, m, min_thickness=0.01)
        met = simplex_metrics(s)
        rows = np.linalg.pinv(s.edge_matrix())
        # Row i corresponds to vertex i+1; the base vertex has no row.
        for i in range(j):
            assert np.linalg.norm(rows[i]) == pytest.approx(
                1.0 / met.altitudes[i + 1], rel=1e-9
            )


def test_thickness_monotone_under_faces():
    rng = np.random.default_rng(29)
    for _ in range(300):
        j = int(rng.integers(2, 5))
        s = thick_random_simplex(rng, j, min_thickness=0.02)
        t0 = simplex_metrics(s).thickness
        for drop in range(j + 1):
            tf = simplex_metrics(Simplex(np.delete(s.vertices, drop, axis=0))).thickness
            assert tf >= t0 - 1e-12


def test_isometry_invariance():
    rng = np.random.default_rng(31)
    for _ in range(100):
        j = int(rng.integers(1, 5))
        s = thick_random_simplex(rng, j, min_thickness=0.02)
        met = simplex_metrics(s)
        q = random_rotation(rng, s.ambient_dim)
        shift = rng.normal(size=s.ambient_dim)
        moved = Simplex(s.vertices @ q.T + shift)
        met2 = simplex_metrics(moved)
        assert met2.thickness == pytest.approx(met.thickness, rel=1e-10)
        assert met2.longest_edge == pytest.approx(met.longest_edge, rel=1e-10)
        assert met2.circumradius == pytest.approx(met.circumradius, rel=1e-10)
        assert np.allclose(sorted(met2.altitudes), sorted(met.altitudes), rtol=1e-9)
        assert np.allclose(met2.singular_values, met.singular_values, rtol=1e-9)
        assert np.allclose(met2.circumcenter, met.circumcenter @ q.T + shift, atol=1e-9)


def test_scale_covariance():
    rng = np.random.default_rng(37)
    for _ in range(100):
        s = thick_random_simplex(rng, 3, min_thickness=0.02)
        met = simplex_metrics(s)
        lam = float(rng.uniform(0.1, 10.0))
        met2 = simplex_metrics(Simplex(lam * s.vertices))
        assert met2.thickness == pytest.approx(met.thickness, rel=1e-10)
        assert met2.circumradius == pytest.approx(lam * met.circumradius, rel=1e-10)
        assert met2.longest_edge == pytest.approx(lam * met.longest_edge, rel=1e-10)


def test_munkres_random_3_simplices():
    rng = np.random.default_rng(41)
    for _ in range(300):
        s = thick_random_simplex(rng, 3, min_thickness=0.01)
        check = munkres_thickness_check(s)
        assert check.holds
        assert check.value == pytest.approx(check.bound, rel=1e-9, abs=1e-12)


def test_munkres_rejects_degenerate():
    with pytest.raises(DegenerateSimplexError):
        munkres_thickness_check(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


def test_flat_construction_and_distance():
    f = Flat.from_points(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert f.dim == 2
    assert f.distance(np.array([0.3, 0.4, 2.0])) == pytest.approx(2.0, abs=1e-12)
    assert f.distance(np.array([5.0, -3.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_subspace_angle_known():
    xy = Flat.from_span(np.zeros(3), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    xz = Flat.from_span(np.zeros(3), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    x_axis = Flat.from_span(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
    tilted = Flat.from_span(np.zeros(3), np.array([[1.0, 0.0, 1.0]]))
    assert subspace_angle(xy, xy) == pytest.approx(0.0, abs=1e-12)
    assert subspace_angle(x_axis, xy) == pytest.approx(0.0, abs=1e-12)
    assert subspace_angle(tilted, xy) == pytest.approx(np.pi / 4.0, abs=1e-12)
    assert subspace_angle(xz, xy) == pytest.approx(np.pi / 2.0, abs=1e-12)
    with pytest.raises(PreconditionError):
        subspace_angle(xy, x_axis)


def test_whitney_exact_flat_gives_zero_angle():
    s = Simplex(EQUILATERAL)
    flat = Flat.from_points(EQUILATERAL)
    check = whitney_angle_check(s, flat)
    assert check.value == pytest.approx(0.0, abs=1e-12)
    assert check.holds


def test_whitney_sweep_small_eta():
    rng = np.random.default_rng(43)
    for _ in range(300):
        j = int(rng.integers(1, 4))
        m = int(rng.integers(j, 5))
        s = thick_random_simplex(rng, j, m, min_thickness=0.1)
        met = simplex_metrics(s)
        # Perturb the vertices a little, then fit a flat of dimension >= j
        # through the moved copies; every vertex is then within eta of it.
        eta_target = 0.2 * met.longest_edge * float(rng.uniform(0.1, 1.0))
        moved = s.vertices + rng.normal(size=s.vertices.shape) * eta_target / np.sqrt(
            s.vertices.shape[1]
        )
        k = int(rng.integers(j, m + 1))
        if k == m:
            flat = Flat.from_span(moved[0], np.eye(m))
        else:
            flat = Flat.from_points(moved[: k + 1])
        if flat.dim < j:
            continue
        check = whitney_angle_check(s, flat)
        assert check.holds
        assert check.value <= check.bound + 1e-9


def test_whitney_rejects_small_flat():
    s = Simplex(EQUILATERAL)
    line = Flat.from_span(np.zeros(2), np.array([[1.0, 0.0]]))
    with pytest.raises(PreconditionError):
        whitney_angle_check(s, line)


def test_almost_center_exact_center():
    c, _ = circumcenter(RIGHT)
    check = almost_center_gap(RIGHT, c)
    assert check.value == pytest.approx(0.0, abs=1e-12)
    assert check.holds


def test_almost_center_normal_offset_in_3d():
    # Lift the triangle into R^3; points straight above the circumcentre are
    # exactly equidistant, so their distance to the centre space is zero.
    tri = np.hstack([RIGHT, np.zeros((3, 1))])
    c, _ = circumcenter(tri)
    x = c + np.array([0.0, 0.0, 3.0])
    check = almost_center_gap(tri, x)
    assert check.value == pytest.approx(0.0, abs=1e-12)
    assert check.holds


def test_almost_center_sweep():
    rng = np.random.default_rng(47)
    for _ in range(300):
        j = int(rng.integers(1, 4))
        m = int(rng.integers(j, 5))
        s = thick_random_simplex(rng, j, m, min_thickness=0.05)
        met = simplex_metrics(s)
        x = met.circumcenter + rng.normal(size=m) * met.circumradius * float(
            rng.uniform(0.0, 1.0)
        )
        check = almost_center_gap(s, x)
        assert check.holds
        assert check.value <= check.bound + 1e-9
        assert check.detail["bound_sq"] >= 0.0
        assert check.detail["bound_centre"] >= 0.0


def simplex_metrics_by_loop(v):
    """The metrics of one simplex, vertex by vertex and facet by facet: the
    reference the stacked kernel must match bit for bit."""
    j = v.shape[0] - 1
    if j == 0:
        return (0.0, 0.0, v[0].copy(), 0.0, np.zeros(1), 1.0, np.zeros(0), False)
    dists = np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=-1))
    iu = np.triu_indices(j + 1, k=1)
    longest = float(dists[iu].max())
    shortest = float(dists[iu].min())
    p = (v[1:] - v[0]).T
    sv = np.linalg.svd(p, compute_uv=False)
    sv = np.concatenate([sv, np.zeros(j - sv.size)])
    degenerate = bool(sv[0] == 0.0 or sv[-1] < DEGENERACY_RTOL * sv[0])
    alts = np.zeros(j + 1)
    for i in range(j + 1):
        others = np.delete(v, i, axis=0)
        rel = v[i] - others[0]
        if others.shape[0] == 1:
            alts[i] = float(np.linalg.norm(rel))
            continue
        u, fsv, _ = np.linalg.svd((others[1:] - others[0]).T, full_matrices=False)
        rank = int(np.sum(fsv >= DEGENERACY_RTOL * fsv[0])) if fsv[0] > 0.0 else 0
        basis = u[:, :rank]
        alts[i] = float(np.linalg.norm(rel - basis @ (basis.T @ rel)))
    thickness = 0.0 if degenerate or longest == 0.0 else float(alts.min() / (j * longest))
    b = 0.5 * (p**2).sum(axis=0)
    center = radius = None
    if not degenerate:
        offset = p @ np.linalg.solve(p.T @ p, b)
        c, r = v[0] + offset, float(np.linalg.norm(offset))
    else:
        x, *_ = np.linalg.lstsq(p.T, b, rcond=None)
        consistent = np.abs(p.T @ x - b).max() <= 1e-9 * max(longest**2, 1e-300)
        c = v[0] + x if consistent else None
        r = float(np.linalg.norm(v - c, axis=1).max()) if consistent else None
    if c is not None:
        d = np.linalg.norm(v - c, axis=1)
        if not np.abs(d - r).max() > 1e-10 * max(longest, 1e-300) + 1e-14:
            center, radius = c, r
    return (longest, shortest, center, radius, alts, thickness, sv, degenerate)


def assert_rows_match_loop(points, simplices):
    cols = simplex_metrics_batch(points, simplices)
    idx = np.array(simplices).reshape(len(cols), -1)
    assert np.array_equal(cols.vertices, idx)
    assert len(cols) == len(simplices)
    centres, radii, found = circumballs(points, idx)
    for k, s in enumerate(simplices):
        ref = simplex_metrics_by_loop(points[list(s)])
        met = simplex_metrics(points[list(s)])
        got = (cols.longest_edge[k], cols.shortest_edge[k],
               centres[k] if found[k] else None, radii[k] if found[k] else None,
               cols.altitudes[k], cols.thickness[k], met.singular_values, cols.degenerate[k])
        one = (met.longest_edge, met.shortest_edge, met.circumcenter, met.circumradius,
               met.altitudes, met.thickness, met.singular_values, met.degenerate)
        assert met.dim == len(s) - 1
        for name, a, b, c in zip(("longest", "shortest", "centre", "radius",
                                  "altitudes", "thickness", "spectrum", "degenerate"),
                                 got, ref, one):
            if b is None:
                assert a is None and c is None, (s, name)
            else:
                assert np.array_equal(a, b) and np.array_equal(c, b), (s, name, a, b, c)
        ball = circumcenter(points[list(s)])
        if ref[2] is None:
            assert ball is None, s
        else:
            assert np.array_equal(ball[0], ref[2]) and ball[1] == ref[3], s


def svd_rule(v):
    """The degeneracy flag of one simplex by the spectrum of its edges."""
    j = v.shape[0] - 1
    sv = np.linalg.svd((v[1:] - v[0]).T, compute_uv=False)
    sv = np.concatenate([sv, np.zeros(j - sv.size)])
    return bool(sv[0] == 0.0 or sv[-1] < DEGENERACY_RTOL * sv[0])


def test_degeneracy_flags_match_the_svd_rule_near_the_threshold():
    rng = np.random.default_rng(11)
    for m in (2, 3):
        simplices = []
        for j in (1, 2, 3):
            r = min(j, m)
            # Ratios about the Gram test's thresholds (1e-6 for j = 2, and
            # 1e-4 for j = 3 with these spectra) and the SVD rule's.
            for ratio in (1e-13, 1e-11, 1e-7, 0.999e-6, 1.001e-6, 1e-5,
                          0.999e-4, 1.001e-4, 1.0):
                for scale in (1e-60, 1e-3, 1.0, 1e45, 1e100):
                    # Edge rows E = U diag(s) V^T with s_r / s_1 = ratio.
                    s = np.geomspace(1.0, ratio, r) * scale
                    u = random_rotation(rng, j)[:, :r]
                    w = random_rotation(rng, m)[:, :r]
                    edges = (u * s) @ w.T
                    simplices.append(np.vstack([np.zeros(m), edges]))
                    simplices.append(rng.normal(size=m) + np.vstack([np.zeros(m), edges]))
        # Edges whose squared length underflows to zero, or nearly so, and a
        # repeated vertex.
        for length in (1e-150, 1e-170, 5e-324, 0.0):
            simplices.append(np.vstack([np.zeros(m), np.full(m, length)]))
        for j in (1, 2, 3):
            pts = np.vstack([s for s in simplices if len(s) == j + 1])
            rows = np.arange(len(pts)).reshape(-1, j + 1)
            want = [svd_rule(pts[row]) for row in rows]
            assert simplex_metrics_batch(pts, rows).degenerate.tolist() == want, (m, j)
            if j <= m:
                assert set(want) == {True, False}
            else:
                assert all(want)
    tiny = np.array([[0.0, 0.0], [1e-170, 0.0]])
    assert (tiny[1] ** 2).sum() == 0.0
    assert not simplex_metrics_batch(tiny, [[0, 1]]).degenerate[0]


def test_simplex_metrics_batch_matches_the_rowwise_loop():
    clouds = [grid_points(9, 2, 0.2, seed=4), grid_points(5, 3, 0.15, seed=4),
              uniform_points(150, 2, seed=4), uniform_points(60, 3, seed=4)]
    for pts in clouds:
        cx = delaunay_lifted(pts).complex
        for dim in range(0, cx.dimension + 1):
            assert_rows_match_loop(pts, cx.simplices(dim))

    # Good rows mixed with every per-row branch: collinear triangle
    # (inconsistent least squares), repeated vertex (facet span of rank 0,
    # cospherical degenerate), flat concyclic and flat generic tetrahedra,
    # and a tetrahedron with a collinear facet.
    grid = grid_points(4, 2, 0.2, seed=4)
    extra = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [0.3, 2.0]])
    pts = np.vstack([grid, extra])
    n = len(grid)
    good = delaunay_lifted(grid).complex.simplices(2)
    bad = [(n, n + 1, n + 2), (n, n, n + 3), (n + 3, n + 1, n + 1)]
    assert_rows_match_loop(pts, good[:3] + bad[:2] + good[3:6] + bad[2:])
    # Two tops sharing the rank 0 facet (n, n), which one SVD serves.
    assert_rows_match_loop(pts, [(n, n, n + 3), (n, n, n + 1)])

    grid = grid_points(3, 3, 0.15, seed=4)
    extra = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0], [2.5, 0.7, 0.0], [0.2, 0.3, 1.5],
                      [3.0, 0.0, 0.0]])
    pts = np.vstack([grid, extra])
    n = len(grid)
    good = delaunay_lifted(grid).complex.simplices(3)
    bad = [(n, n + 1, n + 2, n + 3), (n, n + 1, n + 2, n + 4),
           (n, n + 1, n + 6, n + 5), (n, n, n + 2, n + 5), (n, n, n, n + 5)]
    rows = good[:2] + bad[:3] + good[2:4] + bad[3:]
    assert_rows_match_loop(pts, rows)
    # Two tops sharing the collinear facet (n, n+1, n+6), which one SVD serves.
    assert_rows_match_loop(pts, [(n, n + 1, n + 6, n + 5), (n, n + 1, n + 6, n + 2)])
    mets = simplex_metrics_batch(pts, rows)
    found = circumballs(pts, rows)[2]
    assert mets.degenerate.tolist() == [False] * 2 + [True] * 3 + [False] * 2 + [True] * 2
    assert found[2] and not found[3]
    assert len(simplex_metrics_batch(pts, [])) == 0
