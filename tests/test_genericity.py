"""Sampling radius, deep interior, protection audits, and certificates."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree

from delgen.datasets import grid_points
from delgen.delaunay import PointSet, delaunay_lifted
from delgen.errors import NonGenericError, PreconditionError
from delgen.genericity import (
    SamplingReport,
    analyze_genericity,
    lemma_audit,
    sampling_parameters,
    thickness_certificate,
)
from delgen.hull import hull_facets

SQRT2 = np.sqrt(2.0)


def sampling(pts):
    return analyze_genericity(pts).sampling


def jittered_instance():
    pts = grid_points(9, dim=2, jitter=0.2, seed=3)
    return pts, list(analyze_genericity(pts).deep_ids)


def epsilon_grid_oracle(pts, cells=500):
    """Slow independent fixed point: dense scan of depth and coverage."""
    hull = ConvexHull(pts)
    eqs = hull.equations
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    xs = np.linspace(lo[0], hi[0], cells)
    ys = np.linspace(lo[1], hi[1], cells)
    gx, gy = np.meshgrid(xs, ys)
    sample = np.column_stack([gx.ravel(), gy.ravel()])
    depth = -(sample @ eqs[:, :2].T + eqs[:, 2]).max(axis=1)
    dist, _ = cKDTree(pts).query(sample)

    def g(r):
        mask = depth >= r
        return dist[mask].max() if mask.any() else 0.0

    lo_r, hi_r = 0.0, g(0.0)
    for _ in range(60):
        mid = 0.5 * (lo_r + hi_r)
        if g(mid) - mid > 0:
            lo_r = mid
        else:
            hi_r = mid
    return 0.5 * (lo_r + hi_r)


def test_report_validation():
    with pytest.raises(PreconditionError):
        SamplingReport(epsilon=0.0, sparsity=1.0, mu0=1.0)
    with pytest.raises(PreconditionError):
        SamplingReport(epsilon=1.0, sparsity=-1.0, mu0=1.0)


def test_integer_grid_closed_form():
    rep = sampling(grid_points(5, dim=2))
    assert rep.epsilon == pytest.approx(SQRT2 / 2.0, abs=1e-12)
    assert rep.sparsity == pytest.approx(1.0, abs=1e-15)
    assert rep.mu0 == pytest.approx(SQRT2, abs=1e-12)


def test_sampling_rejects_thin_inputs():
    with pytest.raises(PreconditionError):
        analyze_genericity(np.array([[0.0, 0.0], [1.0, 0.0]]))
    line = np.column_stack([np.arange(5.0), np.zeros(5)])
    with pytest.raises(PreconditionError):
        analyze_genericity(line)


def test_sampling_invariants_random_sweep():
    rng = np.random.default_rng(21)
    inputs = [rng.uniform(size=(int(rng.integers(10, 40)), 2)) for _ in range(10)]
    inputs += [grid_points(side, 3, 0.2, seed=side) for side in (4, 5, 6)]
    for pts in inputs:
        rep = sampling(pts)
        assert rep.sparsity <= 2.0 * rep.epsilon + 1e-12
        assert 0.0 < rep.mu0 <= 2.0 + 1e-12


def test_sampling_sweeps_the_uneroded_boundary_once(monkeypatch):
    # One exact evaluation at margin 0 per solve; bisection runs on some inputs.
    from delgen import genericity

    margins = []
    real = genericity._coverage_radius
    monkeypatch.setattr(genericity, "_coverage_radius",
                        lambda f, vor, tree, eps: margins.append(eps) or real(f, vor, tree, eps))
    rng = np.random.default_rng(21)
    bisected = 0
    for _ in range(6):
        margins.clear()
        sampling(rng.uniform(size=(int(rng.integers(10, 40)), 2)))
        assert margins.count(0.0) == 1
        bisected += len(margins) > 4
    assert bisected


def test_sampling_radius_is_never_below_the_fixed_point():
    from delgen import genericity

    rng = np.random.default_rng(21)
    bisected = 0
    for _ in range(6):
        pts = rng.uniform(size=(int(rng.integers(10, 40)), 2))
        ps = PointSet(pts)
        facets, base = hull_facets(pts), delaunay_lifted(ps)
        vor, tree = genericity._voronoi_pieces(pts, base), cKDTree(pts)
        calls = []

        def g(e):
            calls.append(e)
            return genericity._coverage_radius(facets, vor, tree, e)

        tol = 1e-9 * ps.diameter()
        eps = genericity._fixed_point(g, tol)
        assert eps == sampling_parameters(ps, facets, base).epsilon
        # g(x) > x for every x below the fixed point, so g(eps) <= eps puts
        # eps at or above it.
        assert g(eps) <= eps
        if len(calls) > 4:
            bisected += 1
            assert g(eps - tol) > eps - tol
    assert bisected


# analyze-grid catalogue grids (row, index) on which a sampled boundary put
# eps below the benchmark's independent lower bound; the exact values come
# from a clipped Voronoi cell computation.
KNOWN_GRIDS = [((15, 14), 0.80134, 0.805524), ((20, 44), 0.80347, 0.806674),
               ((27, 13), 0.80684, 0.809431)]


@pytest.mark.parametrize("mirror", [1.0, -1.0])
@pytest.mark.parametrize("key, lower, exact", KNOWN_GRIDS)
def test_known_grids_reach_the_exact_radius(key, lower, exact, mirror):
    row, index = key
    seed = int(np.random.SeedSequence((row, 2, index)).generate_state(1)[0] % 2**31)
    pts = grid_points(15, 2, 0.2, seed) * np.array([mirror, 1.0])
    eps = sampling(pts).epsilon
    assert eps >= lower
    assert eps == pytest.approx(exact, abs=1e-5)


def test_epsilon_against_dense_scan_oracle():
    rng = np.random.default_rng(25)
    pts = rng.uniform(size=(40, 2))
    rep = sampling(pts)
    oracle = epsilon_grid_oracle(pts)
    assert rep.epsilon == pytest.approx(oracle, abs=3e-3)


def test_sampling_rigid_motion_and_scaling():
    rng = np.random.default_rng(27)
    pts = rng.uniform(size=(30, 2))
    rep = sampling(pts)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = pts @ rot.T + np.array([5.0, -2.0])
    rep2 = sampling(moved)
    assert rep2.epsilon == pytest.approx(rep.epsilon, rel=1e-6)
    assert rep2.sparsity == pytest.approx(rep.sparsity, rel=1e-12)
    lam = 3.5
    rep3 = sampling(lam * pts)
    assert rep3.epsilon == pytest.approx(lam * rep.epsilon, rel=1e-6)
    assert rep3.sparsity == pytest.approx(lam * rep.sparsity, rel=1e-12)
    assert rep3.mu0 == pytest.approx(rep.mu0, rel=1e-6)


def test_deep_interior_integer_grid():
    pts = grid_points(9, dim=2)
    a = analyze_genericity(pts)
    eps = a.sampling.epsilon
    assert eps == pytest.approx(SQRT2 / 2.0, abs=1e-12)
    deep = set(a.deep_ids)
    expect = {
        i for i, p in enumerate(pts)
        if p.min() >= 4.0 * eps - 1e-9 and p.max() <= 8.0 - 4.0 * eps + 1e-9
    }
    assert deep == expect
    assert {tuple(pts[i]) for i in deep} == {
        (float(x), float(y)) for x in (3, 4, 5) for y in (3, 4, 5)
    }


def test_deep_interior_empty_for_small_sets():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    a = analyze_genericity(square)
    assert a.deep_ids == ()
    # The analysis stands; only its region-dependent parts raise.
    assert a.sampling.epsilon > 0
    for part in ("protection", "classification"):
        with pytest.raises(PreconditionError, match="deep interior region is empty"):
            getattr(a, part)


def test_analysis_region_validation():
    pts, region = jittered_instance()
    with pytest.raises(PreconditionError):
        analyze_genericity(pts, [])
    with pytest.raises(PreconditionError):
        analyze_genericity(pts, [0])
    with pytest.raises(PreconditionError):
        analyze_genericity(pts, region + [0])


def test_classify_jittered_grid():
    pts, region = jittered_instance()
    a = analyze_genericity(pts, region)
    protection, classification = a.protection, a.classification
    assert protection.generic
    assert protection.delta_global == min(protection.per_simplex.values())
    assert all(v > 0 for v in protection.per_simplex.values())
    eps = a.sampling.epsilon
    assert protection.nu_tilde == pytest.approx(
        min(protection.delta_global, eps) / eps
    )
    assert 0.0 < protection.nu_tilde <= 1.0
    assert classification.region == tuple(region)
    assert set(classification.region) <= set(a.deep_ids)
    # The audited star is one ring wider than the safe star.
    safe_tops = set(classification.safe.simplices(2))
    assert safe_tops <= set(classification.audited)
    assert classification.audited


def test_audited_simplices_satisfy_radius_bound():
    pts, region = jittered_instance()
    a = analyze_genericity(pts, region)
    eps = a.sampling.epsilon
    for s in a.classification.audited:
        assert a.base.balls[s].radius < eps + a.tolerance


def test_protection_scales_linearly():
    pts, region = jittered_instance()
    a = analyze_genericity(pts, region)
    lam = 2.5
    b = analyze_genericity(lam * pts, region)
    assert b.protection.delta_global == pytest.approx(
        lam * a.protection.delta_global, rel=1e-6
    )
    assert b.protection.nu_tilde == pytest.approx(a.protection.nu_tilde, rel=1e-6)


def test_thickness_certificate_on_generic_grid():
    pts, region = jittered_instance()
    a = analyze_genericity(pts, region)
    cert = thickness_certificate(a)
    nu = a.protection.nu_tilde
    assert cert.upsilon0 == pytest.approx(np.sqrt(3.0) * nu * nu / 4.0)
    assert cert.valid
    assert cert.min_thickness >= cert.upsilon0 - 1e-9
    assert cert.margin == pytest.approx(cert.min_thickness - cert.upsilon0)
    assert all(len(w[0]) >= 2 for w in cert.witnesses)
    assert min(w[1] for w in cert.witnesses) == cert.min_thickness


def test_thickness_certificate_rejects_non_generic():
    with pytest.raises(NonGenericError):
        thickness_certificate(analyze_genericity(grid_points(9, dim=2)))


def test_exact_grid_audit_is_non_generic():
    record = lemma_audit(analyze_genericity(grid_points(9, dim=2)))
    assert not record.generic
    assert abs(record.delta) <= 1e-9 * 8.0 * SQRT2
    assert record.simplices == ()
    assert all(counts == (0, 0) for counts in record.checks.values())


def test_lemma_audit_green_on_generic_grid():
    pts, region = jittered_instance()
    record = lemma_audit(analyze_genericity(pts, region))
    assert record.generic
    for name in ("separation", "altitude", "circumradius", "thickness"):
        passed, failed = record.checks[name]
        assert failed == 0
        assert passed > 0
    assert record.simplices
    eps = record.epsilon
    for audit in record.simplices:
        assert audit.radius < eps + 1e-9 * 8.0
        assert audit.protection > 0


def test_audit_json_schema():
    pts, region = jittered_instance()
    doc = lemma_audit(analyze_genericity(pts, region)).to_json()
    assert set(doc) == {
        "epsilon", "sparsity", "mu0", "delta", "nu_tilde", "upsilon0",
        "generic", "simplices", "checks",
    }
    assert set(doc["checks"]) == {"separation", "altitude", "circumradius", "thickness"}
    for entry in doc["simplices"]:
        assert set(entry) == {"vertices", "radius", "protection", "thickness", "secure"}
        assert isinstance(entry["secure"], bool)
    for counts in doc["checks"].values():
        assert set(counts) == {"pass", "fail"}


def test_secure_flags_match_definition():
    pts, region = jittered_instance()
    a = analyze_genericity(pts, region)
    record = lemma_audit(a)
    delta = record.delta
    nu = record.nu_tilde
    eps = record.epsilon
    ups = record.upsilon0
    tol = a.tolerance
    for audit in record.simplices:
        expect = (
            audit.protection >= delta - tol
            and audit.thickness >= ups - 1e-9
            and audit.radius < eps + tol
        )
        if not expect:
            assert not audit.secure
        # The shortest edge clause cannot be reconstructed from the audit
        # record alone; secure implies the reconstructible part.
        if audit.secure:
            assert expect
