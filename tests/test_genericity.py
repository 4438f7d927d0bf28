"""Sampling radius, deep interior, protection audits, and certificates."""

import io
import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from scipy.spatial import ConvexHull, cKDTree

from conftest import traced_peak
from delgen import simplex
from delgen.datasets import grid_points, uniform_points
from delgen.delaunay import PointSet, delaunay_lifted
from delgen.errors import NonGenericError, PreconditionError
from delgen.fileio import envelope_json
from delgen.genericity import (
    THICKNESS_SLACK,
    SamplingReport,
    _audit_star,
    analyze_genericity,
    lemma_audit,
    sampling_parameters,
    thickness_certificate,
)
from delgen.hull import hull_facets
from delgen.perturb import measured_secure_params
from delgen.simplex import simplex_metrics

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
    # At most one evaluation at margin 0 per solve; a solve whose first
    # evaluation returns its own argument (the circumcentre start) makes no
    # other; bisection still runs on some inputs.
    from delgen import genericity

    calls = []
    real = genericity._coverage_radius

    def counted(f, vor, tree, eps):
        calls.append((eps, real(f, vor, tree, eps)))
        return calls[-1][1]

    monkeypatch.setattr(genericity, "_coverage_radius", counted)
    rng = np.random.default_rng(21)
    started = bisected = 0
    for _ in range(6):
        calls.clear()
        sampling(rng.uniform(size=(int(rng.integers(10, 40)), 2)))
        margins = [eps for eps, _ in calls]
        assert margins.count(0.0) <= 1
        if calls[0][1] == calls[0][0] > 0:
            started += 1
            assert len(calls) == 1
        bisected += len(calls) > 4
    assert started and bisected


def test_sampling_radius_is_never_below_the_fixed_point():
    from delgen import genericity

    rng = np.random.default_rng(21)
    bisected = 0
    for _ in range(6):
        pts = rng.uniform(size=(int(rng.integers(10, 40)), 2))
        ps = PointSet(pts)
        facets, base = hull_facets(pts), delaunay_lifted(ps)
        vor = genericity._voronoi_pieces(pts, facets, base, facets.depth(pts))
        tree = cKDTree(pts)
        calls = []

        def g(e):
            calls.append(e)
            return genericity._coverage_radius(facets, vor, tree, e)

        tol = 1e-9 * ps.diameter()
        eps = genericity._fixed_point(g, tol)
        assert eps == sampling_parameters(ps, facets, base, facets.depth(pts)).epsilon
        # g(x) > x for every x below the fixed point, so g(eps) <= eps puts
        # eps at or above it.
        assert g(eps) <= eps
        if len(calls) > 4:
            bisected += 1
            assert g(eps - tol) > eps - tol
    assert bisected


def _known_grid(key, mirror):
    row, index = key
    seed = int(np.random.SeedSequence((row, 2, index)).generate_state(1)[0] % 2**31)
    return grid_points(15, 2, 0.2, seed) * np.array([mirror, 1.0])


# analyze-grid catalogue grids (row, index) on which a sampled boundary put
# eps below the benchmark's independent lower bound; the exact values come
# from a clipped Voronoi cell computation.
KNOWN_GRIDS = [((15, 14), 0.80134, 0.805524), ((20, 44), 0.80347, 0.806674),
               ((27, 13), 0.80684, 0.809431)]


@pytest.mark.parametrize("mirror", [1.0, -1.0])
@pytest.mark.parametrize("key, lower, exact", KNOWN_GRIDS)
def test_known_grids_reach_the_exact_radius(key, lower, exact, mirror):
    eps = sampling(_known_grid(key, mirror)).epsilon
    assert eps >= lower
    assert eps == pytest.approx(exact, abs=1e-5)


def _radius_solves(pts):
    """g, the tolerance, the Voronoi pieces, the circumcentre start, and the
    fixed point solved from that start and from g(0)."""
    from delgen import genericity

    ps = PointSet(pts)
    facets, base = hull_facets(pts), delaunay_lifted(ps)
    vor = genericity._voronoi_pieces(pts, facets, base, facets.depth(pts))

    def g(e):
        return genericity._coverage_radius(facets, vor, ps.tree, e)

    tol = 1e-9 * ps.diameter()
    start = genericity._circumcentre_fixed_point(vor)
    return (g, tol, vor, start, genericity._fixed_point(g, tol, start),
            genericity._fixed_point(g, tol))


def _start_by_loop(vor):
    """Reference for the circumcentre start: each circumradius in turn."""
    for r in sorted(set(vor.radii.tolist())):
        inside = vor.center_depths >= r - 1e-12 * max(1.0, r)
        if vor.radii[inside].max(initial=0.0) <= r:
            return r
    return 0.0


_CLOUDS = [np.random.default_rng(seed).uniform(size=(n, dim))
           for seed, (n, dim) in enumerate([(12, 2), (30, 2), (80, 2), (200, 2),
                                            (20, 3), (40, 3), (60, 3)])]
_GRIDS = [_known_grid(key, mirror) for key, _, _ in KNOWN_GRIDS for mirror in (1.0, -1.0)]
_LATTICES = [grid_points(side, dim) * spacing for side, dim in [(5, 2), (9, 2), (4, 3)]
             for spacing in (1.0, 0.1)]
_JITTERED_3D = [grid_points(side, 3, 0.05, seed) for side, seed in [(5, 1), (6, 2), (7, 3)]]


# Each input with whether the circumcentre start is its fixed point: always
# on lattices and 3-D grids, never on the known grids, whose fixed point lies
# on the eroded boundary, and either way on clouds (None).
_START_CASES = ([(pts, None) for pts in _CLOUDS] + [(pts, False) for pts in _GRIDS]
                + [(pts, True) for pts in _LATTICES + _JITTERED_3D])


@pytest.mark.parametrize("pts, hits", _START_CASES)
def test_circumcentre_start_keeps_the_fixed_point(pts, hits):
    g, tol, vor, start, started, today = _radius_solves(pts)
    assert start == _start_by_loop(vor)
    assert g(started) <= started
    if hits is not None:
        assert (g(start) == start) is hits
        assert started.hex() == today.hex()
    elif started.hex() != today.hex():
        # Only where the g(0) path stopped within tol above the fixed point
        # without reaching it; the start is then the fixed point itself.
        assert g(today) < today and g(started) == started == start
        assert today - tol <= started


def test_a_start_above_the_fixed_point_is_not_taken():
    from delgen import genericity

    above = 0
    for pts in _CLOUDS + _JITTERED_3D:
        g, tol, _, _, _, today = _radius_solves(pts)
        g0 = g(0.0)
        if g(g0) < g0:
            above += 1
            assert genericity._fixed_point(g, tol, g0).hex() == today.hex()
    assert above


def test_3d_grid_radius_takes_one_evaluation(monkeypatch):
    from delgen import genericity

    margins = []
    real = genericity._coverage_radius
    monkeypatch.setattr(genericity, "_coverage_radius",
                        lambda f, vor, tree, eps: margins.append(eps) or real(f, vor, tree, eps))
    analyze_genericity(grid_points(9, 3, 0.05, seed=1))
    assert len(margins) == 1 and margins[0] > 0


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
    assert protection.delta_global == protection.per_simplex.min()
    assert (protection.per_simplex > 0).all()
    eps = a.sampling.epsilon
    assert protection.nu_tilde == pytest.approx(
        min(protection.delta_global, eps) / eps
    )
    assert 0.0 < protection.nu_tilde <= 1.0
    assert classification.region == tuple(region)
    assert set(classification.region) <= set(a.deep_ids)
    # The audited star is one ring wider than the safe star.
    safe_tops = set(classification.safe.simplices(2))
    assert safe_tops <= set(map(tuple, classification.audited.tolist()))
    assert len(classification.audited)


def test_audited_simplices_satisfy_radius_bound():
    pts, region = jittered_instance()
    a = analyze_genericity(pts, region)
    eps = a.sampling.epsilon
    radius = dict(zip(map(tuple, a.base.tops.tolist()), a.base.radii))
    for s in map(tuple, a.classification.audited.tolist()):
        assert radius[s] < eps + a.tolerance


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
    assert all(w.vertices.shape[1] >= 2 for w in cert.witnesses)
    assert min(w.thickness.min() for w in cert.witnesses) == cert.min_thickness


def test_thickness_certificate_rejects_non_generic():
    with pytest.raises(NonGenericError):
        thickness_certificate(analyze_genericity(grid_points(9, dim=2)))


def test_exact_grid_audit_is_non_generic():
    record = lemma_audit(analyze_genericity(grid_points(9, dim=2)))
    assert not record.generic
    assert abs(record.delta) <= 1e-9 * 8.0 * SQRT2
    assert len(record.simplices) == 0
    assert all(counts == (0, 0) for counts in record.checks.values())


def test_lemma_audit_green_on_generic_grid():
    pts, region = jittered_instance()
    record = lemma_audit(analyze_genericity(pts, region))
    assert record.generic
    for name in ("separation", "altitude", "circumradius", "thickness"):
        passed, failed = record.checks[name]
        assert failed == 0
        assert passed > 0
    assert len(record.simplices)
    table = record.simplices.columns
    assert (table["radius"] < record.epsilon + 1e-9 * 8.0).all()
    assert (table["protection"] > 0).all()


def test_audit_json_schema():
    pts, region = jittered_instance()
    audit = lemma_audit(analyze_genericity(pts, region)).to_json()
    buf = io.StringIO()
    envelope_json({"audit": audit}, buf)
    doc = json.loads(buf.getvalue())["audit"]
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
    table = record.simplices.columns
    expect = ((table["protection"] >= delta - tol)
              & (table["thickness"] >= ups - 1e-9)
              & (table["radius"] < eps + tol))
    # The shortest edge clause cannot be reconstructed from the audit
    # record alone; secure implies the reconstructible part.
    assert not (table["secure"] & ~expect).any()


def metric_table_by_rows(analysis):
    """One SimplexMetrics row per safe simplex of dimension 1..m, taken from
    the closed safe star, and per audited top simplex."""
    star = analysis.classification
    table = {}
    for dim in range(1, analysis.points.dim + 1):
        group = star.safe.simplices(dim)
        if dim == analysis.points.dim:
            group = sorted(set(group).union(map(tuple, star.audited.tolist())))
        table.update((s, simplex_metrics(analysis.points.points[list(s)])) for s in group)
    return table


def thickness_certificate_by_loop(analysis, table):
    """Upsilon0, (simplex, thickness, passed) witnesses, least thickness and
    validity, simplex by simplex."""
    nu = analysis.protection.nu_tilde
    upsilon0 = float(np.sqrt(3.0) * nu * nu / 4.0)
    witnesses, worst = [], np.inf
    for dim in range(1, analysis.points.dim + 1):
        for s in analysis.classification.safe.simplices(dim):
            t = table[s].thickness
            worst = min(worst, t)
            witnesses.append((s, t, t >= upsilon0 - THICKNESS_SLACK))
    return upsilon0, witnesses, worst, all(w[2] for w in witnesses)


def lemma_audit_by_loop(analysis, table):
    """Check counts and (vertices, radius, protection, thickness, secure)
    rows, simplex by simplex."""
    eps, tol = analysis.sampling.epsilon, analysis.tolerance
    delta, nu = analysis.protection.delta_global, analysis.protection.nu_tilde
    upsilon0 = float(np.sqrt(3.0) * nu * nu / 4.0)
    floor = np.sqrt(3.0) * delta * delta / (2.0 * eps)
    counts = {name: [0, 0] for name in ("separation", "altitude", "circumradius", "thickness")}

    def tally(name, ok):
        counts[name][0 if ok else 1] += 1

    for dim in range(1, analysis.points.dim + 1):
        for s in analysis.classification.safe.simplices(dim):
            met = table[s]
            tally("separation", met.shortest_edge > delta - tol)
            tally("altitude", all(h > floor - tol for h in met.altitudes))
            tally("thickness", met.thickness >= upsilon0 - THICKNESS_SLACK)
    depth = analysis.facets.depth(analysis.points.points)
    base = analysis.base
    balls = dict(zip(map(tuple, base.tops.tolist()), zip(base.radii.tolist(),
                                                         base.protections.tolist())))
    rows = []
    for s in map(tuple, analysis.classification.audited.tolist()):
        (radius, protection), met = balls[s], table[s]
        if max(depth[v] for v in s) >= 2.0 * eps:
            tally("circumradius", radius < eps + tol)
        secure = (protection >= delta - tol
                  and met.thickness >= upsilon0 - THICKNESS_SLACK
                  and radius < eps + tol
                  and met.shortest_edge >= nu * eps - tol)
        rows.append((s, radius, protection, met.thickness, secure))
    return {name: tuple(c) for name, c in counts.items()}, rows


def rescaled(analysis, eps_scale, delta_share):
    """The same analysis with eps scaled and delta set to a share of it, so
    that the checks and the secure clauses see both outcomes."""
    protection, classification = analysis._star
    eps = analysis.sampling.epsilon * eps_scale
    delta = delta_share * eps
    protection = replace(protection, delta_global=delta, nu_tilde=delta / eps)
    return replace(analysis, sampling=replace(analysis.sampling, epsilon=eps),
                   _star=(protection, classification))


@pytest.mark.parametrize("pts", [
    grid_points(9, 2, 0.2, seed=3),
    grid_points(9, 3, 0.05, seed=1),
    uniform_points(2000, 2, seed=5),
], ids=["jittered-2d", "jittered-3d", "cloud-2000"])
def test_columnar_audit_matches_the_per_simplex_loops(pts):
    a = analyze_genericity(pts)
    table = metric_table_by_rows(a)
    flags = set()
    for b in (a, rescaled(a, 0.8, 0.2), rescaled(a, 1.5, 0.2)):
        record = lemma_audit(b)
        assert record.generic
        counts, rows = lemma_audit_by_loop(b, table)
        assert record.checks == counts
        got = record.simplices.columns
        assert list(zip(map(tuple, got["vertices"].tolist()), got["radius"].tolist(),
                        got["protection"].tolist(), got["thickness"].tolist(),
                        got["secure"].tolist())) == rows
        flags.update(got["secure"].tolist())

        cert = thickness_certificate(b)
        upsilon0, witnesses, worst, valid = thickness_certificate_by_loop(b, table)
        assert (cert.upsilon0, cert.min_thickness, cert.margin, cert.valid) == (
            upsilon0, worst, worst - upsilon0, valid)
        assert [(tuple(v), t, t >= upsilon0 - THICKNESS_SLACK)
                for w in cert.witnesses
                for v, t in zip(w.vertices.tolist(), w.thickness.tolist())] == witnesses
    assert flags == {True, False}

    assert measured_secure_params(a).upsilon0 == min(
        [1.0] + [table[s].thickness for s in map(tuple, a.classification.audited.tolist())])


class Shadow:
    """A module seen through some replaced attributes."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def test_audit_makes_one_altitude_svd_per_facet_and_no_spectrum(monkeypatch):
    a = analyze_genericity(uniform_points(2000, 2, seed=5))
    counts = {"spectrum": 0, "altitude": 0}

    def svd(x, *args, compute_uv=True, **kwargs):
        counts["altitude" if compute_uv else "spectrum"] += int(np.prod(np.shape(x)[:-2]))
        return np.linalg.svd(x, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(simplex, "np", Shadow(np, linalg=Shadow(np.linalg, svd=svd)))
    lemma_audit(a)
    # Every audited top is certified by the Gram test, and its altitudes
    # take one SVD per distinct edge; the safe edges take none.
    facets = {(p, q) for top in a.classification.audited.tolist()
              for p, q in combinations(top, 2)}
    assert counts == {"spectrum": 0, "altitude": len(facets)}
    assert len(facets) < 3 * len(a.classification.audited)


@pytest.mark.parametrize("pts", [
    grid_points(7, dim=2, jitter=0.2, seed=3),
    grid_points(5, dim=3, jitter=0.1, seed=2),
    grid_points(5, 2),
    grid_points(3, 3),
], ids=["jittered-2d", "jittered-3d", "lattice-2d", "lattice-3d"])
def test_region_stars_from_top_simplices_match_the_closure(pts):
    # Reference: close the whole complex, then take the vertex star for the
    # safe star and the one ring wider double star for the audited set.
    ps = PointSet(pts)
    base = delaunay_lifted(ps)
    cx = base.complex
    m = ps.dim
    rng = np.random.default_rng(5)
    centre = int(np.argmin(np.linalg.norm(pts - pts.mean(axis=0), axis=1)))
    regions = [(centre,), (0,), (0, ps.n - 1),
               tuple(sorted(rng.choice(ps.n, size=3, replace=False).tolist()))]
    for region in regions:
        touched = {v for s in cx.vertex_star(region).simplices() for v in s}
        double = cx.vertex_star(touched)
        _, star = _audit_star(ps, base, 1.0, region)
        tops = set(map(tuple, base.tops.tolist()))
        assert star.safe == cx.vertex_star(region)
        assert (list(map(tuple, star.audited.tolist()))
                == [s for s in double.simplices(m) if s in tops])
        assert np.array_equal(base.tops[star.rows], star.audited)


def test_analysis_of_10000_3d_points_runs_in_bounded_memory():
    pts = uniform_points(10000, 3, seed=5)
    _, peak = traced_peak(lambda: analyze_genericity(pts))
    # One (points x facets) depth table of this set is 19 MB; its blocks are
    # 512 KB.
    assert peak < 100e6


@pytest.mark.parametrize("pts", [grid_points(9, 3, 0.05, seed=1), uniform_points(4000, 2, seed=0)],
                         ids=["grid-3d", "cloud-2d"])
def test_analyze_pass_holds_one_block_of_tables_at_a_time(pts):
    # The whole pass, its results included. When a block counted the entries
    # of one table however many it held, built every Voronoi line and listed
    # the safe faces whole, it peaked at 4.5 and 4.4 MB traced.
    def analyze():
        analysis = analyze_genericity(pts)
        return lemma_audit(analysis), thickness_certificate(analysis)

    (audit, certificate), peak = traced_peak(analyze)
    assert audit.generic and certificate.valid
    assert peak < 3e6, peak
