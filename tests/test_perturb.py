"""Budgets, perturbation models, and the stability trial suite."""

import numpy as np
import pytest

from delgen.complexes import star_isomorphic
from delgen.datasets import grid_points
from delgen.delaunay import delaunay_lifted
from delgen.errors import NonGenericError, PreconditionError
from delgen.genericity import analyze_genericity
from delgen.metric import DisplacementField
from delgen.perturb import (
    PointPerturbation,
    cc_displacement_trial,
    make_point_perturbation,
    measured_secure_params,
    metric_stability_trial,
    point_stability_trial,
    protection_decay_trial,
    relaxation_trial,
    stability_budget,
    trial_batch,
)
from delgen.simplex import circumcenter

_CACHE: dict[str, tuple] = {}


def instance():
    """One audited jittered grid, shared across tests in this module."""
    if "a" not in _CACHE:
        pts = grid_points(9, dim=2, jitter=0.2, seed=3)
        analysis = analyze_genericity(pts)
        _CACHE["a"] = (pts, analysis, measured_secure_params(analysis))
    return _CACHE["a"]


def test_budget_arithmetic():
    b = stability_budget(0.25, 0.8, 0.05, 1.0, 0.05)
    assert b.rho_point == pytest.approx(0.25 * 0.8 * 0.05 / 18.0)
    assert b.rho_point == pytest.approx(5.5555555555e-4, rel=1e-9)
    assert b.rho_cc == pytest.approx(0.25 * 0.8 * 1.0 / 8.0)
    assert b.rho_metric_protect == pytest.approx(0.25 * 0.8 * 0.05 / 20.0)
    assert b.rho_metric == pytest.approx(0.25 * 0.8 * 0.05 / 36.0)
    assert b.rho_generic == pytest.approx(0.05**3 * 0.05 / 84.0)


def test_budget_saturated_parameters():
    b = stability_budget(1.0, 1.0, 2.0, 2.0, 1.0)
    assert b.rho_generic == pytest.approx(2.0 / 84.0)
    assert b.rho_cc == pytest.approx(0.25)
    assert b.rho_point == pytest.approx(2.0 / 18.0)


def test_budget_rejects_bad_inputs():
    with pytest.raises(PreconditionError):
        stability_budget(0.0, 0.5, 0.1, 1.0, 0.1)
    with pytest.raises(PreconditionError):
        stability_budget(0.5, 0.5, -0.1, 1.0, 0.1)
    with pytest.raises(PreconditionError):
        stability_budget(0.5, 0.5, np.nan, 1.0, 0.1)
    with pytest.raises(PreconditionError):
        stability_budget(0.5, 0.5, 2.0, 1.0, 0.1)
    with pytest.raises(PreconditionError):
        stability_budget(1.5, 0.5, 0.1, 1.0, 0.1)


def test_budget_ordering_sweep():
    rng = np.random.default_rng(33)
    for _ in range(100):
        u = float(rng.uniform(0.01, 1.0))
        mu = float(rng.uniform(0.01, 1.0))
        eps = float(rng.uniform(0.1, 5.0))
        delta = eps * float(rng.uniform(0.001, 1.0))
        nu = delta / eps
        b = stability_budget(u, mu, delta, eps, nu)
        assert b.rho_metric < b.rho_metric_protect < b.rho_point < b.rho_cc
        assert all(
            v > 0 for v in (b.rho_cc, b.rho_point, b.rho_metric_protect,
                            b.rho_metric, b.rho_generic)
        )


def test_measured_secure_params():
    _, analysis, p = instance()
    assert 0.0 < p.upsilon0 <= 1.0
    assert 0.0 < p.mu0 <= 1.0
    assert 0.0 < p.delta <= p.eps
    assert p.nu_tilde == analysis.protection.nu_tilde
    assert p.budget().rho_point > 0


def test_measured_params_reject_non_generic():
    a = analyze_genericity(grid_points(9, dim=2))
    with pytest.raises(NonGenericError):
        measured_secure_params(a)


def test_perturbation_zero_is_identity():
    pts, _, _ = instance()
    pert = make_point_perturbation(pts, 0.0, 7, "uniform")
    assert np.array_equal(pert.apply(), pts)
    assert pert.magnitudes.max() == 0.0


def test_perturbation_determinism_and_models():
    pts, analysis, p = instance()
    rho = p.budget().rho_point
    for model in ("uniform", "radial", "adversarial"):
        one = make_point_perturbation(pts, rho, 11, model, base=analysis.base)
        two = make_point_perturbation(pts, rho, 11, model, base=analysis.base)
        assert np.array_equal(one.apply(), two.apply())
        if model == "uniform":
            other = make_point_perturbation(pts, rho, 12, model, base=analysis.base)
            assert not np.array_equal(one.apply(), other.apply())
        moved = np.linalg.norm(one.apply() - pts, axis=1)
        assert moved.max() <= rho * (1 + 1e-9)
        if model in ("radial", "adversarial"):
            assert moved.min() == pytest.approx(rho, rel=1e-9)
    assert np.allclose(np.linalg.norm(one.directions, axis=1), 1.0)


def test_perturbation_rejects_large_rho():
    pts, analysis, _ = instance()
    half_gap = analysis.sampling.sparsity / 2.0
    with pytest.raises(PreconditionError):
        make_point_perturbation(pts, half_gap, 0)
    with pytest.raises(PreconditionError):
        make_point_perturbation(pts, -1e-3, 0)
    with pytest.raises(PreconditionError):
        make_point_perturbation(pts, 1e-3, 0, "sideways")
    with pytest.raises(PreconditionError, match="adversarial"):
        make_point_perturbation(pts, 1e-3, 0, "adversarial")


def test_scaled_family_shares_directions():
    pts, _, p = instance()
    pert = make_point_perturbation(pts, p.budget().rho_point, 3, "uniform")
    half = pert.scaled(0.5)
    assert half.rho == pytest.approx(pert.rho / 2.0)
    assert np.array_equal(half.directions, pert.directions)
    assert np.allclose(half.magnitudes, pert.magnitudes * 0.5)
    with pytest.raises(PreconditionError):
        pert.scaled(1.2)
    with pytest.raises(PreconditionError):
        pert.scaled(-0.1)


def test_cc_displacement_radial_equilateral():
    # Moving the vertices of an equilateral triangle radially away from the
    # centroid leaves the circumcentre fixed.
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    far = np.array([[5.0, 5.0], [-5.0, 5.0], [0.0, -7.0]])
    pts = np.vstack([tri, far])
    _, _, p = instance()
    centroid = tri.mean(axis=0)
    dirs = np.zeros_like(pts)
    dirs[:3] = (tri - centroid) / np.linalg.norm(tri - centroid, axis=1)[:, None]
    pert = PointPerturbation(rho=0.05, seed=0, model="radial", base=pts,
                             directions=dirs,
                             magnitudes=np.where(np.arange(6) < 3, 0.05, 0.0))
    verdict = cc_displacement_trial((0, 1, 2), pert, p)
    assert verdict.passed
    assert verdict.measured["displacement"] <= 1e-12
    c0, _ = circumcenter(tri)
    c1, _ = circumcenter(pert.apply()[:3])
    assert np.allclose(c0, c1, atol=1e-12)


def test_cc_displacement_budget_sweep():
    pts, analysis, p = instance()
    rho = p.budget().rho_cc
    for seed in range(5):
        pert = make_point_perturbation(pts, rho, seed, "uniform")
        for s in analysis.classification.audited:
            verdict = cc_displacement_trial(s, pert, p)
            assert verdict.passed and verdict.in_budget
            assert verdict.measured["margin"] > 0


def test_point_stability_all_models_in_budget():
    pts, analysis, p = instance()
    rho = p.budget().rho_point
    for model in ("uniform", "radial", "adversarial"):
        for seed in range(3):
            pert = make_point_perturbation(pts, rho, seed, model, base=analysis.base)
            verdict = point_stability_trial(analysis, pert)
            assert verdict.passed, (model, seed, verdict.counterexamples)
            assert verdict.in_budget
            assert verdict.measured["symmetric_difference"] == 0


def test_point_stability_scaled_family_monotone():
    pts, analysis, p = instance()
    pert = make_point_perturbation(pts, p.budget().rho_point, 9, "adversarial",
                                   base=analysis.base)
    for t in (1.0, 0.6, 0.25, 0.0):
        verdict = point_stability_trial(analysis, pert.scaled(t))
        assert verdict.passed and verdict.in_budget


def test_point_stability_reports_flips_honestly():
    pts, analysis, _ = instance()
    rho = 0.45 * analysis.sampling.sparsity
    pert = make_point_perturbation(pts, rho, 5, "adversarial", base=analysis.base)
    verdict = point_stability_trial(analysis, pert)
    assert not verdict.passed
    assert not verdict.in_budget
    assert verdict.counterexamples


def test_stability_verdict_is_symmetric():
    pts, analysis, p = instance()
    pert = make_point_perturbation(pts, p.budget().rho_point, 2, "uniform")
    perturbed = delaunay_lifted(pert.apply())
    mapping = {v: v for v in analysis.base.complex.vertex_ids()}
    region = analysis.classification.region
    fwd = star_isomorphic(analysis.base.complex, perturbed.complex, region, mapping)
    back = star_isomorphic(perturbed.complex, analysis.base.complex, region, mapping)
    assert fwd.isomorphic == back.isomorphic


def test_relaxation_trial_at_budget():
    _, analysis, p = instance()
    verdict = relaxation_trial(analysis, p.budget().rho_point)
    assert verdict.passed and verdict.in_budget and verdict.certified
    assert verdict.measured == {"extra": 0, "missing": 0}


def test_protection_decay_point_mode():
    pts, analysis, p = instance()
    pert = make_point_perturbation(pts, p.budget().rho_point, 4, "uniform")
    verdict = protection_decay_trial(analysis, pert)
    assert verdict.name == "protection_decay_point"
    assert verdict.passed and verdict.in_budget
    assert verdict.measured["missing"] == 0
    assert verdict.measured["worst_residual"] > -analysis.tolerance
    assert verdict.measured["decay"] == pytest.approx(
        18.0 * pert.rho / (p.upsilon0 * p.mu0)
    )


def test_protection_decay_metric_mode():
    _, analysis, p = instance()
    amp = p.budget().rho_metric_protect / 2.0
    field = DisplacementField(2, amp, seed=6)
    verdict = protection_decay_trial(analysis, field=field)
    assert verdict.name == "protection_decay_metric"
    assert verdict.passed and verdict.in_budget
    assert verdict.measured["decay"] == pytest.approx(
        20.0 * 2.0 * amp / (p.upsilon0 * p.mu0)
    )


def test_protection_decay_needs_exactly_one_mode():
    pts, analysis, p = instance()
    pert = make_point_perturbation(pts, p.budget().rho_point, 4, "uniform")
    field = DisplacementField(2, 1e-6, seed=0)
    with pytest.raises(PreconditionError):
        protection_decay_trial(analysis, pert, field=field)
    with pytest.raises(PreconditionError):
        protection_decay_trial(analysis)


def test_trials_read_the_region_of_the_analysis():
    # One explicit vertex of a 26-vertex deep interior: every trial audits
    # the star of that vertex alone, whichever branch it takes.
    a = analyze_genericity(grid_points(12, 2, 0.2, seed=3), [40])
    b = measured_secure_params(a).budget()
    safe_tops = [s for s in a.classification.safe.simplices(2) if s in a.base.balls]
    pert = make_point_perturbation(a.points, b.rho_point, 4, "uniform")
    field = DisplacementField(2, b.rho_metric_protect / 2.0, seed=6)
    for v in (protection_decay_trial(a, pert), protection_decay_trial(a, field=field)):
        assert v.passed and v.measured["simplices"] == len(safe_tops) > 0
    assert point_stability_trial(a, pert).passed
    assert relaxation_trial(a, b.rho_point).passed
    assert metric_stability_trial(a, DisplacementField(2, b.rho_metric / 2.0, seed=6)).passed


def test_metric_stability_both_modes():
    _, analysis, p = instance()
    for mode, budget in (("thm", p.budget().rho_metric),
                         ("cor", p.budget().rho_generic)):
        field = DisplacementField(2, budget / 2.0, seed=8)
        verdict = metric_stability_trial(analysis, field, budget_mode=mode)
        assert verdict.name == f"metric_stability_{mode}"
        assert verdict.passed and verdict.in_budget and verdict.certified
        assert verdict.measured["undecided"] == 0
    with pytest.raises(PreconditionError):
        metric_stability_trial(analysis, field, budget_mode="corollary")


def test_trial_batch_grid_and_determinism():
    _, analysis, _ = instance()
    kwargs = dict(budgets=[0.5, 1.0], seeds=2,
                  models=["uniform", "relaxation", "metric"], root_seed=3)
    one = trial_batch(analysis, **kwargs)
    two = trial_batch(analysis, **kwargs)
    assert len(one) == 3 * 2 * 2
    assert [v.to_json() for v in one] == [v.to_json() for v in two]
    assert all(v.passed and v.in_budget for v in one)
    names = [v.name for v in one]
    assert names == sorted(names, key=lambda n: {"metric_stability_thm": 0,
                                                 "relaxation": 1,
                                                 "point_stability": 2}[n])


def test_trial_batch_out_of_budget_is_informative():
    _, analysis, _ = instance()
    verdicts = trial_batch(analysis, budgets=[2.0], seeds=1,
                           models=["uniform"], root_seed=0)
    assert len(verdicts) == 1
    assert not verdicts[0].in_budget


def test_trial_batch_validation():
    _, analysis, _ = instance()
    with pytest.raises(PreconditionError):
        trial_batch(analysis, budgets=[1.0], seeds=1, models=["sideways"])
    with pytest.raises(PreconditionError):
        trial_batch(analysis, budgets=[-1.0], seeds=1, models=["uniform"])


def test_trial_batch_runs_relaxation_once_per_fraction(monkeypatch):
    import delgen.perturb as perturb

    _, analysis, _ = instance()
    calls = []
    real = perturb.relaxed_delaunay
    monkeypatch.setattr(perturb, "relaxed_delaunay",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    verdicts = trial_batch(analysis, budgets=[0.5, 1.0], seeds=3,
                           models=["relaxation"], root_seed=1)
    assert len(calls) == 2
    assert len(verdicts) == 6
    docs = [v.to_json() for v in verdicts]
    assert docs[0] == docs[1] == docs[2] and docs[3] == docs[4] == docs[5]
    assert docs[0]["budget_used"] < docs[3]["budget_used"]


def test_trial_batch_rejects_an_empty_batch():
    _, analysis, _ = instance()
    for kwargs in (dict(seeds=0, models=["uniform"]), dict(seeds=1, models=[])):
        with pytest.raises(PreconditionError, match="empty trial batch"):
            trial_batch(analysis, budgets=[1.0], **kwargs)


def scalar_adversarial_directions(pts, base):
    """Reference form: per point, the first ball with the least sphere gap."""
    dirs = np.zeros_like(pts)
    for i, p in enumerate(pts):
        best = None
        for s, ball in base.balls.items():
            if i in s:
                continue
            gap = abs(np.linalg.norm(p - ball.center) - ball.radius)
            if best is None or gap < best[0]:
                best = (gap, ball.center)
        d = (best[1] if best is not None else p) - p
        norm = np.linalg.norm(d)
        dirs[i] = d / norm if norm > 0 else np.eye(pts.shape[1])[0]
    return dirs


@pytest.mark.parametrize("pts", [grid_points(7, 2), grid_points(9, 2, 0.2, seed=3),
                                 grid_points(4, 3), grid_points(4, 3, 0.1, seed=2)],
                         ids=["lattice-2d", "jittered-2d", "lattice-3d", "jittered-3d"])
def test_adversarial_directions_match_the_scalar_form(pts):
    base = delaunay_lifted(pts)
    pert = make_point_perturbation(pts, 1e-3, 0, "adversarial", base=base)
    assert np.allclose(pert.directions, scalar_adversarial_directions(pts, base),
                       rtol=0, atol=1e-12)


def test_adversarial_directions_computed_once_per_batch(monkeypatch):
    import delgen.perturb as perturb

    _, analysis, _ = instance()
    calls = []
    real = perturb._adversarial_directions
    monkeypatch.setattr(perturb, "_adversarial_directions",
                        lambda *a: calls.append(1) or real(*a))
    verdicts = trial_batch(analysis, budgets=[0.5, 1.0], seeds=2,
                           models=["adversarial"], root_seed=2)
    assert len(calls) == 1 and len(verdicts) == 4
