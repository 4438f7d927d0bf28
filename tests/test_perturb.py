"""Budgets, perturbation models, and the stability trial suite."""

import json
import time

import numpy as np
import pytest

from conftest import traced_peak
from delgen.complexes import star_difference, star_isomorphic
from delgen.datasets import grid_points, uniform_points
from delgen.delaunay import PointSet, delaunay_lifted
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
    rho = p.budget().rho_point
    for t in (1.0, 0.6, 0.25, 0.0):
        pert = make_point_perturbation(pts, t * rho, 9, "adversarial", base=analysis.base)
        verdict = point_stability_trial(analysis, pert)
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


def test_relaxation_trial_builds_no_complex_when_the_stars_agree(monkeypatch):
    import delgen.complexes as complexes

    _, analysis, p = instance()
    analysis.classification  # built before counting
    built = []
    init = complexes.SimplicialComplex.__init__
    monkeypatch.setattr(complexes.SimplicialComplex, "__init__",
                        lambda self, simplices: built.append(1) or init(self, simplices))
    verdict = relaxation_trial(analysis, p.budget().rho_point)
    assert verdict.passed and not built


def test_failed_relaxation_reports_the_star_difference():
    import delgen.perturb as perturb

    a = analyze_genericity(grid_points(11, 2, 0.2, seed=3))
    rho = 80 * measured_secure_params(a).budget().rho_point
    verdict = relaxation_trial(a, rho)
    relaxed = perturb.relaxed_delaunay(a.points, rho, a.classification.region,
                                       eps=a.sampling.epsilon, base=a.base)
    want = star_difference(a.classification.safe, relaxed.complex)
    assert not verdict.passed and len(verdict.counterexamples) == 2
    assert verdict.measured == {"extra": len(want.extra), "missing": len(want.missing)}
    assert verdict.counterexamples == tuple(sorted(want.extra + want.missing))
    top = relaxed.sizes == 3
    assert perturb._star_report(a, relaxed.members[top], a.classification.region,
                                relaxed.members[~top]) == want


def test_star_report_checks_every_lower_member():
    import delgen.perturb as perturb

    _, analysis, _ = instance()
    cls = analysis.classification
    tops = cls.audited[cls.meets]
    v = cls.region[0]
    face = tops[np.isin(tops, v).any(axis=1)][0, :2]
    agree = perturb._star_report(analysis, tops, cls.region, np.array([[*face, face[0]]]))
    assert agree.isomorphic
    # An edge from the region to a vertex outside the safe star.
    w = next(u for u in range(analysis.points.n) if u not in tops)
    edge = tuple(sorted((v, w)))
    report = perturb._star_report(analysis, tops, cls.region, np.array([[*edge, edge[0]]]))
    assert report.extra == tuple(sorted([edge, (w,)])) and report.missing == ()


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


def test_protection_decay_matches_the_per_simplex_loop():
    # Reference: each safe top looked up by simplex in the perturbed
    # complex; the larger moves drop some of them.
    _, analysis, p = instance()
    cls = analysis.classification
    before = dict(zip(map(tuple, cls.audited.tolist()), analysis.protection.per_simplex.tolist()))
    safe_tops = cls.safe.simplices(analysis.points.dim)
    gap = analysis.points.min_gap()
    dropped = False
    for frac, model in ((0.01, "uniform"), (0.3, "uniform"), (0.3, "radial")):
        pert = make_point_perturbation(analysis.points, frac * gap, 7, model)
        verdict = protection_decay_trial(analysis, pert)
        perturbed = delaunay_lifted(pert.apply())
        after = dict(zip(map(tuple, perturbed.tops.tolist()), perturbed.protections.tolist()))
        decay = 18.0 * pert.rho / (p.upsilon0 * p.mu0)
        missing = [s for s in safe_tops if s not in after]
        residuals = [after[s] - (before[s] - decay) for s in safe_tops if s in after]
        assert verdict.counterexamples == tuple(missing)
        assert verdict.measured["worst_residual"] == min(residuals)
        dropped |= bool(missing)
    assert dropped


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
    tops = set(map(tuple, a.base.tops.tolist()))
    safe_tops = [s for s in a.classification.safe.simplices(2) if s in tops]
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


def count_star_candidates(monkeypatch):
    """Record the reach of every ``_star_candidates`` call; the window
    engine (``delaunay._Windows``) is its one caller."""
    import delgen.delaunay as delaunay

    reaches = []
    real = delaunay._star_candidates
    counted = (lambda ps, region, reach, sizes:
               reaches.append(reach) or real(ps, region, reach, sizes))
    monkeypatch.setattr(delaunay, "_star_candidates", counted)
    return reaches


def test_trial_batch_builds_candidates_once_per_batch(monkeypatch):
    _, analysis, p = instance()
    reaches = count_star_candidates(monkeypatch)
    verdicts = trial_batch(analysis, budgets=[0.5, 1.0], seeds=3,
                           models=["relaxation"], root_seed=1)
    assert len(reaches) == 1
    assert len(verdicts) == 6
    docs = [v.to_json() for v in verdicts]
    assert docs[0] == docs[1] == docs[2] and docs[3] == docs[4] == docs[5]
    assert docs[0]["budget_used"] < docs[3]["budget_used"]
    # One metric window build, at the largest reach, for four trials.
    reaches.clear()
    verdicts = trial_batch(analysis, budgets=[1.0, 0.5], seeds=2,
                           models=["metric"], root_seed=1)
    b = p.budget()
    assert reaches == [2.0 * p.eps + 4.0 * b.rho_metric + analysis.points.tolerance()]
    assert len(verdicts) == 4 and all(v.passed and v.certified for v in verdicts)
    reaches.clear()
    trial_batch(analysis, budgets=[1.0, 0.5], seeds=2, models=["metric", "relaxation"])
    assert len(reaches) == 1


@pytest.mark.parametrize("case", [(11, 2, 0.2, 1), (11, 2, 0.2, 2), (11, 2, 0.2, 3),
                                  (9, 3, 0.05, 1)])
def test_trial_batch_equals_independent_trials(case):
    import delgen.perturb as perturb

    side, dim, jitter, seed = case
    a = analyze_genericity(grid_points(side, dim, jitter, seed=seed))
    b = measured_secure_params(a).budget()
    # Repeated and unordered fractions; equal slacks 0.0 and -0.0 keep
    # their own budget_used; seed 3 fails at 80 x rho_point.
    fractions = [1.0, 0.5, 3.0, 0.5] + {(11, 2, 0.2, 1): [0.0, -0.0],
                                        (11, 2, 0.2, 3): [80.0]}.get(case, [])
    models = ["uniform", "relaxation", "radial", "metric", "adversarial"]
    got = [v.to_json() for v in trial_batch(a, fractions, 2, models, root_seed=seed)]
    want = []
    for mi, model in enumerate(sorted(models)):
        for bi, frac in enumerate(fractions):
            if model == "relaxation":
                want.extend([relaxation_trial(a, frac * b.rho_point).to_json()] * 2)
            elif model == "metric":
                want.extend(metric_stability_trial(a, DisplacementField(
                    dim, frac * b.rho_metric / 2.0, perturb._trial_seed(seed, mi, bi, si)))
                    .to_json() for si in range(2))
            else:
                runs = 2 if model == "uniform" else 1
                verdicts = [point_stability_trial(a, make_point_perturbation(
                    a.points, frac * b.rho_point, perturb._trial_seed(seed, mi, bi, si), model,
                    base=a.base)).to_json() for si in range(runs)]
                want.extend(verdicts * (2 // runs))
    # As JSON text, where -0.0 and 0.0 differ.
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    if case == (11, 2, 0.2, 3):
        # At 80 x rho_point the relaxed star and the adversarial copies break.
        failed = {(v["trial"], v.get("model")): v for v in got
                  if v["budget_used"] == 80.0 * b.rho_point}
        assert not failed["relaxation", None]["passed"]
        assert len(failed["relaxation", None]["counterexamples"]) == 2
        assert not failed["point_stability", "adversarial"]["passed"]
        assert failed["point_stability", "uniform"]["passed"]


def test_trial_batch_builds_few_whole_set_triangulations(monkeypatch):
    # Bounded work: the 8 point trials and 4 pullback routes of a batch each
    # built the whole perturbed Delaunay complex with qhull (12 builds);
    # the stacked check of the base triangulation keeps it on every copy.
    import delgen.delaunay as delaunay

    a = analyze_genericity(grid_points(41, 2, 0.2, seed=3))
    a.classification  # built before counting
    calls = []
    real = delaunay._lifted_top_simplices
    monkeypatch.setattr(delaunay, "_lifted_top_simplices",
                        lambda pts: calls.append(1) or real(pts))
    verdicts = trial_batch(a, [0.5, 1.0], 2,
                           ["uniform", "radial", "adversarial", "relaxation", "metric"])
    assert len(verdicts) == 20 and all(v.passed and v.certified for v in verdicts)
    assert len(calls) <= 2


def test_trial_batch_runs_one_newton_stack_for_every_metric_field(monkeypatch):
    import delgen.metric as metric

    _, analysis, _ = instance()
    searches, starts = [], []
    search, stack = metric._metric_circumcenters, metric._newton_stack
    monkeypatch.setattr(metric, "_metric_circumcenters",
                        lambda *a, **k: searches.append(1) or search(*a, **k))

    def counted(*args):
        # The first pass starts every row at its Euclidean circumcentre,
        # the seed centre (the second-to-last argument) it is held to.
        starts.append(np.array_equal(args[0], args[-2]))
        return stack(*args)

    monkeypatch.setattr(metric, "_newton_stack", counted)
    verdicts = trial_batch(analysis, budgets=[0.5, 1.0], seeds=2, models=["metric"])
    assert len(verdicts) == 4 and all(v.passed and v.certified for v in verdicts)
    assert len(searches) == 1 and starts.count(True) == 1


def test_trial_batch_checks_every_copy_in_one_circumball_pass(monkeypatch):
    import delgen.delaunay as delaunay
    import delgen.perturb as perturb

    _, analysis, _ = instance()
    inside, calls = [], []
    solve, check = delaunay._batched_circumballs, perturb._kept_triangulations
    monkeypatch.setattr(delaunay, "_batched_circumballs",
                        lambda *a: calls.append(bool(inside)) or solve(*a))

    def counted(*args):
        inside.append(1)
        try:
            return check(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(perturb, "_kept_triangulations", counted)
    verdicts = trial_batch(analysis, budgets=[0.5, 1.0], seeds=2,
                           models=["uniform", "radial", "adversarial", "metric"])
    assert len(verdicts) == 16 and all(v.passed for v in verdicts)
    assert calls.count(True) == 1


def test_relaxed_first_tries_rarely_reach_the_radius_query(monkeypatch):
    import delgen.delaunay as delaunay

    # A seed or a known ball centre is equidistant from up to m+1 points, so
    # a list of two nearest points sends it on to the radius query.
    listed, widened = [], []
    gaps, widen = delaunay._gaps, delaunay._widened
    first = []  # true while the first gap evaluation of a call runs

    def counted_gaps(*args):
        first.append(not first)
        try:
            return gaps(*args)
        finally:
            first[-1] = False

    def counted(tree, centres, listing, need):
        out = widen(tree, centres, listing, need)
        if first and first[-1]:
            listed.append(len(centres))
            widened.append(int(out[3].sum()))
        return out

    monkeypatch.setattr(delaunay, "_gaps", counted_gaps)
    monkeypatch.setattr(delaunay, "_widened", counted)
    for seed in range(1, 9):
        a = analyze_genericity(grid_points(11, 2, 0.2, seed=seed))
        b = measured_secure_params(a).budget()
        first.clear()
        delaunay.relaxed_delaunay(a.points, b.rho_point, a.classification.region,
                                  eps=a.sampling.epsilon, base=a.base)
    assert sum(listed) > 1000
    assert sum(widened) <= 0.05 * sum(listed)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_trial_batch_checks_fractions_before_any_candidate(monkeypatch, bad):
    _, analysis, _ = instance()
    reaches = count_star_candidates(monkeypatch)
    for models in (["relaxation"], ["metric"], ["adversarial", "metric", "relaxation"]):
        with pytest.raises(PreconditionError, match="bad budget fraction"):
            trial_batch(analysis, budgets=[1.0, bad], seeds=1, models=models)
    assert reaches == []


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
        for s, centre, radius in zip(base.tops.tolist(), base.centres, base.radii):
            if i in s:
                continue
            gap = abs(np.linalg.norm(p - centre) - radius)
            if best is None or gap < best[0]:
                best = (gap, centre)
        d = (best[1] if best is not None else p) - p
        norm = np.linalg.norm(d)
        dirs[i] = d / norm if norm > 0 else np.eye(pts.shape[1])[0]
    return dirs


@pytest.mark.parametrize("pts", [grid_points(7, 2), grid_points(9, 2, 0.2, seed=3),
                                 grid_points(4, 3), grid_points(4, 3, 0.1, seed=2),
                                 uniform_points(200, 2, seed=4), uniform_points(150, 3, seed=4)],
                         ids=["lattice-2d", "jittered-2d", "lattice-3d", "jittered-3d",
                              "cloud-2d", "cloud-3d"])
def test_adversarial_directions_match_the_scalar_form(pts, monkeypatch):
    import delgen.hull as hull
    import delgen.perturb as perturb

    base = delaunay_lifted(pts)
    if len(pts) > 100:
        # The clouds' hulls carry sliver balls, far larger than the rest.
        assert base.radii.max() > 20.0 * np.median(base.radii)
    rho = 0.25 * PointSet(pts).min_gap()
    pert = make_point_perturbation(pts, rho, 0, "adversarial", base=base)
    assert np.allclose(pert.directions, scalar_adversarial_directions(pts, base),
                       rtol=0, atol=1e-12)
    # One block of entries per pass, and blocks of a ball or two, give the
    # same bits as the default search.
    for block in (1 << 40, 7):
        monkeypatch.setattr(hull, "BLOCK", block)
        dirs = perturb._adversarial_directions(pts, base)
        assert np.array_equal(dirs.view(np.uint64), pert.directions.view(np.uint64))


def test_adversarial_directions_of_20000_points_in_bounded_memory():
    import delgen.perturb as perturb

    ps = PointSet(uniform_points(20000, 2, seed=3))
    base = delaunay_lifted(ps)
    start = time.perf_counter()
    _, peak = traced_peak(lambda: perturb._adversarial_directions(ps, base))
    elapsed = time.perf_counter() - start
    # A (points x balls) table of 20,000 points holds 8 * 10^8 entries.
    assert peak < 64e6
    assert elapsed < 5.0


def test_adversarial_search_on_a_small_grid_holds_less_than_its_whole_table():
    import delgen.perturb as perturb

    # The (points x balls x m) difference table and (points x balls) gap
    # table of the 121-point grid, held whole, would take the bound below.
    a = analyze_genericity(grid_points(11, 2, 0.2, seed=1))
    ps, base = a.points, a.base
    ps.tree  # built before tracing
    _, peak = traced_peak(lambda: perturb._adversarial_directions(ps, base))
    assert peak < 8 * ps.n * len(base.tops) * (ps.dim + 1)


def test_adversarial_directions_of_a_3d_grid_in_bounded_memory():
    import delgen.perturb as perturb

    # Each shell pass lists its balls' entries a block at a time; listed in
    # blocks of balls, the 1,331-point grid took 37 MB traced.
    a = analyze_genericity(grid_points(11, 3, 0.05, seed=1))
    ps, base = a.points, a.base
    ps.tree  # built before tracing
    _, peak = traced_peak(lambda: perturb._adversarial_directions(ps, base))
    assert peak < 16e6, peak


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


def test_seed_free_point_models_run_once_per_fraction(monkeypatch):
    import delgen.perturb as perturb

    _, analysis, _ = instance()
    b = measured_secure_params(analysis).budget()
    # The full budget, and a fraction large enough to break the star.
    fractions = [1.0, 0.3 * analysis.points.min_gap() / b.rho_point]
    # One perturbation per (model, fraction), whatever the seed count.
    calls = []
    make = perturb.make_point_perturbation
    monkeypatch.setattr(perturb, "make_point_perturbation",
                        lambda *a, **k: calls.append(a[3]) or make(*a, **k))
    verdicts = trial_batch(analysis, budgets=fractions, seeds=3,
                           models=["radial", "adversarial"], root_seed=4)
    assert sorted(calls) == ["adversarial"] * 2 + ["radial"] * 2 and len(verdicts) == 12
    # Reference: one run per seed, each with its own derived seed.
    dirs = perturb._adversarial_directions(analysis.points.points, analysis.base)
    want = [point_stability_trial(analysis, make(
                analysis.points, frac * b.rho_point, perturb._trial_seed(4, mi, bi, si), model,
                directions=dirs))
            for mi, model in enumerate(["adversarial", "radial"])
            for bi, frac in enumerate(fractions) for si in range(3)]
    assert verdicts == want
    assert {v.passed for v in verdicts} == {True, False}


def test_point_trial_matches_the_closed_complex_reference():
    # Reference: close both whole complexes, then compare the vertex stars.
    _, analysis, _ = instance()
    region = analysis.classification.region
    want = set(analysis.base.complex.vertex_star(region).simplices())
    gap = analysis.points.min_gap()
    passed = []
    for frac, model in ((0.01, "uniform"), (0.1, "adversarial"), (0.3, "uniform"),
                        (0.3, "radial")):
        pert = make_point_perturbation(analysis.points, frac * gap, 7, model,
                                       base=analysis.base)
        verdict = point_stability_trial(analysis, pert)
        got = set(delaunay_lifted(pert.apply()).complex.vertex_star(region).simplices())
        assert verdict.counterexamples == tuple(sorted(want ^ got))
        assert verdict.measured["missing"] == len(want - got)
        assert verdict.measured["extra"] == len(got - want)
        passed.append(verdict.passed)
    assert True in passed and False in passed


def test_trials_never_read_the_closed_delaunay_complex(monkeypatch):
    from delgen import delaunay, metric
    from delgen.genericity import lemma_audit, thickness_certificate

    # Results are columns: no stage can build or read a per-simplex ball.
    assert not hasattr(delaunay, "Ball")
    for result in (delaunay.DelaunayResult, metric.MetricDelaunayResult):
        assert not hasattr(result, "balls")

    def closed(self):
        raise AssertionError("a closed Delaunay complex was read")

    for result in (delaunay.DelaunayResult, metric.MetricDelaunayResult):
        monkeypatch.setattr(result, "complex", property(closed))
    analysis = analyze_genericity(grid_points(11, 2, 0.2, seed=1))
    thickness_certificate(analysis)
    lemma_audit(analysis)
    models = ["uniform", "radial", "adversarial", "relaxation", "metric"]
    verdicts = trial_batch(analysis, budgets=[0.5], seeds=1, models=models)
    b = measured_secure_params(analysis).budget()
    pert = make_point_perturbation(analysis.points, 0.5 * b.rho_point, 1, "uniform")
    verdicts += [protection_decay_trial(analysis, pert),
                 protection_decay_trial(analysis, field=DisplacementField(
                     2, 0.5 * b.rho_metric_protect / 2.0, seed=1))]
    assert len(verdicts) == 7
    assert all(v.passed for v in verdicts)
