"""Perturbation generators and experimental stability certification.

The quantitative stability results all have the same shape: measure the
protection, thickness, and sampling parameters of a point set, convert them
into a perturbation budget, perturb inside the budget, and check that the
predicted conclusion (bounded circumcentre drift, residual protection, star
isomorphism, relaxation equality, metric star equality) actually holds. Each
trial returns a verdict carrying the measured quantities so out of budget
runs stay informative rather than being rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.spatial import cKDTree

from .delaunay import (_TREE_RTOL, DelaunayResult, RelaxedResult, _ball_entries,
                       _containing_tops, _kept_triangulations, _least, _owned, _relaxed_stars,
                       _Windows, as_point_set, delaunay_lifted, relaxed_delaunay)
from .complexes import (IsoReport, SimplicialComplex, _holds_any, row_keys, sorted_rows,
                        star_difference)
from .errors import NonGenericError, PreconditionError
from .genericity import GenericityAnalysis
from .hull import blocks
from .metric import (DisplacementField, MetricModel, _metric_delaunays, _newton_reach,
                     metric_delaunay)
from .simplex import Simplex, _norms, circumcenter


@dataclass(frozen=True)
class StabilityBudget:
    """The five perturbation budgets implied by the measured parameters."""

    rho_cc: float
    rho_point: float
    rho_metric_protect: float
    rho_metric: float
    rho_generic: float


def stability_budget(upsilon0: float, mu0: float, delta: float, eps: float,
                     nu_tilde: float) -> StabilityBudget:
    """Evaluate the perturbation budgets from certified parameters.

    All inputs must be positive, delta must not exceed eps, and the three
    dimensionless parameters must not exceed one.
    """
    vals = dict(upsilon0=upsilon0, mu0=mu0, delta=delta, eps=eps, nu_tilde=nu_tilde)
    for name, v in vals.items():
        if not (np.isfinite(v) and v > 0):
            raise PreconditionError(f"{name} must be positive, got {v!r}")
    if delta > eps * (1 + 1e-12):
        raise PreconditionError("delta must not exceed eps")
    for name in ("upsilon0", "mu0", "nu_tilde"):
        if vals[name] > 1 + 1e-12:
            raise PreconditionError(f"{name} must not exceed one, got {vals[name]!r}")
    um = upsilon0 * mu0
    return StabilityBudget(
        rho_cc=um * eps / 8.0,
        rho_point=um * delta / 18.0,
        rho_metric_protect=um * delta / 20.0,
        rho_metric=um * delta / 36.0,
        rho_generic=nu_tilde**3 * delta / 84.0,
    )


@dataclass(frozen=True)
class SecureParams:
    """Certified parameters under which the audited simplices are secure."""

    upsilon0: float
    mu0: float
    delta: float
    eps: float
    nu_tilde: float

    def budget(self) -> StabilityBudget:
        return stability_budget(self.upsilon0, self.mu0, self.delta, self.eps,
                                self.nu_tilde)


def measured_secure_params(analysis: GenericityAnalysis) -> SecureParams:
    """Tightest secure parameters measured from an audited point set.

    Thickness floor over the audited top simplices, the global separation
    ratio, and the audited protection; the dimensionless values are clamped
    to one so the budget formulas stay in their stated domain.
    """
    worst = min(1.0, float(analysis.audited_metrics.thickness.min()))
    eps = analysis.sampling.epsilon
    delta = min(analysis.protection.delta_global, eps)
    if delta <= 0:
        raise NonGenericError("point set is not generic, no secure parameters")
    return SecureParams(
        upsilon0=worst,
        mu0=min(analysis.sampling.mu0, 1.0),
        delta=delta,
        eps=eps,
        nu_tilde=analysis.protection.nu_tilde,
    )


# -- perturbations ---------------------------------------------------------


@dataclass(frozen=True)
class PointPerturbation:
    """A bounded relocation of every point, kept below half the sparsity:
    each point moves by its magnitude along its unit direction."""

    rho: float
    seed: int
    model: str
    base: np.ndarray
    directions: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.magnitudes.size and self.magnitudes.max() > self.rho * (1 + 1e-12):
            raise PreconditionError("displacement exceeds the declared radius")

    def apply(self) -> np.ndarray:
        return self.base + self.directions * self.magnitudes[:, None]


def _unit_rows(v: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    out = np.zeros_like(v)
    ok = norms[:, 0] > 0
    out[ok] = v[ok] / norms[ok]
    out[~ok, 0] = 1.0
    return out


def _shell_gaps(pts: np.ndarray, base: DelaunayResult, todo: np.ndarray, tree: cKDTree,
                width: float):
    """Least sphere gap of each point ``todo[j]`` (``tree`` holds their
    coordinates) among the balls whose shell of ``width`` about the sphere
    holds it, and the first ball in row order with that gap; inf and
    len(base.tops) where there is none. The entries of each ball are
    counted first, then listed in blocks of balls of about one block of
    entries (``hull.blocks``), in row order."""
    count, m = base.tops.shape[0], pts.shape[1]
    least, first = np.full(todo.size, np.inf), np.full(todo.size, count)
    # Padded past the tree's rounding, so every point whose gap measured
    # here is at most ``width`` is listed.
    radii = (base.radii + width) * (1.0 + 4.0 * _TREE_RTOL)
    ends = np.cumsum(tree.query_ball_point(base.centres, radii, return_length=True))
    # Each (point, ball) entry holds m differences and a gap at once.
    starts = [b.start for b in blocks(int(ends[-1]), m + 1)]
    cuts = np.unique([0, *np.searchsorted(ends, starts, side="right"), count])
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        balls, local = _ball_entries(tree, base.centres[lo:hi], radii[lo:hi])
        balls += lo
        ids = todo[local]
        # Row times column (``simplex._norms``) is the dot kernel np.linalg.norm
        # uses on a single vector, so every gap, and so every tie, matches
        # the scalar form.
        gaps = np.abs(_norms(pts.take(ids, axis=0) - base.centres.take(balls, axis=0))
                      - base.radii[balls])
        gaps[_owned(base.tops.take(balls, axis=0), ids)] = np.inf
        low = _least(gaps, local, todo.size)
        row = np.full(todo.size, count)
        at = gaps == low[local]
        np.minimum.at(row, local[at], balls[at])
        # Earlier blocks hold earlier rows, so a tie keeps the earlier ball.
        better = low < least
        least[better], first[better] = low[better], row[better]
    return least, first


def _adversarial_directions(points, base: DelaunayResult) -> np.ndarray:
    """Unit direction from each point to the centre of the first ball, in the
    complex's row order, of least sphere gap |distance - radius| among the
    balls of simplices without the point; the first unit vector when there
    is none.

    A Delaunay ball is empty, so the points within w of its sphere are those
    within r + w of its centre: a radius query on the KD-tree (Bentley,
    *Multidimensional binary search trees used for associative searching*,
    1975) finds them. A point's least gap is at most its distance to a
    neighbour that is a vertex of a top without it, which its nearest
    neighbour almost always is. So each pass builds a tree of the points
    still open and takes w at the upper decile of their distances to their
    nearest open neighbours, plus the tolerance so that exact ties at the
    decile count. It queries every ball's shell (:func:`_shell_gaps`) and
    settles each point whose least gap found is at most w: every ball with
    a gap up to w was found. The others go on to the next pass. The last
    pass, once one point is left or a pass settles none, has infinite
    width: it lists every ball for every point left and settles them all.
    """
    ps = as_point_set(points)
    pts, count = ps.points, len(base.tops)
    first = np.full(ps.n, count)
    todo, tree, stuck = np.arange(ps.n), ps.tree, False
    while todo.size:
        width = np.inf
        if todo.size > 1 and not stuck:
            near = tree.query(tree.data, k=2)[0][:, 1]
            width = float(np.quantile(near, 0.9)) + base.tolerance
        least, row = _shell_gaps(pts, base, todo, tree, width)
        settled = least <= width
        first[todo[settled]] = row[settled]
        todo, stuck = todo[~settled], not settled.any()
        tree = cKDTree(pts[todo])
    targets = pts.copy()
    hit = first < count
    targets[hit] = base.centres[first[hit]]
    return _unit_rows(targets - pts)


def make_point_perturbation(points, rho: float, seed: int, model: str = "uniform",
                            *, base=None, directions=None) -> PointPerturbation:
    """Deterministic bounded perturbation of a point set.

    Models: ``uniform`` draws displacements uniformly from the rho ball,
    ``radial`` moves every point exactly rho outward from the centroid, and
    ``adversarial`` moves every point exactly rho toward the boundary of the
    nearest Delaunay sphere of a simplex not containing it, which attacks
    the protection margins directly; it reads them from ``base``, the
    Delaunay complex of the points, unless ``directions`` gives the
    adversarial directions already computed.
    """
    ps = as_point_set(points)
    if rho < 0:
        raise PreconditionError("rho must be nonnegative")
    if rho >= ps.min_gap() / 2.0 and rho > 0:
        raise PreconditionError("rho must stay below half the sparsity")
    rng = np.random.default_rng(seed)
    n, m = ps.n, ps.dim
    if model == "uniform":
        dirs = _unit_rows(rng.normal(size=(n, m)))
        mags = rho * rng.uniform(size=n) ** (1.0 / m)
    elif model == "radial":
        centroid = ps.points.mean(axis=0)
        dirs = _unit_rows(ps.points - centroid)
        mags = np.full(n, rho)
    elif model == "adversarial":
        if directions is None:
            if base is None:
                raise PreconditionError("the adversarial model needs base or directions")
            directions = _adversarial_directions(ps, base)
        dirs = directions
        mags = np.full(n, rho)
    else:
        raise PreconditionError(f"unknown perturbation model {model!r}")
    if rho == 0:
        mags = np.zeros(n)
    return PointPerturbation(rho=float(rho), seed=int(seed), model=model,
                             base=ps.points, directions=dirs, magnitudes=mags)


# -- trial verdicts --------------------------------------------------------


@dataclass(frozen=True)
class TrialVerdict:
    """Outcome of one stability trial with its measured quantities."""

    name: str
    passed: bool
    in_budget: bool
    budget_used: float
    measured: dict[str, float]
    certified: bool = True
    counterexamples: tuple[tuple[int, ...], ...] = ()
    model: str | None = None

    def to_json(self) -> dict:
        doc = {
            "trial": self.name,
            "passed": bool(self.passed),
            "in_budget": bool(self.in_budget),
            "certified": bool(self.certified),
            "budget_used": float(self.budget_used),
            "measured": {k: (int(v) if isinstance(v, (int, np.integer)) else float(v))
                         for k, v in sorted(self.measured.items())},
            "counterexamples": [list(c) for c in self.counterexamples],
        }
        if self.model is not None:
            doc["model"] = self.model
        return doc


def cc_displacement_trial(simplex_ids, perturbation: PointPerturbation,
                          params: SecureParams) -> TrialVerdict:
    """Check the circumcentre drift bound 8 rho / (upsilon0 mu0)."""
    ids = tuple(int(i) for i in simplex_ids)
    before = perturbation.base[list(ids)]
    after = perturbation.apply()[list(ids)]
    c0 = circumcenter(Simplex(before))
    c1 = circumcenter(Simplex(after))
    if c0 is None or c1 is None:
        raise PreconditionError("trial simplex lost its circumcentre")
    moved = float(np.linalg.norm(c1[0] - c0[0]))
    bound = 8.0 * perturbation.rho / (params.upsilon0 * params.mu0)
    tol = 1e-9 * max(c0[1], 1.0)
    in_budget = perturbation.rho <= params.budget().rho_cc * (1 + 1e-12)
    return TrialVerdict(
        name="cc_displacement",
        passed=moved < bound + tol,
        in_budget=in_budget,
        budget_used=perturbation.rho,
        measured={"displacement": moved, "bound": bound, "margin": bound - moved},
        model=perturbation.model,
    )


def protection_decay_trial(analysis: GenericityAnalysis,
                           perturbation: PointPerturbation | None = None,
                           *, field: DisplacementField | None = None) -> TrialVerdict:
    """Check residual protection after a point or metric perturbation.

    With a point perturbation each safe top simplex must reappear in the
    perturbed complex with protection at least delta(sigma) - 18 rho / (u m);
    with a displacement field the same holds for the metric complex with the
    decay constant 20 and rho the metric deviation bound.
    """
    if (perturbation is None) == (field is None):
        raise PreconditionError("give exactly one of perturbation or field")
    p = measured_secure_params(analysis)
    um = p.upsilon0 * p.mu0
    cls = analysis.classification
    safe_tops = cls.audited[cls.meets]
    tol = analysis.tolerance
    if perturbation is not None:
        rho = perturbation.rho
        decay = 18.0 * rho / um
        perturbed = delaunay_lifted(perturbation.apply())
        budget = p.budget().rho_point
        name = "protection_decay_point"
    else:
        model = MetricModel(field)
        rho = model.rho_bound
        decay = 20.0 * rho / um
        perturbed = metric_delaunay(analysis.points, model, cls.region)
        budget = p.budget().rho_metric_protect
        name = "protection_decay_metric"
    # The row of each safe top in the perturbed result, by integer row key.
    keys = row_keys(perturbed.tops, analysis.points.n)
    order = np.argsort(keys, kind="stable")
    want = row_keys(safe_tops, analysis.points.n)
    at = np.searchsorted(keys[order], want)
    found = at < len(order)
    found[found] = keys[order][at[found]] == want[found]
    missing = tuple(map(tuple, safe_tops[~found].tolist()))
    residual = (perturbed.protections[order[at[found]]]
                - (analysis.protection.per_simplex[cls.meets][found] - decay))
    worst_residual = residual.min() if residual.size else np.inf
    passed = not missing and worst_residual > -tol
    return TrialVerdict(
        name=name,
        passed=passed,
        in_budget=rho <= budget * (1 + 1e-12),
        budget_used=rho,
        measured={
            "decay": decay,
            "worst_residual": float(worst_residual if len(safe_tops) else 0.0),
            "missing": len(missing),
            "simplices": len(safe_tops),
        },
        counterexamples=missing,
        model=perturbation.model if perturbation is not None else None,
    )


def _star_report(analysis: GenericityAnalysis, tops: np.ndarray, vertices=(),
                 faces=()) -> IsoReport:
    """``star_difference`` of the safe star against the closure of the rows
    of ``tops`` that meet the region, of the singletons of ``vertices`` and
    of ``faces``, lower rows that meet it, padded as ``_star_candidates`` pads.

    The safe star is the closure of its tops, so the two are equal exactly
    when the sorted tops are, every one of ``vertices`` lies in a top and
    every one of ``faces`` is a face of one; the closures are compared
    only when that fails.
    """
    cls = analysis.classification
    n = analysis.points.n
    star = tops[_holds_any(tops, cls.region, n)]
    star = star[sorted_rows(star, n)]
    if (np.array_equal(star, cls.audited[cls.meets])
            and _holds_any(np.asarray(vertices, dtype=np.intp)[:, None], star, n).all()
            and (not len(faces) or np.unique(
                _containing_tops(star, faces, cls.region, n)[0]).size == len(faces))):
        return IsoReport(isomorphic=True, missing=(), extra=())
    # The set of a padded row's ids is its simplex.
    got = SimplicialComplex([*map(set, star.tolist()), *map(set, np.asarray(faces).tolist()),
                             *((v,) for v in vertices)])
    return star_difference(cls.safe, got)


def point_stability_trial(analysis: GenericityAnalysis,
                          perturbation: PointPerturbation) -> TrialVerdict:
    """Check that the star of the region survives a point perturbation."""
    perturbed = delaunay_lifted(perturbation.apply())
    return _point_verdict(measured_secure_params(analysis).budget(), perturbation,
                          _star_report(analysis, perturbed.tops))


def _point_verdict(budget: StabilityBudget, perturbation: PointPerturbation,
                   report: IsoReport) -> TrialVerdict:
    """:func:`point_stability_trial` from the star report of the perturbed
    Delaunay complex."""
    bad = tuple(sorted(report.extra + report.missing))
    return TrialVerdict(
        name="point_stability",
        passed=report.isomorphic,
        in_budget=perturbation.rho <= budget.rho_point * (1 + 1e-12),
        budget_used=perturbation.rho,
        measured={
            "symmetric_difference": len(bad),
            "missing": len(report.missing),
            "extra": len(report.extra),
        },
        counterexamples=bad,
        model=perturbation.model,
    )


def relaxation_trial(analysis: GenericityAnalysis, rho: float) -> TrialVerdict:
    """Check that relaxing the empty ball test by rho changes nothing.

    Both inclusions are checked between the relaxed star and the Euclidean
    star; the verdict is certified only if every candidate membership was
    decided, never left to exhaustion of the branch and bound.
    """
    relaxed = relaxed_delaunay(analysis.points, rho, analysis.classification.region,
                               eps=analysis.sampling.epsilon, base=analysis.base)
    return _relaxation_verdict(analysis, measured_secure_params(analysis).budget(), relaxed,
                               partial(_star_report, analysis))


def _relaxation_verdict(analysis: GenericityAnalysis, budget: StabilityBudget,
                        relaxed: RelaxedResult, reports) -> TrialVerdict:
    """:func:`relaxation_trial` of the relaxed star ``relaxed``;
    ``reports(tops, vertices, faces)`` gives its star report
    (:func:`_star_report`)."""
    top = relaxed.sizes == analysis.points.dim + 1
    report = reports(relaxed.members[top], relaxed.region, relaxed.members[~top])
    return TrialVerdict(
        name="relaxation",
        passed=report.isomorphic,
        in_budget=relaxed.rho <= budget.rho_point * (1 + 1e-12),
        budget_used=relaxed.rho,
        measured={"extra": len(report.extra), "missing": len(report.missing)},
        certified=relaxed.certified,
        counterexamples=tuple(sorted(report.extra + report.missing)),
    )


def metric_stability_trial(analysis: GenericityAnalysis, field: DisplacementField,
                           *, budget_mode: str = "thm") -> TrialVerdict:
    """Check that the star of the region survives a metric perturbation.

    The metric star is computed by both the exact pullback route and the
    generic equidistance route; a route disagreement raises, since it can
    only come from an implementation defect. ``budget_mode`` selects which
    budget the deviation is checked against: ``"thm"`` for u m delta / 36,
    ``"cor"`` for nu^3 delta / 84.
    """
    return _metric_verdicts(analysis, [field], budget_mode, partial(_star_report, analysis))[0]


def _metric_verdicts(analysis: GenericityAnalysis, fields, budget_mode: str, reports,
                     windows: _Windows | None = None, pullbacks=None) -> list[TrialVerdict]:
    """:func:`metric_stability_trial` of each of ``fields``: their Newton
    routes from one stacked search over ``windows``
    (:class:`delgen.delaunay._Windows`) and each pullback route reading its
    Delaunay complex of phi(P) from ``pullbacks`` where one is given.
    ``reports(tops, vertices)`` gives a star report (:func:`_star_report`)."""
    if budget_mode not in ("thm", "cor"):
        raise PreconditionError(f"unknown budget mode {budget_mode!r}")
    p = measured_secure_params(analysis)
    b = p.budget()
    budget = b.rho_metric if budget_mode == "thm" else b.rho_generic
    region = analysis.classification.region
    models = [MetricModel(field) for field in fields]
    results = _metric_delaunays(analysis.points, models, region, p.eps, p.upsilon0, p.mu0,
                                "both", windows, pullbacks)
    verdicts = []
    for model, result in zip(models, results):
        iso = reports(result.tops, region)
        verdicts.append(TrialVerdict(
            name=f"metric_stability_{budget_mode}",
            passed=iso.isomorphic,
            in_budget=model.rho_bound <= budget * (1 + 1e-12),
            budget_used=model.rho_bound,
            measured={"extra": len(iso.extra), "missing": len(iso.missing),
                      "undecided": len(result.undecided)},
            certified=result.certified,
            counterexamples=tuple(sorted(iso.extra + iso.missing)),
        ))
    return verdicts


# -- batch driver ----------------------------------------------------------

_BATCH_MODELS = {"uniform", "radial", "adversarial", "relaxation", "metric"}
_SEEDED_MODELS = {"uniform", "metric"}
# The most trial points (models x fractions x seeds x n) of a trial_batch.
# At this bound, CLI runs on grid_points(9, 2, 0.2, seed=1) peak at 0.32 GB
# RSS (uniform), 0.59 GB (metric) and 0.19 GB (all five, two fractions); on
# dense clouds the metric model's Newton rows can pass 1 GB below it.
TRIAL_POINTS = 10**6


def _trial_seed(root: int, *key: int) -> int:
    return int(np.random.SeedSequence((int(root), *key)).generate_state(1)[0])


def trial_batch(analysis: GenericityAnalysis, budgets, seeds: int, models, *,
                root_seed: int = 0) -> list[TrialVerdict]:
    """Run a grid of stability trials; one verdict per (model, budget, seed).

    Point models perturb at the given fraction of the point budget and run
    the star stability trial; ``relaxation`` relaxes at the same fraction,
    and ``metric`` uses a displacement field at the fraction of the metric
    budget. Verdicts come back sorted by (model, budget, seed).

    Every fraction, and the batch's size against ``TRIAL_POINTS``, is
    checked before any trial runs. The batch runs stage by stage. One
    candidate build (:class:`delgen.delaunay._Windows`), at the batch's
    largest reach, serves the relaxed stars of every fraction
    (``delaunay._relaxed_stars``) and the Newton routes of every metric
    trial, which run as one stacked search (``metric._generic_paths``).
    Every point perturbation and every image phi(P) of the metric trials is
    built first, and one check of the base triangulation on all of them
    (``delaunay._kept_triangulations``) gives the Delaunay complex of each
    copy it keeps; only the others are built with qhull. Each distinct star
    is reported once. Each verdict equals that of its own trial call.
    """
    b = measured_secure_params(analysis).budget()
    unknown = set(models) - _BATCH_MODELS
    if unknown:
        raise PreconditionError(f"unknown trial models {sorted(unknown)}")
    if int(seeds) < 1 or not models or not budgets:
        raise PreconditionError("empty trial batch: need a seed, a model and a budget")
    if root_seed < 0:
        raise PreconditionError("root seed must be nonnegative")
    for frac in budgets:
        if not (np.isfinite(frac) and frac >= 0):
            raise PreconditionError(f"bad budget fraction {frac!r}")
    ps = analysis.points
    total = len(set(models)) * len(budgets) * int(seeds) * ps.n
    if total > TRIAL_POINTS:
        raise PreconditionError(f"trial batch of {total} trial points, more than {TRIAL_POINTS}")
    region = analysis.classification.region
    eps = analysis.sampling.epsilon
    tol = ps.tolerance()
    models = sorted(set(models))
    adversarial = (_adversarial_directions(ps, analysis.base)
                   if "adversarial" in models else None)
    fields = {}
    if "metric" in models:
        mi = models.index("metric")
        fields = {(bi, si): DisplacementField(ps.dim, frac * b.rho_metric / 2.0,
                                              _trial_seed(root_seed, mi, bi, si))
                  for bi, frac in enumerate(budgets) for si in range(int(seeds))}
    reaches = [_newton_reach(eps, MetricModel(field)) + tol for field in fields.values()]
    if "relaxation" in models:
        reaches.append(2.0 * eps + tol)
    windows = (_Windows(ps, region, max(reaches), range(1, ps.dim + 1)
                        if "relaxation" in models else (ps.dim,)) if reaches else None)
    relaxed = (_relaxed_stars(ps, [frac * b.rho_point for frac in budgets], region, eps,
                              analysis.base, windows) if "relaxation" in models else None)

    def runs(model):
        # A model that draws nothing at random runs once for all seeds.
        return range(int(seeds) if model in _SEEDED_MODELS else 1)

    perts = {(mi, bi, si): make_point_perturbation(
                 ps, frac * b.rho_point, _trial_seed(root_seed, mi, bi, si), model,
                 base=analysis.base, directions=adversarial)
             for mi, model in enumerate(models) if model not in ("relaxation", "metric")
             for bi, frac in enumerate(budgets) for si in runs(model)}
    kept = dict(zip([*perts, *fields], _kept_triangulations(
        ps, analysis.base, [*(pert.apply() for pert in perts.values()),
                            *(field.forward(ps.points) for field in fields.values())])))
    known = {}

    def reports(tops, vertices=(), faces=()):
        # Every copy the check keeps has the base tops, so most trials of a
        # batch ask about the same star.
        key = (tops.tobytes(), tuple(vertices), np.asarray(faces).tobytes())
        if key not in known:
            known[key] = _star_report(analysis, tops, vertices, faces)
        return known[key]

    metric = dict(zip(fields, _metric_verdicts(
        analysis, list(fields.values()), "thm", reports, windows,
        [kept[key] for key in fields]))) if fields else {}
    verdicts = []
    for mi, model in enumerate(models):
        seeded = model in _SEEDED_MODELS
        for bi in range(len(budgets)):
            for si in runs(model):
                if model == "relaxation":
                    v = _relaxation_verdict(analysis, b, relaxed[bi], reports)
                elif model == "metric":
                    v = metric[bi, si]
                else:
                    pert, perturbed = perts[mi, bi, si], kept[mi, bi, si]
                    if perturbed is None:
                        perturbed = delaunay_lifted(pert.apply())
                    v = _point_verdict(b, pert, reports(perturbed.tops))
                verdicts.extend([v] * (1 if seeded else int(seeds)))
    return verdicts
