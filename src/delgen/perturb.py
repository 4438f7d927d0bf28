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

import numpy as np

from .delaunay import DelaunayResult, as_point_set, delaunay_lifted, relaxed_delaunay
from .complexes import star_isomorphic
from .errors import NonGenericError, PreconditionError
from .genericity import GenericityAnalysis
from .metric import Box, DisplacementField, MetricModel, metric_delaunay
from .simplex import Simplex, circumcenter


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
    worst = 1.0
    for s in analysis.classification.audited:
        worst = min(worst, analysis.metrics(s).thickness)
    eps = analysis.sampling.epsilon
    delta = min(analysis.protection.delta_global, eps)
    if delta <= 0:
        raise NonGenericError("point set is not generic, no secure parameters")
    return SecureParams(
        upsilon0=min(worst, 1.0),
        mu0=min(analysis.sampling.mu0, 1.0),
        delta=delta,
        eps=eps,
        nu_tilde=analysis.protection.nu_tilde,
    )


# -- perturbations ---------------------------------------------------------


@dataclass(frozen=True)
class PointPerturbation:
    """A bounded relocation of every point, kept below half the sparsity.

    Directions and magnitudes are stored separately so a whole scaled family
    shares one direction field; ``scaled`` produces the member with all
    magnitudes multiplied down.
    """

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

    def scaled(self, t: float) -> "PointPerturbation":
        if not 0 <= t <= 1:
            raise PreconditionError("scale factor must lie in [0, 1]")
        return PointPerturbation(
            rho=self.rho * t, seed=self.seed, model=self.model, base=self.base,
            directions=self.directions, magnitudes=self.magnitudes * t,
        )


def _unit_rows(v: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    out = np.zeros_like(v)
    ok = norms[:, 0] > 0
    out[ok] = v[ok] / norms[ok]
    out[~ok, 0] = 1.0
    return out


def _adversarial_directions(pts: np.ndarray, base: DelaunayResult) -> np.ndarray:
    """Unit direction from each point to the centre of the first ball, in the
    complex's order, of least sphere gap |distance - radius| among the balls
    of simplices without the point; the first unit vector when there is none.
    """
    simplices = list(base.balls)
    centers = np.array([b.center for b in base.balls.values()])
    radii = np.array([b.radius for b in base.balls.values()])
    own = np.zeros((pts.shape[0], len(simplices)), dtype=bool)
    own[np.concatenate(simplices),
        np.repeat(np.arange(len(simplices)), [len(s) for s in simplices])] = True
    targets = pts.copy()
    step = max(1, 1_000_000 // len(simplices))
    for lo in range(0, pts.shape[0], step):
        diff = pts[lo:lo + step, None, :] - centers[None, :, :]
        # Row times column is the dot kernel np.linalg.norm uses on a single
        # vector, so every gap, and so every tie, matches the scalar form.
        gaps = np.abs(np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0]) - radii)
        gaps[own[lo:lo + step]] = np.inf
        best = np.argmin(gaps, axis=1)
        found = np.isfinite(gaps[np.arange(best.size), best])
        targets[lo:lo + step][found] = centers[best[found]]
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
            directions = _adversarial_directions(ps.points, base)
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
    m = analysis.base.complex.dimension
    safe_tops = [s for s in analysis.classification.safe.simplices(m)
                 if s in analysis.base.balls]
    tol = analysis.tolerance
    if perturbation is not None:
        rho = perturbation.rho
        decay = 18.0 * rho / um
        perturbed = delaunay_lifted(perturbation.apply())
        balls = perturbed.balls
        budget = p.budget().rho_point
        name = "protection_decay_point"
    else:
        model = MetricModel.pullback(
            field, Box.around(analysis.base.complex.points, 3.0 * p.eps)
        )
        rho = model.rho_bound
        decay = 20.0 * rho / um
        balls = metric_delaunay(analysis.points, model,
                                analysis.classification.region).balls
        budget = p.budget().rho_metric_protect
        name = "protection_decay_metric"
    worst_residual = np.inf
    missing = []
    for s in safe_tops:
        if s not in balls:
            missing.append(s)
            continue
        residual = balls[s].protection - (analysis.protection.per_simplex[s] - decay)
        worst_residual = min(worst_residual, residual)
    passed = not missing and worst_residual > -tol
    return TrialVerdict(
        name=name,
        passed=passed,
        in_budget=rho <= budget * (1 + 1e-12),
        budget_used=rho,
        measured={
            "decay": decay,
            "worst_residual": float(worst_residual if safe_tops else 0.0),
            "missing": len(missing),
            "simplices": len(safe_tops),
        },
        counterexamples=tuple(missing),
        model=perturbation.model if perturbation is not None else None,
    )


def point_stability_trial(analysis: GenericityAnalysis,
                          perturbation: PointPerturbation) -> TrialVerdict:
    """Check that the star of the region survives a point perturbation."""
    p = measured_secure_params(analysis)
    perturbed = delaunay_lifted(perturbation.apply())
    mapping = {v: v for v in analysis.base.complex.vertex_ids()}
    report = star_isomorphic(analysis.base.complex, perturbed.complex,
                             analysis.classification.region, mapping)
    bad = tuple(sorted(set(report.missing) | set(report.extra)))
    return TrialVerdict(
        name="point_stability",
        passed=report.isomorphic,
        in_budget=perturbation.rho <= p.budget().rho_point * (1 + 1e-12),
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
    decided by the branch and bound, never by exhaustion.
    """
    p = measured_secure_params(analysis)
    relaxed = relaxed_delaunay(analysis.points, rho, analysis.classification.region,
                               eps=analysis.sampling.epsilon, base=analysis.base)
    star = analysis.classification.safe
    got = {s for d in range(relaxed.complex.dimension + 1)
           for s in relaxed.complex.simplices(d)}
    want = {s for d in range(star.dimension + 1) for s in star.simplices(d)}
    extra = tuple(sorted(got - want))
    missing = tuple(sorted(want - got))
    return TrialVerdict(
        name="relaxation",
        passed=not extra and not missing,
        in_budget=rho <= p.budget().rho_point * (1 + 1e-12),
        budget_used=rho,
        measured={"extra": len(extra), "missing": len(missing)},
        certified=relaxed.certified,
        counterexamples=tuple(sorted(extra + missing)),
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
    if budget_mode not in ("thm", "cor"):
        raise PreconditionError(f"unknown budget mode {budget_mode!r}")
    p = measured_secure_params(analysis)
    pts = analysis.base.complex.points
    model = MetricModel.pullback(field, Box.around(pts, 3.0 * p.eps))
    audited_ids = sorted({v for s in analysis.classification.audited for v in s})
    if np.min(model.domain.boundary_gap(pts[audited_ids])) < 2.0 * p.eps:
        raise PreconditionError("audited vertices too close to the domain boundary")
    result = metric_delaunay(analysis.points, model, analysis.classification.region,
                             eps=p.eps, upsilon0=p.upsilon0, mu0=p.mu0, path="both")
    star = analysis.classification.safe
    got = {s for d in range(result.complex.dimension + 1)
           for s in result.complex.simplices(d)}
    want = {s for d in range(star.dimension + 1) for s in star.simplices(d)}
    extra = tuple(sorted(got - want))
    missing = tuple(sorted(want - got))
    if budget_mode == "thm":
        budget = p.budget().rho_metric
    else:
        budget = p.budget().rho_generic
    return TrialVerdict(
        name=f"metric_stability_{budget_mode}",
        passed=not extra and not missing,
        in_budget=model.rho_bound <= budget * (1 + 1e-12),
        budget_used=model.rho_bound,
        measured={"extra": len(extra), "missing": len(missing),
                  "undecided": len(result.undecided)},
        certified=result.certified,
        counterexamples=tuple(sorted(extra + missing)),
    )


# -- batch driver ----------------------------------------------------------

_BATCH_MODELS = {"uniform", "radial", "adversarial", "relaxation", "metric"}


def _trial_seed(root: int, *key: int) -> int:
    return int(np.random.SeedSequence((int(root), *key)).generate_state(1)[0])


def trial_batch(analysis: GenericityAnalysis, budgets, seeds: int, models, *,
                root_seed: int = 0) -> list[TrialVerdict]:
    """Run a grid of stability trials; one verdict per (model, budget, seed).

    Point models perturb at the given fraction of the point budget and run
    the star stability trial; ``relaxation`` relaxes at the same fraction,
    and ``metric`` uses a displacement field at the fraction of the metric
    budget. Verdicts come back sorted by (model, budget, seed).
    """
    b = measured_secure_params(analysis).budget()
    unknown = set(models) - _BATCH_MODELS
    if unknown:
        raise PreconditionError(f"unknown trial models {sorted(unknown)}")
    if int(seeds) < 1 or not models or not budgets:
        raise PreconditionError("empty trial batch: need a seed, a model and a budget")
    ps = analysis.points
    adversarial = (_adversarial_directions(ps.points, analysis.base)
                   if "adversarial" in models else None)
    verdicts = []
    for mi, model in enumerate(sorted(set(models))):
        for bi, frac in enumerate(budgets):
            if not (np.isfinite(frac) and frac >= 0):
                raise PreconditionError(f"bad budget fraction {frac!r}")
            if model == "relaxation":
                # Relaxation draws nothing at random: one run serves every seed.
                v = relaxation_trial(analysis, frac * b.rho_point)
                verdicts.extend([v] * int(seeds))
                continue
            for si in range(int(seeds)):
                seed = _trial_seed(root_seed, mi, bi, si)
                if model == "metric":
                    fld = DisplacementField(ps.dim, frac * b.rho_metric / 2.0, seed)
                    v = metric_stability_trial(analysis, fld)
                else:
                    pert = make_point_perturbation(
                        ps, frac * b.rho_point, seed, model, base=analysis.base,
                        directions=adversarial)
                    v = point_stability_trial(analysis, pert)
                verdicts.append(v)
    return verdicts
