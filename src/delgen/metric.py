"""Perturbed metrics and the Delaunay complexes they induce.

A metric model is the pullback distance d(x, y) = |phi(x) - phi(y)| on a
box domain, for a smooth bijection phi = id + disp built from a bounded
sinusoidal displacement field. It is a genuine metric that deviates from the
Euclidean one by at most ``rho_bound`` = 2 * amplitude, and it admits an
exact fast route through the Euclidean complex of phi(P). The Euclidean
distance itself is the pullback of a zero-amplitude field.

Metric circumcentres are found by damped Newton iteration on the vertex
distance differences, seeded at the Euclidean circumcentre with a small
multistart grid; metric Delaunay complexes are built either by that generic
route, by the exact pullback route, or by both with a hard comparison. A
candidate whose Newton search fails is decided by the branch and bound of
:mod:`delgen.delaunay` on the metric gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .complexes import SimplicialComplex
from .delaunay import (Ball, _ball_gap, _branch_and_bound, _star_candidates,
                       as_point_set, delaunay_lifted)
from .errors import PathMismatchError, PreconditionError
from .simplex import Simplex, circumcenter, simplex_metrics


@dataclass(frozen=True)
class Box:
    """Axis aligned box domain."""

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def around(cls, points: np.ndarray, pad: float) -> "Box":
        pts = np.asarray(points, dtype=float)
        return cls(lo=pts.min(axis=0) - pad, hi=pts.max(axis=0) + pad)

    def boundary_gap(self, x: np.ndarray) -> np.ndarray:
        """Distance from rows of x to the box boundary (negative outside)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.minimum((x - self.lo).min(axis=1), (self.hi - x).min(axis=1))


class DisplacementField:
    """Smooth bounded displacement x -> x + disp(x) with small Lipschitz norm.

    Each displacement coordinate is a mean of ``terms`` sinusoids; the field
    satisfies |disp(x)| <= amplitude everywhere and its Lipschitz constant is
    certified below 1/2, which makes phi = id + disp a bijection and the
    pullback distance a genuine metric with deviation at most 2 * amplitude.
    """

    def __init__(self, dim: int, amplitude: float, seed: int, *,
                 wavelength: float = 2.0, terms: int = 3) -> None:
        if not np.isfinite(amplitude) or amplitude < 0:
            raise PreconditionError("amplitude must be finite and nonnegative")
        if wavelength <= 0:
            raise PreconditionError("wavelength must be positive")
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(dim, terms, dim))
        norms = np.linalg.norm(w, axis=2, keepdims=True)
        norms[norms == 0] = 1.0
        scale = (2.0 * np.pi / wavelength) * rng.uniform(0.5, 1.5, size=(dim, terms, 1))
        w = w / norms * scale
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=(dim, terms))
        self.dim = int(dim)
        self.amplitude = float(amplitude)
        self.terms = int(terms)
        gain = amplitude / np.sqrt(dim) if dim else 0.0
        m_abs = np.abs(w).mean(axis=1)
        lip = gain * float(np.linalg.norm(m_abs, 2)) if dim else 0.0
        if lip >= 0.5:
            shrink = 0.45 / lip
            w = w * shrink
            lip = lip * shrink
        self.waves = w
        self.lipschitz = lip

    def displacement(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        args = np.einsum("nj,ikj->nik", x, self.waves) + self.phases[None, :, :]
        gain = self.amplitude / np.sqrt(self.dim)
        return gain * np.sin(args).mean(axis=2)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x + self.displacement(x)

    def inverse(self, y: np.ndarray) -> np.ndarray:
        """Invert phi by contraction; converges since Lipschitz < 1/2."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        x = y.copy()
        for _ in range(200):
            step = y - self.displacement(x) - x
            x = x + step
            if np.abs(step).max() <= 1e-15 * max(1.0, np.abs(y).max()):
                break
        return x


class MetricModel:
    """Pullback distance d(x, y) = |phi(x) - phi(y)| on a box, with a
    certified Euclidean deviation bound ``rho_bound``."""

    def __init__(self, *, field: DisplacementField, rho_bound: float, domain: Box | None,
                 center_lipschitz: float = 1.0) -> None:
        self.field = field
        self.rho_bound = float(rho_bound)
        self.domain = domain
        self.center_lipschitz = float(center_lipschitz)

    @classmethod
    def euclidean(cls, dim: int, domain: Box | None = None) -> "MetricModel":
        """The Euclidean distance, as the pullback of a zero displacement."""
        return cls.pullback(DisplacementField(dim, 0.0, seed=0), domain)

    @classmethod
    def pullback(cls, field: DisplacementField, domain: Box | None = None) -> "MetricModel":
        return cls(
            field=field,
            rho_bound=2.0 * field.amplitude,
            domain=domain,
            center_lipschitz=1.0 + field.lipschitz,
        )

    # -- evaluation --------------------------------------------------------

    def distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Rowwise distance between matching rows of x and y."""
        return np.linalg.norm(self.field.forward(x) - self.field.forward(y), axis=1)

    def distances_to(self, c: np.ndarray, pts: np.ndarray,
                     image_pts: np.ndarray | None = None) -> np.ndarray:
        """Distances from a single centre to every row of pts."""
        img = image_pts if image_pts is not None else self.field.forward(pts)
        return np.linalg.norm(img - self.field.forward(c)[0], axis=1)


# -- metric circumcentres --------------------------------------------------


def _spread(dists: np.ndarray) -> np.ndarray:
    return dists.max(axis=-1) - dists.min(axis=-1)


def metric_circumcenter(simplex, model: MetricModel, *,
                        upsilon0: float | None = None, mu0: float | None = None,
                        search_radius: float | None = None):
    """Equidistant centre of a full dimensional simplex under a metric model.

    Runs damped Newton on f(c) = (d(c, p_i) - d(c, p_0))_i from the Euclidean
    circumcentre, then from a 3^m multistart grid inside the search ball. The
    default search radius follows the circumcentre displacement bound
    8 rho / (upsilon0 mu0) when those certified parameters are supplied, and
    a conservative variant derived from the simplex itself otherwise.

    Returns ``(centre, radius)`` with vertex distance spread below
    1e-9 * circumradius, or ``None`` when no start converges.
    """
    s = simplex if isinstance(simplex, Simplex) else Simplex(simplex)
    m = s.ambient_dim
    if s.dim != m:
        raise PreconditionError("metric circumcentre needs a full dimensional simplex")
    met = simplex_metrics(s)
    if met.degenerate or met.circumradius is None:
        raise PreconditionError("metric circumcentre needs a non-degenerate simplex")
    r0 = met.circumradius
    if search_radius is None:
        rho = model.rho_bound
        if upsilon0 and mu0:
            search_radius = 8.0 * rho / (upsilon0 * mu0) + 0.05 * r0
        else:
            # Fall back to the same bound with eps read off as 2 R and the
            # sparsity taken from the simplex itself.
            search_radius = 16.0 * rho * r0 / max(met.thickness * met.shortest_edge, 1e-300)
            search_radius += 0.05 * r0
    seeds = [np.zeros(m)]
    if search_radius > 0:
        step = search_radius / np.sqrt(m) * 0.75
        for offs in product((-1.0, 0.0, 1.0), repeat=m):
            if any(offs):
                seeds.append(np.array(offs) * step)
    c0 = met.circumcenter
    tol = 1e-9 * r0
    for off in seeds:
        result = _newton_single(c0 + off, s.vertices, model, tol, r0, c0, search_radius)
        if result is not None:
            return result
    return None


def _newton_single(c, verts, model, tol, r0, seed_center, search_radius):
    c = c.copy()
    m = verts.shape[1]
    h = max(1e-7 * r0, 1e-12)
    for _ in range(60):
        d = model.distances_to(c, verts)
        if _spread(d) < tol:
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
            return None
        if not np.all(np.isfinite(step)):
            return None
        base = np.abs(f).max()
        t = 1.0
        while t > 1e-4:
            trial = c + t * step
            dt = model.distances_to(trial, verts)
            if np.abs(dt[1:] - dt[0]).max() < base or _spread(dt) < tol:
                c = trial
                break
            t *= 0.5
        else:
            return None
        if np.linalg.norm(c - seed_center) > max(4.0 * search_radius, 10.0 * r0):
            return None
    d = model.distances_to(c, verts)
    if _spread(d) < tol:
        return c, float(d.mean())
    return None


# -- metric Delaunay -------------------------------------------------------


@dataclass(frozen=True)
class MetricDelaunayResult:
    """Metric Delaunay star of a region with certification data."""

    complex: SimplicialComplex
    balls: dict[tuple[int, ...], Ball]
    path: str
    agreement: bool | None = None
    not_found: tuple[tuple[int, ...], ...] = ()
    undecided: tuple[tuple[int, ...], ...] = ()
    degeneracy_groups: tuple[tuple[int, ...], ...] = ()

    @property
    def certified(self) -> bool:
        return not self.undecided


def _pullback_path(ps, model, region) -> MetricDelaunayResult:
    pts = ps.points
    base = delaunay_lifted(model.field.forward(pts))
    keep = [s for s in base.complex.simplices(pts.shape[1]) if set(s) & set(region)]
    cx = SimplicialComplex(keep + [(v,) for v in region], pts)
    balls = {}
    for s in keep:
        ball = base.balls[s]
        center = model.field.inverse(ball.center[None, :])[0]
        balls[s] = Ball(simplex=s, center=center, radius=ball.radius,
                        protection=ball.protection)
    return MetricDelaunayResult(
        complex=cx, balls=balls, path="pullback",
        degeneracy_groups=base.degeneracy_groups,
    )


def _generic_path(ps, model, region, eps, upsilon0, mu0) -> MetricDelaunayResult:
    pts = ps.points
    m = ps.dim
    tol = ps.tolerance()
    reach = 2.0 * eps + 4.0 * model.rho_bound
    image_pts = model.field.forward(pts)
    lipschitz = 2.0 * model.center_lipschitz * np.sqrt(m)
    candidates = sorted(_star_candidates(pts, region, reach + tol, (m,)))
    accepted: list[tuple[int, ...]] = []
    balls: dict[tuple[int, ...], Ball] = {}
    not_found: list[tuple[int, ...]] = []
    undecided: list[tuple[int, ...]] = []
    groups: set[tuple[int, ...]] = set()
    for cand in candidates:
        member_pts = pts[list(cand)]
        try:
            found = metric_circumcenter(
                Simplex(member_pts), model, upsilon0=upsilon0, mu0=mu0
            )
        except PreconditionError:
            found = None
        if found is None:
            not_found.append(cand)
            ball = circumcenter(Simplex(member_pts))
            seed = ball[0] if ball is not None else member_pts.mean(axis=0)
            # The metric gap is the Euclidean ball gap between images.
            member_img = model.field.forward(member_pts)
            verdict, witness = _branch_and_bound(
                lambda c: _ball_gap(model.field.forward(c), member_img, image_pts),
                seed, 4.0 * eps, lipschitz, tol,
            )
            if verdict is None:
                undecided.append(cand)
            elif verdict:
                # Equidistance search missed it but an empty ball exists:
                # record the witness ball instead of dropping the simplex.
                d = model.distances_to(witness, pts, image_pts)
                accepted.append(cand)
                balls[cand] = Ball(simplex=cand, center=witness,
                                   radius=float(d[list(cand)].max()),
                                   protection=0.0)
            continue
        c, r = found
        d = model.distances_to(c, pts, image_pts)
        margins = d - r
        margins[list(cand)] = np.inf
        protection = float(margins.min())
        if protection <= -tol:
            continue
        accepted.append(cand)
        balls[cand] = Ball(simplex=cand, center=np.asarray(c), radius=float(r),
                           protection=protection)
        near = np.abs(d - r) <= tol
        if near.sum() > m + 1:
            groups.add(tuple(int(i) for i in np.nonzero(near)[0]))
    cx = SimplicialComplex(accepted + [(v,) for v in region], pts)
    return MetricDelaunayResult(
        complex=cx, balls=balls, path="newton",
        not_found=tuple(not_found), undecided=tuple(undecided),
        degeneracy_groups=tuple(sorted(groups)),
    )


def metric_delaunay(points, model: MetricModel, region, *, eps: float | None = None,
                    upsilon0: float | None = None, mu0: float | None = None,
                    path: str = "pullback") -> MetricDelaunayResult:
    """Star of ``region`` in the Delaunay complex of a metric model.

    ``path`` selects the route: ``"pullback"`` (the default) runs the exact
    route through the Euclidean complex of the displaced points,
    ``"newton"`` runs the generic equidistance search over candidate
    simplices, and ``"both"`` runs the two and raises
    :class:`PathMismatchError` if their top simplex sets differ.

    Certified ``upsilon0`` and ``mu0``, when given, size the centre search
    ball as in :func:`metric_circumcenter`. ``eps`` is the sampling radius
    that windows the candidates; the ``"newton"`` and ``"both"`` routes
    need it.
    """
    ps = as_point_set(points)
    if path not in ("pullback", "newton", "both"):
        raise PreconditionError(f"unknown metric route {path!r}")
    region = sorted({int(v) for v in region})
    if not region:
        raise PreconditionError("region must be nonempty")
    if any(v < 0 or v >= ps.n for v in region):
        raise PreconditionError("region vertex outside point set")
    if path == "pullback":
        return _pullback_path(ps, model, region)
    if eps is None:
        raise PreconditionError("the newton route needs the sampling radius eps")
    generic = _generic_path(ps, model, region, eps, upsilon0, mu0)
    if path == "newton":
        return generic
    fast = _pullback_path(ps, model, region)
    m = ps.dim
    a = set(generic.complex.simplices(m))
    b = set(fast.complex.simplices(m))
    if a != b:
        raise PathMismatchError(
            f"metric Delaunay routes disagree: newton-only {sorted(a - b)}, "
            f"pullback-only {sorted(b - a)}"
        )
    return MetricDelaunayResult(
        complex=generic.complex, balls=generic.balls, path="both", agreement=True,
        not_found=generic.not_found, undecided=generic.undecided,
        degeneracy_groups=generic.degeneracy_groups,
    )
