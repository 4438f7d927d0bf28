"""Sampling parameters, protection audits, and genericity certificates.

The sampling radius of a finite set is the largest distance from the set
reachable inside its eroded convex hull, where the erosion margin is the
radius itself; it is computed here exactly, as a fixed point. On top of that
sit the protection audit of the double star around a chosen deep interior
region, the thickness certificate implied by positive relative protection,
and an audit of the individual geometric consequences (edge separation,
altitude floor, circumradius bound, secure flags).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.spatial import cKDTree

from .complexes import SimplicialComplex
from .delaunay import DelaunayResult, PointSet, as_point_set, delaunay_lifted
from .errors import NonGenericError, PreconditionError
from .hull import CLIP_CHUNK, HullFacets, clip_lines, eroded_edges, hull_facets
from .simplex import SimplexMetrics, simplex_metrics

THICKNESS_SLACK = 1e-9


@dataclass(frozen=True)
class SamplingReport:
    """Measured sampling radius, sparsity, and their ratio."""

    epsilon: float
    sparsity: float
    mu0: float

    def __post_init__(self) -> None:
        if not (self.epsilon > 0 and self.sparsity > 0):
            raise PreconditionError("sampling parameters must be positive")


@dataclass(frozen=True)
class ProtectionReport:
    """Protection margins of the audited top simplices."""

    per_simplex: dict[tuple[int, ...], float]
    delta_global: float
    nu_tilde: float
    generic: bool


@dataclass(frozen=True)
class SafeInteriorClassification:
    """The region and the simplex sets its choice induces."""

    region: tuple[int, ...]
    safe: SimplicialComplex
    audited: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ThicknessCertificate:
    """Certified thickness floor for the safe simplices."""

    upsilon0: float
    witnesses: tuple[tuple[tuple[int, ...], float, bool], ...]
    min_thickness: float
    margin: float
    valid: bool


@dataclass(frozen=True)
class GenericityAnalysis:
    """One measurement of a point set, which every later stage reads: the
    hull, the Delaunay complex, the sampling report, the deep interior and
    the protection audit of the region's double star.

    ``stages`` holds the seconds of each build. When the region is the
    empty deep interior, reading ``protection`` or ``classification``
    raises :class:`PreconditionError`.
    """

    points: PointSet
    facets: HullFacets
    base: DelaunayResult
    sampling: SamplingReport
    deep_ids: tuple[int, ...]
    stages: dict[str, float]
    _star: tuple[ProtectionReport, SafeInteriorClassification] | None = field(repr=False)
    _metrics: dict[tuple[int, ...], SimplexMetrics] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def tolerance(self) -> float:
        return self.points.tolerance()

    def _region_star(self) -> tuple[ProtectionReport, SafeInteriorClassification]:
        if self._star is None:
            raise PreconditionError("deep interior region is empty")
        return self._star

    @property
    def protection(self) -> ProtectionReport:
        return self._region_star()[0]

    @property
    def classification(self) -> SafeInteriorClassification:
        return self._region_star()[1]

    def metrics(self, simplex: tuple[int, ...]) -> SimplexMetrics:
        """Metrics of a simplex of the complex, computed once per analysis."""
        if simplex not in self._metrics:
            self._metrics[simplex] = simplex_metrics(self.base.complex.points[list(simplex)])
        return self._metrics[simplex]


# -- sampling radius -------------------------------------------------------


@dataclass(frozen=True)
class _VoronoiPieces:
    """The parts of the Voronoi diagram of P where the distance to P can
    peak over a convex body, taken from the Delaunay complex.

    A Voronoi vertex is a circumcentre of a top simplex. The line of a
    Voronoi edge is the bisector of a Delaunay edge in 2-D, and the line
    through a Delaunay triangle's circumcentre along its normal in 3-D; each
    line carries one site whose cell the edge bounds. In 3-D the plane of a
    Voronoi face is the bisector of a Delaunay edge, kept as its two sites.
    """

    centers: np.ndarray     # (s, m)
    radii: np.ndarray       # (s,)
    origins: np.ndarray     # (l, m) a point of each edge line
    directions: np.ndarray  # (l, m) unit
    sites: np.ndarray       # (l, m)
    faces: tuple[np.ndarray, np.ndarray] | None  # sites p, q, each (e, m)


def _faces_of(tops: np.ndarray, k: int) -> np.ndarray:
    """Distinct k-vertex faces of the top simplices, as sorted rows."""
    cols = combinations(range(tops.shape[1]), k)
    return np.unique(np.vstack([tops[:, list(c)] for c in cols]), axis=0)


def _voronoi_pieces(pts: np.ndarray, base: DelaunayResult) -> _VoronoiPieces:
    m = pts.shape[1]
    tops = np.sort(np.array(list(base.balls), dtype=int), axis=1)
    centers = np.array([b.center for b in base.balls.values()])
    radii = np.array([b.radius for b in base.balls.values()])
    edges = _faces_of(tops, 2)
    p, q = pts[edges[:, 0]], pts[edges[:, 1]]
    if m == 2:
        span = q - p
        directions = np.column_stack([-span[:, 1], span[:, 0]])
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        return _VoronoiPieces(centers, radii, 0.5 * (p + q), directions, p, None)
    tri = pts[_faces_of(tops, 3)]
    a, u, v = tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    normal = np.cross(u, v)
    area2 = np.einsum("ij,ij->i", normal, normal)
    ok = area2 > 0
    a, u, v, normal, area2 = a[ok], u[ok], v[ok], normal[ok], area2[ok, None]
    uu = np.einsum("ij,ij->i", u, u)[:, None]
    vv = np.einsum("ij,ij->i", v, v)[:, None]
    circumcentres = a + (uu * np.cross(v, normal) + vv * np.cross(normal, u)) / (2.0 * area2)
    directions = normal / np.sqrt(area2)
    return _VoronoiPieces(centers, radii, circumcentres, directions, a, (p, q))


def _face_crossings(faces, a, b, fa, fb, best: float) -> np.ndarray:
    """Points where the plane of a Voronoi face crosses a body edge ab, kept
    only where they could lie on the face and beat ``best``.

    The face between sites p and q lies in their bisector plane. The distance
    f to P is 1-Lipschitz, so at a crossing x on the face
    |x - p| = f(x) <= f(a) + |x - a| and <= f(b) + |x - b|. A crossing that
    breaks either bound (beyond rounding) is not on the face; one with
    |x - p| <= best cannot raise the maximum. Both are dropped, and so is
    every edge on which the two bounds meet at or below ``best``.
    """
    rounding = 1e-12 * max(1.0, float(np.abs(a).max()))
    span = b - a
    length = np.linalg.norm(span, axis=1)
    live = fa + fb + length > 2.0 * best
    a, span, length, fa, fb = a[live], span[live], length[live], fa[live], fb[live]
    p, q = faces
    normal = q - p
    level = 0.5 * np.einsum("ij,ij->i", normal, p + q)
    out = [np.zeros((0, a.shape[1]))]
    step = max(1, CLIP_CHUNK // max(a.shape[0], 1))
    for s in range(0, p.shape[0], step):
        sa = normal[s:s + step] @ a.T - level[s:s + step, None]
        sb = sa + normal[s:s + step] @ span.T
        e, k = np.nonzero(sa * sb < 0)
        t = sa[e, k] / (sa[e, k] - sb[e, k])
        x = a[k] + t[:, None] * span[k]
        r = np.linalg.norm(x - p[s + e], axis=1)
        keep = ((r > best) & (r <= fa[k] + t * length[k] + rounding)
                & (r <= fb[k] + (1.0 - t) * length[k] + rounding))
        out.append(x[keep])
    return np.concatenate(out)


def _coverage_radius(facets: HullFacets, vor: _VoronoiPieces, tree: cKDTree,
                     eps: float) -> float:
    """Largest distance to P over the hull eroded by eps, exactly.

    The distance to P is convex on each Voronoi cell, so its maximum over
    the eroded body sits at a vertex of some cell clipped to the body: a
    Voronoi vertex inside the body, a point where the line of a Voronoi edge
    leaves the body, a vertex of the body or, in 3-D, a point where the
    plane of a Voronoi face crosses an edge of the body (Toussaint,
    *Computing largest empty circles with location constraints*, 1983).
    Every candidate lies in the body, so the largest distance over them is
    the maximum itself. A candidate goes through the KD-tree only when its
    distance to a site that defines it could beat the best so far.
    """
    best = 0.0
    if vor.centers.size:
        inside = facets.depth(vor.centers) >= eps - 1e-12 * max(1.0, eps)
        if inside.any():
            best = float(vor.radii[inside].max())
    a, b = eroded_edges(facets, eps)
    if a.shape[0] == 0:
        return best
    fa, fb = tree.query(a)[0], tree.query(b)[0]
    best = max(best, float(fa.max()), float(fb.max()))
    lo, hi = clip_lines(facets, eps, vor.origins, vor.directions)
    hit = lo <= hi
    origins, directions = vor.origins[hit], vor.directions[hit]
    ends = np.concatenate([origins + lo[hit, None] * directions,
                           origins + hi[hit, None] * directions])
    reach = np.linalg.norm(ends - np.concatenate([vor.sites[hit]] * 2), axis=1)
    ends = ends[reach > best]
    if ends.size:
        best = max(best, float(tree.query(ends)[0].max()))
    if vor.faces is not None:
        crossings = _face_crossings(vor.faces, a, b, fa, fb, best)
        if crossings.size:
            best = max(best, float(tree.query(crossings)[0].max()))
    return best


def _fixed_point(g, tol: float) -> float:
    """The least eps with g(eps) <= eps for a non-increasing g, returned on
    the safe side: never below it, and above it by at most about tol."""
    g0 = g(0.0)
    if g0 <= 0:
        raise PreconditionError("degenerate hull, no interior to cover")
    # Two rounds of iteration, ending early at an exact fixed point; the
    # last value of g is the convergence check.
    eps, g_eps = g0, g(g0)
    for _ in range(2):
        if g_eps == eps:
            break
        eps, g_eps = g_eps, g(g_eps)
    if abs(g_eps - eps) <= tol:
        # Below the fixed point g(eps) is at least the fixed point.
        return max(eps, g_eps)
    # g decreases in eps, so g(x) - x brackets its root on [0, g(0)], and
    # g(hi) <= hi holds throughout.
    lo, hi = 0.0, g0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) - mid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return hi


def _sampling_radius(ps: PointSet, facets: HullFacets, base: DelaunayResult) -> float:
    """Fixed point eps = g(eps) of the coverage radius of the eroded hull."""
    tree = cKDTree(ps.points)
    vor = _voronoi_pieces(ps.points, base)
    return _fixed_point(lambda eps: _coverage_radius(facets, vor, tree, eps),
                        1e-9 * ps.diameter())


def sampling_parameters(points, facets: HullFacets, base: DelaunayResult) -> SamplingReport:
    """Measure the sampling radius, the sparsity, and their ratio from the
    hull and the Delaunay complex of the points.

    The sampling radius solves eps = sup over the eps-eroded hull of the
    distance to the set; the sup shrinks as the erosion grows, so the
    equation has a unique fixed point, found by two rounds of fixed point
    iteration and then bisection down to 1e-9 of the diameter. Each sup is
    computed exactly from a finite candidate set (see ``_coverage_radius``),
    and the returned eps is the safe end of the bracket: never below the
    fixed point.
    """
    ps = as_point_set(points)
    eps, sparsity = _sampling_radius(ps, facets, base), ps.min_gap()
    return SamplingReport(epsilon=eps, sparsity=sparsity, mu0=sparsity / eps)


def deep_interior(points, eps: float, facets: HullFacets) -> set[int]:
    """Vertices whose distance to the hull boundary is at least 4 eps."""
    ps = as_point_set(points)
    depth = facets.depth(ps.points)
    slack = 1e-12 * max(1.0, ps.diameter())
    return {int(i) for i in np.nonzero(depth >= 4.0 * eps - slack)[0]}


# -- protection classification ---------------------------------------------


def analyze_genericity(points, region="auto") -> GenericityAnalysis:
    """Measure a point set once: hull, Delaunay complex, sampling radius,
    deep interior and the protection audit of the region's double star.

    ``region`` is ``"auto"`` for the whole deep interior, or vertex ids that
    must all be deep interior vertices. An empty ``"auto"`` region still
    gives an analysis; only its region-dependent parts raise.
    """
    ps = as_point_set(points)
    auto = isinstance(region, str) and region == "auto"
    if not auto:
        region = tuple(sorted({int(v) for v in region}))
        if not region:
            raise PreconditionError("region must be nonempty")
    marks = [time.perf_counter()]
    facets = hull_facets(ps.points)
    marks.append(time.perf_counter())
    base = delaunay_lifted(ps)
    marks.append(time.perf_counter())
    sampling = sampling_parameters(ps, facets, base)
    marks.append(time.perf_counter())
    deep = deep_interior(ps, sampling.epsilon, facets)
    deep_ids = tuple(sorted(deep))
    if auto:
        region = deep_ids
    outside = [v for v in region if v not in deep]
    if outside:
        raise PreconditionError(
            f"region vertices {outside} are not deep interior points"
        )
    star = _audit_star(ps, base, sampling.epsilon, region) if region else None
    marks.append(time.perf_counter())
    stages = {f"{name}_s": end - start for name, start, end in
              zip(("hull", "delaunay", "sampling", "analysis"), marks, marks[1:])}
    return GenericityAnalysis(points=ps, facets=facets, base=base, sampling=sampling,
                              deep_ids=deep_ids, stages=stages, _star=star)


def _audit_star(ps: PointSet, base: DelaunayResult, eps: float, region: tuple[int, ...]
                ) -> tuple[ProtectionReport, SafeInteriorClassification]:
    """Protection of the audited top simplices around a nonempty region."""
    cx = base.complex
    audited = tuple(
        s for s in cx.star(region).simplices(ps.dim) if s in base.balls
    )
    if not audited:
        raise PreconditionError("audited star contains no top simplices")
    per = {s: base.balls[s].protection for s in audited}
    delta = min(per.values())
    nu = max(min(delta, eps), 0.0) / eps
    report = ProtectionReport(
        per_simplex=per,
        delta_global=delta,
        nu_tilde=nu,
        generic=delta > ps.tolerance(),
    )
    return report, SafeInteriorClassification(
        region=region, safe=cx.vertex_star(region), audited=audited)


def thickness_certificate(analysis: GenericityAnalysis) -> ThicknessCertificate:
    """Certify the thickness floor sqrt(3) nu^2 / 4 on the safe simplices."""
    if not analysis.protection.generic:
        raise NonGenericError(
            f"protection {analysis.protection.delta_global:.3e} is within tolerance of zero"
        )
    nu = analysis.protection.nu_tilde
    upsilon0 = np.sqrt(3.0) * nu * nu / 4.0
    witnesses = []
    worst = np.inf
    for dim in range(1, analysis.base.complex.dimension + 1):
        for s in analysis.classification.safe.simplices(dim):
            met = analysis.metrics(s)
            worst = min(worst, met.thickness)
            witnesses.append((s, met.thickness, met.thickness >= upsilon0 - THICKNESS_SLACK))
    valid = all(w[2] for w in witnesses)
    return ThicknessCertificate(
        upsilon0=float(upsilon0),
        witnesses=tuple(witnesses),
        min_thickness=float(worst),
        margin=float(worst - upsilon0),
        valid=valid,
    )


# -- lemma audit -----------------------------------------------------------


@dataclass(frozen=True)
class SimplexAudit:
    """One audited top simplex with its measured quantities."""

    vertices: tuple[int, ...]
    radius: float
    protection: float
    thickness: float
    secure: bool


@dataclass(frozen=True)
class AuditRecord:
    """Joint audit of the geometric consequences of positive protection.

    ``checks`` maps each consequence to (pass, fail) counts: edge separation
    above the protection margin, altitude floors, the circumradius bound for
    simplices with a doubly deep vertex, and the thickness floor. When the
    data is not generic no per simplex claims are made.
    """

    epsilon: float
    sparsity: float
    mu0: float
    delta: float
    nu_tilde: float
    upsilon0: float
    generic: bool
    simplices: tuple[SimplexAudit, ...]
    checks: dict[str, tuple[int, int]]

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "sparsity": self.sparsity,
            "mu0": self.mu0,
            "delta": self.delta,
            "nu_tilde": self.nu_tilde,
            "upsilon0": self.upsilon0,
            "generic": self.generic,
            "simplices": [
                {
                    "vertices": list(s.vertices),
                    "radius": s.radius,
                    "protection": s.protection,
                    "thickness": s.thickness,
                    "secure": s.secure,
                }
                for s in self.simplices
            ],
            "checks": {
                name: {"pass": p, "fail": f}
                for name, (p, f) in sorted(self.checks.items())
            },
        }


def lemma_audit(analysis: GenericityAnalysis) -> AuditRecord:
    """Audit the geometric consequences of the measured protection.

    Per safe simplex: shortest edge above the protection margin and every
    altitude above sqrt(3) delta^2 / (2 eps). Per audited top simplex with a
    vertex at depth 2 eps or more: circumradius below eps. Thickness floor
    per the certificate. Secure flags combine protection, thickness, radius,
    and shortest edge thresholds with the consolidated parameters.
    """
    s0 = analysis.sampling
    delta = analysis.protection.delta_global
    nu = analysis.protection.nu_tilde
    upsilon0 = float(np.sqrt(3.0) * nu * nu / 4.0)
    if not analysis.protection.generic:
        return AuditRecord(
            epsilon=s0.epsilon, sparsity=s0.sparsity, mu0=s0.mu0,
            delta=delta, nu_tilde=nu, upsilon0=upsilon0, generic=False,
            simplices=(), checks={name: (0, 0) for name in
                                  ("separation", "altitude", "circumradius", "thickness")},
        )
    eps = s0.epsilon
    tol = analysis.tolerance
    pts = analysis.base.complex.points
    m = analysis.base.complex.dimension
    counts = {name: [0, 0] for name in ("separation", "altitude", "circumradius", "thickness")}

    def tally(name: str, ok: bool) -> None:
        counts[name][0 if ok else 1] += 1

    altitude_floor = np.sqrt(3.0) * delta * delta / (2.0 * eps)
    for dim in range(1, m + 1):
        for s in analysis.classification.safe.simplices(dim):
            met = analysis.metrics(s)
            tally("separation", met.shortest_edge > delta - tol)
            tally("altitude", bool(np.all(met.altitudes > altitude_floor - tol)))
            tally("thickness", met.thickness >= upsilon0 - THICKNESS_SLACK)

    depth = analysis.facets.depth(pts)
    audits = []
    for s in analysis.classification.audited:
        ball = analysis.base.balls[s]
        met = analysis.metrics(s)
        if np.max(depth[list(s)]) >= 2.0 * eps:
            tally("circumradius", ball.radius < eps + tol)
        secure = (
            ball.protection >= delta - tol
            and met.thickness >= upsilon0 - THICKNESS_SLACK
            and ball.radius < eps + tol
            and met.shortest_edge >= nu * eps - tol
        )
        audits.append(SimplexAudit(
            vertices=s, radius=float(ball.radius), protection=float(ball.protection),
            thickness=float(met.thickness), secure=secure,
        ))
    return AuditRecord(
        epsilon=eps, sparsity=s0.sparsity, mu0=s0.mu0, delta=delta,
        nu_tilde=nu, upsilon0=upsilon0, generic=True,
        simplices=tuple(audits),
        checks={name: (p, f) for name, (p, f) in counts.items()},
    )
