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
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .complexes import SimplicialComplex, _faces_of, sorted_rows
from .delaunay import DelaunayResult, PointSet, as_point_set, delaunay_lifted
from .errors import NonGenericError, PreconditionError
from .fileio import Table
from .hull import HullFacets, blocks, clip_lines, eroded_edges, hull_facets
from .simplex import SimplexColumns, simplex_metrics_batch

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


@dataclass(frozen=True, eq=False)
class ProtectionReport:
    """Protection margins of the audited top simplices, ``per_simplex``
    holding one per row of ``SafeInteriorClassification.audited``."""

    per_simplex: np.ndarray
    delta_global: float
    nu_tilde: float
    generic: bool


@dataclass(frozen=True, eq=False)
class SafeInteriorClassification:
    """The region and the simplex sets its choice induces.

    ``audited`` holds the top simplices of the region's double star, sorted
    rows of sorted vertex ids, and ``rows`` their rows in the Delaunay
    result. The safe tops are the audited rows that meet the region
    (``meets``); their closure, the safe star ``safe``, is built on first read.
    """

    region: tuple[int, ...]
    audited: np.ndarray  # (A, m+1)
    rows: np.ndarray     # (A,)

    @cached_property
    def meets(self) -> np.ndarray:
        return np.isin(self.audited, self.region).any(axis=1)

    @cached_property
    def safe(self) -> SimplicialComplex:
        return SimplicialComplex(map(tuple, self.audited[self.meets].tolist()))


@dataclass(frozen=True)
class ThicknessCertificate:
    """Certified thickness floor for the safe simplices. ``witnesses`` holds
    their metrics, one set of columns per dimension 1..m."""

    upsilon0: float
    witnesses: tuple[SimplexColumns, ...]
    min_thickness: float
    margin: float
    valid: bool


@dataclass(frozen=True)
class GenericityAnalysis:
    """One measurement of a point set, which every later stage reads: the
    hull, the hull depth of every point, the Delaunay complex, the sampling
    report, the deep interior and the protection audit of the region's
    double star.

    ``stages`` holds the seconds of each build. When the region is the
    empty deep interior, reading ``protection`` or ``classification``
    raises :class:`PreconditionError`.
    """

    points: PointSet
    facets: HullFacets
    depths: np.ndarray = field(repr=False)  # (n,) signed distance to the hull boundary
    base: DelaunayResult
    sampling: SamplingReport
    deep_ids: tuple[int, ...]
    stages: dict[str, float]
    _star: tuple[ProtectionReport, SafeInteriorClassification] | None = field(repr=False)

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

    @cached_property
    def audited_metrics(self) -> SimplexColumns:
        """Metrics of the audited top simplices, rows in the order of
        ``classification.audited``, from one batched kernel call."""
        return simplex_metrics_batch(self.points.points, self.classification.audited)

    @cached_property
    def safe_metrics(self) -> tuple[SimplexColumns, ...]:
        """Metrics of the safe simplices, one set of columns per dimension
        1..m, rows in sorted order.

        Every safe top simplex is audited, so the top dimension is a row
        subset of ``audited_metrics``. The faces of each lower dimension come
        from the safe tops in one pass, and take one batched kernel call.
        """
        safe = self.audited_metrics.take(self.classification.meets)
        faces = [simplex_metrics_batch(self.points.points, _faces_of(safe.vertices, k)[0])
                 for k in range(2, self.points.dim + 1)]
        return (*faces, safe)


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

    The Voronoi edge or face dual to a Delaunay face is the convex hull of
    the circumcentres of the top simplices around the face, unless every
    vertex of the face lies on the hull boundary or on the boundary of the
    Delaunay complex, where it may be unbounded.
    Each piece carries its range of hull depth and a bound on the distance
    to P over it, all from ``_piece_extremes`` and safe for rounding.
    ``line_depths`` and ``face_depths`` hold the least depth of those
    circumcentres, or -inf where the piece may be unbounded. Depth is
    concave, so a piece whose entry exceeds eps lies strictly inside the
    hull eroded by eps. ``line_peaks`` and ``face_peaks`` hold a bound on the
    depth over the piece, or +inf where it may be unbounded; a piece whose
    peak is below eps lies strictly outside the eroded hull. Outside the
    range [depth, peak] a piece does not meet the eroded boundary, so
    neither its edge line's clip ends nor its crossings with the body's
    edges are vertices of a clipped cell. ``line_bounds`` and
    ``face_bounds`` hold the largest circumradius of those top simplices, or
    +inf where the piece may be unbounded. On the piece the distance to P is
    the distance to a site of the face, which is convex and so peaks at a
    circumcentre: no point of a piece whose bound is below the best value
    can beat it.
    """

    centers: np.ndarray     # (s, m)
    radii: np.ndarray       # (s,)
    center_depths: np.ndarray  # (s,)
    origins: np.ndarray     # (l, m) a point of each edge line
    directions: np.ndarray  # (l, m) unit
    sites: np.ndarray       # (l, m)
    line_depths: np.ndarray  # (l,)
    line_peaks: np.ndarray   # (l,)
    line_bounds: np.ndarray  # (l,)
    faces: tuple[np.ndarray, np.ndarray] | None  # sites p, q, each (e, m)
    face_depths: np.ndarray | None  # (e,)
    face_peaks: np.ndarray | None   # (e,)
    face_bounds: np.ndarray | None  # (e,)


def _piece_extremes(faces: np.ndarray, inverse: np.ndarray, centers: np.ndarray,
                    depths: np.ndarray, radii: np.ndarray, interior: np.ndarray,
                    rounding: float):
    """Least depth, peak depth and largest radius over the top simplices
    around each face, for the face of each (subset, top) pair in
    ``inverse``, each moved to its safe side by ``rounding``, the peak also
    by a part of its terms; -inf, +inf and +inf for a face with no
    ``interior`` vertex.

    Depth is 1-Lipschitz, so on the convex hull of the centres it is at most
    the least centre depth plus the diagonal of their bounding box, and on
    the segment between two centres at most (d1 + d2 + |c1 - c2|) / 2.
    """
    f, reps = len(faces), inverse.size // depths.size
    least, most, largest = np.full(f, np.inf), np.full(f, -np.inf), np.full(f, -np.inf)
    np.minimum.at(least, inverse, np.tile(depths, reps))
    np.maximum.at(most, inverse, np.tile(depths, reps))
    np.maximum.at(largest, inverse, np.tile(radii, reps))
    # One coordinate at a time: ufunc.at is fast on 1-D operands only.
    lo = np.full((centers.shape[1], f), np.inf)
    hi = -lo
    for k, column in enumerate(centers.T):
        np.minimum.at(lo[k], inverse, np.tile(column, reps))
        np.maximum.at(hi[k], inverse, np.tile(column, reps))
    span = np.linalg.norm(hi - lo, axis=0)
    pair = np.bincount(inverse, minlength=f) == 2
    peaks = np.where(pair, 0.5 * (least + most + span), least + span)
    # Far centres round at their own magnitude, which the sum may cancel.
    peaks += rounding + 1e-12 * (np.abs(least) + np.abs(most) + span)
    least, largest = least - rounding, largest + rounding
    open_ = ~interior[faces].any(axis=1)
    least[open_], peaks[open_], largest[open_] = -np.inf, np.inf, np.inf
    return least, peaks, largest


def _voronoi_pieces(pts: np.ndarray, facets: HullFacets, base: DelaunayResult,
                    depths: np.ndarray) -> _VoronoiPieces:
    m = pts.shape[1]
    tops, centers, radii = base.tops, base.centres, base.radii
    rounding = 1e-12 * max(1.0, float(np.abs(pts).max()))
    center_depths = facets.depth(centers)
    # An interior vertex lies strictly inside the hull and on no ridge of
    # the complex's boundary, a ridge with one top simplex.
    ridges, ridge_tops = _faces_of(tops, m)
    interior = depths > rounding
    interior[ridges[np.bincount(ridge_tops) == 1]] = False
    pieces = (centers, center_depths, radii, interior, rounding)
    ridge_extremes = _piece_extremes(ridges, ridge_tops, *pieces)
    if m == 2:
        p, q = pts[ridges[:, 0]], pts[ridges[:, 1]]
        span = q - p
        directions = np.column_stack([-span[:, 1], span[:, 0]])
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        return _VoronoiPieces(centers, radii, center_depths, 0.5 * (p + q), directions, p,
                              *ridge_extremes, None, None, None, None)
    edges, edge_tops = _faces_of(tops, 2)
    edge_extremes = _piece_extremes(edges, edge_tops, *pieces)
    p, q = pts[edges[:, 0]], pts[edges[:, 1]]
    tri = pts[ridges]
    a, u, v = tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    normal = np.cross(u, v)
    area2 = np.einsum("ij,ij->i", normal, normal)
    ok = area2 > 0
    a, u, v, normal, area2 = a[ok], u[ok], v[ok], normal[ok], area2[ok, None]
    uu = np.einsum("ij,ij->i", u, u)[:, None]
    vv = np.einsum("ij,ij->i", v, v)[:, None]
    circumcentres = a + (uu * np.cross(v, normal) + vv * np.cross(normal, u)) / (2.0 * area2)
    directions = normal / np.sqrt(area2)
    return _VoronoiPieces(centers, radii, center_depths, circumcentres, directions, a,
                          *(x[ok] for x in ridge_extremes), (p, q), *edge_extremes)


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
    for rows in blocks(p.shape[0], a.shape[0]):
        sa = normal[rows] @ a.T - level[rows, None]
        sb = sa + normal[rows] @ span.T
        e, k = np.nonzero(sa * sb < 0)
        t = sa[e, k] / (sa[e, k] - sb[e, k])
        x = a[k] + t[:, None] * span[k]
        r = np.linalg.norm(x - p[rows.start + e], axis=1)
        keep = ((r > best) & (r <= fa[k] + t * length[k] + rounding)
                & (r <= fb[k] + (1.0 - t) * length[k] + rounding))
        out.append(x[keep])
    return np.concatenate(out)


def _coverage_radius(facets: HullFacets, vor: _VoronoiPieces, tree: cKDTree,
                     eps: float) -> float:
    """Largest distance to P over the hull eroded by eps, exactly.

    The distance to P is convex on each Voronoi cell, so its maximum over
    the eroded body sits at a vertex of some cell clipped to the body: a
    Voronoi vertex inside the body, a point where a Voronoi edge leaves the
    body, a vertex of the body or, in 3-D, a point where a Voronoi face
    crosses an edge of the body (Toussaint, *Computing largest empty circles
    with location constraints*, 1983). Edge lines and face planes are tested
    only where the depth range of their Voronoi piece holds eps, so that the
    piece can meet the body's boundary, and its circumradius bound can beat
    the best value so far (see ``_VoronoiPieces``). Every candidate lies in
    the body, so the largest distance over them is the maximum itself. A
    candidate goes through the KD-tree only when its distance to a site
    that defines it could beat the best so far.
    """
    best = 0.0
    inside = vor.center_depths >= eps - 1e-12 * max(1.0, eps)
    if inside.any():
        best = float(vor.radii[inside].max())
    a, b = eroded_edges(facets, eps)
    if a.shape[0] == 0:
        return best
    fa, fb = tree.query(a)[0], tree.query(b)[0]
    best = max(best, float(fa.max()), float(fb.max()))
    reach = (vor.line_depths <= eps) & (eps <= vor.line_peaks) & (vor.line_bounds >= best)
    origins, directions = vor.origins[reach], vor.directions[reach]
    lo, hi = clip_lines(facets, eps, origins, directions)
    hit = lo <= hi
    origins, directions, sites = origins[hit], directions[hit], vor.sites[reach][hit]
    ends = np.concatenate([origins + lo[hit, None] * directions,
                           origins + hi[hit, None] * directions])
    far = np.linalg.norm(ends - np.concatenate([sites] * 2), axis=1)
    ends = ends[far > best]
    if ends.size:
        best = max(best, float(tree.query(ends)[0].max()))
    if vor.faces is not None:
        reach = ((vor.face_depths <= eps) & (eps <= vor.face_peaks)
                 & (vor.face_bounds >= best))
        faces = (vor.faces[0][reach], vor.faces[1][reach])
        crossings = _face_crossings(faces, a, b, fa, fb, best)
        if crossings.size:
            best = max(best, float(tree.query(crossings)[0].max()))
    return best


def _fixed_point(g, tol: float, start: float = 0.0) -> float:
    """The least eps with g(eps) <= eps for a non-increasing g, returned on
    the safe side: never below it, and above it by at most about tol. A
    positive ``start`` is returned at once if g(start) == start, the only
    fixed point g can have; otherwise the solve runs from g(0)."""
    if start > 0 and g(start) == start:
        return start
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


def _circumcentre_fixed_point(vor: _VoronoiPieces) -> float:
    """Least circumradius r such that every circumcentre inside the hull
    eroded by r (the inside test of ``_coverage_radius``) has radius at most
    r, or 0 with no circumcentres. Sorted deepest first, the centres inside
    at any margin are a prefix, whose largest radius is a running max."""
    order = np.argsort(-vor.center_depths, kind="stable")
    peak = np.maximum.accumulate(vor.radii[order])
    r = np.unique(vor.radii)
    count = np.searchsorted(-vor.center_depths[order], -(r - 1e-12 * np.maximum(1.0, r)),
                            side="right")
    covered = np.where(count > 0, peak[count - 1], 0.0) <= r
    return float(r[covered][0]) if covered.any() else 0.0


def _sampling_radius(ps: PointSet, facets: HullFacets, base: DelaunayResult,
                     depths: np.ndarray) -> float:
    """Fixed point eps = g(eps) of the coverage radius of the eroded hull."""
    vor = _voronoi_pieces(ps.points, facets, base, depths)
    return _fixed_point(lambda eps: _coverage_radius(facets, vor, ps.tree, eps),
                        1e-9 * ps.diameter(), _circumcentre_fixed_point(vor))


def sampling_parameters(points, facets: HullFacets, base: DelaunayResult,
                        depths: np.ndarray) -> SamplingReport:
    """Measure the sampling radius, the sparsity, and their ratio from the
    hull, the hull depths of the points and their Delaunay complex.

    The sampling radius solves eps = sup over the eps-eroded hull of the
    distance to the set; the sup shrinks as the erosion grows, so the
    equation has a unique fixed point. The solve first tries the
    circumcentres' own fixed point (``_circumcentre_fixed_point``) and keeps
    it only if the sup there equals it exactly; otherwise two rounds of
    fixed point iteration from the sup at 0 run, then bisection down to 1e-9
    of the diameter. Each sup is computed exactly from a finite candidate
    set (see ``_coverage_radius``), and the returned eps is never below the
    fixed point.
    """
    ps = as_point_set(points)
    eps, sparsity = _sampling_radius(ps, facets, base, depths), ps.min_gap()
    return SamplingReport(epsilon=eps, sparsity=sparsity, mu0=sparsity / eps)


def deep_interior(points, eps: float, depths: np.ndarray) -> set[int]:
    """Vertices whose distance to the hull boundary, given as ``depths``, is
    at least 4 eps."""
    slack = 1e-12 * max(1.0, as_point_set(points).diameter())
    return {int(i) for i in np.nonzero(depths >= 4.0 * eps - slack)[0]}


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
    depths = facets.depth(ps.points)
    marks.append(time.perf_counter())
    base = delaunay_lifted(ps)
    marks.append(time.perf_counter())
    sampling = sampling_parameters(ps, facets, base, depths)
    marks.append(time.perf_counter())
    deep = deep_interior(ps, sampling.epsilon, depths)
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
    return GenericityAnalysis(points=ps, facets=facets, depths=depths, base=base,
                              sampling=sampling, deep_ids=deep_ids, stages=stages,
                              _star=star)


def _audit_star(ps: PointSet, base: DelaunayResult, eps: float, region: tuple[int, ...]
                ) -> tuple[ProtectionReport, SafeInteriorClassification]:
    """Protection of the audited top simplices around a nonempty region.

    The safe star is the closure of the top simplices that meet the region.
    The audited set is the wider double star: the top simplices that meet a
    vertex of a safe top simplex, in sorted order.
    """
    rows = sorted_rows(base.tops, ps.n)
    tops = base.tops[rows]
    meets = np.isin(tops, region).any(axis=1)
    audited = np.isin(tops, tops[meets]).any(axis=1)
    if not audited.any():
        raise PreconditionError("audited star contains no top simplices")
    rows = rows[audited]
    per = base.protections[rows]
    delta = float(per.min())
    nu = max(min(delta, eps), 0.0) / eps
    report = ProtectionReport(
        per_simplex=per,
        delta_global=delta,
        nu_tilde=nu,
        generic=delta > ps.tolerance(),
    )
    return report, SafeInteriorClassification(region=region, audited=tops[audited], rows=rows)


def thickness_certificate(analysis: GenericityAnalysis) -> ThicknessCertificate:
    """Certify the thickness floor sqrt(3) nu^2 / 4 on the safe simplices."""
    if not analysis.protection.generic:
        raise NonGenericError(
            f"protection {analysis.protection.delta_global:.3e} is within tolerance of zero"
        )
    nu = analysis.protection.nu_tilde
    upsilon0 = np.sqrt(3.0) * nu * nu / 4.0
    witnesses = analysis.safe_metrics
    worst = min(float(cols.thickness.min()) for cols in witnesses)
    return ThicknessCertificate(
        upsilon0=float(upsilon0),
        witnesses=witnesses,
        min_thickness=worst,
        margin=float(worst - upsilon0),
        valid=bool(worst >= upsilon0 - THICKNESS_SLACK),
    )


# -- lemma audit -----------------------------------------------------------

_CHECKS = ("separation", "altitude", "circumradius", "thickness")


@dataclass(frozen=True)
class AuditRecord:
    """Joint audit of the geometric consequences of positive protection.

    ``checks`` maps each consequence to (pass, fail) counts: edge separation
    above the protection margin, altitude floors, the circumradius bound for
    simplices with a doubly deep vertex, and the thickness floor.
    ``simplices`` is the table of the audited top simplices, with columns
    vertices, radius, protection, thickness and secure. When the data is not
    generic no per simplex claims are made and the table is empty.
    """

    epsilon: float
    sparsity: float
    mu0: float
    delta: float
    nu_tilde: float
    upsilon0: float
    generic: bool
    simplices: Table
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
            "simplices": self.simplices,
            "checks": {
                name: {"pass": p, "fail": f}
                for name, (p, f) in sorted(self.checks.items())
            },
        }


def _count(ok: np.ndarray) -> tuple[int, int]:
    hits = int(np.count_nonzero(ok))
    return hits, ok.size - hits


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
    m = analysis.points.dim
    if not analysis.protection.generic:
        empty = Table(vertices=np.zeros((0, m + 1), dtype=np.intp), radius=np.zeros(0),
                      protection=np.zeros(0), thickness=np.zeros(0),
                      secure=np.zeros(0, dtype=bool))
        return AuditRecord(
            epsilon=s0.epsilon, sparsity=s0.sparsity, mu0=s0.mu0,
            delta=delta, nu_tilde=nu, upsilon0=upsilon0, generic=False,
            simplices=empty, checks={name: (0, 0) for name in _CHECKS},
        )
    eps = s0.epsilon
    tol = analysis.tolerance
    altitude_floor = np.sqrt(3.0) * delta * delta / (2.0 * eps)
    safe = analysis.safe_metrics
    passed = {
        "separation": [cols.shortest_edge > delta - tol for cols in safe],
        "altitude": [(cols.altitudes > altitude_floor - tol).all(axis=1) for cols in safe],
        "thickness": [cols.thickness >= upsilon0 - THICKNESS_SLACK for cols in safe],
    }
    counts = {name: _count(np.concatenate(oks)) for name, oks in passed.items()}

    tops = analysis.audited_metrics
    radius = analysis.base.radii[analysis.classification.rows]
    protection = analysis.protection.per_simplex
    small = radius < eps + tol
    doubly_deep = analysis.depths[tops.vertices].max(axis=1) >= 2.0 * eps
    counts["circumradius"] = _count(small[doubly_deep])
    secure = ((protection >= delta - tol)
              & (tops.thickness >= upsilon0 - THICKNESS_SLACK)
              & small
              & (tops.shortest_edge >= nu * eps - tol))
    return AuditRecord(
        epsilon=eps, sparsity=s0.sparsity, mu0=s0.mu0, delta=delta,
        nu_tilde=nu, upsilon0=upsilon0, generic=True,
        simplices=Table(vertices=tops.vertices, radius=radius, protection=protection,
                        thickness=tops.thickness, secure=secure),
        checks={name: counts[name] for name in _CHECKS},
    )
