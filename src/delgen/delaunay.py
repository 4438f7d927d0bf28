"""Euclidean Delaunay complexes by two independent routes, plus relaxation.

* :func:`delaunay_bruteforce` enumerates every (m+1)-subset and keeps those
  whose circumball contains no foreign point beyond tolerance. This is the
  oracle route: slow, transparent, and the reference the fast route is held
  against.
* :func:`delaunay_lifted` gets the same complex from the lower convex hull of
  the paraboloid lift (via qhull), then recanonicalises cospherical groups so
  arbitrary triangulation choices inside a degenerate group cannot leak into
  the output.
* :func:`relaxed_delaunay` decides membership in the almost empty ball
  complex by a certified Lipschitz branch and bound over candidate centres.

All accept decisions share one tolerance, tau = 1e-9 * diameter; each
accepted top simplex is stored with its ball and a signed protection margin
(least distance of a foreign point to the sphere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.spatial import Delaunay as _SciDelaunay
from scipy.spatial import QhullError, cKDTree
from scipy.spatial.distance import cdist, pdist

from .complexes import SimplicialComplex
from .errors import PreconditionError
from .hull import affine_rank

PROTECTION_RTOL = 1e-9


class PointSet:
    """Finite indexed point set in R^m with exact duplicate rejection."""

    __slots__ = ("points", "_diameter", "_min_gap")

    def __init__(self, points) -> None:
        pts = np.ascontiguousarray(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise PreconditionError("points must form a nonempty (n, m) array")
        if not np.all(np.isfinite(pts)):
            raise PreconditionError("points must be finite")
        # Adding zero turns -0.0 into 0.0, so equal bytes mean equal values.
        seen = {p.tobytes() for p in pts + 0.0}
        if len(seen) != pts.shape[0]:
            raise PreconditionError("duplicate points rejected")
        self.points = pts
        self._diameter: float | None = None
        self._min_gap: float | None = None

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def diameter(self) -> float:
        if self._diameter is None:
            self._diameter = float(pdist(self.points).max()) if self.n > 1 else 0.0
        return self._diameter

    def min_gap(self) -> float:
        """Least pairwise distance (the sparsity bound)."""
        if self._min_gap is None:
            if self.n < 2:
                raise PreconditionError("sparsity needs at least two points")
            self._min_gap = float(pdist(self.points).min())
        return self._min_gap

    def tolerance(self) -> float:
        return PROTECTION_RTOL * self.diameter()


def as_point_set(points) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(points)


@dataclass(frozen=True)
class Ball:
    """Circumball of an accepted top simplex with its protection margin."""

    simplex: tuple[int, ...]
    center: np.ndarray
    radius: float
    protection: float


@dataclass(frozen=True)
class DelaunayResult:
    """A Delaunay complex plus the certification data behind it."""

    complex: SimplicialComplex
    balls: dict[tuple[int, ...], Ball]
    degeneracy_groups: tuple[tuple[int, ...], ...]
    generic: bool
    tolerance: float

    def protection(self) -> float:
        """Least protection over all top simplices (signed)."""
        if not self.balls:
            raise PreconditionError("no top simplices")
        return min(b.protection for b in self.balls.values())


def _batched_circumballs(pts: np.ndarray, subsets: np.ndarray):
    """Circumcentres of (m+1)-subsets; returns (centres, radii, solvable)."""
    v = pts[subsets]  # (s, m+1, m)
    a = v[:, 1:, :] - v[:, :1, :]  # (s, m, m)
    b = 0.5 * (a**2).sum(axis=2)
    dets = np.abs(np.linalg.det(a))
    scale = np.prod(np.linalg.norm(a, axis=2), axis=1)
    good = dets > 1e-12 * np.maximum(scale, 1e-300)
    centers = np.full((subsets.shape[0], pts.shape[1]), np.nan)
    radii = np.full(subsets.shape[0], np.nan)
    if good.any():
        sol = np.linalg.solve(a[good], b[good][..., None])[..., 0]
        centers[good] = v[good, 0, :] + sol
        radii[good] = np.linalg.norm(sol, axis=1)
    return centers, radii, good


def _margins_and_groups(pts, subsets, centers, radii, tol):
    """Protection margins and cospherical groups for candidate balls."""
    d = cdist(centers, pts)
    margins = d - radii[:, None]
    rows = np.repeat(np.arange(subsets.shape[0]), subsets.shape[1])
    cols = subsets.ravel()
    shifted = margins.copy()
    shifted[rows, cols] = np.inf
    protection = shifted.min(axis=1)
    near = np.abs(margins) <= tol
    return protection, near


def _degenerate_rescue(pts, subset, tol):
    """Delaunay test for an affinely dependent subset via its smallest ball."""
    v = pts[list(subset)]
    a = (v[1:] - v[0]).T
    b = 0.5 * (a**2).sum(axis=0)
    x, *_ = np.linalg.lstsq(a.T, b, rcond=None)
    if np.abs(a.T @ x - b).max() > tol * max(np.abs(b).max(), 1.0):
        return None
    c = v[0] + x
    r = float(np.linalg.norm(pts[list(subset)] - c, axis=1).max())
    d = np.linalg.norm(pts - c, axis=1)
    margins = d - r
    margins[list(subset)] = np.inf
    protection = float(margins.min())
    if protection <= -tol:
        return None
    return c, r, protection


def _build_result(pts: np.ndarray, accepted, balls, groups, tol) -> DelaunayResult:
    cx = SimplicialComplex(accepted, pts)
    generic = len(groups) == 0
    return DelaunayResult(
        complex=cx,
        balls=balls,
        degeneracy_groups=tuple(sorted(groups)),
        generic=generic,
        tolerance=tol,
    )


def _check_input(ps: PointSet) -> None:
    m = ps.dim
    if ps.n < m + 1:
        raise PreconditionError("need at least m+1 points")
    if affine_rank(ps.points) < m:
        raise PreconditionError("point set is not full dimensional")


def delaunay_bruteforce(points) -> DelaunayResult:
    """Delaunay complex by exhaustive circumball tests.

    A candidate (m+1)-subset is accepted when no foreign point sits deeper
    than tolerance inside its circumball; points within tolerance of the
    sphere are gathered into cospherical groups, and any group with more than
    m+1 members marks the input as non generic.
    """
    ps = as_point_set(points)
    _check_input(ps)
    pts = ps.points
    n, m = ps.n, ps.dim
    tol = ps.tolerance()
    subsets = np.array(list(combinations(range(n), m + 1)), dtype=int)
    centers, radii, solvable = _batched_circumballs(pts, subsets)
    accepted: list[tuple[int, ...]] = []
    balls: dict[tuple[int, ...], Ball] = {}
    groups: set[tuple[int, ...]] = set()
    idx = np.nonzero(solvable)[0]
    if idx.size:
        protection, near = _margins_and_groups(
            pts, subsets[idx], centers[idx], radii[idx], tol
        )
        keep = protection > -tol
        for k, row in enumerate(idx):
            if not keep[k]:
                continue
            simplex = tuple(int(i) for i in subsets[row])
            accepted.append(simplex)
            balls[simplex] = Ball(
                simplex=simplex,
                center=centers[row].copy(),
                radius=float(radii[row]),
                protection=float(protection[k]),
            )
        # Degeneracy groups come from accepted balls only.
        acc_near = near[keep]
        sizes = acc_near.sum(axis=1)
        for k in np.nonzero(sizes > m + 1)[0]:
            groups.add(tuple(int(i) for i in np.nonzero(acc_near[k])[0]))
    # Affinely dependent subsets can still be Delaunay when concyclic.
    for row in np.nonzero(~solvable)[0]:
        rescue = _degenerate_rescue(pts, subsets[row], tol)
        if rescue is None:
            continue
        c, r, protection = rescue
        simplex = tuple(int(i) for i in subsets[row])
        accepted.append(simplex)
        balls[simplex] = Ball(simplex=simplex, center=c, radius=r, protection=protection)
        d = np.linalg.norm(pts - c, axis=1)
        group = tuple(int(i) for i in np.nonzero(np.abs(d - r) <= tol)[0])
        if len(group) > m + 1:
            groups.add(group)
    if not accepted:
        raise PreconditionError("no Delaunay top simplex found")
    return _build_result(pts, accepted, balls, groups, tol)


def _lifted_top_simplices(pts: np.ndarray) -> np.ndarray:
    n, m = pts.shape
    if n == m + 1:
        return np.arange(n, dtype=int)[None, :]
    try:
        tri = _SciDelaunay(pts)
    except QhullError as exc:  # pragma: no cover - guarded by _check_input
        raise PreconditionError(f"lifted construction failed: {exc}") from exc
    return np.sort(tri.simplices, axis=1)


def delaunay_lifted(points) -> DelaunayResult:
    """Delaunay complex via the paraboloid lift (qhull), then canonicalised.

    qhull triangulates cospherical groups arbitrarily; every ball here is
    recomputed directly, groups are detected with the shared tolerance, and
    each over-full group is completed with all of its affinely independent
    (m+1)-subsets so the output is a canonical function of the input alone
    and agrees with :func:`delaunay_bruteforce` on generic data.
    """
    ps = as_point_set(points)
    _check_input(ps)
    pts = ps.points
    m = ps.dim
    tol = ps.tolerance()
    subsets = np.unique(_lifted_top_simplices(pts), axis=0)
    centers, radii, solvable = _batched_circumballs(pts, subsets)
    subsets, centers, radii = subsets[solvable], centers[solvable], radii[solvable]
    if subsets.shape[0] == 0:
        raise PreconditionError("lifted construction produced no full rank simplex")
    protection, near = _margins_and_groups(pts, subsets, centers, radii, tol)
    keep = protection > -tol
    accepted = [tuple(int(i) for i in s) for s in subsets[keep]]
    balls = {
        simplex: Ball(
            simplex=simplex,
            center=centers[k].copy(),
            radius=float(radii[k]),
            protection=float(protection[k]),
        )
        for simplex, k in zip(accepted, np.nonzero(keep)[0])
    }
    groups = set()
    sizes = near[keep].sum(axis=1)
    for k in np.nonzero(sizes > m + 1)[0]:
        groups.add(tuple(int(i) for i in np.nonzero(near[keep][k])[0]))
    # Complete each cospherical group: every full rank (m+1)-subset of a
    # common empty sphere is Delaunay, whatever diagonal qhull picked.
    known = set(accepted)
    for group in sorted(groups):
        extra = [
            s
            for s in combinations(group, m + 1)
            if s not in known
        ]
        if not extra:
            continue
        esub = np.array(extra, dtype=int)
        ec, er, egood = _batched_circumballs(pts, esub)
        if not egood.any():
            continue
        eprot, _ = _margins_and_groups(pts, esub[egood], ec[egood], er[egood], tol)
        for s, c, r, p in zip(esub[egood], ec[egood], er[egood], eprot):
            if p > -tol:
                simplex = tuple(int(i) for i in s)
                known.add(simplex)
                accepted.append(simplex)
                balls[simplex] = Ball(
                    simplex=simplex, center=c.copy(), radius=float(r), protection=float(p)
                )
    return _build_result(pts, accepted, balls, groups, tol)


# -- relaxed (almost empty ball) membership --------------------------------


@dataclass(frozen=True)
class RelaxedResult:
    """Relaxed Delaunay star of a region, with certification data."""

    complex: SimplicialComplex
    rho: float
    witnesses: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)
    undecided: tuple[tuple[int, ...], ...] = ()
    tolerance: float = 0.0

    @property
    def certified(self) -> bool:
        return not self.undecided


def _ball_gap(c: np.ndarray, member_pts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """g(c) = enclosing radius of the member points minus nearest point gap,
    for each row c; g(c) <= 0 exactly at centres of empty member balls."""
    c2 = np.atleast_2d(c)
    need = cdist(c2, member_pts).max(axis=1)
    have = cdist(c2, pts).min(axis=1)
    return need - have


def _branch_and_bound(gap, seed, radius, lipschitz, threshold, max_nodes=20000):
    """Search the cube of half width ``radius`` around ``seed`` for a centre
    c with gap(c) <= threshold, or certify that none exists.

    ``gap`` maps rows of centres to values. A cube of half width h centred
    where gap was measured cannot hide a value below gap - lipschitz * h, so
    such cubes are pruned and the rest split into 2^m halves. Returns
    (verdict, witness): verdict True/False/None for found (with the first
    hit as witness), certified absent, or undecided once more than
    ``max_nodes`` cubes stay alive.
    """
    m = seed.shape[0]
    offs = np.array(
        [[(1 if bit & (1 << k) else -1) for k in range(m)] for bit in range(2**m)],
        dtype=float,
    )
    centers = seed[None, :].copy()
    halves = np.array([radius])
    nodes = 0
    while centers.shape[0]:
        # Blocks of rows keep gap's (rows, n) distance tables small.
        vals = np.concatenate([gap(centers[i:i + 4096])
                               for i in range(0, centers.shape[0], 4096)])
        hit = np.nonzero(vals <= threshold)[0]
        if hit.size:
            return True, centers[hit[0]].copy()
        alive = vals - lipschitz * halves <= threshold
        centers, halves = centers[alive], halves[alive]
        nodes += centers.shape[0]
        if nodes > max_nodes:
            return None, None
        new_halves = halves / 2.0
        centers = (centers[:, None, :] + offs[None, :, :] * new_halves[:, None, None]).reshape(-1, m)
        halves = np.repeat(new_halves, offs.shape[0])
    return False, None


def _star_candidates(pts, region, reach, sizes):
    """Simplices of a vertex v in ``region`` and k more vertices within
    ``reach`` of v, for each k in ``sizes``, of diameter at most ``reach``.

    Each is yielded once, sorted, in visiting order: region vertex, then
    size, then combination of the KD-tree ball around the vertex.
    """
    tree = cKDTree(pts)
    seen: set[tuple[int, ...]] = set()
    for v in region:
        pool = [q for q in sorted(tree.query_ball_point(pts[v], reach)) if q != v]
        for size in sizes:
            for combo in combinations(pool, size):
                cand = tuple(sorted((v, *combo)))
                if cand in seen:
                    continue
                seen.add(cand)
                if pdist(pts[list(cand)]).max() <= reach:
                    yield cand


def relaxed_delaunay(points, rho: float, region, *, eps: float,
                     base: DelaunayResult) -> RelaxedResult:
    """Star of ``region`` in the almost empty ball complex at slack ``rho``.

    A candidate simplex (any dimension, one vertex in the region, diameter at
    most 2 eps) belongs when some centre c satisfies

        max_{p in sigma} |c - p|  <=  min_{q in P} |c - q| + rho.

    Membership is decided with an explicit witness centre; non membership is
    certified by branch and bound over the ball of radius 4 eps around the
    candidate circumcentre. Candidates that exhaust the search budget are
    reported in ``undecided`` and leave the result non certified. ``eps`` is
    the sampling radius and ``base`` the Delaunay complex of the points,
    whose balls seed the witness search.
    """
    ps = as_point_set(points)
    if not np.isfinite(rho) or rho < 0:
        raise PreconditionError("rho must be finite and nonnegative")
    region = sorted({int(v) for v in region})
    if not region:
        raise PreconditionError("region must be nonempty")
    if any(v < 0 or v >= ps.n for v in region):
        raise PreconditionError("region vertex outside point set")
    pts = ps.points
    m = ps.dim
    tol = ps.tolerance()
    ball_centers: dict[tuple[int, ...], list[np.ndarray]] = {}
    for simplex, ball in base.balls.items():
        for k in range(1, len(simplex) + 1):
            for face in combinations(simplex, k):
                ball_centers.setdefault(face, []).append(ball.center)

    members: list[tuple[int, ...]] = [(v,) for v in region]
    witnesses: dict[tuple[int, ...], np.ndarray] = {(v,): pts[v].copy() for v in region}
    undecided: list[tuple[int, ...]] = []
    for cand in _star_candidates(pts, region, 2.0 * eps + tol, range(1, m + 1)):
        verdict, witness = _decide_candidate(
            pts[list(cand)], pts, rho, tol, eps, ball_centers.get(cand, [])
        )
        if verdict is True:
            members.append(cand)
            witnesses[cand] = witness
        elif verdict is None:
            undecided.append(cand)
    cx = SimplicialComplex(members, pts)
    return RelaxedResult(
        complex=cx,
        rho=rho,
        witnesses=witnesses,
        undecided=tuple(sorted(undecided)),
        tolerance=tol,
    )


def _decide_candidate(member_pts, pts, rho, tol, eps, known_centers):
    from .simplex import circumcenter

    ball = circumcenter(member_pts)
    seed = ball[0] if ball is not None else member_pts.mean(axis=0)
    for c in [seed, *known_centers]:
        if _ball_gap(c, member_pts, pts)[0] <= rho + tol:
            return True, np.asarray(c, dtype=float).copy()
    return _branch_and_bound(
        lambda c: _ball_gap(c, member_pts, pts), seed, 4.0 * eps,
        2.0 * np.sqrt(pts.shape[1]), rho + tol,
    )
