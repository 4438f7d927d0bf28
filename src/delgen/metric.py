"""Perturbed metrics and the Delaunay complexes they induce.

A metric model is the pullback distance d(x, y) = |phi(x) - phi(y)| for a
smooth bijection phi = id + disp built from a bounded sinusoidal
displacement field. It is a genuine metric that deviates from the
Euclidean one by at most ``rho_bound`` = 2 * amplitude, and it admits an
exact fast route through the Euclidean complex of phi(P). The Euclidean
distance itself is the pullback of a zero-amplitude field.

Metric circumcentres are found by damped Newton iteration on the vertex
distance differences, seeded at the Euclidean circumcentre; metric Delaunay
complexes are built either by that generic route, by the exact pullback
route, or by both with a hard comparison. The Newton routes of several
metrics run as one stack: the candidates of every metric, each row tagged
with its field, share each Newton pass and one evaluation of the stacked
fields (:class:`_FieldStack`) per step, and each row is computed on its
own. The candidates whose Newton search fails are decided together by the
stacked branch and bound of :mod:`delgen.delaunay` on the metric gap. The
pullback route inverts every kept ball centre in one call, each row
stopping on its own test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .complexes import SimplicialComplex, _holds_any, sorted_rows
from .delaunay import (_ball_gap, _branch_and_bound, _checked_region, _empty_balls, _seeds,
                       _Windows, as_point_set, delaunay_lifted)
from .errors import PathMismatchError, PreconditionError
from .simplex import Simplex, _norms, _solve_rows, circumballs, simplex_metrics_batch


# Sinusoids per displacement coordinate.
_TERMS = 3


class DisplacementField:
    """Smooth bounded displacement x -> x + disp(x) with small Lipschitz norm.

    Each displacement coordinate is a mean of ``_TERMS`` sinusoids; the field
    satisfies |disp(x)| <= amplitude everywhere and its Lipschitz constant is
    certified below 1/2, which makes phi = id + disp a bijection and the
    pullback distance a genuine metric with deviation at most 2 * amplitude.
    """

    def __init__(self, dim: int, amplitude: float, seed: int) -> None:
        if not np.isfinite(amplitude) or amplitude < 0:
            raise PreconditionError("amplitude must be finite and nonnegative")
        if seed < 0:
            raise PreconditionError("seed must be nonnegative")
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(dim, _TERMS, dim))
        norms = np.linalg.norm(w, axis=2, keepdims=True)
        norms[norms == 0] = 1.0
        scale = np.pi * rng.uniform(0.5, 1.5, size=(dim, _TERMS, 1))
        w = w / norms * scale
        self.phases = rng.uniform(0.0, 2.0 * np.pi, size=(dim, _TERMS))
        self.dim = int(dim)
        self.amplitude = float(amplitude)
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
        """Invert phi by contraction; converges since Lipschitz < 1/2.

        Each row stops on its own test, |step|_max <= 1e-15 max(1, |y|_max)
        over that row, and is frozen from then on, so a row's inverse does
        not depend on the other rows of the call.
        """
        y = np.atleast_2d(np.asarray(y, dtype=float))
        x = y.copy()
        stop = 1e-15 * np.maximum(1.0, np.abs(y).max(axis=1))
        live = np.arange(y.shape[0])
        for _ in range(200):
            if not live.size:
                break
            step = y[live] - self.displacement(x[live]) - x[live]
            x[live] = x[live] + step
            live = live[np.abs(step).max(axis=1) > stop[live]]
        return x


class _FieldStack:
    """Fields stacked by index: ``forward(x, rows)`` maps each row x[i] by
    field rows[i], with the bits of that field's own ``forward`` on the
    row. Rows of :class:`DisplacementField` stacks are evaluated together
    from the stacked sinusoid parameters, each row in the order of
    :meth:`DisplacementField.displacement`; any other field is called on
    its own rows. A single field is a stack of one."""

    def __init__(self, fields) -> None:
        self.fields = list(fields)
        self.sinusoids = all(isinstance(f, DisplacementField) for f in self.fields)
        if self.sinusoids:
            self.waves = np.stack([f.waves for f in self.fields])
            self.phases = np.stack([f.phases for f in self.fields])
            self.gains = np.array([f.amplitude / np.sqrt(f.dim) for f in self.fields])

    def forward(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if not self.sinusoids:
            out = np.empty_like(x)
            for k, field in enumerate(self.fields):
                at = np.flatnonzero(rows == k)
                out[at] = field.forward(x[at])
            return out
        # Each row's sums run over the same contiguous last axis as in
        # displacement, so einsum adds their terms in the same order.
        args = np.einsum("nj,nikj->nik", x, self.waves[rows]) + self.phases[rows]
        return x + self.gains[rows, None] * np.sin(args).mean(axis=2)


class MetricModel:
    """Pullback distance d(x, y) = |phi(x) - phi(y)| of a displacement field.

    Its Euclidean deviation is at most ``rho_bound`` = 2 * amplitude, and
    ``center_lipschitz`` = 1 + Lip(disp) bounds the Lipschitz constant of phi.
    """

    def __init__(self, field: DisplacementField) -> None:
        self.field = field
        self.rho_bound = 2.0 * field.amplitude
        self.center_lipschitz = 1.0 + field.lipschitz

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
                        upsilon0: float | None = None, mu0: float | None = None):
    """Equidistant centre of a full dimensional simplex under a metric model.

    Runs damped Newton on f(c) = (d(c, p_i) - d(c, p_0))_i from the Euclidean
    circumcentre, within a search ball that follows the circumcentre
    displacement bound 8 rho / (upsilon0 mu0) when those certified
    parameters are supplied, and a conservative variant derived from the
    simplex itself otherwise.

    Returns ``(centre, radius)`` with vertex distance spread below
    1e-9 * circumradius, or ``None`` when the search does not converge,
    as on a field whose Jacobian is singular at the circumcentre; the
    metric Delaunay routes decide such a simplex by branch and bound. This
    is a one-row call into the stacked search of
    :func:`_metric_circumcenters`.
    """
    s = simplex if isinstance(simplex, Simplex) else Simplex(simplex)
    if s.dim != s.ambient_dim:
        raise PreconditionError("metric circumcentre needs a full dimensional simplex")
    rows = np.arange(s.dim + 1)[None]
    mets = simplex_metrics_batch(s.vertices, rows)
    balls = circumballs(s.vertices, rows)
    _, _, solved = balls
    if mets.degenerate[0] or not solved[0]:
        raise PreconditionError("metric circumcentre needs a non-degenerate simplex")
    centres, radii, found = _metric_circumcenters(
        s.vertices, rows, mets, balls, model, upsilon0, mu0)
    return (centres[0], float(radii[0])) if found[0] else None


def _metric_circumcenters(pts, simplices, mets, balls, model, upsilon0, mu0, owner=None):
    """Metric circumcentres of a stack of full dimensional simplices.

    ``simplices`` holds C rows of m+1 indices into ``pts``, ``mets`` their
    :func:`simplex_metrics_batch` columns and ``balls`` their
    :func:`circumballs`. ``model`` is one :class:`MetricModel`, or a list of
    them with ``owner`` naming each row's. Every row runs damped Newton
    under its model from its Euclidean circumcentre. The rows of every model
    share one pass, and each row is computed on its own. Degenerate rows are
    not searched. Returns ``(centres, radii, found)``.
    """
    idx = np.asarray(simplices, dtype=np.intp)
    count, m = idx.shape[0], pts.shape[1]
    models = [model] if owner is None else list(model)
    owner = np.zeros(count, dtype=np.intp) if owner is None else owner
    centres, radii = np.zeros((count, m)), np.zeros(count)
    found = np.zeros(count, dtype=bool)
    euclid_centres, euclid_radii, solved = balls
    rows = ~mets.degenerate & solved
    if not rows.any():
        return centres, radii, found
    c0, r0, own = euclid_centres[rows], euclid_radii[rows], owner[rows]
    rho = np.array([mod.rho_bound for mod in models])[own]
    if upsilon0 and mu0:
        search_radii = 8.0 * rho / (upsilon0 * mu0) + 0.05 * r0
    else:
        # Fall back to the same bound with eps read off as 2 R and the
        # sparsity taken from the simplex itself.
        sparse = mets.thickness[rows] * mets.shortest_edge[rows]
        search_radii = 16.0 * rho * r0 / np.maximum(sparse, 1e-300) + 0.05 * r0
    phi = _FieldStack(mod.field for mod in models)
    verts = pts[idx[rows]]
    image = phi.forward(verts.reshape(-1, m), np.repeat(own, m + 1)).reshape(verts.shape)
    far = np.maximum(4.0 * search_radii, 10.0 * r0)
    centres[rows], radii[rows], found[rows] = _newton_stack(
        c0 + np.zeros(m), image, phi, own, r0, c0, far)
    return centres, radii, found


def _newton_stack(c, image, phi, owner, r0, seed_center, far):
    """Damped Newton on f(c) = (d(c, p_i) - d(c, p_0))_i, one row per simplex.

    Row k starts at ``c[k]``; ``image[k]`` holds the images of its vertices
    under field ``owner[k]`` of the stack ``phi`` (:class:`_FieldStack`).
    The Jacobian is a central difference of step h = max(1e-7 r0, 1e-12),
    every line search halves its step from 1 down to 1e-4, and a row fails
    when its solve is singular or not finite, its line search finds no
    decrease, or it strays more than ``far`` from ``seed_center``. Returns
    ``(centres, radii, converged)``; a row converges when its vertex
    distances spread less than 1e-9 r0 within 60 steps.
    """
    count, m = c.shape
    c = c.copy()
    tol = 1e-9 * r0
    h = np.maximum(1e-7 * r0, 1e-12)
    probe = np.concatenate([np.eye(m), -np.eye(m)])
    radii, done = np.zeros(count), np.zeros(count, dtype=bool)

    def dist(x, rows):
        """Distances (rows, k, m+1) from k centres per row to its vertices."""
        fx = phi.forward(x.reshape(-1, m), np.repeat(owner[rows], x.shape[1])).reshape(x.shape)
        return np.linalg.norm(image[rows][:, None] - fx[:, :, None], axis=-1)

    live = np.arange(count)
    # Each row's distances at its current centre: a step's accepted trial
    # centre is the next step's centre, so its distances are kept.
    at_c = dist(c[:, None], live)[:, 0]
    for it in range(61):
        d = at_c[live]
        conv = _spread(d) < tol[live]
        done[live[conv]] = True
        radii[live[conv]] = d[conv].mean(axis=1)
        live, d = live[~conv], d[~conv]
        if it == 60 or not live.size:
            break
        f = d[:, 1:] - d[:, :1]
        g = dist(c[live][:, None] + h[live, None, None] * probe, live)
        g = g[..., 1:] - g[..., :1]
        jac = ((g[:, :m] - g[:, m:]) / (2.0 * h[live])[:, None, None]).transpose(0, 2, 1)
        step, solved = _solve_rows(jac, -f)
        base = np.abs(f).max(axis=1)
        search = np.flatnonzero(solved & np.isfinite(step).all(axis=1))
        moved = np.zeros(live.size, dtype=bool)
        t = 1.0
        while t > 1e-4 and search.size:
            rows = live[search]
            trial = c[rows] + t * step[search]
            dt = dist(trial[:, None], rows)[:, 0]
            better = ((np.abs(dt[:, 1:] - dt[:, :1]).max(axis=1) < base[search])
                      | (_spread(dt) < tol[rows]))
            c[rows[better]], at_c[rows[better]] = trial[better], dt[better]
            moved[search[better]] = True
            search = search[~better]
            t *= 0.5
        live = live[moved]
        live = live[~(_norms(c[live] - seed_center[live]) > far[live])]
    return c, radii, done


# -- metric Delaunay -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MetricDelaunayResult:
    """Metric Delaunay star of a region as columns, one row per top simplex
    in sorted order, with certification data. The closed star, the closure
    of the tops and of the region's vertices, is derived on first read."""

    region: tuple[int, ...]
    tops: np.ndarray         # (T, m+1)
    centres: np.ndarray      # (T, m)
    radii: np.ndarray        # (T,)
    protections: np.ndarray  # (T,)
    path: str
    agreement: bool | None = None
    not_found: tuple[tuple[int, ...], ...] = ()
    undecided: tuple[tuple[int, ...], ...] = ()
    degeneracy_groups: tuple[tuple[int, ...], ...] = ()

    @cached_property
    def complex(self) -> SimplicialComplex:
        return SimplicialComplex([*map(tuple, self.tops.tolist()), *((v,) for v in self.region)])

    @property
    def certified(self) -> bool:
        return not self.undecided


def _pullback_tops(ps, model, region, pullback=None):
    """The Euclidean Delaunay complex of the images phi(P), ``pullback``
    when it is given, and the rows of its tops that meet the region in key
    order."""
    base = pullback if pullback is not None else delaunay_lifted(model.field.forward(ps.points))
    keep = np.flatnonzero(_holds_any(base.tops, region, ps.n))
    return base, keep[sorted_rows(base.tops[keep], ps.n)]


def _pullback_path(ps, model, region, pullback=None) -> MetricDelaunayResult:
    base, keep = _pullback_tops(ps, model, region, pullback)
    return MetricDelaunayResult(
        region=tuple(region), tops=base.tops[keep],
        centres=model.field.inverse(base.centres[keep]),
        radii=base.radii[keep], protections=base.protections[keep], path="pullback",
        degeneracy_groups=base.degeneracy_groups,
    )


def _newton_reach(eps: float, model: MetricModel) -> float:
    """Largest diameter of a Newton route candidate, less the tolerance."""
    return 2.0 * eps + 4.0 * model.rho_bound


def _generic_paths(ps, models, region, eps, upsilon0, mu0,
                   windows: _Windows | None = None) -> list[MetricDelaunayResult]:
    """The Newton route of each of ``models``. Each model reads the
    candidates of ``windows`` within its own reach (a build at the largest
    reach when it is not given), and the rows of every model run through
    one stacked circumcentre search; each model then certifies its balls
    among its own images and searches the rows it missed."""
    pts, m, tol = ps.points, ps.dim, ps.tolerance()
    reaches = [_newton_reach(eps, model) + tol for model in models]
    if windows is None:
        windows = _Windows(ps, region, max(reaches), (m,))
    top = windows.sizes == m + 1
    picks = [np.flatnonzero(windows.diameters[top] <= reach) for reach in reaches]
    at = np.concatenate(picks)
    owner = np.repeat(np.arange(len(models)), [len(p) for p in picks])
    subsets, balls = windows.tops[at], tuple(col[at] for col in windows.balls)
    mets = simplex_metrics_batch(pts, windows.tops).take(at)
    centres, radii, found = _metric_circumcenters(pts, subsets, mets, balls, models,
                                                  upsilon0, mu0, owner)
    results = []
    for k, model in enumerate(models):
        mine = owner == k
        results.append(_newton_result(ps, model, region, eps, subsets[mine],
                                      tuple(col[mine] for col in balls),
                                      centres[mine], radii[mine], found[mine]))
    return results


def _newton_result(ps, model, region, eps, subsets, balls, centres, radii, found):
    """One model's Newton route from its rows of the stacked search: the
    balls found are certified among the images phi(P), and the rows missed
    go through one branch and bound on the metric gap, seeded at their
    Euclidean circumcentres ``balls`` (:func:`delaunay._seeds`)."""
    pts, m, tol = ps.points, ps.dim, ps.tolerance()
    image_pts = model.field.forward(pts)
    # The metric ball of radius r about c is the Euclidean ball of radius r
    # about phi(c) among the images; the stored centre stays c.
    image_tree = cKDTree(image_pts)
    searched = np.flatnonzero(found)
    rows, protection, found_groups = _empty_balls(
        image_tree, subsets[searched], model.field.forward(centres[searched]),
        radii[searched], tol)
    accepted = np.zeros(len(subsets), dtype=bool)
    accepted[searched[rows]] = True
    protections = np.zeros(len(subsets))
    protections[searched[rows]] = protection
    # Candidates the search misses go through one branch and bound; the
    # metric gap is the Euclidean ball gap between images.
    missed = np.flatnonzero(~found)
    member_img = image_pts[subsets[missed]]
    verdicts, witnesses = _branch_and_bound(
        lambda c, k: _ball_gap(model.field.forward(c), member_img[k], image_tree),
        _seeds(pts, subsets[missed], tuple(col[missed] for col in balls)),
        4.0 * eps, 2.0 * model.center_lipschitz * np.sqrt(m), tol)
    for k, verdict, witness in zip(missed.tolist(), verdicts, witnesses):
        if verdict:
            # Equidistance search missed it but an empty ball exists:
            # record the witness ball, protection 0, instead of dropping
            # the simplex.
            d = model.distances_to(witness, pts, image_pts)
            accepted[k] = True
            centres[k], radii[k] = witness, d[subsets[k]].max()
    return MetricDelaunayResult(
        region=tuple(region), tops=subsets[accepted], centres=centres[accepted],
        radii=radii[accepted], protections=protections[accepted], path="newton",
        not_found=tuple(map(tuple, subsets[missed].tolist())),
        undecided=tuple(tuple(s) for s, v in zip(subsets[missed].tolist(), verdicts) if v is None),
        degeneracy_groups=tuple(sorted(found_groups)),
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
    need it. This is the one-model call of :func:`_metric_delaunays`.
    """
    return _metric_delaunays(as_point_set(points), [model], region, eps, upsilon0, mu0, path)[0]


def _metric_delaunays(ps, models, region, eps, upsilon0, mu0, path,
                      windows: _Windows | None = None,
                      pullbacks=None) -> list[MetricDelaunayResult]:
    """:func:`metric_delaunay` of each of ``models`` on a point set: the
    Newton routes of all of them from one stacked search over ``windows``
    (:func:`_generic_paths`), and each pullback route reading its complex
    of phi(P) from ``pullbacks`` where one is given."""
    if path not in ("pullback", "newton", "both"):
        raise PreconditionError(f"unknown metric route {path!r}")
    region = _checked_region(region, ps.n)
    pullbacks = [None] * len(models) if pullbacks is None else pullbacks
    if path == "pullback":
        return [_pullback_path(ps, model, region, pullback)
                for model, pullback in zip(models, pullbacks)]
    if eps is None:
        raise PreconditionError("the newton route needs the sampling radius eps")
    generics = _generic_paths(ps, models, region, eps, upsilon0, mu0, windows)
    if path == "newton":
        return generics
    both = []
    for generic, model, pullback in zip(generics, models, pullbacks):
        # Only the pullback route's tops are compared, so its centres are
        # not mapped back.
        base, keep = _pullback_tops(ps, model, region, pullback)
        if not np.array_equal(generic.tops, base.tops[keep]):
            a = set(map(tuple, generic.tops.tolist()))
            b = set(map(tuple, base.tops[keep].tolist()))
            raise PathMismatchError(
                f"metric Delaunay routes disagree: newton-only {sorted(a - b)}, "
                f"pullback-only {sorted(b - a)}"
            )
        both.append(replace(generic, path="both", agreement=True))
    return both
