"""Checks of delgen reports, computed apart from delgen with numpy and scipy.

``check_analyze`` and ``check_stability`` return a list of failures, each
``"<check>: <detail>"``; an empty list means the report passed. ``self_test``
feeds them corrupted copies of real reports and returns the corruptions
they failed to reject.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, HalfspaceIntersection, cKDTree
from scipy.spatial.distance import pdist

RTOL = 1e-9          # distances agree within RTOL * diameter
FORMULA_RTOL = 1e-12  # a reported value and its formula agree to this share
THICKNESS_RTOL = 1e-7  # altitudes by inverse edge matrix versus by projection
THICKNESS_SLACK = 1e-9
BUDGET_FORMULAS = {
    "rho_cc": lambda u, mu, d, e, nu: u * mu * e / 8.0,
    "rho_point": lambda u, mu, d, e, nu: u * mu * d / 18.0,
    "rho_metric_protect": lambda u, mu, d, e, nu: u * mu * d / 20.0,
    "rho_metric": lambda u, mu, d, e, nu: u * mu * d / 36.0,
    "rho_generic": lambda u, mu, d, e, nu: nu**3 * d / 84.0,
}


def load_points(path: str) -> np.ndarray:
    return np.loadtxt(path, comments="#", ndmin=2)


def _close(a: float, b: float, rtol: float = FORMULA_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def hull_depth(equations: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance to the hull boundary, positive inside (qhull unit normals)."""
    m = equations.shape[1] - 1
    return -(x @ equations[:, :m].T + equations[:, m]).max(axis=1)


def circumballs(pts: np.ndarray, simplices: np.ndarray):
    """Centres and radii of full-dimensional simplices, by one linear solve each."""
    v = pts[simplices]
    edges = v[:, 1:, :] - v[:, :1, :]
    rhs = 0.5 * (edges**2).sum(axis=2)
    offset = np.linalg.solve(edges, rhs[..., None])[..., 0]
    return v[:, 0, :] + offset, np.linalg.norm(offset, axis=1)


def thickness(pts: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Least altitude over (dimension x longest edge) per simplex.

    Altitude i is 1 / |grad lambda_i|; the barycentric gradients are the
    columns of the inverse edge matrix, and grad lambda_0 is minus their sum.
    """
    v = pts[simplices]
    m = v.shape[2]
    inv = np.linalg.inv(v[:, 1:, :] - v[:, :1, :])
    grads = np.concatenate([-inv.sum(axis=2, keepdims=True), inv], axis=2)
    altitudes = 1.0 / np.linalg.norm(grads, axis=1)
    longest = np.stack([np.linalg.norm(v[:, i] - v[:, j], axis=1)
                        for i in range(m + 1) for j in range(i)]).max(axis=0)
    return altitudes.min(axis=1) / (m * longest)


def eroded_boundary(equations: np.ndarray, margin: float, inside: np.ndarray,
                    pitch: float):
    """Sample the boundary of { depth >= margin } at the given pitch.

    Returns the samples and their covering radius: every boundary point lies
    within that distance of a sample.
    """
    m = equations.shape[1] - 1
    shifted = equations.copy()
    shifted[:, m] += margin
    verts = HalfspaceIntersection(shifted, inside).intersections
    body = ConvexHull(verts)
    samples, cover = [verts], 0.0
    for face in body.simplices:
        a = verts[face[0]]
        spans = verts[face[1:]] - a
        if m == 2:
            k = max(1, math.ceil(np.linalg.norm(spans[0]) / pitch))
            t = np.arange(k + 1)[:, None] / k
            samples.append(a + t * spans[0])
            cover = max(cover, 0.5 * np.linalg.norm(spans[0]) / k)
        else:
            sides = [spans[0], spans[1], spans[1] - spans[0]]
            longest = max(np.linalg.norm(s) for s in sides)
            k = max(1, math.ceil(longest / pitch))
            i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
            keep = i + j <= k
            bary = np.stack([i[keep], j[keep]], axis=1) / k
            samples.append(a + bary @ spans)
            # Each sub-triangle lies within its longest side of any vertex.
            cover = max(cover, longest / k)
    return np.vstack(samples), cover


def check_analyze(pts: np.ndarray, doc: dict | None, code) -> list[str]:
    """Every independent check of one ``delgen analyze`` report."""
    if code != 0 or doc is None:
        return [f"exit: code {code}"]
    bad: list[str] = []

    def need(name: str, ok, detail: str) -> None:
        if not ok:
            bad.append(f"{name}: {detail}")

    r = doc["results"]
    n, m = pts.shape
    dists = pdist(pts)
    diam = float(dists.max())
    tol = RTOL * diam
    samp = r["sampling"]
    eps, sparsity = samp["epsilon"], samp["sparsity"]
    need("sparsity", abs(sparsity - dists.min()) <= tol,
         f"{sparsity!r} vs least distance {dists.min()!r}")
    need("mu0", _close(samp["mu0"], sparsity / eps), f"{samp['mu0']!r}")

    hull = ConvexHull(pts)
    depth = hull_depth(hull.equations, pts)
    deep = set(r.get("deep_interior", []))
    sure_in = set(np.nonzero(depth >= 4 * eps + tol)[0].tolist())
    sure_out = set(np.nonzero(depth < 4 * eps - tol)[0].tolist())
    need("deep_interior", sure_in <= deep and not deep & sure_out,
         f"missing {sorted(sure_in - deep)}, extra {sorted(deep & sure_out)}")
    need("region", r.get("region") == sorted(deep), "region is not the deep interior")

    # Sampling radius: the distance to P over the eps-eroded hull peaks at an
    # empty-ball centre inside the body or on the body's boundary. The
    # boundary sample's covering radius bounds how far the estimate can sit
    # below that supremum, so eps must agree with it within that radius. The
    # pitch is relative to the sparsity, but never finer than eps/256 (eps/64
    # in 3-D), so a close pair cannot blow up the sample.
    inner = pts[int(np.argmax(depth))]
    if depth.max() <= eps:
        bad.append("epsilon: the eps-eroded hull is empty")
    else:
        tri = Delaunay(pts)
        centres, radii = circumballs(pts, tri.simplices)
        inside = hull_depth(hull.equations, centres) >= eps - tol
        pitch = max(sparsity, eps / 4.0) / (64.0 if m == 2 else 16.0)
        ring, cover = eroded_boundary(hull.equations, eps, inner, pitch)
        tree = cKDTree(pts)
        estimate = max(float(radii[inside].max(initial=0.0)),
                       float(tree.query(ring)[0].max()))
        need("epsilon", abs(eps - estimate) <= cover + 10 * tol,
             f"{eps!r} vs independent {estimate!r} (cover {cover:.3g})")

    audit = r["audit"]
    simplices = np.array([s["vertices"] for s in audit["simplices"]], dtype=int)
    if simplices.size == 0:
        bad.append("audit: no audited simplices")
        return bad
    centres, radii = circumballs(pts, simplices)
    near_d, near_i = cKDTree(pts).query(centres, k=m + 2)
    own = (near_i[:, :, None] == simplices[:, None, :]).any(axis=2)
    first_foreign = np.argmax(~own, axis=1)
    protection = near_d[np.arange(len(simplices)), first_foreign] - radii
    rep_radius = np.array([s["radius"] for s in audit["simplices"]])
    rep_prot = np.array([s["protection"] for s in audit["simplices"]])
    worst = int(np.argmax(np.abs(radii - rep_radius)))
    need("radius", np.abs(radii - rep_radius).max() <= tol,
         f"simplex {simplices[worst].tolist()}: {rep_radius[worst]!r} vs {radii[worst]!r}")
    worst = int(np.argmax(np.abs(protection - rep_prot)))
    need("protection", np.abs(protection - rep_prot).max() <= tol,
         f"simplex {simplices[worst].tolist()}: {rep_prot[worst]!r} vs {protection[worst]!r}")
    prot = r["protection"]
    delta = prot["delta_global"]
    need("delta", abs(delta - protection.min()) <= tol,
         f"{delta!r} vs least protection {protection.min()!r}")
    nu = max(min(delta, eps), 0.0) / eps
    need("nu_tilde", _close(prot["nu_tilde"], nu), f"{prot['nu_tilde']!r} vs {nu!r}")
    need("generic", prot["generic"] and r["generic"] and delta > tol,
         "report is not generic")

    thick = thickness(pts, simplices)
    rep_thick = np.array([s["thickness"] for s in audit["simplices"]])
    upsilon0 = math.sqrt(3.0) * nu * nu / 4.0
    need("upsilon0", _close(audit["upsilon0"], upsilon0), f"{audit['upsilon0']!r}")
    need("thickness", np.all(np.abs(thick - rep_thick) <= THICKNESS_RTOL * thick)
         and thick.min() >= upsilon0 - THICKNESS_SLACK,
         f"least {thick.min()!r} against upsilon0 {upsilon0!r}")

    sp, budgets = r.get("secure_params"), r.get("budgets")
    if sp is None or budgets is None:
        bad.append("budgets: report has no secure parameters")
    else:
        want = {"eps": eps, "delta": min(delta, eps), "mu0": min(samp["mu0"], 1.0),
                "nu_tilde": prot["nu_tilde"], "upsilon0": min(thick.min(), 1.0)}
        for key, val in want.items():
            rtol = THICKNESS_RTOL if key == "upsilon0" else FORMULA_RTOL
            need("secure_params", _close(sp[key], val, rtol),
                 f"{key} {sp[key]!r} vs {val!r}")
        args = (sp["upsilon0"], sp["mu0"], sp["delta"], sp["eps"], sp["nu_tilde"])
        for key, formula in BUDGET_FORMULAS.items():
            need("budgets", _close(budgets[key], formula(*args)) and budgets[key] > 0,
                 f"{key} {budgets[key]!r} vs {formula(*args)!r}")
        need("budgets", budgets["rho_point"] < sparsity / 2, "rho_point >= sparsity/2")
    for name, cell in audit["checks"].items():
        need("audit", cell["fail"] == 0, f"{name} fails {cell['fail']}")
    cert = r.get("thickness_certificate", {})
    need("audit", cert.get("valid") is True, "thickness certificate not valid")
    return bad


def stability_shape(argv: list[str]) -> tuple[int, int, int]:
    """(models, fractions, seeds) of a stability command line."""
    models = argv[argv.index("--models") + 1].split(",")
    fractions = argv.count("--budget-fraction")
    seeds = int(argv[argv.index("--seeds-count") + 1])
    return len(models), fractions, seeds


def check_stability(argv: list[str], doc: dict | None, code) -> list[str]:
    """Every check of one ``delgen stability`` report."""
    if code != 0 or doc is None:
        return [f"exit: code {code}"]
    bad = []
    verdicts = doc["results"]["verdicts"]
    models, fractions, seeds = stability_shape(argv)
    want = models * fractions * seeds
    if len(verdicts) != want:
        bad.append(f"count: {len(verdicts)} verdicts, want {want}")
    for i, v in enumerate(verdicts):
        if v["in_budget"] and not (v["passed"] and v["certified"]):
            bad.append(f"in_budget: verdict {i} ({v['trial']}) passed={v['passed']} "
                       f"certified={v['certified']}")
    tally: dict[str, dict] = {}
    for v in verdicts:
        label = f"{v['trial']}[{v['model']}]" if "model" in v else v["trial"]
        cell = tally.setdefault(label, {}).setdefault(
            f"{v['budget_used']:.9g}", {"pass": 0, "total": 0})
        cell["total"] += 1
        cell["pass"] += int(v["passed"])
    if tally != doc["results"]["summary"]:
        bad.append("summary: tallies do not match the verdicts")
    return bad


def self_test(analyze_case=None, stability_case=None) -> list[str]:
    """Corrupt real reports; return the corruptions the checks let through.

    ``analyze_case`` is (points, report), ``stability_case`` is (argv, report),
    both from passing calls. Each corruption must fail the named check.
    """
    escaped = []

    def expect(label: str, check: str, failures: list[str]) -> None:
        if not any(f.startswith(check + ":") for f in failures):
            escaped.append(f"{label} (checks said {failures})")

    if analyze_case is not None:
        pts, doc = analyze_case
        d = copy.deepcopy(doc)
        d["results"]["sampling"]["epsilon"] *= 0.9
        expect("epsilon shrunk 10%", "epsilon", check_analyze(pts, d, 0))
        d = copy.deepcopy(doc)
        simplex = max(d["results"]["audit"]["simplices"], key=lambda s: s["protection"])
        simplex["protection"] = -simplex["protection"]
        expect("protection sign flipped", "protection", check_analyze(pts, d, 0))
        d = copy.deepcopy(doc)
        d["results"]["budgets"]["rho_point"] *= 2.0
        expect("budget doubled", "budgets", check_analyze(pts, d, 0))
    if stability_case is not None:
        argv, doc = stability_case
        d = copy.deepcopy(doc)
        verdict = next(v for v in d["results"]["verdicts"] if v["in_budget"])
        verdict["passed"] = False
        expect("in-budget verdict failed", "in_budget", check_stability(argv, d, 0))
        d = copy.deepcopy(doc)
        d["results"]["verdicts"].pop()
        expect("verdict dropped", "count", check_stability(argv, d, 0))
    return escaped
