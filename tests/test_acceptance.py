"""Release gate: twelve acceptance checks, one printed line each.

Run ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
Every tolerance is pinned next to the check it guards; a check prints its
verdict before asserting, so a red line still shows up with its counts.
"""

import contextlib
import io
import json
import os
import tempfile
import time

import numpy as np

from delgen.cli import main
from delgen.datasets import grid_points, uniform_points
from delgen.delaunay import delaunay_bruteforce, delaunay_lifted
from delgen.fileio import write_points
from delgen.genericity import analyze_genericity
from delgen.metric import DisplacementField
from delgen.perturb import (cc_displacement_trial, make_point_perturbation,
                            measured_secure_params, metric_stability_trial,
                            point_stability_trial, protection_decay_trial,
                            relaxation_trial)
from delgen.simplex import (Flat, munkres_thickness_check, simplex_metrics,
                            whitney_angle_check)

MODELS = ("uniform", "radial", "adversarial")

_CACHE: dict = {"instances": [], "next_seed": 0}


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d}  {label:<36} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def generic_instances(count: int):
    """First ``count`` generic jittered grid instances, analysed and cached."""
    inst = _CACHE["instances"]
    while len(inst) < count:
        seed = _CACHE["next_seed"]
        _CACHE["next_seed"] += 1
        pts = grid_points(9, 2, 0.2, seed=seed)
        a = analyze_genericity(pts)
        if not a.deep_ids or not a.protection.generic:
            continue
        inst.append((pts, a, measured_secure_params(a)))
    return inst[:count]


def random_simplex(rng, j, m, spread=1.0):
    return rng.standard_normal((j + 1, m)) * spread


def thick_random_simplex(rng, j, m, min_thickness=0.05):
    while True:
        s = random_simplex(rng, j, m)
        met = simplex_metrics(s)
        if not met.degenerate and met.thickness >= min_thickness:
            return s, met


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_01_route_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    bad = total = 0
    for _ in range(200):
        n = int(rng.integers(8, 61))
        pts = uniform_points(n, 2, seed=int(rng.integers(0, 2**31)))
        bad += delaunay_lifted(pts).complex != delaunay_bruteforce(pts).complex
        total += 1
    for _ in range(50):
        n = int(rng.integers(6, 41))
        pts = uniform_points(n, 3, seed=int(rng.integers(0, 2**31)))
        bad += delaunay_lifted(pts).complex != delaunay_bruteforce(pts).complex
        total += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and total == 250 and elapsed <= 120.0
    report(1, "dual route equivalence", ok,
           f"{total - bad}/{total} complexes equal, {elapsed:.1f}s")
    assert ok


def test_criterion_02_thickness_from_protection():
    bad = checked = 0
    worst = np.inf
    for pts, a, p in generic_instances(100):
        floor = np.sqrt(3.0) * p.nu_tilde**2 / 4.0
        safe = a.classification.safe
        for d in range(1, safe.dimension + 1):
            for s in safe.simplices(d):
                th = simplex_metrics(pts[list(s)]).thickness
                worst = min(worst, th - floor)
                bad += th < floor - 1e-9
                checked += 1
    ok = bad == 0
    report(2, "thickness floor sqrt(3) nu^2 / 4", ok,
           f"{checked} simplices on 100 grids, worst margin {worst:.3e}")
    assert ok


def test_criterion_03_singular_value_floor():
    rng = np.random.default_rng(7)
    bad = count = 0
    while count < 5000:
        m = int(rng.integers(2, 5))
        v = random_simplex(rng, m, m, spread=float(rng.uniform(0.5, 2.0)))
        met = simplex_metrics(v)
        if met.degenerate:
            continue
        count += 1
        s_min = np.linalg.svd((v[1:] - v[0]).T, compute_uv=False)[-1]
        floor = np.sqrt(m) * met.thickness * met.longest_edge
        bad += s_min < floor - 1e-9 * met.longest_edge
    ok = bad == 0
    report(3, "singular value floor sqrt(j) T L", ok,
           f"{count - bad}/{count} simplices, m <= 4, tol 1e-9 L")
    assert ok


def test_criterion_04_whitney_angle_bound():
    rng = np.random.default_rng(43)
    bad = count = 0
    while count < 2000:
        j = int(rng.integers(1, 4))
        m = int(rng.integers(j, 5))
        s, met = thick_random_simplex(rng, j, m, min_thickness=0.1)
        eta_target = 0.15 * met.longest_edge * float(rng.uniform(0.1, 1.0))
        moved = s + rng.normal(size=s.shape) * eta_target / np.sqrt(m)
        k = int(rng.integers(j, m + 1))
        if k == m:
            flat = Flat.from_span(moved[0], np.eye(m))
        else:
            flat = Flat.from_points(moved[: k + 1])
        if flat.dim < j:
            continue
        check = whitney_angle_check(s, flat)
        if check.detail["eta"] > 0.2 * met.longest_edge:
            continue
        count += 1
        bad += check.value > check.bound + 1e-9
    ok = bad == 0
    report(4, "angle bound 2 eta / (T L)", ok,
           f"{count - bad}/{count} pairs, eta <= 0.2 L, tol 1e-9")
    assert ok


def test_criterion_05_circumcentre_displacement():
    inst = generic_instances(30)
    bad = count = 0
    strict_bad = 0
    round_id = 0
    while count < 1000:
        pts, a, p = inst[round_id % len(inst)]
        model = MODELS[round_id % len(MODELS)]
        rho = p.budget().rho_cc
        pert = make_point_perturbation(pts, rho, seed=round_id, model=model,
                                       base=a.base)
        m = a.base.complex.dimension
        tops = set(map(tuple, a.base.tops.tolist()))
        for s in a.classification.safe.simplices(m):
            if s not in tops or count >= 1000:
                continue
            v = cc_displacement_trial(s, pert, p)
            count += 1
            bad += not (v.passed and v.in_budget)
            strict_bad += v.measured["margin"] <= 0
        round_id += 1
    ok = bad == 0 and strict_bad == 0
    report(5, "circumcentre drift < 8 rho / (u m)", ok,
           f"{count - bad}/{count} secure simplices at the full drift budget")
    assert ok


def test_criterion_06_point_stability():
    inst = generic_instances(10)
    fails = total = 0
    for seed in range(200):
        pts, a, p = inst[seed % len(inst)]
        for model in MODELS:
            pert = make_point_perturbation(pts, p.budget().rho_point, seed=seed,
                                           model=model, base=a.base)
            v = point_stability_trial(a, pert)
            total += 1
            fails += not (v.passed and v.in_budget)
    ok = fails == 0 and total == 600
    report(6, "star isomorphism under points", ok,
           f"{total - fails}/{total} trials, 200 seeds x 3 models, full budget")
    assert ok


def test_criterion_07_relaxation_equality():
    bad = 0
    for _, a, p in generic_instances(50):
        v = relaxation_trial(a, p.budget().rho_point)
        bad += not (v.passed and v.certified and v.in_budget)
    ok = bad == 0
    report(7, "relaxed star equality, certified", ok,
           f"{50 - bad}/50 instances at the point budget, all decided")
    assert ok


def test_criterion_08_metric_stability():
    inst = generic_instances(25)
    bad = total = 0
    for i, (pts, a, p) in enumerate(inst):
        for mode in ("thm", "cor"):
            cap = p.budget().rho_metric if mode == "thm" else p.budget().rho_generic
            field = DisplacementField(pts.shape[1], cap / 2.0, seed=100 + i)
            total += 1
            try:
                v = metric_stability_trial(a, field, budget_mode=mode)
            except Exception:
                bad += 1
                continue
            bad += not (v.passed and v.certified and v.in_budget)
    ok = bad == 0 and total == 50
    report(8, "metric star equality, dual route", ok,
           f"{total - bad}/{total} trials, both routes agree on each")
    assert ok


def test_criterion_09_protection_decay():
    inst = generic_instances(10)
    bad = total = 0
    for i, (pts, a, p) in enumerate(inst):
        for model in MODELS:
            pert = make_point_perturbation(pts, p.budget().rho_point, seed=i,
                                           model=model, base=a.base)
            v = protection_decay_trial(a, pert)
            total += 1
            bad += not (v.passed and v.in_budget
                        and v.measured["worst_residual"] > -a.tolerance)
        field = DisplacementField(pts.shape[1],
                                  p.budget().rho_metric_protect / 2.0, seed=i)
        v = protection_decay_trial(a, field=field)
        total += 1
        bad += not (v.passed and v.in_budget
                    and v.measured["worst_residual"] > -a.tolerance)
    ok = bad == 0
    report(9, "protection decay 18/20 rho / (u m)", ok,
           f"{total - bad}/{total} in-budget trials keep residual protection")
    assert ok


def test_criterion_10_degeneracy_handling():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cases = [square, grid_points(5, 2), grid_points(9, 2)]
    flagged = 0
    for pts in cases:
        res = delaunay_lifted(pts)
        flagged += (not res.generic) and abs(res.protection()) <= res.tolerance
    with tempfile.TemporaryDirectory() as d:
        sq_file = os.path.join(d, "square.txt")
        grid_file = os.path.join(d, "grid.txt")
        write_points(sq_file, square)
        write_points(grid_file, grid_points(9, 2))
        empty_code, _, _ = run_cli(["analyze", "--in", sq_file])
        failed_code, _, _ = run_cli(["analyze", "--in", grid_file])
    ok = flagged == 3 and empty_code == 4 and failed_code == 5
    report(10, "degenerate inputs flagged honestly", ok,
           f"{flagged}/3 flagged non-generic, exit codes {empty_code}/{failed_code}")
    assert ok


def test_criterion_11_spectral_identities():
    rng = np.random.default_rng(11)
    mun_bad = dual_bad = row_bad = 0
    count = 0
    while count < 2000:
        j = int(rng.integers(2, 5))
        m = int(rng.integers(j, 6))
        v, met = thick_random_simplex(rng, j, m, min_thickness=1e-3)
        count += 1
        check = munkres_thickness_check(v)
        mun_bad += abs(check.value - check.bound) > 1e-9 * check.bound
        p = (v[1:] - v[0]).T
        pinv = np.linalg.pinv(p)
        sv = np.linalg.svd(p, compute_uv=False)[:j]
        sv_dual = np.linalg.svd(pinv, compute_uv=False)[:j]
        dual_bad += not np.allclose(sv_dual, 1.0 / sv[::-1], rtol=1e-9, atol=0.0)
        row_norms = np.linalg.norm(pinv, axis=1)
        row_bad += not np.allclose(row_norms, 1.0 / met.altitudes[1:],
                                   rtol=1e-9, atol=0.0)
    ok = mun_bad == 0 and dual_bad == 0 and row_bad == 0
    report(11, "inradius / pinv / altitude identities", ok,
           f"{count} simplices each, rel tol 1e-9, "
           f"fails {mun_bad}/{dual_bad}/{row_bad}")
    assert ok


def test_criterion_12_report_determinism():
    def stripped(text: str) -> str:
        doc = json.loads(text)
        doc.pop("timings", None)
        return json.dumps(doc, sort_keys=True)

    with tempfile.TemporaryDirectory() as d:
        pts_file = os.path.join(d, "pts.txt")
        write_points(pts_file, grid_points(9, 2, 0.2, seed=3))
        left = os.path.join(d, "left.json")
        with open(left, "w", encoding="utf-8") as fh:
            json.dump({"simplices": [[0, 1, 2], [1, 2, 3]]}, fh)
        byte_identical = [
            ["gen", "--kind", "grid", "--side", "5", "--jitter", "0.2", "--seed", "9"],
            ["stability", "--in", pts_file, "--models", "radial",
             "--seeds-count", "2", "--format", "jsonl"],
            ["stability", "--in", pts_file, "--models", "radial",
             "--seeds-count", "1", "--format", "csv"],
        ]
        modulo_timings = [
            ["analyze", "--in", pts_file],
            ["budget", "--in", pts_file],
            ["stability", "--in", pts_file, "--models",
             "uniform,radial,adversarial", "--seeds-count", "2", "--seed", "4"],
            ["relax", "--in", pts_file],
            ["metric", "--in", pts_file, "--seed", "2"],
            ["compare", left, left],
        ]
        bad = []
        for argv in byte_identical:
            code1, one, _ = run_cli(argv)
            code2, two, _ = run_cli(argv)
            if not (code1 == code2 and one == two and one):
                bad.append(argv[0])
        for argv in modulo_timings:
            code1, one, _ = run_cli(argv)
            code2, two, _ = run_cli(argv)
            if not (code1 == code2 and stripped(one) == stripped(two)):
                bad.append(argv[0])
    ok = not bad
    report(12, "byte-identical reports, fixed seed", ok,
           "9 command pairs" + ("" if ok else f", differing: {bad}"))
    assert ok
