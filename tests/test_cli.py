"""End to end command line checks, run in process through ``main``; the
memory check runs the command in a subprocess of its own."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

import delgen
from delgen import cli
from delgen.cli import build_parser, main
from delgen.datasets import grid_points, uniform_points
from delgen.fileio import read_points, write_points

_DIR = None


def data_dir() -> str:
    """Shared scratch directory with the standard input files."""
    global _DIR
    if _DIR is None:
        _DIR = tempfile.mkdtemp(prefix="delgen-cli-")
        write_points(os.path.join(_DIR, "generic.txt"), grid_points(9, 2, 0.2, seed=3))
        write_points(os.path.join(_DIR, "exact.txt"), grid_points(9, 2))
        write_points(os.path.join(_DIR, "square.txt"),
                     np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    return _DIR


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def infile(name: str) -> str:
    return os.path.join(data_dir(), name)


def stripped(text: str) -> str:
    doc = json.loads(text)
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True)


def test_gen_grid_to_file_and_stdout(tmp_path):
    out = tmp_path / "pts.txt"
    code, _, _ = run(["gen", "--kind", "grid", "--side", "4", "--jitter", "0.2",
                      "--seed", "1", "--out", str(out)])
    assert code == 0
    assert np.array_equal(read_points(out), grid_points(4, 2, 0.2, seed=1))
    code, text, _ = run(["gen", "--kind", "grid", "--side", "3"])
    assert code == 0
    assert text.startswith("# grid side=3")
    assert len(text.splitlines()) == 10


def test_gen_delta_search_reports_winner():
    code, text, _ = run(["gen", "--kind", "delta-search", "--side", "9",
                         "--k", "2", "--seed", "0"])
    assert code == 0
    assert "delta=" in text.splitlines()[0]


@pytest.mark.parametrize("flags", [
    ["--kind", "grid", "--side", "3", "--spacing", "nan"],
    ["--kind", "grid", "--side", "3", "--spacing", "inf"],
    ["--kind", "uniform", "--n", "3", "--dim", "0"],
], ids=["spacing-nan", "spacing-inf", "dim-0"])
def test_gen_refuses_what_it_cannot_write(flags):
    code, text, err = run(["gen", *flags])
    assert code == 4 and text == ""
    assert err.startswith("delgen: precondition:")


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "uniform", "--n", "5"],
    ["gen", "--kind", "grid", "--side", "3", "--jitter", "0.2"],
    ["gen", "--kind", "delta-search", "--side", "4", "--k", "1"],
    ["stability", "--in", "generic.txt", "--models", "uniform", "--seeds-count", "1"],
    ["metric", "--in", "generic.txt"],
], ids=["gen-uniform", "gen-grid", "gen-delta-search", "stability", "metric"])
def test_a_negative_seed_is_precondition(argv):
    argv = [infile(a) if a == "generic.txt" else a for a in argv]
    code, text, err = run([*argv, "--seed", "-1"])
    assert code == 4 and text == ""
    assert "seed must be nonnegative" in err


def test_an_allocation_numpy_refuses_is_precondition():
    # 10^15 rows of 3 floats, 7 PiB: past any 47-bit address space, so
    # numpy refuses it before it touches memory.
    code, text, err = run(["gen", "--kind", "grid", "--side", "100000", "--dim", "3"])
    assert code == 4 and text == ""
    assert err.startswith("delgen: precondition:") and "allocate" in err


def test_analyze_generic_grid(tmp_path):
    out = tmp_path / "report.json"
    code, text, _ = run(["analyze", "--in", infile("generic.txt"), "--out", str(out)])
    assert code == 0
    assert text == ""
    doc = json.loads(out.read_text())
    assert set(doc) == {"tool", "config", "dataset_digest", "timings", "results"}
    assert doc["tool"]["name"] == "delgen"
    assert len(doc["dataset_digest"]) == 64
    res = doc["results"]
    assert res["generic"] is True
    assert res["protection"]["delta_global"] > 0
    assert res["thickness_certificate"]["valid"] is True
    assert set(res["budgets"]) == {"rho_cc", "rho_point", "rho_metric_protect",
                                   "rho_metric", "rho_generic"}
    assert res["audit"]["generic"] is True


def test_analyze_empty_deep_region_is_precondition_code():
    code, text, _ = run(["analyze", "--in", infile("square.txt")])
    assert code == 4
    res = json.loads(text)["results"]
    assert res["generic"] is False
    assert res["reason"] == "deep interior region is empty"
    assert "budgets" not in res
    # The other verbs need the region itself, so they stop without a report.
    for verb in ("budget", "stability", "relax", "metric"):
        code, text, err = run([verb, "--in", infile("square.txt")])
        assert code == 4, verb
        assert text == "", verb
        assert "deep interior region is empty" in err, verb


def test_analyze_exact_grid_fails_the_check():
    code, text, _ = run(["analyze", "--in", infile("exact.txt")])
    assert code == 5
    res = json.loads(text)["results"]
    assert res["generic"] is False
    assert "tolerance" in res["reason"]
    assert res["audit"]["generic"] is False


def test_analyze_determinism_modulo_timings():
    argv = ["analyze", "--in", infile("generic.txt")]
    _, one, _ = run(argv)
    _, two, _ = run(argv)
    assert one != "" and stripped(one) == stripped(two)


def test_missing_input_file_is_io_error():
    code, _, err = run(["analyze", "--in", infile("nope.txt")])
    assert code == 2
    assert "i/o" in err


def test_bad_point_file_is_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3 x\n")
    code, _, err = run(["analyze", "--in", str(bad)])
    assert code == 3
    assert "bad.txt:2" in err


def test_missing_in_flag_is_precondition():
    code, _, err = run(["analyze"])
    assert code == 4
    assert "--in" in err


def test_bad_pj_tokens():
    code, _, _ = run(["budget", "--in", infile("generic.txt"), "--pj", "1,zap"])
    assert code == 3
    code, _, err = run(["budget", "--in", infile("generic.txt"), "--pj", ","])
    assert code == 4
    assert "no vertices" in err


def test_budget_explicit_region_matches_auto():
    code, auto_text, _ = run(["budget", "--in", infile("generic.txt")])
    assert code == 0
    code, pj_text, _ = run(["budget", "--in", infile("generic.txt"), "--pj", "40"])
    assert code == 0
    auto = json.loads(auto_text)["results"]
    explicit = json.loads(pj_text)["results"]
    assert auto["budgets"] == explicit["budgets"]
    assert auto["secure_params"]["delta"] > 0


def test_budget_agrees_with_analyze():
    _, a_text, _ = run(["analyze", "--in", infile("generic.txt")])
    _, b_text, _ = run(["budget", "--in", infile("generic.txt")])
    assert json.loads(a_text)["results"]["budgets"] == json.loads(b_text)["results"]["budgets"]


def test_stability_jsonl():
    code, text, _ = run(["stability", "--in", infile("generic.txt"),
                         "--models", "uniform,adversarial", "--seeds-count", "2",
                         "--format", "jsonl"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 4
    verdicts = [json.loads(line) for line in lines]
    assert all(v["passed"] and v["in_budget"] for v in verdicts)
    assert {v["trial"] for v in verdicts} == {"point_stability"}
    assert {v["model"] for v in verdicts} == {"uniform", "adversarial"}


@pytest.mark.parametrize("argv", [
    ["analyze", "--format", "json"], ["analyze", "--format", "csv"],
    ["stability", "--models", "uniform,radial", "--seeds-count", "2", "--format", "jsonl"],
], ids=["analyze-json", "analyze-csv", "stability-jsonl"])
def test_stdout_gets_the_bytes_the_out_file_gets(argv, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_timings", lambda *args, **trials: {"total_s": 0.0})
    argv = argv + ["--in", infile("generic.txt")]
    code, text, _ = run(argv)
    assert code == 0 and text
    path = tmp_path / "report"
    assert run(argv + ["--out", str(path)]) == (0, "", "")
    assert path.read_bytes() == text.encode()


def test_stability_json_summary_and_determinism():
    argv = ["stability", "--in", infile("generic.txt"), "--models", "radial",
            "--seeds-count", "2", "--budget-fraction", "0.5",
            "--budget-fraction", "1.0"]
    code, one, _ = run(argv)
    assert code == 0
    _, two, _ = run(argv)
    assert stripped(one) == stripped(two)
    doc = json.loads(one)
    assert doc["config"]["budget_fractions"] == [0.5, 1.0]
    cells = doc["results"]["summary"]["point_stability[radial]"]
    assert len(cells) == 2
    assert all(cell == {"pass": 2, "total": 2} for cell in cells.values())
    assert len(doc["results"]["verdicts"]) == 4


def test_stability_csv_strips_timings():
    code, text, _ = run(["stability", "--in", infile("generic.txt"),
                         "--models", "radial", "--seeds-count", "1",
                         "--format", "csv"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "key,value"
    assert not any(line.startswith("timings") for line in lines)
    assert any(line.startswith("results.summary.point_stability") for line in lines)


def test_stability_unknown_model_is_precondition():
    code, _, _ = run(["stability", "--in", infile("generic.txt"),
                      "--models", "bogus"])
    assert code == 4


def test_stability_gate_blocks_degenerate_data():
    base = ["stability", "--in", infile("exact.txt"), "--models", "radial",
            "--seeds-count", "1"]
    code, _, err = run(base)
    assert code == 5
    assert "use --force" in err
    # Zero protection is not positive, so force cannot bypass the gate either.
    code, _, err = run(base + ["--force"])
    assert code == 5
    assert "use --force" not in err


def test_relax_at_the_point_budget():
    code, text, _ = run(["relax", "--in", infile("generic.txt")])
    assert code == 0
    doc = json.loads(text)
    v = doc["results"]["verdict"]
    assert v["trial"] == "relaxation" and v["passed"] and v["certified"]
    _, b_text, _ = run(["budget", "--in", infile("generic.txt")])
    budgets = json.loads(b_text)["results"]["budgets"]
    assert doc["config"]["rho"] == pytest.approx(budgets["rho_point"])


def test_relax_explicit_zero_slack():
    code, text, _ = run(["relax", "--in", infile("generic.txt"), "--rho", "0"])
    assert code == 0
    assert json.loads(text)["config"]["rho"] == 0.0


def test_a_point_near_an_edge_midpoint_gets_a_report(tmp_path):
    # A point 1e-10 off the midpoint of an edge makes a triangle whose Gram
    # system is singular to working precision.
    pts = grid_points(9, 2, 0.2, seed=1)
    d = pts[41] - pts[40]
    q = pts[40] + 0.5 * d + 1e-10 * np.array([-d[1], d[0]])
    path = str(tmp_path / "near.txt")
    write_points(path, np.vstack([pts, q]))
    for argv in (["relax"], ["metric"], ["stability", "--models", "relaxation"]):
        code, text, _ = run([*argv, "--in", path])
        assert code in (0, 4, 5)
        assert json.loads(text)["results"]


def test_metric_both_modes_pass():
    for mode in ("thm", "cor"):
        code, text, _ = run(["metric", "--in", infile("generic.txt"),
                             "--mode", mode, "--seed", "1"])
        assert code == 0
        v = json.loads(text)["results"]["verdict"]
        assert v["passed"] and v["certified"]
        assert v["trial"] == f"metric_stability_{mode}"


def test_compare_identical_and_flipped(tmp_path):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps({"simplices": [[0, 1, 2], [1, 2, 3]]}))
    right.write_text(json.dumps({"simplices": [[0, 1, 3], [0, 2, 3]]}))
    code, text, _ = run(["compare", str(left), str(left)])
    assert code == 0
    assert json.loads(text)["results"] == {"isomorphic": True, "missing": [], "extra": []}
    code, text, _ = run(["compare", str(left), str(right)])
    assert code == 5
    res = json.loads(text)["results"]
    assert not res["isomorphic"]
    assert res["missing"] and res["extra"]


def test_compare_with_mapping_and_centre(tmp_path):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    mapping = tmp_path / "map.json"
    left.write_text(json.dumps({"simplices": [[0, 1, 2], [1, 2, 3]]}))
    right.write_text(json.dumps({"simplices": [[1, 2, 3], [0, 1, 2]]}))
    mapping.write_text(json.dumps({0: 3, 1: 2, 2: 1, 3: 0}))
    code, text, _ = run(["compare", str(left), str(right),
                         "--mapping", str(mapping), "--q", "1,2"])
    assert code == 0
    doc = json.loads(text)
    assert doc["results"]["isomorphic"] is True
    assert doc["config"]["q"] == [1, 2]
    # A star centre the mapping does not cover is a precondition failure.
    code, _, err = run(["compare", str(left), str(right),
                        "--mapping", str(mapping), "--q", "1,7"])
    assert code == 4
    assert "mapping misses vertices [7]" in err


def test_compare_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"simplices": [[0, 1]]}))
    code, _, _ = run(["compare", str(bad), str(ok)])
    assert code == 3
    code, _, _ = run(["compare", str(tmp_path / "missing.json"), str(ok)])
    assert code == 2
    for simplices in ([[0.9, 1.5, 2.2]], [[-3, 1]], [[True, 0]], [["1", 0]]):
        bad.write_text(json.dumps({"simplices": simplices}))
        code, _, err = run(["compare", str(bad), str(ok)])
        assert code == 3, simplices
        assert "parse error" in err


def test_parser_rejects_unknown_verbs():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_successive_calls_share_no_parser_state():
    base = ["stability", "--in", infile("generic.txt"), "--models", "radial",
            "--seeds-count", "1"]
    code, one, _ = run(base + ["--budget-fraction", "0.5", "--budget-fraction", "0.75"])
    assert code == 0
    assert json.loads(one)["config"]["budget_fractions"] == [0.5, 0.75]
    code, two, _ = run(base)
    assert code == 0
    assert json.loads(two)["config"]["budget_fractions"] == [1.0]


def test_analyze_builds_hull_complex_and_radius_once(tmp_path, monkeypatch):
    from delgen import delaunay, genericity, hull, simplex
    from delgen.datasets import delta_search
    from delgen.genericity import analyze_genericity, lemma_audit, thickness_certificate
    from delgen.perturb import measured_secure_params

    counts = {}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(hull, "_facet_planes_seeded")
    counting(hull, "_facet_planes_bruteforce")
    counting(delaunay, "_lifted_top_simplices")
    counting(genericity, "_sampling_radius")
    path = tmp_path / "grid225.txt"
    pts = grid_points(15, 2, 0.2, seed=3)
    write_points(str(path), pts)
    code, _, _ = run(["analyze", "--in", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 0
    once = {"_facet_planes_seeded": 1, "_lifted_top_simplices": 1, "_sampling_radius": 1}
    assert counts == once
    # The library builds the same way: once per analysed input.
    counts.clear()
    analyze_genericity(pts)
    assert counts == once
    counts.clear()
    delta_search(9, 2, 0.2, k=3)
    assert counts == {name: 3 for name in once}
    # Every reader of the simplex metrics shares one table, filled by one
    # batched call per dimension; no reader computes a simplex on its own.
    counting(simplex, "simplex_metrics_batch")
    counting(genericity, "simplex_metrics_batch")
    for dim, grid in ((2, pts), (3, grid_points(9, 3, 0.05, seed=1))):
        analysis = analyze_genericity(grid)
        counts.clear()
        audit = lemma_audit(analysis)
        thickness_certificate(analysis)
        measured_secure_params(analysis)
        assert audit.generic and audit.simplices
        assert counts == {"simplex_metrics_batch": dim}


def test_analyze_builds_the_sampling_set_up_once(tmp_path, monkeypatch):
    # The Voronoi pieces, the face-to-top incidence and every hull depth the
    # sampling radius reads are built once per analysis; the g evaluations
    # of the fixed point solve only compare against them.
    from delgen import genericity, hull

    counts, evaluating, depth_in_g = {}, [], []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((genericity, "_faces_of"), (genericity, "_distinct_faces"),
                         (genericity, "_voronoi_pieces")):
        counting(module, name)
    real_g, real_depth = genericity._coverage_radius, hull.HullFacets.depth

    def g(*args):
        counts["g"] = counts.get("g", 0) + 1
        evaluating.append(True)
        try:
            return real_g(*args)
        finally:
            evaluating.pop()

    monkeypatch.setattr(genericity, "_coverage_radius", g)
    monkeypatch.setattr(hull.HullFacets, "depth",
                        lambda self, x: depth_in_g.append(bool(evaluating)) or real_depth(self, x))
    path = tmp_path / "grid3d.txt"
    write_points(str(path), grid_points(9, 3, 0.05, seed=1))
    # The circumcentre start is this grid's fixed point, so g runs once; from
    # g(0), with the start forced to 0, g runs at least three times.
    for from_g0 in (False, True):
        if from_g0:
            monkeypatch.setattr(genericity, "_circumcentre_fixed_point", lambda vor: 0.0)
        counts.clear()
        depth_in_g.clear()
        code, _, _ = run(["analyze", "--in", str(path)])
        assert code == 0
        evaluations = counts.pop("g")
        assert evaluations >= 3 if from_g0 else evaluations == 1
        # One pass of Voronoi pieces, and one face pass each for Delaunay
        # edges and triangles; the audit lists the safe edges and triangles in one more
        # pass each.
        assert counts == {"_faces_of": 2, "_distinct_faces": 2, "_voronoi_pieces": 1}
        # The points' hull depths are taken once per analysis, and so are the
        # circumcentres'.
        assert depth_in_g == [False, False]


def test_compare_rejects_malformed_mapping(tmp_path):
    left = tmp_path / "left.json"
    left.write_text(json.dumps({"simplices": [[0, 1, 2]]}))
    for raw in ({"a": 1, "1": 1, "2": 2}, [0, 1, 2], {"0": [1], "1": 1, "2": 2},
                {"0": 0.7, "1": 1, "2": 2}, {"0": True, "1": 1, "2": 2},
                {"0": "0", "1": 1, "2": 2}, {"0": -1, "1": 1, "2": 2},
                {"-1": 0, "1": 1, "2": 2}, {"00": 0, "1": 1, "2": 2}):
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps(raw))
        code, _, err = run(["compare", str(left), str(left), "--mapping", str(mapping)])
        assert code == 3, raw
        assert "parse error" in err


def test_stability_without_seeds_is_precondition():
    code, text, err = run(["stability", "--in", infile("generic.txt"),
                           "--models", "uniform", "--seeds-count", "0"])
    assert code == 4
    assert text == ""
    assert "empty trial batch" in err


def test_stability_rejects_a_bad_fraction_before_any_trial(monkeypatch):
    import delgen.delaunay as delaunay

    built = []
    real = delaunay._star_candidates
    monkeypatch.setattr(delaunay, "_star_candidates",
                        lambda *args: built.append(1) or real(*args))
    for bad in ("nan", "inf", "-0.5"):
        code, text, err = run(["stability", "--in", infile("generic.txt"),
                               "--models", "metric,relaxation", "--budget-fraction", "1.0",
                               "--budget-fraction", bad])
        assert code == 4 and text == ""
        assert "bad budget fraction" in err and "Traceback" not in err
    assert not built


def test_relax_rejects_slack_that_is_not_finite():
    for flags in (["--rho", "nan"], ["--rho", "inf"], ["--budget-fraction", "nan"]):
        code, _, err = run(["relax", "--in", infile("generic.txt"), *flags])
        assert code == 4
        assert "rho must be finite and nonnegative" in err


def test_metric_rejects_amplitude_that_is_not_finite():
    for flags in (["--amplitude", "nan"], ["--amplitude", "inf"],
                  ["--budget-fraction", "nan"]):
        code, _, err = run(["metric", "--in", infile("generic.txt"), *flags])
        assert code == 4
        assert "amplitude must be finite and nonnegative" in err


def test_3d_pipeline_end_to_end(tmp_path):
    path = tmp_path / "grid3d.txt"
    write_points(str(path), grid_points(9, 3, 0.05, seed=1))
    start = time.perf_counter()
    code, text, _ = run(["analyze", "--in", str(path)])
    assert code == 0
    res = json.loads(text)["results"]
    assert res["generic"] is True and res["audit"]["generic"] is True
    assert res["region"]
    for argv in (["relax"], ["metric", "--mode", "thm"]):
        code, text, _ = run([*argv, "--in", str(path)])
        assert code == 0, argv
        v = json.loads(text)["results"]["verdict"]
        assert v["passed"] and v["certified"], argv
    assert time.perf_counter() - start < 60.0


@pytest.mark.parametrize("dim", [2, 3])
def test_near_duplicate_pair_gets_a_report(tmp_path, dim):
    # A pair 1e-9 apart at a hull corner, far from the deep region: the
    # sampling radius does not depend on the least point gap, so the whole
    # analysis runs and passes.
    pts = grid_points(9, dim, 0.2 if dim == 2 else 0.05, seed=3)
    near = pts[0] + 1e-9 * np.eye(dim)[0]
    path = tmp_path / "near.txt"
    write_points(str(path), np.vstack([pts, near]))
    start = time.perf_counter()
    code, text, err = run(["analyze", "--in", str(path)])
    assert time.perf_counter() - start < 10.0
    assert code == 0, err
    res = json.loads(text)["results"]
    assert res["sampling"]["sparsity"] == pytest.approx(1e-9, rel=1e-6)
    assert res["generic"] is True and res["region"]


def test_near_duplicate_pair_in_the_region_is_non_generic(tmp_path):
    pts = grid_points(9, 2, 0.2, seed=3)
    near = pts[40] + 1e-9 * np.eye(2)[0]
    path = tmp_path / "near.txt"
    write_points(str(path), np.vstack([pts, near]))
    code, text, _ = run(["analyze", "--in", str(path)])
    assert code == 5
    res = json.loads(text)["results"]
    assert 40 in res["region"] and res["generic"] is False
    assert res["reason"] == "audited protection within tolerance of zero"


def test_timings_split_the_total_by_stage():
    stages = ("hull_s", "delaunay_s", "sampling_s", "analysis_s")
    # The verbs that run trials also time them, after the analysis.
    for argv, trials in ((["analyze"], ()), (["budget"], ()), (["relax"], ("trials_s",)),
                         (["metric"], ("trials_s",)),
                         (["stability", "--models", "uniform,relaxation,metric",
                           "--seeds-count", "1"], ("trials_s",))):
        code, text, _ = run([*argv, "--in", infile("generic.txt")])
        assert code == 0, argv
        timings = json.loads(text)["timings"]
        assert set(timings) == {"total_s", *stages, *trials}, argv
        assert all(timings[k] >= 0.0 for k in (*stages, *trials))
        assert sum(timings[k] for k in (*stages, *trials)) <= timings["total_s"]
    code, text, _ = run(["analyze", "--in", infile("square.txt")])
    assert code == 4
    assert set(json.loads(text)["timings"]) == {"total_s", *stages}


def test_analyze_of_20000_points_runs_in_bounded_memory(tmp_path):
    # No stage keeps an n x n table: one pdist table of 20,000 points alone
    # takes 1.6 GB.
    points = tmp_path / "cloud.txt"
    write_points(str(points), uniform_points(20000, 2, seed=3))
    script = ("import resource, sys; from delgen.cli import main; code = main(sys.argv[1:]); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(delgen.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, "analyze", "--in", str(points),
         "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # ru_maxrss is in KiB on Linux.
    assert int(proc.stdout.split()[-1]) < 600 * 1024


POINT_VERBS = ("analyze", "budget", "stability", "relax", "metric")


@pytest.mark.parametrize("dim", [2, 3])
def test_coordinates_at_the_float_range_bounds(dim, tmp_path, capsys):
    """Every verb refuses a point set just outside the coordinate range with
    exit 4 naming the bound, and runs one just inside it to its own exit
    code, with no traceback either way."""
    least, largest = (1e-76, 1e76) if dim == 2 else (1e-50, 1e50)
    pts = grid_points(9, 2, 0.2, seed=1) if dim == 2 else grid_points(5, 3, 0.05, seed=1)
    pts = pts / np.abs(pts).max()
    path, out = str(tmp_path / "pts.txt"), str(tmp_path / "out.json")
    # Just inside the small end only the verbs of bounded work run: the
    # trials would search the whole set as its deep interior.
    cases = [(largest, POINT_VERBS, True), (np.nextafter(largest, np.inf), POINT_VERBS, False),
             (np.nextafter(least, 0.0), POINT_VERBS, False), (least, ("analyze", "budget"), True)]
    for scale, verbs, inside in cases:
        write_points(path, pts * scale)
        magnitude = repr(float(np.abs(read_points(path)).max()))
        assert (float(magnitude) == scale) and (least <= scale <= largest) == inside
        for verb in verbs:
            code = main([verb, "--in", path, "--out", out])
            err = capsys.readouterr().err
            named = f"largest coordinate magnitude {magnitude} is outside [{least!r}, {largest!r}]"
            if inside:
                # A trial may still perturb points past the bound and be refused.
                assert code in (0, 4, 5) and named not in err, (scale, verb, err)
            else:
                assert code == 4 and named in err, (scale, verb, err)


def test_a_3d_analysis_at_the_largest_coordinates(tmp_path):
    pts = grid_points(9, 3, 0.05, seed=1)
    pts = pts / np.abs(pts).max() * 1e50
    path, out = str(tmp_path / "pts.txt"), str(tmp_path / "out.json")
    write_points(path, pts)
    assert main(["analyze", "--in", path, "--out", out]) == 0
    with open(out) as fh:
        assert json.load(fh)["results"]["deep_interior"] == [364]


def test_every_exported_name_resolves():
    assert len(set(delgen.__all__)) == len(delgen.__all__)
    assert [name for name in delgen.__all__ if not hasattr(delgen, name)] == []
