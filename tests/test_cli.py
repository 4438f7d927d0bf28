"""End to end command line checks, run in process through ``main``."""

import contextlib
import io
import json
import os
import tempfile
import time

import numpy as np
import pytest

from delgen.cli import build_parser, main
from delgen.datasets import grid_points
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


def test_compare_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"simplices": [[0, 1]]}))
    code, _, _ = run(["compare", str(bad), str(ok)])
    assert code == 3
    code, _, _ = run(["compare", str(tmp_path / "missing.json"), str(ok)])
    assert code == 2


def test_parser_rejects_unknown_verbs():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_analyze_builds_hull_complex_and_radius_once(tmp_path, monkeypatch):
    from delgen import delaunay, genericity, hull
    from delgen.datasets import delta_search
    from delgen.genericity import analyze_genericity

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


def test_compare_rejects_malformed_mapping(tmp_path):
    left = tmp_path / "left.json"
    left.write_text(json.dumps({"simplices": [[0, 1, 2]]}))
    for raw in ({"a": 1, "1": 1, "2": 2}, [0, 1, 2], {"0": [1], "1": 1, "2": 2}):
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
    for argv in (["analyze"], ["budget"], ["relax"], ["metric"],
                 ["stability", "--models", "uniform", "--seeds-count", "1"]):
        code, text, _ = run([*argv, "--in", infile("generic.txt")])
        assert code == 0, argv
        timings = json.loads(text)["timings"]
        assert set(timings) == {"total_s", *stages}, argv
        assert all(timings[k] >= 0.0 for k in stages)
        assert sum(timings[k] for k in stages) <= timings["total_s"]
    code, text, _ = run(["analyze", "--in", infile("square.txt")])
    assert code == 4
    assert set(json.loads(text)["timings"]) == {"total_s", *stages}
