"""Dataset generators, point file round trips, digests, and envelopes."""

import json

import numpy as np
import pytest

from delgen.datasets import delta_search, generic_grid, grid_points, uniform_points
from delgen.delaunay import Ball, delaunay_lifted
from delgen.errors import ParseError, PreconditionError
from delgen.fileio import (
    complex_from_json,
    complex_to_json,
    dataset_digest,
    envelope_csv,
    envelope_json,
    flatten_for_csv,
    format_points,
    jsonable,
    parse_points,
    read_points,
    report_envelope,
    strip_timings,
    write_points,
)
from delgen.genericity import analyze_genericity


def test_grid_points_exact_lattice():
    pts = grid_points(3, dim=2)
    assert pts.shape == (9, 2)
    assert set(map(tuple, pts)) == {(float(i), float(j)) for i in range(3) for j in range(3)}
    pts3 = grid_points(2, dim=3, spacing=0.5)
    assert pts3.shape == (8, 3)
    assert pts3.max() == 0.5


def test_grid_points_jitter_bounds_and_determinism():
    one = grid_points(5, dim=2, jitter=0.3, seed=6)
    two = grid_points(5, dim=2, jitter=0.3, seed=6)
    other = grid_points(5, dim=2, jitter=0.3, seed=7)
    assert np.array_equal(one, two)
    assert not np.array_equal(one, other)
    lattice = grid_points(5, dim=2)
    assert np.linalg.norm(one - lattice, axis=1).max() <= 0.3
    scaled = grid_points(5, dim=2, jitter=0.3, seed=6, spacing=2.0)
    assert np.allclose(scaled, 2.0 * one)


def test_grid_points_validation():
    with pytest.raises(PreconditionError):
        grid_points(1, dim=2)
    with pytest.raises(PreconditionError):
        grid_points(3, dim=0)
    with pytest.raises(PreconditionError):
        grid_points(3, jitter=0.5)
    with pytest.raises(PreconditionError):
        grid_points(3, jitter=-0.1)


def test_uniform_points():
    pts = uniform_points(20, dim=3, seed=1, low=-2.0, high=5.0)
    assert pts.shape == (20, 3)
    assert pts.min() >= -2.0 and pts.max() <= 5.0
    assert np.array_equal(pts, uniform_points(20, dim=3, seed=1, low=-2.0, high=5.0))
    with pytest.raises(PreconditionError):
        uniform_points(2, dim=2)


def test_delta_search_picks_the_best_candidate():
    found = delta_search(9, dim=2, jitter=0.2, k=4, seed=0)
    assert len(found.candidates) == 4
    finite = [d for _, d in found.candidates if np.isfinite(d)]
    assert found.delta == max(finite)
    assert (found.seed, found.delta) in found.candidates
    # Re-measure the winner independently of the search bookkeeping.
    a = analyze_genericity(found.points)
    assert a.protection.delta_global == pytest.approx(found.delta, rel=1e-12)


def test_delta_search_determinism():
    one = delta_search(9, dim=2, jitter=0.2, k=3, seed=5)
    two = delta_search(9, dim=2, jitter=0.2, k=3, seed=5)
    assert np.array_equal(one.points, two.points)
    assert one.candidates == two.candidates


def test_generic_grid_is_generic():
    pts = generic_grid(side=9, dim=2, seed=0, k=3)
    assert analyze_genericity(pts).protection.generic


def test_parse_points_comments_and_blank_lines():
    text = """
    # a comment line
    0.5 1.5   # trailing comment

    2.5 -3.5
    """
    pts = parse_points(text)
    assert np.array_equal(pts, np.array([[0.5, 1.5], [2.5, -3.5]]))


def test_parse_points_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="data.txt:3"):
        parse_points("1 2\n3 4\n5 x\n", source="data.txt")
    with pytest.raises(ParseError, match=":2.*expected 2"):
        parse_points("1 2\n3 4 5\n")
    with pytest.raises(ParseError, match="non-finite"):
        parse_points("1 2\nnan 4\n")
    with pytest.raises(ParseError, match="no data"):
        parse_points("# only comments\n")


def test_point_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    pts = np.vstack([
        rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-12, 12, size=(50, 1)),
        [[0.1 + 0.2, 1e-300, -1e300]],
    ])
    path = tmp_path / "points.txt"
    write_points(path, pts, header="round trip check")
    back = read_points(path)
    assert np.array_equal(back, pts)


def test_format_points_header_and_shape():
    text = format_points(np.array([[1.0, 2.0]]), header="hello")
    assert text.startswith("# hello\n")
    assert text.endswith("\n")
    assert parse_points(text).shape == (1, 2)


def test_dataset_digest_ignores_header_not_data():
    pts = np.array([[0.5, 0.25], [1.0, 2.0]])
    d = dataset_digest(pts)
    assert len(d) == 64
    assert d == dataset_digest(pts.copy())
    nudged = pts.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], 1.0)
    assert d != dataset_digest(nudged)


def test_complex_json_round_trip():
    pts = grid_points(4, dim=2, jitter=0.2, seed=2)
    res = delaunay_lifted(pts)
    doc = complex_to_json(res.complex, res.balls)
    text = json.dumps(doc)
    back = complex_from_json(json.loads(text), pts)
    assert back == res.complex
    assert len(doc["balls"]) == len(res.balls)
    entry = doc["balls"][0]
    assert set(entry) == {"simplex", "centre", "radius", "protection"}
    key = tuple(entry["simplex"])
    assert np.allclose(entry["centre"], res.balls[key].center)


def test_complex_json_sorted_by_dimension():
    cx = delaunay_lifted(grid_points(3, dim=2, jitter=0.2, seed=1)).complex
    sizes = [len(s) for s in complex_to_json(cx)["simplices"]]
    assert sizes == sorted(sizes)


def test_complex_from_json_validation():
    with pytest.raises(ParseError):
        complex_from_json({"wrong": []})
    with pytest.raises(ParseError):
        complex_from_json({"simplices": [["a", "b"]]})


def test_jsonable_types():
    doc = jsonable({
        "flag": np.bool_(True),
        "count": np.int64(3),
        "value": np.float64(0.5),
        "bad": np.inf,
        "worse": np.nan,
        "arr": np.array([1.5, 2.5]),
        "nested": [(1, 2), {"k": np.float32(1.0)}],
    })
    assert doc["flag"] is True
    assert doc["count"] == 3 and isinstance(doc["count"], int)
    assert doc["value"] == 0.5
    assert doc["bad"] == "inf" and doc["worse"] == "nan"
    assert doc["arr"] == [1.5, 2.5]
    assert json.dumps(doc, allow_nan=False)


def test_envelope_shape_and_determinism():
    env = report_envelope("1.2.3", {"verb": "analyze", "seed": 4}, "abc123",
                          {"total_s": 0.5}, {"delta": 0.01})
    text = envelope_json(env)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["tool"] == {"name": "delgen", "version": "1.2.3"}
    assert set(parsed) == {"tool", "config", "dataset_digest", "timings", "results"}
    # Identical content, different timings: equal after stripping.
    env2 = report_envelope("1.2.3", {"verb": "analyze", "seed": 4}, "abc123",
                           {"total_s": 99.0}, {"delta": 0.01})
    assert strip_timings(env) == strip_timings(env2)
    assert envelope_json(env) != envelope_json(env2)


def test_flatten_and_csv():
    rows = flatten_for_csv({"a": {"b": [1, 2]}, "c": None})
    assert rows == [("a.b[0]", "1"), ("a.b[1]", "2"), ("c", "")]
    env = report_envelope("0", {"x": 1}, None, {"t": 1.0}, {"list": [True, 2.5]})
    text = envelope_csv(env)
    lines = text.splitlines()
    assert lines[0] == "key,value"
    assert not any(line.startswith("timings") for line in lines)
    assert "results.list[0],True" in lines
