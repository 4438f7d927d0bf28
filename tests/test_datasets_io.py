"""Dataset generators, point file round trips, digests, and envelopes."""

import csv
import io
import json

import numpy as np
import pytest

from conftest import traced_peak
from delgen import cli, fileio, hull
from delgen.datasets import delta_search, grid_points, uniform_points
from delgen.delaunay import delaunay_lifted
from delgen.errors import ParseError, PreconditionError
from delgen.fileio import (
    Table,
    _parse_lines,
    complex_from_json,
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


def written(writer, env) -> str:
    """The text ``writer`` (``envelope_json`` or ``envelope_csv``) writes."""
    buf = io.StringIO()
    writer(env, buf)
    return buf.getvalue()


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
    pts = uniform_points(20, dim=3, seed=1)
    assert pts.shape == (20, 3)
    assert pts.min() >= 0.0 and pts.max() < 1.0
    assert np.array_equal(pts, uniform_points(20, dim=3, seed=1))
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


def parse_outcome(parse, text):
    """The array a parser returns for ``text``, or the message it raises."""
    try:
        return parse(text, "pts.txt")
    except ParseError as exc:
        return str(exc)


def assert_same_parse(text):
    got, want = parse_outcome(parse_points, text), parse_outcome(_parse_lines, text)
    if isinstance(want, str):
        assert got == want, repr(text)
    else:
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype, repr(text)
        assert got.shape == want.shape and np.array_equal(got, want), repr(text)
    return want


# Texts where a numpy parse could differ from the line parser: line breaks of
# str.splitlines that np.loadtxt reads as in-line whitespace, a Python float
# literal np.loadtxt rejects, non-finite values, ragged rows, no data, line
# ends other than \n, and non-ASCII text.
PARSE_EDGE_CASES = [
    "1 2\x0c3 4\n", "1 2\x0b3 4\n", "1 2\x1c3 4\n", "1 2\x1d3 4\n", "1 2\x1e3 4\n",
    "1 2\x853 4\n", "1 2\u20283 4\n", "1 2\u20293 4\n", "1\x0c2\n3 4\n",
    "1_0 2\n3 4\n", "1 2\n3 4_5\n",
    "nan 1\n2 3\n", "1 2\ninfinity 3\n", "1 2\n-inf 3\n", "1 2\n1e400 3\n", "NaN\n",
    "1 2\n3\n", "1 2\n3 4 5\n", "1\n2 3\n",
    "# only a comment\n", "", "\n  \n", "# a\n  # b\n",
    "1 2\r\n3 4\r\n", "1 2\r3 4\n", "1 2\r\r\n3 4", "1\r2\n",
    "1 2 # note\n\n  3 4\n", "1\n2\n", "-0 1e-400\n", "0x10 1\n", "1,2\n", "1 2\n3 4\n\x00",
    "\u0661 2\n", "1\xa02\n3 4\n", "1 2\n3 4", "+.5 -5. 1E3\n",
]


@pytest.mark.parametrize("text", PARSE_EDGE_CASES)
def test_parse_points_matches_the_line_parser(text, tmp_path, capsys):
    want = assert_same_parse(text)
    if isinstance(want, str):
        path = tmp_path / "pts.txt"
        path.write_bytes(text.encode("utf-8"))
        assert cli.main(["analyze", "--in", str(path)]) == 3, repr(text)
        capsys.readouterr()


def test_parse_points_matches_the_line_parser_at_every_ascii_character():
    for code in range(128):
        c = chr(code)
        for template in ("1{c}2\n3 4\n", "1 2{c}\n3 4\n", "{c}1 2\n3 4\n", "1 2\n3 4{c}",
                         "1.{c}5 2\n", "1 2{c}3 4\n", "1e{c}5 2\n", "1 2 #{c}\n3 4\n"):
            assert_same_parse(template.format(c=c))


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


def test_format_points_matches_the_per_value_join():
    def per_value(pts, header):
        lines = [] if header is None else [f"# {header}"]
        lines.extend(" ".join("%.17g" % v for v in row) for row in pts)
        return "\n".join(lines) + "\n"

    rng = np.random.default_rng(8)
    cases = [
        rng.uniform(-1.0, 1.0, size=(40, 2)),
        rng.standard_normal((30, 3)) * 10.0 ** rng.integers(-300, 300, size=(30, 1)),
        np.array([[-0.0, 0.0], [5e-324, -2.2e-308], [1.7976931348623157e308, -1e300],
                  [3.0, -7.0], [1e16, 2.0**53 + 1]]),
        np.zeros((0, 2)),
    ]
    for pts in cases:
        for header in (None, "header"):
            assert format_points(pts, header) == per_value(pts, header)
    assert format_points(np.zeros((0, 2))) == "\n"


def test_dataset_digest_ignores_header_not_data():
    pts = np.array([[0.5, 0.25], [1.0, 2.0]])
    d = dataset_digest(pts)
    assert len(d) == 64
    assert d == dataset_digest(pts.copy())
    nudged = pts.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], 1.0)
    assert d != dataset_digest(nudged)


def test_complex_json_round_trip():
    res = delaunay_lifted(grid_points(4, dim=2, jitter=0.2, seed=2))
    doc = {"simplices": [list(s) for s in res.complex.simplices()]}
    back = complex_from_json(json.loads(json.dumps(doc)))
    assert back == res.complex


def test_complex_from_json_validation():
    with pytest.raises(ParseError):
        complex_from_json({"wrong": []})
    with pytest.raises(ParseError):
        complex_from_json({"simplices": [["a", "b"]]})
    # Vertex ids are nonnegative JSON integers: no floats, negatives, bools
    # or numeric strings, which int() would silently accept.
    for bad in ([[0.9, 1.5, 2.2]], [[-3, 1]], [[True, 0]], [["1", 0]], ["12"], 5):
        with pytest.raises(ParseError):
            complex_from_json({"simplices": bad})


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
    text = written(envelope_json, env)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["tool"] == {"name": "delgen", "version": "1.2.3"}
    assert set(parsed) == {"tool", "config", "dataset_digest", "timings", "results"}
    # Identical content, different timings: equal after stripping.
    env2 = report_envelope("1.2.3", {"verb": "analyze", "seed": 4}, "abc123",
                           {"total_s": 99.0}, {"delta": 0.01})
    assert strip_timings(env) == strip_timings(env2)
    assert written(envelope_json, env) != written(envelope_json, env2)


def test_flatten_and_csv():
    rows = list(flatten_for_csv({"a": {"b": [1, 2]}, "c": None}))
    assert rows == [("a.b[0]", "1"), ("a.b[1]", "2"), ("c", "")]
    env = report_envelope("0", {"x": 1}, None, {"t": 1.0}, {"list": [True, 2.5]})
    text = written(envelope_csv, env)
    lines = text.splitlines()
    assert lines[0] == "key,value"
    assert not any(line.startswith("timings") for line in lines)
    assert "results.list[0],True" in lines


def rows_of(value):
    """The report with each table spelled out as its list of row dicts, and
    each array as its list."""
    if isinstance(value, Table):
        names = sorted(value.columns)
        return [{name: rows_of(value.columns[name][i]) for name in names}
                for i in range(len(value))]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: rows_of(v) for k, v in value.items()}
    if isinstance(value, list):
        return [rows_of(v) for v in value]
    return value


def assert_writers_match_the_encoder(env):
    ref = jsonable(rows_of(env))
    want = json.dumps(ref, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert written(envelope_json, env) == want
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(flatten_for_csv(strip_timings(ref)))
    assert written(envelope_csv, env) == buf.getvalue()


@pytest.mark.parametrize("pts, code", [
    (grid_points(9, 2, jitter=0.2, seed=3), 0),
    (grid_points(9, 3, jitter=0.05, seed=1), 0),
    (grid_points(9, 2), 5),
], ids=["analyze-2d", "analyze-3d", "non-generic"])
def test_report_writers_match_the_encoder_on_analyze_reports(pts, code, tmp_path, monkeypatch):
    envelopes = []
    real = cli.report_envelope
    monkeypatch.setattr(cli, "report_envelope",
                        lambda *args: envelopes.append(real(*args)) or envelopes[-1])
    path = tmp_path / "points.txt"
    write_points(str(path), pts)
    assert cli.main(["analyze", "--in", str(path), "--out", str(tmp_path / "r.json")]) == code
    (env,) = envelopes
    table = env["results"]["audit"]["simplices"]
    assert isinstance(table, Table) and (len(table) == 0) == (code == 5)
    for key in ("region", "deep_interior"):
        ids = env["results"][key]
        assert ids.dtype.kind == "i" and ids.ndim == 1 and ids.size
    assert_writers_match_the_encoder(env)


def test_report_writers_match_the_encoder_on_non_finite_rows():
    table = Table(vertices=np.array([[0, 1, 2], [3, 4, 5]]),
                  protection=np.array([np.inf, 0.25]),
                  radius=np.array([1.5, np.nan]), thickness=np.array([-np.inf, 1e-300]),
                  secure=np.array([False, True]))
    env = report_envelope("0", {"x": 1}, None, {"t": 1.0},
                          {"audit": {"simplices": table, "z": 1}, "list": [table]})
    assert_writers_match_the_encoder(env)
    assert '"protection": "inf"' in written(envelope_json, env)


@pytest.mark.parametrize("ids", [np.zeros(0, dtype=np.intp), np.array([7]),
                                 np.arange(0, 3000, 3), np.array([2**40, 0], dtype=np.int64),
                                 np.array([5, 1], dtype=np.uint32)],
                         ids=["empty", "one", "long", "wide", "unsigned"])
def test_report_writers_match_the_encoder_on_id_lists(ids):
    env = report_envelope("0", {"x": 1}, None, {"t": 1.0},
                          {"region": ids, "deep": {"ids": ids, "n": 2},
                           "lists": [ids, [ids]], "values": np.array([0.5, 1.5])})
    assert jsonable(env["results"])["region"] is ids
    assert_writers_match_the_encoder(env)
    assert json.loads(written(envelope_json, env))["results"]["region"] == ids.tolist()


BLOCK_ROWS = 3


@pytest.mark.parametrize("count", [0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1])
def test_report_writers_match_the_encoder_at_block_boundaries(count, monkeypatch):
    # The writers fill one template per block of rows; with blocks of three
    # rows, every seam between blocks must leave the bytes as they were.
    monkeypatch.setattr(fileio, "blocks", lambda total, width: [
        slice(a, min(a + BLOCK_ROWS, total)) for a in range(0, total, BLOCK_ROWS)])
    rng = np.random.default_rng(count)
    radius = rng.random(count) * 10.0 ** rng.integers(-300, 300, count)
    radius[::4] = [np.inf, np.nan, -np.inf, -0.0][:len(radius[::4])]
    table = Table(vertices=rng.integers(0, 2**40, (count, 3)), radius=radius,
                  protection=-rng.random(count), secure=rng.random(count) < 0.5)
    ids = np.arange(count, dtype=np.intp) * 7
    env = report_envelope("0", {"x": 1}, None, {"t": 1.0},
                          {"audit": {"simplices": table, "z": 1}, "region": ids,
                           "list": [table, ids, [table]], "after": [0.5, ids]})
    assert_writers_match_the_encoder(env)


class Sink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self) -> None:
        self.size = 0

    def write(self, text: str) -> None:
        self.size += len(text)


def test_report_writers_hold_a_block_of_rows_not_the_text():
    rng = np.random.default_rng(3)
    n = 200_000
    table = Table(vertices=rng.integers(0, 10**5, (n, 3)), radius=rng.random(n),
                  protection=rng.random(n), thickness=rng.random(n),
                  secure=rng.random(n) < 0.5)
    head = Table(**{name: col[:n // 10] for name, col in table.columns.items()})
    # About 53 MB of JSON text, and 7 MB of CSV for a tenth of the rows; a
    # block of rows is about hull.BLOCK characters, held with its cells.
    for writer, rows, size in ((envelope_json, table, 50e6), (envelope_csv, head, 7e6)):
        env = report_envelope("0", {"x": 1}, None, {"t": 1.0}, {"audit": {"simplices": rows}})
        sink = Sink()
        _, peak = traced_peak(lambda: writer(env, sink))
        assert sink.size > size
        assert peak < 16 * hull.BLOCK, (writer.__name__, peak)
