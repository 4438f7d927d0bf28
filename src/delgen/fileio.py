"""Point file parsing, canonical serialization, and report plumbing.

Point files are plain text: one point per line, whitespace separated decimal
coordinates, '#' starts a comment, dimension inferred from the first data
line. Serialization always uses 17 significant digits, which round-trips
IEEE doubles exactly and makes content digests reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import warnings
from itertools import chain

import numpy as np

from .complexes import SimplicialComplex
from .errors import ParseError
from .hull import blocks

POINT_FORMAT = "%.17g"


# Characters at which ``str.splitlines`` ends a line but ``np.loadtxt``
# reads in-line whitespace.
_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


def parse_points(text: str, source: str = "<string>") -> np.ndarray:
    """The points of a point file's text, one row per data line.

    One ``np.loadtxt`` pass reads ASCII text without the line breaks it
    would read otherwise; wherever it fails, or reads a non-finite value or
    no row, the line parser reads the text instead. It accepts the same
    files, and raises every :class:`ParseError` with its line number.
    """
    if text.isascii() and not any(c in text for c in _LINE_BREAKS):
        # Universal newlines split at \r, \n and \r\n, as splitlines does.
        stream = io.TextIOWrapper(io.BytesIO(text.encode("ascii")), encoding="ascii")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty text warns
                pts = np.loadtxt(stream, ndmin=2)
        except ValueError:
            pass
        else:
            if pts.size and np.isfinite(pts).all():
                return pts
    return _parse_lines(text, source)


def _parse_lines(text: str, source: str) -> np.ndarray:
    rows: list[list[float]] = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(f"{source}:{lineno}: {exc}") from None
        if any(not math.isfinite(v) for v in row):
            raise ParseError(f"{source}:{lineno}: non-finite coordinate")
        if dim is None:
            dim = len(row)
        elif len(row) != dim:
            raise ParseError(
                f"{source}:{lineno}: expected {dim} coordinates, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise ParseError(f"{source}: no data lines")
    return np.array(rows, dtype=float)


def read_points(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_points(fh.read(), source=str(path))


def format_points(points: np.ndarray, header: str | None = None) -> str:
    pts = np.asarray(points, dtype=float)
    lines = [] if header is None else [f"# {header}"]
    if len(pts):
        row = " ".join([POINT_FORMAT] * pts.shape[1])
        lines.append("\n".join([row] * len(pts)) % tuple(pts.ravel().tolist()))
    return "\n".join(lines) + "\n"


def write_points(path, points: np.ndarray, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_points(points, header))


def dataset_digest(points: np.ndarray) -> str:
    """Content hash of the canonical headerless serialization."""
    return hashlib.sha256(format_points(points).encode()).hexdigest()


# -- complexes -------------------------------------------------------------


def vertex_id(value) -> int:
    """A vertex id read from JSON: a nonnegative integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParseError(f"vertex id must be a nonnegative integer, got {value!r}")
    return value


def complex_from_json(doc: dict) -> SimplicialComplex:
    if not isinstance(doc, dict) or not isinstance(doc.get("simplices"), list):
        raise ParseError("complex document must carry a 'simplices' array")
    simplices = []
    for s in doc["simplices"]:
        if not isinstance(s, list):
            raise ParseError(f"bad simplex entry {s!r}: not an array")
        simplices.append(tuple(vertex_id(v) for v in s))
    return SimplicialComplex(simplices)


# -- report envelopes ------------------------------------------------------


class Table:
    """Rows of a report held as columns, one array per field.

    Each column has one entry per row; a 2-D column gives every row a list.
    The report writers render a table exactly as they render the list of
    its rows as ``jsonable`` dicts, without building those dicts.
    """

    __slots__ = ("columns",)

    def __init__(self, **columns) -> None:
        self.columns = {name: np.asarray(col) for name, col in columns.items()}

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


def _is_ids(obj) -> bool:
    """A 1-D integer array, which the writers render as a list of ids."""
    return isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "iu"


def jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats to strings.
    A :class:`Table` or a 1-D integer array is kept as it is, for the
    writers."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray) and not _is_ids(obj):
        return [jsonable(v) for v in obj.tolist()]
    return obj


def report_envelope(version: str, config: dict, digest: str | None,
                    timings: dict, results: dict) -> dict:
    return {
        "tool": {"name": "delgen", "version": version},
        "config": jsonable(config),
        "dataset_digest": digest,
        "timings": jsonable(timings),
        "results": jsonable(results),
    }


def _json_cells(column: np.ndarray) -> list[str]:
    """JSON text of each entry of a 1-D column, as ``json.dumps`` writes its
    ``jsonable`` value."""
    values = column.tolist()
    if column.dtype == bool:
        return ["true" if v else "false" for v in values]
    if column.dtype.kind == "f":
        return [repr(v) if math.isfinite(v) else f'"{v!r}"' for v in values]
    return [str(v) for v in values]


# Characters of the longest cell: the repr of a float, such as
# -2.2250738585072014e-308. A row's width counts each cell at this many.
_CELL_CHARS = 24


def _write_rows(fh, row: str, columns: list, indent: str) -> None:
    """Write the list of rows that ``row`` spells with one cell of each
    column filled in, as ``json.dumps(..., indent=2)`` writes a list, each
    line after the first prefixed by ``indent``. The rows go out in blocks
    (``hull.blocks``, counting a row by its characters), each from one
    template filled from the columns' slices."""
    count = len(columns[0])
    if not count:
        fh.write("[]")
        return
    sep = f",\n{indent}  "
    fh.write(f"[\n{indent}  ")
    for block in blocks(count, len(row) + _CELL_CHARS * len(columns)):
        if block.start:
            fh.write(sep)
        cells = [_json_cells(col[block]) for col in columns]
        template = sep.join([row] * (block.stop - block.start))
        fh.write(template % tuple(chain.from_iterable(zip(*cells))))
    fh.write(f"\n{indent}]")


def _write_table(fh, table: Table, indent: str) -> None:
    """Write the table's rows as ``json.dumps(..., sort_keys=True, indent=2)``
    writes them (see :func:`_write_rows`)."""
    lines, columns = [], []
    for name in sorted(table.columns):
        col = table.columns[name]
        key = json.dumps(name)
        if col.ndim == 1:
            lines.append(f"{indent}    {key}: %s")
            columns.append(col)
        else:
            items = ",\n".join([f"{indent}      %s"] * col.shape[1])
            lines.append(f"{indent}    {key}: [\n{items}\n{indent}    ]")
            columns.extend(col.T)
    _write_rows(fh, "{\n" + ",\n".join(lines) + f"\n{indent}  }}", columns, indent)


# Stands in for each table or id list while json.dumps writes the rest.
_STUB = "\0table"


def envelope_json(envelope: dict, fh) -> None:
    """Write ``json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False)``
    and a newline to the text stream ``fh``, where each :class:`Table` is
    written as its rows and each 1-D integer array as its list, a block of
    rows at a time. Only the rest of the report is one string."""
    held = []

    def stub(obj):
        if not (isinstance(obj, Table) or _is_ids(obj)):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        held.append(obj)
        return _STUB

    text = json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False, default=stub)
    pieces = text.split(json.dumps(_STUB))
    fh.write(pieces[0])
    for before, obj, after in zip(pieces[:-1], held, pieces[1:], strict=True):
        line = before.rsplit("\n", 1)[-1]
        indent = line[:len(line) - len(line.lstrip(" "))]
        if isinstance(obj, Table):
            _write_table(fh, obj, indent)
        else:
            _write_rows(fh, "%s", [obj], indent)
        fh.write(after)
    fh.write("\n")


def strip_timings(envelope: dict) -> dict:
    return {k: v for k, v in envelope.items() if k != "timings"}


def flatten_for_csv(value, prefix: str = ""):
    """Depth-first flattening of a report into (key, value) rows, yielded in
    order; a table's cells are formatted a block of rows at a time."""
    if isinstance(value, Table):
        fields = []
        for name in sorted(value.columns):
            col = value.columns[name]
            if col.ndim == 1:
                fields.append((f".{name}", col))
            else:
                fields.extend((f".{name}[{j}]", c) for j, c in enumerate(col.T))
        width = sum(len(prefix) + len(suffix) + _CELL_CHARS for suffix, _ in fields)
        for block in blocks(len(value), width):
            cells = [list(map(str, col[block].tolist())) for _, col in fields]
            for i, row in enumerate(zip(*cells), start=block.start):
                head = f"{prefix}[{i}]"
                for (suffix, _), v in zip(fields, row):
                    yield head + suffix, v
    elif isinstance(value, dict):
        for k in sorted(value):
            yield from flatten_for_csv(value[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, (list, tuple, np.ndarray)):
        for i, v in enumerate(value):
            yield from flatten_for_csv(v, f"{prefix}[{i}]")
    else:
        yield prefix, "" if value is None else str(value)


def envelope_csv(envelope: dict, fh) -> None:
    """Write the report without its timings as (key, value) CSV rows to the
    text stream ``fh``, row by row as :func:`flatten_for_csv` yields them."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(flatten_for_csv(strip_timings(envelope)))
