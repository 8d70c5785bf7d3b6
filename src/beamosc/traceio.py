"""Deterministic file output: trace/envelope CSV, row tables, and SVG plots.

Identical inputs produce byte-identical files: floats are written with
repr() (shortest round-trip form), row order is the natural iteration
order, and nothing timestamps the output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math

import numpy as np

from .errors import ValidationError
from .simulate import Trace

_SVG_W, _SVG_H = 900, 360
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 64, 16, 28, 40
_MAX_POLYLINE = 4000  # plotted samples cap; traces are strided down to this


def write_trace_csv(trace: Trace, path) -> None:
    """Waveforms as CSV with header t,v_in,v_out,x."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,v_in,v_out,x\n")
        for t, vi, vo, x in zip(trace.time, trace.v_in, trace.v_out, trace.x):
            fh.write(f"{float(t)!r},{float(vi)!r},{float(vo)!r},{float(x)!r}\n")


def write_envelope_csv(env: np.ndarray, path) -> None:
    """Envelope rows as CSV with header t,amplitude."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,amplitude\n")
        for t, a in env:
            fh.write(f"{float(t)!r},{float(a)!r}\n")


ROW_BLOCK = 4096  # rows formatted and written at a time by write_rows()

_CSV_BOOL = {True: "True", False: "False"}
_JSON_BOOL = {True: "true", False: "false"}


def _csv_string(text: str) -> str:
    """One CSV cell for a str, quoted exactly as csv's minimal quoting does."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return _csv_string(value)
    return str(value)


def _json_value(value) -> str:
    if isinstance(value, (str, bool)) or value is None:
        return json.dumps(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    raise TypeError(f"cannot write {type(value).__name__} value {value!r} as a row cell")


def _non_finite(column) -> bool:
    if _constant(column):
        column = column[:1]
    if isinstance(column, np.ndarray) and column.dtype.kind != "O":
        return column.dtype.kind == "f" and not np.isfinite(column).all()
    return any(isinstance(v, float) and not math.isfinite(v) for v in column)


def _texts(column) -> tuple[list, list]:
    """CSV and JSON text of every cell of one column block. The two lists
    are the same object where the texts agree (numbers)."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind == "f":
        # Grid columns repeat values: format each distinct bit pattern once.
        bits = column.astype(np.float64, copy=False).view(np.int64)
        distinct, index = np.unique(bits, return_inverse=True)
        text = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())),
                        dtype=object)[index].tolist()
        return text, text
    values = column.tolist() if isinstance(column, np.ndarray) else column
    if kind in "iu":
        text = list(map(int.__repr__, values))
        return text, text
    if kind == "b":
        return [_CSV_BOOL[v] for v in values], [_JSON_BOOL[v] for v in values]
    return [_csv_cell(v) for v in values], [_json_value(v) for v in values]


def _constant(column) -> bool:
    """A zero-stride view: one value repeated (see numpy.broadcast_to)."""
    return (isinstance(column, np.ndarray) and column.ndim == 1 and column.size > 1
            and column.strides[0] == 0)


def _pieces(layout: list) -> list[str]:
    """Join the literal text between the varying cells (None) of a row."""
    pieces, literal = [], []
    for part in layout:
        if part is None:
            pieces.append("".join(literal))
            literal = []
        else:
            literal.append(part)
    pieces.append("".join(literal))
    return pieces


def write_rows(columns: dict, csv_path=None, json_path=None) -> None:
    """Write equal-length columns as CSV rows and/or a JSON list of objects.

    `columns` maps each header to a sequence or a 1-D numpy array. The bytes
    are those of csv.DictWriter (minimal quoting, "\n" line ends, None as
    an empty cell, after a header line) and of json.dump(rows, indent=2)
    plus a final newline. Each value is formatted once per ROW_BLOCK rows,
    the CSV and JSON files share the text of numbers, and a column that
    repeats one value is formatted once, into the literal text of the row.
    Non-finite floats are refused before anything is written.
    """
    names = list(columns)
    if not names:
        raise ValueError("no columns to write")
    n = len(columns[names[0]])
    if n == 0 or any(len(columns[name]) != n for name in names):
        raise ValueError("columns must be non-empty and of equal length")
    for name in names:
        if _non_finite(columns[name]):
            raise ValidationError(
                f"column {name!r} holds a non-finite value; refusing to write it")

    # The text of one row in each format, None where a varying cell goes.
    csv_layout, json_layout, varying = [], ["  {\n"], []
    for i, name in enumerate(names):
        column = columns[name]
        csv_cell = json_cell = None
        if _constant(column):
            (csv_cell,), (json_cell,) = _texts(column[:1])
        else:
            varying.append(column)
        if i:
            csv_layout.append(",")
            json_layout.append(",\n")
        csv_layout.append(csv_cell)
        json_layout += [f"    {json.dumps(name)}: ", json_cell]
    csv_pieces = _pieces(csv_layout + ["\n"])
    json_pieces = _pieces(json_layout + ["\n  }"])
    lone = len(names) == 1  # csv quotes the empty cell of a one-column row
    if lone and csv_pieces == ["\n"]:
        csv_pieces = ['""\n']

    def rows(pieces, cells, count):
        """The text of `count` rows: literal pieces around the cell texts."""
        parts = [itertools.repeat(pieces[0], count)]
        for texts, piece in zip(cells, pieces[1:]):
            parts += [texts, itertools.repeat(piece, count)]
        return map("".join, zip(*parts))

    with contextlib.ExitStack() as stack:
        csv_fh = json_fh = None
        if csv_path is not None:
            csv_fh = stack.enter_context(open(csv_path, "w", encoding="utf-8", newline=""))
            csv_fh.write(",".join(map(_csv_cell, names)) + "\n")
        if json_path is not None:
            json_fh = stack.enter_context(open(json_path, "w", encoding="utf-8"))
            json_fh.write("[\n")
        for start in range(0, n, ROW_BLOCK):
            count = min(ROW_BLOCK, n - start)
            blocks = [_texts(column[start:start + count]) for column in varying]
            if csv_fh is not None:
                cells = [texts for texts, _ in blocks]
                if lone and cells:
                    cells = [[c or '""' for c in cells[0]]]
                csv_fh.write("".join(rows(csv_pieces, cells, count)))
            if json_fh is not None:
                json_fh.write((",\n" if start else "")
                              + ",\n".join(rows(json_pieces, [texts for _, texts in blocks],
                                                 count)))
        if json_fh is not None:
            json_fh.write("\n]\n")


def json_text(obj) -> str:
    """obj as indented JSON; non-finite floats are refused."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as err:
        raise ValidationError(f"refusing to write non-finite JSON: {err}") from None


def write_json(obj, path) -> None:
    text = json_text(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def _polyline(xs: np.ndarray, ys: np.ndarray) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def write_trace_svg(trace: Trace, path, env: np.ndarray | None = None,
                    title: str = "startup transient") -> None:
    """Self-contained SVG plot of v_out against time, with optional envelope."""
    stride = max(1, len(trace.time) // _MAX_POLYLINE)
    t = trace.time[::stride]
    v = trace.v_out[::stride]
    t0, t1 = float(t[0]), float(t[-1])
    vmax = float(np.abs(v).max())
    if env is not None and len(env):
        vmax = max(vmax, float(env[:, 1].max()))
    if vmax == 0.0:
        vmax = 1.0
    span_t = (t1 - t0) or 1.0
    plot_w = _SVG_W - _PAD_L - _PAD_R
    plot_h = _SVG_H - _PAD_T - _PAD_B
    y_mid = _PAD_T + plot_h / 2.0

    def sx(ts):
        return _PAD_L + (ts - t0) / span_t * plot_w

    def sy(vs):
        return y_mid - vs / vmax * (plot_h / 2.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_PAD_L}" y="18" font-family="sans-serif" font-size="13">'
        f"{title}</text>",
        f'<line x1="{_PAD_L}" y1="{y_mid:.2f}" x2="{_SVG_W - _PAD_R}" '
        f'y2="{y_mid:.2f}" stroke="#bbb"/>',
        f'<line x1="{_PAD_L}" y1="{_PAD_T}" x2="{_PAD_L}" '
        f'y2="{_SVG_H - _PAD_B}" stroke="#bbb"/>',
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1" '
        f'points="{_polyline(sx(t), sy(v))}"/>',
    ]
    if env is not None and len(env):
        parts.append(
            f'<polyline fill="none" stroke="#d62728" stroke-width="1.5" '
            f'points="{_polyline(sx(env[:, 0]), sy(env[:, 1]))}"/>'
        )
    parts.extend([
        f'<text x="{_PAD_L}" y="{_SVG_H - 12}" font-family="sans-serif" '
        f'font-size="11">t = {t0:.4g} .. {t1:.4g} s</text>',
        f'<text x="8" y="{_PAD_T + 10}" font-family="sans-serif" '
        f'font-size="11">{vmax:.3g} V</text>',
        f'<text x="8" y="{_SVG_H - _PAD_B}" font-family="sans-serif" '
        f'font-size="11">{-vmax:.3g} V</text>',
        "</svg>",
    ])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
