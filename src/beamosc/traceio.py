"""Deterministic file output: CSV/JSON row tables, JSON documents, SVG plots.

One row writer formats every table, alone (write_rows, which streams a
table given as blocks of columns, such as sweep()'s) or as a RowTable of
such blocks inside a JSON document (write_json, optimize.json's log).
Identical inputs produce byte-identical files: floats are written with
repr() (shortest round-trip form), row order is the natural iteration
order, and nothing timestamps the output. Formatting a float costs far
more than writing it, so a value repeated within a chunk is formatted once
(see _float_texts), and where a second CPU is usable, blocks of SPLIT_ROWS
rows or more, those of a startup trace and of a sweep, are formatted by
forked children while the caller makes the next blocks (see _Pipeline); the
bytes are those of the serial path. The column bytes of the blocks that
wait for a child are capped, so a table streamed block by block is written
in memory set by the block, not by the table. The SVG plot draws the
samples it is given. Every file is committed whole or not at all (see
_committed).

Every JSON document, and the literal text of each JSON row, is written by
one encoder, json_text(), with the bytes of json.dumps(indent=2,
allow_nan=False). CPython takes its pure-Python encoder whenever an indent
is set, so json_text() hands each run of scalar members of a dict or list
to the C encoder instead, one call per run with the item separator of its
depth, and recurses only into nested containers.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import json.encoder
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_SVG_W, _SVG_H = 900, 360
_PAD_L, _PAD_R, _PAD_T, _PAD_B = 64, 16, 28, 40


ROW_BLOCK = 1024  # rows formatted at a time by write_rows()
# Rows joined into one write(), tens of kB of text. A whole ROW_BLOCK in one
# string is megabytes, which malloc maps afresh and returns to the system on
# every block of a stream: a page fault per 4 kB written.
_WRITE_ROWS = 32
# From the first block this long on, a table's rows are formatted by forked
# children (_Pipeline): a trace's blocks (simulate.TRACE_BLOCK rows), and a
# sweep's or a large optimize.json log's (explore.SWEEP_BLOCK rows).
SPLIT_ROWS = 4 * ROW_BLOCK
# Bytes of queued columns that wait for a forked child, at most: 65,536 rows
# of a trace's four float columns. A child formats about as fast as
# summarize_startup() integrates, so a long stream's queue would grow with it.
# A sweep's row holds about 150 B of columns, five times a trace's, so the
# cap is counted in bytes: in rows it would hold five times the memory. Past
# the cap this process formats the oldest queued blocks itself (see
# _Pipeline.add).
_BACKLOG_BYTES = 2 << 20

_CSV_BOOL = {True: "True", False: "False"}
_JSON_BOOL = {True: "true", False: "false"}
_MARK = "\0"  # stands for a varying cell, or a RowTable, in text that json_text() writes
_JSON_MARK = json.dumps(_MARK)
_INDENT = "  "  # one level of json_text()'s indent
_SCALARS = frozenset({str, int, float, bool, type(None)})  # JSON scalars, by exact type


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
    return float.__repr__(value) if type(value) is float else json.dumps(value)


def _non_finite(column) -> bool:
    if _constant(column):
        column = column[:1]
    if isinstance(column, np.ndarray) and column.dtype.kind != "O":
        return column.dtype.kind == "f" and not np.isfinite(column).all()
    return any(isinstance(v, float) and not math.isfinite(v) for v in column)


def _object_texts(values: list) -> tuple[list, list]:
    """CSV and JSON text of each value, formatted once per distinct (type,
    value); 0.0 == -0.0, so a column holding a float zero goes cell by cell."""
    keys = list(zip(map(type, values), values))
    distinct = dict.fromkeys(keys)
    if any(isinstance(v, float) and not v for _, v in distinct):
        return list(map(_csv_cell, values)), list(map(_json_value, values))
    texts = []
    for cell in (_csv_cell, _json_value):
        memo = {key: cell(key[1]) for key in distinct}
        texts.append(list(map(memo.__getitem__, keys)))
    return texts[0], texts[1]


def _float_texts(column: np.ndarray, repeats: bool) -> tuple[list, bool]:
    """Text of every cell of a float column chunk, and whether to look for
    repeats in the column's next chunk. While `repeats` holds, each distinct
    bit pattern of the chunk is formatted once: grid columns repeat values
    within a chunk. A chunk that repeats no value turns the flag off, and
    such a column, a trace's, is formatted cell by cell from then on."""
    values = column.astype(np.float64, copy=False)
    if repeats:
        distinct, index = np.unique(values.view(np.int64), return_inverse=True)
        if len(distinct) < len(values):
            texts = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())),
                             dtype=object)
            return texts[index].tolist(), True
    return list(map(float.__repr__, values.tolist())), False


def _texts(column, known: dict, key) -> tuple[list, list]:
    """CSV and JSON text of every cell of one column chunk, each distinct
    value formatted once. The lists are one object where the texts agree.
    known[key] carries a float column's repeats flag on to its next chunk."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind == "f":
        text, known[key] = _float_texts(column, known.get(key, True))
        return text, text
    values = column.tolist() if isinstance(column, np.ndarray) else column
    if kind in "iu":
        text = list(map(int.__repr__, values))
        return text, text
    if kind == "b":
        return [_CSV_BOOL[v] for v in values], [_JSON_BOOL[v] for v in values]
    return _object_texts(values)


def _constant(column) -> bool:
    """A zero-stride view: one value repeated (see numpy.broadcast_to)."""
    return (isinstance(column, np.ndarray) and column.ndim == 1 and column.size > 1
            and column.strides[0] == 0)


def _nbytes(column) -> int:
    """Bytes a column holds: a numpy array's data (one value's for a
    zero-stride view), or a list's pointers and the objects they point to."""
    if isinstance(column, np.ndarray):
        return column.itemsize if _constant(column) else column.nbytes
    return sys.getsizeof(column) + sum(map(sys.getsizeof, column))


def _template(columns: dict, leaves: list) -> dict:
    """One row of a table: each constant column's value, _MARK where a cell
    varies. Appends (name, column) of every column to `leaves`, groups
    flattened and a list of Python floats made a float array (same bits)."""
    row = {}
    for name, column in columns.items():
        if isinstance(column, dict):
            row[name] = _template(column, leaves)
            continue
        if not isinstance(column, np.ndarray) and set(map(type, column)) == {float}:
            column = np.array(column)
        leaves.append((name, column))
        row[name] = column[:1].tolist()[0] if _constant(column) else _MARK
    return row


def _checked(columns: dict) -> tuple[dict, list]:
    """_template() of a table and its columns; raises unless they are of one
    non-zero length and every value is finite."""
    leaves = []
    row = _template(columns, leaves)
    if not leaves:
        raise ValueError("no columns to write")
    n = len(leaves[0][1])
    if n == 0 or any(len(column) != n for _, column in leaves):
        raise ValueError("columns must be non-empty and of equal length")
    for name, column in leaves:
        if _non_finite(column):
            raise ValidationError(
                f"column {name!r} holds a non-finite value; refusing to write it")
    return row, [column for _, column in leaves]


def _write_table(blocks, csv_fh, json_fh, depth: int = 0) -> None:
    """Stream the rows of a table given as blocks, each the `row`, `leaves`
    that _checked() gives, as they arrive: a CSV header line and the rows,
    and a JSON list `depth` levels in, as json_text() writes one there
    (its first line not indented), with no newline after its closing
    bracket."""
    names = None
    known: dict = {}  # _texts() repeats flag of each leaf, by its index
    if json_fh is not None:
        json_fh.write("[\n")
    with _Pipeline((csv_fh, json_fh)) as pipeline:
        for i, (row, leaves) in enumerate(blocks):
            if i == 0:
                names = list(row)
                if csv_fh is not None:
                    if any(isinstance(v, dict) for v in row.values()):
                        raise ValueError("a CSV table takes no column group")
                    csv_fh.write(",".join(map(_csv_cell, names)) + "\n")
            elif list(row) != names:
                raise ValueError("every block must hold the columns of the first")
            pipeline.add(_block_rows(row, leaves, csv_fh is not None, depth, known,
                                     first=i == 0), len(leaves[0]), sum(map(_nbytes, leaves)))
        if names is None:
            raise ValueError("no block to write")
        pipeline.finish()
    if json_fh is not None:
        json_fh.write("\n" + _INDENT * depth + "]")


def _block_rows(row: dict, leaves: list, csv: bool, depth: int, known: dict, first: bool):
    """rows(begin, end, csv_fh, json_fh), which writes rows begin..end of
    one block of _write_table() to the files given. Each block has its own
    literal row text: a column may repeat one value in one block and vary
    in the next."""
    varying = [(i, column) for i, column in enumerate(leaves) if not _constant(column)]
    json_pieces = (_INDENT * (depth + 1) + _document(row, depth=depth + 1)).split(_JSON_MARK)
    csv_pieces = ",".join(v if v == _MARK else _csv_cell(v) for v in row.values()).split(_MARK)
    csv_pieces[-1] += "\n"
    if len(json_pieces) != len(varying) + 1 or csv and len(csv_pieces) != len(varying) + 1:
        raise ValueError("a column name or value holds the row writer's mark")
    lone = len(row) == 1  # csv quotes the empty cell of a one-column row
    if lone and csv_pieces == ["\n"]:
        csv_pieces = ['""\n']

    def write(fh, sep, pieces, cells, count):
        """Write `count` rows, literal pieces around the cell texts, `sep`
        between rows, _WRITE_ROWS rows per write()."""
        parts = [itertools.repeat(pieces[0], count)]
        for texts, piece in zip(cells, pieces[1:]):
            parts += [texts, itertools.repeat(piece, count)]
        lines = map("".join, zip(*parts))
        for done in range(0, count, _WRITE_ROWS):
            fh.write((sep if done else "") + sep.join(itertools.islice(lines, _WRITE_ROWS)))

    def rows(begin, end, csv_fh, json_fh):
        """Write rows begin..end of the block, ROW_BLOCK at a time."""
        for start in range(begin, end, ROW_BLOCK):
            count = min(ROW_BLOCK, end - start)
            chunk = [_texts(column[start:start + count], known, i) for i, column in varying]
            if csv_fh is not None:
                cells = [texts for texts, _ in chunk]
                if lone and cells:
                    cells = [[c or '""' for c in cells[0]]]
                write(csv_fh, "", csv_pieces, cells, count)
            if json_fh is not None:
                if start or not first:
                    json_fh.write(",\n")
                write(json_fh, ",\n", json_pieces, [texts for _, texts in chunk], count)

    return rows


def _parallel() -> bool:
    """Whether a forked child can format rows beside this process: os.fork()
    and os.sched_getaffinity() exist and two or more CPUs are usable."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


@dataclass
class _Child:
    """A process formatting rows into temporary files it owns, `parts`
    (None where its table writes no such file); status is its wait status
    once reaped. Rows this process formats after a child's wait in a
    _Child too, with pid 0 and status 0."""

    pid: int
    parts: list
    status: int | None = None

    def reaped(self, options: int = 0) -> bool:
        """Whether the child has ended; os.WNOHANG as `options` does not wait."""
        if self.status is None:
            pid, status = os.waitpid(self.pid, options)
            if pid == 0:
                return False
            self.status = status
        return True

    def close(self) -> None:
        """Close (and so delete) the child's temporary files."""
        for part in self.parts:
            if part is not None:
                part.close()


class _Pipeline:
    """The rows of one table's blocks, written to `fhs` (its CSV and JSON
    files, either None) in block order.

    Blocks are formatted by this process as they arrive until one of
    SPLIT_ROWS rows or more arrives where _parallel() holds. From then on
    every block is queued, and whenever a block arrives while no child is
    at work, one forked child is given all that was queued before it. Each
    child formats into unnamed temporary files while the caller goes on
    making blocks. Where the queued blocks' columns hold more than
    _BACKLOG_BYTES while a child works, this process formats the first
    queued blocks itself, in row order, into temporary files of its own, so
    the queue does not grow with the table, however wide its rows, and the
    next child still finds work. finish()
    splits what is still queued at the ROW_BLOCK boundary at or below its
    middle row: this process formats the first part, one last child the
    rest. Every child's text is copied in, in block order.

    A child runs rows() and nothing else, and leaves through os._exit(), so
    it flushes none of this process's buffers and runs none of its callers'
    cleanup. A child that fails raises OSError. On any error every child
    still running is killed and reaped before the error propagates: no
    process outlives the table, and every child's files are closed."""

    def __init__(self, fhs: tuple):
        self.fhs = fhs
        self.queue: list = []  # (rows, begin, end, bytes of columns) no process formats yet
        self.children: list[_Child] = []  # text not copied in yet, in row order

    def __enter__(self):
        return self

    def __exit__(self, kind, value, traceback):
        running = [child for child in self.children if child.status is None]
        if kind is not None and running:
            import signal  # here only: its import alone adds 0.1 MB to every command's RSS

            for child in running:
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
        for child in self.children:
            child.close()

    def add(self, rows, n: int, size: int) -> None:
        """One block of n rows whose columns hold `size` bytes, written by
        rows() (see _block_rows())."""
        if not self.queue and not self.children and (n < SPLIT_ROWS or not _parallel()):
            rows(0, n, *self.fhs)
            return
        if self.queue and all(child.reaped(os.WNOHANG) for child in self.children):
            self._copy_children()
            self.children.append(self._fork(self.queue))
            self.queue = []
        self.queue.append((rows, 0, n, size))
        while self.children and sum(nbytes for *_, nbytes in self.queue) > _BACKLOG_BYTES:
            rows, begin, end, _ = self.queue.pop(0)
            rows(begin, end, *self._here())

    def finish(self) -> None:
        """Format what is queued and copy every child's text in."""
        if self.queue:
            mine, theirs = _halves(self.queue)
            if not mine:  # too short to split: this process formats it all
                mine, theirs = theirs, []
            files = self._here()
            if theirs:
                self.children.append(self._fork(theirs))
            for rows, begin, end, _ in mine:
                rows(begin, end, *files)
        self._copy_children()

    def _here(self) -> tuple:
        """The files this process formats its next rows into: the table's
        own, or after a child's text the temporary files of a pid-0 _Child."""
        if not self.children:
            return self.fhs
        if self.children[-1].pid:
            self.children.append(_Child(0, self._temps(), status=0))
        return self.children[-1].parts

    def _temps(self) -> list:
        return [None if fh is None else
                tempfile.TemporaryFile("w+", encoding=fh.encoding, newline="")
                for fh in self.fhs]

    def _fork(self, items: list) -> _Child:
        """A child that runs rows(begin, end) of each item into its files."""
        parts = self._temps()
        try:
            pid = os.fork()
        except BaseException:
            _Child(0, parts).close()
            raise
        if pid == 0:
            code = 1
            try:
                for rows, begin, end, _ in items:
                    rows(begin, end, *parts)
                for part in parts:
                    if part is not None:
                        part.flush()
                code = 0
            finally:
                os._exit(code)
        return _Child(pid, parts)

    def _copy_children(self) -> None:
        """Wait for each child in turn, copy its text in and drop it."""
        while self.children:
            child = self.children[0]
            child.reaped()
            if os.waitstatus_to_exitcode(child.status) != 0:
                raise OSError(f"a forked child formatting rows failed (wait status "
                              f"{child.status})")
            for fh, part in zip(self.fhs, child.parts):
                if fh is not None:
                    fh.flush()
                    part.flush()
                    part.seek(0)
                    shutil.copyfileobj(part.buffer, fh.buffer, 1 << 16)  # 64 kB at a time
            self.children.pop(0).close()


def _halves(items: list) -> tuple[list, list]:
    """items, (rows, begin, end, size) in row order, cut at the ROW_BLOCK
    boundary of its block at or below the middle row: the rows before the
    cut, which may be none, and the rows from it on."""
    half = sum(end - begin for _, begin, end, _ in items) // 2
    for j, (rows, begin, end, size) in enumerate(items):
        if half < end - begin:
            break
        half -= end - begin
    cut = begin + half // ROW_BLOCK * ROW_BLOCK
    return (items[:j] + [(rows, begin, cut, size)] * (cut > begin),
            [(rows, cut, end, size)] + items[j + 1:])


def write_rows(blocks, csv_path=None, json_path=None) -> None:
    """Write a table, given as a sequence of column blocks, as CSV rows
    and/or a JSON list of objects.

    Each block maps each header, the same headers in every block, to a
    sequence, a 1-D numpy array or a dict of columns, a group that nests in
    each JSON row (not in CSV); a block's columns share one non-zero
    length. Blocks are written as they arrive, so an iterator of blocks
    writes a table that is never whole in memory. The bytes are those of
    csv.DictWriter over the rows of every block in order (minimal quoting,
    "\n" line ends, None as an empty cell, after a header line) and of
    json.dump(rows, indent=2) plus a final newline. Each value is formatted
    once per ROW_BLOCK rows, the CSV and JSON files share the text of
    numbers, and a column that repeats one value over a block is formatted
    once, into the literal text of the block's rows.

    On Linux with two or more usable CPUs, from the first block of
    SPLIT_ROWS rows or more on, blocks are formatted by forked children,
    one at a time, into temporary files while `blocks` makes the next ones
    (summarize_startup() integrating or sweep() evaluating, say); what is
    left when the last block arrives is split between this process and one
    last child. Their text is copied in in block order, so the bytes are
    the same as where one process formats every row. A table of one such
    block is formatted half by this process and half by a child. Blocks
    whose columns hold at most _BACKLOG_BYTES wait for a child, eight of a
    trace's or three of a sweep's: past that this process formats the
    oldest itself, without waiting, so a long stream is written in memory
    set by the block.

    Each file is committed as _committed() says, once every block is
    written: on any error neither target path is touched, and a block that
    holds a non-finite float, refused when it arrives, writes nothing.
    """
    with contextlib.ExitStack() as stack:
        csv_fh, json_fh = (None if path is None else stack.enter_context(_committed(path, nl))
                           for path, nl in ((csv_path, ""), (json_path, None)))
        _write_table(map(_checked, blocks), csv_fh, json_fh)
        if json_fh is not None:
            json_fh.write("\n")


@contextlib.contextmanager
def _committed(path, newline=None):
    """A text file open for writing at `<path>.tmp`, beside path, moved
    onto path by os.replace() once the block ends. On any error it is
    removed instead, and path keeps its bytes."""
    temp = f"{os.fspath(path)}.tmp"
    try:
        with open(temp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise
    os.replace(temp, path)


def _row(columns: dict, i: int) -> dict:
    """Row i of {name: column}, groups of columns nested, in Python values."""
    return {name: _row(column, i) if isinstance(column, dict)
            else column.item(i) if isinstance(column, np.ndarray) else column[i]
            for name, column in columns.items()}


def _length(columns: dict) -> int:
    column = next(iter(columns.values()))
    return _length(column) if isinstance(column, dict) else len(column)


@dataclass(frozen=True)
class RowTable:
    """A table as blocks of columns, each as write_rows() takes them: len()
    counts its rows, iterating gives each as a dict of Python values, and
    write_json() writes it, block by block, as the list of them."""

    blocks: tuple

    def __len__(self) -> int:
        return sum(map(_length, self.blocks))

    def __iter__(self):
        for block in self.blocks:
            yield from (_row(block, i) for i in range(_length(block)))

    def __eq__(self, other) -> bool:  # row by row: == on numpy columns gives no bool
        return isinstance(other, RowTable) and list(self) == list(other)


def _floats(obj, path: str = ""):
    """(path, value) of each float in obj's dicts, lists and tuples, in json.dumps() order."""
    if isinstance(obj, float):
        yield path, obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _floats(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _floats(value, f"{path}[{i}]")


def _unserializable(value):
    """What json.JSONEncoder.default() does: refuse an object json cannot encode."""
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@functools.cache
def _run_encoder(depth: int):
    """CPython's C encoder, encoder(obj, 0) -> chunks, writing a dict or
    list of scalars compactly with the item separator that indent=2 puts
    between members `depth` levels in: ",\n" then the members' indent."""
    separator = ",\n" + _INDENT * depth
    if json.encoder.c_make_encoder is None:  # an interpreter without the _json module
        encoder = json.JSONEncoder(separators=(separator, ": "), allow_nan=False,
                                   default=_unserializable)
        return lambda obj, _: encoder.iterencode(obj)
    return json.encoder.c_make_encoder(None, _unserializable, json.encoder.encode_basestring_ascii,
                                       None, ": ", separator, False, False, False)


def _run(members, depth: int) -> str:
    """A dict or list of scalars as the members json.dumps(indent=2) writes
    inside a container at `depth`: the C encoder's text, brackets cut off."""
    return "".join(_run_encoder(depth + 1)(members, 0))[1:-1]


def _key(key) -> str:
    """A dict key's JSON text, converted as json.dumps() converts it."""
    if type(key) is str:
        return json.encoder.encode_basestring_ascii(key)
    return "".join(_run_encoder(0)({key: 0}, 0))[1:-4]  # '{"key": 0}'


def _defaulted(value, default):
    """value, through default() until json knows its type, as json.dumps() does."""
    if isinstance(value, (str, int, float, list, tuple, dict)) or value is None:
        return value
    return _defaulted(default(value), default)


def _members(obj, is_dict: bool, depth: int, default):
    """The text of the members of a dict or list `depth` levels in, for the
    caller to join: each run of members of a JSON scalar type in one C
    encoder call, each other member alone, through default() where json
    does not know its type. A run is written before the member after it
    is converted, so errors come in the order json.dumps() raises them."""
    items = list(obj.items()) if is_dict else obj
    cuts = [i for i, kind in enumerate(map(type, obj.values() if is_dict else obj))
            if kind not in _SCALARS]
    start = 0
    for i in cuts + [len(items)]:
        if start < i:
            yield _run(dict(items[start:i]) if is_dict else items[start:i], depth)
        if i == len(items):
            break
        key, value = items[i] if is_dict else (None, items[i])
        value = _defaulted(value, default)
        if isinstance(value, (list, tuple, dict)):
            yield (_key(key) + ": " if is_dict else "") + _indented(value, depth + 1, default)
        else:  # a subclass of a scalar type, or what default() made of a value
            yield _run({key: value} if is_dict else [value], depth)
        start = i + 1


def _indented(obj, depth: int, default) -> str:
    """A dict, list or tuple `depth` levels in, as json.dumps(indent=2,
    allow_nan=False) writes it: a container of scalars in one C encoder
    call, any other as its _members()."""
    is_dict = isinstance(obj, dict)
    if not obj:
        return "{}" if is_dict else "[]"
    pad = "\n" + _INDENT * depth
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        body = _run(obj, depth)
    else:
        body = ("," + pad + _INDENT).join(_members(obj, is_dict, depth, default))
    return ("{" if is_dict else "[") + pad + _INDENT + body + pad + ("}" if is_dict else "]")


def _document(obj, default=_unserializable, depth: int = 0) -> str:
    """obj as json.dumps(obj, indent=2, allow_nan=False, default=default)
    writes it; with `depth`, as it reads nested that many levels in (its
    first line not indented)."""
    obj = _defaulted(obj, default)
    if isinstance(obj, (list, tuple, dict)):
        return _indented(obj, depth, default)
    return "".join(_run_encoder(0)(obj, 0))


def json_text(obj, default=None) -> str:
    """obj as indented JSON: the bytes of json.dumps(obj, indent=2,
    allow_nan=False, default=default). CPython takes its pure-Python
    encoder whenever an indent is set; here each run of scalar members of
    a dict or list is written by the C encoder, one call per run with the
    item separator of its depth, and only nested containers recurse.
    Non-finite floats are refused, naming where the first one sits."""
    try:
        return _document(obj, default or _unserializable)
    except ValueError as err:
        found = next(((at, v) for at, v in _floats(obj) if not math.isfinite(v)), None)
        where = f"{found[0] or 'the value'} is {float(found[1])!r}" if found else err
        raise ValidationError(f"refusing to write non-finite JSON: {where}") from None


def write_json(obj, path) -> None:
    """json_text(obj) and a newline; the row writer writes each RowTable in
    obj, block by block, as json_text() would write the list of its rows.
    Non-finite values are refused before _committed() opens the file."""
    tables = []

    def table(value):
        if not isinstance(value, RowTable):
            _unserializable(value)
        tables.append(value.blocks)
        return _MARK

    text = json_text(obj, default=table)
    pieces = text.split(_JSON_MARK) if tables else [text]
    if len(pieces) != len(tables) + 1:
        raise ValueError("a string in the document holds the row writer's mark")
    checked = [list(map(_checked, blocks)) for blocks in tables]
    with _committed(path) as fh:
        fh.write(pieces[0])
        for blocks, before, after in zip(checked, pieces, pieces[1:]):
            line = before.rpartition("\n")[2]
            _write_table(blocks, None, fh, (len(line) - len(line.lstrip(" "))) // len(_INDENT))
            fh.write(after)
        fh.write("\n")


def _polyline(xs: np.ndarray, ys: np.ndarray) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def write_trace_svg(plot, path, env: np.ndarray | None = None) -> None:
    """Self-contained SVG plot of v_out against time, with optional envelope
    rows (t, amplitude): every sample of `plot`'s time and v_out arrays, a
    Plot that summarize_startup() took of a run. See _committed()."""
    t, v = plot.time, plot.v_out
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
        "startup transient</text>",
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
    with _committed(path) as fh:
        fh.write("\n".join(parts) + "\n")
