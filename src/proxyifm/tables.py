"""Columnar result tables and their byte-stable CSV and JSONL writers.

A :class:`Table` keeps its rows as a re-iterable source of column chunks:
each chunk holds one numpy array, list or :class:`Categorical` per
header, so an engine can hand over its arrays as they are and no Python
object is built per row.  Rows are read front to back.  A short table is
one eager chunk; a long one (Monte-Carlo events, exact field, Fock joint)
is a stream whose chunks are built each time the table is read.  A column
of repeated names (terminals, drawn Fock outcomes) is a
:class:`Categorical`: integer codes into a category list, each formatted
once.

:func:`write_csv` and :func:`write_jsonl` write a table chunk by chunk,
and each chunk block by block, to a file opened in binary mode, as UTF-8
with ``\n`` line ends; a chunk is dropped before the next one is made, so
writing costs O(chunk) memory however long the table is.  A chunk whose
columns are all integer arrays or categoricals (every Monte-Carlo event
table) is rendered as numpy byte matrices, ``_BYTE_BLOCK`` rows at a time;
any other (exact, oracle and sweep tables, which hold floats or lists) is
formatted value by value and joined, ``_BLOCK`` rows at a time.  Both give
the bytes of a row-by-row writer: every float printed with 17 significant
digits, JSON values as ``json.dumps`` writes them.
"""

from __future__ import annotations

import json
from itertools import accumulate
from typing import Iterable, Optional, Sequence

import numpy as np

# Rows rendered and written at a time: as joined text, and as byte
# matrices for tables of integer and categorical columns.
_BLOCK = 1024
_BYTE_BLOCK = 4096


class Table:
    """A result table stored column by column, in chunks of rows.

    ``chunks`` is a re-iterable source of column chunks; a chunk holds one
    sequence per header, a numpy array, a list or a :class:`Categorical`,
    all of one length.  An eager table is one chunk:
    ``Table(headers, rows)`` transposes row tuples into list columns, and
    ``Table(headers, columns=...)`` takes columns as they are.
    ``Table(headers, chunks=...)`` takes any source whose every pass
    yields the same chunks, such as a stream that builds them afresh.
    ``rows`` iterates the row tuples (of Python scalars) front to back and
    has a length; it has no random access.  ``len(table.rows)`` builds no
    row tuple, and the first full pass over the chunks records it.
    """

    __slots__ = ("headers", "chunks", "_length")

    def __init__(self, headers: Sequence[str], rows: Sequence[tuple] = (), *,
                 columns: Optional[Sequence[Sequence]] = None,
                 chunks: Optional[Iterable[tuple]] = None):
        self.headers = tuple(headers)
        self._length = None
        if chunks is None:
            if columns is None:
                rows = list(rows)
                if any(len(row) != len(self.headers) for row in rows):
                    raise ValueError(f"every row needs {len(self.headers)} values")
                columns = [list(c) for c in zip(*rows)] if rows else \
                    [[] for _ in self.headers]
            columns = tuple(columns)
            if len(columns) != len(self.headers):
                raise ValueError(f"{len(columns)} columns for "
                                 f"{len(self.headers)} headers")
            if len({len(c) for c in columns}) > 1:
                raise ValueError("columns differ in length")
            chunks = (columns,)
            self._length = _length(columns)
        self.chunks = chunks

    @property
    def rows(self) -> "_RowView":
        return _RowView(self)

    def each_chunk(self, use) -> None:
        """``use(columns)`` for every chunk in order, each dropped before
        the next one is made; the pass records the row count."""
        n = 0
        for columns in self.chunks:
            n += _length(columns)
            use(columns)
            del columns             # a streamed chunk dies before the next
        self._length = n


def _length(columns: tuple) -> int:
    return len(columns[0]) if columns else 0


class Categorical:
    """A column of repeated values: ``categories[codes[i]]`` is row ``i``."""

    __slots__ = ("codes", "categories")

    def __init__(self, codes: np.ndarray, categories: Sequence):
        self.codes = np.asarray(codes)
        self.categories = list(categories)

    def __len__(self) -> int:
        return len(self.codes)

    def tolist(self) -> list:
        return [self.categories[k] for k in self.codes.tolist()]


class _RowView:
    """Row tuples of a columnar table, built as they are iterated."""

    __slots__ = ("_table",)

    def __init__(self, table: Table):
        self._table = table

    def __len__(self) -> int:
        if self._table._length is None:
            self._table.each_chunk(lambda columns: None)
        return self._table._length

    def __iter__(self):
        for columns in self._table.chunks:
            yield from zip(*(_as_list(c) for c in columns))


def _as_list(column) -> list:
    return column.tolist() if isinstance(column, (np.ndarray, Categorical)) \
        else column


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


_json_encode = json.JSONEncoder(separators=(",", ":")).encode


def _json_value(x) -> str:
    """One value as ``json.dumps`` writes it inside a row object."""
    if isinstance(x, float):
        x = float(format(x, ".17g"))
        if x - x == 0.0:        # finite: json writes float.__repr__
            return repr(x)
    return _json_encode(x)


def write_csv(fh, table: Table) -> None:
    """The header line, then one comma-joined line per row."""
    fh.write((",".join(table.headers) + "\n").encode("utf-8"))
    # 0, ",", 1, ",", ..., "\n": columns joined by commas
    template = [p for i in range(len(table.headers))
                for p in (",", i)][1:] + ["\n"]
    table.each_chunk(lambda columns: _write_rows(fh, columns, template, _fmt))


def write_jsonl(fh, name: str, table: Table, many: bool) -> None:
    """One JSON object per row, keyed by the headers, with a leading
    ``table`` key naming the table when ``many`` tables share the file."""
    template = _jsonl_template(name, table, many)
    table.each_chunk(lambda columns: _write_rows(fh, columns, template,
                                                 _json_value))


def _jsonl_template(name: str, table: Table, many: bool) -> list:
    """Row template of one JSONL table, with the key order of a row dict.

    A ``table`` key comes first when several tables share the file; a
    repeated key keeps its first place and its last value, as in a dict.
    """
    source: dict = {"table": json.dumps(name)} if many else {}
    for i, h in enumerate(table.headers):
        source[h] = i
    template: list = []
    for key, value in source.items():
        template += [("," if template else "{") + json.dumps(key) + ":", value]
    return template + ["}\n"]


def _write_rows(fh, columns: tuple, template: list, cell) -> None:
    """Write every row of a chunk as ``template`` filled in, block by block.

    ``template`` alternates literal text and column indices and ends with
    text; ``cell`` formats one value of a list or non-numeric column.  A
    chunk of integer arrays and categoricals only is written as byte
    matrices; any other is formatted value by value and joined.
    """
    if all(_is_byte_column(c) for c in columns):
        _write_byte_rows(fh, columns, template, cell)
        return
    width = len(template)
    render = {piece: _render(columns[piece], cell)
              for piece in template if not isinstance(piece, str)}
    n = _length(columns)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        parts: list = [None] * ((stop - start) * width)
        for k, piece in enumerate(template):
            if isinstance(piece, str):
                parts[k::width] = [piece] * (stop - start)
            else:
                parts[k::width] = render[piece](start, stop)
        fh.write("".join(parts).encode("utf-8"))


def _render(column, cell):
    """``block(start, stop)``: the text of each value of a column's rows.

    Integer arrays print with ``str``.  A :class:`Categorical` formats each
    category once and indexes the texts by code; any other value is
    formatted by ``cell``.
    """
    if isinstance(column, Categorical):
        texts = np.empty(len(column.categories), dtype=object)
        texts[:] = [cell(x) for x in column.categories]
        return lambda start, stop: texts[column.codes[start:stop]].tolist()
    if isinstance(column, np.ndarray):
        fmt = str if column.dtype.kind in "iu" else cell
        return lambda start, stop: list(map(fmt, column[start:stop].tolist()))
    return lambda start, stop: list(map(cell, column[start:stop]))


def _is_byte_column(column) -> bool:
    return isinstance(column, Categorical) or (
        isinstance(column, np.ndarray) and column.dtype.kind in "iu")


def _write_byte_rows(fh, columns: tuple, template: list, cell) -> None:
    """``_write_rows`` for integer and categorical columns, as byte matrices.

    Each template piece owns a fixed span of a block's (rows, width)
    ``uint8`` matrix and of a keep mask of the same shape: a literal's
    bytes are written once, a column's for each block.  The block's text
    is the kept bytes in row order, so no Python object is built per row.
    """
    n = _length(columns)
    spans = [np.frombuffer(p.encode("utf-8"), dtype=np.uint8)
             if isinstance(p, str) else _column_bytes(columns[p], cell)
             for p in template]
    edges = list(accumulate(map(len, spans), initial=0))
    mat = np.empty((min(n, _BYTE_BLOCK), edges[-1]), dtype=np.uint8)
    keep = np.ones(mat.shape, dtype=bool)
    fills = []
    for span, a, b in zip(spans, edges, edges[1:]):
        if isinstance(span, np.ndarray):
            mat[:, a:b] = span
        else:
            fills.append((span.fill, a, b))
    for start in range(0, n, _BYTE_BLOCK):
        stop = min(start + _BYTE_BLOCK, n)
        block, kept = mat[:stop - start], keep[:stop - start]
        for fill, a, b in fills:
            fill(start, stop, block[:, a:b], kept[:, a:b])
        fh.write(block[kept].tobytes())


class _CategoryBytes:
    """A :class:`Categorical` as bytes: each category is encoded once into
    a row of a padded (categories, width) matrix, and a block gathers the
    rows of its codes."""

    def __init__(self, column: Categorical, cell):
        texts = [cell(x).encode("utf-8") for x in column.categories]
        lengths = np.array([len(t) for t in texts], dtype=np.intp)
        # At least one (never kept) byte, so every row is a void item.
        self.width = max(1, int(lengths.max(initial=0)))
        padded = np.frombuffer(b"".join(t.ljust(self.width, b"\0") for t in texts),
                               dtype=np.uint8).reshape(len(texts), self.width)
        kept = np.arange(self.width) < lengths[:, None]
        # One void item per category row, so a gather copies whole rows.
        self._texts, self._kept = (_row_items(m) for m in (padded, kept))
        self._codes = column.codes

    def __len__(self) -> int:
        return self.width

    def fill(self, start, stop, mat, keep) -> None:
        codes = self._codes[start:stop]
        _row_items(mat)[:] = self._texts[codes]
        _row_items(keep)[:] = self._kept[codes]


def _row_items(mat: np.ndarray) -> np.ndarray:
    """The rows of a 2-d array whose rows are contiguous, as void items."""
    return mat.view(np.dtype((np.void, mat.shape[1] * mat.itemsize)))[:, 0]


class _IntegerBytes:
    """An integer column as decimal text: an optional sign byte, then the
    digits right-aligned in a width that fits the column's largest
    magnitude, written by repeated division of the unsigned magnitude, so
    the whole int64 and uint64 ranges print."""

    _TEN = np.uint64(10)

    def __init__(self, column: np.ndarray):
        low = int(column.min(initial=0))
        high = int(column.max(initial=0))
        self._column = column
        self._signed = low < 0
        digits = len(str(max(high, -low)))
        self.width = int(self._signed) + digits
        # A leading digit place is kept when the magnitude reaches it.
        self._places = [np.uint64(10**k) for k in range(digits - 1, 0, -1)]

    def __len__(self) -> int:
        return self.width

    def fill(self, start, stop, mat, keep) -> None:
        values = self._column[start:stop]
        magnitude = values.astype(np.uint64)
        if self._signed:
            negative = np.less(values, 0, out=keep[:, 0])
            np.negative(magnitude, out=magnitude, where=negative)
            mat[:, 0] = ord("-")
            mat, keep = mat[:, 1:], keep[:, 1:]
        for k, place in enumerate(self._places):
            np.greater_equal(magnitude, place, out=keep[:, k])
        for k in range(mat.shape[1] - 1, -1, -1):
            quotient = magnitude // self._TEN
            magnitude -= quotient * self._TEN
            np.add(magnitude, ord("0"), out=mat[:, k], casting="unsafe")
            magnitude = quotient


def _column_bytes(column, cell):
    if isinstance(column, Categorical):
        return _CategoryBytes(column, cell)
    return _IntegerBytes(column)
