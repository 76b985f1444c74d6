"""Columnar result tables and their byte-stable CSV and JSONL writers.

A :class:`Table` keeps one numpy array, list or :class:`Categorical` per
header, so an engine can hand over its arrays as they are and no Python
object is built per row.  A column of repeated names (terminals, Fock
outcome vectors) is a :class:`Categorical`: integer codes into a category
list, each category formatted once.

:func:`write_csv` and :func:`write_jsonl` write a table block by block to a
file opened in binary mode, as UTF-8 with ``\n`` line ends, so writing
costs O(block) memory however long the table is.  A table whose columns
are all integer arrays or categoricals (every Monte-Carlo event table) is
rendered as numpy byte matrices, ``_BYTE_BLOCK`` rows at a time; any other
table (exact, oracle and sweep tables, which hold floats or lists) is
formatted value by value and joined, ``_BLOCK`` rows at a time.  Both give
the bytes of a row-by-row writer: every float printed with 17 significant
digits, JSON values as ``json.dumps`` writes them.
"""

from __future__ import annotations

import json
from collections.abc import Sequence as _SequenceABC
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

# Rows rendered and written at a time: as joined text, and as byte
# matrices for tables of integer and categorical columns.
_BLOCK = 1024
_BYTE_BLOCK = 4096


class Table:
    """A result table stored column by column.

    ``columns`` holds one sequence per header, a numpy array, a list or a
    :class:`Categorical`, all of one length.  ``Table(headers, rows)``
    transposes row tuples into list columns; ``Table(headers, columns=...)``
    takes columns as they are.  ``rows`` is a read-only view that builds a
    row tuple (of Python scalars) only when one is read, so
    ``len(table.rows)`` builds none.
    """

    __slots__ = ("headers", "columns")

    def __init__(self, headers: Sequence[str], rows: Sequence[tuple] = (), *,
                 columns: Optional[Sequence[Sequence]] = None):
        self.headers = tuple(headers)
        if columns is None:
            rows = list(rows)
            if any(len(row) != len(self.headers) for row in rows):
                raise ValueError(f"every row needs {len(self.headers)} values")
            columns = [list(c) for c in zip(*rows)] if rows else \
                [[] for _ in self.headers]
        self.columns = tuple(columns)
        if len(self.columns) != len(self.headers):
            raise ValueError(f"{len(self.columns)} columns for "
                             f"{len(self.headers)} headers")
        if len({len(c) for c in self.columns}) > 1:
            raise ValueError("columns differ in length")

    @property
    def rows(self) -> "_RowView":
        return _RowView(self.columns)


class Categorical:
    """A column of repeated values: ``categories[codes[i]]`` is row ``i``."""

    __slots__ = ("codes", "categories")

    def __init__(self, codes: np.ndarray, categories: Sequence):
        self.codes = np.asarray(codes)
        self.categories = list(categories)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int):
        return self.categories[self.codes[i]]

    def tolist(self) -> list:
        return [self.categories[k] for k in self.codes.tolist()]


class _RowView(_SequenceABC):
    """Row tuples of a columnar table, built on access."""

    __slots__ = ("_columns",)

    def __init__(self, columns: tuple):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        return tuple(_py(c[i]) for c in self._columns)

    def __iter__(self):
        return zip(*(_as_list(c) for c in self._columns))


def _py(x):
    return x.item() if isinstance(x, np.generic) else x


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
    _write_rows(fh, table, template, _fmt)


def write_jsonl(fh, name: str, table: Table, many: bool) -> None:
    """One JSON object per row, keyed by the headers, with a leading
    ``table`` key naming the table when ``many`` tables share the file."""
    _write_rows(fh, table, _jsonl_template(name, table, many), _json_value)


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


def _write_rows(fh, table: Table, template: list, cell) -> None:
    """Write every row of ``table`` as ``template`` filled in, block by block.

    ``template`` alternates literal text and column indices and ends with
    text; ``cell`` formats one value of a list or non-numeric column.  A
    table of integer arrays and categoricals only is written as byte
    matrices; any other is formatted value by value and joined.
    """
    if all(_is_byte_column(c) for c in table.columns):
        _write_byte_rows(fh, table, template, cell)
        return
    width = len(template)
    render = {piece: _render(table.columns[piece], cell)
              for piece in template if not isinstance(piece, str)}
    n = len(table.rows)
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


def _write_byte_rows(fh, table: Table, template: list, cell) -> None:
    """``_write_rows`` for integer and categorical columns, as byte matrices.

    Each template piece owns a fixed span of a block's (rows, width)
    ``uint8`` matrix and of a keep mask of the same shape: a literal's
    bytes are written once, a column's for each block.  The block's text
    is the kept bytes in row order, so no Python object is built per row.
    """
    n = len(table.rows)
    spans = [np.frombuffer(p.encode("utf-8"), dtype=np.uint8)
             if isinstance(p, str) else _column_bytes(table.columns[p], cell)
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
