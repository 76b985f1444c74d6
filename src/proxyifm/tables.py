"""Columnar result tables and their byte-stable CSV and JSONL writer.

A :class:`Table` keeps its rows as a re-iterable source of column chunks,
each one numpy array, list, :class:`Categorical` (repeated names) or
:class:`OutcomeVectors` (Fock photon counts) per header, so no Python
object is built per row.  A long table is a stream whose chunks are built
each time the table is read, front to back.

:func:`write_csv` and :func:`write_jsonl` write a table chunk by chunk,
in blocks of ``_BYTE_BLOCK`` rows, as UTF-8 with ``\n`` line ends, so
writing costs O(chunk) memory; a block of wide rows holds fewer rows, so
that it stays within ``_BLOCK_BYTES``.  One writer renders every block as
a ``uint8`` matrix and keep mask; the text is the kept bytes in row order.
Literals, integers and outcome counts take no Python object per row.
Any other column is text: a categorical column formats each category
once, and a block of a ``float64`` array formats each distinct value
once unless most of its values are distinct; the rows gather those
texts.  Every other block, lists included, is formatted value by value.
The bytes are a row-by-row writer's: floats with 17 significant digits,
JSON as ``json.dumps`` writes it.
"""

from __future__ import annotations

import io
import json
from itertools import accumulate
from typing import Iterable, Optional, Sequence

import numpy as np

# Rows rendered and written at a time: at most _BYTE_BLOCK, and fewer
# when a block of them would be wider than _BLOCK_BYTES (rows of up to
# 64 bytes, such as the event tables', keep the full block).
_BYTE_BLOCK = 4096
_BLOCK_BYTES = 1 << 18


class Table:
    """A result table stored column by column, in chunks of rows.

    ``chunks`` is a re-iterable source of column chunks; a chunk holds one
    sequence per header, a numpy array, a list, a :class:`Categorical` or
    an :class:`OutcomeVectors`, all of one length.  An eager table is one
    chunk: ``Table(headers, rows)`` transposes row tuples into list
    columns, and ``Table(headers, columns=...)`` takes columns as they are.
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


class OutcomeVectors:
    """Fock outcome vectors: ``counts[i, j]`` is row ``i``'s photon count
    in the (terminal, bin) cell ``cells[j]``.  A row reads ``D1=0,1;D2=0,0``
    (a terminal's cells are adjacent)."""

    __slots__ = ("cells", "counts")

    def __init__(self, cells: Sequence[tuple[str, int]], counts: np.ndarray):
        self.cells = tuple(cells)
        self.counts = np.asarray(counts)

    def __len__(self) -> int:
        return len(self.counts)

    def tolist(self) -> list:
        """Each row's text, as the writer renders it (a terminal name holds
        no NUL, so a NUL can end each row)."""
        out = io.BytesIO()
        _write_rows(out, (self,), [0, "\0"], _fmt)
        return out.getvalue().decode("utf-8").split("\0")[:-1]


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
    return column.tolist() if isinstance(
        column, (np.ndarray, Categorical, OutcomeVectors)) else column


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


_json_encode = json.JSONEncoder(separators=(",", ":")).encode


def _json_value(x) -> str:
    """One value as ``json.dumps`` writes it inside a row object."""
    if isinstance(x, float):
        x = float(x)            # np.float64's repr is not json's
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
    text; ``cell`` formats what is not an integer.  Each piece owns a span
    of the block's ``uint8`` matrix and keep mask.  A literal's bytes are
    written when the widths change; any other piece's ``load(start,
    stop)`` gives its width, then ``fill`` writes its bytes and keep mask.
    A block whose rows are too wide for ``_BLOCK_BYTES`` is loaded again
    with fewer rows, which later blocks keep.
    """
    spans: list = []
    for p in template:
        spans += [p] if isinstance(p, str) else _column_spans(columns[p], cell)
    spans = [np.frombuffer(s.encode("utf-8"), dtype=np.uint8) if isinstance(s, str)
             else s for s in spans]
    n, rows, widths, start = _length(columns), _BYTE_BLOCK, None, 0
    while start < n:
        stop = min(start + rows, n)
        loaded = [len(s) if isinstance(s, np.ndarray) else s.load(start, stop)
                  for s in spans]
        if loaded != widths:
            fit = max(1, _BLOCK_BYTES // sum(loaded))
            if fit < stop - start:          # too wide: load fewer rows
                rows = fit
                continue
            widths = loaded
            edges = list(accumulate(widths, initial=0))
            mat = np.empty((stop - start, edges[-1]), dtype=np.uint8)
            keep = np.ones(mat.shape, dtype=bool)
            for span, a, b in zip(spans, edges, edges[1:]):
                if isinstance(span, np.ndarray):
                    mat[:, a:b] = span
        block, kept = mat[:stop - start], keep[:stop - start]
        for span, a, b in zip(spans, edges, edges[1:]):
            if not isinstance(span, np.ndarray):
                span.fill(block[:, a:b], kept[:, a:b])
        fh.write(block[kept])
        start = stop


def _column_spans(column, cell) -> list:
    if isinstance(column, OutcomeVectors):
        return _outcome_spans(column, cell)
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu" \
            and column.min(initial=0) >= 0:
        return [_IntegerBytes(column)]
    return [_TextBytes(column, cell)]


def _outcome_spans(column: OutcomeVectors, cell) -> list:
    """The text pieces ``terminal=``, ``,`` and ``;`` around one integer
    span per cell.  ``cell`` quotes the whole text as it quotes ``""``
    (JSONL) and escapes each piece on its own, which is the same as
    escaping the whole, since JSON escapes character by character."""
    quote = cell("")
    k = len(quote) // 2
    spans, previous = [quote[:k]], None
    for j, (terminal, _) in enumerate(column.cells):
        text = cell("," if terminal == previous else
                    (";" if j else "") + f"{terminal}=")
        spans += [text[k:len(text) - k], _IntegerBytes(column.counts[:, j])]
        previous = terminal
    return spans + [quote[k:]]


def _row_items(mat: np.ndarray) -> np.ndarray:
    """The rows of a 2-d array whose rows are contiguous, as void items."""
    return mat.view(np.dtype((np.void, mat.shape[1] * mat.itemsize)))[:, 0]


class _IntegerBytes:
    """A column of integers >= 0 as decimal text, right-aligned in a width
    that fits its largest value, divided down digit by digit as unsigned
    integers of its size (the faster division)."""

    def __init__(self, column: np.ndarray):
        self._column = column
        self.width = len(str(int(column.max(initial=0))))
        kind = np.dtype(f"u{column.itemsize}").type
        self._ten = kind(10)
        # A leading digit place is kept when the value reaches it.
        self._places = [kind(10**k) for k in range(self.width - 1, 0, -1)]

    def load(self, start, stop) -> int:
        self._values = self._column[start:stop].view(self._ten.dtype)
        return self.width

    def fill(self, mat, keep) -> None:
        values = self._values
        for k, place in enumerate(self._places):
            np.greater_equal(values, place, out=keep[:, k])
        for k in range(self.width - 1, 0, -1):
            quotient = values // self._ten
            np.add(values - quotient * self._ten, ord("0"), out=mat[:, k],
                   casting="unsafe")
            values = quotient
        np.add(values, ord("0"), out=mat[:, 0], casting="unsafe")


def _few_floats(values: np.ndarray) -> Optional[Categorical]:
    """A block of a ``float64`` array as codes into its distinct values,
    or ``None`` when more than half of them are distinct.  Values are
    told apart by their bits, so ``-0.0`` and ``0.0`` (texts ``-0`` and
    ``0``) stay apart."""
    bits = values.view(np.uint64)
    ordered = np.sort(bits)
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    if 2 * len(distinct) > len(bits):
        return None
    return Categorical(np.searchsorted(distinct, bits),
                       distinct.view(np.float64).tolist())


class _TextBytes:
    """Any other column as the texts of ``cell``, each one's UTF-8 bytes
    left-aligned in a span as wide as the block's longest text.

    Each distinct text is formatted once where the distinct values are
    known: a :class:`Categorical`'s categories once per column, and a
    ``float64`` block that is at most half distinct (:func:`_few_floats`)
    once per block.  Their rows gather the padded texts by code.  Any
    other block (strings, lists, mostly distinct floats) is formatted
    value by value, straight into the block matrix.
    """

    def __init__(self, column, cell):
        self._column, self._cell = column, cell
        if isinstance(column, Categorical):
            self._distinct = self._padded(column.categories)

    def load(self, start, stop) -> int:
        column = self._column
        if isinstance(column, Categorical):
            self._codes = column.codes[start:stop]
            return self._width
        block = column[start:stop]
        few = _few_floats(block) if getattr(block, "dtype", None) == np.float64 \
            else None
        if few is not None:
            self._codes, self._distinct = few.codes, self._padded(few.categories)
            return self._width
        self._codes = None
        self._lengths, self._data = self._format(block)
        # At least one (never kept) byte, so every row is a void item.
        return max(1, int(self._lengths.max(initial=0)))

    def fill(self, mat, keep) -> None:
        if self._codes is None:
            width = mat.shape[1]
            # Row k of ``prefix`` keeps the first k bytes of a row.
            prefix = _row_items(np.arange(width + 1)[:, None] > np.arange(width))
            _row_items(keep)[:] = prefix[self._lengths]
            mat[keep] = self._data
        else:
            texts, kept = self._distinct
            _row_items(mat)[:] = texts[self._codes]
            _row_items(keep)[:] = kept[self._codes]

    def _format(self, values) -> tuple:
        """The byte length of each value's text, and their joined bytes."""
        texts = list(map(self._cell, _as_list(values)))
        # The byte lengths are the gaps between the NULs that end each
        # text in one buffer, unless a text holds a NUL of its own.
        ends = np.flatnonzero(np.frombuffer(
            "\0".join([*texts, ""]).encode("utf-8"), dtype=np.uint8) == 0)
        if len(ends) != len(texts):
            ends = np.cumsum([len(t.encode("utf-8")) + 1 for t in texts]) - 1
        lengths = np.diff(ends, prepend=-1) - 1
        return lengths, np.frombuffer("".join(texts).encode("utf-8"),
                                      dtype=np.uint8)

    def _padded(self, values) -> tuple:
        """The texts of distinct values, zero-padded to one width (set as
        ``_width``), and their keep masks, one void item per text."""
        lengths, data = self._format(values)
        self._width = max(1, int(lengths.max(initial=0)))
        kept = np.arange(self._width) < lengths[:, None]
        texts = np.zeros(kept.shape, dtype=np.uint8)
        texts[kept] = data
        return _row_items(texts), _row_items(kept)
