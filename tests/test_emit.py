"""Columnar tables and the block-streamed writer of ``runner.emit``.

The writer must produce the bytes of the plain row-by-row writers kept
below as a reference, for every column type and at every block boundary.
"""

import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proxyifm import runner, tables
from proxyifm.fock import FockOracle, sample_joint
from proxyifm.runner import Categorical, RunReport, Table, emit, run
from proxyifm.scenarios import load_scenario
from proxyifm.tables import OutcomeVectors

from conftest import outcome_text


# -- reference: the row-by-row writers the columnar ones replace ------------

def _ref_fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _ref_write_csv(headers, rows, path: Path) -> None:
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_ref_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ref_write_jsonl(tables, path: Path) -> None:
    many = len(tables) > 1
    lines = []
    for name, (headers, rows) in tables.items():
        for row in rows:
            obj = {}
            if many:
                obj["table"] = name
            for h, x in zip(headers, row):
                obj[h] = float(format(x, ".17g")) if isinstance(x, float) else x
            lines.append(json.dumps(obj, separators=(",", ":")))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _ref_emit(tables, fmt: str, path: Path) -> None:
    if fmt == "csv":
        for k, (name, (headers, rows)) in enumerate(tables.items()):
            target = path if k == 0 else path.with_suffix(f".{name}.csv")
            _ref_write_csv(headers, rows, target)
    else:
        _ref_write_jsonl(tables, path)


# -- generated tables --------------------------------------------------------

BLOCK = tables._BYTE_BLOCK
# Row counts at and around the block edges.
_EDGE_ROWS = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]
_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6)
_floats = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 0.1])
_strings = _text | st.sampled_from(['"', 'a"b', '\\', "ü", "☃", "\n", "1", "True"])
_mixed = st.one_of(st.integers(), _floats, _floats.map(np.float64), _strings,
                   st.booleans())

# (value pool, numpy dtype of an array column or None for a list only)
_KINDS = {
    "int": (st.integers(-2**63, 2**63 - 1), np.int64),
    "float": (_floats, np.float64),
    "str": (_strings, object),
    "mixed": (_mixed, None),
    "categorical": (_mixed, None),
}


@st.composite
def _column(draw, n_rows):
    kind = draw(st.sampled_from(sorted(_KINDS)))
    values, dtype = _KINDS[kind]
    pool = draw(st.lists(values, min_size=1, max_size=12))
    seed = draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).integers(0, len(pool), n_rows)
    py_values = [pool[i] for i in picks]
    if kind == "categorical":
        return py_values, Categorical(picks, pool)
    as_array = dtype is not None and draw(st.booleans())
    column = np.array(py_values, dtype=dtype) if as_array else py_values
    return py_values, column


@st.composite
def _table(draw):
    n_rows = draw(st.sampled_from(_EDGE_ROWS) | st.integers(0, 30))
    headers = draw(st.lists(st.sampled_from(["shot", "bin", "table", "x"]) | _text,
                            min_size=1, max_size=4))
    drawn = [draw(_column(n_rows)) for _ in headers]
    rows = list(zip(*(values for values, _ in drawn)))
    return headers, rows, Table(headers, columns=[c for _, c in drawn])


_names = st.lists(st.text(alphabet="abcdefghij_", min_size=1, max_size=5),
                  min_size=1, max_size=3, unique=True)


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(names=_names, data=st.data(), fmt=st.sampled_from(["csv", "jsonl"]))
def test_emit_matches_row_writer(names, data, fmt):
    drawn = {name: data.draw(_table()) for name in names}
    report = RunReport({n: t for n, (_, _, t) in drawn.items()})
    reference = {n: (h, rows) for n, (h, rows, _) in drawn.items()}
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp, "new"), Path(tmp, "ref")
        new.mkdir()
        ref.mkdir()
        emit(report, fmt, new / f"out.{fmt}")
        _ref_emit(reference, fmt, ref / f"out.{fmt}")
        assert _files(new) == _files(ref)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_emit_matches_row_writer_on_a_run(tmp_path, fmt):
    """Exact multi-table reports, as the engines build them."""
    for name in ("fig2_blocked", "fig2_tensor_sum_blocked", "hom_pair"):
        report = run(load_scenario(name), mode="exact")
        reference = {n: (t.headers, list(t.rows)) for n, t in report.tables.items()}
        (tmp_path / name / "new").mkdir(parents=True)
        (tmp_path / name / "ref").mkdir()
        emit(report, fmt, tmp_path / name / "new" / f"out.{fmt}")
        _ref_emit(reference, fmt, tmp_path / name / "ref" / f"out.{fmt}")
        assert _files(tmp_path / name / "new") == _files(tmp_path / name / "ref")


# -- tables of integer arrays and categoricals only ---------------------------

# Each side of every change in digit count, and both ends of int64.
_DIGIT_EDGES = sorted({s * v for k in range(1, 19) for v in (10**k - 1, 10**k)
                       for s in (1, -1)} | {0, 1, -1, 2**63 - 1, -2**63})
_INT_DTYPES = {np.int64: (-2**63, 2**63 - 1), np.int32: (-2**31, 2**31 - 1),
               np.uint8: (0, 255), np.uint64: (0, 2**64 - 1)}
_category_texts = st.sampled_from(["ü", "☃", "日本", "\x00", "\n", "a\x00b", "=",
                                   "", '"', "\U0001f600"])


@st.composite
def _byte_column(draw, n_rows):
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        pool = draw(st.lists(_mixed | _category_texts, min_size=1, max_size=12))
        picks = np.random.default_rng(seed).integers(0, len(pool), n_rows)
        return [pool[i] for i in picks], Categorical(picks, pool)
    dtype = draw(st.sampled_from(sorted(_INT_DTYPES, key=str)))
    low, high = _INT_DTYPES[dtype]
    edges = [v for v in _DIGIT_EDGES + [high] if low <= v <= high]
    pool = draw(st.lists(st.integers(low, high) | st.sampled_from(edges),
                         min_size=1, max_size=12))
    picks = np.random.default_rng(seed).integers(0, len(pool), n_rows)
    values = [pool[i] for i in picks]
    return values, np.array(values, dtype=dtype)


@st.composite
def _byte_table(draw):
    n_rows = draw(st.sampled_from(_EDGE_ROWS) | st.integers(0, 30))
    headers = draw(st.lists(st.sampled_from(["shot", "bin", "table"]) | _text,
                            min_size=1, max_size=4))
    drawn = [draw(_byte_column(n_rows)) for _ in headers]
    rows = list(zip(*(values for values, _ in drawn)))
    return headers, rows, Table(headers, columns=[c for _, c in drawn])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(names=_names, data=st.data(), fmt=st.sampled_from(["csv", "jsonl"]))
def test_byte_path_matches_row_writer(names, data, fmt):
    drawn = {name: data.draw(_byte_table()) for name in names}
    report = RunReport({n: t for n, (_, _, t) in drawn.items()})
    reference = {n: (h, rows) for n, (h, rows, _) in drawn.items()}
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp, "new"), Path(tmp, "ref")
        new.mkdir()
        ref.mkdir()
        emit(report, fmt, new / f"out.{fmt}")
        _ref_emit(reference, fmt, ref / f"out.{fmt}")
        assert _files(new) == _files(ref)


def _assert_emit_matches_row_writer(tmp_path, table, rows, fmt):
    emit(RunReport({"events": table}), fmt, tmp_path / f"new.{fmt}")
    _ref_emit({"events": (table.headers, rows)}, fmt, tmp_path / f"ref.{fmt}")
    assert (tmp_path / f"new.{fmt}").read_bytes() == \
        (tmp_path / f"ref.{fmt}").read_bytes()


@pytest.mark.parametrize("n_rows", [BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_byte_path_at_the_block_size(tmp_path, n_rows, fmt):
    """Every digit-count edge and awkward category on both sides of a block."""
    categories = ["ü", "\x00", "\n", "D1", 1.5, True, None]
    edges = np.resize(np.array(_DIGIT_EDGES, dtype=np.int64), n_rows)
    codes = np.arange(n_rows) % len(categories)
    table = Table(("shot", "terminal"),
                  columns=(edges, Categorical(codes, categories)))
    rows = list(zip(edges.tolist(), [categories[k] for k in codes]))
    _assert_emit_matches_row_writer(tmp_path, table, rows, fmt)


@pytest.mark.parametrize("categories, codes", [
    ([""], [0, 0, 0]), (["", ""], [1, 0]), ([], []), (["x"], []),
], ids=["one-empty-text", "two-empty-texts", "no-categories", "no-rows"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_byte_path_on_empty_texts(tmp_path, categories, codes, fmt):
    table = Table(("terminal", "bin"),
                  columns=(Categorical(np.array(codes, dtype=np.intp), categories),
                           np.arange(len(codes), dtype=np.uint64)))
    rows = [(categories[k], i) for i, k in enumerate(codes)]
    _assert_emit_matches_row_writer(tmp_path, table, rows, fmt)


# -- float blocks formatted once per distinct value ---------------------------

# Values that print alike but differ in bits (-0.0 and 0.0, NaN payloads),
# infinities, subnormals and the float extremes.
_NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0].item()
_AWKWARD = [-0.0, 0.0, float("nan"), -float("nan"), _NAN_PAYLOAD, float("inf"),
            -float("inf"), 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
            2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0, -1.0]


def _float_values(kind: str, n_rows: int, seed: int) -> np.ndarray:
    """``n_rows`` floats of which one, ``n_rows // 2`` or all are distinct
    in bits, the awkward values among them, in shuffled order."""
    rng = np.random.default_rng(seed)
    randoms = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    pool = np.concatenate([_AWKWARD, randoms])
    if kind == "all-equal":
        return np.full(n_rows, -0.0)
    if kind == "half-distinct":
        pool = pool[:max(1, n_rows // 2)]
        return rng.permutation(pool[np.arange(n_rows) % len(pool)])
    return rng.permutation(pool[:n_rows])


@pytest.mark.parametrize("n_rows", [BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("kind", ["all-equal", "half-distinct", "all-distinct"])
@pytest.mark.parametrize("form", ["array", "strided", "list"])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_float_blocks_match_row_writer(tmp_path, n_rows, kind, form, fmt):
    """A float64 array, a strided one (as a complex array's ``.real``) or
    a list of Python floats, beside a mixed list that turns from floats
    to str, int, bool and ``np.float64``, must give the row writer's
    bytes (an int stays ``5``, a string ``"0.5"``)."""
    values = _float_values(kind, n_rows, seed=n_rows)
    if form == "strided":
        pairs = np.empty(n_rows, dtype=complex)
        pairs.real, pairs.imag = values, 1.0
        column = pairs.real
        assert not column.flags.c_contiguous
    else:
        column = values.tolist() if form == "list" else values
    mixed = values.tolist()
    mixed[-7:] = ["x", 5, True, 5, "0.5", np.float64(0.5), True]
    # A row is at most 60 bytes ('{"f":' 24 ',"m":' 24 '}\n'), so every
    # block but the last holds _BYTE_BLOCK rows.
    assert tables._BLOCK_BYTES // 60 >= BLOCK
    table = Table(("f", "m"), columns=(column, mixed))
    _assert_emit_matches_row_writer(tmp_path, table,
                                    list(zip(values.tolist(), mixed)), fmt)


@pytest.mark.parametrize("kind, deduped", [
    ("all-equal", True), ("half-distinct", True), ("all-distinct", False),
])
def test_float_blocks_take_the_gather_when_few_are_distinct(kind, deduped):
    values = _float_values(kind, BLOCK, seed=1)
    codes = tables._few_floats(values)
    assert (codes is not None) == deduped
    if deduped:
        # Distinct by bits: -0.0, 0.0 and each NaN stay apart.
        bits = values.view(np.uint64)
        assert len(codes.categories) == len(np.unique(bits))
        assert np.array_equal(np.array(codes.tolist()).view(np.uint64), bits)


def test_each_distinct_text_is_formatted_once(monkeypatch):
    """Categories are formatted once per column and the distinct values
    of a deduped float block once per block; a mostly distinct block and
    a list are formatted value by value."""
    calls, fmt = [], tables._fmt

    def counting(x):
        calls.append(x)
        return fmt(x)

    monkeypatch.setattr(tables, "_fmt", counting)
    few = np.repeat([0.25, 3.0, 2.0], [BLOCK, BLOCK // 2, BLOCK // 2])
    floats = np.concatenate([few, np.arange(BLOCK) + 0.5])
    names = Categorical(np.arange(3 * BLOCK) % 3, ["D1", "D2", "obstacle_l"])
    table = Table(("terminal", "value", "note"),
                  columns=(names, floats, ["n"] * (3 * BLOCK)))
    # Narrow rows: three full blocks.
    assert tables._BLOCK_BYTES // 24 >= BLOCK
    tables.write_csv(io.BytesIO(), table)
    assert calls[:3] == ["D1", "D2", "obstacle_l"]
    floats_seen = [x for x in calls[3:] if isinstance(x, float)]
    # One text per distinct value, in the order of their bits.
    assert floats_seen == [0.25, 2.0, 3.0] + (np.arange(BLOCK) + 0.5).tolist()
    assert len(calls) == 3 + len(floats_seen) + 3 * BLOCK


def test_wide_rows_are_written_in_smaller_blocks():
    """A block of wide rows holds at most ``_BLOCK_BYTES``; a narrow
    table keeps ``_BYTE_BLOCK`` rows a block."""
    def writes(table):
        sizes = []

        class Sink(io.BytesIO):
            def write(self, data):
                sizes.append(len(data))
                return super().write(data)

        tables.write_csv(Sink(), table)
        return sizes[1:]            # the header line first

    rng = np.random.default_rng(3)
    wide = rng.standard_normal((2 * BLOCK + 1, 16))
    sizes = writes(Table([f"x{i}" for i in range(16)], columns=tuple(wide.T)))
    assert max(sizes) <= tables._BLOCK_BYTES
    assert len(sizes) > 3
    assert len(writes(Table(("shot", "bin"),
                            columns=(np.arange(2 * BLOCK + 1),) * 2))) == 3


def test_event_tables_take_the_byte_path(tmp_path):
    """Every engine's event table, against the row writer."""
    for name in ("fig2_blocked", "fig2_tensor_sum_blocked", "hom_pair"):
        report = run(load_scenario(name), mode="mc", shots=500, seed=3, cutoff=2)
        reference = {n: (t.headers, list(t.rows)) for n, t in report.tables.items()}
        for fmt in ("csv", "jsonl"):
            (tmp_path / name / fmt / "new").mkdir(parents=True)
            (tmp_path / name / fmt / "ref").mkdir()
            emit(report, fmt, tmp_path / name / fmt / "new" / f"out.{fmt}")
            _ref_emit(reference, fmt, tmp_path / name / fmt / "ref" / f"out.{fmt}")
            assert _files(tmp_path / name / fmt / "new") == \
                _files(tmp_path / name / fmt / "ref")


def _fock_mc(name, cutoff, shots):
    """The Fock distribution of a shipped scenario, the rows that
    ``sample_joint`` draws for ``shots`` at seed 5, and the outcome column
    of the same Monte-Carlo run."""
    scenario = load_scenario(name)
    oracle = FockOracle(scenario.spec, cutoff)
    dist = oracle.run(runner._prepare_fock_input(oracle, scenario))
    rows = sample_joint(dist, shots, 5)
    report = run(scenario, engine="fock", mode="mc", shots=shots, seed=5,
                 cutoff=cutoff)
    (outcome,) = [columns[1] for columns in report.tables["events"].chunks]
    return dist, rows, outcome


def test_fock_mc_run_of_one_shot_has_one_category():
    dist, (row,), outcome = _fock_mc("hom_pair", 2, 1)
    assert outcome.tolist() == [outcome_text(dist.cells, dist.outcomes[row])]


@pytest.mark.parametrize("shots", [3, 40, 2000])
@pytest.mark.parametrize("name, cutoff", [("hom_pair", 2),
                                          ("fig2_tensor_sum_blocked", 1)])
def test_fock_mc_renders_only_the_drawn_outcomes(name, cutoff, shots):
    dist, rows, outcome = _fock_mc(name, cutoff, shots)
    assert np.array_equal(outcome.counts, dist.outcomes[rows])
    assert outcome.tolist() == [outcome_text(dist.cells, dist.outcomes[r])
                                for r in rows.tolist()]


# -- outcome vectors ------------------------------------------------------------

# Terminal names with a JSON escape, a printf directive, a two-byte and a
# four-byte (astral) character.
_terminals = st.text(alphabet=["D", "1", "\\", "%", "\u00fc", "\U0001f600", '"'],
                     min_size=1, max_size=4)


@st.composite
def _outcome_table(draw):
    n_rows = draw(st.sampled_from(_EDGE_ROWS) | st.integers(0, 30))
    names = draw(st.lists(_terminals, max_size=3, unique=True))
    cells = [(t, b) for t in names for b in range(draw(st.integers(1, 3)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Per cell, counts below 2, 10, 100 or 256: every digit count occurs.
    highs = [draw(st.sampled_from([2, 10, 100, 256])) for _ in cells]
    counts = rng.integers(0, highs, (n_rows, len(cells))).astype(np.uint8)
    p = rng.random(n_rows)
    texts = [outcome_text(cells, row) for row in counts.tolist()]
    rows = list(zip(range(n_rows), texts, p.tolist()))
    table = Table(("shot", "outcome_vector", "probability"),
                  columns=(np.arange(n_rows), OutcomeVectors(cells, counts), p))
    return table, rows, texts


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data(), fmt=st.sampled_from(["csv", "jsonl"]))
def test_outcome_vectors_match_row_writer(data, fmt):
    table, rows, texts = data.draw(_outcome_table())
    (columns,) = table.chunks
    assert columns[1].tolist() == texts
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = Path(tmp, f"new.{fmt}"), Path(tmp, f"ref.{fmt}")
        emit(RunReport({"joint": table}), fmt, new)
        _ref_emit({"joint": (table.headers, rows)}, fmt, ref)
        assert new.read_bytes() == ref.read_bytes()


# -- the Table itself ---------------------------------------------------------

def test_table_rows_round_trip():
    rows = [("D1", 0, 0.5), ("D2", 3, -0.0)]
    table = Table(("terminal", "bin", "p"), rows)
    assert list(table.rows) == rows
    assert len(table.rows) == 2
    with pytest.raises(TypeError):      # rows are read front to back only
        table.rows[1]
    assert Table(("a", "b"), []).chunks == (([], []),)


def test_table_rows_view_yields_python_scalars():
    table = Table(("shot", "p"), columns=(np.arange(3), np.array([0.5, 1.0, 2.0])))
    assert [type(x) for x in next(iter(table.rows))] == [int, float]


def test_table_rows_view_yields_categories():
    terminal = Categorical(np.array([1, 0, 1]), ["D1", "D2"])
    table = Table(("terminal", "shot"), columns=(terminal, np.arange(3)))
    assert list(table.rows) == [("D2", 0), ("D1", 1), ("D2", 2)]
    assert dict(table.rows) == {"D1": 1, "D2": 2}


@pytest.mark.parametrize("name", ["fig2_blocked", "fig2_tensor_sum_blocked"])
def test_event_name_columns_are_categorical(name):
    """Each distinct terminal of an event log is stored, and formatted,
    once.  (A Fock event's outcome vector holds its names in its cells.)"""
    report = run(load_scenario(name), mode="mc", shots=2000, seed=3)
    (names,) = [columns[1] for columns in report.tables["events"].chunks]
    assert isinstance(names, Categorical)
    assert len(set(names.categories)) == len(names.categories)


def test_table_rejects_ragged_input():
    with pytest.raises(ValueError):
        Table(("a", "b"), [(1, 2), (3,)])
    with pytest.raises(ValueError):
        Table(("a", "b"), columns=(np.arange(3),))
    with pytest.raises(ValueError):
        Table(("a", "b"), columns=(np.arange(3), [1, 2]))


def test_row_count_builds_no_rows():
    n = 1_000_000
    table = Table(("shot", "bin"), columns=(np.arange(n), np.zeros(n, dtype=int)))
    tracemalloc.start()
    try:
        assert len(table.rows) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000


@pytest.fixture(scope="module")
def event_report():
    report = run(load_scenario("fig2_blocked"), mode="mc", shots=410_000, seed=11)
    assert len(report.tables["events"].rows) >= 400_000
    return report


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_emit_memory_is_bounded_by_the_block(tmp_path, event_report, fmt):
    """Writing a 400k-row event log stays far below the log's own size."""
    tracemalloc.start()
    try:
        emit(event_report, fmt, tmp_path / f"events.{fmt}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MB"
