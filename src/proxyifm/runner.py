"""Experiment orchestration: dispatch a scenario to an engine and emit
the results as byte-stable CSV or JSONL.

Tables are columnar: a :class:`Table` keeps one numpy array, list or
:class:`Categorical` per header, and Monte-Carlo event tables take their
columns straight from the sampler arrays, so no Python object is built per
event.  A column of repeated names (terminals, Fock outcome vectors) is a
:class:`Categorical`: integer codes into a category list.  ``emit``
formats each category once and renders each column in blocks of
``_BLOCK`` rows, writing every block to the open file, so writing costs
O(block) memory however long the log is.

Every float is printed with 17 significant digits so regression diffs
are exact, and nothing volatile (timestamps included) reaches the output
files: the bytes are a pure function of (scenario, engine, mode, shots,
seed).
"""

from __future__ import annotations

import json
from collections.abc import Collection, Sequence as _SequenceABC
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .circuit import Delay, compile_circuit
from .coherent import (
    CoherentTrain,
    EventLog,
    _flatten_cells,
    click_distribution,
    interaction_free_probability,
    propagate_coherent,
    sample_clicks,
)
from .errors import EngineSourceMismatchError, IoError
from .fock import FockOracle, sample_joint
from .scenarios import (
    CoherentSourceSpec,
    FockSourceSpec,
    Scenario,
    TensorSumSourceSpec,
)
from .singlephoton import propagate_photon, sample_outcomes, tensor_sum_state

_ENGINE_SOURCES = {
    "coherent": (CoherentSourceSpec,),
    "singlephoton": (TensorSumSourceSpec,),
    "fock": (CoherentSourceSpec, TensorSumSourceSpec, FockSourceSpec),
}

# Rows rendered and written at a time by ``emit``.
_BLOCK = 1024


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


@dataclass(frozen=True)
class RunReport:
    """The engine output tables of one run, in emit order."""

    scenario_id: str
    engine: str
    mode: str
    tables: dict[str, Table]


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


def run(scenario: Scenario, engine: Optional[str] = None,
        mode: Optional[str] = None, shots: Optional[int] = None,
        seed: Optional[int] = None, cutoff: int = 5,
        tables: Optional[Collection[str]] = None) -> RunReport:
    """Execute a scenario and collect the result tables.

    ``engine`` defaults to the scenario source's natural engine; asking an
    engine to consume a source it cannot represent raises
    ``EngineSourceMismatchError``.  ``tables`` names the tables to keep
    (all by default); one that is not kept may not be built at all.
    Errors reach the caller as raised.
    """
    engine = engine or scenario.engine()
    mode = mode or scenario.defaults.mode
    shots = scenario.defaults.shots if shots is None else shots
    seed = scenario.defaults.seed if seed is None else seed
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if engine not in _ENGINE_SOURCES:
        raise EngineSourceMismatchError(f"unknown engine {engine!r}")
    if not isinstance(scenario.source, _ENGINE_SOURCES[engine]):
        raise EngineSourceMismatchError(
            f"engine {engine!r} cannot consume a {scenario.source.kind!r} source")

    if engine == "coherent":
        built = _run_coherent(scenario, mode, shots, seed)
    elif engine == "singlephoton":
        built = _run_singlephoton(scenario, mode, shots, seed)
    else:
        built = _run_fock(scenario, mode, shots, seed, cutoff, tables)
    if tables is not None:
        built = {name: t for name, t in built.items() if name in tables}
    return RunReport(scenario_id=scenario.scenario_id, engine=engine,
                     mode=mode, tables=built)


def _coherent_train(scenario: Scenario) -> CoherentTrain:
    src = scenario.source
    return CoherentTrain(alpha=complex(np.sqrt(src.alpha_squared)),
                         phases=src.phases)


def _event_table(log: EventLog) -> Table:
    return Table(headers=("shot", "terminal", "bin"),
                 columns=(log.shot_idx, Categorical(log.terminal, log.terminal_order),
                          log.bin_idx))


def _field_table(field_cfg) -> Table:
    flat, terminal, bins = _flatten_cells(field_cfg.amplitudes)
    # Scalar arithmetic on purpose: the vectorised np.abs of a complex array
    # can differ from the scalar one in the last digit.
    mean = [float(abs(a) ** 2) for a in flat]
    return Table(headers=("terminal", "bin", "re", "im", "mean_n", "p_click"),
                 columns=(Categorical(terminal, list(field_cfg.amplitudes)),
                          bins, flat.real, flat.imag, mean,
                          [float(-np.expm1(-m)) for m in mean]))


def _run_coherent(scenario: Scenario, mode: str, shots: int, seed: int) -> dict:
    compiled = compile_circuit(scenario.spec)
    train = _coherent_train(scenario)
    field_cfg = propagate_coherent(compiled, train)
    tables: dict[str, Table] = {}
    if mode == "exact":
        tables["field"] = _field_table(field_cfg)
        if scenario.trigger_terminal and compiled.loss_terminals:
            interior = compiled.interior_bins()
            trig_bin = interior[len(interior) // 2]
            p_empty = interaction_free_probability(scenario.spec, train, trig_bin)
            tables["conditionals"] = Table(
                headers=("quantity", "value"),
                rows=[
                    ("trigger_terminal", scenario.trigger_terminal),
                    ("trigger_bin", trig_bin),
                    ("p_no_interaction", p_empty),
                ])
    else:
        tables["events"] = _event_table(
            sample_clicks(click_distribution(field_cfg), shots, seed))
    return tables


def _run_singlephoton(scenario: Scenario, mode: str, shots: int, seed: int) -> dict:
    compiled = compile_circuit(scenario.spec)
    dist = propagate_photon(compiled, tensor_sum_state(scenario.source.n_pulses))
    tables: dict[str, Table] = {}
    if mode == "exact":
        p, terminal, bins = _flatten_cells(dist.p_bins)
        tables["field"] = Table(
            headers=("terminal", "bin", "p"),
            columns=(Categorical(terminal, list(dist.p_bins)), bins, p))
        tables["p_outcome"] = Table(headers=("terminal", "probability"),
                                    columns=(list(dist.p), list(dist.p.values())))
    else:
        tables["events"] = _event_table(sample_outcomes(dist, shots, seed))
    return tables


def _prepare_fock_input(oracle: FockOracle, scenario: Scenario):
    src = scenario.source
    if isinstance(src, CoherentSourceSpec):
        return oracle.coherent_train_state(
            complex(np.sqrt(src.alpha_squared)), src.n_pulses, src.phases)
    if isinstance(src, TensorSumSourceSpec):
        return oracle.tensor_sum_state(src.n_pulses)
    return oracle.single_photon_state(src.photons)


def outcome_texts(cells: Sequence[tuple[str, int]],
                  outcomes: np.ndarray) -> list[str]:
    """Stable text of each outcome row: ``terminal=counts`` groups, ``;``-joined.

    A terminal's cells are adjacent in ``cells``.
    """
    groups: dict[str, list[str]] = {}
    for term, _ in cells:
        groups.setdefault(term.replace("%", "%%"), []).append("%d")
    template = ";".join(f"{t}=" + ",".join(c) for t, c in groups.items())
    return [template % tuple(row) for start in range(0, len(outcomes), _BLOCK)
            for row in outcomes[start:start + _BLOCK].tolist()]


def _run_fock(scenario: Scenario, mode: str, shots: int, seed: int,
              cutoff: int, want: Optional[Collection[str]]) -> dict:
    oracle = FockOracle(scenario.spec, cutoff)
    state = _prepare_fock_input(oracle, scenario)
    dist = oracle.run(state)
    tables: dict[str, Table] = {}
    if mode == "exact":
        # Most probable first, ties in lexicographic outcome order.
        order = np.lexsort([*dist.outcomes.T[::-1], -dist.probabilities])
        tables["joint"] = Table(
            headers=("outcome_vector", "probability"),
            columns=(outcome_texts(dist.cells, dist.outcomes[order]),
                     dist.probabilities[order]))
        if want is None or "marginals" in want:
            tables["marginals"] = Table(
                headers=("terminal", "bin", "mean_n"),
                rows=[(t, b, dist.mean(t, b)) for (t, b) in dist.cells])
    else:
        tables["events"] = Table(
            headers=("shot", "outcome_vector"),
            columns=(np.arange(shots),
                     Categorical(sample_joint(dist, shots, seed),
                                 outcome_texts(dist.cells, dist.outcomes))))
    return tables


def emit(report: RunReport, fmt: str, path: Union[str, Path]) -> None:
    """Write the report tables; identical reports yield identical bytes.

    CSV: the first table lands at ``path``, any further table at
    ``<path>.<table>.csv``.  JSONL: one object per row, keyed by the
    table headers (a ``table`` key is added only when several tables are
    present).  Rows are rendered and written ``_BLOCK`` at a time.
    """
    path = Path(path)
    try:
        if fmt == "csv":
            for k, (name, table) in enumerate(report.tables.items()):
                target = path if k == 0 else path.with_suffix(f".{name}.csv")
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(",".join(table.headers) + "\n")
                    # 0, ",", 1, ",", ..., "\n": columns joined by commas
                    template = [p for i in range(len(table.headers))
                                for p in (",", i)][1:] + ["\n"]
                    _write_rows(fh, table, template, _fmt)
        elif fmt == "jsonl":
            many = len(report.tables) > 1
            with open(path, "w", encoding="utf-8") as fh:
                for name, table in report.tables.items():
                    _write_rows(fh, table, _jsonl_template(name, table, many),
                                _json_value)
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


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
    text; ``cell`` formats one value of a list or non-numeric column.
    """
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
        fh.write("".join(parts))


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


def sweep_table(scenario: Scenario, param: str, values: Sequence[float]) -> Table:
    """Fringe sweep over a scenario's declared sweepable phase parameter."""
    from .coherent import fringe_sweep
    from .errors import ParseError, UnresolvedElementIdError

    if param not in scenario.sweep_params:
        raise UnresolvedElementIdError(f"no sweep parameter {param!r}")
    element_id, field_name = scenario.sweep_params[param]
    if field_name != "phase":
        raise ParseError(f"parameter {param!r} does not target a delay phase")
    delays = [e for e in scenario.spec.elements if isinstance(e, Delay)]
    if len(delays) != 1 or delays[0].id != element_id:
        raise ParseError(
            f"sweep target {element_id!r} must be the scenario's only delay")
    source = None
    if isinstance(scenario.source, CoherentSourceSpec):
        source = _coherent_train(scenario)
    rows = np.array(fringe_sweep(scenario.spec, values, source=source),
                    dtype=float).reshape(-1, 3)
    return Table(headers=("phase", "p_d1", "p_d2"), columns=tuple(rows.T))
