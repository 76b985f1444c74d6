"""Experiment orchestration: dispatch a scenario to an engine and emit
the results as byte-stable CSV or JSONL.

Each engine's results become :class:`~proxyifm.tables.Table` objects.
A table whose length grows with the input is a ``sampling.Chunks``
stream, built afresh on each pass: a Monte-Carlo event table samples each
chunk of shots, with terminals as a categorical column, and the exact
coherent ``field`` and Fock ``joint`` and ``marginals`` tables compute
only their chunk's rows, so a table that is never written is never
computed.  A Fock outcome column, joint or sampled, is an
:class:`~proxyifm.tables.OutcomeVectors` of its rows' counts.  Short
tables are one eager chunk.  ``emit`` writes each chunk with the one
block writer of :mod:`proxyifm.tables` and drops it before the next one
is built, so a run's memory after propagation is O(chunk).  The checks
that can refuse a run (shots and their 2**41 bound, click probabilities)
are made by ``run``, before any file is opened.

Every float is printed with 17 significant digits so regression diffs
are exact, and nothing volatile (timestamps included) reaches the output
files: the bytes are a pure function of (scenario, engine, mode, shots,
seed).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .circuit import Delay, Obstacle, compile_circuit
from .coherent import (
    CoherentTrain,
    EventLog,
    click_distribution,
    fringe_sweep,
    interaction_free_probability,
    propagate_coherent,
    sample_clicks,
)
from .errors import EngineSourceMismatchError, IoError, ParseError, UnresolvedElementIdError
from .fock import FockOracle, coherent_cutoff, sample_joint
from .records import record
from .sampling import Chunks, flatten_cells
from .scenarios import Scenario, TensorSumSourceSpec
from .singlephoton import propagate_photon, sample_outcomes, tensor_sum_state
from .tables import Categorical, OutcomeVectors, Table, write_csv, write_jsonl

# The engines that accept each source kind, its natural engine first.
_ENGINES = {
    "coherent": ("coherent", "fock"),
    "tensor_sum": ("singlephoton", "fock"),
    "single_photons": ("fock",),
}


@record
class RunReport:
    """Result tables by name, in emit order."""

    tables: dict[str, Table]


def run(scenario: Scenario, engine: Optional[str] = None,
        mode: Optional[str] = None, shots: Optional[int] = None,
        seed: Optional[int] = None, cutoff: Optional[int] = None) -> RunReport:
    """Execute a scenario and collect the result tables.

    ``engine`` defaults to the natural engine of the scenario's source
    kind (the first of its ``_ENGINES``); an engine that cannot consume
    that kind raises ``EngineSourceMismatchError``.  The Fock ``cutoff``
    defaults to the source's ``default_cutoff``.  Streamed tables are
    computed only when they are written.  Errors reach the caller as
    raised.
    """
    accepted = _ENGINES[scenario.source.kind]
    engine = engine or accepted[0]
    mode = mode or scenario.defaults.mode
    shots = scenario.defaults.shots if shots is None else shots
    seed = scenario.defaults.seed if seed is None else seed
    if mode not in ("exact", "mc"):
        raise ValueError(f"unknown mode {mode!r}")
    if engine not in accepted:
        raise EngineSourceMismatchError(
            f"engine {engine!r} cannot consume a {scenario.source.kind!r} "
            f"source (use {' or '.join(accepted)})")

    if engine == "coherent":
        return RunReport(_run_coherent(scenario, mode, shots, seed))
    if engine == "singlephoton":
        return RunReport(_run_singlephoton(scenario, mode, shots, seed))
    return RunReport(_run_fock(scenario, mode, shots, seed, cutoff))


def _event_table(shots: int, sample) -> Table:
    """The (shot, terminal, bin) events of ``sample(count, start)``'s logs."""
    def columns(count: int, start: int) -> tuple:
        log: EventLog = sample(count, start)
        return (log.shot_idx, Categorical(log.terminal, log.terminal_order),
                log.bin_idx)

    return Table(headers=("shot", "terminal", "bin"),
                 chunks=Chunks(shots, columns))


def _field_table(field_cfg) -> Table:
    flat, terminal, bins = flatten_cells(field_cfg.amplitudes)
    names = list(field_cfg.amplitudes)

    def columns(count: int, start: int) -> tuple:
        cells = slice(start, start + count)
        a = flat[cells]
        # The bits of the scalar float(abs(a) ** 2) and -expm1(-mean): the
        # SIMD np.abs of a complex array, h ** 2 (which is h * h) and pow
        # with an array exponent can each differ in the last digit.
        mean = np.float_power(np.hypot(a.real, a.imag), 2.0)
        return (Categorical(terminal[cells], names), bins[cells],
                a.real, a.imag, mean, -np.expm1(-mean))

    return Table(headers=("terminal", "bin", "re", "im", "mean_n", "p_click"),
                 chunks=Chunks(len(flat), columns))


def _run_coherent(scenario: Scenario, mode: str, shots: int, seed: int) -> dict:
    compiled = compile_circuit(scenario.spec)
    field_cfg = propagate_coherent(compiled, scenario.source)
    tables: dict[str, Table] = {}
    if mode == "exact":
        tables["field"] = _field_table(field_cfg)
        # The figure is about an inserted obstacle, seen through a delayed arm.
        if scenario.trigger_terminal and compiled.max_path_delay > 0 and any(
                isinstance(e, Obstacle) and e.inserted
                for e in scenario.spec.elements):
            trig_bin = compiled.middle_interior_bin()
            p_empty = interaction_free_probability(scenario.spec, scenario.source,
                                                   trig_bin)
            tables["conditionals"] = Table(
                headers=("quantity", "value"),
                rows=[
                    ("trigger_terminal", scenario.trigger_terminal),
                    ("trigger_bin", trig_bin),
                    ("p_no_interaction", p_empty),
                ])
    else:
        dist = click_distribution(field_cfg)
        tables["events"] = _event_table(
            shots, lambda count, start: sample_clicks(dist, count, seed, start))
    return tables


def _run_singlephoton(scenario: Scenario, mode: str, shots: int, seed: int) -> dict:
    compiled = compile_circuit(scenario.spec)
    dist = propagate_photon(compiled, tensor_sum_state(scenario.source.n_pulses))
    tables: dict[str, Table] = {}
    if mode == "exact":
        p, terminal, bins = flatten_cells(dist.p_bins)
        tables["field"] = Table(
            headers=("terminal", "bin", "p"),
            columns=(Categorical(terminal, list(dist.p_bins)), bins, p))
        tables["p_outcome"] = Table(headers=("terminal", "probability"),
                                    columns=(list(dist.p), list(dist.p.values())))
    else:
        tables["events"] = _event_table(
            shots, lambda count, start: sample_outcomes(dist, count, seed, start))
    return tables


def default_cutoff(source) -> int:
    """The Fock cutoff that holds a source's light: its photon number, or
    for a coherent train the smallest whose deficit meets the limit."""
    if isinstance(source, CoherentTrain):
        return coherent_cutoff(source.mean_photons)
    if isinstance(source, TensorSumSourceSpec):
        return 1
    return len(source.photons)


def _prepare_fock_input(oracle: FockOracle, scenario: Scenario):
    src = scenario.source
    if isinstance(src, CoherentTrain):
        return oracle.coherent_train_state(src.alpha, src.n_pulses, src.phases)
    if isinstance(src, TensorSumSourceSpec):
        return oracle.tensor_sum_state(src.n_pulses)
    return oracle.single_photon_state(src.photons)


def _run_fock(scenario: Scenario, mode: str, shots: int, seed: int,
              cutoff: Optional[int]) -> dict:
    if cutoff is None:
        cutoff = default_cutoff(scenario.source)
    oracle = FockOracle(scenario.spec, cutoff)
    dist = oracle.run(_prepare_fock_input(oracle, scenario))
    del oracle  # nothing past the readout reads the basis
    tables: dict[str, Table] = {}
    if mode == "exact":
        # Most probable first, ties in lexicographic outcome order.
        order = np.lexsort([*dist.outcomes.T[::-1], -dist.probabilities])

        def joint(count: int, start: int) -> tuple:
            rows = order[start:start + count]
            return (OutcomeVectors(dist.cells, dist.outcomes[rows]),
                    dist.probabilities[rows])

        tables["joint"] = Table(headers=("outcome_vector", "probability"),
                                chunks=Chunks(len(order), joint))

        def marginals(count: int, start: int) -> tuple:
            cells = dist.cells[start:start + count]
            return ([t for t, _ in cells], [b for _, b in cells],
                    [dist.mean(t, b) for t, b in cells])

        tables["marginals"] = Table(headers=("terminal", "bin", "mean_n"),
                                    chunks=Chunks(len(dist.cells), marginals))
    else:
        def events(count: int, start: int) -> tuple:
            rows = sample_joint(dist, count, seed, start)
            return (np.arange(start, start + count),
                    OutcomeVectors(dist.cells, dist.outcomes[rows]))

        tables["events"] = Table(headers=("shot", "outcome_vector"),
                                 chunks=Chunks(shots, events))
    return tables


def emit(report: RunReport, fmt: str, path: Union[str, Path]) -> None:
    """Write the report tables; identical reports yield identical bytes.

    CSV: the first table lands at ``path``, any further table at
    ``<path>.<table>.csv``.  JSONL: one object per row, keyed by the
    table headers (a ``table`` key is added only when several tables are
    present).  Files are written in binary mode as UTF-8 with ``\n`` line
    ends on every platform.
    """
    path = Path(path)
    try:
        if fmt == "csv":
            for k, (name, table) in enumerate(report.tables.items()):
                target = path if k == 0 else path.with_suffix(f".{name}.csv")
                with open(target, "wb") as fh:
                    write_csv(fh, table)
        elif fmt == "jsonl":
            many = len(report.tables) > 1
            with open(path, "wb") as fh:
                for name, table in report.tables.items():
                    write_jsonl(fh, name, table, many)
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def sweep_table(scenario: Scenario, param: str, values: Sequence[float]) -> Table:
    """Fringe sweep over a scenario's declared delay-phase parameter."""
    if param not in scenario.sweep_params:
        raise UnresolvedElementIdError(f"no sweep parameter {param!r}")
    element_id, field_name = scenario.sweep_params[param]
    target = {e.id: e for e in scenario.spec.elements}[element_id]
    if field_name != "phase" or not isinstance(target, Delay):
        raise ParseError(f"parameter {param!r} does not target a delay phase")
    source = scenario.source if isinstance(scenario.source, CoherentTrain) else None
    rows = fringe_sweep(scenario.spec, values, source=source)
    return Table(headers=("phase", "p_d1", "p_d2"), columns=tuple(rows.T))
