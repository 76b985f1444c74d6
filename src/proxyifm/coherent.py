"""Coherent-state propagation, threshold-click statistics, and Monte Carlo.

A train of weak coherent pulses stays coherent under any passive linear
circuit: the per-(terminal, bin) amplitudes are the per-pulse input
amplitudes walked through the circuit by ``CompiledCircuit.propagate``.
Detection uses a threshold (click / no-click) model, so each output cell
clicks independently with probability ``1 - exp(-|amplitude|^2)``;
``sample_clicks`` draws those clicks by ``sampling.sample_gaps``.

The conditional no-interaction figure quantifies how counterfactual a
click is: given a click on a trigger cell, the probability that the
delayed partial waves it proxies carried no photon at all.  See
:func:`interaction_free_probability` for the window convention.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .circuit import CircuitSpec, CompiledCircuit, Delay, Obstacle, compile_circuit
from .errors import NoLossTerminalError, ParseError, ZeroPulsesError
from .records import record, replace
from .sampling import flatten_cells, round_buffer, sample_gaps


@record
class CoherentTrain:
    """N identical pulses ``|alpha * exp(i phase_j)>`` on bins 0..N-1."""

    alpha: complex
    phases: tuple[float, ...]

    kind = "coherent"

    def __post_init__(self):
        if len(self.phases) < 1:
            raise ZeroPulsesError("a train needs at least one pulse")

    @classmethod
    def uniform(cls, n_pulses: int, alpha_squared: float,
                phase: float = 0.0) -> "CoherentTrain":
        return cls(alpha=complex(math.sqrt(alpha_squared)),
                   phases=(phase,) * n_pulses)

    @property
    def n_pulses(self) -> int:
        return len(self.phases)

    @property
    def mean_photons(self) -> float:
        return self.n_pulses * abs(self.alpha) ** 2

    def amplitudes(self) -> np.ndarray:
        return self.alpha * np.exp(1j * np.asarray(self.phases))


@record(eq=False)
class FieldConfiguration:
    """Coherent amplitude per (terminal, bin) after propagation.

    ``amplitudes[t]`` is a length-n_bins complex array for terminal ``t``
    (detectors and loss terminals alike).  The summed mean photon number
    over every cell equals the train's.
    """

    amplitudes: dict[str, np.ndarray]

    def mean_photons(self, terminal: str) -> np.ndarray:
        return np.abs(self.amplitudes[terminal]) ** 2


@record(eq=False)
class ClickDistribution:
    """Per-cell click probability under the threshold-detector model.

    Probabilities outside [0, 1] raise ``ValueError`` here, before any
    shot is drawn.  ``_gaps`` keeps, per cell laid out by
    ``flatten_cells``, ``log1p(-p)`` and the terminal and bin, and the
    largest ``p`` (0 with no cell), for ``sample_clicks``.  Its draws all
    reuse ``_buffer``, a ``sampling.round_buffer`` made on the first, so
    two threads must not draw from one distribution at once.
    """

    p_click: dict[str, np.ndarray]

    def __post_init__(self):
        p, terminal, bins = flatten_cells(self.p_click)
        if not np.all((p >= 0) & (p <= 1)):
            raise ValueError("click probabilities must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            log_q = np.log1p(-p)         # -inf for p = 1, -0.0 for p = 0
        object.__setattr__(self, "_gaps", (log_q, terminal, bins,
                                           float(p.max(initial=0.0))))

    @cached_property
    def _buffer(self) -> np.ndarray:
        return round_buffer(len(self._gaps[0]))


@record(eq=False)
class EventLog:
    """Monte-Carlo click records; replaying the seed reproduces it exactly.

    ``shots`` counts the shots drawn; ``shot_idx`` holds run-wide shot
    indices, so a log drawn from a later chunk on starts past zero.
    """

    shots: int
    seed: int
    shot_idx: np.ndarray
    terminal: np.ndarray      # indices into terminal_order
    bin_idx: np.ndarray
    terminal_order: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.shot_idx)


def propagate_coherent(circuit: CompiledCircuit, train: CoherentTrain,
                       source_id: Optional[str] = None) -> FieldConfiguration:
    """Walk a coherent train through the circuit.

    The train feeds the circuit's sole source (or ``source_id``); the
    other sources stay vacuum.  Linear, energy conserving.
    """
    return FieldConfiguration(circuit.propagate(train.amplitudes(), source_id))


def click_distribution(field: FieldConfiguration) -> ClickDistribution:
    """Threshold-model click probability ``1 - exp(-mean)`` per cell.

    Coherent states factorise over cells, so clicks are independent
    across terminals and bins.
    """
    p = {t: -np.expm1(-np.abs(a) ** 2) for t, a in field.amplitudes.items()}
    return ClickDistribution(p_click=p)


def sample_clicks(dist: ClickDistribution, shots: int, seed: int,
                  start: int = 0) -> EventLog:
    """Sample independent per-cell clicks for ``shots`` repetitions, from
    shot ``start`` on, by ``sampling.sample_gaps``.  Events are ordered by
    (shot, cell)."""
    log_q, cell_terminal, cell_bin, densest = dist._gaps
    shot_idx, cell = sample_gaps(log_q, densest, dist._buffer, shots, seed, start)
    return EventLog(shots=shots, seed=seed, shot_idx=shot_idx,
                    terminal=cell_terminal.take(cell), bin_idx=cell_bin.take(cell),
                    terminal_order=tuple(dist.p_click))


def partner_pulses(circuit: CompiledCircuit, trigger_bin: int) -> tuple[int, ...]:
    """Input pulses proxied by a click at ``trigger_bin``.

    A click at output bin j interferes the direct pulse j with the pulse
    j-d arriving through each delayed path; the proxied partners are the
    j-d for every distinct positive path delay d.
    """
    return tuple(sorted(trigger_bin - d for d in circuit.path_delays if d > 0))


def interaction_free_probability(spec: CircuitSpec, train: CoherentTrain,
                                 trigger_bin: int) -> float:
    """Exact windowed no-interaction probability for an interior trigger.

    Window convention: a click at bin j proxies one earlier pulse per
    delayed path (bin j-d for each path delay d > 0).  The figure is the
    probability that the delayed partial waves of all proxied pulses were
    empty, ``exp(-mu)`` with mu the summed mean photon number those pulses
    route into the delay stage.  For the two-pulse interferometer this is
    exactly the single blocked slice feeding the trigger's interference
    event; for deeper cascades it covers every delayed arm of every
    proxied pulse, whether or not that arm currently hosts the obstacle.

    mu is read from a probe: ``spec`` with its obstacles retracted and an
    obstacle ``probe;<delay id>`` in front of every delay, which absorbs
    what each pulse sends into that delayed arm (counted once, at the
    first delay on the path).  Only these obstacles count, not light lost
    at an absorber; a scenario's ids and wires never hold the ``;``.
    """
    elements, arms = [], []
    for e in spec.elements:
        if isinstance(e, Obstacle):
            e = replace(e, inserted=False)
        if isinstance(e, Delay) and e.bins > 0:
            arm = f"probe;{e.id}"
            elements += [Obstacle(arm, e.input, arm), replace(e, input=arm)]
            arms.append(arm)
        else:
            elements.append(e)
    probe = compile_circuit(replace(spec, elements=tuple(elements)))
    field = propagate_coherent(probe, train)
    partners = partner_pulses(probe, trigger_bin)
    if not partners or not arms:
        raise NoLossTerminalError("circuit has no delayed arm to probe")
    mu = 0.0
    for term in arms:
        means = field.mean_photons(term)
        for p in partners:
            if 0 <= p < len(means):
                mu += float(means[p])
    return math.exp(-mu)


def fringe_sweep(spec: CircuitSpec, phase_values: Sequence[float],
                 source: Optional[CoherentTrain] = None) -> np.ndarray:
    """Sweep the delay's propagation phase and record both output fringes.

    ``spec`` must hold one delay, one source and two or more detectors,
    and ``source`` (by default a unit train over the source's bins) a
    non-zero amplitude; ``ParseError`` otherwise.  The circuit is compiled
    and the train's amplitudes computed once; for each phase the train is
    walked through that layout with the delay's phase replaced, and the
    middle interior bin's mean photon number at the first and the second
    detector, normalised to the per-pulse mean, is reported: on the matched
    two-pulse interferometer, ``(1 + cos(phase)) / 2`` and its complement.
    Returns one float64 row ``(phase, p_d1, p_d2)`` per phase.
    """
    delays = [e for e in spec.elements if isinstance(e, Delay)]
    sources = spec.sources()
    if len(delays) != 1:
        raise ParseError(f"sweep needs exactly one delay; the scenario has "
                         f"{len(delays)}")
    if len(sources) != 1:
        raise ParseError(f"sweep needs exactly one source; the scenario has "
                         f"{len(sources)}")
    compiled = compile_circuit(spec)
    detectors = compiled.detector_ids()
    if len(detectors) < 2:
        raise ParseError(f"sweep needs two detectors; the scenario has "
                         f"{len(detectors)}")
    d1, d2 = detectors[:2]
    if source is None:
        source = CoherentTrain.uniform(sources[0].n_bins, 1.0)
    per_pulse = abs(source.alpha) ** 2
    if per_pulse == 0:
        raise ParseError("sweep needs pulses.alpha_squared > 0: the fringes "
                         "are normalised to the per-pulse mean")
    mid = compiled.middle_interior_bin()
    amplitudes = source.amplitudes()

    rows = np.empty((len(phase_values), 3))
    for row, phi in zip(rows, phase_values):
        walked = compiled.with_delay_phase(delays[0].id, float(phi))
        field = FieldConfiguration(walked.propagate(amplitudes))
        row[:] = (phi, field.mean_photons(d1)[mid] / per_pulse,
                  field.mean_photons(d2)[mid] / per_pulse)
    return rows
