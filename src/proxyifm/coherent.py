"""Coherent-state propagation, threshold-click statistics, and Monte Carlo.

A train of weak coherent pulses stays coherent under any passive linear
circuit: the per-(terminal, bin) amplitudes are the per-pulse input
amplitudes walked through the circuit by ``CompiledCircuit.propagate``.
Detection uses a threshold (click / no-click) model, so each output cell
clicks independently with probability ``1 - exp(-|amplitude|^2)``.

Monte Carlo runs on counter-based Philox streams keyed on (seed, chunk of
``_MC_CHUNK`` shots), so a shot's draws depend only on the seed and the
shot index.  Every sampler takes the offset ``start`` of its first shot,
a multiple of ``_MC_CHUNK``, so a caller can draw a run one chunk at a
time and get the events of the whole-run call.  ``sample_clicks`` skips
from click to click along each cell with geometric gaps, one uniform per
gap: a chunk's stream is read in rounds of one uniform per cell, as many
rounds as the densest cell's click count plus a few standard deviations,
in row blocks of at most ``_DRAW_BYTES`` of uniforms.  It draws about
(the densest cell's click count + a few sigma) rounds x cells uniforms
per chunk, capped at ``_DRAW_BYTES`` a block, and its memory per chunk is
one block plus that chunk's events, not shots x cells.
``_sample_categorical`` is the one keyed draw of an index from a cdf, for
the one-photon and Fock samplers: each uniform is placed by indexed
search (Chen & Asau 1974), a bucket lookup and one comparison, not a
binary search.  ``_flatten_cells`` is the one layout of per-terminal
arrays as (terminal, bin) cells, for the samplers and the runner's
tables.

The conditional no-interaction figure quantifies how counterfactual a
click is: given a click on a trigger cell, the probability that the
delayed partial waves it proxies carried no photon at all.  See
:func:`interaction_free_probability` for the window convention.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .circuit import CircuitSpec, CompiledCircuit, Delay, Obstacle, compile_circuit
from .errors import NoLossTerminalError, ParseError, ZeroPulsesError
from .records import record, replace

# Fixed Monte-Carlo chunk size: results are a pure function of (seed, shot
# index, cell index), independent of how a caller batches or parallelises.
_MC_CHUNK = 1 << 17

# Bytes of uniforms ``sample_clicks`` holds at a time: a block is
# max(1, _DRAW_BYTES // (8 * cells)) rounds of one uniform per cell.
_DRAW_BYTES = 1 << 20


class _Chunks:
    """``draw(count, first)`` for each ``_MC_CHUNK`` of the rows (shots, for
    a Monte-Carlo table) ``start`` to ``start + rows - 1``, afresh on every
    pass: a streamed table's column chunks, or a sampler's chunks."""

    def __init__(self, rows: int, draw, start: int = 0):
        if rows < 1:
            raise ValueError(f"a stream needs rows (shots) >= 1, got {rows}")
        self.rows, self.draw, self.start = rows, draw, start

    def __iter__(self):
        stop = self.start + self.rows
        for first in range(self.start, stop, _MC_CHUNK):
            yield self.draw(min(_MC_CHUNK, stop - first), first)


def _sample_chunks(shots: int, seed: int, draw, start: int = 0) -> tuple:
    """``draw(rng, chunk, count)`` for each ``_Chunks`` chunk of ``shots``
    shots from ``start``, ``rng`` a Philox stream keyed on ``(seed, chunk)``:
    a shot's draws depend only on the seed and its index, so ``start`` must
    be a chunk boundary.  The tuples of arrays ``draw`` returns are joined
    over the chunks in order (one chunk's are returned as they are)."""
    if start < 0 or start % _MC_CHUNK:
        raise ValueError(f"start {start} is not a non-negative multiple "
                         f"of {_MC_CHUNK}")

    def keyed(count, chunk):
        return draw(np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(chunk,)))), chunk, count)

    parts = list(_Chunks(shots, keyed, start))
    return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))


def _categorical_cdf(probs: np.ndarray) -> tuple:
    """The cdf ``_sample_categorical`` places its uniforms on, with its
    guide table (``_guide``)."""
    return _guide(np.cumsum(probs / probs.sum()))


def _guide(cdf: np.ndarray) -> tuple:
    """``(cdf, first, entry, crowded)``: ``cdf`` and the indexed-search
    table (Chen & Asau 1974) that ``_place`` looks uniforms up in.

    The unit interval is cut into g buckets ``[k / g, (k + 1) / g)``, g a
    power of two, so that ``u * g`` and ``k / g`` are exact: the least at
    least ``2 len(cdf)``, but at most ``_MC_CHUNK``, as a longer table
    would cost more to build and hold than a chunk's uniforms save (a cdf
    longer than half a chunk so gets crowded buckets).  ``first[k]``
    counts the cdf entries at most ``k / g``: the answer for any uniform
    of the bucket, but for the one cdf entry the bucket may hold,
    ``entry[k]``, the cdf at ``first[k]`` (clipped into the cdf).  A
    bucket holding more entries is marked -1 in ``first`` and +inf in
    ``entry``, and ``crowded`` tells whether any is.
    """
    g = min(1 << (2 * len(cdf) - 1).bit_length(), _MC_CHUNK)
    guide = np.searchsorted(cdf, np.arange(g + 1) / g, side="right")
    first = guide[:-1]
    entry = cdf.take(first, mode="clip")
    crowded = np.diff(guide) > 1
    first[crowded], entry[crowded] = -1, np.inf
    return cdf, first, entry, bool(crowded.any())


def _place(table: tuple, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, side="right")`` for uniforms ``u`` in [0, 1),
    clamped to the last index (the u ~ 1.0 edge), by ``_guide``'s table.

    Each uniform's bucket gives its first candidate index, and one
    comparison with the cdf entry there settles it; only the uniforms of
    crowded buckets are searched.  The lookups are made in place in the
    result, so the one temporary beside ``u`` and the result is a bool
    per uniform.
    """
    cdf, first, entry, crowded = table
    g = len(first)
    found = np.empty(len(u), dtype=np.intp)
    # Each take reads an element's bucket before it writes there.
    np.multiply(u, g, out=found, casting="unsafe")      # floor(u * g)
    np.take(entry, found, out=found.view(np.float64), mode="clip")
    passed = found.view(np.float64) <= u
    np.multiply(u, g, out=found, casting="unsafe")
    np.take(first, found, out=found, mode="clip")
    # Past the last entry the comparison gives len(cdf) + 1, clamped
    # below; a crowded bucket's -1 is searched.
    found += passed
    if crowded:
        search = np.flatnonzero(found < 0)
        found[search] = np.searchsorted(cdf, u[search], side="right")
    np.minimum(found, len(cdf) - 1, out=found)
    return found


def _sample_categorical(table: tuple, shots: int, seed: int,
                        start: int = 0) -> np.ndarray:
    """Per shot, the index ``k`` drawn with probability ``cdf[k] - cdf[k-1]``
    from a ``_categorical_cdf`` table.

    One keyed uniform per shot is placed on the cdf by indexed search
    (``_place``: one bucket lookup and one comparison, with the result of
    ``searchsorted(side="right")``), chunk by chunk.
    """
    (draws,) = _sample_chunks(
        shots, seed,
        lambda rng, chunk, count: (_place(table, rng.random(count)),),
        start)
    return draws


def _flatten_cells(per_terminal: dict[str, np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-terminal arrays as one vector of (terminal, bin) cells.

    Returns ``(values, terminal, bin)``: cell ``k`` holds ``values[k]``,
    bin ``bin[k]`` of the ``terminal[k]``-th key of ``per_terminal``.  Both
    index columns are int32.
    """
    arrays = list(per_terminal.values())
    lengths = [len(a) for a in arrays]
    # The leading empty arrays give the dtypes when there is no terminal.
    return (np.concatenate([np.zeros(0), *arrays]),
            np.repeat(np.arange(len(arrays), dtype=np.int32), lengths),
            np.concatenate([np.zeros(0, dtype=np.int32),
                            *(np.arange(n, dtype=np.int32) for n in lengths)]))


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
    ``_flatten_cells``, ``log1p(-p)`` and the terminal and bin, and the
    largest ``p`` (0 with no cell), for ``sample_clicks``.
    """

    p_click: dict[str, np.ndarray]

    def __post_init__(self):
        p, terminal, bins = _flatten_cells(self.p_click)
        if not np.all((p >= 0) & (p <= 1)):
            raise ValueError("click probabilities must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            log_q = np.log1p(-p)         # -inf for p = 1, -0.0 for p = 0
        object.__setattr__(self, "_gaps", (log_q, terminal, bins,
                                           float(p.max(initial=0.0))))


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


def _rounds(shots, p):
    """Rounds that pass a cell of click probability ``p`` over ``shots``
    shots but about once in 1e6: its clicks, at most their mean plus five
    standard deviations, the gap past the last shot, and one to spare."""
    mean = shots * p
    return np.ceil(mean + 5 * np.sqrt(mean * (1 - p))) + 2


def sample_clicks(dist: ClickDistribution, shots: int, seed: int,
                  start: int = 0) -> EventLog:
    """Sample independent per-cell clicks for ``shots`` repetitions.

    Each cell's clicks are found by geometric skipping: the gap from one
    click to the next is ``floor(log1p(-u) / log1p(-p)) + 1`` for a uniform
    ``u``, so that P(gap > k) = (1 - p)^k.  Chunk ``chunk`` of
    ``_MC_CHUNK`` shots draws from a counter-based Philox stream keyed on
    ``(seed, chunk)``, read as rounds of one uniform per cell: the r-th
    round holds every cell's r-th gap.  A chunk first draws the rounds
    that pass its densest cell but about once in 1e6 (``_rounds``: that
    cell's click count plus a few standard deviations), in row blocks of
    at most ``_DRAW_BYTES`` of uniforms, and stops as soon as every cell
    has passed its last shot; a cell still short after that budget gets
    further blocks sized from the cells still live.  A chunk so costs
    about (the densest cell's click count + a few sigma) x cells
    uniforms, capped at one ``_DRAW_BYTES`` block at a time.  A cell's
    k-th gap sits at a fixed place in the chunk's stream, so the events
    are a pure function of (distribution, shot indices, seed): a short run
    is the prefix of a longer one with the same seed, and the shots from
    ``start`` (a multiple of ``_MC_CHUNK``) on are those of a run from
    shot 0.  Events are ordered by (shot, cell).
    """
    log_q, cell_terminal, cell_bin, densest = dist._gaps
    cells = len(log_q)
    rows = max(1, _DRAW_BYTES // (8 * max(1, cells)))

    def draw(rng, chunk, count):
        # Every gap is at least 1, so count + 1 rounds pass every cell.
        need = int(min(count + 1, _rounds(count, densest)))
        buffer = np.empty((min(rows, need), cells))
        pos = np.full(cells, -1.0)       # each cell's last click so far
        keys = [np.zeros(0, dtype=np.int64)]
        while (pos < count).any():
            if need == 0:                # rare: a cell outran the budget
                live = pos < count
                need = int(_rounds(count - 1 - pos[live],
                                   -np.expm1(log_q[live])).max())
            block = buffer[:need]
            need -= len(block)
            rng.random(out=block)
            np.negative(block, out=block)
            np.log1p(block, out=block)
            # A p = 0 cell gets the gap x / -0.0 = inf, or 0 / -0.0 = NaN
            # when u = 0; its position then never compares below count, so
            # it never clicks and never holds the loop.
            np.divide(block, log_q, out=block)
            np.floor(block, out=block)
            block += 1
            block[0] += pos
            np.cumsum(block, axis=0, out=block)
            pos = block[-1].copy()
            hits = np.flatnonzero(block < count)
            keys.append(block.ravel()[hits].astype(np.int64) * cells
                        + hits % cells)
        keys = np.concatenate(keys)
        keys.sort()
        shot = keys // cells
        shot += chunk
        np.remainder(keys, cells, out=keys)
        return shot, keys.astype(np.int32)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        shot_idx, cell = _sample_chunks(shots, seed, draw, start)
    return EventLog(shots=shots, seed=seed, shot_idx=shot_idx,
                    terminal=cell_terminal[cell], bin_idx=cell_bin[cell],
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
