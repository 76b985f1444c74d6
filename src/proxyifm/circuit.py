"""Interferometer data model and time-unrolled compilation.

A circuit is a directed acyclic graph of linear-optical elements connected
by named wires.  Sources inject pulse trains on their output wire; every
other wire is produced by exactly one element output and consumed by
exactly one element input or terminal.  Wire names beginning with ``vac``
are reserved: they denote fresh vacuum inputs and may each be consumed
once without being produced.

Time is discrete.  Amplitudes live on (wire, bin) slots; a ``Delay`` of k
bins shifts bin t to bin t+k exactly and multiplies by ``exp(i*phase)``.
``compile_circuit`` validates the element graph and lays it out once:
each wire's spatial slot, last populated bin, lit bins and path delays,
and from them ``n_bins``, the terminal order and the overflow checks.
The Fock oracle reads that same layout.
``CompiledCircuit.propagate`` walks one length-``n_bins`` amplitude
vector per wire through the elements in topological order, so a pass
costs O(elements x n_bins); no dense matrix of the circuit is built.
Because every element is unitary and obstacles reroute amplitude to loss
terminals instead of destroying it, the walk preserves the norm.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np

from .errors import (
    BinOverflowError,
    CyclicGraphError,
    DanglingPortError,
    NonUnitaryBeamSplitterError,
    StateTooLargeError,
)
from .records import field, record, replace

UNITARITY_TOL = 1e-10

# Bound on the bytes of the per-wire walk's (slots + terminals) x n_bins
# complex signals.
MAX_MAP_BYTES = 1 << 30

_VACUUM_PREFIX = "vac"

# Sorted, disjoint, non-adjacent ranges of bins.
Bins = tuple[range, ...]


def default_beamsplitter() -> np.ndarray:
    """Symmetric 50:50 splitter, ``(1/sqrt2) [[1, i], [i, 1]]``.

    Port order: output slot 0 is the transmission of input slot 0 (no
    phase); the crossed path picks up the factor ``i``.  Two of these in
    sequence on the same pair of wires make a balanced Mach-Zehnder with
    one dark port.
    """
    return np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


@record
class Source:
    """Pulse-train input.  ``n_bins`` input bins (0 .. n_bins-1) may be fed."""

    id: str
    out: str
    n_bins: int = 1


@record(eq=False)
class BeamSplitter:
    """Two-port splitter.  ``matrix`` defaults to :func:`default_beamsplitter`.

    Slot order follows the ``inputs``/``outputs`` tuples: outputs[0] =
    m00*inputs[0] + m01*inputs[1], outputs[1] = m10*inputs[0] + m11*inputs[1].
    Two splitters are equal, and hash alike, when their ids, ports and
    resolved matrix entries are.
    """

    id: str
    inputs: tuple[str, str]
    outputs: tuple[str, str]
    matrix: Optional[np.ndarray] = None

    def resolved_matrix(self) -> np.ndarray:
        if self.matrix is None:
            return default_beamsplitter()
        return np.asarray(self.matrix, dtype=complex)

    def _key(self) -> tuple:
        return (self.id, self.inputs, self.outputs,
                tuple(self.resolved_matrix().ravel().tolist()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())


@record
class Delay:
    """Shift every bin by ``bins`` slots and multiply by ``exp(i*phase)``."""

    id: str
    input: str
    output: str
    bins: int
    phase: float = 0.0


@record
class PhaseShift:
    id: str
    input: str
    output: str
    angle: float


@record
class Obstacle:
    """Perfect absorber.  Inserted, it routes the wire's amplitude to a loss
    terminal named after the element; retracted, it is the identity.
    ``bins`` optionally gates absorption to the listed bins only.
    """

    id: str
    input: str
    output: str
    inserted: bool = True
    bins: Optional[frozenset[int]] = None


@record
class Detector:
    id: str
    wire: str
    label: str = ""


@record
class Absorber:
    """A deliberate beam dump; a loss terminal that is always inserted."""

    id: str
    wire: str


Element = Union[Source, BeamSplitter, Delay, PhaseShift, Obstacle, Detector, Absorber]


@record
class CircuitSpec:
    """Declarative interferometer description.

    ``elements`` holds everything in declaration order: sources, inner
    elements, and the detector/absorber terminals.  ``n_bins`` may be
    omitted (``None``) to use the smallest bin count that fits every
    source pulse after all delays.
    """

    elements: tuple[Element, ...]
    n_bins: Optional[int] = None

    def sources(self) -> list[Source]:
        return [e for e in self.elements if isinstance(e, Source)]

    def terminals(self) -> list[Union[Detector, Absorber]]:
        return [e for e in self.elements if isinstance(e, (Detector, Absorber))]

    def with_obstacles(self, inserted: dict[str, bool]) -> "CircuitSpec":
        """Copy of the spec with obstacle ``inserted`` flags replaced."""
        new = []
        for e in self.elements:
            if isinstance(e, Obstacle) and e.id in inserted:
                e = replace(e, inserted=inserted[e.id])
            new.append(e)
        return replace(self, elements=tuple(new))


@record(eq=False)
class CompiledCircuit:
    """A validated circuit with its slot and terminal layout.

    ``propagate`` walks one source's amplitude vector to per-terminal
    amplitudes, in ``terminal_order`` (detectors first, then loss
    terminals).  ``wire_slot`` maps every wire to one of ``n_slots``
    spatial slots, the mode blocks of the Fock oracle.  ``wire_lit`` and
    ``terminal_lit`` hold, per wire and per terminal, the bins that light
    from any source can reach, inserted obstacles included; no other bin
    ever carries amplitude.  Immutable after build and safe to share.
    """

    n_bins: int
    terminal_order: tuple[str, ...]
    loss_terminals: frozenset[str]
    max_path_delay: int
    path_delays: frozenset[int]
    wire_slot: dict[str, int]
    n_slots: int
    wire_lit: dict[str, Bins]
    terminal_lit: dict[str, Bins]

    def propagate(self, amplitudes: np.ndarray,
                  source_id: Optional[str] = None) -> dict[str, np.ndarray]:
        """Walk a source-side amplitude vector to per-terminal amplitudes.

        ``amplitudes`` feeds the first bins of the sole source (or
        ``source_id``); every other source stays vacuum.  Returns one
        length-``n_bins`` array per terminal, in ``terminal_order``.
        Linear and norm preserving.
        """
        return self._walk(amplitudes, self.input_source(len(amplitudes), source_id))

    def detector_ids(self) -> tuple[str, ...]:
        return tuple(t for t in self.terminal_order if t not in self.loss_terminals)

    def interior_bins(self, source_id: Optional[str] = None) -> range:
        """Output bins reached by every delay offset of a populated bin.

        For a train of N pulses on bins 0..N-1 and path delays up to D,
        these are bins D..N-1: the bins where all partial waves overlap.
        """
        src = self._source(source_id)
        return range(self.max_path_delay, src.n_bins)

    def middle_interior_bin(self) -> int:
        """The interior bin where runs read conditionals and fringes."""
        interior = self.interior_bins()
        if not interior:
            raise BinOverflowError(
                f"a train of N={interior.stop} pulses has no interior bin: "
                f"N must exceed the longest path delay D={self.max_path_delay}")
        return interior[len(interior) // 2]

    def with_delay_phase(self, delay_id: str, phase: float) -> "CompiledCircuit":
        """The same layout with delay ``delay_id``'s phase replaced.

        A phase moves no amplitude between slots or bins, so nothing is
        validated or laid out again; the walk reads the new phase where it
        read the old one, as on a circuit compiled with it.
        """
        order = tuple(replace(e, phase=phase)
                      if isinstance(e, Delay) and e.id == delay_id else e
                      for e in self._order)
        return replace(self, _order=order)

    def input_source(self, n: int, source_id: Optional[str] = None) -> Source:
        """The source that an input of ``n`` bins feeds, once it fits."""
        source = self._source(source_id)
        if n > source.n_bins:
            raise BinOverflowError(
                f"{n} input amplitudes exceed the {source.n_bins} "
                f"input bins of source {source.id!r}")
        return source

    def _source(self, source_id: Optional[str]) -> Source:
        if source_id is None:
            if len(self._sources) != 1:
                raise ValueError("source_id required for multi-source circuits")
            return self._sources[0]
        return {s.id: s for s in self._sources}[source_id]

    def _walk(self, amplitudes: np.ndarray,
              source: Source) -> dict[str, np.ndarray]:
        """Push per-wire signals through the elements in topological order.

        ``amplitudes`` fills the first bins of ``source``'s wire; every
        other source and vacuum wire enters as zeros, and every wire
        carries a length-``n_bins`` signal.  A splitter mixes two signals,
        a delay shifts one along the bins and multiplies by its phase, a
        phase shifter multiplies, and an inserted obstacle splits a signal
        by a bin mask between its loss terminal and its output.  Returns
        the terminal signals in ``terminal_order``.
        """
        n_bins = self.n_bins
        signal: dict[str, np.ndarray] = {}
        terminals: dict[str, np.ndarray] = {}

        def take(wire):
            # Each wire is consumed once, so its signal can be released.
            if _is_vacuum(wire):
                return np.zeros(n_bins, dtype=complex)
            return signal.pop(wire)

        for e in self._order:
            if isinstance(e, Source):
                t = np.zeros(n_bins, dtype=complex)
                if e is source:
                    t[:len(amplitudes)] = amplitudes
                signal[e.out] = t
            elif isinstance(e, BeamSplitter):
                t0, t1 = (take(w) for w in e.inputs)
                m = e.resolved_matrix()
                signal[e.outputs[0]] = m[0, 0] * t0 + m[0, 1] * t1
                signal[e.outputs[1]] = m[1, 0] * t0 + m[1, 1] * t1
            elif isinstance(e, Delay):
                t = take(e.input)
                out = np.zeros_like(t)
                if e.bins:
                    out[e.bins:] = t[:-e.bins]
                else:
                    out[:] = t
                if e.phase:
                    out = out * np.exp(1j * e.phase)
                signal[e.output] = out
            elif isinstance(e, PhaseShift):
                signal[e.output] = take(e.input) * np.exp(1j * e.angle)
            elif isinstance(e, Obstacle):
                t = take(e.input)
                if not e.inserted:
                    signal[e.output] = t
                elif e.bins is None:
                    terminals[e.id] = t
                    signal[e.output] = np.zeros_like(t)
                else:
                    gate = np.zeros(n_bins)
                    gate[list(e.bins)] = 1.0
                    terminals[e.id] = t * gate
                    signal[e.output] = t * (1.0 - gate)
            elif isinstance(e, (Detector, Absorber)):
                terminals[e.id] = take(e.wire)
        return {t: terminals[t] for t in self.terminal_order}

    # populated by compile_circuit
    _sources: tuple[Source, ...] = field(default=(), repr=False)
    _order: tuple[Element, ...] = field(default=(), repr=False)


def unitarity_residual(m: np.ndarray) -> float:
    """``|m^H m - 1|``; NaN, silently, where it overflows (no ``<= tol``)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(m.conj().T @ m - np.eye(len(m))))


def _merge(ranges: Iterable[range]) -> Bins:
    """The union of ``ranges`` as sorted, disjoint, non-adjacent ranges."""
    merged: list[range] = []
    for r in sorted(ranges, key=lambda r: r.start):
        if merged and r.start <= merged[-1].stop:
            merged[-1] = range(merged[-1].start, max(merged[-1].stop, r.stop))
        elif r:
            merged.append(r)
    return tuple(merged)


def _cut(bins: Bins, gate: frozenset[int]) -> tuple[Bins, Bins]:
    """``bins`` split into the parts outside and inside the ``gate`` bins.

    Every range end and gate edge cuts the line; each piece between two
    cuts lies wholly inside or outside ``bins``, and inside ``gate`` when
    it starts on a gate bin.
    """
    cuts = sorted({x for r in bins for x in (r.start, r.stop)}
                  | gate | {g + 1 for g in gate})
    pieces = [range(a, b) for a, b in zip(cuts, cuts[1:])
              if any(a in r for r in bins)]
    return (_merge(p for p in pieces if p.start not in gate),
            _merge(p for p in pieces if p.start in gate))


def _is_vacuum(wire: str) -> bool:
    return wire.startswith(_VACUUM_PREFIX)


def _element_io(e: Element) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if isinstance(e, Source):
        return (), (e.out,)
    if isinstance(e, BeamSplitter):
        return tuple(e.inputs), tuple(e.outputs)
    if isinstance(e, (Delay, PhaseShift, Obstacle)):
        return (e.input,), (e.output,)
    if isinstance(e, Detector):
        return (e.wire,), ()
    if isinstance(e, Absorber):
        return (e.wire,), ()
    raise TypeError(f"unknown element type {type(e)!r}")


def validate(spec: CircuitSpec) -> list[Element]:
    """Check the wiring invariants and return elements in topological order."""
    produced: dict[str, str] = {}
    consumed: dict[str, str] = {}
    for e in spec.elements:
        ins, outs = _element_io(e)
        for w in outs:
            if _is_vacuum(w):
                raise DanglingPortError(
                    f"element {e.id!r} writes reserved vacuum wire {w!r}")
            if w in produced:
                raise DanglingPortError(
                    f"wire {w!r} produced by both {produced[w]!r} and {e.id!r}")
            produced[w] = e.id
        for w in ins:
            if w in consumed:
                raise DanglingPortError(
                    f"wire {w!r} consumed by both {consumed[w]!r} and {e.id!r}")
            consumed[w] = e.id

    for w, owner in consumed.items():
        if w not in produced and not _is_vacuum(w):
            raise DanglingPortError(
                f"wire {w!r} (input of {owner!r}) is never produced")
    for w, owner in produced.items():
        if w not in consumed:
            raise DanglingPortError(
                f"wire {w!r} (output of {owner!r}) never reaches a terminal")

    for e in spec.elements:
        if isinstance(e, BeamSplitter):
            m = e.resolved_matrix()
            if m.shape != (2, 2):
                raise NonUnitaryBeamSplitterError(f"{e.id!r}: matrix must be 2x2")
            r = unitarity_residual(m)
            if not r <= UNITARITY_TOL:
                raise NonUnitaryBeamSplitterError(
                    f"{e.id!r}: unitarity residual {r:.3e} exceeds {UNITARITY_TOL}")
        if isinstance(e, Delay) and (e.bins < 0 or e.bins != int(e.bins)):
            raise BinOverflowError(f"{e.id!r}: delay must be a non-negative integer")
        if isinstance(e, Source) and e.n_bins < 1:
            raise DanglingPortError(f"source {e.id!r}: n_bins must be positive")

    # Kahn's toposort, declaration order as the tiebreak so that compilation
    # is a pure function of the spec.
    ready = {w for w in consumed if _is_vacuum(w)}
    order: list[Element] = []
    pending = list(spec.elements)
    while pending:
        progressed = False
        remaining = []
        for e in pending:
            ins, outs = _element_io(e)
            if all(w in ready for w in ins):
                order.append(e)
                ready.update(outs)
                progressed = True
            else:
                remaining.append(e)
        if not progressed:
            names = ", ".join(e.id for e in remaining)
            raise CyclicGraphError(f"elements {names} form a spatial cycle")
        pending = remaining
    return order


def compile_circuit(spec: CircuitSpec) -> CompiledCircuit:
    """Validate a spec and lay it out; the one place a circuit is laid out.

    One pass over the topological order gives every wire its spatial slot
    (sources and vacuum inputs claim slots in order of first appearance,
    elements pass them through), its last populated bin (-1 while it
    carries only vacuum, also after a delay), its lit bins and the delays
    of its paths.  A source lights its own bins, a delay shifts its
    input's, a splitter gives both outputs the union of its inputs', and
    an inserted obstacle takes its gated bins off its output and lights
    them on its loss terminal.  The last populated bin ignores obstacles,
    so that ``n_bins`` and the overflow checks are the same whichever
    obstacles are inserted.  Lit bins are kept as ranges, so the pass does
    no per-bin work.  ``n_bins`` is the spec's, or one past the last
    populated bin.  Raises
    ``BinOverflowError`` naming the offending source or delay if a
    populated bin would land past an explicit ``n_bins``, or the obstacle
    whose gate lists a bin outside ``[0, n_bins)``, and
    ``StateTooLargeError`` naming the bytes if the walk's signals,
    (slots + terminals) x ``n_bins`` complex values, would exceed
    ``MAX_MAP_BYTES``.  Builds no matrix and propagates nothing.
    Deterministic: the same spec yields bit-identical propagation.
    """
    order = validate(spec)
    sources = [e for e in order if isinstance(e, Source)]
    if not sources:
        raise DanglingPortError("circuit has no source")

    # Per wire: spatial slot, last populated bin (-1 for vacuum only), lit
    # bins and path delays.
    n_bins = spec.n_bins
    n_slots = 0
    slot: dict[str, int] = {}
    last: dict[str, int] = {}
    lit: dict[str, Bins] = {}
    terminal_lit: dict[str, Bins] = {}
    delays: dict[str, frozenset[int]] = {}
    detectors: list[str] = []
    losses: list[str] = []
    path_delays: set[int] = set()
    for e in order:
        ins, outs = _element_io(e)
        for w in ins:
            if _is_vacuum(w):
                slot[w], last[w], delays[w] = n_slots, -1, frozenset()
                lit[w] = ()
                n_slots += 1
        if isinstance(e, Source):
            if n_bins is not None and e.n_bins > n_bins:
                raise BinOverflowError(
                    f"source {e.id!r}: {e.n_bins} pulse bins exceed n_bins={n_bins}")
            slot[e.out], last[e.out] = n_slots, e.n_bins - 1
            lit[e.out] = (range(e.n_bins),)
            delays[e.out] = frozenset({0})
            n_slots += 1
            continue
        shift = e.bins if isinstance(e, Delay) else 0
        lb = max(last[w] for w in ins)
        # Inputs already fit, so only a delay can push a bin past n_bins.
        if n_bins is not None and lb >= 0 and lb + shift >= n_bins:
            raise BinOverflowError(
                f"delay {e.id!r}: bin {lb}+{shift} exceeds n_bins={n_bins}")
        ds = frozenset(d + shift for w in ins for d in delays[w])
        bins = _merge(range(r.start + shift, r.stop + shift)
                      for w in ins for r in lit[w])
        if isinstance(e, Obstacle) and e.inserted:
            bins, terminal_lit[e.id] = ((), bins) if e.bins is None else \
                _cut(bins, e.bins)
        for w_in, w_out in zip(ins, outs):
            slot[w_out] = slot[w_in]
            last[w_out] = lb + shift if lb >= 0 else -1
            lit[w_out] = bins
            delays[w_out] = ds
        if isinstance(e, Detector):
            detectors.append(e.id)
        elif isinstance(e, Absorber) or (isinstance(e, Obstacle) and e.inserted):
            losses.append(e.id)
        if isinstance(e, (Detector, Absorber)):
            terminal_lit[e.id] = bins
            path_delays |= ds
    if n_bins is None:
        n_bins = max(last.values()) + 1
    for e in order:
        if isinstance(e, Obstacle) and e.bins is not None:
            outside = [b for b in e.bins if not 0 <= b < n_bins]
            if outside:
                raise BinOverflowError(
                    f"obstacle {e.id!r}: gate bin {min(outside)} is outside "
                    f"0..{n_bins - 1}")

    terminal_order = tuple(detectors + losses)
    size = (n_slots + len(terminal_order)) * n_bins * np.dtype(complex).itemsize
    if size > MAX_MAP_BYTES:
        raise StateTooLargeError(
            f"walking {n_slots} slots and {len(terminal_order)} terminals over "
            f"{n_bins} bins needs {size} bytes, over the bound of "
            f"{MAX_MAP_BYTES} bytes")
    return CompiledCircuit(
        n_bins=n_bins,
        terminal_order=terminal_order,
        loss_terminals=frozenset(losses),
        max_path_delay=max(path_delays, default=0),
        path_delays=frozenset(path_delays),
        wire_slot=slot,
        n_slots=n_slots,
        wire_lit=lit,
        terminal_lit={t: terminal_lit[t] for t in terminal_order},
        _sources=tuple(sources),
        _order=tuple(order),
    )
