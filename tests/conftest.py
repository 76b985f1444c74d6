import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import pytest

from proxyifm import replace
from proxyifm.circuit import (
    Absorber,
    BeamSplitter,
    CircuitSpec,
    Delay,
    Detector,
    Obstacle,
    PhaseShift,
    Source,
    compile_circuit,
)
from proxyifm.errors import CutoffTooSmallError, DimensionMismatchError
from proxyifm.fock import FockBasis, FockStateVector
from proxyifm.multiport import Decomposition, TwoModeOp
from proxyifm.tables import Categorical, OutcomeVectors

ALPHA_SQ = 0.1
ALPHA = math.sqrt(ALPHA_SQ)


def fig2_spec(n_pulses=10, inserted=False, mismatch=0.0):
    """Two-pulse delay interferometer (same topology as the fig2_* scenarios)."""
    return CircuitSpec(elements=(
        Source("src", "a", n_pulses),
        BeamSplitter("bs1", ("a", "vac1"), ("s", "l0")),
        Obstacle("obstacle_l", "l0", "l1", inserted=inserted),
        Delay("delay_l", "l1", "l2", bins=1, phase=mismatch),
        PhaseShift("arm_l_matched", "l2", "l3", angle=math.pi),
        BeamSplitter("bs2", ("s", "l3"), ("c", "d")),
        Detector("D1", "c"),
        Detector("D2", "d"),
    ))


def gated_fig2_spec(n_pulses, gate):
    """fig2 with the long-arm obstacle absorbing only the ``gate`` bins."""
    spec = fig2_spec(n_pulses=n_pulses, inserted=True)
    elements = tuple(
        Obstacle(e.id, e.input, e.output, inserted=True, bins=frozenset(gate))
        if isinstance(e, Obstacle) else e
        for e in spec.elements)
    return CircuitSpec(elements=elements)


def fig3_spec(n_pulses=4, blocked=None):
    """Three-pulse cascade (same topology as the fig3_* scenarios).

    blocked: None, "l", or "m".
    """
    return CircuitSpec(elements=(
        Source("src", "a", n_pulses),
        BeamSplitter("bs1", ("a", "vac1"), ("s", "w")),
        BeamSplitter("bs2", ("w", "vac2"), ("arm_l0", "arm_m0")),
        Obstacle("obstacle_l", "arm_l0", "arm_l1", inserted=blocked == "l"),
        Obstacle("obstacle_m", "arm_m0", "arm_m1", inserted=blocked == "m"),
        Delay("delay_l", "arm_l1", "arm_l2", bins=2),
        Delay("delay_m", "arm_m1", "arm_m2", bins=1),
        BeamSplitter("bs3", ("arm_m2", "arm_l2"), ("e", "b")),
        PhaseShift("phase_s", "s", "s1", angle=math.pi / 2),
        BeamSplitter("bs4", ("s1", "e"), ("c", "d")),
        Detector("D1", "d"),
        Detector("D2", "c"),
        Detector("D3", "b"),
    ))


def hom_spec(disjoint=False):
    """Two single-photon sources meeting at one balanced splitter."""
    bins = 2 if disjoint else 1
    return CircuitSpec(elements=(
        Source("src_a", "a", bins),
        Source("src_b", "b", bins),
        BeamSplitter("bs", ("a", "b"), ("c", "d")),
        Detector("D1", "c"),
        Detector("D2", "d"),
    ), n_bins=bins)


def dense_map(compiled):
    """The (terminal, bin) x (source, bin) matrix of a compiled circuit.

    Column by column, the walk of a unit vector on one input bin.  Row
    blocks follow ``terminal_order`` and column blocks the sources in
    declaration order, each block bin by bin; see :func:`map_row` and
    :func:`map_column`.  Its columns are orthonormal.
    """
    return np.stack([
        np.concatenate(list(compiled.propagate(np.eye(s.n_bins)[b], s.id).values()))
        for s in compiled._sources for b in range(s.n_bins)], axis=1)


def map_row(compiled, terminal_id, bin_idx):
    """Row of :func:`dense_map` holding one (terminal, bin) cell."""
    return compiled.terminal_order.index(terminal_id) * compiled.n_bins + bin_idx


def map_column(compiled, source_id, bin_idx):
    """Column of :func:`dense_map` fed by one (source, bin) input."""
    ids = [s.id for s in compiled._sources]
    return sum(s.n_bins for s in compiled._sources[:ids.index(source_id)]) + bin_idx


def with_element(spec, element):
    """Copy of ``spec`` with the same-id element replaced."""
    new = tuple(element if e.id == element.id else e for e in spec.elements)
    if all(e is not element for e in new):
        raise KeyError(element.id)
    return replace(spec, elements=new)


def circuit_spatial_unitary(spec: CircuitSpec) -> np.ndarray:
    """Collapse the delay-ignored spatial part of a cascade into one matrix.

    Rows and columns are the spatial slots of ``compile_circuit``.  Beam
    splitters and phase shifters act on those slots; delays (including
    their propagation phase, which is temporal) and retracted or inserted
    obstacles are the identity.  The result is the product of element
    matrices in topological order, hence unitary.
    """
    compiled = compile_circuit(spec)
    n, slot = compiled.n_slots, compiled.wire_slot
    u = np.eye(n, dtype=complex)
    for e in compiled._order:
        if isinstance(e, BeamSplitter):
            i, j = slot[e.inputs[0]], slot[e.inputs[1]]
            m = e.resolved_matrix()
            step = np.eye(n, dtype=complex)
            step[i, i], step[i, j] = m[0, 0], m[0, 1]
            step[j, i], step[j, j] = m[1, 0], m[1, 1]
            u = step @ u
        elif isinstance(e, PhaseShift):
            i = slot[e.input]
            step = np.eye(n, dtype=complex)
            step[i, i] = np.exp(1j * e.angle)
            u = step @ u
    return u


# -- multiport: the three-way splitter and phase-insensitive comparison -----
#
# Detectors cannot see per-port phases, so circuit-vs-matrix equivalence
# is judged up to diagonal phase matrices on both sides.

def tritter() -> np.ndarray:
    """The three-way splitter used by the three-pulse scenarios.

    Rows: (1/sqrt2, i/2, -1/2), (i/sqrt2, 1/2, i/2), (0, i/sqrt2, 1/sqrt2).
    """
    s = 1.0 / np.sqrt(2.0)
    return np.array([
        [s, 0.5j, -0.5],
        [1j * s, 0.5, 0.5j],
        [0.0, 1j * s, s],
    ], dtype=complex)


def _embed(op: TwoModeOp, n: int) -> np.ndarray:
    m = np.eye(n, dtype=complex)
    i, j = op.mode_pair
    m[i, i], m[i, j] = op.matrix[0, 0], op.matrix[0, 1]
    m[j, i], m[j, j] = op.matrix[1, 0], op.matrix[1, 1]
    return m


def recompose(d: Decomposition) -> np.ndarray:
    """Product of the embedded stages, applied in cascade order, times
    the output phases: the unitary a :class:`Decomposition` came from."""
    u = np.eye(d.dim, dtype=complex)
    for op in d.steps:
        u = _embed(op, d.dim) @ u
    return np.diag(d.output_phases) @ u


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Phase-fixed Frobenius distance between a cascade and a target."""

    distance: float
    left_phases: np.ndarray
    right_phases: np.ndarray


def phase_fix_distance(u: np.ndarray, target: np.ndarray) -> EquivalenceReport:
    """min over diagonal phase matrices L, R of ||L u R - target||_F.

    Phases are propagated over a spanning tree of the entries where both
    matrices are non-negligible (matching the first usable entry of each
    row and column); rows or columns that stay unconstrained keep phase 1.
    Magnitude mismatches are left in place and simply show up as distance.
    """
    u = np.asarray(u, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if u.shape != target.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError(
            f"shape mismatch: {u.shape} vs {target.shape}")
    n = u.shape[0]
    eps = 1e-9 * max(np.abs(u).max(), np.abs(target).max(), 1.0)
    usable = (np.abs(u) > eps) & (np.abs(target) > eps)

    left = np.full(n, np.nan + 0j)
    right = np.full(n, np.nan + 0j)
    for start in range(n):
        if not np.isnan(left[start].real):
            continue
        cols = np.nonzero(usable[start])[0]
        if len(cols) == 0:
            left[start] = 1.0
            continue
        left[start] = 1.0
        frontier_rows = [start]
        while frontier_rows:
            next_rows = []
            for i in frontier_rows:
                for j in np.nonzero(usable[i])[0]:
                    if np.isnan(right[j].real):
                        ratio = target[i, j] / u[i, j]
                        right[j] = (ratio / abs(ratio)) / left[i]
            for j in range(n):
                if np.isnan(right[j].real):
                    continue
                for i in np.nonzero(usable[:, j])[0]:
                    if np.isnan(left[i].real):
                        ratio = target[i, j] / u[i, j]
                        left[i] = (ratio / abs(ratio)) / right[j]
                        next_rows.append(i)
            frontier_rows = next_rows
    right[np.isnan(right.real)] = 1.0
    left = left / np.abs(left)
    right = right / np.abs(right)

    fixed = np.diag(left) @ u @ np.diag(right)
    return EquivalenceReport(
        distance=float(np.linalg.norm(fixed - target)),
        left_phases=left,
        right_phases=right,
    )


def verify_cascade_equivalence(spec: CircuitSpec, target: np.ndarray,
                               output_order: Optional[Sequence[int]] = None,
                               input_order: Optional[Sequence[int]] = None,
                               ) -> EquivalenceReport:
    """Compare a cascade's spatial unitary with a target multiport matrix.

    ``output_order`` / ``input_order`` reorder the cascade's ports to the
    target's convention (a detector relabeling, not a physical change)
    before the diagonal-phase fit.
    """
    u = circuit_spatial_unitary(spec)
    if output_order is not None:
        u = u[np.asarray(output_order), :]
    if input_order is not None:
        u = u[:, np.asarray(input_order)]
    return phase_fix_distance(u, target)


def event_records(log):
    """The clicks of an EventLog as ``{"shot", "terminal", "bin"}`` dicts."""
    for s, t, b in zip(log.shot_idx.tolist(), log.terminal.tolist(),
                       log.bin_idx.tolist()):
        yield {"shot": s, "terminal": log.terminal_order[t], "bin": b}


def event_counts(log):
    """Clicks per (terminal, bin) cell of an EventLog."""
    cells, n = np.unique(np.stack([log.terminal, log.bin_idx]), axis=1,
                         return_counts=True)
    return {(log.terminal_order[t], b): k
            for (t, b), k in zip(cells.T.tolist(), n.tolist())}


# Shots per keyed Monte-Carlo chunk: part of every sampler's byte contract.
MC_CHUNK = 1 << 17


def column_bytes(columns):
    """The bytes one table chunk's columns own: array buffers (a
    categorical's codes, an outcome-vector column's counts), or a list and
    its Python values."""
    total = 0
    for column in columns:
        if isinstance(column, Categorical):
            column = column.codes
        elif isinstance(column, OutcomeVectors):
            column = column.counts
        if isinstance(column, np.ndarray):
            total += column.nbytes
        else:
            total += sys.getsizeof(column) + sum(map(sys.getsizeof, column))
    return total


def outcome_text(cells, counts) -> str:
    """One Fock outcome row as text, row by row: ``terminal=count,...``
    for each terminal, its counts in cell order, the groups joined by
    ``;``.  The reference for the outcome-vector spans of the writer."""
    groups = {}
    for (terminal, _), count in zip(cells, counts):
        groups.setdefault(terminal, []).append(str(count))
    return ";".join(f"{t}=" + ",".join(c) for t, c in groups.items())


def reference_gap(u, p):
    """Shots from one click of a cell to its next: ``floor(log1p(-u) /
    log1p(-p)) + 1`` for the uniform ``u``, capped past any chunk.

    A p = 0 cell never clicks again and a p = 1 cell clicks on the next
    shot, whatever ``u`` is.
    """
    if p == 0.0:
        return MC_CHUNK + 1
    if p == 1.0:
        return 1
    return math.floor(min(math.log1p(-u) / math.log1p(-p), MC_CHUNK)) + 1


def reference_clicks(dist, shots, seed):
    """Threshold clicks by geometric skipping, one gap at a time.

    The plain sampler ``coherent.sample_clicks`` must reproduce: chunk
    ``start`` draws from Philox keyed on ``(seed, start)``, one
    ``rng.random(cells)`` per round, and round r holds every cell's r-th
    gap (:func:`reference_gap`).  A cell clicks at the running sum of its
    gaps, counted from shot -1; rounds go on until every cell is past the
    chunk.  Returns the ``(shot_idx, terminal, bin_idx)`` arrays in (shot,
    cell) order.
    """
    cells = [(k, b, float(p)) for k, t in enumerate(dist.p_click)
             for b, p in enumerate(dist.p_click[t])]
    events = []
    for start in range(0, shots, MC_CHUNK):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(start,))))
        count = min(MC_CHUNK, shots - start)
        pos = [-1] * len(cells)
        while any(x < count for x in pos):
            u = rng.random(len(cells)).tolist()
            for c, (terminal, b, p) in enumerate(cells):
                if pos[c] < count:
                    pos[c] += reference_gap(u[c], p)
                    if pos[c] < count:
                        events.append((start + pos[c], c, terminal, b))
    events.sort()
    return tuple(np.array([e[k] for e in events], dtype=np.int64)
                 for k in (0, 2, 3))


def poisson_cdf(k: int, mu: float) -> float:
    return sum(math.exp(-mu) * mu**j / math.factorial(j) for j in range(k + 1))


def poisson_tail(k: int, mu: float) -> float:
    """P(Poisson(mu) > k)."""
    return 1.0 - poisson_cdf(k, mu)


def poisson_pmf(k: int, mu: float) -> float:
    return math.exp(-mu) * mu**k / math.factorial(k)


def truncated_poisson_pmf(n: int, mu_cell: float, mu_total: float, cutoff: int) -> float:
    """Marginal of one cell of independent Poissons conditioned on a total
    photon cap: pmf(n) * P(rest <= cutoff - n) / P(all <= cutoff)."""
    if n > cutoff:
        return 0.0
    rest = max(mu_total - mu_cell, 0.0)
    return (poisson_pmf(n, mu_cell) * poisson_cdf(cutoff - n, rest)
            / poisson_cdf(cutoff, mu_total))


def total_output_energy(field):
    """Summed mean photon number over every (terminal, bin) cell of a field."""
    return float(sum(np.sum(np.abs(a) ** 2) for a in field.amplitudes.values()))


def coherent_overlap(a: complex, b: complex) -> complex:
    """Inner product <a|b> of two coherent states.

    ``exp(-(|a|^2 + |b|^2)/2 + conj(a)*b)``; opposite-sign amplitudes give
    magnitude ``exp(-2|a|^2)``.
    """
    a = complex(a)
    b = complex(b)
    return np.exp(-(abs(a) ** 2 + abs(b) ** 2) / 2.0 + np.conj(a) * b)


def detection_probability_formula(phase_mismatch: float) -> float:
    """Bright-port fringe ``(1 + cos(phase)) / 2`` of the matched interferometer."""
    return 0.5 * (1.0 + math.cos(phase_mismatch))


def coherent_train_expansion(alpha: complex, n: int, j_max: int) -> np.ndarray:
    """Coefficients of a product coherent train over powers of the
    bin-symmetric collective excitation.

    With ``A'`` the operator placing one photon evenly over the n bins
    (normalised so ``A'|vac>`` has unit norm), the train ``|alpha>^{x n}``
    equals ``sum_j c_j A'^j |vac>`` with

        ``c_j = exp(-n|alpha|^2 / 2) * (sqrt(n) alpha)^j / j!``.

    Equivalently: the train is a coherent state of amplitude
    ``sqrt(n) alpha`` in the collective mode.  Note ``A'^j|vac>`` has
    norm ``sqrt(j!)``, which is where the ``1/j!`` (not ``1/sqrt(j!)``)
    comes from; dropping the vacuum prefactor or softening the factorial
    does not reproduce the train.
    """
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    alpha = complex(alpha)
    mu = n * abs(alpha) ** 2
    out = np.zeros(j_max + 1, dtype=complex)
    for j in range(j_max + 1):
        out[j] = math.exp(-mu / 2.0) * (math.sqrt(n) * alpha) ** j / math.factorial(j)
    return out


def haar_random_unitary(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-distributed unitary (QR of a complex Gaussian matrix,
    with the R-diagonal phases stripped)."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


# -- Fock-space oracles ----------------------------------------------------

def sector_occupations(n_modes, cutoff):
    """The graded-lexicographic occupation table of ``FockBasis``, built
    sector by sector: the vectors of each total over the last ``width``
    modes, grown one leading mode at a time, then joined.  The reference
    for the in-place builder."""
    sectors = [np.full((1, 1), t, dtype=np.uint8) for t in range(cutoff + 1)]
    for _width in range(2, n_modes + 1):
        sectors = [np.concatenate([
            np.hstack((np.full((len(sectors[t - h]), 1), h, dtype=np.uint8),
                       sectors[t - h]))
            for h in range(t + 1)]) for t in range(cutoff + 1)]
    return np.concatenate(sectors)


def vacuum_state(basis):
    amps = np.zeros(basis.dim, dtype=complex)
    amps[0] = 1.0
    return FockStateVector(basis, amps)


def collective_power_state(basis, modes, power):
    """j-th power of the bin-symmetric collective creation operator on vacuum.

    The operator places one photon evenly over ``modes`` (normalised so a
    single application of it on vacuum is a unit vector); its j-th power
    on vacuum has squared norm j!.  Returned unnormalised.
    """
    n = len(modes)
    amps = np.zeros(basis.dim, dtype=complex)
    if power > basis.cutoff:
        raise CutoffTooSmallError("power exceeds the basis cutoff")
    # Every split of `power` photons over `modes`: the top sector of their basis.
    splits = FockBasis.build(n, power).occupations[-math.comb(power + n - 1, power):]
    occ = np.zeros((len(splits), basis.n_modes), dtype=np.uint8)
    occ[:, list(modes)] = splits
    for i, v in zip(basis.index_of(occ), splits.tolist()):
        w = math.factorial(power) / math.sqrt(
            math.prod(math.factorial(k) for k in v))
        amps[i] = w * n ** (-power / 2.0)
    return FockStateVector(basis, amps)


def norm_squared(state) -> float:
    return float(np.sum(np.abs(state.amplitudes) ** 2))


def state_overlap(a, b) -> complex:
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a, b) -> float:
    """|<a|b>|^2 with both sides normalised."""
    ov = state_overlap(a, b)
    return abs(ov) ** 2 / (norm_squared(a) * norm_squared(b))


def mean_occupation(state, mode: int) -> float:
    w = np.abs(state.amplitudes) ** 2
    return float(np.dot(w, state.basis.occupations[:, mode].astype(float)))


def _counts(dist, cell):
    return dist.outcomes[:, dist.cell_index(*cell)]


def _any_photon(dist, terminal):
    idx = [i for i, (t, _) in enumerate(dist.cells) if t == terminal]
    return dist.outcomes[:, idx].any(axis=1)


def marginal_pmf(dist, terminal, bin_idx, n_max):
    return np.bincount(_counts(dist, (terminal, bin_idx)),
                       weights=dist.probabilities,
                       minlength=n_max + 1)[:n_max + 1]


def p_click(dist, terminal, bin_idx) -> float:
    return float(dist.probabilities[_counts(dist, (terminal, bin_idx)) >= 1].sum())


def p_coincidence(dist, cell_a, cell_b) -> float:
    both = (_counts(dist, cell_a) >= 1) & (_counts(dist, cell_b) >= 1)
    return float(dist.probabilities[both].sum())


def terminal_probability(dist, terminal) -> float:
    """P(at least one photon somewhere on the terminal)."""
    return float(dist.probabilities[_any_photon(dist, terminal)].sum())


def p_terminal_coincidence(dist, term_a, term_b) -> float:
    """P(both terminals see at least one photon, in any bins)."""
    both = _any_photon(dist, term_a) & _any_photon(dist, term_b)
    return float(dist.probabilities[both].sum())


def scenario_doc(spec: CircuitSpec, pulses: dict, trigger=None,
                 sweep_target=None) -> dict:
    """``spec`` as a scenario file's JSON document, fed by ``pulses``.

    Every source states its ``n_bins``; ``sweep_target`` names the element
    of a ``delay_phase`` sweep parameter, and ``trigger`` the analysis
    trigger.
    """
    elements, detectors = [], []
    for e in spec.elements:
        if isinstance(e, Source):
            entry = {"kind": "source", "out": e.out, "n_bins": e.n_bins}
        elif isinstance(e, BeamSplitter):
            entry = {"kind": "beamsplitter", "in": list(e.inputs),
                     "out": list(e.outputs)}
            if e.matrix is not None:
                entry["matrix"] = [[[z.real, z.imag] for z in row]
                                   for row in np.asarray(e.matrix).tolist()]
        elif isinstance(e, Delay):
            entry = {"kind": "delay", "in": e.input, "out": e.output,
                     "bins": e.bins, "phase": e.phase}
        elif isinstance(e, PhaseShift):
            entry = {"kind": "phase", "in": e.input, "out": e.output,
                     "angle": e.angle}
        elif isinstance(e, Obstacle):
            entry = {"kind": "obstacle", "in": e.input, "out": e.output,
                     "inserted": e.inserted}
            if e.bins is not None:
                entry["bins"] = sorted(e.bins)
        elif isinstance(e, Absorber):
            entry = {"kind": "absorber", "wire": e.wire}
        else:
            detectors.append({"id": e.id, "wire": e.wire, "label": e.label})
            continue
        elements.append({"id": e.id, **entry})
    doc = {"schema": "proxy-ifm/1", "id": "random", "pulses": pulses,
           "circuit": {"n_bins": spec.n_bins, "elements": elements},
           "detectors": detectors}
    if sweep_target is not None:
        doc["sweep"] = {"delay_phase": {"element": sweep_target, "field": "phase"}}
    if trigger is not None:
        doc["analysis"] = {"trigger": trigger}
    return doc


def non_finite_numbers(path) -> list:
    """The non-finite numbers in a CSV or JSONL output file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        found = []
        for line in text.splitlines():
            json.loads(line, parse_constant=found.append)
        return found
    found = []
    for line in text.splitlines():
        for field in line.split(","):
            try:
                x = float(field)
            except ValueError:
                continue
            if not math.isfinite(x):
                found.append(field)
    return found


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
