"""Brute-force truncated Fock-space oracle.

Ground truth for the fast engines.  The oracle takes the circuit's
``compile_circuit`` layout, so its ``n_bins`` and spatial slots are those
of the other engines, and every (slot, bin) pair of the time-unrolled
circuit becomes a bosonic mode.  The state is expanded over all
occupation vectors with total photon number up to a cutoff, and each
element is applied exactly (two-mode unitaries bin by bin, delays as mode
permutations, obstacles as photon-number measurements with branch
bookkeeping).  Passive elements conserve total photon number, so the
cutoff commutes with the evolution and the truncation deficit equals the
input state's deficit.

Deliberately desk-scale: no permanents, no large-mode sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .circuit import (
    Absorber,
    BeamSplitter,
    CircuitSpec,
    Delay,
    Detector,
    Obstacle,
    PhaseShift,
    compile_circuit,
)
from .errors import (
    BinOverflowError,
    CutoffTooSmallError,
    NonUnitaryError,
    StateTooLargeError,
)

MAX_MODES = 16
MAX_DIM = 500_000
DEFICIT_LIMIT = 1e-4


def _compositions(total: int, parts: int):
    """Occupation vectors of `parts` modes summing to `total`, lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Graded-lexicographic basis of occupation vectors with total <= cutoff.

    Vectors are ordered by total photon number, then lexicographically,
    so state files and indices are portable across runs.
    """

    n_modes: int
    cutoff: int
    occupations: np.ndarray          # (dim, n_modes) uint8
    _sorted_keys: np.ndarray
    _sorted_perm: np.ndarray

    @classmethod
    def build(cls, n_modes: int, cutoff: int) -> "FockBasis":
        if n_modes < 1 or cutoff < 0:
            raise ValueError("need n_modes >= 1 and cutoff >= 0")
        if n_modes > MAX_MODES:
            raise StateTooLargeError(
                f"{n_modes} modes exceed the desk-scale bound {MAX_MODES}")
        dim = math.comb(n_modes + cutoff, cutoff)
        if dim > MAX_DIM:
            raise StateTooLargeError(
                f"basis dimension {dim} exceeds the desk-scale bound {MAX_DIM}")
        occ = np.empty((dim, n_modes), dtype=np.uint8)
        i = 0
        for total in range(cutoff + 1):
            for v in _compositions(total, n_modes):
                occ[i] = v
                i += 1
        keys = cls._ravel(occ, cutoff)
        perm = np.argsort(keys, kind="stable")
        return cls(n_modes=n_modes, cutoff=cutoff, occupations=occ,
                   _sorted_keys=keys[perm], _sorted_perm=perm)

    @staticmethod
    def _ravel(occ: np.ndarray, cutoff: int) -> np.ndarray:
        radix = cutoff + 1
        keys = np.zeros(occ.shape[0], dtype=np.int64)
        for m in range(occ.shape[1]):
            keys = keys * radix + occ[:, m]
        return keys

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def index_of(self, occ: np.ndarray) -> np.ndarray:
        """Indices of occupation rows; round-trips with ``occupations``."""
        occ = np.atleast_2d(occ)
        keys = self._ravel(occ.astype(np.int64), self.cutoff)
        pos = np.searchsorted(self._sorted_keys, keys)
        if np.any(pos >= len(self._sorted_keys)) or \
                np.any(self._sorted_keys[np.minimum(pos, len(self._sorted_keys) - 1)] != keys):
            raise KeyError("occupation vector outside the truncated basis")
        return self._sorted_perm[pos]


@dataclass(eq=False)
class FockStateVector:
    """Complex amplitudes over a FockBasis, with the truncation deficit
    (probability weight beyond the cutoff) reported explicitly."""

    basis: FockBasis
    amplitudes: np.ndarray
    deficit: float = 0.0

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def mean_occupation(self, mode: int) -> float:
        w = np.abs(self.amplitudes) ** 2
        return float(np.dot(w, self.basis.occupations[:, mode].astype(float)))


def vacuum_state(basis: FockBasis) -> FockStateVector:
    amps = np.zeros(basis.dim, dtype=complex)
    amps[0] = 1.0
    return FockStateVector(basis, amps)


def prepare_coherent_train(basis: FockBasis, alpha: complex,
                           pulse_modes: Sequence[int]) -> FockStateVector:
    """Truncated product of coherent states |alpha> on ``pulse_modes``.

    Normalised after truncation; the removed tail (the Poisson weight of
    configurations above the cutoff) is recorded as ``deficit`` and must
    stay below ``DEFICIT_LIMIT``.
    """
    alpha = complex(alpha)
    occ = basis.occupations.astype(np.int64)
    amps = np.ones(basis.dim, dtype=complex)
    pulse = set(int(m) for m in pulse_modes)
    fact = np.array([math.factorial(k) for k in range(basis.cutoff + 1)], dtype=float)
    for m in range(basis.n_modes):
        n_m = occ[:, m]
        if m in pulse and alpha != 0:
            amps = amps * alpha ** n_m / np.sqrt(fact[n_m])
        else:
            amps = amps * (n_m == 0)
    amps = amps * math.exp(-len(pulse) * abs(alpha) ** 2 / 2.0)
    norm2 = float(np.sum(np.abs(amps) ** 2))
    deficit = 1.0 - norm2
    if deficit > DEFICIT_LIMIT:
        raise CutoffTooSmallError(
            f"truncation deficit {deficit:.3e} exceeds {DEFICIT_LIMIT}; "
            f"raise the cutoff above {basis.cutoff}")
    return FockStateVector(basis, amps / math.sqrt(norm2), deficit)


def prepare_single_photons(basis: FockBasis, modes: Sequence[int]) -> FockStateVector:
    """Product state with exactly one photon in each listed mode."""
    occ = np.zeros(basis.n_modes, dtype=np.uint8)
    for m in modes:
        occ[m] += 1
    if int(occ.sum()) > basis.cutoff:
        raise CutoffTooSmallError("photon count exceeds the basis cutoff")
    amps = np.zeros(basis.dim, dtype=complex)
    amps[int(basis.index_of(occ)[0])] = 1.0
    return FockStateVector(basis, amps)


def collective_power_state(basis: FockBasis, modes: Sequence[int],
                           power: int) -> FockStateVector:
    """j-th power of the bin-symmetric collective creation operator on vacuum.

    The operator places one photon evenly over ``modes`` (normalised so a
    single application of it on vacuum is a unit vector); its j-th power
    on vacuum has squared norm j!.  Returned unnormalised.
    """
    n = len(modes)
    amps = np.zeros(basis.dim, dtype=complex)
    if power > basis.cutoff:
        raise CutoffTooSmallError("power exceeds the basis cutoff")
    for v in _compositions(power, n):
        occ = np.zeros(basis.n_modes, dtype=np.uint8)
        for m, k in zip(modes, v):
            occ[m] = k
        w = math.factorial(power) / math.sqrt(
            math.prod(math.factorial(k) for k in v))
        amps[int(basis.index_of(occ)[0])] = w * n ** (-power / 2.0)
    return FockStateVector(basis, amps)


def state_overlap(a: FockStateVector, b: FockStateVector) -> complex:
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: FockStateVector, b: FockStateVector) -> float:
    """|<a|b>|^2 with both sides normalised."""
    ov = state_overlap(a, b)
    return abs(ov) ** 2 / (a.norm_squared() * b.norm_squared())


@lru_cache(maxsize=1024)
def _two_mode_block(u_key: tuple, t: int) -> np.ndarray:
    """Induced action on the total-photon-t sector of a mode pair.

    ``block[m_out, m_in]`` maps |m_in, t-m_in> to |m_out, t-m_out> under
    the mode transformation u (columns are images of the input modes).
    """
    u = np.array(u_key, dtype=complex).reshape(2, 2)
    block = np.zeros((t + 1, t + 1), dtype=complex)
    for m in range(t + 1):
        n = t - m
        for mp in range(t + 1):
            acc = 0.0 + 0.0j
            for k in range(max(0, mp - n), min(m, mp) + 1):
                l = mp - k
                acc += (math.comb(m, k) * math.comb(n, l)
                        * u[0, 0] ** k * u[1, 0] ** (m - k)
                        * u[0, 1] ** l * u[1, 1] ** (n - l))
            block[mp, m] = acc * math.sqrt(
                math.factorial(mp) * math.factorial(t - mp)
                / (math.factorial(m) * math.factorial(n)))
    return block


def apply_two_mode_unitary(state: FockStateVector, mode_pair: tuple[int, int],
                           matrix: np.ndarray) -> FockStateVector:
    """Exact Fock-space action of a 2x2 mode unitary on ``mode_pair``.

    Total photon number is conserved sector by sector, so the truncated
    space is closed under the map and the norm is preserved.
    """
    u = np.asarray(matrix, dtype=complex)
    if u.shape != (2, 2):
        raise NonUnitaryError("two-mode matrix must be 2x2")
    if np.linalg.norm(u.conj().T @ u - np.eye(2)) > 1e-10:
        raise NonUnitaryError("two-mode matrix is not unitary to 1e-10")
    a, b = mode_pair
    basis = state.basis
    occ = basis.occupations
    na = occ[:, a].astype(np.int64)
    t = na + occ[:, b].astype(np.int64)
    u_key = tuple(u.reshape(-1))
    new = np.zeros_like(state.amplitudes)
    for tt in range(int(t.max()) + 1):
        sel = np.nonzero(t == tt)[0]
        if len(sel) == 0:
            continue
        block = _two_mode_block(u_key, tt)
        occ_sel = occ[sel].copy()
        for mp in range(tt + 1):
            occ_sel[:, a] = mp
            occ_sel[:, b] = tt - mp
            j = basis.index_of(occ_sel)
            np.add.at(new, j, block[mp, na[sel]] * state.amplitudes[sel])
    return FockStateVector(basis, new, state.deficit)


def apply_mode_phase(state: FockStateVector, mode: int, angle: float
                     ) -> FockStateVector:
    """Per-photon phase exp(i*angle*n) on one mode."""
    n = state.basis.occupations[:, mode].astype(float)
    return FockStateVector(state.basis,
                           state.amplitudes * np.exp(1j * angle * n),
                           state.deficit)


def apply_mode_permutation(state: FockStateVector, perm: Sequence[int]
                           ) -> FockStateVector:
    """Relabel modes: a photon in mode m moves to mode perm[m]."""
    perm = np.asarray(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    basis = state.basis
    target = basis.occupations[:, inv]
    new = np.zeros_like(state.amplitudes)
    new[basis.index_of(target)] = state.amplitudes
    return FockStateVector(basis, new, state.deficit)


def apply_absorber(state: FockStateVector, mode: int
                   ) -> list[tuple[int, float, FockStateVector]]:
    """Photon-number measurement on one mode, one branch per count.

    Returns ``(absorbed_count, weight, normalised post-state)`` triples;
    the weights sum to the state's norm and the count-0 branch is the
    interaction-free one.  The measured mode is left empty.
    """
    basis = state.basis
    counts = basis.occupations[:, mode].astype(int)
    out = []
    for n in range(int(counts.max()) + 1):
        sel = counts == n
        w = float(np.sum(np.abs(state.amplitudes[sel]) ** 2))
        if w <= 0.0:
            continue
        amps = np.zeros_like(state.amplitudes)
        target = basis.occupations[sel].copy()
        target[:, mode] = 0
        amps[basis.index_of(target)] = state.amplitudes[sel]
        out.append((n, w, FockStateVector(basis, amps / math.sqrt(w),
                                          state.deficit)))
    return out


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Exact joint outcome table over detector photon counts and absorbed
    counts.  ``cells`` orders the outcome vector: detector (terminal, bin)
    cells in declaration order, then obstacle/absorber cells."""

    cells: tuple[tuple[str, int], ...]
    table: dict[tuple[int, ...], float]
    deficit: float

    def total(self) -> float:
        return float(sum(self.table.values()))

    def cell_index(self, terminal: str, bin_idx: int) -> int:
        return self.cells.index((terminal, bin_idx))

    def marginal_pmf(self, terminal: str, bin_idx: int, n_max: int) -> np.ndarray:
        i = self.cell_index(terminal, bin_idx)
        pmf = np.zeros(n_max + 1)
        for outcome, p in self.table.items():
            if outcome[i] <= n_max:
                pmf[outcome[i]] += p
        return pmf

    def mean(self, terminal: str, bin_idx: int) -> float:
        i = self.cell_index(terminal, bin_idx)
        return float(sum(outcome[i] * p for outcome, p in self.table.items()))

    def p_click(self, terminal: str, bin_idx: int) -> float:
        i = self.cell_index(terminal, bin_idx)
        return float(sum(p for outcome, p in self.table.items() if outcome[i] >= 1))

    def p_coincidence(self, cell_a: tuple[str, int], cell_b: tuple[str, int]) -> float:
        ia = self.cell_index(*cell_a)
        ib = self.cell_index(*cell_b)
        return float(sum(p for outcome, p in self.table.items()
                         if outcome[ia] >= 1 and outcome[ib] >= 1))

    def terminal_probability(self, terminal: str) -> float:
        """P(at least one photon somewhere on the terminal)."""
        idx = [i for i, (t, _) in enumerate(self.cells) if t == terminal]
        return float(sum(p for outcome, p in self.table.items()
                         if any(outcome[i] >= 1 for i in idx)))

    def p_terminal_coincidence(self, term_a: str, term_b: str) -> float:
        """P(both terminals see at least one photon, in any bins)."""
        ia = [i for i, (t, _) in enumerate(self.cells) if t == term_a]
        ib = [i for i, (t, _) in enumerate(self.cells) if t == term_b]
        return float(sum(p for outcome, p in self.table.items()
                         if any(outcome[i] >= 1 for i in ia)
                         and any(outcome[i] >= 1 for i in ib)))


class FockOracle:
    """Walks a CircuitSpec exactly in a truncated Fock space.

    Mode layout: the spec's ``compile_circuit`` layout, so ``n_bins`` and
    the spatial slots are those of the other engines.  Mode
    ``slot * n_bins + bin`` carries the amplitude of the wires in that
    slot at the given time bin.
    """

    def __init__(self, spec: CircuitSpec, cutoff: int):
        self.spec = spec
        self.cutoff = cutoff
        self.compiled = compile_circuit(spec)
        self.n_bins = self.compiled.n_bins
        self.n_modes = self.compiled.n_slots * self.n_bins
        self.basis = FockBasis.build(self.n_modes, cutoff)

    def mode(self, slot: int, bin_idx: int) -> int:
        return slot * self.n_bins + bin_idx

    def source_modes(self, source_id: Optional[str] = None) -> list[int]:
        """Mode indices of a source's populated input bins."""
        s = self.compiled._source(source_id)
        base = self.compiled.wire_slot[s.out]
        return [self.mode(base, b) for b in range(s.n_bins)]

    # -- input preparation -------------------------------------------------

    def coherent_train_state(self, alpha: complex, n_pulses: int,
                             phases: Optional[Sequence[float]] = None,
                             source_id: Optional[str] = None) -> FockStateVector:
        modes = self.source_modes(source_id)[:n_pulses]
        state = prepare_coherent_train(self.basis, alpha, modes)
        if phases is not None:
            for m, ph in zip(modes, phases):
                if ph:
                    state = apply_mode_phase(state, m, float(ph))
        return state

    def tensor_sum_state(self, n_pulses: int,
                         source_id: Optional[str] = None) -> FockStateVector:
        modes = self.source_modes(source_id)[:n_pulses]
        amps = np.zeros(self.basis.dim, dtype=complex)
        for m in modes:
            occ = np.zeros(self.n_modes, dtype=np.uint8)
            occ[m] = 1
            amps[int(self.basis.index_of(occ)[0])] = 1.0 / math.sqrt(n_pulses)
        return FockStateVector(self.basis, amps)

    def single_photon_state(self, photons: Iterable[tuple[str, int]]
                            ) -> FockStateVector:
        modes = []
        for source_id, b in photons:
            s = self.compiled._source(source_id)
            modes.append(self.mode(self.compiled.wire_slot[s.out], b))
        return prepare_single_photons(self.basis, modes)

    # -- evolution ---------------------------------------------------------

    def run(self, state: FockStateVector) -> JointDistribution:
        """Evolve an input state through every element and read out the
        exact joint distribution over detector and absorbed counts."""
        if state.basis is not self.basis:
            raise ValueError("state was prepared on a different basis")
        slot = self.compiled.wire_slot
        # branches: (absorbed record dict cell -> count, unnormalised amplitudes)
        branches: list[tuple[dict, np.ndarray]] = [({}, state.amplitudes.copy())]
        detector_cells: list[tuple[str, int]] = []
        loss_cells: list[tuple[str, int]] = []
        readout_slots: dict[str, int] = {}

        for e in self.compiled._order:
            if isinstance(e, BeamSplitter):
                i, j = slot[e.inputs[0]], slot[e.inputs[1]]
                u = e.resolved_matrix()
                for b in range(self.n_bins):
                    pair = (self.mode(i, b), self.mode(j, b))
                    branches = [(rec, apply_two_mode_unitary(
                        FockStateVector(self.basis, amps), pair, u).amplitudes)
                        for rec, amps in branches]
            elif isinstance(e, PhaseShift):
                s = slot[e.input]
                branches = [(rec, self._slot_phase(amps, s, e.angle))
                            for rec, amps in branches]
            elif isinstance(e, Delay):
                s = slot[e.input]
                branches = [(rec, self._slot_delay(amps, s, e))
                            for rec, amps in branches]
            elif isinstance(e, Obstacle):
                if not e.inserted:
                    continue
                s = slot[e.input]
                gate = sorted(e.bins) if e.bins is not None else range(self.n_bins)
                new_branches = []
                for rec, amps in branches:
                    subs = [(dict(rec), amps)]
                    for b in gate:
                        m = self.mode(s, b)
                        nxt = []
                        for r, a in subs:
                            for count, w, post in apply_absorber(
                                    FockStateVector(self.basis, a), m):
                                r2 = dict(r)
                                r2[(e.id, b)] = count
                                nxt.append((r2, post.amplitudes * math.sqrt(w)))
                        subs = nxt
                    new_branches.extend(subs)
                branches = new_branches
                for b in gate:
                    if (e.id, b) not in loss_cells:
                        loss_cells.append((e.id, b))
            elif isinstance(e, Detector):
                readout_slots[e.id] = slot[e.wire]
                detector_cells.extend((e.id, b) for b in range(self.n_bins))
            elif isinstance(e, Absorber):
                readout_slots[e.id] = slot[e.wire]
                loss_cells.extend((e.id, b) for b in range(self.n_bins))

        cells = tuple(detector_cells + loss_cells)
        table: dict[tuple[int, ...], float] = {}
        occ = self.basis.occupations
        readout_order = [t for t in readout_slots]
        readout_cols = {t: [self.mode(readout_slots[t], b) for b in range(self.n_bins)]
                        for t in readout_order}
        for rec, amps in branches:
            nz = np.nonzero(np.abs(amps) ** 2 > 0.0)[0]
            for i in nz:
                p = float(np.abs(amps[i]) ** 2)
                counts = {}
                for t in readout_order:
                    for b, col in enumerate(readout_cols[t]):
                        counts[(t, b)] = int(occ[i, col])
                counts.update(rec)
                outcome = tuple(counts.get(c, 0) for c in cells)
                table[outcome] = table.get(outcome, 0.0) + p
        return JointDistribution(cells=cells, table=table, deficit=state.deficit)

    def _slot_phase(self, amps: np.ndarray, s: int, angle: float) -> np.ndarray:
        total = self.basis.occupations[:, self.mode(s, 0):self.mode(s, self.n_bins - 1) + 1]
        n = total.sum(axis=1).astype(float)
        return amps * np.exp(1j * angle * n)

    def _slot_delay(self, amps: np.ndarray, s: int, e: Delay) -> np.ndarray:
        if e.bins == 0:
            return amps if not e.phase else self._slot_phase(amps, s, e.phase)
        wrapped = [self.mode(s, b)
                   for b in range(max(self.n_bins - e.bins, 0), self.n_bins)]
        occ_w = self.basis.occupations[:, wrapped].sum(axis=1)
        if np.any((occ_w > 0) & (np.abs(amps) > 1e-12)):
            raise BinOverflowError(
                f"delay {e.id!r}: occupied bins would be shifted past "
                f"n_bins={self.n_bins}")
        if e.phase:
            amps = self._slot_phase(amps, s, e.phase)
        perm = np.arange(self.n_modes)
        for b in range(self.n_bins):
            perm[self.mode(s, b)] = self.mode(s, (b + e.bins) % self.n_bins)
        return apply_mode_permutation(
            FockStateVector(self.basis, amps), perm).amplitudes


def simulate_fock(spec: CircuitSpec, input_state: FockStateVector,
                  oracle: Optional[FockOracle] = None) -> JointDistribution:
    """Exact joint outcome distribution of ``input_state`` through ``spec``.

    Convenience wrapper over :class:`FockOracle`; pass the oracle back in
    to reuse its basis across runs.
    """
    if oracle is None:
        oracle = FockOracle(spec, input_state.basis.cutoff)
    return oracle.run(input_state)


def sample_joint(dist: JointDistribution, shots: int, seed: int) -> list[tuple[int, ...]]:
    """Draw ``shots`` outcome vectors from the joint table (Philox-keyed)."""
    outcomes = sorted(dist.table)
    probs = np.array([dist.table[o] for o in outcomes])
    probs = probs / probs.sum()
    cdf = np.cumsum(probs)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    draws = np.searchsorted(cdf, rng.random(shots), side="right")
    draws[draws == len(outcomes)] = len(outcomes) - 1
    return [outcomes[i] for i in draws]
