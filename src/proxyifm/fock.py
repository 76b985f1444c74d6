"""Brute-force truncated Fock-space oracle.

Ground truth for the fast engines, so it re-decides nothing of theirs:
its ``n_bins``, slots and cell order (``terminal_order``) are the
``compile_circuit`` layout's, ``CompiledCircuit.input_source`` fits an
input to its source, ``singlephoton.tensor_sum_state`` is its tensor-sum
input and ``circuit.unitarity_residual`` tests its splitters.
Every (slot, bin) pair that light can reach becomes a bosonic mode, laid
out bin-major (``bin * n_slots + slot``), and the state is expanded over
all occupation vectors with total photon number up to a cutoff.  Which
bins light reaches is the layout's (``wire_lit``, ``terminal_lit``): a
mode that no light reaches is empty at every step, so it has no column,
and a splitter acts as the identity on a bin where neither input is lit.
One state vector is carried through the elements, each applied exactly:
two-mode unitaries on the lit bins, phases per photon and delays as mode
permutations.  Obstacles are deferred measurements (Nielsen & Chuang,
section 4.4): measuring a mode's photon number and then emptying it
equals swapping it with a fresh vacuum mode that is read at the end.
Each gated (inserted obstacle, bin) owns such a loss mode, so an obstacle
is a permutation too and nothing branches; as every slot ends in one
terminal, each basis vector is one joint outcome, and a cell whose mode
has no column reads 0.  Dropping modes that are empty in every reachable
vector keeps the graded-lexicographic order of the rest, so every sum
runs in the order it would over all modes.  Passive elements conserve
photon number, so the cutoff commutes with the evolution and the
truncation deficit is the input state's.

Vectors are ranked in the combinatorial number system (Knuth, TAOCP 4A,
section 7.2.1.3): an index is a sum of one table term per mode.  A basis
whose occupation table and two amplitude vectors would exceed
``MAX_BASIS_BYTES`` is refused, naming its size, before it is allocated.
Monte-Carlo shots are drawn as row indices of the joint outcome table.
Deliberately desk-scale: no permanents, no large-mode sampling.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
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
    UNITARITY_TOL,
    compile_circuit,
    unitarity_residual,
)
from .errors import (
    CutoffTooSmallError,
    NonUnitaryError,
    StateTooLargeError,
)
from .records import record
from .sampling import categorical_cdf, sample_categorical
from .singlephoton import tensor_sum_state

# Largest basis that will be built, counted as its uint8 occupation table
# plus two complex amplitude vectors.
MAX_BASIS_BYTES = 1 << 29
DEFICIT_LIMIT = 1e-4


@record(eq=False)
class FockBasis:
    """Graded-lexicographic basis of occupation vectors with total <= cutoff.

    Vectors are ordered by total photon number, then lexicographically,
    so state files and indices are portable across runs.  The index of a
    vector is the sum over modes j of ``terms[j, s_j]``, where ``s_j``
    counts the photons in modes j and after.
    """

    n_modes: int
    cutoff: int
    occupations: np.ndarray          # (dim, n_modes) uint8
    terms: np.ndarray                # (n_modes, cutoff + 1) int64

    @classmethod
    def build(cls, n_modes: int, cutoff: int) -> "FockBasis":
        if n_modes < 1 or cutoff < 0:
            raise ValueError("need n_modes >= 1 and cutoff >= 0")
        if cutoff > np.iinfo(np.uint8).max:
            raise StateTooLargeError(
                f"cutoff {cutoff} exceeds the 255 photons a mode can hold")
        dim = math.comb(n_modes + cutoff, cutoff)
        size = dim * (n_modes + 2 * np.dtype(complex).itemsize)
        if size > MAX_BASIS_BYTES:
            raise StateTooLargeError(
                f"basis of {dim} states over {n_modes} modes needs {size} "
                f"bytes, over the bound of {MAX_BASIS_BYTES} bytes")
        # Filled in place, one mode at a time from the last.  Row start[t]
        # is the first of total t, and the vectors of total t with photons
        # only in the last w modes are, in lexicographic order, the first
        # C(t + w - 1, w - 1) rows there.  Widening to w modes keeps those
        # rows, the new mode empty, and appends for each h = 1..t the
        # narrower block of total t - h behind a new mode holding h.  The
        # copies land past every row that a copy reads.
        occupations = np.zeros((dim, n_modes), dtype=np.uint8)
        start = [math.comb(t - 1 + n_modes, n_modes) for t in range(cutoff + 1)]
        occupations[start, -1] = np.arange(cutoff + 1)
        for width in range(2, n_modes + 1):
            mode = n_modes - width
            for t in range(1, cutoff + 1):
                row = start[t] + math.comb(t + width - 2, width - 2)
                for h in range(1, t + 1):
                    n = math.comb(t - h + width - 2, width - 2)
                    occupations[row:row + n, mode] = h
                    occupations[row:row + n, mode + 1:] = \
                        occupations[start[t - h]:start[t - h] + n, mode + 1:]
                    row += n
        # index = C(s_0 + M, M) - 1 - sum_{j >= 1} C(s_j + M - j - 1, M - j)
        # over M modes: the vectors of smaller total, plus the lexicographic
        # rank within the total (a telescoped hockey-stick sum).
        terms = np.array(
            [[math.comb(s + n_modes, n_modes) - 1 for s in range(cutoff + 1)]]
            + [[-math.comb(s + n_modes - j - 1, n_modes - j)
                for s in range(cutoff + 1)] for j in range(1, n_modes)],
            dtype=np.int64)
        return cls(n_modes=n_modes, cutoff=cutoff, occupations=occupations,
                   terms=terms)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def index_of(self, occ: np.ndarray) -> np.ndarray:
        """Indices of occupation rows; round-trips with ``occupations``.

        Ranked column by column from the last mode, so no wide copy of
        ``occ`` is made.  Raises ``KeyError`` for a row outside the basis.
        """
        occ = np.atleast_2d(occ)
        if occ.shape[1] != self.n_modes or (
                occ.dtype.kind == "i" and occ.size and occ.min() < 0):
            raise KeyError("occupation vector outside the truncated basis")
        photons = np.zeros(len(occ), dtype=np.intp)
        index = np.zeros(len(occ), dtype=np.int64)
        try:
            for j in range(self.n_modes - 1, -1, -1):
                photons += occ[:, j]
                index += self.terms[j][photons]
        except IndexError:
            raise KeyError("occupation vector outside the truncated basis") from None
        return index


@record(eq=False)
class FockStateVector:
    """Complex amplitudes over a FockBasis, with the truncation deficit
    (probability weight beyond the cutoff) reported explicitly."""

    basis: FockBasis
    amplitudes: np.ndarray
    deficit: float = 0.0


def prepare_coherent_train(basis: FockBasis, alpha: complex,
                           pulse_modes: Sequence[int]) -> FockStateVector:
    """Truncated product of coherent states |alpha> on ``pulse_modes``.

    Normalised after truncation; the removed tail (the Poisson weight of
    configurations above the cutoff) is recorded as ``deficit`` and must
    stay below ``DEFICIT_LIMIT``.  Only the vectors with photons in pulse
    modes alone carry amplitude, so only theirs are computed.
    """
    alpha = complex(alpha)
    pulse = sorted(set(int(m) for m in pulse_modes))
    active = pulse if alpha != 0 else []
    occ = basis.occupations
    others = [m for m in range(basis.n_modes) if m not in active]
    support = np.flatnonzero(~occ[:, others].any(axis=1))
    fact = np.array([math.factorial(k) for k in range(basis.cutoff + 1)], dtype=float)
    amps = np.ones(len(support), dtype=complex)
    for m in active:
        n_m = occ[support, m].astype(np.int64)
        amps = amps * alpha ** n_m / np.sqrt(fact[n_m])
    amps = amps * math.exp(-len(pulse) * abs(alpha) ** 2 / 2.0)
    norm2 = float(np.sum(np.abs(amps) ** 2))
    deficit = 1.0 - norm2
    if deficit > DEFICIT_LIMIT:
        raise CutoffTooSmallError(
            f"truncation deficit {deficit:.3e} exceeds {DEFICIT_LIMIT}; "
            f"raise the cutoff above {basis.cutoff}")
    full = np.zeros(basis.dim, dtype=complex)
    full[support] = amps / math.sqrt(norm2)
    return FockStateVector(basis, full, deficit)


def coherent_cutoff(mean_photons: float) -> int:
    """Smallest cutoff c whose Poisson tail P(K > c), K ~ Poisson(mean),
    meets ``DEFICIT_LIMIT``: the truncation deficit that
    ``prepare_coherent_train`` finds for a train of that mean.  Stops at
    the 255 photons a mode can hold, where the basis build refuses it."""
    cutoff, pmf = 0, math.exp(-mean_photons)
    cdf = pmf
    while 1.0 - cdf > DEFICIT_LIMIT and cutoff < np.iinfo(np.uint8).max:
        cutoff += 1
        pmf *= mean_photons / cutoff
        cdf += pmf
    return cutoff


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
    space is closed under the map and the norm is preserved.  Of the
    index terms, only those of the modes after the pair's first, up to its
    second, depend on how the pair splits its photons, so a target's index
    is its source's index plus the change of those terms.  Sources of zero
    amplitude are skipped; each target sums its sources in index order.
    """
    u = np.asarray(matrix, dtype=complex)
    if u.shape != (2, 2):
        raise NonUnitaryError("two-mode matrix must be 2x2")
    if not unitarity_residual(u) <= UNITARITY_TOL:
        raise NonUnitaryError(f"two-mode matrix is not unitary to {UNITARITY_TOL}")
    a, b = mode_pair
    lo, hi = sorted(mode_pair)
    basis = state.basis
    occ, amps = basis.occupations, state.amplitudes
    pair_total = occ[:, a] + occ[:, b]
    new = np.where(pair_total == 0, amps, 0)
    live = np.flatnonzero((pair_total > 0) & (amps != 0))
    # Mode j in lo+1..hi indexes by rest[j] + n_hi, rest[j] counting the
    # photons of modes j.. other than mode hi; `anchor` omits those terms.
    positions = range(lo + 1, hi + 1)
    n_hi = occ[live, hi]
    rest = [occ[live, j:].sum(axis=1, dtype=np.intp) - n_hi for j in positions]
    anchor = live - sum(basis.terms[j][r + n_hi] for j, r in zip(positions, rest))
    n_a, sector = occ[live, a], pair_total[live]
    u_key = tuple(u.reshape(-1))
    for tt in range(1, basis.cutoff + 1):
        sel = np.flatnonzero(sector == tt)
        block = _two_mode_block(u_key, tt)
        source, m_in, base = amps[live[sel]], n_a[sel], anchor[sel]
        rest_sel = [r[sel] for r in rest]
        for mp in range(tt + 1):
            out_hi = mp if a == hi else tt - mp
            target = base + sum(basis.terms[j][r + out_hi]
                                for j, r in zip(positions, rest_sel))
            np.add.at(new, target, block[mp, m_in] * source)
    return FockStateVector(basis, new, state.deficit)


def apply_mode_phase(state: FockStateVector, modes: Sequence[int], angle: float
                     ) -> FockStateVector:
    """Phase exp(i*angle*n), n counting the photons in all of ``modes``."""
    n = state.basis.occupations[:, list(modes)].sum(axis=1)
    phases = np.exp(1j * angle * np.arange(state.basis.cutoff + 1.0))
    return FockStateVector(state.basis, state.amplitudes * phases[n], state.deficit)


def apply_mode_permutation(state: FockStateVector, perm: Sequence[int]
                           ) -> FockStateVector:
    """Relabel modes: a photon in mode m moves to mode perm[m]."""
    perm = np.asarray(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    basis = state.basis
    live = np.flatnonzero(state.amplitudes)
    new = np.zeros_like(state.amplitudes)
    new[basis.index_of(basis.occupations[np.ix_(live, inv)])] = \
        state.amplitudes[live]
    return FockStateVector(basis, new, state.deficit)


@record(eq=False)
class JointDistribution:
    """Exact joint outcome table over detector photon counts and absorbed
    counts.  ``cells`` orders the outcome vector: (terminal, bin) cells in
    the circuit's ``terminal_order``, detectors first.  Row k of
    ``outcomes`` (one column per cell) is a distinct outcome of
    probability ``probabilities[k]``."""

    cells: tuple[tuple[str, int], ...]
    outcomes: np.ndarray             # (rows, cells) uint8 counts
    probabilities: np.ndarray        # (rows,) float
    deficit: float

    def total(self) -> float:
        return float(self.probabilities.sum())

    def cell_index(self, terminal: str, bin_idx: int) -> int:
        return self.cells.index((terminal, bin_idx))

    def mean(self, terminal: str, bin_idx: int) -> float:
        return float(self.probabilities
                     @ self.outcomes[:, self.cell_index(terminal, bin_idx)])

    @cached_property
    def _draws(self) -> tuple:
        """What ``sample_joint`` draws from, built once: the rows in
        lexicographic order and the cdf of their probabilities."""
        order = np.lexsort(self.outcomes.T[::-1])
        return order, categorical_cdf(self.probabilities[order])


class FockOracle:
    """Walks a CircuitSpec exactly in a truncated Fock space.

    Mode layout: the spec's ``compile_circuit`` layout, so ``n_bins`` and
    the spatial slots are those of the other engines.  Mode
    ``bin * n_slots + slot`` carries the amplitude of the wires in that
    slot at the given time bin.  After those, each gated (inserted
    obstacle, bin) owns one loss mode that receives what it absorbs.  Only
    the modes that the layout lights get a basis column, in that order;
    ``n_modes`` counts them.
    """

    def __init__(self, spec: CircuitSpec, cutoff: int):
        self.compiled = compile_circuit(spec)
        self.n_bins = self.compiled.n_bins
        n_slots = self.compiled.n_slots
        slot = self.compiled.wire_slot
        # Every mode, lit or dark, in layout order: the slot modes, then
        # per gated (inserted obstacle, bin) its loss mode.
        n_all = n_slots * self.n_bins
        lit = {b * n_slots + slot[wire]
               for wire, bins in self.compiled.wire_lit.items()
               for r in bins for b in r}
        # Per terminal, the mode read out for each bin: an obstacle's are
        # its loss modes.
        self._read: dict[str, dict[int, int]] = {}
        for e in self.compiled._order:
            if isinstance(e, Obstacle) and e.inserted:
                gate = [b for b in range(self.n_bins) if e.bins is None or b in e.bins]
                read = self._read[e.id] = {b: n_all + k for k, b in enumerate(gate)}
                lit.update(read[b] for r in self.compiled.terminal_lit[e.id]
                           for b in r)
                n_all += len(gate)
            elif isinstance(e, (Detector, Absorber)):
                self._read[e.id] = {b: b * n_slots + slot[e.wire]
                                    for b in range(self.n_bins)}
        # A lit mode's basis column, in layout order; -1 for a dark mode.
        self.n_modes = len(lit)
        self._column = np.full(n_all, -1)
        self._column[sorted(lit)] = np.arange(self.n_modes)
        order = self.compiled.terminal_order
        self.cells = tuple((t, b) for t in order for b in self._read[t])
        self._cell_columns = self._column[
            [m for t in order for m in self._read[t].values()]]
        self.basis = FockBasis.build(self.n_modes, cutoff)

    def columns(self, wire: str, bins=None) -> np.ndarray:
        """The basis columns of ``wire``'s slot at ``bins`` (by default the
        wire's lit bins, in order), which must be lit."""
        if bins is None:
            bins = [b for r in self.compiled.wire_lit[wire] for b in r]
        return self._column[np.asarray(bins, dtype=np.intp) * self.compiled.n_slots
                            + self.compiled.wire_slot[wire]]

    def source_modes(self, n: int, source_id: Optional[str] = None) -> np.ndarray:
        """The columns of an input of ``n`` bins, once it fits its source."""
        return self.columns(self.compiled.input_source(n, source_id).out,
                            np.arange(n))

    # -- input preparation -------------------------------------------------

    def coherent_train_state(self, alpha: complex, n_pulses: int,
                             phases: Optional[Sequence[float]] = None,
                             source_id: Optional[str] = None) -> FockStateVector:
        modes = self.source_modes(n_pulses, source_id)
        state = prepare_coherent_train(self.basis, alpha, modes)
        if phases is not None:
            for m, ph in zip(modes, phases):
                if ph:
                    state = apply_mode_phase(state, [m], float(ph))
        return state

    def tensor_sum_state(self, n_pulses: int,
                         source_id: Optional[str] = None) -> FockStateVector:
        psi = tensor_sum_state(n_pulses)
        if self.basis.cutoff < 1:
            raise CutoffTooSmallError("the photon exceeds the basis cutoff 0")
        modes = self.source_modes(n_pulses, source_id)
        occ = np.zeros((len(modes), self.n_modes), dtype=np.uint8)
        occ[np.arange(len(modes)), modes] = 1
        amps = np.zeros(self.basis.dim, dtype=complex)
        amps[self.basis.index_of(occ)] = psi
        return FockStateVector(self.basis, amps)

    def single_photon_state(self, photons: Iterable[tuple[str, int]]
                            ) -> FockStateVector:
        return prepare_single_photons(
            self.basis, [self.source_modes(b + 1, source_id)[b]
                         for source_id, b in photons])

    # -- evolution ---------------------------------------------------------

    def run(self, state: FockStateVector) -> JointDistribution:
        """Evolve an input state through every element and read out the
        exact joint distribution over detector and absorbed counts.

        Each element acts only on the bins that its layout lights: those
        are the only modes that can hold photons, as long as the input
        holds them only in its sources' bins, which is checked here.
        """
        if state.basis is not self.basis:
            raise ValueError("state was prepared on a different basis")
        dark = np.ones(self.n_modes, dtype=bool)
        for s in self.compiled._sources:
            dark[self.columns(s.out)] = False
        live = np.flatnonzero(state.amplitudes)
        if self.basis.occupations[np.ix_(live, dark)].any():
            raise ValueError("state holds photons outside its sources' bins")
        for e in self.compiled._order:
            if isinstance(e, BeamSplitter):
                u = e.resolved_matrix()
                for r in self.compiled.wire_lit[e.outputs[0]]:
                    for b in r:
                        state = apply_two_mode_unitary(
                            state, (self.columns(e.inputs[0], b),
                                    self.columns(e.inputs[1], b)), u)
            elif isinstance(e, PhaseShift):
                state = apply_mode_phase(state, self.columns(e.input), e.angle)
            elif isinstance(e, Delay):
                modes = self.columns(e.input)
                if e.phase:
                    state = apply_mode_phase(state, modes, e.phase)
                if e.bins:
                    state = self._move(state, modes, self.columns(e.output))
            elif isinstance(e, Obstacle) and e.inserted:
                gated = [b for r in self.compiled.terminal_lit[e.id] for b in r]
                modes = self.columns(e.input, gated)
                loss = self._column[[self._read[e.id][b] for b in gated]]
                state = self._move(state, np.concatenate([modes, loss]),
                                   np.concatenate([loss, modes]))
        live = np.flatnonzero(np.abs(state.amplitudes) ** 2 > 0.0)
        probabilities = np.abs(state.amplitudes[live]) ** 2
        deficit = state.deficit
        del state  # free the amplitudes before the outcome table is built
        # A dark cell reads a constant 0.
        outcomes = np.zeros((len(live), len(self.cells)), dtype=np.uint8)
        for k, c in enumerate(self._cell_columns):
            if c >= 0:
                outcomes[:, k] = self.basis.occupations[live, c]
        return JointDistribution(cells=self.cells, outcomes=outcomes,
                                 probabilities=probabilities, deficit=deficit)

    def _move(self, state: FockStateVector, source: np.ndarray,
              target: np.ndarray) -> FockStateVector:
        """Move column ``source[k]``'s photons to ``target[k]``.

        The other columns are empty here, so those that ``target`` takes
        fill the places that ``source`` frees, in order, and the move is a
        permutation.
        """
        if not len(source):
            return state
        perm = np.arange(self.n_modes)
        perm[source] = target
        perm[sorted(set(target) - set(source))] = sorted(set(source) - set(target))
        return apply_mode_permutation(state, perm)


def sample_joint(dist: JointDistribution, shots: int, seed: int,
                 start: int = 0) -> np.ndarray:
    """Draw ``shots`` outcomes from the joint table, as row indices, by
    ``sampling.sample_categorical``.

    Element k is the index in ``dist.outcomes`` of shot ``start + k``'s
    outcome.  Rows lie on the cdf in lexicographic order, sorted once per
    distribution.
    """
    order, cdf = dist._draws
    return order[sample_categorical(cdf, shots, seed, start)]
