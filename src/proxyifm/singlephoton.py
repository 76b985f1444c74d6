"""First-quantization engine for one photon spread over time bins.

One photon delocalised over N bins is a complex amplitude per (mode, bin)
slot; a passive circuit acts on it with the same per-wire walk,
``CompiledCircuit.propagate``, that carries coherent amplitudes.
Amplitude routed into an inserted obstacle moves to an absorbed ledger,
so detector probabilities plus absorbed probabilities sum to one and
exactly one outcome occurs per run: a detection somewhere, or absorption
at the obstacle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .circuit import CompiledCircuit
from .coherent import _sample_categorical
from .errors import ZeroPulsesError


@dataclass(frozen=True, eq=False)
class PhotonWavefunction:
    """Single-photon amplitudes per (mode, bin), plus an absorbed ledger.

    Before propagation the only mode is the source; afterwards the modes
    are the detector terminals and ``absorbed`` holds the loss-terminal
    amplitudes.  Total norm (live + absorbed) is 1.
    """

    amplitudes: dict[str, np.ndarray]
    absorbed: dict[str, np.ndarray]

    def norm_squared(self) -> float:
        live = sum(float(np.sum(np.abs(a) ** 2)) for a in self.amplitudes.values())
        gone = sum(float(np.sum(np.abs(a) ** 2)) for a in self.absorbed.values())
        return live + gone


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probability of each mutually exclusive one-photon outcome.

    ``p`` maps terminal id (detectors and loss terminals) to total
    probability; ``p_bins`` keeps the per-bin split.  ``exclusive`` is
    always true here: one photon, one outcome.
    """

    p: dict[str, float]
    p_bins: dict[str, np.ndarray]
    exclusive: bool = True

    def total(self) -> float:
        return float(sum(self.p.values()))


def tensor_sum_state(n: int) -> PhotonWavefunction:
    """One photon shared equally over n consecutive bins, amplitude 1/sqrt(n)."""
    if n < 1:
        raise ZeroPulsesError("tensor-sum state needs at least one bin")
    return PhotonWavefunction(
        amplitudes={"source": np.full(n, 1.0 / math.sqrt(n), dtype=complex)},
        absorbed={},
    )


def single_bin_state(bin_index: int, n: Optional[int] = None) -> PhotonWavefunction:
    """One photon localised on a single bin."""
    size = bin_index + 1 if n is None else n
    amps = np.zeros(size, dtype=complex)
    amps[bin_index] = 1.0
    return PhotonWavefunction(amplitudes={"source": amps}, absorbed={})


def propagate_wavefunction(circuit: CompiledCircuit, psi: PhotonWavefunction,
                           source_id: Optional[str] = None) -> PhotonWavefunction:
    """Walk a source-side wavefunction through the circuit's isometry."""
    (mode, amps), = psi.amplitudes.items()
    if psi.absorbed:
        raise ValueError("input wavefunction already carries absorbed amplitude")
    live, gone = {}, {}
    for t, a in circuit.propagate(amps, source_id).items():
        (gone if t in circuit.loss_terminals else live)[t] = a
    return PhotonWavefunction(amplitudes=live, absorbed=gone)


def propagate_photon(circuit: CompiledCircuit, psi: PhotonWavefunction,
                     source_id: Optional[str] = None) -> OutcomeDistribution:
    """Full outcome distribution for a normalised one-photon input."""
    n2 = psi.norm_squared()
    if abs(n2 - 1.0) > 1e-9:
        raise ValueError(f"input wavefunction norm^2 = {n2}, expected 1")
    out = propagate_wavefunction(circuit, psi, source_id)
    p_bins = {}
    p_bins.update({t: np.abs(a) ** 2 for t, a in out.amplitudes.items()})
    p_bins.update({t: np.abs(a) ** 2 for t, a in out.absorbed.items()})
    p = {t: float(np.sum(v)) for t, v in p_bins.items()}
    return OutcomeDistribution(p=p, p_bins=p_bins)


def detection_probability_formula(phase_mismatch: float) -> float:
    """Bright-port fringe ``(1 + cos(phase)) / 2`` of the matched interferometer."""
    return 0.5 * (1.0 + math.cos(phase_mismatch))


def sample_outcomes(dist: OutcomeDistribution, shots: int, seed: int
                    ) -> tuple[list[tuple[str, int]], np.ndarray]:
    """Draw exactly one (terminal, bin) outcome per shot.

    Returns the cell list and, per shot, the index of the drawn cell.
    Counter-based Philox streams keyed on (seed, chunk) keep the result
    independent of batching.
    """
    cells: list[tuple[str, int]] = []
    probs: list[float] = []
    for t, v in sorted(dist.p_bins.items()):
        for b, pv in enumerate(v):
            if pv > 0.0:
                cells.append((t, b))
                probs.append(float(pv))
    return cells, _sample_categorical(np.asarray(probs), shots, seed)


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
