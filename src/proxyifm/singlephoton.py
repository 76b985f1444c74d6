"""First-quantization engine for one photon spread over time bins.

One photon delocalised over N bins is a complex amplitude vector over the
source's bins, as a coherent train's ``amplitudes()`` is; a passive
circuit acts on it with the same per-wire walk,
``CompiledCircuit.propagate``, that carries coherent amplitudes.  Every
terminal, detector or loss, gets the squared amplitudes of its bins as
probabilities, so they sum to one and exactly one outcome occurs per run:
a detection somewhere, or absorption at an obstacle.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

import numpy as np

from .circuit import CompiledCircuit
from .coherent import EventLog
from .errors import ZeroPulsesError
from .records import record
from .sampling import categorical_cdf, flatten_cells, sample_categorical


@record(eq=False)
class OutcomeDistribution:
    """Probability of each mutually exclusive one-photon outcome.

    ``p`` maps terminal id (detectors and loss terminals) to total
    probability; ``p_bins`` keeps the per-bin split.
    """

    p: dict[str, float]
    p_bins: dict[str, np.ndarray]

    def total(self) -> float:
        return float(sum(self.p.values()))

    @cached_property
    def _draws(self) -> tuple:
        """What ``sample_outcomes`` draws from, built once: the terminal
        order (that of ``p_bins``) and, per cell of non-zero probability,
        the cdf, the terminal and the bin."""
        p, terminal, bins = flatten_cells(self.p_bins)
        live = p > 0.0
        return (tuple(self.p_bins), categorical_cdf(p[live]), terminal[live],
                bins[live])


def tensor_sum_state(n: int) -> np.ndarray:
    """One photon shared equally over n consecutive bins, amplitude 1/sqrt(n)."""
    if n < 1:
        raise ZeroPulsesError("tensor-sum state needs at least one bin")
    return np.full(n, 1.0 / math.sqrt(n), dtype=complex)


def propagate_photon(circuit: CompiledCircuit, amplitudes: np.ndarray,
                     source_id: Optional[str] = None) -> OutcomeDistribution:
    """Full outcome distribution for a normalised one-photon input.

    ``amplitudes`` feeds the first bins of the sole source (or
    ``source_id``); loss terminals are outcomes like detectors.
    """
    n2 = float(np.sum(np.abs(amplitudes) ** 2))
    if abs(n2 - 1.0) > 1e-9:
        raise ValueError(f"input wavefunction norm^2 = {n2}, expected 1")
    p_bins = {t: np.abs(a) ** 2
              for t, a in circuit.propagate(amplitudes, source_id).items()}
    return OutcomeDistribution(p={t: float(np.sum(v)) for t, v in p_bins.items()},
                               p_bins=p_bins)


def sample_outcomes(dist: OutcomeDistribution, shots: int, seed: int,
                    start: int = 0) -> EventLog:
    """Draw exactly one (terminal, bin) outcome per shot, from shot
    ``start`` on, by ``sampling.sample_categorical``.

    The cells are taken in the order of ``dist.p_bins`` (the circuit's
    ``terminal_order`` when ``propagate_photon`` built it), zero-probability
    cells dropped.  Every shot index appears once in the log.
    """
    order, cdf, terminal, bins = dist._draws
    draws = sample_categorical(cdf, shots, seed, start)
    return EventLog(shots=shots, seed=seed,
                    shot_idx=np.arange(start, start + shots),
                    terminal=terminal[draws], bin_idx=bins[draws],
                    terminal_order=order)
