"""Multiport splitters: the three-way splitter, triangular decomposition
into two-mode stages, and phase-insensitive cascade comparison.

Any N-port splitter factors into at most N(N-1)/2 two-mode unitaries on
adjacent mode pairs plus output phases (triangular nulling order).
Detectors cannot see per-port phases, so circuit-vs-matrix equivalence is
judged up to diagonal phase matrices on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .circuit import CircuitSpec, circuit_spatial_unitary
from .errors import DimensionMismatchError, DimensionTooLargeError, NonUnitaryInputError

MAX_DECOMPOSE_DIM = 12


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


@dataclass(frozen=True, eq=False)
class TwoModeOp:
    """One cascade stage: a 2x2 unitary on the adjacent pair (i, i+1)."""

    mode_pair: tuple[int, int]
    matrix: np.ndarray
    position: int


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Ordered two-mode stages plus output phases.

    ``recompose`` applies the stages in cascade order (``position`` 0
    first) and the phase vector last, reproducing the source unitary.
    """

    steps: tuple[TwoModeOp, ...]
    output_phases: np.ndarray
    dim: int


def _embed(op: TwoModeOp, n: int) -> np.ndarray:
    m = np.eye(n, dtype=complex)
    i, j = op.mode_pair
    m[i, i], m[i, j] = op.matrix[0, 0], op.matrix[0, 1]
    m[j, i], m[j, j] = op.matrix[1, 0], op.matrix[1, 1]
    return m


def reck_decompose(u: np.ndarray, tol: float = 1e-10) -> Decomposition:
    """Triangular decomposition of a unitary into two-mode stages.

    Nulls the below-diagonal part row by row, last row first, by mixing
    adjacent column pairs on the right; what remain are the output
    phases.  Emits at most N(N-1)/2 stages (already-null entries are
    skipped, so the identity decomposes to no stages at all).
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError("matrix must be square")
    if n < 2 or n > MAX_DECOMPOSE_DIM:
        raise DimensionTooLargeError(
            f"supported sizes are 2..{MAX_DECOMPOSE_DIM}, got {n}")
    if not np.isfinite(u).all():
        raise NonUnitaryInputError("input has a NaN or infinite entry")
    # Entries near the float limit overflow to a NaN norm; not ``> tol``,
    # which a NaN norm passes.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(u.conj().T @ u - np.eye(n))
    if not residual <= tol:
        raise NonUnitaryInputError(f"input is not unitary to {tol}")

    v = u.copy()
    rights: list[tuple[int, np.ndarray]] = []
    for row in range(n - 1, 0, -1):
        for col in range(row):
            a, b = v[row, col], v[row, col + 1]
            if abs(a) <= 1e-14:
                continue
            r = np.hypot(abs(a), abs(b))
            t = np.array([[b / r, np.conj(a) / r],
                          [-a / r, np.conj(b) / r]], dtype=complex)
            v[:, col:col + 2] = v[:, col:col + 2] @ t
            rights.append((col, t))

    phases = np.diag(v).copy()
    # u @ t_1 @ ... @ t_k = diag(phases)  =>  u = diag(phases) @ t_k^† ... t_1^†,
    # so the first stage of the cascade is t_1^†.
    steps = tuple(
        TwoModeOp(mode_pair=(col, col + 1), matrix=t.conj().T, position=k)
        for k, (col, t) in enumerate(rights))
    return Decomposition(steps=steps, output_phases=phases, dim=n)


def recompose(d: Decomposition) -> np.ndarray:
    """Product of the embedded stages times the output phases."""
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
