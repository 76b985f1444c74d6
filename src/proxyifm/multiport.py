"""Multiport splitters: triangular decomposition into two-mode stages.

Any N-port splitter factors into at most N(N-1)/2 two-mode unitaries on
adjacent mode pairs plus output phases (triangular nulling order).
"""

from __future__ import annotations

import numpy as np

from .circuit import unitarity_residual
from .errors import DimensionMismatchError, DimensionTooLargeError, NonUnitaryInputError
from .records import record

MAX_DECOMPOSE_DIM = 12


@record(eq=False)
class TwoModeOp:
    """One cascade stage: a 2x2 unitary on the adjacent pair (i, i+1)."""

    mode_pair: tuple[int, int]
    matrix: np.ndarray
    position: int


@record(eq=False)
class Decomposition:
    """Ordered two-mode stages plus output phases.

    Applying the stages in cascade order (``position`` 0 first) and the
    phase vector last reproduces the source unitary.
    """

    steps: tuple[TwoModeOp, ...]
    output_phases: np.ndarray
    dim: int


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
    if not unitarity_residual(u) <= tol:
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
