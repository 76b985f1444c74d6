"""A fixed reference kernel that tracks the host's effective CPU speed.

On a shared machine the CPU time of the same work drifts by tens of
percent over minutes, because other tenants load the host.  Each child
times this kernel right before and right after ``cli.main``, on the same
CPU, and scales the job's CPU times by ``scale``: ``REFERENCE_S`` over the
mean of the two.  The kernel is the benchmark's own code, so no change to
the program can make it faster or slower.  It mixes the kinds of work the
program does: formatting rows in the interpreter, many small numpy calls
and arithmetic on complex arrays.  Its arrays are allocated at import and
its rows are joined a thousand at a time, so it adds well under 1 MB to the
child's peak RSS and never asks the allocator for a large block, whatever
the job left in the heap.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal CPU time of one ``reference_s`` call; scaled times are seconds on
# a host where the kernel takes this long (a round figure near its median
# on the 2-core x86-64 VM the baseline was recorded on).
REFERENCE_S = 0.1

_SMALL = np.arange(16.0)
_A = np.full(4096, 1.0 + 1.0j)     # 64 KiB each, kept for the child's life
_B = np.zeros_like(_A)


def _kernel() -> float:
    total = 0.0
    for k in range(60):
        total += len("\n".join(["%d,%s,%.17g" % (i, "D1", i * 0.5)
                                for i in range(k, k + 1000)]))
    for _ in range(8_000):
        total += float(np.abs(_SMALL * 1.5).sum())
    for _ in range(3_000):
        np.multiply(_A, 0.5, out=_B)
        np.add(_B, _A, out=_B)
        total += float(np.vdot(_B, _A).real)
    return total


def reference_s() -> float:
    """CPU time, user plus system, of one call of the reference kernel."""
    c0 = time.process_time()
    _kernel()
    return time.process_time() - c0


def scale(reference_s: list[float]) -> float:
    """Factor that takes CPU times measured beside ``reference_s`` to the
    nominal host speed."""
    return REFERENCE_S / (sum(reference_s) / len(reference_s))
