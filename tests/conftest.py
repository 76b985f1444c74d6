import math

import numpy as np
import pytest

from proxyifm.circuit import (
    BeamSplitter,
    CircuitSpec,
    Delay,
    Detector,
    Obstacle,
    PhaseShift,
    Source,
)

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


def terminal_block(compiled, terminal_id):
    """The (n_bins, input_dim) rows of the unrolled map feeding one terminal."""
    lo, hi = compiled.terminal_index[terminal_id]
    return compiled.unrolled_map[lo:hi, :]


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
