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


def reference_clicks(dist, shots, seed):
    """Threshold clicks drawn as one (shots x cells) uniform matrix per chunk.

    The plain sampler ``coherent.sample_clicks`` must reproduce: chunk
    ``start`` draws from Philox keyed on ``(seed, start)``, and cell ``c``
    of shot ``s`` clicks when its uniform is below ``p[c]``.  Returns the
    ``(shot_idx, terminal, bin_idx)`` arrays.
    """
    terminals = tuple(dist.p_click)
    pvec = np.concatenate([dist.p_click[t] for t in terminals])
    cell_terminal = np.concatenate(
        [np.full(len(dist.p_click[t]), k) for k, t in enumerate(terminals)])
    cell_bin = np.concatenate([np.arange(len(dist.p_click[t])) for t in terminals])
    parts = []
    for start in range(0, shots, MC_CHUNK):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(start,))))
        count = min(MC_CHUNK, shots - start)
        hit_shot, hit_cell = np.nonzero(rng.random((count, len(pvec))) < pvec)
        parts.append((hit_shot + start, cell_terminal[hit_cell], cell_bin[hit_cell]))
    return tuple(np.concatenate(column) for column in zip(*parts))


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
