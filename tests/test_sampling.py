"""The Monte-Carlo samplers against plain references, their prefix
property, the edges and statistics of the click sampler and its memory.

``sample_clicks`` skips from click to click along each cell by geometric
gaps, drawn in rounds of one uniform per cell; the events must equal those
of the scalar gap-by-gap reference (``conftest.reference_clicks``) at every
block shape.  Every sampler is keyed per chunk of shots, so a short run is
the prefix of a longer one with the same seed.  The statistical tests hold
for any correct click sampler: per-cell counts, pair co-occurrence within
a shot and the gap law P(gap > k) = (1 - p)^k.
"""

import math
import tracemalloc

import numpy as np
import pytest

from proxyifm import coherent
from proxyifm.coherent import ClickDistribution, sample_clicks
from proxyifm.fock import FockOracle, sample_joint
from proxyifm.runner import run
from proxyifm.scenarios import load_scenario
from proxyifm.singlephoton import OutcomeDistribution, sample_outcomes

from conftest import MC_CHUNK, hom_spec, reference_clicks, reference_gap


def _random_dist(rng, sizes, scale=1.0):
    """Click probabilities on terminals of ``sizes`` bins, with certain
    (p = 1) and impossible (p = 0) cells among them."""
    p = {}
    for k, n in enumerate(sizes):
        v = rng.random(n) * scale
        v[rng.random(n) < 0.1] = 0.0
        v[rng.random(n) < 0.1] = 1.0
        v[0], v[-1] = 0.0, 1.0
        p[f"T{k}"] = v
    return ClickDistribution(p_click=p)


def _assert_equal_events(log, want):
    shot_idx, terminal, bin_idx = want
    assert np.array_equal(log.shot_idx, shot_idx)
    assert np.array_equal(log.terminal, terminal)
    assert np.array_equal(log.bin_idx, bin_idx)


@pytest.mark.parametrize("case", range(6))
def test_sample_clicks_equals_one_draw_per_chunk(case):
    rng = np.random.default_rng(1000 + case)
    sizes = rng.integers(1, 60, size=rng.integers(1, 5))
    dist = _random_dist(rng, sizes, scale=[1.0, 0.3, 0.01][case % 3])
    shots = int(rng.integers(1, 4000))
    seed = int(rng.integers(0, 2**32))
    _assert_equal_events(sample_clicks(dist, shots, seed),
                         reference_clicks(dist, shots, seed))


def test_sample_clicks_one_row_per_block():
    cells = coherent._DRAW_BYTES // 8 + 7      # a single row is over budget
    dist = _random_dist(np.random.default_rng(5), [cells], scale=1e-3)
    _assert_equal_events(sample_clicks(dist, 5, 31), reference_clicks(dist, 5, 31))


def test_sample_clicks_blocks_that_do_not_divide_the_chunk():
    dist = _random_dist(np.random.default_rng(6), [101, 101, 101], scale=0.05)
    rows = coherent._DRAW_BYTES // (8 * 303)
    shots = 5000
    assert shots % rows != 0
    _assert_equal_events(sample_clicks(dist, shots, 8),
                         reference_clicks(dist, shots, 8))


def test_sample_clicks_across_several_chunks():
    dist = _random_dist(np.random.default_rng(7), [2, 1], scale=0.5)
    shots = 2 * MC_CHUNK + 777
    log = sample_clicks(dist, shots, 9)
    assert log.shot_idx.max() == shots - 1     # the p = 1 cells click every shot
    _assert_equal_events(log, reference_clicks(dist, shots, 9))


def test_sample_clicks_prefix_property():
    dist = _random_dist(np.random.default_rng(8), [6, 5, 3], scale=0.2)
    small = sample_clicks(dist, 1000, 7)
    big = sample_clicks(dist, 300_000, 7)
    cut = big.shot_idx < 1000
    _assert_equal_events(small, (big.shot_idx[cut], big.terminal[cut],
                                 big.bin_idx[cut]))


def test_sample_outcomes_prefix_property():
    dist = OutcomeDistribution(
        p={"D1": 0.5, "D2": 0.3, "loss": 0.2},
        p_bins={"D1": np.array([0.1, 0.4]), "D2": np.array([0.3, 0.0]),
                "loss": np.array([0.2])})
    small = sample_outcomes(dist, 1000, 7)
    big = sample_outcomes(dist, 300_000, 7)
    assert small.terminal_order == big.terminal_order == ("D1", "D2", "loss")
    # every cell but the zero-probability ("D2", 1) is drawn
    assert set(zip(big.terminal.tolist(), big.bin_idx.tolist())) == \
        {(0, 0), (0, 1), (1, 0), (2, 0)}
    cut = big.shot_idx < 1000
    _assert_equal_events(small, (big.shot_idx[cut], big.terminal[cut],
                                 big.bin_idx[cut]))


def test_sample_joint_prefix_property():
    oracle = FockOracle(hom_spec(), 2)
    dist = oracle.run(oracle.single_photon_state([("src_a", 0), ("src_b", 0)]))
    small = sample_joint(dist, 1000, 7)
    big = sample_joint(dist, 300_000, 7)
    assert np.array_equal(small, big[:1000])
    assert set(map(tuple, dist.outcomes[big].tolist())) == {(2, 0), (0, 2)}


def test_sample_clicks_memory_is_bounded_by_the_block():
    """400 cells x 20,000 shots: a whole-chunk draw would hold 64 MB."""
    rng = np.random.default_rng(9)
    dist = ClickDistribution(p_click={"D1": rng.random(200) * 2e-3,
                                      "D2": rng.random(200) * 2e-3})
    tracemalloc.start()
    try:
        log = sample_clicks(dist, 20_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 5_000 < len(log) < 11_000
    assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MB"


def test_fock_mc_run_holds_no_object_per_shot():
    """200,000 hom_pair shots: one tuple per shot would hold about 30 MiB."""
    scenario = load_scenario("hom_pair")
    tracemalloc.start()
    try:
        report = run(scenario, mode="mc", cutoff=2, shots=200_000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.tables["events"].rows) == 200_000
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_sample_clicks_across_several_chunks_at_random_probabilities():
    dist = ClickDistribution(p_click={"D1": np.array([0.03, 0.3, 0.0]),
                                      "D2": np.array([0.001, 1.0])})
    shots = 2 * MC_CHUNK + 4321
    log = sample_clicks(dist, shots, 12)
    _assert_equal_events(log, reference_clicks(dist, shots, 12))


EDGE_P = np.array([0.0, 5e-324, 1e-300, 0.5, 1 - 1e-16, 1.0])


def test_sample_clicks_at_edge_probabilities():
    shots = 2 * MC_CHUNK + 99
    log = sample_clicks(ClickDistribution(p_click={"D": EDGE_P}), shots, 21)
    counts = np.bincount(log.bin_idx, minlength=len(EDGE_P))
    assert counts[:3].tolist() == [0, 0, 0]
    assert counts[4:].tolist() == [shots, shots]
    assert abs(counts[3] - shots / 2) < 5 * math.sqrt(shots / 4)


class _ConstantUniforms:
    """A generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = self.u
        return out


@pytest.mark.parametrize("u", [0.0, 1 - 2.0**-53])
def test_sample_clicks_at_extreme_uniforms(monkeypatch, u):
    """u = 0 is the shortest gap and the largest u below 1 the longest: a
    p = 0 cell never clicks, a p = 1 cell clicks on every shot, and no gap
    overflows."""
    monkeypatch.setattr(np.random, "Generator",
                        lambda bit_generator: _ConstantUniforms(u))
    dist = ClickDistribution(p_click={"D": EDGE_P})
    shots = MC_CHUNK + 500
    log = sample_clicks(dist, shots, 4)
    for cell, p in enumerate(EDGE_P.tolist()):
        gap = reference_gap(u, p)
        want = np.concatenate([np.arange(start + gap - 1, start + count, gap)
                               for start, count in ((0, MC_CHUNK), (MC_CHUNK, 500))])
        assert np.array_equal(log.shot_idx[log.bin_idx == cell], want), p
    _assert_equal_events(sample_clicks(dist, 300, 4), reference_clicks(dist, 300, 4))


def test_sample_clicks_rejects_probabilities_outside_the_unit_interval():
    for bad in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match="click probabilities"):
            sample_clicks(ClickDistribution(p_click={"D": np.array([0.2, bad])}), 10, 1)


# Per-cell click probabilities of the statistical tests: sparse, dense,
# near 1/3 and near 1, with two pairs of equal cells.
STAT_P = np.array([1e-3, 0.01, 0.05, 0.2, 0.2, 1 / 3, 0.5, 0.5, 0.8, 0.95,
                   0.99, 0.999])
STAT_SHOTS = 20_000


@pytest.fixture(scope="module")
def co_clicks():
    """Per seed of 200, the (cells x cells) counts of shots in which both
    cells clicked; the diagonal holds each cell's click count."""
    dist = ClickDistribution(p_click={"D": STAT_P})
    out = []
    for seed in range(7000, 7200):
        log = sample_clicks(dist, STAT_SHOTS, seed)
        hits = np.zeros((STAT_SHOTS, len(STAT_P)))
        hits[log.shot_idx, log.bin_idx] = 1
        assert len(log) == hits.sum()              # no cell clicks twice a shot
        out.append(hits.T @ hits)
    return np.array(out)


def test_click_counts_mean_z2_over_seeds(co_clicks):
    """Per-cell counts have mean z^2 of 1, and the counts of two cells are
    uncorrelated across seeds."""
    n = STAT_SHOTS
    counts = np.diagonal(co_clicks, axis1=1, axis2=2)
    z = (counts - n * STAT_P) / np.sqrt(n * STAT_P * (1 - STAT_P))
    z2 = np.square(z)
    assert abs(z2.mean() - 1) < 4 * math.sqrt(2 / z2.size), z2.mean()
    per_cell = z2.mean(axis=0)
    assert np.all(np.abs(per_cell - 1) < 4 * math.sqrt(2 / len(z2))), per_cell
    cross = np.square(z.T @ z / math.sqrt(len(z)))[np.triu_indices(len(STAT_P), 1)]
    assert abs(cross.mean() - 1) < 4 * math.sqrt(2 / cross.size), cross.mean()


def test_cells_click_independently_within_a_shot(co_clicks):
    """Pearson's 2 x 2 statistic n (n N_ij - N_i N_j)^2 / (N_i (n - N_i)
    N_j (n - N_j)) has mean n / (n - 1) under independence, given the
    margins; cells with p in [0.05, 0.95] keep every expected count of the
    table at 50 or more."""
    n = STAT_SHOTS
    keep = np.flatnonzero((STAT_P >= 0.05) & (STAT_P <= 0.95))
    both = co_clicks[:, keep][:, :, keep]
    marg = np.diagonal(both, axis1=1, axis2=2)[:, :, None]
    spread = marg * (n - marg)
    chi2 = (n * (n * both - marg * marg.transpose(0, 2, 1)) ** 2
            / (spread * spread.transpose(0, 2, 1)))
    upper_i, upper_j = np.triu_indices(len(keep), 1)
    chi2 = chi2[:, upper_i, upper_j]
    assert abs(chi2.mean() - n / (n - 1)) < 4 * math.sqrt(2 / chi2.size), chi2.mean()


@pytest.mark.parametrize("p", [1 / 3, 0.3333333, 0.9, 0.999, 0.9999, 2e-3])
def test_gaps_between_clicks_are_geometric(p):
    """P(gap > k) = (1 - p)^k for the shots from one click of a cell to its
    next, counted from shot -1 and across chunk boundaries."""
    shots = 3 * MC_CHUNK
    log = sample_clicks(ClickDistribution(p_click={"D": np.array([p])}), shots, 77)
    gaps = np.diff(log.shot_idx, prepend=-1)
    assert gaps.min() >= 1
    tested = 0
    for k in range(1, gaps.max() + 1):
        tail = (1 - p) ** k
        var = len(gaps) * tail * (1 - tail)
        if var >= 10:
            z = (np.count_nonzero(gaps > k) - len(gaps) * tail) / math.sqrt(var)
            assert abs(z) < 4.5, (k, z)
            tested += 1
    assert tested >= 1
