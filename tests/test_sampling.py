"""The Monte-Carlo samplers against plain references, their prefix
property, the edges and statistics of the click sampler and its memory.

``sample_clicks`` skips from click to click along each cell by geometric
gaps, drawn in rounds of one uniform per cell; the events must equal those
of the scalar gap-by-gap reference (``conftest.reference_clicks``) at every
block shape, and a chunk draws about as many rounds as its densest cell
needs.  The indexed search that places the one-photon and Fock samplers'
uniforms must give ``searchsorted``'s index on any cdf.  Every sampler is
keyed per chunk of shots, so a short run is the prefix of a longer one
with the same seed.  The statistical tests hold
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


def test_sample_clicks_when_the_block_cap_binds():
    """One p = 0.9 cell among 1000 cells of p ~ 1e-4: the chunk's round
    budget is past one ``_DRAW_BYTES`` block, so further blocks follow."""
    rng = np.random.default_rng(13)
    p = rng.random(1000) * 2e-4
    p[417] = 0.9
    dist = ClickDistribution(p_click={"D1": p[:500], "D2": p[500:]})
    shots = 600
    assert coherent._DRAW_BYTES // (8 * len(p)) < 0.9 * shots
    log = sample_clicks(dist, shots, 14)
    _assert_equal_events(log, reference_clicks(dist, shots, 14))
    assert abs(np.count_nonzero(log.bin_idx == 417) - 0.9 * shots) < 60


def test_sample_clicks_past_the_round_budget(monkeypatch):
    """With every uniform 0 every p > 0 cell clicks on every shot, far past
    the budget of its p ~ 1e-3: the rounds still short are drawn in blocks
    sized from the cells still live."""
    monkeypatch.setattr(np.random, "Generator",
                        lambda bit_generator: _ConstantUniforms(0.0))
    dist = ClickDistribution(p_click={"D": np.array([1e-3, 0.0, 2e-3])})
    shots = MC_CHUNK + 300
    log = sample_clicks(dist, shots, 5)
    assert np.array_equal(np.bincount(log.bin_idx, minlength=3), [shots, 0, shots])
    _assert_equal_events(log, reference_clicks(dist, shots, 5))


def test_sample_clicks_of_cells_that_never_click():
    dist = ClickDistribution(p_click={"D1": np.zeros(7), "D2": np.zeros(2)})
    log = sample_clicks(dist, 2 * MC_CHUNK + 5, 6)
    assert len(log) == 0 and log.shots == 2 * MC_CHUNK + 5
    _assert_equal_events(sample_clicks(dist, 900, 6), reference_clicks(dist, 900, 6))


def test_sample_clicks_of_certain_cells_across_two_chunks():
    dist = ClickDistribution(p_click={"D1": np.ones(2), "D2": np.ones(1)})
    shots = MC_CHUNK + 77
    log = sample_clicks(dist, shots, 8)
    assert np.array_equal(log.shot_idx, np.repeat(np.arange(shots), 3))
    assert np.array_equal(log.terminal, np.tile([0, 0, 1], shots))
    assert np.array_equal(log.bin_idx, np.tile([0, 1, 0], shots))


@pytest.mark.parametrize("p_click", [{}, {"D1": np.zeros(0), "D2": np.zeros(0)}])
def test_sample_clicks_without_cells(p_click):
    log = sample_clicks(ClickDistribution(p_click=p_click), 2 * MC_CHUNK, 3)
    assert len(log) == 0 and log.shots == 2 * MC_CHUNK
    assert log.terminal_order == tuple(p_click)


class _CountingGenerator(np.random.Generator):
    """A Philox generator that counts the uniforms it fills ``out`` with."""

    filled = 0

    def random(self, size=None, dtype=np.float64, out=None):
        out = super().random(size, dtype, out)
        type(self).filled += out.size
        return out


def test_sample_clicks_draws_the_rounds_of_the_densest_cell(monkeypatch):
    """A 303-cell chunk of p = 5e-4 clicks about 66 times a cell; its draw
    stops near that count plus a few sigma, not at one whole
    ``_DRAW_BYTES`` block of 432 rounds."""
    monkeypatch.setattr(np.random, "Generator", _CountingGenerator)
    monkeypatch.setattr(_CountingGenerator, "filled", 0)
    dist = ClickDistribution(p_click={f"D{k}": np.full(101, 5e-4) for k in range(3)})
    log = sample_clicks(dist, MC_CHUNK, 2)
    assert 0 < _CountingGenerator.filled <= 150 * 303
    _assert_equal_events(log, reference_clicks(dist, MC_CHUNK, 2))


def _searched(cdf, u):
    """The index ``coherent._place`` must give: ``searchsorted`` from the
    right, clamped to the last cell."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def _guide_uniforms(table, rng):
    """Random uniforms, every bucket edge k / g and every cdf entry below
    1, with their neighbours one ulp away."""
    cdf, first, _, _ = table
    g = len(first)
    u = np.concatenate([rng.random(5000), np.arange(g) / g, cdf, [0.0, 1 - 2.0**-53]])
    u = np.concatenate([u, np.nextafter(u, 0), np.nextafter(u, 1)])
    return u[(u >= 0) & (u < 1)]


def _one_ulp_below_one(n):
    cdf = np.cumsum(np.full(n, 1.0 / n))
    cdf[-1] = np.nextafter(1.0, 0)
    return cdf


@pytest.mark.parametrize("cdf", [
    np.array([1.0]),
    np.array([np.nextafter(1.0, 0)]),
    coherent._categorical_cdf(np.r_[np.full(2000, 1e-9), 1.0])[0],
    coherent._categorical_cdf(np.r_[0.5, np.full(999, 1e-9), 0.5, np.full(500, 1e-9)])[0],
    coherent._categorical_cdf(np.array([0.0, 0.2, 0.0, 0.0, 0.3, 0.5, 0.0]))[0],
    coherent._categorical_cdf(np.array([0.0, 0.0, 1.0, 0.0]))[0],
    _one_ulp_below_one(3),
    _one_ulp_below_one(64),
    np.array([0.25, 0.5, 0.75, 1.0]),
    np.array([0.125, 0.125, 0.5, 0.5, np.nextafter(0.5, 1), 1.0]),
], ids=["one", "one-ulp-low", "crowded", "crowded-twice", "zeros", "one-live",
        "ulp-3", "ulp-64", "on-edges", "ties-on-edges"])
def test_indexed_search_equals_searchsorted(cdf):
    table = coherent._guide(cdf)
    g = len(table[1])
    assert g >= 2 * len(cdf) and g & (g - 1) == 0
    u = _guide_uniforms(table, np.random.default_rng(len(cdf)))
    assert np.array_equal(coherent._place(table, u), _searched(cdf, u))


def test_indexed_search_equals_searchsorted_on_random_cdfs():
    rng = np.random.default_rng(15)
    for case in range(60):
        p = rng.random(int(rng.integers(1, 3000))) ** [1, 8, 40][case % 3]
        p[rng.random(len(p)) < 0.2 * (case % 2)] = 0.0
        p[0] = max(p[0], 1e-3)
        table = coherent._categorical_cdf(p)
        u = _guide_uniforms(table, rng)
        assert np.array_equal(coherent._place(table, u), _searched(table[0], u))


def test_indexed_search_of_a_cdf_longer_than_half_a_chunk():
    """The guide table stops at one chunk of buckets, so most buckets of a
    longer cdf are crowded and their uniforms searched."""
    table = coherent._categorical_cdf(np.random.default_rng(16).random(MC_CHUNK))
    assert len(table[1]) == MC_CHUNK and table[3]
    u = np.random.default_rng(17).random(10_000)
    assert np.array_equal(coherent._place(table, u), _searched(table[0], u))


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
