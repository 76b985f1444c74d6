"""The Monte-Carlo samplers against plain references, their prefix
property and the memory of the click sampler.

``sample_clicks`` draws each keyed chunk in row blocks; the events must
equal those of one whole-chunk uniform draw (``conftest.reference_clicks``)
at every block shape.  Every sampler is keyed per chunk of shots, so a
short run is the prefix of a longer one with the same seed.
"""

import tracemalloc

import numpy as np
import pytest

from proxyifm import coherent
from proxyifm.coherent import ClickDistribution, sample_clicks
from proxyifm.fock import FockOracle, sample_joint
from proxyifm.singlephoton import OutcomeDistribution, sample_outcomes

from conftest import MC_CHUNK, hom_spec, reference_clicks


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
    cells_small, small = sample_outcomes(dist, 1000, 7)
    cells_big, big = sample_outcomes(dist, 300_000, 7)
    assert cells_small == cells_big == [("D1", 0), ("D1", 1), ("D2", 0), ("loss", 0)]
    assert np.array_equal(small, big[:1000])


def test_sample_joint_prefix_property():
    oracle = FockOracle(hom_spec(), 2)
    dist = oracle.run(oracle.single_photon_state([("src_a", 0), ("src_b", 0)]))
    small = sample_joint(dist, 1000, 7)
    big = sample_joint(dist, 300_000, 7)
    assert small == big[:1000]
    assert set(big) == {(2, 0), (0, 2)}


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
