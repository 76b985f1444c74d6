"""Monte-Carlo event tables streamed one keyed chunk at a time.

A run's event table is sampled ``sampling.MC_CHUNK`` shots at a time while
``emit`` writes it, so the bytes must not depend on the chunking, memory
must not grow with shots, and the table must read the same on every pass.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from proxyifm.cli import main
from proxyifm.coherent import ClickDistribution, sample_clicks
from proxyifm.fock import FockOracle, sample_joint
from proxyifm.runner import emit, run
from proxyifm.scenarios import load_scenario
from proxyifm.singlephoton import OutcomeDistribution, sample_outcomes

from conftest import MC_CHUNK, column_bytes, hom_spec

# (scenario, extra CLI arguments): one per sampler, and the click sampler
# again at the 18 to 24 cells (5 key bits) of the other coherent scenarios
# beside ``fig2_blocked``'s 33 (6 bits).  ``fringe_sweep``'s mc output is
# ``fig2_open``'s.
SCENARIOS = {
    "fig2_blocked": (),
    "fig2_open": (),
    "fig3_open": (),
    "fig3_blocked_l": (),
    "fig3_blocked_m": (),
    "fig2_tensor_sum_blocked": (),
    "hom_pair": ("--cutoff", "2"),
}

# sha256 of the output of 300,001 shots at seed 7: two full chunks and a
# partial third, drawn from the SplitMix64 keyed stream.  The streamed
# writer gave the bytes of the whole-log writer before it on the earlier
# Philox stream.  The four coherent scenarios past ``fig2_blocked`` give
# the same bytes at numpy's AVX2 kernels.
DIGESTS = {
    ("fig2_blocked", "csv"):
        "07cc451b15c8a0e09de5d4d8023649f1df1aa5136c9927e9f179128dd8ba8ce4",
    ("fig2_blocked", "jsonl"):
        "a3878e9530c065b4ada2d6a8f622d731da3a266526fa0fd82ccc27a0ec621bba",
    ("fig2_open", "jsonl"):
        "14b015e17b23d565b0e3bce72f8dee9a451b33abb98d754013d7542123b55471",
    ("fig3_open", "jsonl"):
        "93846ffe974a353a358c7297366534b2656f0867f94b552bfbb9bb3760b53ef2",
    ("fig3_blocked_l", "jsonl"):
        "a633ab9e9470a1b90126b0c7168ac6bac50a9dc0577ac7b04a9a0aaa46a07525",
    ("fig3_blocked_m", "jsonl"):
        "e1af9273efe04a3bd7a170d9b2b9e89f7e1bceecf20f55b90b8242ec0133e00d",
    ("fig2_tensor_sum_blocked", "csv"):
        "1208fc2ec992c9216f814a1d7eed09b05054660056d3db66a0298d16493e935d",
    ("fig2_tensor_sum_blocked", "jsonl"):
        "6a8f773275cfc1f6cc5085ebf0cdf192bde81987b290d4fde85941c8b34befde",
    ("hom_pair", "csv"):
        "71527320f08e96c473a7ab892900b0c53f67f8cff8931da6eb162dc921591b9f",
    ("hom_pair", "jsonl"):
        "9dd2ff0e722c6d64ec2d5b57df8cd993468d93df44e6e17b5947f9d7491acfc2",
}


@pytest.mark.parametrize("name, fmt", sorted(DIGESTS))
def test_bytes_across_chunk_boundaries_are_pinned(name, fmt, tmp_path, monkeypatch):
    monkeypatch.delenv("PROXYIFM_SEED", raising=False)
    monkeypatch.delenv("PROXYIFM_OUTDIR", raising=False)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", name, *SCENARIOS[name], "--mode", "mc",
                 "--shots", "300001", "--seed", "7", "--format", fmt,
                 "--out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name, fmt]


def _run_and_emit_peak(scenario, shots: int, path) -> int:
    tracemalloc.start()
    try:
        report = run(scenario, mode="mc", shots=shots, seed=7, cutoff=2)
        emit(report, path.suffix[1:], path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_and_emit_memory_is_one_chunk(name, fmt, tmp_path):
    """600,000 shots, four full chunks and a partial fifth, peak no higher
    than one chunk does by half a chunk's column bytes; a writer that kept
    the previous chunk alive would add a whole chunk."""
    scenario = load_scenario(name)
    report = run(scenario, mode="mc", shots=MC_CHUNK, seed=7, cutoff=2)
    (columns,) = report.tables["events"].chunks
    chunk = column_bytes(columns)
    del report, columns
    path = tmp_path / f"out.{fmt}"
    one = _run_and_emit_peak(scenario, MC_CHUNK, path)
    peak = _run_and_emit_peak(scenario, 600_000, path)
    assert peak < one + chunk / 2, \
        f"{peak / 2**20:.2f} MiB against {one / 2**20:.2f} MiB for one chunk"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_report_emits_the_same_bytes_twice(name, tmp_path):
    report = run(load_scenario(name), mode="mc", shots=140_000, seed=3, cutoff=2)
    for fmt in ("csv", "jsonl"):
        emit(report, fmt, tmp_path / f"a.{fmt}")
        emit(report, fmt, tmp_path / f"b.{fmt}")
        assert (tmp_path / f"a.{fmt}").read_bytes() == \
            (tmp_path / f"b.{fmt}").read_bytes()


@pytest.mark.parametrize("len_first", [True, False])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_row_count_before_and_after_emit(name, len_first, tmp_path):
    shots = MC_CHUNK + 10
    scenario = load_scenario(name)
    report = run(scenario, mode="mc", shots=shots, seed=3, cutoff=2)
    if len_first:
        before = len(report.tables["events"].rows)
    emit(report, "csv", tmp_path / "out.csv")
    lines = (tmp_path / "out.csv").read_bytes().count(b"\n") - 1
    if len_first:
        assert before == lines
    assert len(report.tables["events"].rows) == lines
    if scenario.source.kind != "coherent":      # one event per shot
        assert lines == shots


def test_bad_shots_and_probabilities_are_refused_before_emit():
    """``run`` raises, so no output file is ever opened for these."""
    for name in SCENARIOS:
        with pytest.raises(ValueError, match="shots"):
            run(load_scenario(name), mode="mc", shots=0, seed=1, cutoff=2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ClickDistribution(p_click={"D": np.array([0.5, np.nan])})


# -- the samplers' chunk offset ---------------------------------------------

def _chunked(sample, shots):
    """``sample(count, start)`` called once per chunk, in order."""
    return [sample(min(MC_CHUNK, shots - start), start)
            for start in range(0, shots, MC_CHUNK)]


def test_sample_clicks_chunk_by_chunk_equals_one_call():
    shots = 2 * MC_CHUNK + 7
    dist = ClickDistribution(p_click={"D1": np.array([0.3, 0.0, 1e-3]),
                                      "D2": np.array([1.0, 0.05])})
    whole = sample_clicks(dist, shots, 5)
    parts = _chunked(lambda count, start: sample_clicks(dist, count, 5, start),
                     shots)
    for field in ("shot_idx", "terminal", "bin_idx"):
        assert np.array_equal(np.concatenate([getattr(p, field) for p in parts]),
                              getattr(whole, field))
    assert [p.shots for p in parts] == [MC_CHUNK, MC_CHUNK, 7]
    assert parts[2].shot_idx.min() == 2 * MC_CHUNK


def test_sample_outcomes_chunk_by_chunk_equals_one_call():
    shots = MC_CHUNK + 3
    dist = OutcomeDistribution(p={"D": 0.75, "O": 0.25},
                               p_bins={"O": np.array([0.25]),
                                       "D": np.array([0.5, 0.0, 0.25])})
    whole = sample_outcomes(dist, shots, 8)
    parts = _chunked(lambda count, start: sample_outcomes(dist, count, 8, start),
                     shots)
    for field in ("shot_idx", "terminal", "bin_idx"):
        assert np.array_equal(np.concatenate([getattr(p, field) for p in parts]),
                              getattr(whole, field))


def test_sample_joint_chunk_by_chunk_equals_one_call():
    shots = 2 * MC_CHUNK + 1
    oracle = FockOracle(hom_spec(disjoint=True), 2)
    dist = oracle.run(oracle.single_photon_state([("src_a", 0), ("src_b", 0)]))
    whole = sample_joint(dist, shots, 4)
    parts = _chunked(lambda count, start: sample_joint(dist, count, 4, start),
                     shots)
    assert np.array_equal(np.concatenate(parts), whole)
    assert len(set(whole.tolist())) > 1


@pytest.mark.parametrize("start", [1, MC_CHUNK - 1, MC_CHUNK + 1, -MC_CHUNK])
def test_a_start_off_a_chunk_boundary_is_refused(start):
    clicks = ClickDistribution(p_click={"D": np.array([0.5])})
    outcomes = OutcomeDistribution(p={"D": 1.0}, p_bins={"D": np.array([1.0])})
    oracle = FockOracle(hom_spec(), 2)
    joint = oracle.run(oracle.single_photon_state([("src_a", 0), ("src_b", 0)]))
    for sample, dist in ((sample_clicks, clicks), (sample_outcomes, outcomes),
                         (sample_joint, joint)):
        with pytest.raises(ValueError, match="multiple"):
            sample(dist, 10, 1, start)
