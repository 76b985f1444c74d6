"""Cross-cutting invariants over the shipped golden scenarios."""

import math
import time

import numpy as np
import pytest

from proxyifm.circuit import Obstacle, compile_circuit
from proxyifm.coherent import (
    CoherentTrain,
    click_distribution,
    propagate_coherent,
    sample_clicks,
)
from proxyifm.fock import FockOracle, sample_joint
from proxyifm.runner import emit, run
from proxyifm.scenarios import list_builtin_scenarios, load_scenario
from proxyifm.singlephoton import propagate_photon, sample_outcomes, tensor_sum_state

from conftest import ALPHA_SQ, dense_map, event_counts, fig2_spec, fig3_spec

MC_SEED = 20260811
COHERENT_SCENARIOS = ("fig2_open", "fig2_blocked", "fig3_open",
                      "fig3_blocked_l", "fig3_blocked_m", "fringe_sweep")
TENSOR_SCENARIOS = ("fig2_tensor_sum_open", "fig2_tensor_sum_blocked")


@pytest.mark.parametrize("name", list_builtin_scenarios())
def test_every_golden_circuit_is_an_isometry(name):
    cc = compile_circuit(load_scenario(name).spec)
    u = dense_map(cc)
    assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1])) < 1e-9


@pytest.mark.parametrize("name,builder", [
    ("fig2_open", lambda: fig2_spec(10, inserted=False)),
    ("fig2_blocked", lambda: fig2_spec(10, inserted=True)),
    ("fig2_tensor_sum_open", lambda: fig2_spec(10, inserted=False)),
    ("fig2_tensor_sum_blocked", lambda: fig2_spec(10, inserted=True)),
    ("fig3_open", lambda: fig3_spec(4)),
    ("fig3_blocked_l", lambda: fig3_spec(4, blocked="l")),
    ("fig3_blocked_m", lambda: fig3_spec(4, blocked="m")),
    ("fringe_sweep", lambda: fig2_spec(10, inserted=False)),
])
def test_golden_files_match_reference_topologies(name, builder):
    # guard against drift between the shipped JSON and the physics the
    # test suite pins down via programmatic builders
    golden = compile_circuit(load_scenario(name).spec)
    reference = compile_circuit(builder())
    assert golden.terminal_order == reference.terminal_order
    assert np.array_equal(dense_map(golden), dense_map(reference))


@pytest.mark.parametrize("name", COHERENT_SCENARIOS)
def test_mc_click_frequencies_within_3_sigma(name):
    scenario = load_scenario(name)
    cc = compile_circuit(scenario.spec)
    dist = click_distribution(propagate_coherent(cc, scenario.source))
    shots = 1_000_000
    log = sample_clicks(dist, shots=shots, seed=MC_SEED)
    counts = event_counts(log)
    for t_idx, term in enumerate(log.terminal_order):
        for b, p in enumerate(dist.p_click[term]):
            got = counts.get((term, b), 0) / shots
            sigma = math.sqrt(max(p * (1 - p), 0.0) / shots)
            assert abs(got - p) <= 3 * sigma + 1e-12, (name, term, b, got, p)


@pytest.mark.parametrize("name", TENSOR_SCENARIOS)
def test_mc_outcome_frequencies_within_3_sigma(name):
    scenario = load_scenario(name)
    cc = compile_circuit(scenario.spec)
    dist = propagate_photon(cc, tensor_sum_state(scenario.source.n_pulses))
    shots = 1_000_000
    log = sample_outcomes(dist, shots=shots, seed=MC_SEED)
    assert np.array_equal(log.shot_idx, np.arange(shots))
    counts = event_counts(log)
    for term in log.terminal_order:
        for b, p in enumerate(dist.p_bins[term]):
            got = counts.get((term, b), 0) / shots
            sigma = math.sqrt(max(p * (1 - p), 0.0) / shots)
            assert abs(got - p) <= 3 * sigma + 1e-12, (name, term, b)


def test_mc_hom_pair_within_3_sigma():
    scenario = load_scenario("hom_pair")
    oracle = FockOracle(scenario.spec, 2)
    dist = oracle.run(oracle.single_photon_state(scenario.source.photons))
    shots = 1_000_000
    drawn = dist.outcomes[sample_joint(dist, shots=shots, seed=MC_SEED)]
    for outcome, p in zip(dist.outcomes, dist.probabilities):
        got = np.count_nonzero((drawn == outcome).all(axis=1)) / shots
        assert abs(got - p) <= 3 * math.sqrt(p * (1 - p) / shots) + 1e-12


def test_three_pulse_window_value_observable_with_both_arms_blocked():
    # the documented no-interaction window counts both delayed arms of the
    # two proxied pulses; with obstacles inserted in both arms those four
    # cells are real loss cells and the window figure becomes a directly
    # sampled conditional
    spec = fig3_spec(n_pulses=4, blocked="l").with_obstacles(
        {"obstacle_l": True, "obstacle_m": True})
    assert all(e.inserted for e in spec.elements if isinstance(e, Obstacle))
    cc = compile_circuit(spec)
    train = CoherentTrain.uniform(4, ALPHA_SQ)
    field = propagate_coherent(cc, train)
    window = [("obstacle_l", 0), ("obstacle_l", 1),
              ("obstacle_m", 0), ("obstacle_m", 1)]
    mu = sum(field.mean_photons(t)[b] for t, b in window)
    assert math.exp(-mu) == pytest.approx(math.exp(-ALPHA_SQ), abs=1e-12)

    dist = click_distribution(field)
    shots = 1_000_000
    log = sample_clicks(dist, shots=shots, seed=7)
    trig_idx = log.terminal_order.index("D2")
    triggers = set(log.shot_idx[(log.terminal == trig_idx)
                                & (log.bin_idx == 2)].tolist())
    assert len(triggers) > 10_000
    hit = set()
    for term, b in window:
        t_idx = log.terminal_order.index(term)
        hit |= set(log.shot_idx[(log.terminal == t_idx)
                                & (log.bin_idx == b)].tolist())
    p_hat = 1.0 - len(triggers & hit) / len(triggers)
    exact = math.exp(-ALPHA_SQ)
    sigma = math.sqrt(exact * (1 - exact) / len(triggers))
    assert abs(p_hat - exact) <= 3 * sigma


@pytest.mark.parametrize("name", list_builtin_scenarios())
def test_golden_round_trip_under_ten_seconds(name, tmp_path):
    start = time.perf_counter()
    scenario = load_scenario(name)
    kwargs = {}
    if scenario.source.kind == "single_photons":
        kwargs["cutoff"] = 2
    report = run(scenario, mode="exact", **kwargs)
    emit(report, "csv", tmp_path / f"{name}.csv")
    assert time.perf_counter() - start < 10.0


def test_oracle_matches_engine_with_mismatched_delay_phase():
    # nonzero delay propagation phase exercises the oracle's per-photon
    # phase handling
    from conftest import fig2_spec
    phi = 0.7
    spec = fig2_spec(n_pulses=3, mismatch=phi)
    oracle = FockOracle(spec, 4)
    train = CoherentTrain.uniform(3, ALPHA_SQ)
    dist = oracle.run(oracle.coherent_train_state(train.alpha, 3))
    field = propagate_coherent(compile_circuit(spec), train)
    for term, amps in field.amplitudes.items():
        for b, a in enumerate(amps):
            assert dist.mean(term, b) == pytest.approx(
                abs(a) ** 2, abs=dist.deficit * 6 + 1e-9)
