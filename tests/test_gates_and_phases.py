"""Bin-gated obstacles, per-pulse phase patterns, and absorber terminals."""

import math

import numpy as np
import pytest

from proxyifm.circuit import (
    Absorber,
    BeamSplitter,
    CircuitSpec,
    Delay,
    Detector,
    PhaseShift,
    Source,
    compile_circuit,
)
from proxyifm.coherent import (
    CoherentTrain,
    click_distribution,
    interaction_free_probability,
    propagate_coherent,
    sample_clicks,
)
from proxyifm.errors import NoLossTerminalError
from proxyifm.fock import FockOracle

from conftest import (
    ALPHA,
    ALPHA_SQ,
    event_records,
    fig2_spec,
    gated_fig2_spec,
    total_output_energy,
)


def test_gated_obstacle_blocks_only_listed_bins():
    cc = compile_circuit(gated_fig2_spec(4, gate={1}))
    field = propagate_coherent(cc, CoherentTrain.uniform(4, ALPHA_SQ))
    loss = field.amplitudes["obstacle_l"]
    assert abs(loss[1] - 1j * ALPHA / math.sqrt(2)) < 1e-12
    for b in (0, 2, 3):
        assert abs(loss[b]) < 1e-15
    # bin 2's interference lost its delayed partner (pulse 1 was absorbed):
    # the surviving direct wave splits evenly
    assert abs(field.amplitudes["D1"][2] - ALPHA / 2) < 1e-12
    assert abs(field.amplitudes["D2"][2] - 1j * ALPHA / 2) < 1e-12
    # bin 3 still interferes fully
    assert abs(field.amplitudes["D1"][3] - ALPHA) < 1e-12
    assert abs(field.amplitudes["D2"][3]) < 1e-12
    assert total_output_energy(field) == pytest.approx(4 * ALPHA_SQ, rel=1e-9)


def test_gated_obstacle_matches_fock_oracle():
    spec = gated_fig2_spec(3, gate={0})
    oracle = FockOracle(spec, 4)
    train = CoherentTrain.uniform(3, ALPHA_SQ)
    dist = oracle.run(oracle.coherent_train_state(train.alpha, 3))
    field = propagate_coherent(compile_circuit(spec), train)
    for term, amps in field.amplitudes.items():
        for b, a in enumerate(amps):
            if (term, b) not in dist.cells:
                # ungated obstacle bins never absorb and have no oracle cell
                assert abs(a) < 1e-15
                continue
            assert dist.mean(term, b) == pytest.approx(
                abs(a) ** 2, abs=dist.deficit * 6 + 1e-9)


def test_alternating_pulse_phases_route_to_d2():
    # consecutive pulses differing by pi interfere into the other port
    n = 6
    train = CoherentTrain(alpha=complex(ALPHA),
                          phases=tuple((j % 2) * math.pi for j in range(n)))
    cc = compile_circuit(fig2_spec(n_pulses=n))
    field = propagate_coherent(cc, train)
    for b in cc.interior_bins():
        assert abs(field.amplitudes["D1"][b]) < 1e-12
        assert abs(abs(field.amplitudes["D2"][b]) - ALPHA) < 1e-12


def test_alternating_phase_train_matches_fock_oracle():
    n = 3
    phases = tuple((j % 2) * math.pi for j in range(n))
    spec = fig2_spec(n_pulses=n)
    oracle = FockOracle(spec, 4)
    dist = oracle.run(oracle.coherent_train_state(ALPHA, n, phases=phases))
    field = propagate_coherent(
        compile_circuit(spec), CoherentTrain(alpha=complex(ALPHA), phases=phases))
    for term, amps in field.amplitudes.items():
        for b, a in enumerate(amps):
            assert dist.mean(term, b) == pytest.approx(
                abs(a) ** 2, abs=dist.deficit * 6 + 1e-9)


def test_absorber_terminal_is_a_loss_terminal():
    spec = CircuitSpec(elements=(
        Source("src", "a", 3),
        BeamSplitter("bs", ("a", "vac1"), ("keep", "dump")),
        Detector("D", "keep"),
        Absorber("sink", "dump"),
    ))
    cc = compile_circuit(spec)
    assert "sink" in cc.loss_terminals
    field = propagate_coherent(cc, CoherentTrain.uniform(3, ALPHA_SQ))
    assert np.allclose(np.abs(field.amplitudes["sink"][:3]) ** 2, ALPHA_SQ / 2)
    assert total_output_energy(field) == pytest.approx(3 * ALPHA_SQ, rel=1e-9)


def test_interaction_free_probability_needs_a_delayed_arm():
    spec = CircuitSpec(elements=(
        Source("src", "a", 3),
        BeamSplitter("bs", ("a", "vac1"), ("x", "y")),
        Detector("D1", "x"),
        Detector("D2", "y"),
    ))
    with pytest.raises(NoLossTerminalError):
        interaction_free_probability(spec, CoherentTrain.uniform(3, ALPHA_SQ), 1)


def test_event_log_records_and_prefix_determinism():
    cc = compile_circuit(fig2_spec(n_pulses=4, inserted=True))
    dist = click_distribution(propagate_coherent(
        cc, CoherentTrain.uniform(4, ALPHA_SQ)))
    small = sample_clicks(dist, shots=1000, seed=5)
    big = sample_clicks(dist, shots=5000, seed=5)
    # same seed: the first 1000 shots of the longer run are the short run
    cut = big.shot_idx < 1000
    assert np.array_equal(big.shot_idx[cut], small.shot_idx)
    assert np.array_equal(big.terminal[cut], small.terminal)
    assert np.array_equal(big.bin_idx[cut], small.bin_idx)
    rec = next(event_records(small), None)
    if rec is not None:
        assert set(rec) == {"shot", "terminal", "bin"}
        assert rec["terminal"] in small.terminal_order
