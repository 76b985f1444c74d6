import math

import numpy as np
import pytest

from proxyifm.circuit import compile_circuit
from proxyifm.errors import ZeroPulsesError
from proxyifm.singlephoton import propagate_photon, sample_outcomes, tensor_sum_state

from conftest import coherent_train_expansion, detection_probability_formula, fig2_spec


def test_tensor_sum_state_single_bin():
    psi = tensor_sum_state(1)
    assert psi[0] == 1.0


def test_tensor_sum_state_four_bins():
    psi = tensor_sum_state(4)
    assert np.allclose(psi, 0.5)


def test_tensor_sum_state_normalised():
    psi = tensor_sum_state(10)
    assert abs(np.sum(np.abs(psi) ** 2) - 1.0) < 1e-15


def test_tensor_sum_rejects_zero():
    with pytest.raises(ZeroPulsesError):
        tensor_sum_state(0)


@pytest.mark.parametrize("n", [2, 10, 50])
def test_open_interferometer_edge_leakage(n):
    cc = compile_circuit(fig2_spec(n_pulses=n))
    dist = propagate_photon(cc, tensor_sum_state(n))
    assert dist.p["D1"] == pytest.approx(1 - 1 / (2 * n), abs=1e-12)
    assert dist.p["D2"] == pytest.approx(1 / (2 * n), abs=1e-12)
    assert dist.p.get("obstacle_l", 0.0) == 0.0


def test_leakage_decreases_monotonically():
    values = []
    for n in (2, 5, 10, 20, 50):
        cc = compile_circuit(fig2_spec(n_pulses=n))
        values.append(propagate_photon(cc, tensor_sum_state(n)).p["D2"])
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.01, abs=1e-12)


def test_interior_dark_bins_and_edge_probability():
    n = 10
    cc = compile_circuit(fig2_spec(n_pulses=n))
    out = cc.propagate(tensor_sum_state(n))
    d2 = out["D2"]
    for b in cc.interior_bins():
        assert abs(d2[b]) < 1e-14
    edge_prob = abs(d2[0]) ** 2 + abs(d2[n]) ** 2
    assert edge_prob == pytest.approx(1 / (2 * n), abs=1e-12)


@pytest.mark.parametrize("n", [2, 4, 10])
def test_blocked_interferometer_exact_outcomes(n):
    cc = compile_circuit(fig2_spec(n_pulses=n, inserted=True))
    dist = propagate_photon(cc, tensor_sum_state(n))
    assert dist.p["obstacle_l"] == pytest.approx(0.5, abs=1e-12)
    assert dist.p["D1"] == pytest.approx(0.25, abs=1e-12)
    assert dist.p["D2"] == pytest.approx(0.25, abs=1e-12)


def test_single_bin_photon_splits_evenly():
    cc = compile_circuit(fig2_spec(n_pulses=1))
    dist = propagate_photon(cc, np.array([1.0 + 0j]))
    assert dist.p["D1"] == pytest.approx(0.5, abs=1e-12)
    assert dist.p["D2"] == pytest.approx(0.5, abs=1e-12)


def test_outcome_probabilities_sum_to_one():
    for n, inserted in ((3, False), (7, True)):
        cc = compile_circuit(fig2_spec(n_pulses=n, inserted=inserted))
        dist = propagate_photon(cc, tensor_sum_state(n))
        assert dist.total() == pytest.approx(1.0, abs=1e-12)


def test_norm_preserved_including_absorbed():
    cc = compile_circuit(fig2_spec(n_pulses=6, inserted=True))
    out = cc.propagate(tensor_sum_state(6))
    assert "obstacle_l" in out
    norm_squared = sum(float(np.sum(np.abs(a) ** 2)) for a in out.values())
    assert norm_squared == pytest.approx(1.0, abs=1e-12)


def test_detection_probability_formula():
    assert detection_probability_formula(0.0) == pytest.approx(1.0)
    assert detection_probability_formula(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert detection_probability_formula(2 * math.pi / 3) == pytest.approx(0.25)


def test_delay_phase_sweep_reproduces_formula():
    # interior-bin probability under a swept delay phase follows the
    # analytic fringe for the one-photon state too
    n = 10
    for phi in np.linspace(0, 2 * math.pi, 9):
        cc = compile_circuit(fig2_spec(n_pulses=n, mismatch=float(phi)))
        out = cc.propagate(tensor_sum_state(n))
        mid = 5
        p_d1 = abs(out["D1"][mid]) ** 2 * n
        assert abs(p_d1 - detection_probability_formula(phi)) < 1e-9


def test_sampler_draws_exactly_one_outcome_per_shot():
    cc = compile_circuit(fig2_spec(n_pulses=5, inserted=True))
    dist = propagate_photon(cc, tensor_sum_state(5))
    log = sample_outcomes(dist, shots=20_000, seed=11)
    assert len(log) == 20_000
    assert np.array_equal(log.shot_idx, np.arange(20_000))
    names = np.array(log.terminal_order)[log.terminal]
    assert np.all((log.bin_idx >= 0) & (log.bin_idx < cc.n_bins))
    # frequencies agree with the exact outcome probabilities within 3 sigma
    terminal_p = {"D1": 0.25, "D2": 0.25, "obstacle_l": 0.5}
    for term, p in terminal_p.items():
        got = np.count_nonzero(names == term) / len(log)
        sigma = math.sqrt(p * (1 - p) / len(log))
        assert abs(got - p) <= 3 * sigma


def test_sampler_is_seed_deterministic():
    cc = compile_circuit(fig2_spec(n_pulses=4, inserted=True))
    dist = propagate_photon(cc, tensor_sum_state(4))
    a = sample_outcomes(dist, shots=1000, seed=5)
    b = sample_outcomes(dist, shots=1000, seed=5)
    assert np.array_equal(a.terminal, b.terminal)
    assert np.array_equal(a.bin_idx, b.bin_idx)


def test_expansion_vacuum_coefficient():
    n, alpha = 3, math.sqrt(0.1)
    coeffs = coherent_train_expansion(alpha, n, 4)
    assert coeffs[0] == pytest.approx(math.exp(-n * alpha**2 / 2), abs=1e-15)


def test_expansion_of_vacuum_train():
    coeffs = coherent_train_expansion(0.0, 5, 3)
    assert coeffs[0] == 1.0
    assert np.all(coeffs[1:] == 0.0)


def test_expansion_coefficients_closed_form():
    n, alpha = 2, math.sqrt(0.1)
    coeffs = coherent_train_expansion(alpha, n, 4)
    for j in range(5):
        expected = (math.exp(-n * alpha**2 / 2)
                    * (math.sqrt(n) * alpha) ** j / math.factorial(j))
        assert coeffs[j] == pytest.approx(expected, abs=1e-15)
