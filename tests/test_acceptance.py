"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS line per criterion (run with ``pytest -s``).
"""

import math
import time

import numpy as np
import pytest

from proxyifm.circuit import compile_circuit
from proxyifm.coherent import (
    CoherentTrain,
    click_distribution,
    fringe_sweep,
    interaction_free_probability,
    propagate_coherent,
    sample_clicks,
)
from proxyifm.fock import FockBasis, FockOracle, prepare_coherent_train
from proxyifm.multiport import reck_decompose
from proxyifm.scenarios import load_scenario
from proxyifm.singlephoton import propagate_photon, sample_outcomes, tensor_sum_state

from conftest import (
    ALPHA,
    ALPHA_SQ,
    coherent_overlap,
    coherent_train_expansion,
    collective_power_state,
    fidelity,
    fig2_spec,
    fig3_spec,
    haar_random_unitary,
    hom_spec,
    marginal_pmf,
    p_coincidence,
    p_terminal_coincidence,
    recompose,
    terminal_probability,
    tritter,
    truncated_poisson_pmf,
    verify_cascade_equivalence,
)
from test_multiport import recombination_spec

MC_SEED = 20260811


def _report(criterion, text):
    print(f"\n[acceptance] {criterion}: PASS - {text}")


def test_c01_dark_port_exactness():
    start = time.perf_counter()
    scenario = load_scenario("fig2_open")
    assert scenario.source.n_pulses == 10
    assert abs(scenario.source.alpha) ** 2 == pytest.approx(0.1)
    cc = compile_circuit(scenario.spec)
    field = propagate_coherent(cc, CoherentTrain.uniform(10, 0.1))
    interior = list(cc.interior_bins())
    assert interior == list(range(1, 10))
    for b in interior:
        assert abs(field.amplitudes["D2"][b]) < 1e-12
        assert abs(field.amplitudes["D1"][b] - ALPHA) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("C01 dark-port exactness",
            f"interior D2 < 1e-12, D1 = alpha, {elapsed * 1e3:.0f} ms")


def test_c02_blocked_amplitudes():
    scenario = load_scenario("fig2_blocked")
    cc = compile_circuit(scenario.spec)
    field = propagate_coherent(cc, CoherentTrain.uniform(10, 0.1))
    for b in cc.interior_bins():
        assert abs(field.amplitudes["D1"][b] - ALPHA / 2) < 1e-12
        assert abs(field.amplitudes["D2"][b] - 1j * ALPHA / 2) < 1e-12
    _report("C02 blocked amplitudes", "interior D1 = alpha/2, D2 = i*alpha/2")


def test_c03_counterfactuality_figure():
    start = time.perf_counter()
    scenario = load_scenario("fig2_blocked")
    train = CoherentTrain.uniform(10, 0.1)
    cc = compile_circuit(scenario.spec)

    exact = interaction_free_probability(scenario.spec, train, trigger_bin=5)
    assert exact == pytest.approx(math.exp(-ALPHA_SQ / 2), abs=1e-12)
    # first-order value 1 - |alpha|^2/2 agrees to within |alpha|^4/8
    assert abs(exact - 0.95) <= ALPHA_SQ**2 / 8

    # Monte-Carlo cross-check over 1e6 shots: among trigger clicks at
    # (D2, bin 5), the fraction with no loss click at (obstacle_l, bin 4)
    field = propagate_coherent(cc, train)
    dist = click_distribution(field)
    shots = 1_000_000
    log = sample_clicks(dist, shots=shots, seed=MC_SEED)
    d2_idx = log.terminal_order.index("D2")
    o_idx = log.terminal_order.index("obstacle_l")
    trigger_shots = set(log.shot_idx[(log.terminal == d2_idx)
                                     & (log.bin_idx == 5)].tolist())
    window_shots = set(log.shot_idx[(log.terminal == o_idx)
                                    & (log.bin_idx == 4)].tolist())
    assert len(trigger_shots) > 10_000
    p_hat = 1.0 - len(trigger_shots & window_shots) / len(trigger_shots)
    sigma = math.sqrt(exact * (1 - exact) / len(trigger_shots))
    assert abs(p_hat - exact) <= 3 * sigma
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("C03 counterfactuality figure",
            f"exact {exact:.6f}, MC {p_hat:.6f} +/- {3 * sigma:.6f}, "
            f"{elapsed:.1f} s")


def test_c04_one_photon_proxy_measurement():
    for n in (2, 10, 50):
        cc = compile_circuit(fig2_spec(n_pulses=n))
        dist = propagate_photon(cc, tensor_sum_state(n))
        assert dist.p["D2"] == pytest.approx(1 / (2 * n), abs=1e-12)
        assert dist.p["D1"] == pytest.approx(1 - 1 / (2 * n), abs=1e-12)

    cc = compile_circuit(fig2_spec(n_pulses=10, inserted=True))
    dist = propagate_photon(cc, tensor_sum_state(10))
    assert dist.p["obstacle_l"] == pytest.approx(0.5, abs=1e-12)
    assert dist.p["D1"] == pytest.approx(0.25, abs=1e-12)
    assert dist.p["D2"] == pytest.approx(0.25, abs=1e-12)

    # every Monte-Carlo shot realises exactly one outcome
    shots = 50_000
    log = sample_outcomes(dist, shots=shots, seed=MC_SEED)
    assert np.array_equal(log.shot_idx, np.arange(shots))
    assert np.all((log.bin_idx >= 0) & (log.bin_idx < cc.n_bins))
    names = np.array(log.terminal_order)[log.terminal]
    per_terminal = {"D1": 0.25, "D2": 0.25, "obstacle_l": 0.5}
    for term, p in per_terminal.items():
        got = np.count_nonzero(names == term) / shots
        assert abs(got - p) <= 3 * math.sqrt(p * (1 - p) / shots)
    _report("C04 one-photon proxy measurement",
            "open P(D2) = 1/(2N); blocked (1/2, 1/4, 1/4); exclusive shots")


def test_c05_fringe_law():
    scenario = load_scenario("fringe_sweep")
    phases = np.linspace(0.0, 2 * math.pi, 32)
    rows = fringe_sweep(scenario.spec, phases,
                        source=CoherentTrain.uniform(10, 0.1))
    for phi, p1, p2 in rows:
        assert abs(p1 - 0.5 * (1 + math.cos(phi))) < 1e-9
        assert abs(p2 - 0.5 * (1 - math.cos(phi))) < 1e-9
    pi_row = fringe_sweep(scenario.spec, [math.pi],
                          source=CoherentTrain.uniform(10, 0.1))[0]
    assert pi_row[1] < 1e-9
    assert pi_row[2] == pytest.approx(1.0, abs=1e-9)
    _report("C05 fringe law", "32 points match (1 +/- cos)/2; pi -> all D2")


def test_c06_tritter_and_cascade():
    u3 = tritter()
    assert np.linalg.norm(u3.conj().T @ u3 - np.eye(3)) < 1e-15

    report = verify_cascade_equivalence(recombination_spec(), u3,
                                        output_order=[0, 2, 1])
    assert report.distance < 1e-9

    scenario = load_scenario("fig3_open")
    cc = compile_circuit(scenario.spec)
    train = CoherentTrain.uniform(4, 0.1)
    field = propagate_coherent(cc, train)
    for b in cc.interior_bins():
        assert abs(field.amplitudes["D1"][b] - (-ALPHA)) < 1e-12
        assert abs(field.amplitudes["D2"][b]) < 1e-12
        assert abs(field.amplitudes["D3"][b]) < 1e-12

    blocked = load_scenario("fig3_blocked_l")
    ccb = compile_circuit(blocked.spec)
    fb = propagate_coherent(ccb, train)
    for b in ccb.interior_bins():
        assert abs(fb.amplitudes["D2"][b] - 1j * ALPHA / 4) < 1e-12
        assert abs(fb.amplitudes["D1"][b] - (-3 * ALPHA / 4)) < 1e-12
        assert abs(fb.amplitudes["D3"][b] - (-1j * ALPHA / (2 * math.sqrt(2)))) < 1e-12

    p_empty = interaction_free_probability(blocked.spec, train, trigger_bin=2)
    assert abs(p_empty - (1 - ALPHA_SQ)) <= ALPHA_SQ**2
    _report("C06 tritter and cascade",
            f"cascade residual {report.distance:.1e}; "
            f"three-pulse no-interaction {p_empty:.6f}")


def test_c07_oracle_equivalence():
    start = time.perf_counter()
    cutoff = 5
    # every (N, alpha^2) combination preparable at this cutoff within the
    # 1e-4 truncation-deficit contract
    grid = [(2, 0.1), (3, 0.1), (4, 0.1), (2, 0.2), (3, 0.2)]
    for n, a2 in grid:
        for inserted in (False, True):
            spec = fig2_spec(n_pulses=n, inserted=inserted)
            oracle = FockOracle(spec, cutoff)
            train = CoherentTrain.uniform(n, a2)
            dist = oracle.run(oracle.coherent_train_state(train.alpha, n))
            engine = propagate_coherent(compile_circuit(spec), train)
            mu_tot = train.mean_photons
            for term, amps in engine.amplitudes.items():
                for b, a in enumerate(amps):
                    pmf = marginal_pmf(dist, term, b, cutoff)
                    for k in range(cutoff + 1):
                        predicted = truncated_poisson_pmf(
                            k, abs(a) ** 2, mu_tot, cutoff)
                        assert abs(pmf[k] - predicted) < 1e-6
    # three-pulse cascade against the engine
    spec3 = fig3_spec(n_pulses=3, blocked="l")
    oracle3 = FockOracle(spec3, cutoff)
    train3 = CoherentTrain.uniform(3, 0.1)
    dist3 = oracle3.run(oracle3.coherent_train_state(train3.alpha, 3))
    engine3 = propagate_coherent(compile_circuit(spec3), train3)
    for term, amps in engine3.amplitudes.items():
        for b, a in enumerate(amps):
            pmf = marginal_pmf(dist3, term, b, cutoff)
            for k in range(cutoff + 1):
                predicted = truncated_poisson_pmf(
                    k, abs(a) ** 2, train3.mean_photons, cutoff)
                assert abs(pmf[k] - predicted) < 1e-6

    # one-photon inputs have no truncation deficit: 1e-10 agreement
    for n in (2, 3, 4):
        spec = fig2_spec(n_pulses=n, inserted=True)
        oracle = FockOracle(spec, 2)
        dist = oracle.run(oracle.tensor_sum_state(n))
        engine = propagate_photon(compile_circuit(spec), tensor_sum_state(n))
        for term, p in engine.p.items():
            assert abs(terminal_probability(dist, term) - p) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("C07 oracle equivalence",
            f"coherent within 1e-6, one-photon within 1e-10, {elapsed:.1f} s")


def test_c08_two_photon_contrast():
    oracle = FockOracle(hom_spec(), 2)
    same = oracle.run(oracle.single_photon_state([("src_a", 0), ("src_b", 0)]))
    assert p_coincidence(same, ("D1", 0), ("D2", 0)) <= 1e-12

    disjoint = FockOracle(hom_spec(disjoint=True), 2)
    apart = disjoint.run(
        disjoint.single_photon_state([("src_a", 0), ("src_b", 1)]))
    assert p_terminal_coincidence(apart, "D1", "D2") == pytest.approx(
        0.5, abs=1e-12)
    _report("C08 two-photon contrast",
            "same-bin coincidence 0; disjoint bins 1/2")


def test_c09_collective_expansion_reconstruction():
    n, j_max = 2, 4
    basis = FockBasis.build(n, j_max)
    train = prepare_coherent_train(basis, ALPHA, [0, 1])

    def reconstruct(coeffs):
        rec = np.zeros(basis.dim, dtype=complex)
        for j, c in enumerate(coeffs):
            rec += c * collective_power_state(basis, [0, 1], j).amplitudes
        from proxyifm.fock import FockStateVector
        return FockStateVector(basis, rec)

    corrected = coherent_train_expansion(ALPHA, n, j_max)
    assert 1 - fidelity(train, reconstruct(corrected)) < 1e-6

    softened = [n ** (j / 2) * ALPHA**j / math.sqrt(math.factorial(j))
                for j in range(j_max + 1)]
    assert 1 - fidelity(train, reconstruct(softened)) > 1e-6
    _report("C09 collective expansion",
            "corrected coefficients reconstruct; softened ones fail")


def test_c10_overlap_formula():
    for a2 in (0.01, 0.1, 1.0):
        a = math.sqrt(a2)
        assert abs(abs(coherent_overlap(a, -a)) - math.exp(-2 * a2)) < 1e-12
    _report("C10 overlap formula", "|<a|-a>| = exp(-2|a|^2) at 0.01/0.1/1")


def test_c11_reck_round_trip():
    start = time.perf_counter()
    count = 0
    sizes = list(range(2, 9))
    k = 0
    while count < 100:
        n = sizes[count % len(sizes)]
        u = haar_random_unitary(n, seed=31_000 + k)
        d = reck_decompose(u)
        assert len(d.steps) <= n * (n - 1) // 2
        assert np.linalg.norm(recompose(d) - u) < 1e-10
        count += 1
        k += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("C11 triangular decomposition round-trip",
            f"100 seeded unitaries, N 2..8, {elapsed:.1f} s")
