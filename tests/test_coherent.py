import json
import math

import numpy as np
import pytest

from proxyifm import replace
from proxyifm.circuit import Absorber, Delay, Detector, PhaseShift, compile_circuit
from proxyifm.coherent import (
    ClickDistribution,
    CoherentTrain,
    click_distribution,
    fringe_sweep,
    interaction_free_probability,
    propagate_coherent,
    sample_clicks,
)
from proxyifm.errors import (
    BinOverflowError,
    NoLossTerminalError,
    ParseError,
    ZeroPulsesError,
)
from proxyifm.scenarios import builtin_scenario_path, load_scenario

from conftest import (
    ALPHA,
    ALPHA_SQ,
    coherent_overlap,
    event_counts,
    fig2_spec,
    fig3_spec,
    total_output_energy,
    with_element,
)


def conditional_no_interaction(circuit, field, trigger, window):
    """P(no click on the window's loss cells | click on the trigger cell).

    Output cells carry independent Poisson statistics, so the conditional
    equals ``exp(-sum of window cell means)`` in closed form.  The trigger
    must be a detector cell.  Window cells naming a retracted obstacle
    (absent from the field) carry no loss amplitude and contribute zero,
    so with the obstacle out the figure is exactly 1.
    """
    t_term, _ = trigger
    if t_term in circuit.loss_terminals:
        raise ValueError(f"trigger {t_term!r} is a loss terminal, not a detector")
    if not window:
        raise NoLossTerminalError("empty no-interaction window")
    mu = 0.0
    for term, b in window:
        if term not in field.amplitudes:
            continue
        if term not in circuit.loss_terminals:
            raise ValueError(f"window cell ({term!r}, {b}) is not a loss cell")
        mu += float(np.abs(field.amplitudes[term][b]) ** 2)
    return math.exp(-mu)


@pytest.fixture(scope="module")
def open_field():
    cc = compile_circuit(fig2_spec(n_pulses=10))
    return cc, propagate_coherent(cc, CoherentTrain.uniform(10, ALPHA_SQ))


@pytest.fixture(scope="module")
def blocked_field():
    cc = compile_circuit(fig2_spec(n_pulses=10, inserted=True))
    return cc, propagate_coherent(cc, CoherentTrain.uniform(10, ALPHA_SQ))


def test_train_requires_pulses():
    with pytest.raises(ZeroPulsesError):
        CoherentTrain.uniform(0, 0.1)


def test_open_interior_bins_all_light_at_d1(open_field):
    cc, field = open_field
    d1 = field.amplitudes["D1"]
    d2 = field.amplitudes["D2"]
    for b in cc.interior_bins():
        assert abs(d1[b] - ALPHA) < 1e-12
        assert abs(d2[b]) < 1e-12


def test_blocked_interior_amplitudes(blocked_field):
    cc, field = blocked_field
    for b in cc.interior_bins():
        assert abs(field.amplitudes["D1"][b] - ALPHA / 2) < 1e-12
        assert abs(field.amplitudes["D2"][b] - 1j * ALPHA / 2) < 1e-12
    # each pulse leaves i*alpha/sqrt2 at the obstacle
    for b in range(10):
        assert abs(field.amplitudes["obstacle_l"][b] - 1j * ALPHA / math.sqrt(2)) < 1e-12


def test_vacuum_train_gives_vacuum_output():
    cc = compile_circuit(fig2_spec(n_pulses=4))
    field = propagate_coherent(cc, CoherentTrain(alpha=0.0, phases=(0.0,) * 4))
    for amps in field.amplitudes.values():
        assert np.all(np.abs(amps) < 1e-15)


def test_energy_conservation_open_and_blocked(open_field, blocked_field):
    train = CoherentTrain.uniform(10, ALPHA_SQ)
    for _, field in (open_field, blocked_field):
        assert total_output_energy(field) == pytest.approx(
            train.mean_photons, rel=1e-9)


def test_propagation_is_linear():
    cc = compile_circuit(fig2_spec(n_pulses=5, inserted=True))
    base = CoherentTrain.uniform(5, ALPHA_SQ)
    scaled = CoherentTrain(alpha=base.alpha * (2.0 - 1.5j), phases=base.phases)
    f1 = propagate_coherent(cc, base)
    f2 = propagate_coherent(cc, scaled)
    for t in f1.amplitudes:
        assert np.allclose(f2.amplitudes[t], (2.0 - 1.5j) * f1.amplitudes[t])


def test_train_overflow_rejected():
    cc = compile_circuit(fig2_spec(n_pulses=4))
    with pytest.raises(BinOverflowError):
        propagate_coherent(cc, CoherentTrain.uniform(9, ALPHA_SQ))


def test_fig3_open_overlapped_bin():
    cc = compile_circuit(fig3_spec(n_pulses=4))
    field = propagate_coherent(cc, CoherentTrain.uniform(4, ALPHA_SQ))
    for b in cc.interior_bins():
        assert abs(field.amplitudes["D1"][b] - (-ALPHA)) < 1e-12
        assert abs(field.amplitudes["D2"][b]) < 1e-12
        assert abs(field.amplitudes["D3"][b]) < 1e-12


def test_fig3_blocked_l_overlapped_bin():
    cc = compile_circuit(fig3_spec(n_pulses=4, blocked="l"))
    field = propagate_coherent(cc, CoherentTrain.uniform(4, ALPHA_SQ))
    for b in cc.interior_bins():
        assert abs(field.amplitudes["D2"][b] - 1j * ALPHA / 4) < 1e-12
        assert abs(field.amplitudes["D1"][b] - (-3 * ALPHA / 4)) < 1e-12
        assert abs(field.amplitudes["D3"][b] - (-1j * ALPHA / (2 * math.sqrt(2)))) < 1e-12
    for b in range(4):
        assert abs(field.amplitudes["obstacle_l"][b] - 1j * ALPHA / 2) < 1e-12
    assert total_output_energy(field) == pytest.approx(0.4, rel=1e-9)


def test_fig3_blocked_m_energy_and_absorption():
    cc = compile_circuit(fig3_spec(n_pulses=4, blocked="m"))
    field = propagate_coherent(cc, CoherentTrain.uniform(4, ALPHA_SQ))
    for b in range(4):
        assert abs(field.amplitudes["obstacle_m"][b] - (-ALPHA / 2)) < 1e-12
    assert total_output_energy(field) == pytest.approx(0.4, rel=1e-9)


def test_click_probability_closed_form():
    cc = compile_circuit(fig2_spec(n_pulses=10))
    field = propagate_coherent(cc, CoherentTrain.uniform(10, ALPHA_SQ))
    dist = click_distribution(field)
    interior = list(cc.interior_bins())
    assert dist.p_click["D1"][interior[0]] == pytest.approx(
        1 - math.exp(-0.1), abs=1e-12)
    assert dist.p_click["D2"][interior[0]] == pytest.approx(0.0, abs=1e-12)
    assert all(0.0 <= p <= 1.0 for arr in dist.p_click.values() for p in arr)


def test_click_probability_limits():
    assert 1 - math.exp(-0.1) == pytest.approx(0.09516258196404048)
    big = click_distribution(
        type("F", (), {"amplitudes": {"D": np.array([100.0 + 0j])}})())
    assert big.p_click["D"][0] == pytest.approx(1.0)


def test_sampling_is_seed_deterministic(blocked_field):
    _, field = blocked_field
    dist = click_distribution(field)
    a = sample_clicks(dist, shots=5000, seed=42)
    b = sample_clicks(dist, shots=5000, seed=42)
    assert np.array_equal(a.shot_idx, b.shot_idx)
    assert np.array_equal(a.terminal, b.terminal)
    assert np.array_equal(a.bin_idx, b.bin_idx)
    c = sample_clicks(dist, shots=5000, seed=43)
    assert not (np.array_equal(a.shot_idx, c.shot_idx)
                and np.array_equal(a.bin_idx, c.bin_idx))


def test_sampling_zero_probability_gives_no_events():
    dist = click_distribution(
        type("F", (), {"amplitudes": {"D": np.zeros(3, dtype=complex)}})())
    log = sample_clicks(dist, shots=100, seed=1)
    assert len(log) == 0


def test_sampling_certain_cell_fires_every_shot():
    dist = ClickDistribution(p_click={"D": np.array([1.0])})
    log = sample_clicks(dist, shots=10, seed=3)
    assert len(log) == 10
    assert set(log.shot_idx.tolist()) == set(range(10))


@pytest.mark.parametrize("scenario_spec,cells", [
    (fig2_spec(10, inserted=True), [("D2", 5), ("obstacle_l", 4), ("D1", 5)]),
    (fig2_spec(10, inserted=False), [("D1", 5), ("D2", 0)]),
    (fig3_spec(4, blocked="l"), [("D1", 2), ("D2", 2), ("D3", 2), ("obstacle_l", 1)]),
])
def test_click_frequencies_within_3_sigma(scenario_spec, cells):
    cc = compile_circuit(scenario_spec)
    n = cc._sources[0].n_bins
    field = propagate_coherent(cc, CoherentTrain.uniform(n, ALPHA_SQ))
    dist = click_distribution(field)
    shots = 200_000
    log = sample_clicks(dist, shots=shots, seed=90210)
    counts = event_counts(log)
    for term, b in cells:
        p = dist.p_click[term][b]
        got = counts.get((term, b), 0) / shots
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
        assert abs(got - p) <= 3 * sigma + 1e-9, (term, b, got, p)


def test_blocked_d2_click_rate_value(blocked_field):
    _, field = blocked_field
    dist = click_distribution(field)
    assert dist.p_click["D2"][5] == pytest.approx(1 - math.exp(-ALPHA_SQ / 4),
                                                  abs=1e-12)
    assert 1 - math.exp(-ALPHA_SQ / 4) == pytest.approx(0.0246900879716673, abs=1e-12)


def test_conditional_no_interaction_fig2(blocked_field):
    cc, field = blocked_field
    # window: the blocked slice of the proxied pulse (trigger bin j -> pulse j-1)
    p = conditional_no_interaction(cc, field, ("D2", 5), [("obstacle_l", 4)])
    assert p == pytest.approx(math.exp(-ALPHA_SQ / 2), abs=1e-12)
    # first-order value 1 - |alpha|^2/2, agreement to O(|alpha|^4)
    assert abs(p - (1 - ALPHA_SQ / 2)) < ALPHA_SQ ** 2 / 8


def test_conditional_no_interaction_rejects_empty_window(open_field):
    cc, field = open_field
    with pytest.raises(NoLossTerminalError):
        conditional_no_interaction(cc, field, ("D2", 5), [])


def test_conditional_no_interaction_is_one_with_obstacle_out(open_field):
    # retracted obstacle: no loss amplitude anywhere, the figure is exactly 1
    cc, field = open_field
    assert conditional_no_interaction(
        cc, field, ("D2", 5), [("obstacle_l", 4)]) == 1.0


def test_conditional_no_interaction_rejects_loss_trigger(blocked_field):
    cc, field = blocked_field
    with pytest.raises(ValueError):
        conditional_no_interaction(cc, field, ("obstacle_l", 5), [("obstacle_l", 4)])


def test_interaction_free_probability_fig2_matches_cell_window():
    spec = fig2_spec(n_pulses=10, inserted=True)
    train = CoherentTrain.uniform(10, ALPHA_SQ)
    p = interaction_free_probability(spec, train, trigger_bin=5)
    assert p == pytest.approx(math.exp(-ALPHA_SQ / 2), abs=1e-12)
    cc = compile_circuit(spec)
    field = propagate_coherent(cc, train)
    assert p == pytest.approx(
        conditional_no_interaction(cc, field, ("D2", 5), [("obstacle_l", 4)]),
        abs=1e-12)


def test_interaction_free_probability_fig3():
    spec = fig3_spec(n_pulses=4, blocked="l")
    train = CoherentTrain.uniform(4, ALPHA_SQ)
    # two proxied pulses, each sending |alpha|^2/2 into the delay stage
    p = interaction_free_probability(spec, train, trigger_bin=2)
    assert p == pytest.approx(math.exp(-ALPHA_SQ), abs=1e-12)
    assert abs(p - (1 - ALPHA_SQ)) < ALPHA_SQ ** 2
    # identical for the other blocked arm: the window is obstacle-independent
    p_m = interaction_free_probability(
        fig3_spec(n_pulses=4, blocked="m"), train, trigger_bin=2)
    assert p_m == pytest.approx(p, abs=1e-15)


def test_fringe_sweep_matches_cosine_law():
    spec = fig2_spec(n_pulses=10)
    phases = np.linspace(0.0, 2 * math.pi, 32)
    rows = fringe_sweep(spec, phases)
    for phi, p1, p2 in rows:
        assert abs(p1 - 0.5 * (1 + math.cos(phi))) < 1e-9
        assert abs(p2 - 0.5 * (1 - math.cos(phi))) < 1e-9


def test_fringe_sweep_extremes():
    spec = fig2_spec(n_pulses=6)
    rows = fringe_sweep(spec, [0.0, math.pi / 2, math.pi])
    assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
    assert rows[0][2] == pytest.approx(0.0, abs=1e-12)
    assert rows[1][1] == pytest.approx(0.5, abs=1e-12)
    assert rows[2][1] == pytest.approx(0.0, abs=1e-12)
    assert rows[2][2] == pytest.approx(1.0, abs=1e-12)


def _fringe_rows_compiled_per_phase(spec, phases, source):
    """The sweep as it was first written: a compile of the spec with the
    delay's phase replaced, and a propagation, for every phase."""
    (delay,) = [e for e in spec.elements if isinstance(e, Delay)]
    per_pulse = abs(source.alpha) ** 2
    rows = []
    for phi in phases:
        compiled = compile_circuit(with_element(spec, replace(delay, phase=float(phi))))
        d1, d2 = compiled.detector_ids()[:2]
        field = propagate_coherent(compiled, source)
        mid = compiled.middle_interior_bin()
        rows.append((float(phi),
                     float(field.mean_photons(d1)[mid] / per_pulse),
                     float(field.mean_photons(d2)[mid] / per_pulse)))
    return rows


def test_fringe_sweep_walks_one_layout_with_the_bits_of_a_compile_per_phase(
        tmp_path):
    n = 500
    doc = json.loads(builtin_scenario_path("fringe_sweep").read_text(encoding="utf-8"))
    rng = np.random.default_rng(2203)
    doc["pulses"].update(n=n, alpha_squared=0.37,
                         phases=rng.uniform(-math.pi, math.pi, n).tolist())
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    scenario = load_scenario(path)
    source = CoherentTrain(alpha=complex(math.sqrt(0.37)),
                           phases=scenario.source.phases)
    phases = np.linspace(-3.0, 3.1, 32)
    rows = fringe_sweep(scenario.spec, phases, source=source)
    expected = _fringe_rows_compiled_per_phase(scenario.spec, phases, source)
    assert len(rows) == 32
    assert np.array_equal(np.array(rows).view(np.uint64),
                          np.array(expected).view(np.uint64))


@pytest.mark.parametrize("delays", [0, 2])
def test_fringe_sweep_needs_exactly_one_delay(delays):
    if delays == 0:
        spec = fig2_spec(n_pulses=6)
        (delay,) = [e for e in spec.elements if isinstance(e, Delay)]
        spec = with_element(spec, PhaseShift(delay.id, delay.input, delay.output, 0.0))
    else:
        spec = fig3_spec(n_pulses=6)
    assert sum(isinstance(e, Delay) for e in spec.elements) == delays
    compile_circuit(spec)                       # a valid circuit all the same
    with pytest.raises(ParseError, match="exactly one delay"):
        fringe_sweep(spec, [0.0, 1.0])


@pytest.mark.parametrize("detectors", [0, 1])
def test_fringe_sweep_needs_two_detectors(detectors):
    # Each dropped detector's wire ends in an absorber instead.
    spec = fig2_spec(n_pulses=6)
    dropped = ("D1", "D2")[detectors:]
    spec = replace(spec, elements=tuple(
        Absorber(e.id, e.wire) if e.id in dropped else e for e in spec.elements))
    assert sum(isinstance(e, Detector) for e in spec.elements) == detectors
    compile_circuit(spec)                       # a valid circuit all the same
    with pytest.raises(ParseError,
                       match=f"two detectors; the scenario has {detectors}"):
        fringe_sweep(spec, [0.0, 1.0])


def test_coherent_overlap_values():
    a = math.sqrt(0.1)
    assert abs(coherent_overlap(a, -a)) == pytest.approx(math.exp(-0.2), abs=1e-15)
    assert coherent_overlap(0.3 + 0.2j, 0.3 + 0.2j) == pytest.approx(1.0, abs=1e-15)
    beta = 0.7 - 0.1j
    assert coherent_overlap(0.0, beta) == pytest.approx(
        math.exp(-abs(beta) ** 2 / 2), abs=1e-15)
    assert abs(coherent_overlap(a, -a) - math.exp(-0.2)) < 1e-12
    assert math.exp(-0.2) == pytest.approx(0.8187307530779818)
