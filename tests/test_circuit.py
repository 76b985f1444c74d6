import math
import tracemalloc

import numpy as np
import pytest

from proxyifm import replace
from proxyifm.circuit import (
    MAX_MAP_BYTES,
    Absorber,
    BeamSplitter,
    CircuitSpec,
    Delay,
    Detector,
    Obstacle,
    Source,
    compile_circuit,
    default_beamsplitter,
)
from proxyifm.coherent import CoherentTrain, propagate_coherent
from proxyifm.fock import FockOracle
from proxyifm.errors import (
    BinOverflowError,
    CyclicGraphError,
    DanglingPortError,
    NonUnitaryBeamSplitterError,
    StateTooLargeError,
)
from proxyifm.scenarios import list_builtin_scenarios, load_scenario

from conftest import (
    ALPHA,
    circuit_spatial_unitary,
    dense_map,
    fig2_spec,
    fig3_spec,
    gated_fig2_spec,
    map_column,
    map_row,
    total_output_energy,
)


def test_default_beamsplitter_is_unitary():
    b = default_beamsplitter()
    assert np.linalg.norm(b.conj().T @ b - np.eye(2)) < 1e-15


def test_default_beamsplitter_splits_single_input():
    out = default_beamsplitter() @ np.array([ALPHA, 0.0])
    assert out[0] == pytest.approx(ALPHA / math.sqrt(2))
    assert out[1] == pytest.approx(1j * ALPHA / math.sqrt(2))


def test_default_beamsplitter_vacuum():
    out = default_beamsplitter() @ np.array([0.0, 0.0])
    assert np.all(out == 0)


def test_default_beamsplitter_dark_port():
    # (1, i) drives one output port exactly dark
    out = default_beamsplitter() @ np.array([1.0, 1.0j])
    assert abs(out[0]) < 1e-15
    assert abs(abs(out[1]) - math.sqrt(2)) < 1e-15


def test_mach_zehnder_null_port():
    # applying the splitter twice to (1, 0): one port dark up to global phase
    out = default_beamsplitter() @ (default_beamsplitter() @ np.array([1.0, 0.0]))
    assert abs(out[0]) < 1e-15
    assert abs(out[1]) == pytest.approx(1.0)


def test_identity_circuit_compiles_to_identity():
    spec = CircuitSpec(elements=(
        Source("src", "a", 4),
        Detector("D", "a"),
    ), n_bins=4)
    cc = compile_circuit(spec)
    assert np.array_equal(dense_map(cc), np.eye(4, dtype=complex))


def test_fig2_open_is_isometry():
    cc = compile_circuit(fig2_spec())
    u = dense_map(cc)
    gram = u.conj().T @ u
    assert np.abs(np.diag(gram) - 1).max() < 1e-10
    assert np.linalg.norm(gram - np.eye(u.shape[1])) < 1e-9


def test_fig2_blocked_matches_hand_multiplied_chain():
    # independent oracle: multiply the 2x2 chain by hand for one pulse
    b = default_beamsplitter()
    s_amp = b[0, 0]                      # a -> s
    l_amp = b[1, 0]                      # a -> l, absorbed before the delay
    expected_d1 = b[0, 0] * s_amp        # s -> c
    expected_d2 = b[1, 0] * s_amp        # s -> d
    expected_loss = l_amp

    cc = compile_circuit(fig2_spec(n_pulses=3, inserted=True))
    col = dense_map(cc)[:, 1]            # input pulse on bin 1
    d1, d2, oo = (col[map_row(cc, t, 0):map_row(cc, t, cc.n_bins)]
                  for t in ("D1", "D2", "obstacle_l"))
    assert d1[1] == pytest.approx(expected_d1, abs=1e-14)
    assert d2[1] == pytest.approx(expected_d2, abs=1e-14)
    assert oo[1] == pytest.approx(expected_loss, abs=1e-14)
    # blocked case: the open-arm column still lands somewhere (isometry)
    assert np.sum(np.abs(col) ** 2) == pytest.approx(1.0, abs=1e-12)
    # nothing survives on the delayed path
    assert abs(d1[2]) < 1e-14 and abs(d2[2]) < 1e-14


def test_blocked_loss_rows_carry_full_arm_amplitude():
    cc = compile_circuit(fig2_spec(n_pulses=3, inserted=True))
    loss = dense_map(cc)[map_row(cc, "obstacle_l", 0):map_row(cc, "obstacle_l", cc.n_bins)]
    # each pulse deposits |i/sqrt2|^2 = 1/2 of its energy at the obstacle
    col_energy = np.sum(np.abs(loss) ** 2, axis=0)
    assert np.allclose(col_energy, 0.5, atol=1e-12)


def test_obstacle_retracted_identical_to_deleted():
    with_flag = compile_circuit(fig2_spec(n_pulses=5, inserted=False))
    deleted = CircuitSpec(elements=tuple(
        e for e in fig2_spec(n_pulses=5).elements if not isinstance(e, Obstacle)))
    # rewire around the deleted obstacle
    elements = []
    for e in deleted.elements:
        if isinstance(e, Delay):
            e = Delay(e.id, "l0", e.output, e.bins, e.phase)
        elements.append(e)
    without = compile_circuit(CircuitSpec(elements=tuple(elements)))
    assert np.array_equal(dense_map(with_flag), dense_map(without))


def test_delay_composition_is_exact():
    def chain(delays):
        elements = [Source("src", "w0", 3),
                    BeamSplitter("bs", ("w0", "vac1"), ("u0", "p0"))]
        wire = "u0"
        for k, bins in enumerate(delays):
            elements.append(Delay(f"d{k}", wire, f"u{k+1}", bins))
            wire = f"u{k+1}"
        elements += [Detector("DA", wire), Detector("DB", "p0")]
        return compile_circuit(CircuitSpec(elements=tuple(elements), n_bins=8))

    assert np.array_equal(dense_map(chain([2, 3])), dense_map(chain([5])))
    assert np.array_equal(dense_map(chain([0, 5])), dense_map(chain([5])))


def test_delay_is_exact_integer_shift():
    spec = CircuitSpec(elements=(
        Source("src", "a", 2),
        Delay("d", "a", "b", bins=3),
        Detector("D", "b"),
    ), n_bins=6)
    u = dense_map(compile_circuit(spec))
    expected = np.zeros((6, 2), dtype=complex)
    expected[3, 0] = 1.0
    expected[4, 1] = 1.0
    assert np.array_equal(u, expected)


def test_compile_is_deterministic():
    a = compile_circuit(fig2_spec(inserted=True))
    b = compile_circuit(fig2_spec(inserted=True))
    assert np.array_equal(dense_map(a), dense_map(b))
    assert a.terminal_order == b.terminal_order


def test_bin_overflow_names_the_delay():
    spec = CircuitSpec(elements=(
        Source("src", "a", 4),
        Delay("late", "a", "b", bins=2),
        Detector("D", "b"),
    ), n_bins=5)
    with pytest.raises(BinOverflowError, match="late"):
        compile_circuit(spec)


def test_dangling_wire_rejected():
    spec = CircuitSpec(elements=(
        Source("src", "a", 2),
        BeamSplitter("bs", ("a", "vac1"), ("x", "y")),
        Detector("D", "x"),
    ))
    with pytest.raises(DanglingPortError, match="y"):
        compile_circuit(spec)


def test_unproduced_wire_rejected():
    spec = CircuitSpec(elements=(
        Source("src", "a", 2),
        Detector("D", "nowhere"),
        Detector("D2", "a"),
    ))
    with pytest.raises(DanglingPortError, match="nowhere"):
        compile_circuit(spec)


def test_cycle_rejected():
    spec = CircuitSpec(elements=(
        Source("src", "a", 2),
        BeamSplitter("bs", ("a", "loop"), ("out", "loop")),
        Detector("D", "out"),
    ))
    with pytest.raises(CyclicGraphError, match="bs"):
        compile_circuit(spec)


def test_non_unitary_beamsplitter_rejected():
    bad = np.array([[1.0, 0.0], [0.0, 0.5]])
    spec = CircuitSpec(elements=(
        Source("src", "a", 2),
        BeamSplitter("bs", ("a", "vac1"), ("x", "y"), matrix=bad),
        Detector("D1", "x"),
        Detector("D2", "y"),
    ))
    with pytest.raises(NonUnitaryBeamSplitterError, match="bs"):
        compile_circuit(spec)


def test_nan_beamsplitter_residual_rejected():
    # A NaN residual never compares greater than the tolerance.
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    spec = CircuitSpec(elements=(
        Source("src", "a", 2),
        BeamSplitter("bs", ("a", "vac1"), ("x", "y"), matrix=bad),
        Detector("D1", "x"),
        Detector("D2", "y"),
    ))
    with pytest.raises(NonUnitaryBeamSplitterError, match="bs"):
        compile_circuit(spec)


def test_spatial_unitary_single_splitter():
    spec = CircuitSpec(elements=(
        Source("src", "a", 1),
        BeamSplitter("bs", ("a", "vac1"), ("x", "y")),
        Detector("D1", "x"),
        Detector("D2", "y"),
    ))
    assert np.allclose(circuit_spatial_unitary(spec), default_beamsplitter())


def test_spatial_unitary_two_splitters_dark_port():
    spec = CircuitSpec(elements=(
        Source("src", "a", 1),
        BeamSplitter("bs1", ("a", "vac1"), ("x", "y")),
        BeamSplitter("bs2", ("x", "y"), ("c", "d")),
        Detector("D1", "c"),
        Detector("D2", "d"),
    ))
    u = circuit_spatial_unitary(spec)
    assert abs(u[0, 0]) < 1e-12
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-10


def test_spatial_unitary_is_unitary_for_cascade():
    u = circuit_spatial_unitary(fig3_spec())
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-10


def test_spatial_unitary_treats_obstacle_as_transparent():
    spec = CircuitSpec(elements=(
        Source("src", "a", 1),
        BeamSplitter("bs", ("a", "vac1"), ("x", "y")),
        BeamSplitter("bs2", ("x", "y"), ("c", "d")),
        Obstacle("block", "d", "d1", inserted=True),
        Detector("D1", "c"),
        Detector("D2", "d1"),
    ))
    u = circuit_spatial_unitary(spec)
    assert u.shape == (2, 2)
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-10


def test_interior_bins_fig2():
    cc = compile_circuit(fig2_spec(n_pulses=10))
    assert list(cc.interior_bins()) == list(range(1, 10))


def test_interior_bins_fig3():
    cc = compile_circuit(fig3_spec(n_pulses=4))
    assert list(cc.interior_bins()) == [2, 3]


def two_source_spec():
    """Two sources, two vacuum inputs, a rotated splitter, a phased delay,
    a gated obstacle and an absorber."""
    theta, phi = 0.3, 1.1
    rotated = np.array([[math.cos(theta), -math.sin(theta) * np.exp(-1j * phi)],
                        [math.sin(theta) * np.exp(1j * phi), math.cos(theta)]])
    return CircuitSpec(elements=(
        Source("src_a", "a", 3),
        Source("src_b", "b", 2),
        BeamSplitter("bs1", ("a", "vac1"), ("x", "y")),
        Delay("dl", "y", "y1", bins=2, phase=0.7),
        BeamSplitter("bs2", ("x", "b"), ("c", "d"), matrix=rotated),
        Obstacle("ob", "d", "d1", inserted=True, bins=frozenset({1})),
        BeamSplitter("bs3", ("y1", "vac2"), ("e", "f")),
        Detector("D1", "c"),
        Detector("D2", "d1"),
        Detector("D3", "e"),
        Absorber("dump", "f"),
    ))


WALK_CASES = {name: (lambda name=name: load_scenario(name).spec)
              for name in list_builtin_scenarios()}
WALK_CASES["gated_fig2"] = lambda: gated_fig2_spec(6, gate={1, 4})
WALK_CASES["two_sources"] = two_source_spec


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_walk_matches_dense_map(case, rng):
    # The walk is linear: walking a vector equals the dense map, built from
    # the walks of unit vectors, times it.  Inputs of magnitude <= 1; the
    # sums run in another order than a matrix-vector product, so agreement
    # is to rounding, not bitwise.
    spec = WALK_CASES[case]()
    cc = compile_circuit(spec)
    u = dense_map(cc)
    for source in spec.sources():
        n = source.n_bins
        amps = rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        x = np.zeros(u.shape[1], dtype=complex)
        lo = map_column(cc, source.id, 0)
        x[lo:lo + n] = amps
        walked = cc.propagate(amps, source.id)
        assert tuple(walked) == cc.terminal_order
        got = np.concatenate([walked[t] for t in cc.terminal_order])
        assert np.abs(got - u @ x).max() <= 1e-15


def test_compile_refuses_a_walk_over_the_size_bound():
    # fig2 blocked walks 2 slots and 3 terminals: 80 bytes per bin.
    largest = MAX_MAP_BYTES // 80
    cc = compile_circuit(replace(fig2_spec(inserted=True), n_bins=largest))
    assert (cc.n_slots + len(cc.terminal_order)) * cc.n_bins * 16 <= MAX_MAP_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(StateTooLargeError, match=str(80 * (largest + 1))):
            compile_circuit(replace(fig2_spec(inserted=True), n_bins=largest + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_long_train_propagates_in_linear_memory():
    # The dense map of this circuit alone would be 9006 x 3000 x 16 B = 432 MB.
    tracemalloc.start()
    try:
        cc = compile_circuit(fig3_spec(n_pulses=3000))
        field = propagate_coherent(cc, CoherentTrain.uniform(3000, 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert total_output_energy(field) == pytest.approx(300.0, rel=1e-12)


def _vacuum_delay_chain_spec(n_bins):
    """A one-bin source beside a vacuum input that passes two delays."""
    return CircuitSpec(elements=(
        Source("src", "a", 1),
        Detector("D1", "a"),
        Delay("d1", "vac0", "v1", bins=2),
        Delay("d2", "v1", "v2", bins=2),
        Detector("D2", "v2"),
    ), n_bins=n_bins)


def test_vacuum_only_delays_never_overflow():
    cc = compile_circuit(_vacuum_delay_chain_spec(3))
    assert cc.n_bins == 3
    out = cc.propagate(np.array([1.0]))
    assert out["D1"][0] == 1.0 and not out["D2"].any()
    oracle = FockOracle(_vacuum_delay_chain_spec(3), 1)
    dist = oracle.run(oracle.single_photon_state([("src", 0)]))
    assert dist.mean("D1", 0) == pytest.approx(1.0, abs=1e-12)


def test_auto_bins_ignore_vacuum_only_delays():
    assert compile_circuit(_vacuum_delay_chain_spec(None)).n_bins == 1


@pytest.mark.parametrize("gate, outside", [({-1}, -1), ({1, 5}, 5)])
def test_gate_bins_outside_the_circuit_are_rejected(gate, outside):
    # fig2 with 4 pulses and a one-bin delay has n_bins = 5.
    spec = gated_fig2_spec(4, gate=gate)
    with pytest.raises(BinOverflowError, match=f"'obstacle_l'.*bin {outside} "):
        compile_circuit(spec)
    with pytest.raises(BinOverflowError):
        FockOracle(spec, 1)


def test_gate_bins_inside_the_circuit_compile():
    cc = compile_circuit(gated_fig2_spec(4, gate={0, 4}))
    assert cc.n_bins == 5
