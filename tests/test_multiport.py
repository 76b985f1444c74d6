import math

import numpy as np
import pytest

from proxyifm.circuit import (
    BeamSplitter,
    CircuitSpec,
    Detector,
    PhaseShift,
    Source,
)
from proxyifm.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NonUnitaryInputError,
)
from proxyifm.multiport import Decomposition, TwoModeOp, reck_decompose

from conftest import (
    circuit_spatial_unitary,
    fig3_spec,
    haar_random_unitary,
    phase_fix_distance,
    recompose,
    tritter,
    verify_cascade_equivalence,
)


def recombination_spec():
    """The recombining half of the three-pulse cascade, ports (s, l, m)."""
    return CircuitSpec(elements=(
        Source("in_s", "s", 1),
        Source("in_l", "l", 1),
        Source("in_m", "m", 1),
        BeamSplitter("bs3", ("m", "l"), ("e", "b")),
        PhaseShift("phase_s", "s", "s1", angle=math.pi / 2),
        BeamSplitter("bs4", ("s1", "e"), ("c", "d")),
        Detector("Dc", "c"),
        Detector("Db", "b"),
        Detector("Dd", "d"),
    ))


def splitting_spec():
    """The splitting half: one input fanned out to arms (s, l, m)."""
    return CircuitSpec(elements=(
        Source("in_a", "a", 1),
        BeamSplitter("bs1", ("a", "vac1"), ("s", "w")),
        BeamSplitter("bs2", ("w", "vac2"), ("arm_l", "arm_m")),
        Detector("Ds", "s"),
        Detector("Dl", "arm_l"),
        Detector("Dm", "arm_m"),
    ))


def test_tritter_entries():
    u = tritter()
    s = 1 / math.sqrt(2)
    assert u[0, 0] == s and u[0, 1] == 0.5j and u[0, 2] == -0.5
    assert u[1, 0] == 1j * s and u[1, 1] == 0.5 and u[1, 2] == 0.5j
    assert u[2, 0] == 0 and u[2, 1] == 1j * s and u[2, 2] == s


def test_tritter_unitarity():
    u = tritter()
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-15


def test_tritter_first_column():
    col = tritter()[:, 0]
    s = 1 / math.sqrt(2)
    assert np.allclose(col, [s, 1j * s, 0.0])


def test_tritter_on_single_input():
    alpha = math.sqrt(0.1)
    out = tritter() @ np.array([alpha, 0.0, 0.0])
    assert out[0] == pytest.approx(alpha / math.sqrt(2))
    assert out[1] == pytest.approx(1j * alpha / math.sqrt(2))
    assert abs(out[2]) == 0.0


def test_reck_identity_is_empty():
    d = reck_decompose(np.eye(4, dtype=complex))
    assert len(d.steps) == 0
    assert np.allclose(d.output_phases, 1.0)


def test_reck_tritter_round_trip():
    u = tritter()
    d = reck_decompose(u)
    assert len(d.steps) <= 3
    assert np.linalg.norm(recompose(d) - u) < 1e-12


def test_reck_haar_6x6():
    u = haar_random_unitary(6, seed=60)
    d = reck_decompose(u)
    assert np.linalg.norm(recompose(d) - u) < 1e-10


@pytest.mark.parametrize("n", range(2, 9))
def test_reck_round_trip_and_step_count(n):
    for k in range(12):
        u = haar_random_unitary(n, seed=1000 * n + k)
        d = reck_decompose(u)
        assert len(d.steps) <= n * (n - 1) // 2
        assert np.linalg.norm(recompose(d) - u) < 1e-10
        for op in d.steps:
            m = op.matrix
            assert np.linalg.norm(m.conj().T @ m - np.eye(2)) < 1e-12
            assert op.mode_pair[0] < op.mode_pair[1]


def test_reck_rejects_non_unitary():
    with pytest.raises(NonUnitaryInputError):
        reck_decompose(np.ones((3, 3)))


def test_reck_rejects_a_nan_residual():
    """The unitarity check holds on a NaN norm, which ``norm > tol`` lets
    through: entries near the float limit are finite, but u^H u is not."""
    huge = np.array([[1e300, 1e300], [1e300, -1e300]], dtype=complex)
    with np.errstate(all="ignore"):
        assert np.isnan(np.linalg.norm(huge.conj().T @ huge - np.eye(2)))
        with pytest.raises(NonUnitaryInputError):
            reck_decompose(huge)


def test_reck_rejects_large_matrices():
    with pytest.raises(DimensionTooLargeError):
        reck_decompose(np.eye(13, dtype=complex))


def test_recompose_empty_is_identity():
    d = Decomposition(steps=(), output_phases=np.ones(3, dtype=complex), dim=3)
    assert np.array_equal(recompose(d), np.eye(3, dtype=complex))


def test_recompose_single_step_embeds_block():
    m = np.array([[0, 1], [1, 0]], dtype=complex)
    d = Decomposition(steps=(TwoModeOp((0, 1), m, 0),),
                      output_phases=np.ones(3, dtype=complex), dim=3)
    expected = np.eye(3, dtype=complex)
    expected[0, 0] = expected[1, 1] = 0
    expected[0, 1] = expected[1, 0] = 1
    assert np.array_equal(recompose(d), expected)


def test_decompose_recompose_fixed_point():
    u = haar_random_unitary(5, seed=77)
    d = reck_decompose(u)
    d2 = reck_decompose(recompose(d))
    assert np.linalg.norm(recompose(d2) - u) < 1e-10


def test_verify_direct_tritter_element():
    spec = CircuitSpec(elements=(
        Source("s0", "p0", 1),
        Source("s1", "p1", 1),
        Source("s2", "p2", 1),
        Detector("D0", "p0"),
        Detector("D1", "p1"),
        Detector("D2", "p2"),
    ))
    # trivial wiring: the spatial unitary is the identity, so compare
    # the identity against itself
    report = verify_cascade_equivalence(spec, np.eye(3, dtype=complex))
    assert report.distance < 1e-12


def test_verify_recombination_cascade_matches_tritter():
    report = verify_cascade_equivalence(recombination_spec(), tritter(),
                                        output_order=[0, 2, 1])
    assert report.distance < 1e-9


def test_verify_splitting_cascade_matches_transposed_tritter():
    report = verify_cascade_equivalence(splitting_spec(), tritter().T)
    assert report.distance < 1e-9


def test_full_cascade_routes_everything_to_one_port():
    # with the delays collapsed, the whole three-pulse circuit is a closed
    # interferometer: the single input column lands on the bright port
    u = circuit_spatial_unitary(fig3_spec(n_pulses=1))
    col = u[:, 0]
    assert sorted(np.round(np.abs(col), 12)) == [0.0, 0.0, 1.0]


def test_phase_fix_of_matrix_against_itself_is_zero():
    assert phase_fix_distance(tritter(), tritter()).distance == 0.0


def test_verify_unrelated_unitaries_far_apart():
    a = haar_random_unitary(4, seed=5)
    b = haar_random_unitary(4, seed=6)
    assert phase_fix_distance(a, b).distance > 0.1


def test_phase_fix_exact_on_phase_equivalent_pair():
    u = haar_random_unitary(5, seed=123)
    left = np.exp(1j * np.linspace(0.1, 2.0, 5))
    right = np.exp(1j * np.linspace(-1.0, 1.0, 5))
    v = np.diag(left) @ u @ np.diag(right)
    assert phase_fix_distance(v, u).distance < 1e-10


def test_phase_fix_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        phase_fix_distance(np.eye(3), np.eye(4))
