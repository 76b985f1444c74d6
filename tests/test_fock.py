import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from proxyifm.circuit import (
    CircuitSpec,
    Delay,
    Detector,
    Obstacle,
    Source,
    compile_circuit,
    default_beamsplitter,
)
from proxyifm.coherent import (
    CoherentTrain,
    interaction_free_probability,
    partner_pulses,
    propagate_coherent,
)
from proxyifm.errors import (
    BinOverflowError,
    CutoffTooSmallError,
    NonUnitaryError,
    StateTooLargeError,
    ZeroPulsesError,
)
from proxyifm import fock
from proxyifm.fock import (
    MAX_BASIS_BYTES,
    FockBasis,
    FockOracle,
    FockStateVector,
    _two_mode_block,
    apply_mode_permutation,
    apply_two_mode_unitary,
    prepare_coherent_train,
    prepare_single_photons,
    sample_joint,
)
from proxyifm.runner import run
from proxyifm.scenarios import load_scenario
from proxyifm.singlephoton import propagate_photon, tensor_sum_state

from conftest import (
    ALPHA,
    ALPHA_SQ,
    coherent_overlap,
    coherent_train_expansion,
    collective_power_state,
    fidelity,
    fig2_spec,
    fig3_spec,
    hom_spec,
    marginal_pmf,
    mean_occupation,
    norm_squared,
    p_click,
    p_coincidence,
    p_terminal_coincidence,
    poisson_pmf,
    poisson_tail,
    sector_occupations,
    state_overlap,
    terminal_probability,
    truncated_poisson_pmf,
    vacuum_state,
)


# -- basis -----------------------------------------------------------------

def test_basis_enumerates_each_vector_once():
    basis = FockBasis.build(3, 4)
    assert basis.dim == math.comb(3 + 4, 4)
    seen = {tuple(v) for v in basis.occupations}
    assert len(seen) == basis.dim
    assert all(sum(v) <= 4 for v in seen)


def test_basis_is_graded_lexicographic():
    basis = FockBasis.build(2, 2)
    expected = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert [tuple(v) for v in basis.occupations] == expected


@pytest.mark.parametrize("n_modes,cutoff", [(1, 3), (3, 0), (4, 3), (6, 2)])
def test_basis_matches_sorted_enumeration(n_modes, cutoff):
    vectors = sorted((v for v in itertools.product(range(cutoff + 1), repeat=n_modes)
                      if sum(v) <= cutoff), key=lambda v: (sum(v), v))
    assert FockBasis.build(n_modes, cutoff).occupations.tolist() == \
        [list(v) for v in vectors]


@pytest.mark.parametrize("n_modes,cutoff", [
    (n, c) for n in (1, 2, 3, 5, 8) for c in (0, 1, 2, 4, 6)] + [(20, 6), (33, 4)])
def test_basis_built_in_place_matches_the_sector_builder(n_modes, cutoff):
    assert np.array_equal(FockBasis.build(n_modes, cutoff).occupations,
                          sector_occupations(n_modes, cutoff))


@pytest.mark.parametrize("n_modes,cutoff", [(20, 6), (33, 4)])
def test_basis_build_peaks_near_its_table(n_modes, cutoff):
    """The sector lists and their join would peak at 2.5x to 2.8x the table."""
    tracemalloc.start()
    try:
        basis = FockBasis.build(n_modes, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = basis.occupations.nbytes
    assert peak < 1.5 * table, f"{peak / table:.2f}x the table"


def test_basis_index_round_trips():
    basis = FockBasis.build(4, 3)
    idx = basis.index_of(basis.occupations)
    assert np.array_equal(idx, np.arange(basis.dim))


def test_basis_byte_bound_refuses_before_allocating():
    assert FockBasis.build(20, 6).dim == math.comb(26, 6)
    size = math.comb(47, 7) * (40 + 32)
    assert size > MAX_BASIS_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(StateTooLargeError, match=str(size)):
            FockBasis.build(40, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_basis_index_rejects_vectors_outside_the_basis():
    basis = FockBasis.build(3, 2)
    with pytest.raises(KeyError):
        basis.index_of(np.array([1, 1, 1], dtype=np.uint8))
    with pytest.raises(KeyError):
        basis.index_of(np.array([2, -1, 0]))


# -- state preparation -------------------------------------------------------

def test_prepare_vacuum_train():
    basis = FockBasis.build(2, 3)
    state = prepare_coherent_train(basis, 0.0, [0])
    assert state.amplitudes[0] == pytest.approx(1.0)
    assert state.deficit == pytest.approx(0.0, abs=1e-15)


def test_prepare_single_mode_poisson_amplitudes():
    basis = FockBasis.build(1, 5)
    state = prepare_coherent_train(basis, ALPHA, [0])
    for n in range(6):
        expected = math.exp(-ALPHA_SQ / 2) * ALPHA**n / math.sqrt(math.factorial(n))
        idx = int(basis.index_of(np.array([n], dtype=np.uint8))[0])
        assert abs(state.amplitudes[idx] - expected) < 1e-8
    # the deficit is exactly the Poisson tail beyond the cutoff
    assert state.deficit == pytest.approx(poisson_tail(5, ALPHA_SQ), rel=1e-9)
    assert state.deficit < 2e-9


def test_prepare_two_mode_mean_photon_number():
    basis = FockBasis.build(2, 5)
    state = prepare_coherent_train(basis, ALPHA, [0, 1])
    total = mean_occupation(state, 0) + mean_occupation(state, 1)
    # truncating at c shifts the mean by at most mu * tail(c-1)
    mu = 2 * ALPHA_SQ
    assert total == pytest.approx(mu, abs=mu * poisson_tail(4, mu) + 1e-12)


def test_prepare_rejects_tiny_cutoff():
    basis = FockBasis.build(4, 1)
    with pytest.raises(CutoffTooSmallError):
        prepare_coherent_train(basis, 1.0, [0, 1, 2, 3])


# -- two-mode unitaries ------------------------------------------------------

def test_two_mode_unitary_preserves_vacuum():
    basis = FockBasis.build(2, 3)
    out = apply_two_mode_unitary(vacuum_state(basis), (0, 1), default_beamsplitter())
    assert out.amplitudes[0] == pytest.approx(1.0)


def test_single_photon_splits_by_matrix_columns():
    basis = FockBasis.build(2, 2)
    state = prepare_single_photons(basis, [0])
    out = apply_two_mode_unitary(state, (0, 1), default_beamsplitter())
    i10 = int(basis.index_of(np.array([1, 0], dtype=np.uint8))[0])
    i01 = int(basis.index_of(np.array([0, 1], dtype=np.uint8))[0])
    assert out.amplitudes[i10] == pytest.approx(1 / math.sqrt(2))
    assert out.amplitudes[i01] == pytest.approx(1j / math.sqrt(2))


def test_two_photon_interference_cancels_coincidence():
    basis = FockBasis.build(2, 2)
    state = prepare_single_photons(basis, [0, 1])
    out = apply_two_mode_unitary(state, (0, 1), default_beamsplitter())
    i11 = int(basis.index_of(np.array([1, 1], dtype=np.uint8))[0])
    i20 = int(basis.index_of(np.array([2, 0], dtype=np.uint8))[0])
    i02 = int(basis.index_of(np.array([0, 2], dtype=np.uint8))[0])
    assert abs(out.amplitudes[i11]) < 1e-14
    assert out.amplitudes[i20] == pytest.approx(1j / math.sqrt(2))
    assert out.amplitudes[i02] == pytest.approx(1j / math.sqrt(2))


def test_two_mode_unitary_preserves_norm():
    basis = FockBasis.build(3, 4)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    from proxyifm.fock import FockStateVector
    state = FockStateVector(basis, amps / np.linalg.norm(amps))
    out = state
    for pair in ((0, 1), (1, 2), (0, 2)):
        out = apply_two_mode_unitary(out, pair, default_beamsplitter())
    assert norm_squared(out) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("pair", [(0, 1), (1, 0), (3, 1), (0, 3), (2, 4)])
def test_two_mode_unitary_matches_basis_vector_loop(pair):
    # Reference: each basis vector's amplitude spread over its pair sector,
    # targets found by lookup and summed in source index order.  Products
    # are taken on length-1 arrays: scalar complex products can differ
    # from array ones in the last bit.
    basis = FockBasis.build(5, 3)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    amps[rng.random(basis.dim) < 0.3] = 0.0
    u = np.array([[0.6, 0.8j], [0.8j, 0.6]]) * np.exp(0.3j)
    a, b = pair
    index = {tuple(v): i for i, v in enumerate(basis.occupations.tolist())}
    want = np.zeros_like(amps)
    for i, v in enumerate(basis.occupations.tolist()):
        t = v[a] + v[b]
        block = _two_mode_block(tuple(u.reshape(-1)), t)
        for mp in range(t + 1):
            w = list(v)
            w[a], w[b] = mp, t - mp
            want[[index[tuple(w)]]] += block[mp, [v[a]]] * amps[[i]]
    got = apply_two_mode_unitary(FockStateVector(basis, amps), pair, u).amplitudes
    assert np.array_equal(got, want)


def test_two_mode_unitary_rejects_non_unitary():
    basis = FockBasis.build(2, 2)
    with pytest.raises(NonUnitaryError):
        apply_two_mode_unitary(vacuum_state(basis), (0, 1),
                               np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_two_mode_unitary_rejects_nan_residual():
    basis = FockBasis.build(2, 2)
    with pytest.raises(NonUnitaryError):
        apply_two_mode_unitary(vacuum_state(basis), (0, 1),
                               np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_two_mode_unitary_refuses_an_overflow_without_warnings():
    # u^H u overflows to NaN; the refusal prints no numpy RuntimeWarning.
    basis = FockBasis.build(2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonUnitaryError):
            apply_two_mode_unitary(vacuum_state(basis), (0, 1),
                                   np.array([[1e200, 0.0], [0.0, 1.0]]))


def test_mode_permutation_moves_photons():
    basis = FockBasis.build(3, 2)
    state = prepare_single_photons(basis, [0])
    out = apply_mode_permutation(state, [2, 0, 1])
    idx = int(basis.index_of(np.array([0, 0, 1], dtype=np.uint8))[0])
    assert out.amplitudes[idx] == pytest.approx(1.0)


# -- obstacles as deferred measurements -----------------------------------------

def _obstacle_spec():
    """One source bin through an inserted obstacle onto a detector."""
    return CircuitSpec(elements=(
        Source("src", "a", 1),
        Obstacle("o", "a", "b", inserted=True),
        Detector("D", "b"),
    ))


def test_obstacle_on_vacuum():
    oracle = FockOracle(_obstacle_spec(), 2)
    dist = oracle.run(vacuum_state(oracle.basis))
    assert dist.outcomes.tolist() == [[0, 0]]
    assert dist.probabilities.tolist() == [1.0]


def test_obstacle_on_single_photon():
    oracle = FockOracle(_obstacle_spec(), 2)
    dist = oracle.run(oracle.single_photon_state([("src", 0)]))
    assert dist.cells == (("D", 0), ("o", 0))
    assert dist.outcomes.tolist() == [[0, 1]]   # mode emptied
    assert dist.probabilities.tolist() == [pytest.approx(1.0)]


def test_obstacle_on_coherent_gives_poisson_counts():
    beta_sq = 0.3
    oracle = FockOracle(_obstacle_spec(), 6)
    dist = oracle.run(oracle.coherent_train_state(math.sqrt(beta_sq), 1))
    weights = marginal_pmf(dist, "o", 0, 6)
    for n in range(5):
        assert weights[n] == pytest.approx(poisson_pmf(n, beta_sq),
                                           abs=dist.deficit + 1e-12)
    # the count-0 weight is the interaction-free one
    assert weights[0] == pytest.approx(math.exp(-beta_sq), abs=dist.deficit + 1e-12)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.mean("D", 0) == 0.0


# -- full-circuit oracle vs fast engines --------------------------------------

@pytest.mark.parametrize("n_pulses,inserted", [(2, False), (3, True), (4, True)])
def test_oracle_matches_coherent_engine(n_pulses, inserted):
    spec = fig2_spec(n_pulses=n_pulses, inserted=inserted)
    cutoff = 5
    oracle = FockOracle(spec, cutoff)
    train = CoherentTrain.uniform(n_pulses, ALPHA_SQ)
    dist = oracle.run(oracle.coherent_train_state(train.alpha, n_pulses))
    field = propagate_coherent(compile_circuit(spec), train)
    mu_total = train.mean_photons
    for term, amps in field.amplitudes.items():
        for b, a in enumerate(amps):
            mu = abs(a) ** 2
            pmf = marginal_pmf(dist, term, b, cutoff)
            for n in range(cutoff + 1):
                # exact truncation-aware prediction from the engine amplitudes
                assert abs(pmf[n] - truncated_poisson_pmf(n, mu, mu_total, cutoff)) < 1e-9
                # raw Poisson agrees within the reported truncation deficit
                assert abs(pmf[n] - poisson_pmf(n, mu)) < dist.deficit + 1e-9


def test_oracle_total_probability_and_photon_conservation():
    spec = fig2_spec(n_pulses=3, inserted=True)
    oracle = FockOracle(spec, 5)
    dist = oracle.run(oracle.coherent_train_state(ALPHA, 3))
    assert dist.total() == pytest.approx(1.0, abs=1e-10)
    mean_total = sum(dist.mean(t, b) for t, b in dist.cells)
    mu = 3 * ALPHA_SQ
    assert mean_total == pytest.approx(mu, abs=mu * poisson_tail(4, mu) + 1e-12)


def test_oracle_open_interior_stays_dark():
    spec = fig2_spec(n_pulses=3)
    oracle = FockOracle(spec, 4)
    dist = oracle.run(oracle.coherent_train_state(ALPHA, 3))
    cc = compile_circuit(spec)
    p_any = sum(p_click(dist, "D2", b) for b in cc.interior_bins())
    assert p_any < 1e-6


@pytest.mark.parametrize("n_pulses", [2, 3])
def test_oracle_matches_single_photon_engine(n_pulses):
    spec = fig2_spec(n_pulses=n_pulses, inserted=True)
    oracle = FockOracle(spec, 2)
    dist = oracle.run(oracle.tensor_sum_state(n_pulses))
    engine = propagate_photon(compile_circuit(spec), tensor_sum_state(n_pulses))
    for term in ("D1", "D2", "obstacle_l"):
        assert terminal_probability(dist, term) == pytest.approx(
            engine.p[term], abs=1e-10)
    assert terminal_probability(dist, "obstacle_l") == pytest.approx(0.5, abs=1e-10)
    assert terminal_probability(dist, "D1") == pytest.approx(0.25, abs=1e-10)
    assert terminal_probability(dist, "D2") == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("prepare, error, match", [
    (lambda o: o.tensor_sum_state(0), ZeroPulsesError, "at least one"),
    (lambda o: o.tensor_sum_state(3), BinOverflowError, "3 input amplitudes"),
    (lambda o: o.coherent_train_state(ALPHA, 3), BinOverflowError,
     "3 input amplitudes"),
    (lambda o: o.single_photon_state([("src", 2)]), BinOverflowError,
     "3 input amplitudes"),
], ids=["tensor-sum-empty", "tensor-sum-long", "coherent-long",
        "photon-past-the-bins"])
def test_oracle_input_must_fit_its_source(prepare, error, match):
    # The source has 2 bins; the circuit has 3, so the third bin is a mode.
    oracle = FockOracle(fig2_spec(n_pulses=2, inserted=True), 2)
    assert oracle.n_bins == 3
    with pytest.raises(error, match=match):
        prepare(oracle)


def test_oracle_single_photon_outcomes_are_exclusive():
    spec = fig2_spec(n_pulses=3, inserted=True)
    oracle = FockOracle(spec, 2)
    dist = oracle.run(oracle.tensor_sum_state(3))
    for outcome, p in zip(dist.outcomes.tolist(), dist.probabilities):
        if p > 1e-12:
            assert sum(outcome) == 1


def test_oracle_fig3_matches_coherent_engine():
    spec = fig3_spec(n_pulses=3, blocked="l")
    oracle = FockOracle(spec, 4)
    train = CoherentTrain.uniform(3, ALPHA_SQ)
    dist = oracle.run(oracle.coherent_train_state(train.alpha, 3))
    field = propagate_coherent(compile_circuit(spec), train)
    for term, amps in field.amplitudes.items():
        for b, a in enumerate(amps):
            assert dist.mean(term, b) == pytest.approx(
                abs(a) ** 2, abs=dist.deficit + 1e-9)


def _heralded_no_interaction(dist, spec, trigger):
    """P(no photon in the window loss cells | >= 1 photon on the trigger cell).

    The trigger cell is the middle interior bin of ``trigger``; the window
    holds the loss cells of the pulses that bin proxies.  Returns the figure
    and P(trigger).
    """
    cc = compile_circuit(spec)
    interior = cc.interior_bins()
    trig_bin = interior[len(interior) // 2]
    t = dist.cell_index(trigger, trig_bin)
    window = [dist.cell_index(term, p) for term in cc.loss_terminals
              for p in partner_pulses(cc, trig_bin)]
    table = list(zip(dist.outcomes.tolist(), dist.probabilities.tolist()))
    p_trigger = sum(p for o, p in table if o[t] >= 1)
    p_empty = sum(p for o, p in table
                  if o[t] >= 1 and not any(o[w] for w in window))
    return p_empty / p_trigger, p_trigger, trig_bin


def test_heralded_no_interaction_matches_the_coherent_figure():
    # The paper's headline figure, from the joint table: no independence
    # of the coherent output cells is assumed.  Conditioning on a trigger
    # of probability P(trigger) amplifies the truncation error by up to
    # 1/P(trigger), hence the tolerance.
    spec = fig2_spec(n_pulses=4, inserted=True)
    oracle = FockOracle(spec, 5)
    train = CoherentTrain.uniform(4, ALPHA_SQ)
    dist = oracle.run(oracle.coherent_train_state(train.alpha, 4))
    figure, p_trigger, trig_bin = _heralded_no_interaction(dist, spec, "D2")
    expected = interaction_free_probability(spec, train, trig_bin)
    assert figure == pytest.approx(expected, abs=2 * dist.deficit / p_trigger)


def test_heralded_no_interaction_is_one_for_one_photon():
    # One photon cannot be both absorbed and detected.
    scenario = load_scenario("fig2_tensor_sum_blocked")
    oracle = FockOracle(scenario.spec, 1)
    dist = oracle.run(oracle.tensor_sum_state(scenario.source.n_pulses))
    figure, p_trigger, _ = _heralded_no_interaction(dist, scenario.spec, "D2")
    assert p_trigger > 0
    assert figure == 1.0


# -- two-photon product train ------------------------------------------------

def test_hom_pair_same_bin():
    oracle = FockOracle(hom_spec(), 2)
    dist = oracle.run(oracle.single_photon_state([("src_a", 0), ("src_b", 0)]))
    assert p_coincidence(dist, ("D1", 0), ("D2", 0)) == pytest.approx(0.0, abs=1e-12)
    bunched = dist.probabilities[dist.outcomes.max(axis=1) == 2].sum()
    assert bunched == pytest.approx(1.0, abs=1e-12)


def test_hom_pair_disjoint_bins():
    oracle = FockOracle(hom_spec(disjoint=True), 2)
    dist = oracle.run(oracle.single_photon_state([("src_a", 0), ("src_b", 1)]))
    assert p_terminal_coincidence(dist, "D1", "D2") == pytest.approx(0.5, abs=1e-12)


def test_product_train_through_interferometer_bunches():
    # two single photons in consecutive bins through the open two-pulse
    # interferometer: the interfered bin shows no coincidence but does
    # show two-photon events at a single detector
    spec = fig2_spec(n_pulses=2)
    oracle = FockOracle(spec, 2)
    dist = oracle.run(oracle.single_photon_state([("src", 0), ("src", 1)]))
    assert p_coincidence(dist, ("D1", 1), ("D2", 1)) == pytest.approx(0.0, abs=1e-12)
    p_double = dist.probabilities[dist.outcomes.max(axis=1) == 2].sum()
    assert p_double > 0.1


# -- collective-mode expansion -------------------------------------------------

def test_collective_power_state_norm():
    basis = FockBasis.build(3, 4)
    for j in range(4):
        state = collective_power_state(basis, [0, 1, 2], j)
        assert norm_squared(state) == pytest.approx(math.factorial(j), rel=1e-12)


def test_corrected_expansion_reconstructs_train():
    n, j_max = 2, 4
    basis = FockBasis.build(n, j_max)
    train = prepare_coherent_train(basis, ALPHA, [0, 1])
    coeffs = coherent_train_expansion(ALPHA, n, j_max)
    rec = np.zeros(basis.dim, dtype=complex)
    for j, c in enumerate(coeffs):
        rec += c * collective_power_state(basis, [0, 1], j).amplitudes
    from proxyifm.fock import FockStateVector
    infidelity = 1 - fidelity(train, FockStateVector(basis, rec))
    assert infidelity < 1e-6


def test_uncorrected_expansion_fails_to_reconstruct():
    # dropping the vacuum prefactor and softening the factorial to
    # 1/sqrt(j!) leaves coefficients that cannot rebuild the train
    n, j_max = 2, 4
    basis = FockBasis.build(n, j_max)
    train = prepare_coherent_train(basis, ALPHA, [0, 1])
    rec = np.zeros(basis.dim, dtype=complex)
    for j in range(j_max + 1):
        c = n ** (j / 2) * ALPHA**j / math.sqrt(math.factorial(j))
        rec += c * collective_power_state(basis, [0, 1], j).amplitudes
    from proxyifm.fock import FockStateVector
    infidelity = 1 - fidelity(train, FockStateVector(basis, rec))
    assert infidelity > 1e-3


def test_reconstruction_is_collective_coherent_state():
    # the train equals a coherent state of amplitude sqrt(n)*alpha in the
    # bin-symmetric mode: cross-check the overlap against the scalar formula
    n = 3
    basis = FockBasis.build(n, 5)
    train = prepare_coherent_train(basis, ALPHA, list(range(n)))
    other = prepare_coherent_train(basis, -ALPHA, list(range(n)))
    got = state_overlap(train, other)
    expected = coherent_overlap(math.sqrt(n) * ALPHA, -math.sqrt(n) * ALPHA)
    assert got == pytest.approx(expected, abs=train.deficit + other.deficit + 1e-9)


# -- sampling ------------------------------------------------------------------

def test_sample_joint_deterministic_and_consistent():
    oracle = FockOracle(hom_spec(), 2)
    dist = oracle.run(oracle.single_photon_state([("src_a", 0), ("src_b", 0)]))
    a = sample_joint(dist, shots=2000, seed=9)
    b = sample_joint(dist, shots=2000, seed=9)
    assert np.array_equal(a, b)
    freq = np.count_nonzero((dist.outcomes[a] == (2, 0)).all(axis=1)) / len(a)
    assert abs(freq - 0.5) < 3 * math.sqrt(0.25 / 2000)


def test_oracle_run_blocks_half_of_a_two_bin_photon():
    spec = fig2_spec(n_pulses=2, inserted=True)
    oracle = FockOracle(spec, 2)
    state = oracle.tensor_sum_state(2)
    dist = oracle.run(state)
    assert terminal_probability(dist, "obstacle_l") == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("bin_idx", [0, 1, 2])
def test_oracle_vacuum_delay_longer_than_the_bins(bin_idx):
    # The delay shifts every bin of the vacuum slot out of range; none of
    # the source slot's modes may be read as wrapped.
    spec = CircuitSpec(elements=(
        Source("src", "a", 3),
        Detector("D1", "a"),
        Delay("d", "vac0", "v1", bins=5),
        Detector("D2", "v1"),
    ), n_bins=3)
    oracle = FockOracle(spec, 1)
    dist = oracle.run(oracle.single_photon_state([("src", bin_idx)]))
    engine = propagate_photon(compile_circuit(spec), np.eye(bin_idx + 1)[bin_idx])
    assert dist.mean("D1", bin_idx) == pytest.approx(1.0, abs=1e-12)
    for t, b in dist.cells:
        assert dist.mean(t, b) == pytest.approx(engine.p_bins[t][b], abs=1e-12)


def test_oracle_rejects_too_few_bins_when_built():
    spec = CircuitSpec(elements=(
        Source("src", "a", 4),
        Delay("late", "a", "b", bins=2),
        Detector("D", "b"),
    ), n_bins=5)
    with pytest.raises(BinOverflowError, match="late"):
        FockOracle(spec, 1)


@pytest.mark.parametrize("name, cutoff, modes, dim", [
    # 19 of 24 modes: bin 5 of every slot and the loss modes of bins 4
    # and 5 are dark.
    ("fig3_blocked_l", 4, 19, 8_855),
    # 30 of 33 modes: bin 10 of both slots and its loss mode are dark.
    ("fig2_tensor_sum_blocked", 1, 30, 31),
])
def test_oracle_basis_spans_only_the_lit_modes(name, cutoff, modes, dim):
    oracle = FockOracle(load_scenario(name).spec, cutoff)
    assert (oracle.n_modes, oracle.basis.dim) == (modes, dim)


def test_basis_bound_is_checked_on_the_lit_modes(monkeypatch):
    # fig3_blocked_l at cutoff 4: all 24 modes would need `every` bytes,
    # its 19 lit modes need `lit`.
    every = math.comb(24 + 4, 4) * (24 + 32)
    lit = 8_855 * (19 + 32)
    scenario = load_scenario("fig3_blocked_l")
    monkeypatch.setattr(fock, "MAX_BASIS_BYTES", (every + lit) // 2)
    report = run(scenario, engine="fock", mode="exact", cutoff=4)
    assert sum(p for _, p in report.tables["joint"].rows) == \
        pytest.approx(1.0, abs=1e-12)
    monkeypatch.setattr(fock, "MAX_BASIS_BYTES", lit - 1)
    with pytest.raises(StateTooLargeError,
                       match=f"basis of 8855 states over 19 modes needs {lit} "):
        run(scenario, engine="fock", mode="exact", cutoff=4)


def test_oracle_refuses_photons_outside_the_sources():
    # A photon put by hand on the vacuum input's slot, which the layout
    # does not light until the first splitter.
    oracle = FockOracle(fig2_spec(n_pulses=2, inserted=True), 1)
    occ = np.zeros(oracle.n_modes, dtype=np.uint8)
    occ[oracle.columns("vac1", np.array([0]))] = 1
    amps = np.zeros(oracle.basis.dim, dtype=complex)
    amps[oracle.basis.index_of(occ)] = 1.0
    with pytest.raises(ValueError, match="outside its sources"):
        oracle.run(FockStateVector(oracle.basis, amps))
