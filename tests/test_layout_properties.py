"""The one circuit layout, checked on random valid circuits.

``compile_circuit`` fixes each circuit's slots, bins and terminals once;
the Fock oracle, the one-photon engine and ``circuit_spatial_unitary``
all read that layout.  Circuits are drawn from the element grammar:
sources, splitters with random 2x2 unitaries, delays (also on vacuum
inputs), phases, obstacles with and without gated bins, detectors and
absorbers, declared in a random order.  The grammar also has a
split-delay-recombine chain on an open wire, so that two bins of one
source often meet in one output cell, as in the paper's interferometers.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from proxyifm import replace
from proxyifm.circuit import (
    Absorber,
    BeamSplitter,
    CircuitSpec,
    Delay,
    Detector,
    Obstacle,
    PhaseShift,
    Source,
    compile_circuit,
)
from proxyifm.coherent import CoherentTrain
from proxyifm.fock import FockOracle
from proxyifm.singlephoton import propagate_photon

from conftest import (
    circuit_spatial_unitary,
    dense_map,
    fig2_spec,
    fig3_spec,
    map_column,
    map_row,
    truncated_poisson_pmf,
)

MAX_FOCK_MODES = 16

_angles = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _unitaries(draw):
    """exp(ia) [[x, y], [-conj(y), conj(x)]] with |x|^2 + |y|^2 = 1."""
    t, a, b, c = (draw(_angles) for _ in range(4))
    x = math.cos(t) * np.exp(1j * b)
    y = math.sin(t) * np.exp(1j * c)
    return np.exp(1j * a) * np.array([[x, y], [-np.conj(y), np.conj(x)]])


@st.composite
def _circuits(draw):
    """A valid circuit with at most ``MAX_FOCK_MODES`` modes at cutoff 1."""
    sources = [Source(f"src{k}", f"s{k}", draw(st.integers(1, 3)))
               for k in range(draw(st.integers(1, 2)))]
    max_source_bins = max(s.n_bins for s in sources)
    elements = list(sources)
    open_wires = [s.out for s in sources]
    counter = iter(range(1000))

    def take():
        # An open wire, or (index == len) a fresh vacuum input.
        k = draw(st.integers(0, len(open_wires)))
        return open_wires.pop(k) if k < len(open_wires) else f"vac{next(counter)}"

    def fresh():
        wire = f"w{next(counter)}"
        open_wires.append(wire)
        return wire

    kinds = draw(st.lists(
        st.sampled_from(["chain", "splitter", "delay", "phase", "obstacle"]),
        max_size=5))
    # Half the circuits open with a chain, on a source's wire.
    if draw(st.booleans()):
        kinds.insert(0, "chain")
    for k, kind in enumerate(kinds):
        if kind == "chain":
            # Balanced splitters: a random unitary is often nearly diagonal,
            # and then the two arms never meet.
            wire = open_wires.pop(draw(st.integers(0, len(open_wires) - 1)))
            arms = (f"w{next(counter)}", f"w{next(counter)}")
            delayed = f"w{next(counter)}"
            elements += [
                BeamSplitter(f"bs{k}", (wire, f"vac{next(counter)}"), arms),
                Delay(f"d{k}", arms[1], delayed, draw(st.integers(1, 2)),
                      phase=draw(st.just(0.0) | _angles)),
                BeamSplitter(f"bc{k}", (arms[0], delayed), (fresh(), fresh()))]
        elif kind == "splitter":
            inputs = (take(), take())
            matrix = draw(st.none() | _unitaries())
            elements.append(BeamSplitter(f"bs{k}", inputs, (fresh(), fresh()),
                                         matrix=matrix))
        elif kind == "delay":
            elements.append(Delay(f"d{k}", take(), fresh(), draw(st.integers(0, 2)),
                                  phase=draw(st.just(0.0) | _angles)))
        elif kind == "phase":
            elements.append(PhaseShift(f"p{k}", take(), fresh(), draw(_angles)))
        else:
            gate = draw(st.none() | st.frozensets(
                st.integers(0, max_source_bins - 1)))
            elements.append(Obstacle(f"o{k}", take(), fresh(),
                                     inserted=draw(st.booleans()), bins=gate))
    for k, wire in enumerate(open_wires):
        terminal = draw(st.sampled_from([Detector, Absorber]))
        elements.append(terminal(f"T{k}", wire))

    spec = CircuitSpec(elements=tuple(draw(st.permutations(elements))))
    compiled = compile_circuit(spec)
    extra = draw(st.sampled_from([None, 0, 1]))
    if extra is not None:
        spec = replace(spec, n_bins=compiled.n_bins + extra)
        compiled = compile_circuit(spec)
    assume(compiled.n_slots * compiled.n_bins <= MAX_FOCK_MODES)
    return spec


_settings = settings(max_examples=300, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_settings
@given(spec=_circuits())
def test_fock_oracle_matches_one_photon_engine(spec):
    compiled = compile_circuit(spec)
    oracle = FockOracle(spec, 1)
    assert oracle.n_bins == compiled.n_bins
    for source in spec.sources():
        for b in range(source.n_bins):
            dist = oracle.run(oracle.single_photon_state([(source.id, b)]))
            engine = propagate_photon(compiled, np.eye(b + 1)[b], source.id)
            assert dist.total() == pytest.approx(1.0, abs=1e-12)
            for terminal, cell_bin in dist.cells:
                assert dist.mean(terminal, cell_bin) == pytest.approx(
                    engine.p_bins[terminal][cell_bin], abs=1e-12)


@_settings
@given(spec=_circuits())
def test_spatial_unitary_is_unitary(spec):
    # Every slot runs from a source or vacuum input to one detector or
    # absorber, so a valid circuit always has as many ports as terminals.
    compiled = compile_circuit(spec)
    assert compiled.n_slots == len(spec.terminals())
    u = circuit_spatial_unitary(spec)
    assert np.linalg.norm(u.conj().T @ u - np.eye(compiled.n_slots)) < 1e-10


@_settings
@given(spec=_circuits(), data=st.data())
def test_fock_oracle_two_photons_match_permanents(spec, data):
    # Two photons in input cells i, j leave in output cells k <= l with
    # probability |per V[{k,l},{i,j}]|^2 over the multiplicity factorials
    # (Scheel, quant-ph/0406127), V being the dense map.
    compiled = compile_circuit(spec)
    v = dense_map(compiled)
    inputs = [(s.id, b) for s in spec.sources() for b in range(s.n_bins)]
    photons = [data.draw(st.sampled_from(inputs)) for _ in range(2)]
    i, j = (map_column(compiled, s, b) for s, b in photons)
    oracle = FockOracle(spec, 2)
    dist = oracle.run(oracle.single_photon_state(photons))
    row = [map_row(compiled, t, b) for t, b in dist.cells]
    got: dict[tuple[int, ...], float] = {}
    for outcome, p in zip(dist.outcomes.tolist(), dist.probabilities.tolist()):
        rows = tuple(sorted(r for r, n in zip(row, outcome) for _ in range(n)))
        got[rows] = got.get(rows, 0.0) + p
    want = {}
    for k in range(len(v)):
        for l in range(k, len(v)):
            per = v[k, i] * v[l, j] + v[k, j] * v[l, i]
            want[(k, l)] = abs(per) ** 2 / ((1 + (k == l)) * (1 + (i == j)))
    assert set(got) <= set(want)
    for key, p in want.items():
        assert got.get(key, 0.0) == pytest.approx(p, abs=1e-12)


@_settings
@given(spec=_circuits(), phases=st.lists(_angles, min_size=3, max_size=3))
# The paper's two topologies, where a train's pulses interfere, always run.
@example(spec=fig2_spec(3), phases=[0.0, 2.0, 4.0])
@example(spec=fig3_spec(2, blocked="l"), phases=[1.0, 0.5, 0.0])
def test_fock_oracle_coherent_means_match_propagation(spec, phases):
    # A coherent train leaves as independent Poisson cells of mean |amp|^2;
    # the cutoff conditions their total K ~ Poisson(mu) on K <= c, and given
    # K a cell holds a binomial share |amp|^2 / mu of it.  So the oracle's
    # mean is |amp|^2 E[K | K <= c] / E[K].
    cutoff = 3
    compiled = compile_circuit(spec)
    oracle = FockOracle(spec, cutoff)
    for source in spec.sources():
        train = CoherentTrain(alpha=0.2 * np.exp(0.3j),
                              phases=tuple(phases[:source.n_bins]))
        dist = oracle.run(oracle.coherent_train_state(
            train.alpha, train.n_pulses, train.phases, source.id))
        amps = compiled.propagate(train.amplitudes(), source.id)
        mu = train.mean_photons
        scale = sum(k * truncated_poisson_pmf(k, mu, mu, cutoff)
                    for k in range(cutoff + 1)) / mu
        for terminal, cell_bin in dist.cells:
            assert dist.mean(terminal, cell_bin) == pytest.approx(
                abs(amps[terminal][cell_bin]) ** 2 * scale, abs=1e-12)


def _lit_mask(ranges, n_bins):
    mask = np.zeros(n_bins, dtype=bool)
    for r in ranges:
        mask[r.start:r.stop] = True
    return mask


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=_circuits(), seed=st.integers(0, 2**32 - 1))
def test_light_reaches_only_the_layouts_lit_bins(spec, seed):
    # Random complex amplitudes on each source in turn: no terminal bin
    # outside the layout's lit bins may receive any, and the oracle's
    # joint table counts no photon in such a cell.
    rng = np.random.default_rng(seed)
    compiled = compile_circuit(spec)
    oracle = FockOracle(spec, 1)
    dark = ~np.array([_lit_mask(compiled.terminal_lit[t], compiled.n_bins)[b]
                      for t, b in oracle.cells])
    for source in spec.sources():
        n = source.n_bins
        amps = compiled.propagate(rng.normal(size=n) + 1j * rng.normal(size=n),
                                  source.id)
        for terminal, a in amps.items():
            lit = _lit_mask(compiled.terminal_lit[terminal], compiled.n_bins)
            assert not a[~lit].any()
        for b in range(n):
            dist = oracle.run(oracle.single_photon_state([(source.id, b)]))
            assert not dist.outcomes[:, dark].any()
