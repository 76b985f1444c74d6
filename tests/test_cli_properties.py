"""Random valid scenarios through the CLI.

The random circuits of ``test_layout_properties._circuits`` are written
as scenario files, once for each source kind the circuit allows, with a
random analysis trigger and a ``sweep`` parameter on a random element.
Each file runs through ``proxyifm simulate`` on every engine that takes
its source, in both modes, and through ``proxyifm sweep``, in process.
Every job must exit 0, 2 (validation) or 3 (engine) without an escaping
exception; a refusal prints exactly one ``error:`` or ``engine error:``
line, and a run that exits 0 writes only finite numbers.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from proxyifm.circuit import Absorber, BeamSplitter, CircuitSpec, Delay, Detector, Source
from proxyifm.cli import main
from proxyifm.runner import _ENGINES

from conftest import non_finite_numbers, scenario_doc
from test_layout_properties import _angles, _circuits


@st.composite
def _scenario_docs(draw):
    """One scenario document per source kind that a random circuit allows."""
    spec = draw(_circuits())
    sources = spec.sources()
    detectors = [e.id for e in spec.elements if isinstance(e, Detector)]
    trigger = draw(st.none() | st.sampled_from(detectors)) if detectors else None
    # Mostly a delay, the one element a sweep may target.
    delays = [e.id for e in spec.elements if isinstance(e, Delay)]
    target = draw(st.sampled_from(delays if delays and draw(st.integers(0, 3))
                                  else [e.id for e in spec.elements]))
    photons = draw(st.lists(st.sampled_from(
        [[s.id, b] for s in sources for b in range(s.n_bins)]),
        min_size=1, max_size=2))
    kinds = [{"kind": "single_photons", "photons": photons}]
    if len(sources) == 1:
        n = draw(st.integers(1, sources[0].n_bins))
        kinds += [
            {"kind": "coherent", "n": n,
             "alpha_squared": draw(st.sampled_from([0.0, 0.1, 2.0])),
             "phases": [draw(_angles) for _ in range(n)]},
            {"kind": "tensor_sum", "n": n}]
    return [scenario_doc(spec, pulses, trigger, target) for pulses in kinds]


def _jobs(doc, scenario: Path, out: Path):
    """The argv of every CLI job of one scenario file."""
    for engine in _ENGINES[doc["pulses"]["kind"]]:
        for mode, fmt in (("exact", "csv"), ("mc", "jsonl")):
            yield ["simulate", "--scenario", str(scenario), "--engine", engine,
                   "--mode", mode, "--shots", "64", "--seed", "5",
                   "--cutoff", "2", "--format", fmt,
                   "--out", str(out / f"{engine}-{mode}.{fmt}")]
    yield ["sweep", "--scenario", str(scenario), "--from", "0", "--to", "6.3",
           "--steps", "5", "--out", str(out / "sweep.csv")]


def _two_sources_one_delay():
    """Two one-bin sources, one delay and two detectors (the second source
    is absorbed), with a sweep on the delay: a valid single-photon
    scenario that ``sweep`` must refuse, not crash on."""
    spec = CircuitSpec(elements=(
        Source("src0", "s0", 1), Source("src1", "s1", 1),
        BeamSplitter("bs0", ("s0", "vac3"), ("w0", "w1")),
        Delay("d0", "w1", "w2", 1),
        BeamSplitter("bc0", ("w0", "w2"), ("w4", "w5")),
        Absorber("a1", "s1"), Detector("T0", "w4"), Detector("T1", "w5")))
    return [scenario_doc(spec, {"kind": "single_photons", "photons": [["src0", 0]]},
                         sweep_target="d0")]


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(docs=_scenario_docs())
@example(docs=_two_sources_one_delay())
def test_random_scenarios_exit_cleanly_through_the_cli(docs):
    with tempfile.TemporaryDirectory() as tmp:
        for k, doc in enumerate(docs):
            case = Path(tmp) / str(k)
            case.mkdir()
            scenario = case / "scenario.json"
            scenario.write_text(json.dumps(doc), encoding="utf-8")
            for argv in _jobs(doc, scenario, case):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv)
                err = err.getvalue()
                job = (doc["pulses"], argv[:8], code, err)
                assert code in (0, 2, 3), job
                if code:
                    prefix = "error: " if code == 2 else "engine error: "
                    assert err.startswith(prefix) and err.count("\n") == 1, job
                else:
                    written = list(case.glob(f"{Path(argv[-1]).stem}.*"))
                    assert written, job
                    for path in written:
                        assert not non_finite_numbers(path), (job, path.name)
