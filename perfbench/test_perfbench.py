"""Self-tests of the benchmark, on shrunken copies of its workloads.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Span names each workload is meant to load: each must fire there.
EXPECTED_SPANS = {
    "exact_long_train": {
        "scenarios.load_scenario", "circuit.compile_circuit", "circuit.validate",
        "coherent.propagate_coherent", "coherent.interaction_free_probability",
        "coherent.fringe_sweep", "singlephoton.propagate_photon", "runner.run",
        "runner.emit", "runner.sweep_table", "cli.main"},
    "mc_sparse_clicks": {"coherent.sample_clicks", "runner.run", "runner.emit",
                         "cli.main"},
    "mc_dense_log": {
        "coherent.sample_clicks", "singlephoton.propagate_photon",
        "singlephoton.sample_outcomes", "fock.FockBasis.build", "fock.FockOracle.run",
        "fock.FockBasis.index_of", "fock.apply_two_mode_unitary", "fock.sample_joint",
        "runner.run", "runner.emit", "cli.main"},
    "oracle_small": {
        "scenarios.load_scenario", "circuit.validate", "fock.FockBasis.build",
        "fock.FockOracle.run", "fock.FockBasis.index_of", "fock.apply_two_mode_unitary",
        "runner.run", "runner.emit", "cli.main"},
}


def small(workload: str) -> tuple[workloads.Spec, ...]:
    """The workload's jobs with short trains, few shots and small bases."""
    return tuple(replace(s, n=s.n and min(s.n, 2 if s.engine == "fock" else 12),
                         shots=s.shots and min(s.shots, 3000))
                 for s in workloads.SPECS[workload])


def one_pass(workload: str, tmp_path: Path, trace: bool, seed: int = 7):
    jobs = workloads.generate(workload, seed, tmp_path / "inputs", small(workload))
    run = bench.Run(jobs, tmp_path / ("traced" if trace else "plain"), 1e18)
    done = run.run_pass(trace)
    return run, done


def test_generator_is_seeded(tmp_path):
    a = workloads.generate("mc_dense_log", 3, tmp_path / "a")
    b = workloads.generate("mc_dense_log", 3, tmp_path / "b")
    c = workloads.generate("mc_dense_log", 4, tmp_path / "c")
    assert [j.argv[3:] for j in a] == [j.argv[3:] for j in b]
    assert [j.argv[3:] for j in a] != [j.argv[3:] for j in c]
    for ja, jb in zip(a, b):
        assert Path(ja.scenario).read_bytes() == Path(jb.scenario).read_bytes()


@pytest.mark.parametrize("workload", ["exact_long_train", "mc_dense_log"])
def test_tracing_leaves_outputs_byte_identical(workload, tmp_path):
    jobs = workloads.generate(workload, 7, tmp_path / "inputs", small(workload))
    run = bench.Run(jobs, tmp_path / "work", 1e18)
    run.run_pass(False)
    run.run_pass(True)
    plain, traced = run.results[:len(jobs)], run.results[len(jobs):]
    assert all(r["exit"] == 0 for r in run.results)
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]
    assert all(not found for found in run.check().values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_mapped_spans_fire(workload, tmp_path):
    run, done = one_pass(workload, tmp_path, trace=True)
    assert all(r["exit"] == 0 for r in run.results), run.results
    fired = {span[0] for span in done["spans"]}
    assert EXPECTED_SPANS[workload] <= fired, EXPECTED_SPANS[workload] - fired
    # One cli.main root per job; every other span nests in its parent.
    spans = done["spans"]
    assert [s[0] for s in spans if s[3] == -1] == ["cli.main"] * len(run.jobs)
    for name, start, end, parent, job, _ in spans:
        if parent >= 0:
            p = spans[parent]
            assert p[4] == job and p[1] <= start <= end <= p[2], (name, p[0])
    assert min(tracing.self_times(spans).values()) >= 0.0
    assert bench.count_failures(run.results, run.check()) == 0


def test_untraced_pass_records_no_spans(tmp_path):
    _, done = one_pass("mc_sparse_clicks", tmp_path, trace=False)
    assert done["spans"] == []


def test_pass_s_is_cpu_time_scaled_by_the_reference_kernel(tmp_path):
    run, done = one_pass("oracle_small", tmp_path, trace=False)
    for r in run.results:
        assert len(r["reference_s"]) == 2 and min(r["reference_s"]) > 0.0
        assert r["scale"] == pytest.approx(
            speed.REFERENCE_S * 2.0 / sum(r["reference_s"]))
    assert done["pass_cpu_s"] == pytest.approx(sum(r["main_s"] for r in run.results))
    assert done["pass_s"] == pytest.approx(
        sum(r["main_s"] * r["scale"] for r in run.results))


def _drop_d1(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if '"D1"' not in line)


@pytest.mark.parametrize("workload, job_id, name, corrupt", [
    ("exact_long_train", "fig2_n1500", "out.csv",
     lambda text: text.replace("\nD2,3,", "\nD2,3,1", 1)),
    ("mc_dense_log", "fig2_mc", "out.jsonl", _drop_d1),
    ("oracle_small", "hom_c2", "out.csv",
     lambda text: text.replace("D1=0;D2=2", "D1=1;D2=1")),
])
def test_corrupted_output_counts_as_failed(workload, job_id, name, corrupt, tmp_path):
    run, _ = one_pass(workload, tmp_path, trace=False)
    assert bench.count_failures(run.results, run.check()) == 0
    target = next(r for r in run.results if r["job_id"] == job_id)
    path = Path(target["outdir"]) / name
    text = path.read_text(encoding="utf-8")
    path.write_text(corrupt(text), encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    assert bench.count_failures(run.results, run.check()) == 1
