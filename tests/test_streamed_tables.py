"""Exact and oracle tables longer than one chunk.

The coherent ``field`` table of a long pulse train and the Fock ``joint``
table are streams of ``sampling.MC_CHUNK`` rows, built while ``emit`` writes
them, as the Monte-Carlo event tables are.  The bytes must not depend on
the chunking, and a run must hold its distribution, not its rendered
rows.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from proxyifm import runner
from proxyifm.cli import main
from proxyifm.coherent import FieldConfiguration
from proxyifm.runner import emit, run
from proxyifm.scenarios import builtin_scenario_path, load_scenario

from conftest import MC_CHUNK, column_bytes


def _train(tmp_path, name: str, n: int) -> str:
    """A shipped coherent scenario with ``n`` pulses of phase 0."""
    doc = json.loads(builtin_scenario_path(name).read_text(encoding="utf-8"))
    doc["pulses"].update(n=n, phases=[0.0] * n)
    path = tmp_path / f"{name}_n{n}.json"
    path.write_text(json.dumps(doc))
    return str(path)


# 160,008 field rows, and 134,596 joint rows at cutoff 6: each table is
# one full chunk and a partial second.
FIELD = ("fig3_blocked_l", 40_000)
JOINT = ("fig2_blocked", 6)

CASES = {
    "exact-csv": (FIELD, ("simulate", "--mode", "exact")),
    "exact-jsonl": (FIELD, ("simulate", "--mode", "exact", "--format", "jsonl")),
    "oracle": (JOINT, ("oracle", "--cutoff", "6")),
    "fock-jsonl": (JOINT, ("simulate", "--engine", "fock", "--mode", "exact",
                           "--cutoff", "6", "--format", "jsonl")),
}

# File name (the main output is "out") -> sha256 of its bytes, recorded
# from the writer that built each table whole before streaming.
DIGESTS = {
    "exact-csv": {
        "out":
            "88ace52da836fafb9bae10453b586bbb544eb76cbddcf167b32310a7cf2d83d1",
        "out.conditionals.csv":
            "951fccf640f5a837298883647169103e2785e579963dddfea25533ec3e96df4b",
    },
    "exact-jsonl": {
        "out":
            "c238bc7443a9210ddac2fc7b81645dc0be74f35d65c1da2a320e6a0c20043786",
    },
    "oracle": {
        "out":
            "8df540c8c763f99e947dd4464ff22c705928fb5ce9bc8cd9bdf1c1b113a8d11a",
    },
    "fock-jsonl": {
        "out":
            "19f67c5619b8e7b869ca6bedd621a43b465d9fb1b7283ccbb73b6163c4c494c7",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_multi_chunk_bytes_are_pinned(case, tmp_path, monkeypatch):
    monkeypatch.delenv("PROXYIFM_SEED", raising=False)
    monkeypatch.delenv("PROXYIFM_OUTDIR", raising=False)
    (name, n), args = CASES[case]
    scenario = _train(tmp_path, name, n)
    out = tmp_path / "out"
    out.mkdir()
    assert main([args[0], "--scenario", scenario, *args[1:],
                 "--out", str(out / "out")]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir()}
    assert written == DIGESTS[case]


@pytest.mark.parametrize("train, table, options, row_bytes, kept_chunks", [
    (FIELD, "field", {}, 16, 0.5),
    (JOINT, "joint", {"engine": "fock", "cutoff": 6}, 0, 1.5),
], ids=["field", "joint"])
def test_exact_run_renders_no_rows_and_emit_holds_one_chunk(
        tmp_path, train, table, options, row_bytes, kept_chunks):
    scenario = load_scenario(_train(tmp_path, *train))
    tracemalloc.start()
    try:
        report = run(scenario, mode="exact", **options)
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        emit(report, "csv", tmp_path / "out.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    first = next(iter(report.tables[table].chunks))
    chunk = column_bytes(first)
    rows = len(report.tables[table].rows)
    # The report holds what the engine computed, and a table built whole
    # in ``run`` would hold all of its columns besides (1.2 or 1.03
    # chunks).  The field holds each cell's complex amplitude (16 bytes)
    # and, besides, well under half a chunk of columns: its cells' two
    # int32 index columns.  The Fock distribution holds every row's counts
    # and probability, and the report the table's row order: about 1.3
    # chunks at this size.
    held = kept - row_bytes * rows
    assert held < kept_chunks * chunk, f"{held / 2**20:.2f} MiB held"
    assert peak - kept < 1.5 * chunk, f"{(peak - kept) / 2**20:.1f} MiB"
    assert len(first[0]) == MC_CHUNK


def test_field_columns_match_the_scalar_expressions_bit_for_bit():
    """The field table's ``mean_n`` and ``p_click`` are float64 columns
    with the bits of the scalar ``float(abs(a) ** 2)`` and
    ``float(-np.expm1(-mean))`` of each cell, from amplitudes whose square
    is subnormal to amplitudes whose square overflows."""
    rng = np.random.default_rng(20220321)
    n = 500_000
    drawn = 10.0 ** rng.uniform(-160, 150, n) \
        * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    tiny = np.nextafter(0.0, 1.0)
    zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    subnormal = [complex(tiny, 0.0), complex(0.0, -tiny), complex(tiny, tiny),
                 complex(2.2e-308, -1e-310)]
    overflowing = [complex(1e155, 0.0), complex(-1.5e154, 1.5e154)]
    edges = np.array(zeros + subnormal + overflowing)
    field = FieldConfiguration({"D1": drawn, "D2": edges})
    with np.errstate(over="ignore"):        # the overflowing squares
        chunks = list(runner._field_table(field).chunks)
        scalar_mean = np.array([float(abs(a) ** 2)
                                for a in np.concatenate([drawn, edges])])
    scalar_p = np.array([float(-np.expm1(-m)) for m in scalar_mean])
    mean = np.concatenate([columns[4] for columns in chunks])
    p_click = np.concatenate([columns[5] for columns in chunks])
    assert len(chunks) == 4
    assert mean.dtype == p_click.dtype == np.float64
    assert np.array_equal(mean.view(np.uint64), scalar_mean.view(np.uint64))
    assert np.array_equal(p_click.view(np.uint64), scalar_p.view(np.uint64))
    # The edges are where they should be: no light never clicks, a square
    # past the largest float always does, and some squares are subnormal.
    assert (p_click[n:n + len(zeros)] == 0.0).all()
    assert np.isinf(mean[-2:]).all() and (p_click[-2:] == 1.0).all()
    assert ((0 < mean) & (mean < np.finfo(float).tiny)).sum() > 1000
