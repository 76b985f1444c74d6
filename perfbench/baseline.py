"""Run the benchmark over several seeds and record the baseline.

Usage (from the repository root)::

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload it makes ``--runs`` untraced runs (seeds 1..runs) and
prints ``setup_s``, ``pass_s``, ``peak_rss_mb`` and ``error_rate`` with
their units.  With ``--out`` it adds one traced run (seed 1) and writes the
medians, quartile spreads, the traced per-layer table, the job sizes and
the machine facts there.
The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Which end-to-end metric each layer should move, and on which workload.
LAYER_MAP = {
    "scenarios": {"metrics": ["setup_s"], "workloads": list(workloads.WORKLOADS)},
    "circuit": {"metrics": ["pass_s", "peak_rss_mb"],
                "workloads": ["exact_long_train"],
                "elsewhere": "no change predicted: N <= 100 and compile under 1%"},
    "coherent": {"metrics": ["pass_s", "peak_rss_mb"],
                 "workloads": ["exact_long_train", "mc_sparse_clicks"],
                 "elsewhere": "sample_clicks is a small share of mc_dense_log"},
    "singlephoton": {"metrics": ["pass_s"],
                     "workloads": ["exact_long_train", "mc_dense_log"]},
    "fock": {"metrics": ["pass_s"], "workloads": ["oracle_small", "mc_dense_log"],
             "elsewhere": "fock.sample_joint runs only in mc_dense_log; "
                          "the other workloads run no fock code"},
    "runner": {"metrics": ["pass_s"], "workloads": ["mc_dense_log"],
               "elsewhere": "under 10% of exact_long_train and mc_sparse_clicks"},
    "cli": {"metrics": ["pass_s"], "workloads": list(workloads.WORKLOADS),
            "elsewhere": "small everywhere"},
}

LIMITS = [
    "no hardware counters are read: no cycles, instructions or cache misses",
    "no cache dropping: the page cache is warm after the first run",
    "circuit.map_bytes is computed from array sizes, not measured",
    "peak_rss_mb is ru_maxrss of each child from os.wait4; no other process is read; "
    "the reference kernel of speed.py adds under 1 MB to it",
    "pass_s and setup_s are the child's CPU time (user + system), which leaves out "
    "I/O and scheduling waits, scaled by a reference kernel (speed.py) that the child "
    "times right before and after cli.main, with run.py and its children pinned to "
    "one CPU: the effective CPU speed of this shared machine drifts by tens of percent "
    "over minutes; the scaling removes most of that drift, not all",
    "trace.overhead_s is the number of spans times the cost of one wrapper call "
    "measured on a no-op, not a difference of two timed runs",
]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200, check=True)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def machine() -> dict:
    import numpy
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__, "platform": platform.platform(),
             "blas_threads": {k: v for k, v in bench.CHILD_ENV.items()
                              if k.endswith("_THREADS")},
             "children_cpus": 1, "reference_s": speed.REFERENCE_S}
    try:
        import scipy
        facts["scipy"] = scipy.__version__
    except ImportError:
        facts["scipy"] = None
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    config = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    record = {"run_seconds": seconds, "machine": machine(), "limits": LIMITS,
              "layer_map": LAYER_MAP, "workloads": {}}
    why = {w["name"]: w["why"] for w in config["workloads"]}
    for workload in workloads.WORKLOADS:
        results = [one_run(workload, s, seconds, 0) for s in range(1, args.runs + 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        jobs = workloads.describe(workload)
        entry = {"why": why[workload], "jobs": jobs,
                 "passes_per_run": [r["attempted"] // len(jobs) for r in results],
                 "end_to_end": {}, "error_rate": failed / attempted,
                 "attempted": attempted}
        for name in bounds:
            s = summary([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            s["bound"] = bounds[name]
            entry["end_to_end"][name] = s
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}), values "
                  + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)
        print(f"{workload} error_rate: {failed / attempted:.6g} ratio "
              f"({failed}/{attempted} jobs)", flush=True)
        if args.out:
            traced = one_run(workload, 1, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            spans = json.loads((bench.WORK_ROOT / f"spans-{workload}-1.json")
                               .read_text(encoding="utf-8"))
            dims = {s[4]: s[5]["dim"] for s in spans if s[0] == "fock.FockBasis.build"}
            for job in entry["jobs"]:
                if job["job"] in dims:
                    job["basis_dim"] = dims[job["job"]]
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
