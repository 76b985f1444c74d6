"""proxyifm benchmark: time real CLI jobs, one fresh interpreter per job.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact_long_train --seed 1 \
        --seconds 30 --trace 0

A run generates the workload's inputs from ``--seed``, then repeats passes
over the workload's fixed job list, one child process at a time, until the
next pass would end after ``--seconds``.  Outputs are checked against
closed forms once timing is over.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: ``setup_s`` (median over the run's jobs of importing
  ``proxyifm.cli`` and loading the scenario), ``pass_s`` (median over
  passes of the summed in-child ``cli.main`` times) and ``peak_rss_mb``
  (largest ``ru_maxrss`` of any child, from ``os.wait4``).  Both times are
  the child's CPU time, user plus system, scaled to a fixed host speed:
  the child times the reference kernel of ``speed.py`` right before and
  after ``cli.main``, and the job's times are multiplied by
  ``speed.REFERENCE_S`` over the mean of the two (``speed.scale``).  The
  unscaled CPU and wall times of a pass are printed beside them.
  A pass in which a job failed is left out of ``pass_s``, so a crash never
  reads as a gain.
* ``--trace 1``: every pass is traced; the per-layer table of
  ``tracing.layer_table`` is the median over passes, plus
  ``trace.overhead_s``, the wrapper cost the pass's spans add up to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = workloads.SRC
WORK_ROOT = workloads.ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150.0
# Children run single-threaded: every layer is serial Python/numpy, and a
# fixed BLAS thread count keeps runs comparable on a shared 2-core machine.
# A fixed string-hash seed gives every pass the same dict layouts.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PROXYIFM_") and k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    return env


def run_job(job: workloads.Job, outdir: Path, trace: bool, deadline: float) -> dict:
    """Run one job in a fresh interpreter; return its timings and status."""
    outdir.mkdir(parents=True)
    out_name = "out.jsonl" if "jsonl" in job.argv else "out.csv"
    spec = {"job_id": job.job_id, "scenario": job.scenario, "outdir": str(outdir),
            "argv": [str(outdir / out_name) if a == "{out}" else a for a in job.argv]}
    job_file = outdir.parent / f"{job.job_id}.job.json"
    result_file = outdir.parent / f"{job.job_id}.result.json"
    log_file = outdir.parent / f"{job.job_id}.log"
    job_file.write_text(json.dumps(spec), encoding="utf-8")
    with open(log_file, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(SRC),
             str(job_file), str(result_file), "1" if trace else "0"],
            stdout=log, stderr=log, env=child_env())
    status, rusage = _wait4(proc, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    result = {"job_id": job.job_id, "exit": status,
              "rss_mb": rusage.ru_maxrss / 1024.0, "outdir": str(outdir)}
    if status == 0 and result_file.exists():
        result.update(json.loads(result_file.read_text(encoding="utf-8")))
    else:
        result["error"] = log_file.read_text(encoding="utf-8", errors="replace")[-2000:]
    return result


def _wait4(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with ``os.wait4`` so its own peak RSS is read.

    The child is killed if it has not exited after ``timeout`` seconds.
    """
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 1.0))
    finally:
        os.close(fd)
    if not ready:
        proc.kill()
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def _digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(outdir.iterdir()):
        h.update(p.name.encode())
        with open(p, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Run:
    """Passes over one workload's jobs; keeps each distinct output once."""

    def __init__(self, jobs: list[workloads.Job], workdir: Path, deadline: float):
        self.jobs = jobs
        self.workdir = workdir
        self.deadline = deadline
        self.results: list[dict] = []        # every job attempt
        # {"ok", "pass_s", "pass_cpu_s", "pass_wall_s", "wall_s", "spans", "bytes"}
        self.passes: list[dict] = []
        self._kept: dict[tuple[str, str], Path] = {}   # (job, digest) -> outdir

    def run_pass(self, trace: bool) -> dict:
        k = len(self.passes)
        t0 = time.monotonic()
        results = [run_job(job, self.workdir / f"p{k}" / job.job_id, trace,
                           self.deadline) for job in self.jobs]
        wall_s = time.monotonic() - t0
        for r in results:
            self._keep_distinct(r)
        spans: list[list] = []
        for r in results:        # parent indices are per child: make them global
            base = len(spans)
            for span in r.pop("spans", None) or []:
                span[3] = span[3] + base if span[3] >= 0 else -1
                spans.append(span)
        done = {"ok": all(r["exit"] == 0 for r in results), "wall_s": wall_s,
                "pass_s": sum(r.get("main_s", 0.0) * r.get("scale", 0.0)
                              for r in results),
                "pass_cpu_s": sum(r.get("main_s", 0.0) for r in results),
                "pass_wall_s": sum(r.get("main_wall_s", 0.0) for r in results),
                "bytes": sum(r.get("out_bytes", 0) for r in results),
                "spans": spans}
        self.results.extend(results)
        self.passes.append(done)
        return done

    def _keep_distinct(self, result: dict) -> None:
        """Keep the first copy of each distinct output for checking."""
        outdir = Path(result["outdir"])
        if result["exit"] != 0:
            return
        key = (result["job_id"], _digest(outdir))
        result["digest"] = key[1]
        if key in self._kept:
            shutil.rmtree(outdir)
        else:
            self._kept[key] = outdir

    def check(self) -> dict[tuple[str, str], list[str]]:
        """Problems found in each distinct output, after timing is over."""
        by_id = {j.job_id: j for j in self.jobs}
        return {key: checks.check(by_id[key[0]], outdir)
                for key, outdir in self._kept.items()}


def count_failures(results: list[dict], problems: dict) -> int:
    """A job attempt fails on a non-zero exit or an output that fails its check."""
    return sum(1 for r in results
               if r["exit"] != 0 or problems[(r["job_id"], r["digest"])])


def percentile_note(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 passes beyond it ({n} passes)"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g} s ({n} passes)"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    """Run passes until the next one would end after ``seconds``, then check."""
    start = time.monotonic()
    workdir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        jobs = workloads.generate(workload, seed, workdir / "inputs")
        run = Run(jobs, workdir, start + 170.0)
        while True:
            run.run_pass(trace)
            cycle = statistics.median(p["wall_s"] for p in run.passes)
            if time.monotonic() - start + cycle > seconds:
                break
        return run, run.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def complete(run: Run) -> list[dict]:
    """Passes in which every job exited 0."""
    return [p for p in run.passes if p["ok"]]


def metrics(run: Run, trace: bool) -> dict[str, tuple[float, str]]:
    if not trace:
        return {
            "setup_s": (statistics.median(r["setup_s"] * r["scale"]
                                          for r in run.results if "scale" in r), "s"),
            "pass_s": (statistics.median(p["pass_s"] for p in complete(run)), "s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in run.results), "MB"),
        }
    table = tracing.median_table(
        [tracing.layer_table(p["spans"], p["bytes"]) for p in complete(run)])
    cost = tracing.wrapper_cost_s()
    table["trace.overhead_s"] = statistics.median(
        len(p["spans"]) * cost for p in complete(run))
    return {k: (v, tracing.unit(k)) for k, v in table.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "proxyifm" / "cli.py").is_file():
        print(f"error: {SRC / 'proxyifm'} not found; the benchmark runs on the "
              "repository's source tree", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    # Children run on one CPU, so a job and the reference kernels around it
    # see the same CPU's speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run, problems = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for (job_id, _), found in problems.items():
        for problem in found:
            print(f"check failed: {job_id}: {problem}", file=sys.stderr)
    for r in run.results:
        if r["exit"] != 0:
            print(f"job {r['job_id']} exited {r['exit']}: {r['error']}", file=sys.stderr)
    if not complete(run):
        print("error: no pass ran all its jobs to exit 0", file=sys.stderr)
        return 1
    if args.trace:
        spans = [s for p in run.passes for s in p["spans"]]
        (WORK_ROOT / f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps(spans), encoding="utf-8")
    failed = count_failures(run.results, problems)
    attempted = len(run.results)
    values = metrics(run, bool(args.trace))
    for name, (value, unit) in sorted(values.items(),
                                      key=lambda kv: (kv[1][1] != "s", -kv[1][0])):
        print(f"{args.workload} seed={args.seed} {name}: {value:.6g} {unit}")
    if not args.trace:
        tag = f"{args.workload} seed={args.seed}"
        print(f"{tag} pass_s: {percentile_note([p['pass_s'] for p in complete(run)])}")
        for name, what in (("pass_cpu_s", "CPU time"), ("pass_wall_s", "wall time")):
            raw = statistics.median(p[name] for p in complete(run))
            print(f"{tag} {name}: {raw:.6g} s (median {what}, unscaled, not gated)")
    print(f"{args.workload} seed={args.seed} error_rate: {failed / attempted:.6g} "
          f"ratio ({failed}/{attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
