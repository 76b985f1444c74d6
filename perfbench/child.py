"""Run one CLI job in this fresh interpreter and time it.

Usage: ``python3 child.py SRC_DIR JOB_JSON RESULT_JSON TRACE``.  Set-up is
importing ``proxyifm.cli`` and loading the job's scenario, as every CLI
call does; the job itself is ``proxyifm.cli.main(argv)``.  Both are timed
as this process's CPU time, user plus system; the job is also timed in
wall time (``main_wall_s``).  The reference kernel of ``speed.py`` is
timed right before and right after the job (``reference_s``), and
``scale`` is the factor it gives.  With TRACE=1
the spans of ``tracing.install`` are kept in memory and written to the
result file at exit; with TRACE=0 no wrapper is installed.
"""

import json
import sys
import time
from pathlib import Path


def main(src_dir: str, job_path: str, result_path: str, trace: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    c0 = time.process_time()
    sys.path.insert(0, src_dir)
    import proxyifm.cli
    proxyifm.cli.load_scenario(job["scenario"])
    setup_s = time.process_time() - c0

    src = Path(src_dir).resolve()
    if src not in Path(proxyifm.cli.__file__).resolve().parents:
        print(f"proxyifm was imported from {proxyifm.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 4
    tracer = None
    if trace == "1":
        from tracing import Tracer, install
        tracer = Tracer(job["job_id"])
        install(tracer)
    import speed        # after set-up, so that numpy's import stays in setup_s
    reference_s = [speed.reference_s()]
    t1, c1 = time.perf_counter(), time.process_time()
    code = proxyifm.cli.main(job["argv"])
    main_wall_s, main_s = time.perf_counter() - t1, time.process_time() - c1
    reference_s.append(speed.reference_s())
    out_bytes = sum(p.stat().st_size for p in Path(job["outdir"]).iterdir())
    Path(result_path).write_text(json.dumps({
        "setup_s": setup_s, "main_s": main_s, "main_wall_s": main_wall_s,
        "exit": code, "out_bytes": out_bytes, "reference_s": reference_s,
        "scale": speed.scale(reference_s),
        "spans": tracer.spans if tracer else None}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
