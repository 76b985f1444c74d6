"""Seeded job lists for the benchmark's workloads.

Every input is generated from a shipped scenario template by replacing
``pulses.n``, ``alpha_squared`` and ``phases``; the program only ever sees
the generated files.  The workload seed sets a common phase theta on every
coherent pulse (it rotates the closed-form amplitudes by exp(i theta) and
leaves them valid otherwise) and every Monte-Carlo ``--seed``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO_DIR = SRC / "proxyifm" / "scenarios"

@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` with ``{out}`` standing for the output path."""

    job_id: str
    argv: tuple[str, ...]
    scenario: str                       # generated scenario file
    check: str                          # name of the output check in checks.py
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Spec:
    """Size of one job; ``None`` keeps the template's value."""

    job_id: str
    command: str                        # simulate, sweep or oracle
    template: str
    n: int | None = None
    alpha_squared: float | None = None
    mode: str = "exact"
    engine: str | None = None
    shots: int | None = None
    fmt: str = "csv"
    cutoff: int | None = None
    steps: int | None = None


SPECS = {
    "exact_long_train": (
        Spec("fig3_n500", "simulate", "fig3_blocked_l", n=500),
        Spec("fig3_n1000", "simulate", "fig3_blocked_l", n=1000),
        Spec("fig3_n1500", "simulate", "fig3_blocked_l", n=1500),
        Spec("fig2_n1500", "simulate", "fig2_blocked", n=1500),
        Spec("ts_n1500", "simulate", "fig2_tensor_sum_blocked", n=1500),
        Spec("sweep_n500", "sweep", "fringe_sweep", n=500, steps=32),
    ),
    "mc_sparse_clicks": (
        Spec("fig2_n100_mc", "simulate", "fig2_blocked", n=100,
             alpha_squared=0.001, mode="mc", shots=500_000),
    ),
    "mc_dense_log": (
        Spec("fig2_mc", "simulate", "fig2_blocked", mode="mc",
             shots=400_000, fmt="jsonl"),
        Spec("ts_mc", "simulate", "fig2_tensor_sum_blocked", mode="mc",
             shots=150_000, fmt="jsonl"),
        Spec("fock_mc", "simulate", "fig2_blocked", n=4, mode="mc",
             engine="fock", shots=50_000, cutoff=4),
    ),
    "oracle_small": (
        Spec("fig2_n4_c5", "oracle", "fig2_blocked", n=4, engine="fock", cutoff=5),
        Spec("fig2_n4_c4", "oracle", "fig2_blocked", n=4, engine="fock", cutoff=4),
        Spec("fig3_n2_c4", "oracle", "fig3_blocked_l", n=2, engine="fock", cutoff=4),
        Spec("ts_n7_c1", "oracle", "fig2_tensor_sum_blocked", n=7, engine="fock",
             cutoff=1),
        Spec("hom_c2", "oracle", "hom_pair", engine="fock", cutoff=2),
    ),
}

WORKLOADS = tuple(SPECS)


def _scenario(template: dict, spec: Spec, theta: float) -> dict:
    raw = json.loads(json.dumps(template))
    pulses = raw["pulses"]
    if spec.n is not None:
        pulses["n"] = spec.n
    if pulses["kind"] == "coherent":
        if spec.alpha_squared is not None:
            pulses["alpha_squared"] = spec.alpha_squared
        pulses["phases"] = [theta] * pulses["n"]
    return raw


def _argv(spec: Spec, scenario_path: Path, mc_seed: int) -> list[str]:
    argv = [spec.command, "--scenario", str(scenario_path), "--out", "{out}"]
    if spec.command == "sweep":
        return argv + ["--from", "0", "--to", repr(2 * math.pi),
                       "--steps", str(spec.steps)]
    if spec.command == "oracle":
        return argv + ["--cutoff", str(spec.cutoff)]
    argv += ["--mode", spec.mode, "--format", spec.fmt]
    if spec.engine:
        argv += ["--engine", spec.engine]
    if spec.cutoff is not None:
        argv += ["--cutoff", str(spec.cutoff)]
    if spec.mode == "mc":
        argv += ["--shots", str(spec.shots), "--seed", str(mc_seed)]
    return argv


def _check(spec: Spec, raw: dict) -> tuple[str, dict]:
    """Pick the output check and the closed-form parameters it needs."""
    pulses = raw["pulses"]
    params = {"template": spec.template, "n": pulses.get("n")}
    if pulses["kind"] == "coherent":
        params.update(alpha_squared=pulses["alpha_squared"],
                      theta=pulses["phases"][0])
    if spec.command == "sweep":
        return "sweep", params
    if spec.command == "oracle":
        params["cutoff"] = spec.cutoff
        return "oracle", params
    if spec.mode == "mc":
        params.update(shots=spec.shots, fmt=spec.fmt)
        return ("mc_fock" if spec.engine == "fock" else
                "mc_photon" if pulses["kind"] == "tensor_sum" else "mc_clicks"), params
    return ("exact_photon" if pulses["kind"] == "tensor_sum" else "exact_field"), params


def generate(workload: str, seed: int, workdir: Path,
             specs: tuple[Spec, ...] | None = None) -> list[Job]:
    """Write the workload's scenario files under ``workdir`` and return its jobs.

    The same ``seed`` gives byte-identical scenario files and argv lists.
    ``specs`` replaces the workload's sizes (the self-tests use small ones).
    """
    rng = random.Random(f"{workload}:{seed}")
    theta = rng.uniform(0.0, 2.0 * math.pi)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for spec in specs if specs is not None else SPECS[workload]:
        template = json.loads((SCENARIO_DIR / f"{spec.template}.json").read_text())
        raw = _scenario(template, spec, theta)
        raw["id"] = spec.job_id
        path = workdir / f"{spec.job_id}.json"
        path.write_text(json.dumps(raw, indent=1), encoding="utf-8")
        argv = _argv(spec, path, rng.randrange(1, 2**31))
        check, params = _check(spec, raw)
        jobs.append(Job(spec.job_id, tuple(argv), str(path), check, params))
    (workdir / "jobs.json").write_text(json.dumps(
        [{"job_id": j.job_id, "argv": j.argv} for j in jobs], indent=1),
        encoding="utf-8")
    return jobs


def describe(workload: str) -> list[dict]:
    """Input sizes of each job, for the baseline record."""
    out = []
    for s in SPECS[workload]:
        template = json.loads((SCENARIO_DIR / f"{s.template}.json").read_text())
        pulses = template["pulses"]
        out.append({k: v for k, v in {
            "job": s.job_id, "command": s.command, "scenario": s.template,
            "engine": s.engine if s.command == "simulate" else None,
            "mode": s.mode if s.command == "simulate" else None,
            "N": s.n if s.n is not None else pulses.get("n"),
            "alpha_squared": s.alpha_squared if s.alpha_squared is not None
            else pulses.get("alpha_squared"),
            "shots": s.shots, "format": s.fmt if s.command == "simulate" else None,
            "cutoff": s.cutoff, "steps": s.steps}.items() if v is not None})
    return out
