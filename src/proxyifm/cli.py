"""Command-line interface.

Subcommands: ``simulate``, ``sweep``, ``oracle``, ``decompose``,
``list-scenarios``.  Exit codes: 0 success, 2 validation error (bad
scenario file, wiring, input file or argument), 3 engine error.  argparse
rejects bad arguments with 2; any :class:`~proxyifm.errors.ProxyIfmError`
exits with its class's ``exit_code`` and one stderr line that names the
``--scenario`` value.

Environment overrides: ``PROXYIFM_SEED`` replaces the scenario's default
seed; ``PROXYIFM_OUTDIR`` prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ParseError, ProxyIfmError
from .multiport import reck_decompose
from .runner import RunReport, Table, emit, run, sweep_table
from .scenarios import list_builtin_scenarios, load_scenario


def _out_path(raw: str) -> Path:
    path = Path(raw)
    outdir = os.environ.get("PROXYIFM_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


def _default_seed(scenario_seed: int) -> int:
    env = os.environ.get("PROXYIFM_SEED")
    if not env:
        return scenario_seed
    try:
        return _int_at_least(0)(env)
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"PROXYIFM_SEED: {exc}") from None


def _checked(convert, accept, need: str):
    """argparse ``type=``: ``convert`` the text, then require ``accept`` (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {value}")
        return value
    return parse


def _int_at_least(low: int):
    return _checked(int, lambda v: v >= low, f">= {low}")


_finite = _checked(float, math.isfinite, "finite")
_finite_positive = _checked(float, lambda v: math.isfinite(v) and v > 0,
                            "finite and > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxyifm",
        description="Time-bin interferometer simulator: exact coherent and "
                    "single-photon engines plus a brute-force Fock oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario through an engine")
    sim.add_argument("--scenario", required=True,
                     help="scenario file path or shipped scenario name")
    sim.add_argument("--engine", choices=["coherent", "singlephoton", "fock"],
                     help="override the source's natural engine")
    sim.add_argument("--mode", choices=["exact", "mc"], default=None)
    sim.add_argument("--shots", type=_int_at_least(1), default=None)
    sim.add_argument("--seed", type=_int_at_least(0), default=None)
    sim.add_argument("--cutoff", type=_int_at_least(0), default=None,
                     help="Fock truncation (fock engine only); defaults to "
                          "the one that holds the source's light")
    sim.add_argument("--out", required=True)
    sim.add_argument("--format", choices=["csv", "jsonl"], default="csv")

    sw = sub.add_parser("sweep", help="sweep a scenario phase parameter")
    sw.add_argument("--scenario", required=True)
    sw.add_argument("--param", default="delay_phase")
    sw.add_argument("--from", dest="start", type=_finite, required=True)
    sw.add_argument("--to", dest="stop", type=_finite, required=True)
    sw.add_argument("--steps", type=_int_at_least(1), required=True)
    sw.add_argument("--out", required=True)

    orc = sub.add_parser("oracle", help="exact Fock-space joint distribution")
    orc.add_argument("--scenario", required=True)
    orc.add_argument("--cutoff", type=_int_at_least(0), default=None)
    orc.add_argument("--out", required=True)

    dec = sub.add_parser("decompose",
                         help="triangular two-mode decomposition of a unitary")
    dec.add_argument("--unitary", required=True,
                     help="CSV of complex entries, one matrix row per line")
    dec.add_argument("--tol", type=_finite_positive, default=1e-10)
    dec.add_argument("--out", required=True)

    sub.add_parser("list-scenarios", help="list the shipped golden scenarios")
    return parser


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else _default_seed(scenario.defaults.seed)
    report = run(scenario, engine=args.engine, mode=args.mode,
                 shots=args.shots, seed=seed, cutoff=args.cutoff)
    emit(report, args.format, _out_path(args.out))
    return 0


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    values = np.linspace(args.start, args.stop, args.steps)
    table = sweep_table(scenario, args.param, values)
    emit(RunReport({"sweep": table}), "csv", _out_path(args.out))
    return 0


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run(scenario, engine="fock", mode="exact", cutoff=args.cutoff)
    emit(RunReport({"joint": report.tables["joint"]}), "csv", _out_path(args.out))
    return 0


def _read_unitary(path: str) -> np.ndarray:
    """The complex matrix in a CSV file, one row per line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        rows = [[complex(tok.strip().replace(" ", "")) for tok in line.split(",")]
                for line in text.strip().splitlines()]
    except (OSError, ValueError) as exc:
        raise ParseError(f"unitary {path}: {exc}") from None
    for k, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise ParseError(f"unitary {path}: row 1 has {len(rows[0])} "
                             f"entries but row {k + 1} has {len(row)}")
    return np.array(rows, dtype=complex)


def _cmd_decompose(args) -> int:
    d = reck_decompose(_read_unitary(args.unitary), tol=args.tol)
    out_rows: list[tuple] = []
    for op in d.steps:
        m = op.matrix
        out_rows.append((op.position, op.mode_pair[0], op.mode_pair[1],
                         m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag,
                         m[1, 0].real, m[1, 0].imag, m[1, 1].real, m[1, 1].imag))
    for k, ph in enumerate(d.output_phases):
        out_rows.append((f"phase_{k}", k, k,
                         ph.real, ph.imag, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    table = Table(headers=("position", "i", "j", "m00re", "m00im", "m01re",
                           "m01im", "m10re", "m10im", "m11re", "m11im"),
                  rows=out_rows)
    emit(RunReport({"steps": table}), "csv", _out_path(args.out))
    return 0


def _cmd_list(_args) -> int:
    for name in list_builtin_scenarios():
        scenario = load_scenario(name)
        print(f"{name}: {scenario.description}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "oracle": _cmd_oracle,
        "decompose": _cmd_decompose,
        "list-scenarios": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except ProxyIfmError as exc:
        kind = "error" if exc.exit_code == 2 else "engine error"
        scenario = getattr(args, "scenario", None)
        where = f"scenario {scenario!r}: " if scenario else ""
        print(f"{kind}: {where}{exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
