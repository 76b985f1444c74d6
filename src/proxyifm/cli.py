"""Command-line interface.

``COMMANDS`` holds each subcommand (``simulate``, ``sweep``, ``oracle``,
``decompose``, ``list-scenarios``) with its handler and options, and both
parses the command line and prints ``--help``.  Exit codes: 0 success, 2
validation error (bad scenario file, wiring, input file or argument), 3
engine error.  Any :class:`~proxyifm.errors.ProxyIfmError`, a bad argument
included, exits with its class's ``exit_code`` and one stderr line that
names the ``--scenario`` value.

Environment overrides: ``PROXYIFM_SEED`` replaces the scenario's default
seed; ``PROXYIFM_OUTDIR`` prefixes relative output paths.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .circuit import MAX_MAP_BYTES
from .errors import ParseError, ProxyIfmError, StateTooLargeError
from .multiport import reck_decompose
from .runner import RunReport, Table, emit, run, sweep_table
from .scenarios import list_builtin_scenarios, load_scenario

# Bytes one sweep step holds at the peak of ``sweep_table`` and its emit:
# its value and its float64 row (32 measured).
_SWEEP_STEP_BYTES = 32


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
    return _value("PROXYIFM_SEED", _int_at_least(0), env)


def _checked(convert, accept, need: str):
    """A converter: ``convert`` the text, then require ``accept`` (ParseError)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise ParseError(f"invalid {convert.__name__} {text!r}") from None
        if not accept(value):
            raise ParseError(f"must be {need}, got {value}")
        return value
    return parse


def _int_at_least(low: int):
    return _checked(int, lambda v: v >= low, f">= {low}")


_finite = _checked(float, math.isfinite, "finite")
_finite_positive = _checked(float, lambda v: math.isfinite(v) and v > 0,
                            "finite and > 0")


def _value(name: str, kind, text: str):
    """``text`` through ``kind``, a converter or a tuple of choices; a
    refusal is a ``ParseError`` that names ``name``."""
    if isinstance(kind, tuple):
        if text in kind:
            return text
        raise ParseError(f"{name}: invalid choice {text!r} "
                         f"(choose from {', '.join(kind)})")
    try:
        return kind(text)
    except ParseError as exc:
        raise ParseError(f"{name}: {exc}") from None


REQUIRED = object()

_SCENARIO = ("--scenario", "scenario", str, REQUIRED)
_CUTOFF = ("--cutoff", "cutoff", _int_at_least(0), None)
_OUT = ("--out", "out", str, REQUIRED)

# command: (handler, summary, options); an option is (flag, dest, converter
# or tuple of choices, default or REQUIRED).  The handler is named, not
# bound, so that it is looked up in this module when the command runs.
COMMANDS = {
    "simulate": ("_cmd_simulate", "run a scenario through an engine", (
        _SCENARIO,
        ("--engine", "engine", ("coherent", "singlephoton", "fock"), None),
        ("--mode", "mode", ("exact", "mc"), None),
        ("--shots", "shots", _int_at_least(1), None),
        ("--seed", "seed", _int_at_least(0), None),
        _CUTOFF,
        _OUT,
        ("--format", "format", ("csv", "jsonl"), "csv"))),
    "sweep": ("_cmd_sweep", "sweep a scenario phase parameter", (
        _SCENARIO,
        ("--param", "param", str, "delay_phase"),
        ("--from", "start", _finite, REQUIRED),
        ("--to", "stop", _finite, REQUIRED),
        ("--steps", "steps", _int_at_least(1), REQUIRED),
        _OUT)),
    "oracle": ("_cmd_oracle", "exact Fock-space joint distribution",
               (_SCENARIO, _CUTOFF, _OUT)),
    "decompose": ("_cmd_decompose",
                  "triangular two-mode decomposition of a unitary", (
                      ("--unitary", "unitary", str, REQUIRED),
                      ("--tol", "tol", _finite_positive, 1e-10),
                      _OUT)),
    "list-scenarios": ("_cmd_list", "list the shipped golden scenarios", ()),
}


def _usage(commands) -> str:
    """The ``--help`` text of ``commands``: each one's summary and options."""
    lines = ["usage: proxyifm <command> [--flag value | --flag=value ...]"]
    for command in commands:
        _, summary, options = COMMANDS[command]
        lines += ["", f"{command}: {summary}"]
        for flag, dest, kind, default in options:
            meta = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                    else dest.upper())
            note = ("required" if default is REQUIRED else
                    "" if default is None else f"default: {default}")
            lines.append(f"  {flag} {meta}".ljust(40) + note)
    return "\n".join(line.rstrip() for line in lines)


def _parse(argv: list[str]):
    """``(handler, args)`` for one command line, or ``None`` once ``--help``
    has been printed.  Raises ``ParseError`` on any bad argument."""
    if not argv:
        raise ParseError("the following arguments are required: command")
    if argv[0] in ("-h", "--help"):
        print(_usage(COMMANDS))
        return None
    if argv[0] not in COMMANDS:
        raise ParseError(f"argument command: invalid choice {argv[0]!r} "
                         f"(choose from {', '.join(COMMANDS)})")
    handler, _, options = COMMANDS[argv[0]]
    by_flag = {option[0]: option for option in options}
    values = {dest: default for _, dest, _, default in options}
    words = iter(argv[1:])
    for word in words:
        if word in ("-h", "--help"):
            print(_usage([argv[0]]))
            return None
        flag, eq, text = word.partition("=")
        if flag not in by_flag:
            raise ParseError(f"unrecognized arguments: {word}")
        if not eq:
            text = next(words, "--")    # a missing value reads as a flag
            if text.startswith("--"):
                raise ParseError(f"argument {flag}: expected one value")
        _, dest, kind, _ = by_flag[flag]
        values[dest] = _value(f"argument {flag}", kind, text)
    missing = [flag for flag, dest, _, _ in options if values[dest] is REQUIRED]
    if missing:
        raise ParseError("the following arguments are required: "
                         + ", ".join(missing))
    return handler, SimpleNamespace(**values)


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else _default_seed(scenario.defaults.seed)
    report = run(scenario, engine=args.engine, mode=args.mode,
                 shots=args.shots, seed=seed, cutoff=args.cutoff)
    emit(report, args.format, _out_path(args.out))
    return 0


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    size = args.steps * _SWEEP_STEP_BYTES
    if size > MAX_MAP_BYTES:
        raise StateTooLargeError(
            f"sweep of {args.steps} steps needs {size} bytes, over the bound "
            f"of {MAX_MAP_BYTES} bytes")
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
    args = None
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            return 0
        handler, args = parsed
        return globals()[handler](args)
    except ProxyIfmError as exc:
        kind = "error" if exc.exit_code == 2 else "engine error"
        scenario = getattr(args, "scenario", None)
        where = f"scenario {scenario!r}: " if scenario is not None else ""
        print(f"{kind}: {where}{exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
