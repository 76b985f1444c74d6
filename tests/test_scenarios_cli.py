import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from proxyifm.cli import COMMANDS, main
from proxyifm.errors import (
    CutoffTooSmallError,
    EngineSourceMismatchError,
    ParseError,
    UnknownSchemaVersionError,
    UnresolvedElementIdError,
)
from proxyifm.coherent import CoherentTrain
from proxyifm.fock import FockBasis, prepare_coherent_train
from proxyifm.runner import default_cutoff, emit, run, sweep_table
from proxyifm.scenarios import list_builtin_scenarios, load_scenario

from conftest import ALPHA_SQ, haar_random_unitary


def test_all_golden_scenarios_ship_and_load():
    assert list_builtin_scenarios() == [
        "fig2_blocked", "fig2_open", "fig2_tensor_sum_blocked",
        "fig2_tensor_sum_open", "fig3_blocked_l", "fig3_blocked_m",
        "fig3_open", "fringe_sweep", "hom_pair"]
    for name in list_builtin_scenarios():
        scenario = load_scenario(name)
        assert scenario.scenario_id == name
        assert scenario.schema_version == "proxy-ifm/1"
        assert scenario.description


def test_fig2_open_golden_parameters():
    scenario = load_scenario("fig2_open")
    assert scenario.source.n_pulses == 10
    assert abs(scenario.source.alpha) ** 2 == pytest.approx(ALPHA_SQ)
    # the coherent engine, the natural one for a coherent source
    assert run(scenario).tables["field"].headers[2:4] == ("re", "im")


def test_empty_file_is_a_parse_error(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    with pytest.raises(ParseError) as err:
        load_scenario(p)
    assert err.value.line is not None


def test_unknown_schema_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema": "proxy-ifm/99"}))
    with pytest.raises(UnknownSchemaVersionError):
        load_scenario(p)


def _golden_doc(name):
    from proxyifm.scenarios import builtin_scenario_path
    return json.loads(builtin_scenario_path(name).read_text())


def test_missing_obstacle_id_rejected(tmp_path):
    doc = _golden_doc("fig2_open")
    doc["obstacles"] = {"no_such_obstacle": True}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(UnresolvedElementIdError):
        load_scenario(p)


def test_missing_trigger_id_rejected(tmp_path):
    doc = _golden_doc("fig2_blocked")
    doc["analysis"] = {"trigger": "D9"}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(UnresolvedElementIdError):
        load_scenario(p)


def test_missing_sweep_target_rejected(tmp_path):
    doc = _golden_doc("fringe_sweep")
    doc["sweep"] = {"delay_phase": {"element": "ghost", "field": "phase"}}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(UnresolvedElementIdError):
        load_scenario(p)


def test_run_fig2_blocked_reports_no_interaction():
    report = run(load_scenario("fig2_blocked"), mode="exact")
    cond = dict(report.tables["conditionals"].rows)
    assert cond["trigger_terminal"] == "D2"
    assert cond["p_no_interaction"] == pytest.approx(math.exp(-0.05), abs=1e-12)


def _absorb_bright_port(doc):
    doc["circuit"]["elements"].append({"id": "dump", "kind": "absorber", "wire": "c"})
    doc["detectors"] = [d for d in doc["detectors"] if d["id"] != "D1"]


def _probe_like_wire(doc):
    _element(doc, "obstacle_l")["out"] = "__probe_w0"
    _element(doc, "delay_l")["in"] = "__probe_w0"


@pytest.mark.parametrize("edit", [_absorb_bright_port, _probe_like_wire],
                         ids=["absorber", "probe-like-wire"])
def test_no_interaction_counts_only_delay_stage_light(tmp_path, edit):
    # Neither edit touches the delay stage, so the figure stays e^(-0.05):
    # light lost at an absorber never entered a delay, and a scenario's
    # wire names cannot collide with the delay-stage probe's.
    doc = _golden_doc("fig2_blocked")
    edit(doc)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    r = _cli("simulate", "--scenario", str(scenario), "--mode", "exact",
             "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = out.with_suffix(".conditionals.csv").read_text().splitlines()
    assert rows[-1] == "p_no_interaction,0.95122942450071402"


@pytest.mark.parametrize("name, written", [("fig2_open", False),
                                           ("fig2_blocked", True)])
def test_conditionals_need_an_inserted_obstacle(tmp_path, name, written):
    # The figure counts only the delay-stage probe, so an absorber alone
    # does not switch the table on.
    doc = _golden_doc(name)
    _absorb_bright_port(doc)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    report = run(load_scenario(scenario), mode="exact")
    assert ("conditionals" in report.tables) == written


def test_conditionals_need_a_delayed_arm(tmp_path, capsys):
    # With the delay gone a trigger click proxies no earlier pulse, so there
    # is no figure to write; the field table is written all the same.
    doc = _golden_doc("fig2_blocked")
    doc["circuit"]["elements"].remove(_element(doc, "delay_l"))
    _element(doc, "arm_l_matched")["in"] = "l1"
    del doc["sweep"]
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    code = main(["simulate", "--scenario", str(scenario), "--mode", "exact",
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert sorted(tmp_path.glob("r.*")) == [out]
    assert out.read_text().startswith("terminal,bin,re,im,mean_n,p_click\n")


def test_run_tensor_sum_blocked_outcome_table():
    report = run(load_scenario("fig2_tensor_sum_blocked"), mode="exact")
    p = dict(report.tables["p_outcome"].rows)
    assert p["obstacle_l"] == pytest.approx(0.5, abs=1e-12)
    assert p["D1"] == pytest.approx(0.25, abs=1e-12)
    assert p["D2"] == pytest.approx(0.25, abs=1e-12)


def test_run_hom_pair_has_no_coincidence_row():
    report = run(load_scenario("hom_pair"), mode="exact", cutoff=2)
    rows = dict(report.tables["joint"].rows)
    assert "D1=1;D2=1" not in rows
    assert rows["D1=2;D2=0"] == pytest.approx(0.5, abs=1e-12)
    assert rows["D1=0;D2=2"] == pytest.approx(0.5, abs=1e-12)


def test_engine_source_mismatch():
    with pytest.raises(EngineSourceMismatchError):
        run(load_scenario("hom_pair"), engine="coherent")
    with pytest.raises(EngineSourceMismatchError):
        run(load_scenario("fig2_tensor_sum_open"), engine="coherent")


def test_fock_engine_accepts_coherent_source(tmp_path):
    # the oracle is desk-scale, so shrink the golden train before running it
    doc = _golden_doc("fig2_blocked")
    doc["pulses"]["n"] = 3
    doc["pulses"]["phases"] = [0.0] * 3
    p = tmp_path / "small.json"
    p.write_text(json.dumps(doc))
    report = run(load_scenario(p), engine="fock", mode="exact", cutoff=4)
    assert list(report.tables) == ["joint", "marginals"]
    marginals = {(t, b): v for t, b, v in report.tables["marginals"].rows}
    assert marginals[("obstacle_l", 1)] == pytest.approx(0.05, abs=1e-4)


def test_emit_csv_byte_stable(tmp_path):
    scenario = load_scenario("fig2_blocked")
    r1 = run(scenario, mode="exact")
    r2 = run(scenario, mode="exact")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(r1, "csv", p1)
    emit(r2, "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "terminal,bin,re,im,mean_n,p_click"


def test_emit_jsonl_event_records(tmp_path):
    scenario = load_scenario("fig2_blocked")
    report = run(scenario, mode="mc", shots=2000, seed=99)
    path = tmp_path / "events.jsonl"
    emit(report, "jsonl", path)
    lines = path.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert set(first) == {"shot", "terminal", "bin"}
    # deterministic replay
    report2 = run(scenario, mode="mc", shots=2000, seed=99)
    path2 = tmp_path / "events2.jsonl"
    emit(report2, "jsonl", path2)
    assert path.read_bytes() == path2.read_bytes()


def test_emit_empty_event_log(tmp_path):
    scenario = load_scenario("fig2_open")
    report = run(scenario, mode="mc", shots=1, seed=1)
    # keep only an empty table to exercise the empty-file contract
    from proxyifm.runner import RunReport, Table
    empty = RunReport({"events": Table(("shot", "terminal", "bin"), [])})
    csv_path = tmp_path / "empty.csv"
    emit(empty, "csv", csv_path)
    assert csv_path.read_text() == "shot,terminal,bin\n"
    jsonl_path = tmp_path / "empty.jsonl"
    emit(empty, "jsonl", jsonl_path)
    assert jsonl_path.read_text() == ""
    assert report is not None


def test_sweep_table_rows():
    scenario = load_scenario("fringe_sweep")
    values = np.linspace(0, 2 * math.pi, 32)
    table = sweep_table(scenario, "delay_phase", values)
    assert table.headers == ("phase", "p_d1", "p_d2")
    assert len(table.rows) == 32
    for phi, p1, p2 in table.rows:
        assert abs(p1 - 0.5 * (1 + math.cos(phi))) < 1e-9
        assert abs(p2 - 0.5 * (1 - math.cos(phi))) < 1e-9


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args, env=None):
    # The checkout's src goes first on the child's path, so an uninstalled
    # checkout runs the code under test.
    merged = dict(os.environ)
    merged["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, merged.get("PYTHONPATH")) if p)
    if env:
        merged.update(env)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=merged)


def _cli(*args, env=None):
    return _python("-m", "proxyifm", *args, env=env)


@pytest.mark.parametrize("argv, code, text", [
    ((), 2, "the following arguments are required: command"),
    (("bogus",), 2, "argument command: invalid choice 'bogus'"),
    (("simulate", "--scenario", "fig2_open", "--bogus", "1", "--out", "{out}"),
     2, "unrecognized arguments: --bogus"),
    (("simulate", "--scen", "fig2_open", "--out", "{out}"),
     2, "unrecognized arguments: --scen"),
    (("simulate", "--scenario", "fig2_open", "--out", "{out}", "--shots"),
     2, "argument --shots: expected one value"),
    (("oracle", "--scenario", "hom_pair", "--out", "--cutoff", "2"),
     2, "argument --out: expected one value"),
    (("simulate", "--scenario", "fig2_open"),
     2, "the following arguments are required: --out"),
    (("simulate", "--scenario", "fig2_open", "--mode", "bogus", "--out", "{out}"),
     2, "argument --mode: invalid choice 'bogus' (choose from exact, mc)"),
    (("simulate", "--scenario", "fig2_open", "--shots", "abc", "--out", "{out}"),
     2, "argument --shots: invalid int 'abc'"),
    (("list-scenarios", "extra"), 2, "unrecognized arguments: extra"),
    (("simulate", "--scenario", "fig2_blocked", "--mode", "mc", "--shots", "5",
      "--format", "csv", "--format=jsonl", "--out={out}"), 0,
     '{"shot":0,"terminal":"obstacle_l","bin":1}\n'),
    (("sweep", "--scenario", "fringe_sweep", "--from", "-1", "--to", "-0.5",
      "--steps", "3", "--out", "{out}"), 0, "phase,p_d1,p_d2"),
], ids=["no-command", "unknown-command", "unknown-flag", "abbreviated-flag",
        "no-value", "flag-as-value", "missing-out", "bad-choice", "bad-int",
        "extra-argument", "equals-form-last-wins", "negative-values"])
def test_cli_argument_errors_are_one_line(tmp_path, argv, code, text):
    """A bad command line exits 2 with one ``error:`` line and writes
    nothing; ``--flag=value`` (the last of a flag wins) and values with a
    leading ``-`` are taken.  ``text`` starts the error or the output."""
    out = tmp_path / "r.out"
    r = _cli(*(a.format(out=out) for a in argv))
    assert r.returncode == code, r.stderr
    if code == 0:
        assert r.stderr == "" and out.read_text().startswith(text)
        return
    assert r.stderr.startswith(f"error: {text}") and r.stderr.count("\n") == 1
    assert "usage:" not in r.stderr and "Traceback" not in r.stderr
    assert not list(tmp_path.iterdir())


def test_cli_help_lists_every_command_and_flag():
    top = _cli("--help")
    assert top.returncode == 0 and top.stderr == "", top.stderr
    for command in ("simulate", "sweep", "oracle", "decompose", "list-scenarios"):
        assert f"\n{command}: " in top.stdout
    for command, (_, _, options) in COMMANDS.items():
        r = _cli(command, "--help")
        assert r.returncode == 0 and r.stderr == "", r.stderr
        assert f"\n{command}: " in r.stdout
        for flag, *_ in options:
            assert f"  {flag} " in r.stdout


@pytest.mark.parametrize("argv", [
    ["oracle", "--scenario", "hom_pair", "--cutoff", "2"],
    ["sweep", "--scenario", "fringe_sweep", "--from", "0", "--to", "1",
     "--steps", "4"],
    ["simulate", "--scenario", "fig2_blocked", "--mode", "mc", "--shots", "100"],
    ["simulate", "--scenario", "fig2_tensor_sum_blocked", "--mode", "mc",
     "--shots", "100"],
    ["simulate", "--scenario", "hom_pair", "--mode", "mc", "--cutoff", "2",
     "--shots", "100"],
])
def test_cli_cold_start_imports_neither_argparse_nor_dataclasses(tmp_path, argv):
    """Importing argparse and building a parser cost about 3 ms of CPU in
    every fresh interpreter, which every CLI job would pay; building the
    record classes with dataclasses cost about 12 ms more, and importing
    numpy.random about 9 ms and 6 MB.  The mc runs draw their uniforms
    from the keyed stream of ``sampling``, so no command imports it."""
    argv = [*argv, "--out", str(tmp_path / "out.csv")]
    r = _python("-c", "import sys; from proxyifm.cli import main; "
                f"code = main({argv!r}); "
                "print(code, *(m in sys.modules for m in "
                "('argparse', 'dataclasses', 'numpy.random')))")
    assert r.stdout == "0 False False False\n", r.stderr


def test_cli_simulate_exit_codes(tmp_path):
    out = tmp_path / "r.csv"
    ok = _cli("simulate", "--scenario", "fig2_blocked", "--mode", "exact",
              "--out", str(out))
    assert ok.returncode == 0, ok.stderr
    assert out.exists()

    bad = _cli("simulate", "--scenario", "no_such_scenario", "--out",
               str(tmp_path / "x.csv"))
    assert bad.returncode == 2

    mismatch = _cli("simulate", "--scenario", "hom_pair", "--engine",
                    "coherent", "--out", str(tmp_path / "y.csv"))
    assert mismatch.returncode == 3


def test_cli_seed_env_override(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    c = tmp_path / "c.jsonl"
    r1 = _cli("simulate", "--scenario", "fig2_blocked", "--mode", "mc",
              "--shots", "500", "--out", str(a), "--format", "jsonl",
              env={"PROXYIFM_SEED": "1234"})
    r2 = _cli("simulate", "--scenario", "fig2_blocked", "--mode", "mc",
              "--shots", "500", "--out", str(b), "--format", "jsonl",
              env={"PROXYIFM_SEED": "1234"})
    r3 = _cli("simulate", "--scenario", "fig2_blocked", "--mode", "mc",
              "--shots", "500", "--out", str(c), "--format", "jsonl",
              env={"PROXYIFM_SEED": "4321"})
    assert r1.returncode == r2.returncode == r3.returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_cli_outdir_env_override(tmp_path):
    r = _cli("simulate", "--scenario", "fig2_open", "--mode", "exact",
             "--out", "nested.csv", env={"PROXYIFM_OUTDIR": str(tmp_path)})
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "nested.csv").exists()


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    r = _cli("sweep", "--scenario", "fringe_sweep", "--param", "delay_phase",
             "--from", "0", "--to", "3.141592653589793", "--steps", "5",
             "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "phase,p_d1,p_d2"
    assert len(lines) == 6


def test_cli_sweep_unknown_param_is_validation_error(tmp_path):
    r = _cli("sweep", "--scenario", "fringe_sweep", "--param", "nope",
             "--from", "0", "--to", "1", "--steps", "2",
             "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2


def test_cli_oracle(tmp_path):
    out = tmp_path / "joint.csv"
    r = _cli("oracle", "--scenario", "hom_pair", "--cutoff", "2",
             "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert out.read_text().splitlines()[0] == "outcome_vector,probability"


def test_cli_decompose_round_trip(tmp_path):
    u = haar_random_unitary(4, seed=17)
    upath = tmp_path / "u.csv"
    upath.write_text("\n".join(
        ",".join(f"{z.real:+.17g}{z.imag:+.17g}j" for z in row) for row in u))
    out = tmp_path / "steps.csv"
    r = _cli("decompose", "--unitary", str(upath), "--tol", "1e-10",
             "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("position,i,j,m00re")
    assert sum(1 for line in lines[1:] if line.startswith("phase_")) == 4


def test_cli_list_scenarios():
    r = _cli("list-scenarios")
    assert r.returncode == 0
    for name in list_builtin_scenarios():
        assert name in r.stdout


@pytest.mark.parametrize("key, value", [
    ("alpha_squared", -0.1),
    ("alpha_squared", float("nan")),
    ("alpha_squared", float("inf")),
    ("phases", float("nan")),
    ("alpha_squared", True),
    ("alpha_squared", "0.1"),
    ("phases", "0000000000"),
])
def test_cli_rejects_bad_coherent_numbers(tmp_path, key, value):
    doc = _golden_doc("fig2_blocked")
    if key == "phases" and not isinstance(value, str):
        doc["pulses"]["phases"][3] = value
    else:
        doc["pulses"][key] = value
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    r = _cli("simulate", "--scenario", str(scenario), "--mode", "exact",
             "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert key in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("simulate", "--scenario", "fig2_blocked", "--mode", "mc", "--shots", "0"),
    ("simulate", "--scenario", "hom_pair", "--cutoff", "-1"),
    ("oracle", "--scenario", "hom_pair", "--cutoff", "-1"),
    ("sweep", "--scenario", "fringe_sweep", "--from", "0", "--to", "1",
     "--steps", "-3"),
])
def test_cli_rejects_out_of_range_counts(tmp_path, args):
    out = tmp_path / "r.csv"
    r = _cli(*args, "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "must be >=" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("defaults, key", [
    ({"shots": 0, "mode": "mc"}, "shots"),
    ({"shots": -5}, "shots"),
    ({"shots": 2.5}, "shots"),
    ({"shots": "1000"}, "shots"),
    ({"shots": True}, "shots"),
    ({"seed": 1.5, "mode": "mc"}, "seed"),
    ({"seed": "7"}, "seed"),
    ({"seed": -1, "mode": "mc"}, "seed"),
    ({"mode": "bogus"}, "mode"),
    ({"mode": None}, "mode"),
])
def test_cli_rejects_bad_scenario_defaults(tmp_path, defaults, key):
    doc = _golden_doc("fig2_blocked")
    doc["defaults"].update(defaults)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    r = _cli("simulate", "--scenario", str(scenario), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert key in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_scenario_defaults_accept_integral_numbers(tmp_path):
    doc = _golden_doc("fig2_blocked")
    doc["defaults"] = {"shots": 1e3, "seed": 0, "mode": "mc"}
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    defaults = load_scenario(str(scenario)).defaults
    assert (defaults.shots, defaults.seed, defaults.mode) == (1000, 0, "mc")
    assert type(defaults.shots) is int


def test_cli_rejects_negative_seed(tmp_path):
    out = tmp_path / "r.csv"
    r = _cli("simulate", "--scenario", "fig2_blocked", "--mode", "mc",
             "--shots", "10", "--seed", "-1", "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "must be >=" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("value", ["-5", "abc"])
def test_cli_rejects_bad_seed_env(tmp_path, value):
    out = tmp_path / "r.csv"
    r = _cli("simulate", "--scenario", "fig2_blocked", "--mode", "mc",
             "--shots", "10", "--out", str(out), env={"PROXYIFM_SEED": value})
    assert r.returncode == 2, r.stderr
    assert "PROXYIFM_SEED" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_cli_rejects_gate_bin_past_the_train(tmp_path):
    doc = _golden_doc("fig2_blocked")
    obstacle = next(e for e in doc["circuit"]["elements"]
                    if e["kind"] == "obstacle")
    obstacle["bins"] = [1, 99]
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    r = _cli("simulate", "--scenario", str(scenario), "--mode", "exact",
             "--out", str(out))
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("engine error: ") and "Traceback" not in r.stderr
    assert "obstacle_l" in r.stderr and "99" in r.stderr
    assert str(scenario) in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "0,x\n1,0\n", "1,0\n0\n"],
                         ids=["missing", "malformed", "ragged"])
def test_cli_decompose_rejects_bad_unitary_file(tmp_path, text):
    upath = tmp_path / "u.csv"
    if text is not None:
        upath.write_text(text)
    out = tmp_path / "steps.csv"
    r = _cli("decompose", "--unitary", str(upath), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and str(upath) in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_cli_decompose_names_ragged_row_lengths(tmp_path):
    upath = tmp_path / "u.csv"
    upath.write_text("1,0,0\n0,1,0\n0,1\n")
    r = _cli("decompose", "--unitary", str(upath), "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 2, r.stderr
    assert "row 1 has 3 entries but row 3 has 2" in r.stderr
    assert "inhomogeneous" not in r.stderr


@pytest.mark.parametrize("text", ["1,0\n0,nan\n", "inf,0\n0,1\n", "1,0\n0,-infj\n",
                                  "nan,nan\nnan,nan\n"],
                         ids=["nan", "inf", "imaginary-inf", "all-nan"])
def test_cli_decompose_rejects_non_finite_entries(tmp_path, text):
    """A NaN or infinite entry is refused before any stage: exit 2, no rows."""
    upath = tmp_path / "u.csv"
    upath.write_text(text)
    out = tmp_path / "steps.csv"
    r = _cli("decompose", "--unitary", str(upath), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert not out.exists()


def test_cli_decompose_rejects_nan_tolerance(tmp_path):
    upath = tmp_path / "u.csv"
    upath.write_text("2,0\n0,1\n")
    out = tmp_path / "steps.csv"
    r = _cli("decompose", "--unitary", str(upath), "--tol", "nan",
             "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert "--tol" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("start, stop, flag", [("nan", "1", "--from"),
                                               ("0", "inf", "--to")])
def test_cli_sweep_rejects_non_finite_range(tmp_path, start, stop, flag):
    out = tmp_path / "sweep.csv"
    r = _cli("sweep", "--scenario", "fringe_sweep", "--from", start,
             "--to", stop, "--steps", "4", "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert flag in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def _element(doc, element_id):
    return next(e for e in doc["circuit"]["elements"] if e["id"] == element_id)


def _set_splitter_matrix(doc, entry):
    h = 1 / math.sqrt(2)
    _element(doc, "bs1")["matrix"] = [[[h, 0.0], entry], [[0.0, h], [h, 0.0]]]


@pytest.mark.parametrize("edit, named", [
    (lambda d: _element(d, "delay_l").update(phase=float("nan")), "delay_l"),
    (lambda d: _element(d, "arm_l_matched").update(angle=float("nan")),
     "arm_l_matched"),
    (lambda d: _element(d, "arm_l_matched").update(angle="pi/nan"),
     "arm_l_matched"),
    (lambda d: _element(d, "arm_l_matched").update(angle="pi/0"),
     "arm_l_matched"),
    (lambda d: _set_splitter_matrix(d, [float("nan"), 0.0]), "bs1"),
    (lambda d: _set_splitter_matrix(d, [0.0, float("inf")]), "bs1"),
    (lambda d: _element(d, "arm_l_matched").update(angle=True), "arm_l_matched"),
    (lambda d: _element(d, "delay_l").update(phase="0"), "delay_l"),
    (lambda d: _set_splitter_matrix(d, [0.0, str(1 / math.sqrt(2))]), "bs1"),
    (lambda d: _element(d, "arm_l_matched").update(angle="pi/two"),
     "arm_l_matched"),
], ids=["delay-phase-nan", "angle-nan", "angle-pi-over-nan", "angle-pi-over-0",
        "matrix-nan", "matrix-inf", "angle-true", "delay-phase-string",
        "matrix-string", "angle-pi-over-text"])
def test_cli_rejects_non_finite_element_numbers(tmp_path, edit, named):
    doc = _golden_doc("fig2_blocked")
    edit(doc)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    r = _cli("simulate", "--scenario", str(scenario), "--mode", "exact",
             "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert named in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("photons, named", [
    ([["src_a", 0], ["nosuch", 0]], "nosuch"),
    ([["src_a", 0], ["src_a", -1], ["src_b", 0]], "-1"),
    ([["src_a", 0], ["src_b", 1]], "src_b"),
], ids=["unknown-source", "negative-bin", "bin-past-n_bins"])
def test_cli_rejects_bad_photon_cells(tmp_path, photons, named):
    doc = _golden_doc("hom_pair")
    doc["pulses"]["photons"] = photons
    _element(doc, "src_b")["n_bins"] = 1
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    r = _cli("simulate", "--scenario", str(scenario), "--cutoff", "2",
             "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert named in r.stderr
    assert not out.exists()


# The smallest cutoff at which each shipped scenario's Fock input meets
# DEFICIT_LIMIT (one photon, two photons, or the coherent Poisson tail).
ORACLE_CUTOFFS = {
    "fig2_tensor_sum_open": 1, "fig2_tensor_sum_blocked": 1, "hom_pair": 2,
    "fig3_open": 4, "fig3_blocked_l": 4, "fig3_blocked_m": 4,
    "fig2_open": 6, "fig2_blocked": 6, "fringe_sweep": 6,
}


@pytest.mark.parametrize("name", sorted(ORACLE_CUTOFFS))
def test_oracle_cutoff_of_each_shipped_scenario(name):
    # The cutoff-6 runs take seconds and hundreds of MB, so only the
    # smaller ones are run here; every scenario must fail one below.
    scenario = load_scenario(name)
    cutoff = ORACLE_CUTOFFS[name]
    with pytest.raises(CutoffTooSmallError):
        run(scenario, engine="fock", mode="exact", cutoff=cutoff - 1)
    if cutoff < 6:
        report = run(scenario, engine="fock", mode="exact", cutoff=cutoff)
        assert list(report.tables) == ["joint", "marginals"]
        assert sum(p for _, p in report.tables["joint"].rows) == \
            pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(ORACLE_CUTOFFS))
def test_default_cutoff_is_the_smallest_that_holds_the_source(name):
    # A coherent train's own deficit check, on a basis of its pulse modes
    # alone, accepts the default and refuses one below it.
    source = load_scenario(name).source
    cutoff = default_cutoff(source)
    assert cutoff == ORACLE_CUTOFFS[name]
    if isinstance(source, CoherentTrain):
        pulses = range(source.n_pulses)
        prepare_coherent_train(FockBasis.build(source.n_pulses, cutoff),
                               source.alpha, pulses)
        with pytest.raises(CutoffTooSmallError):
            prepare_coherent_train(FockBasis.build(source.n_pulses, cutoff - 1),
                                   source.alpha, pulses)


def test_cli_oracle_tensor_sum_below_one_photon(tmp_path):
    out = tmp_path / "joint.csv"
    r = _cli("oracle", "--scenario", "fig2_tensor_sum_open", "--cutoff", "0",
             "--out", str(out))
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("engine error: ") and "Traceback" not in r.stderr
    assert not out.exists()


def _cli_rejects(tmp_path, doc, named, *args):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    r = _cli("simulate", "--scenario", str(scenario), *args, "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert named in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("name, edit, named", [
    ("fig2_blocked", lambda d: d["circuit"].update(n_bins=12.5), "n_bins"),
    ("fig2_blocked", lambda d: d["circuit"].update(n_bins="12"), "n_bins"),
    ("fig2_blocked", lambda d: d["circuit"].update(n_bins=0), "n_bins"),
    ("fig2_blocked", lambda d: d["circuit"].update(n_bins=-3), "n_bins"),
    ("fig2_blocked", lambda d: _element(d, "delay_l").update(bins=1.5), "delay_l"),
    ("fig2_tensor_sum_blocked", lambda d: d["pulses"].update(n=2.5), "pulses"),
    ("fig2_blocked", lambda d: _element(d, "obstacle_l").update(bins=[1.7]),
     "obstacle_l"),
    ("hom_pair", lambda d: d["pulses"].update(photons=[["src_a", 0.5],
                                                      ["src_b", 0]]), "0.5"),
], ids=["n_bins-fraction", "n_bins-string", "n_bins-zero", "n_bins-negative",
        "delay-bins-fraction", "pulses-n-fraction", "gate-bin-fraction",
        "photon-bin-fraction"])
def test_cli_rejects_non_integer_scenario_counts(tmp_path, name, edit, named):
    doc = _golden_doc(name)
    edit(doc)
    _cli_rejects(tmp_path, doc, named, "--cutoff", "2")


@pytest.mark.parametrize("edit, named", [
    (lambda d: _element(d, "obstacle_l").update({"in": 7}), "obstacle_l"),
    (lambda d: _element(d, "delay_l").update(id=7), "delay id 7"),
    (lambda d: _element(d, "bs1").update({"in": ["a", "vac1", "vac2"]}), "bs1"),
    (lambda d: [1, 2], "[1, 2]"),
    (lambda d: d["analysis"].update(trigger="bs1"), "bs1"),
    (lambda d: d.update(obstacles=["obstacle_l"]), "obstacles"),
    (lambda d: d.update(sweep=[]), "sweep"),
    (lambda d: d.update(analysis="D2"), "analysis"),
    (lambda d: d.update(defaults=[1000]), "defaults"),
    # bool("false") is true, so reading these with bool() inserts the obstacle.
    (lambda d: d["obstacles"].update(obstacle_l="false"), "obstacle_l"),
    (lambda d: d["obstacles"].update(obstacle_l=1), "obstacle_l"),
    (lambda d: _element(d, "obstacle_l").update(inserted="no"), "obstacle_l"),
], ids=["wire-not-a-string", "id-not-a-string", "splitter-three-inputs",
        "top-level-list", "trigger-not-a-detector", "obstacles-list",
        "sweep-list", "analysis-string", "defaults-list",
        "obstacles-flag-string", "obstacles-flag-integer",
        "inserted-string"])
def test_cli_rejects_malformed_scenario_structure(tmp_path, edit, named):
    doc = _golden_doc("fig2_blocked")
    doc = edit(doc) or doc
    _cli_rejects(tmp_path, doc, named)


@pytest.mark.parametrize("command", [
    ("simulate", "--mode", "exact"),
    ("simulate", "--mode", "mc", "--shots", "10"),
    ("oracle", "--cutoff", "2"),
    ("sweep", "--from", "0", "--to", "1", "--steps", "2"),
], ids=["exact", "mc", "oracle", "sweep"])
@pytest.mark.parametrize("name", ["fig2_blocked", "fig2_tensor_sum_blocked"])
def test_cli_refuses_a_pulse_train_into_two_sources(tmp_path, capsys, name,
                                                    command):
    # A coherent or tensor-sum train feeds one source; bs1's vacuum input
    # becomes a second source here.
    doc = _golden_doc(name)
    _element(doc, "bs1")["in"] = ["a", "b0"]
    doc["circuit"]["elements"].append({"id": "src2", "kind": "source",
                                       "out": "b0"})
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    code = main([command[0], "--scenario", str(scenario), *command[1:],
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2 sources" in err
    assert not out.exists()


@pytest.mark.parametrize("name, engine", [
    ("fig2_blocked", ()), ("fig2_tensor_sum_blocked", ()),
    ("hom_pair", ("--engine", "fock")),
], ids=["coherent", "singlephoton", "fock"])
def test_cli_refuses_shots_past_the_keyed_streams_before_writing(
        tmp_path, capsys, name, engine):
    """The keyed streams hold shots 0 to 2**41 - 1: a run of one shot more
    exits 3 with one line naming the shots, and opens no output file."""
    out = tmp_path / "r.csv"
    code = main(["simulate", "--scenario", name, *engine, "--mode", "mc",
                 "--shots", str(2**41 + 1), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("engine error: ") and err.count("\n") == 1
    assert f"{2**41 + 1} shots" in err and f"shot {2**41}," in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("name", ["fig2_blocked", "fig2_tensor_sum_blocked"])
def test_cli_refuses_a_train_longer_than_its_source(tmp_path, capsys, name,
                                                    mode):
    """Every engine, the Fock oracle included, refuses 4 pulses into a
    2-bin source with one and the same line."""
    doc = _golden_doc(name)
    doc["pulses"]["n"] = 4
    if "phases" in doc["pulses"]:
        doc["pulses"]["phases"] = [0.0] * 4
    _element(doc, "src")["n_bins"] = 2
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    errors = []
    for engine in ([], ["--engine", "fock"]):
        code = main(["simulate", "--scenario", str(scenario), *engine,
                     "--mode", mode, "--shots", "100", "--cutoff", "2",
                     "--out", str(out)])
        errors.append(capsys.readouterr().err)
        assert code == 3, errors[-1]
        assert not out.exists()
    assert errors[0] == errors[1]
    assert errors[0] == (f"engine error: scenario {str(scenario)!r}: 4 input "
                         "amplitudes exceed the 2 input bins of source 'src'\n")


# (slots + terminals) x n_bins x 16 B for fig2: 2 slots and 3 terminals.
@pytest.mark.parametrize("name, edit, n_bins", [
    ("fig2_blocked", lambda d: d["circuit"].update(n_bins=1e12), 10**12),
    ("fig2_tensor_sum_blocked", lambda d: d["circuit"].update(n_bins=1e12),
     10**12),
    ("fig2_tensor_sum_blocked", lambda d: d["pulses"].update(n=1e12),
     10**12 + 1),
], ids=["coherent-n_bins", "tensor_sum-n_bins", "tensor_sum-pulses-n"])
@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_cli_refuses_a_walk_over_the_size_bound(tmp_path, name, edit, n_bins,
                                                mode):
    doc = _golden_doc(name)
    edit(doc)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    r = _cli("simulate", "--scenario", str(scenario), "--mode", mode,
             "--shots", "100", "--out", str(out))
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("engine error: ") and "Traceback" not in r.stderr
    assert f"needs {5 * n_bins * 16} bytes" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("n", [10**9, 10**12])
def test_cli_refuses_a_pulse_count_over_the_size_bound(tmp_path, capsys, n):
    # 16 B per pulse amplitude; refused before any per-pulse list exists.
    doc = _golden_doc("fig2_blocked")
    doc["pulses"]["n"] = n
    del doc["pulses"]["phases"]
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    tracemalloc.start()
    try:
        code = main(["simulate", "--scenario", str(scenario), "--mode", "exact",
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("engine error: ") and f"need {16 * n} bytes" in err
    assert peak < 4 << 20
    assert not out.exists()


@pytest.mark.parametrize("char", [",", '"', ";", "=", "\x00", "\n", "\x1f", "\x7f",
                                  "\ud800", "\udfff"],
                         ids=["comma", "quote", "semicolon", "equals", "nul",
                              "newline", "unit-separator", "delete",
                              "high-surrogate", "low-surrogate"])
@pytest.mark.parametrize("kind", ["detector", "element"])
def test_cli_rejects_ids_that_corrupt_tables(tmp_path, capsys, kind, char):
    """An id is written into terminal and outcome cells, so a separator or a
    control character in it would split or corrupt the output rows, and a
    lone surrogate would stop the UTF-8 writer."""
    doc = _golden_doc("fig2_blocked")
    if kind == "detector":
        doc["detectors"][0]["id"] = f"D{char}1"
    else:
        _element(doc, "bs2")["id"] = f"bs{char}2"
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    code = main(["simulate", "--scenario", str(scenario), "--mode", "mc",
                 "--shots", "100", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and f"must not contain {char!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("name, n, command", [
    ("fig2_blocked", 1, ("simulate", "--mode", "exact")),
    ("fig3_blocked_l", 2, ("simulate", "--mode", "exact")),
    ("fringe_sweep", 1, ("sweep", "--from", "0", "--to", "1", "--steps", "3")),
], ids=["fig2-exact", "fig3-exact", "sweep"])
def test_cli_refuses_a_train_with_no_interior_bin(tmp_path, capsys, name, n,
                                                   command):
    """A conditional figure and a fringe are read at the middle interior
    bin; a train of no more pulses than the longest path delay has none."""
    doc = _golden_doc(name)
    doc["pulses"].update(n=n, phases=[0.0] * n)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    code = main([command[0], "--scenario", str(scenario), *command[1:],
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("engine error: ") and err.count("\n") == 1
    assert f"N={n} " in err and f"D={n}" in err
    assert not out.exists()


def test_cli_sweep_refuses_a_dark_train(tmp_path, capsys):
    """The fringes are normalised to the per-pulse mean, which is 0."""
    doc = _golden_doc("fringe_sweep")
    doc["pulses"]["alpha_squared"] = 0
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    code = main(["sweep", "--scenario", str(scenario), "--from", "0", "--to", "1",
                 "--steps", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and "alpha_squared" in err
    assert not out.exists()


def test_cli_sweep_refuses_a_step_count_over_the_size_bound(tmp_path, capsys):
    """Refused before the step values exist (they would take 745 GiB)."""
    out = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        code = main(["sweep", "--scenario", "fringe_sweep", "--from", "0",
                     "--to", "1", "--steps", "100000000000", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("engine error: ") and err.count("\n") == 1
    assert "sweep of 100000000000 steps" in err and "bound of 1073741824" in err
    assert peak < 4 << 20
    assert not out.exists()


@pytest.mark.parametrize("detectors", [0, 1])
def test_cli_sweep_refuses_fewer_than_two_detectors(tmp_path, capsys, detectors):
    """The fringes are read at two detectors; an output wire with no
    detector ends in an absorber."""
    doc = _golden_doc("fringe_sweep")
    for d in doc["detectors"][detectors:]:
        doc["circuit"]["elements"].append(
            {"id": f"dump_{d['wire']}", "kind": "absorber", "wire": d["wire"]})
    doc["detectors"] = doc["detectors"][:detectors]
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    code = main(["sweep", "--scenario", str(scenario), "--from", "0", "--to", "1",
                 "--steps", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"the scenario has {detectors}" in err
    assert not out.exists()


def test_cli_refuses_a_scenario_file_that_is_not_utf8(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_bytes(b"\xff\xfe" + json.dumps(_golden_doc("fig2_blocked"))
                         .encode("utf-16-le"))
    out = tmp_path / "r.csv"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(scenario) in err and "not UTF-8" in err and "offset 0" in err
    assert not out.exists()


@pytest.mark.parametrize("value, named", [
    (float("nan"), "nan must be finite"),
    (float("inf"), "inf must be finite"),
    (float("-inf"), "-inf must be finite"),
    (True, "True must be a finite number"),
    ("0.5", "'0.5' must be a finite number"),
    (10**399, f"{10**399} must be finite"),
], ids=["nan", "inf", "-inf", "true", "string", "400-digit-integer"])
@pytest.mark.parametrize("where", [0, 9])
def test_cli_names_the_bad_pulse_phase(tmp_path, capsys, value, named, where):
    """Any phase list that is not all finite floats is read value by value,
    so the one stderr line names the value; a 400-digit integer, past the
    largest float, is refused as an infinite one is."""
    doc = _golden_doc("fig2_blocked")
    doc["pulses"]["phases"][where] = value
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err == f"error: scenario {str(scenario)!r}: pulses: phases {named}\n"
    assert not out.exists()


def test_integer_pulse_phases_load_as_the_same_floats(tmp_path):
    doc = _golden_doc("fig2_blocked")
    n = doc["pulses"]["n"]
    paths = {}
    for kind, phases in (("int", list(range(n))), ("float", [float(k) for k in range(n)]),
                         ("mixed", [k if k % 2 else float(k) for k in range(n)])):
        doc["pulses"]["phases"] = phases
        paths[kind] = tmp_path / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    loaded = {kind: load_scenario(p).source.phases for kind, p in paths.items()}
    assert loaded["int"] == loaded["float"] == loaded["mixed"] \
        == tuple(float(k) for k in range(n))
    assert all(type(x) is float for x in loaded["int"] + loaded["mixed"])


def test_cli_refuses_an_integer_past_the_json_digit_limit(tmp_path, capsys):
    """Python's int() takes at most 4300 digits; a longer number in the
    file is a validation error, not a traceback."""
    doc = _golden_doc("fig2_blocked")
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc).replace(
        '"alpha_squared": 0.1', '"alpha_squared": 1' + "0" * 5000))
    out = tmp_path / "r.csv"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "4300 digits" in err
    assert not out.exists()


def test_cli_decompose_refuses_entries_near_the_float_limit_in_one_line(tmp_path):
    """The residual of a finite matrix near the float limit overflows to
    NaN: refused, with no numpy warning before the error line."""
    upath = tmp_path / "u.csv"
    upath.write_text("1e200,0\n0,1e200\n")
    out = tmp_path / "steps.csv"
    r = _cli("decompose", "--unitary", str(upath), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr == "error: input is not unitary to 1e-10\n"
    assert not out.exists()


def test_cli_refuses_a_splitter_near_the_float_limit_in_one_line(tmp_path):
    doc = _golden_doc("fig2_blocked")
    _element(doc, "bs1")["matrix"] = [[[1e200, 0.0], [0.0, 0.0]],
                                      [[0.0, 0.0], [1e200, 0.0]]]
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    r = _cli("simulate", "--scenario", str(scenario), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert "'bs1': unitarity residual nan exceeds 1e-10" in r.stderr
    assert not out.exists()
