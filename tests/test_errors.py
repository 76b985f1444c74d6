import pytest

from proxyifm import cli, errors, runner
from proxyifm.errors import ParseError, ProxyIfmError, ValidationError
from proxyifm.scenarios import load_scenario

EXIT_CODES = {
    "ParseError": 2,
    "UnknownSchemaVersionError": 2,
    "UnresolvedElementIdError": 2,
    "CyclicGraphError": 2,
    "DanglingPortError": 2,
    "NonUnitaryBeamSplitterError": 2,
    "NonUnitaryInputError": 2,
    "DimensionTooLargeError": 2,
    "DimensionMismatchError": 2,
    "ZeroPulsesError": 2,
    "BinOverflowError": 3,
    "CutoffTooSmallError": 3,
    "StateTooLargeError": 3,
    "NoLossTerminalError": 3,
    "EngineSourceMismatchError": 3,
    "NonUnitaryError": 3,
    "IoError": 3,
}


def test_every_error_class_has_a_pinned_exit_code():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, ProxyIfmError)
               and obj not in (ProxyIfmError, ValidationError)}
    assert defined == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_cli_exit_code_and_prefix_come_from_the_class(monkeypatch, capsys, name):
    cls = getattr(errors, name)
    code = EXIT_CODES[name]
    assert cls.exit_code == code
    assert issubclass(cls, ValidationError) == (code == 2)

    def fail(_args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_list", fail)
    assert cli.main(["list-scenarios"]) == code
    prefix = "error" if code == 2 else "engine error"
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_cli_names_the_scenario_once(monkeypatch, capsys):
    def fail(*_args, **_kwargs):
        raise errors.StateTooLargeError("boom")

    monkeypatch.setattr(cli, "run", fail)
    assert cli.main(["simulate", "--scenario", "fig2_open", "--out", "x.csv"]) == 3
    assert capsys.readouterr().err == "engine error: scenario 'fig2_open': boom\n"
    # An empty value is named too.
    assert cli.main(["simulate", "--scenario", "", "--out", "x.csv"]) == 2
    assert capsys.readouterr().err.startswith("error: scenario '': ")


def test_run_propagates_the_raised_error(monkeypatch):
    err = ParseError("x", line=3, column=4)

    def fail(*_args):
        raise err

    monkeypatch.setattr(runner, "_run_coherent", fail)
    with pytest.raises(ParseError) as caught:
        runner.run(load_scenario("fig2_open"))
    assert caught.value is err
    assert (caught.value.line, caught.value.column) == (3, 4)
