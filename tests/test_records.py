"""Every record class behaves as its stdlib ``@dataclass`` twin does.

Each case declares, with ``dataclasses.make_dataclass``, a twin with the
record's fields, defaults and options, and drives both through the same
calls: construction by position and keyword, defaults, the refused calls,
equality and hashing, assignment, ``replace`` (which runs
``__post_init__`` again) and ``repr``.  Specs and scenarios compare by
value, splitters included, so every shipped scenario equals itself
loaded again.
"""

import dataclasses
import inspect
from dataclasses import field, make_dataclass

import numpy as np
import pytest

from proxyifm import replace
from proxyifm.circuit import (
    Absorber,
    BeamSplitter,
    CircuitSpec,
    CompiledCircuit,
    Delay,
    Detector,
    Obstacle,
    PhaseShift,
    Source,
    default_beamsplitter,
)
from proxyifm.coherent import ClickDistribution, CoherentTrain, EventLog, FieldConfiguration
from proxyifm.errors import ProxyIfmError
from proxyifm.fock import FockBasis, FockStateVector, JointDistribution
from proxyifm.multiport import Decomposition, TwoModeOp
from proxyifm.runner import RunReport
from proxyifm.scenarios import (
    FockSourceSpec,
    RunDefaults,
    Scenario,
    TensorSumSourceSpec,
    list_builtin_scenarios,
    load_scenario,
)
from proxyifm.singlephoton import OutcomeDistribution
from proxyifm.tables import Table

from conftest import with_element

_SOURCE = Source("src", "a")
_DETECTOR = Detector("D1", "a")
_SPEC = CircuitSpec((_SOURCE, _DETECTOR), 4)
_BASIS = FockBasis.build(2, 1)
_STAGE = TwoModeOp((0, 1), np.eye(2), 0)

# (record class, dataclass options, twin fields, positional field values,
#  valid replace changes, replace changes that __post_init__ refuses)
CASES = [
    (Source, {}, ["id", "out", ("n_bins", int, field(default=1))],
     ("src", "a", 2), {"n_bins": 3}, None),
    (BeamSplitter, {"eq": False},
     ["id", "inputs", "outputs", ("matrix", object, field(default=None))],
     ("bs", ("a", "vac0"), ("b", "c"), np.eye(2, dtype=complex)),
     {"matrix": None}, None),
    (Delay, {}, ["id", "input", "output", "bins", ("phase", float, field(default=0.0))],
     ("d", "b", "e", 1, 0.5), {"phase": 1.0}, None),
    (PhaseShift, {}, ["id", "input", "output", "angle"],
     ("p", "c", "f", 0.25), {"angle": 0.5}, None),
    (Obstacle, {},
     ["id", "input", "output", ("inserted", bool, field(default=True)),
      ("bins", object, field(default=None))],
     ("o", "e", "g", False, frozenset({1})), {"inserted": True}, None),
    (Detector, {}, ["id", "wire", ("label", str, field(default=""))],
     ("D1", "g", "one"), {"label": "two"}, None),
    (Absorber, {}, ["id", "wire"], ("dump", "f"), {"wire": "h"}, None),
    (CircuitSpec, {}, ["elements", ("n_bins", object, field(default=None))],
     ((_SOURCE, _DETECTOR), 4), {"n_bins": None}, None),
    (CompiledCircuit, {"eq": False},
     ["n_bins", "terminal_order", "loss_terminals", "max_path_delay", "path_delays",
      "wire_slot", "n_slots", "wire_lit", "terminal_lit",
      ("_sources", tuple, field(default=(), repr=False)),
      ("_order", tuple, field(default=(), repr=False))],
     (4, ("D1",), frozenset(), 0, frozenset({0}), {"a": 0}, 1,
      {"a": (range(0, 1),)}, {"D1": (range(0, 1),)}, (_SOURCE,), (_SOURCE, _DETECTOR)),
     {"_order": (_DETECTOR,)}, None),
    (CoherentTrain, {}, ["alpha", "phases"], (0.5 + 0j, (0.0, 1.0)),
     {"phases": (0.5,)}, {"phases": ()}),
    (FieldConfiguration, {"eq": False}, ["amplitudes"],
     ({"D1": np.array([0.5 + 0j, 0])},), {"amplitudes": {}}, None),
    (ClickDistribution, {"eq": False}, ["p_click"],
     ({"D1": np.array([0.25, 0.5])},), {"p_click": {"D1": np.array([1.0])}},
     {"p_click": {"D1": np.array([1.5])}}),
    (EventLog, {"eq": False},
     ["shots", "seed", "shot_idx", "terminal", "bin_idx", "terminal_order"],
     (10, 3, np.array([1, 2]), np.zeros(2, dtype=np.int32), np.array([0, 1]), ("D1",)),
     {"shots": 20}, None),
    (FockBasis, {"eq": False}, ["n_modes", "cutoff", "occupations", "terms"],
     (2, 1, _BASIS.occupations, _BASIS.terms), {"cutoff": 2}, None),
    (FockStateVector, {"eq": False, "frozen": False},
     ["basis", "amplitudes", ("deficit", float, field(default=0.0))],
     (_BASIS, np.array([1 + 0j, 0, 0]), 1e-6), {"deficit": 1e-5}, None),
    (JointDistribution, {"eq": False}, ["cells", "outcomes", "probabilities", "deficit"],
     ((("D1", 0),), np.array([[0], [1]], dtype=np.uint8), np.array([0.5, 0.5]), 0.0),
     {"deficit": 0.1}, None),
    (TwoModeOp, {"eq": False}, ["mode_pair", "matrix", "position"],
     ((0, 1), np.eye(2), 0), {"position": 1}, None),
    (Decomposition, {"eq": False}, ["steps", "output_phases", "dim"],
     ((_STAGE,), np.zeros(2), 2), {"dim": 3}, None),
    (RunReport, {}, ["tables"],
     ({"t": Table(("a",), columns=(np.zeros(1),))},), {"tables": {}}, None),
    (TensorSumSourceSpec, {}, ["n_pulses"], (3,), {"n_pulses": 4}, None),
    (FockSourceSpec, {}, ["photons"], ((("src", 1),),), {"photons": (("src", 2),)}, None),
    (RunDefaults, {},
     [("shots", int, field(default=100_000)), ("seed", int, field(default=1)),
      ("mode", str, field(default="exact"))],
     (10, 2, "mc"), {"mode": "exact"}, None),
    (Scenario, {},
     ["schema_version", "scenario_id", "description", "source", "spec", "defaults",
      ("sweep_params", dict, field(default_factory=dict)),
      ("trigger_terminal", object, field(default=None))],
     ("proxy-ifm/1", "s", "text", TensorSumSourceSpec(2), _SPEC, RunDefaults(),
      {"phi": ("d", "phase")}, "D1"),
     {"trigger_terminal": None}, None),
    (OutcomeDistribution, {"eq": False}, ["p", "p_bins"],
     ({"D1": 1.0}, {"D1": np.array([1.0])}), {"p": {"D1": 0.5}}, None),
]


def _same(a, b):
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b))
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(map(_same, a, b)))
    return type(a) is type(b) and a == b


def _outcome(call):
    """What a call gives: its instance state or value, or the kind of
    exception it raises."""
    try:
        value = call()
    except (AttributeError, TypeError, ValueError, ProxyIfmError) as e:
        kinds = (AttributeError, TypeError, ValueError, ProxyIfmError)
        return "raises", next(k for k in kinds if isinstance(e, k))
    if hasattr(value, "__dict__") and not inspect.isclass(value):
        return "state", tuple(vars(value)), tuple(vars(value).values())
    return "value", value


def _agree(record_call, twin_call):
    mine, theirs = _outcome(record_call), _outcome(twin_call)
    assert mine[:2] == theirs[:2]
    if mine[0] == "state":
        assert _same(mine[2], theirs[2])
    elif mine[0] == "value":
        assert _same(mine[1], theirs[1])
    return mine[0] != "raises"


@pytest.mark.parametrize("case", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_matches_its_dataclass_twin(case):
    cls, options, fields, values, changes, refused = case
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    if not options.get("eq", True) and "__eq__" in vars(cls):
        # Its own value equality (BeamSplitter's, over the resolved
        # matrix), which the twin borrows with the methods it calls.
        namespace.update({name: vars(cls)[name] for name in (
            "__eq__", "__hash__", "_key", "resolved_matrix")})
    twin = make_dataclass(cls.__name__, fields, frozen=options.get("frozen", True),
                          eq=options.get("eq", True), namespace=namespace)
    names = cls.__match_args__
    assert names == twin.__match_args__
    keywords = dict(zip(names, values))

    # Construction by position, by keyword and from the defaults.
    required = sum(f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING
                   for f in dataclasses.fields(twin))
    for args, kwargs in [(values, {}), ((), keywords), (values[:1], dict(
            list(keywords.items())[1:])), (values[:required], {})]:
        _agree(lambda: cls(*args, **kwargs), lambda: twin(*args, **kwargs))
    for f in dataclasses.fields(twin):
        if f.default_factory is not dataclasses.MISSING:
            for c in (cls, twin):
                first, second = (getattr(c(*values[:required]), f.name) for _ in "ab")
                assert first == {} and first is not second

    # Refused calls: a missing, an extra, a repeated and an unknown argument.
    bad_calls = [(values + values[:1], {}), (values, {names[0]: values[0]}),
                 (values, {"no_such_field": 1})]
    if required:
        bad_calls.append((values[:required - 1], {}))
    for args, kwargs in bad_calls:
        assert not _agree(lambda: cls(*args, **kwargs), lambda: twin(*args, **kwargs))

    mine, theirs = cls(*values), twin(*values)
    assert repr(mine) == repr(theirs)

    # Equality and hashing, by value or by identity.
    assert (mine == cls(*values)) == (theirs == twin(*values))
    assert mine == mine and theirs == theirs
    assert (mine != cls(*values)) == (theirs != twin(*values))
    assert (mine == theirs) is False
    _agree(lambda: hash(mine) == hash(cls(*values)),
           lambda: hash(theirs) == hash(twin(*values)))
    if options.get("eq", True):
        _agree(lambda: hash(mine), lambda: hash(theirs))

    # Assignment, to a field and to a new name, and deletion.
    for name in (names[0], "no_such_field"):
        _agree(lambda: setattr(cls(*values), name, values[0]),
               lambda: setattr(twin(*values), name, values[0]))
    _agree(lambda: delattr(cls(*values), names[-1]),
           lambda: delattr(twin(*values), names[-1]))

    # replace, which constructs anew and so runs __post_init__ again.
    for change in (changes, refused, {"no_such_field": 1}):
        if change is not None:
            _agree(lambda: replace(mine, **change),
                   lambda: dataclasses.replace(theirs, **change))
    copy = replace(mine, **changes)
    assert type(copy) is cls and repr(copy) == repr(dataclasses.replace(theirs, **changes))


@pytest.mark.parametrize("name", list_builtin_scenarios())
def test_a_scenario_loaded_twice_is_equal(name):
    """Specs and scenarios compare by value, splitters by their resolved
    matrices, so two loads of one file are equal and their specs hash
    alike."""
    first, second = load_scenario(name), load_scenario(name)
    assert first.spec == second.spec and hash(first.spec) == hash(second.spec)
    assert first == second


def test_splitters_compare_by_id_ports_and_resolved_matrix():
    splitter = BeamSplitter("bs", ("a", "vac0"), ("b", "c"))
    explicit = replace(splitter, matrix=default_beamsplitter())
    assert splitter == explicit and hash(splitter) == hash(explicit)
    for change in ({"id": "bs2"}, {"inputs": ("vac0", "a")}, {"outputs": ("c", "b")}):
        assert splitter != replace(splitter, **change)


def test_a_changed_matrix_entry_compares_unequal():
    scenario = load_scenario("fig2_blocked")
    splitter = next(e for e in scenario.spec.elements if isinstance(e, BeamSplitter))
    matrix = splitter.resolved_matrix()
    matrix[1, 0] = complex(matrix[1, 0].real, np.nextafter(matrix[1, 0].imag, 2))
    changed = replace(splitter, matrix=matrix)
    assert changed != splitter
    spec = with_element(scenario.spec, changed)
    assert spec != scenario.spec and replace(scenario, spec=spec) != scenario
