"""Scenario files: a versioned JSON description of one experiment.

Schema ``proxy-ifm/1``.  Top-level keys:

* ``pulses``    - the source block: ``{"kind": "coherent", "n": N,
  "alpha_squared": ..., "phases": [...]}``, loaded as a
  :class:`~proxyifm.coherent.CoherentTrain` of amplitude
  ``sqrt(alpha_squared)``, or ``{"kind": "tensor_sum", "n": N}``, each
  fed into the circuit's only source, or ``{"kind": "single_photons",
  "photons": [[source_id, bin], ...]}``.
* ``circuit``   - ``{"n_bins": optional, "elements": [...]}`` with one
  object per element (``source``, ``beamsplitter``, ``obstacle``,
  ``delay``, ``phase``, ``absorber``) wired by named wires; wire names
  starting with ``vac`` are fresh vacuum inputs.
* ``obstacles`` - element id -> inserted flag (``true`` or ``false``, as
  an element's own ``inserted``).
* ``detectors`` - ``[{"id", "wire", "label"}]``.
* ``sweep``     - sweepable parameter name -> ``{"element", "field"}``.
* ``analysis``  - optional ``{"trigger": detector_id}``.
* ``defaults``  - ``{"shots", "seed", "mode"}``: integers ``shots >= 1``
  and ``seed >= 0``, ``mode`` ``"exact"`` or ``"mc"``.

Every float must be a finite JSON number, not a boolean or a string (an
angle may also be ``'pi/x'``), every flag a JSON boolean, and every
integer an integer at least its field's bound (``ParseError``
otherwise); ids and wires are strings without ``,``, ``"``, ``;``,
``=``, control characters or lone surrogates, and each photon must name
a source and one of its bins.  A coherent ``pulses.n`` whose amplitudes
would exceed ``MAX_MAP_BYTES`` is refused (``StateTooLargeError``) before
anything is allocated.  The golden scenarios shipped with
the package double as schema examples.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .circuit import (
    MAX_MAP_BYTES,
    Absorber,
    BeamSplitter,
    CircuitSpec,
    Delay,
    Detector,
    Element,
    Obstacle,
    PhaseShift,
    Source,
)
from .coherent import CoherentTrain
from .errors import (
    ParseError,
    StateTooLargeError,
    UnknownSchemaVersionError,
    UnresolvedElementIdError,
)
from .records import field, record

SCHEMA = "proxy-ifm/1"

_BUILTIN_DIR = Path(__file__).parent / "scenarios"


@record
class TensorSumSourceSpec:
    n_pulses: int

    kind = "tensor_sum"


@record
class FockSourceSpec:
    photons: tuple[tuple[str, int], ...]

    kind = "single_photons"


SourceSpec = Union[CoherentTrain, TensorSumSourceSpec, FockSourceSpec]


@record
class RunDefaults:
    shots: int = 100_000
    seed: int = 1
    mode: str = "exact"


@record
class Scenario:
    """A validated scenario: source, circuit, and run defaults."""

    schema_version: str
    scenario_id: str
    description: str
    source: SourceSpec
    spec: CircuitSpec
    defaults: RunDefaults
    sweep_params: dict[str, tuple[str, str]] = field(default_factory=dict)
    trigger_terminal: Optional[str] = None


def builtin_scenario_path(name: str) -> Path:
    return _BUILTIN_DIR / f"{name}.json"


def list_builtin_scenarios() -> list[str]:
    return sorted(p.stem for p in _BUILTIN_DIR.glob("*.json"))


def load_scenario(path_or_name: Union[str, Path]) -> Scenario:
    """Load and validate a scenario file (or a shipped scenario by name).

    Parse failures report line and column; unknown schema strings and
    references to missing element ids are rejected before any compilation.
    """
    path = Path(path_or_name)
    if not path.exists() and not path.suffix:
        candidate = builtin_scenario_path(str(path_or_name))
        if candidate.exists():
            path = candidate
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (invalid byte at offset "
                         f"{exc.start})") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg} (line {exc.lineno}, column {exc.colno})",
                         line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:   # an integer of more digits than int() takes
        raise ParseError(f"{path}: malformed scenario: {exc}") from None
    try:
        return _scenario_from_dict(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed scenario: {exc}") from exc


def _scenario_from_dict(raw: dict) -> Scenario:
    schema = _object(raw, "the scenario").get("schema")
    if schema != SCHEMA:
        raise UnknownSchemaVersionError(
            f"schema {schema!r} is not supported (expected {SCHEMA!r})")

    source = _parse_source(raw["pulses"])
    circuit = raw["circuit"]
    elements: list[Element] = []
    ids: set[str] = set()
    for entry in circuit["elements"]:
        e = _parse_element(entry, source)
        if e.id in ids:
            raise ParseError(f"duplicate element id {e.id!r}")
        ids.add(e.id)
        elements.append(e)

    for det in raw.get("detectors", ()):
        d = Detector(id=_name(det["id"], "detector id"), label=det.get("label", ""),
                     wire=_name(det["wire"], "detector wire"))
        if d.id in ids:
            raise ParseError(f"duplicate element id {d.id!r}")
        ids.add(d.id)
        elements.append(d)

    n_sources = sum(isinstance(e, Source) for e in elements)
    if n_sources > 1 and not isinstance(source, FockSourceSpec):
        raise ParseError(f"pulses: a {source.kind} train feeds one source, "
                         f"not {n_sources} sources")
    if isinstance(source, FockSourceSpec):
        source_bins = {e.id: e.n_bins for e in elements if isinstance(e, Source)}
        for sid, b in source.photons:
            if sid not in source_bins:
                raise ParseError(f"pulses: photon on unknown source {sid!r}")
            if b >= source_bins[sid]:
                raise ParseError(f"pulses: photon bin {b} of source {sid!r} is "
                                 f"outside 0..{source_bins[sid] - 1}")

    obstacle_ids = {e.id for e in elements if isinstance(e, Obstacle)}
    inserted = {}
    for oid, flag in _object(raw.get("obstacles", {}), "obstacles").items():
        if oid not in obstacle_ids:
            raise UnresolvedElementIdError(
                f"obstacles block references unknown element {oid!r}")
        inserted[oid] = _flag(flag, f"obstacles: {oid!r}")

    sweep_params: dict[str, tuple[str, str]] = {}
    for name, ref in _object(raw.get("sweep", {}), "sweep").items():
        if ref["element"] not in ids:
            raise UnresolvedElementIdError(
                f"sweep parameter {name!r} references unknown element "
                f"{ref['element']!r}")
        sweep_params[name] = (ref["element"], ref["field"])

    trigger = _object(raw.get("analysis", {}), "analysis").get("trigger")
    detector_ids = {e.id for e in elements if isinstance(e, Detector)}
    if trigger is not None and trigger not in detector_ids:
        raise UnresolvedElementIdError(
            f"analysis trigger references unknown detector {trigger!r}")

    defaults_raw = _object(raw.get("defaults", {}), "defaults")
    mode = defaults_raw.get("mode", "exact")
    if mode not in ("exact", "mc"):
        raise ParseError(f"defaults: mode {mode!r} must be 'exact' or 'mc'")
    defaults = RunDefaults(
        shots=_int(defaults_raw.get("shots", 100_000), "defaults: shots", low=1),
        seed=_int(defaults_raw.get("seed", 1), "defaults: seed", low=0),
        mode=mode,
    )

    n_bins = circuit.get("n_bins")
    spec = CircuitSpec(
        elements=tuple(elements),
        n_bins=None if n_bins is None else _int(n_bins, "circuit: n_bins", low=1),
    ).with_obstacles(inserted)

    return Scenario(
        schema_version=schema,
        scenario_id=str(raw.get("id", "unnamed")),
        description=str(raw.get("description", "")),
        source=source,
        spec=spec,
        defaults=defaults,
        sweep_params=sweep_params,
        trigger_terminal=trigger,
    )


def _int(value, what: str, low: int) -> int:
    """``value`` as an integer >= ``low``, else ``ParseError``.  Every integer
    of a scenario passes here; an integral float such as 1e3 is accepted."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < low:
        raise ParseError(f"{what} {value!r} must be an integer >= {low}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} {value!r} must be a JSON object")
    return value


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{what} {value!r} must be true or false")
    return value


# Ids name terminals and outcome-vector groups in the output tables, where a
# separator or a control character would split or corrupt a row, and a lone
# surrogate cannot be written as UTF-8 at all.
_BAD_NAME_CHAR = re.compile(r'[,";=\x00-\x1f\x7f\ud800-\udfff]')


def _name(value, what: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{what} {value!r} must be a string")
    bad = _BAD_NAME_CHAR.search(value)
    if bad:
        raise ParseError(f"{what} {value!r} must not contain {bad.group()!r}")
    return value


def _parse_source(raw: dict) -> SourceSpec:
    kind = raw["kind"]
    if kind == "coherent":
        n = _int(raw["n"], "pulses: n", low=1)
        size = n * np.dtype(complex).itemsize
        if size > MAX_MAP_BYTES:
            raise StateTooLargeError(
                f"pulses: {n} pulses need {size} bytes, over the bound of "
                f"{MAX_MAP_BYTES} bytes")
        phases = raw.get("phases")
        if phases is None:
            phases = [0.0] * n
        if len(phases) != n:
            raise ParseError(f"pulses: {len(phases)} phases for {n} pulses")
        alpha_squared = _finite(raw["alpha_squared"], "pulses: alpha_squared")
        if alpha_squared < 0:
            raise ParseError(f"pulses: alpha_squared {alpha_squared!r} must be "
                             "finite and non-negative")
        # Finite floats, the usual list, are kept in one pass; any other
        # list is read value by value, so that an error names the value.
        if set(map(type, phases)) == {float} and all(map(math.isfinite, phases)):
            phases = tuple(phases)
        else:
            phases = tuple(_finite(p, "pulses: phases") for p in phases)
        return CoherentTrain(alpha=complex(math.sqrt(alpha_squared)),
                             phases=phases)
    if kind == "tensor_sum":
        return TensorSumSourceSpec(n_pulses=_int(raw["n"], "pulses: n", low=1))
    if kind == "single_photons":
        return FockSourceSpec(photons=tuple(
            (str(s), _int(b, "pulses: photon bin", low=0))
            for s, b in raw["photons"]))
    raise ParseError(f"unknown source kind {kind!r}")


def _parse_element(entry: dict, source: SourceSpec) -> Element:
    kind = entry["kind"]
    eid = _name(entry["id"], f"{kind} id")

    def wire(value) -> str:
        return _name(value, f"{kind} {eid!r}: wire")

    if kind == "source":
        return Source(id=eid, out=wire(entry["out"]),
                      n_bins=_source_bins(eid, source, entry))
    if kind == "beamsplitter":
        matrix = entry.get("matrix")
        if matrix is not None:
            what = f"beamsplitter {eid!r}: matrix entry"
            matrix = np.array([[complex(_finite(re, what), _finite(im, what))
                                for re, im in row] for row in matrix])
        if any(type(entry[k]) is not list or len(entry[k]) != 2 for k in ("in", "out")):
            raise ParseError(f"beamsplitter {eid!r} needs two in and two out wires")
        return BeamSplitter(id=eid, inputs=tuple(map(wire, entry["in"])),
                            outputs=tuple(map(wire, entry["out"])), matrix=matrix)
    if kind == "delay":
        return Delay(id=eid, input=wire(entry["in"]), output=wire(entry["out"]),
                     bins=_int(entry["bins"], f"delay {eid!r}: bins", low=0),
                     phase=_finite(entry.get("phase", 0.0), f"delay {eid!r}: phase"))
    if kind == "phase":
        return PhaseShift(id=eid, input=wire(entry["in"]), output=wire(entry["out"]),
                          angle=_angle(entry["angle"], f"phase {eid!r}: angle"))
    if kind == "obstacle":
        bins = entry.get("bins")
        return Obstacle(id=eid, input=wire(entry["in"]), output=wire(entry["out"]),
                        inserted=_flag(entry.get("inserted", False),
                                       f"obstacle {eid!r}: inserted"),
                        bins=None if bins is None else frozenset(
                            _int(b, f"obstacle {eid!r}: bin", low=0) for b in bins))
    if kind == "absorber":
        return Absorber(id=eid, wire=wire(entry["wire"]))
    raise ParseError(f"unknown element kind {kind!r}")


def _finite(value, what: str) -> float:
    """``value`` as a finite float, never a JSON boolean or string; every
    float a scenario holds passes here."""
    if isinstance(value, (bool, str)):
        raise ParseError(f"{what} {value!r} must be a finite number")
    try:
        x = float(value)
    except OverflowError:       # an integer past the largest float
        raise ParseError(f"{what} {value!r} must be finite") from None
    if not math.isfinite(x):
        raise ParseError(f"{what} {x!r} must be finite")
    return x


def _angle(value, what: str) -> float:
    """Angles are finite numbers, or the strings 'pi', 'pi/2', '-pi', ...

    The divisor of ``'pi/x'`` must be finite and non-zero.
    """
    if isinstance(value, str):
        sign = -1.0 if value.startswith("-") else 1.0
        body = value.lstrip("+-")
        if body == "pi":
            return sign * math.pi
        if body.startswith("pi/"):
            try:
                divisor = float(body[3:])
            except ValueError:
                raise ParseError(f"{what} {value!r} has a non-numeric divisor") from None
            divisor = _finite(divisor, f"{what} divisor")
            if divisor == 0:
                raise ParseError(f"{what} {value!r} divides by zero")
            return sign * math.pi / divisor
        raise ParseError(f"cannot parse angle {value!r}")
    return _finite(value, what)


def _source_bins(source_id: str, source: SourceSpec, entry: dict) -> int:
    if "n_bins" in entry:
        return _int(entry["n_bins"], f"source {source_id!r}: n_bins", low=1)
    if isinstance(source, (CoherentTrain, TensorSumSourceSpec)):
        return source.n_pulses
    bins = [b for s, b in source.photons if s == source_id]
    return (max(bins) + 1) if bins else 1
