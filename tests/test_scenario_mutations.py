"""The input boundary as a property: seeded mutations of the shipped files.

Each mutant sets one or two fields of a shipped scenario file to a value
from a fixed pool of JSON values, or deletes them, and runs
``proxyifm simulate`` in process, and ``proxyifm sweep`` too for the
mutants of the file that declares a sweep.  Whatever the file holds, the
CLI must exit 0, 2 (validation) or 3 (engine) without an escaping
exception; a run that exits 0 must write only finite numbers; and a
string where the schema wants a number must exit 2.
"""

import copy
import json
import random

import pytest

from proxyifm.cli import main
from proxyifm.scenarios import builtin_scenario_path, list_builtin_scenarios

from conftest import non_finite_numbers

DELETE = object()
# No string here reads as a non-finite float, so a "nan" or "inf" in an
# output can only be a number.
POOL = (None, True, False, 0, -1, 1.5, 1e9, 1e12, 1e300, -1e300, "0.1", "1",
        "pi/0", "pi/2", "x", "", [], [0.5], {}, {"a": 1}, DELETE)
MUTANTS_PER_FILE = 120
SEED = 20261019

# Keys whose values the schema reads as numbers (an integer, a float, or a
# list of them); a phase shifter's ``angle`` also takes 'pi/x' strings and
# is not among them.
NUMERIC_KEYS = {"n", "alpha_squared", "phases", "n_bins", "bins", "phase",
                "matrix", "shots", "seed"}


def _paths(node, prefix=()):
    """Every key or index path of a JSON document, parents first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _set(doc, path, value) -> bool:
    """Set (or delete) ``path`` in ``doc``; False when it no longer exists."""
    node = doc
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return False
    if not isinstance(node, (dict, list)) or \
            (isinstance(node, list) and not (isinstance(path[-1], int)
                                             and path[-1] < len(node))):
        return False
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return True


def _get(doc, path):
    node = doc
    for key in path:
        node = node[key]
    return node


def _numeric(path) -> bool:
    """Whether ``path`` is a number, or an entry of one, in the schema."""
    if path[:2] == ("pulses", "photons"):
        return len(path) == 4 and path[3] == 1
    return any(isinstance(k, str) and k in NUMERIC_KEYS for k in path)


def _string_on_numeric_path(doc, changed) -> bool:
    for path in changed:
        try:
            value = _get(doc, path)
        except (KeyError, IndexError, TypeError):
            continue
        if isinstance(value, str) and _numeric(path):
            return True
    return False


def _mutants(name):
    """``(label, document, changed paths, mode, exit code or None)``."""
    base = json.loads(builtin_scenario_path(name).read_text(encoding="utf-8"))
    paths = list(_paths(base))
    rng = random.Random(f"{SEED}-{name}")
    for k in range(MUTANTS_PER_FILE):
        doc = copy.deepcopy(base)
        changed = [p for p in rng.sample(paths, rng.choice((1, 2)))
                   if _set(doc, p, rng.choice(POOL))]
        expect = 2 if _string_on_numeric_path(doc, changed) else None
        yield f"{k}", doc, changed, ("exact", "mc")[k % 2], expect
    if base["pulses"]["kind"] == "coherent":
        # Too many pulses to hold: refused by size before any list is built.
        for n in (1e9, 1e12):
            doc = copy.deepcopy(base)
            doc["pulses"]["n"] = n
            del doc["pulses"]["phases"]
            yield f"n={n:.0e}", doc, [("pulses", "n")], "exact", 3


@pytest.mark.parametrize("name", list_builtin_scenarios())
def test_mutated_scenarios_fail_at_the_boundary(name, tmp_path, monkeypatch):
    monkeypatch.delenv("PROXYIFM_SEED", raising=False)
    monkeypatch.delenv("PROXYIFM_OUTDIR", raising=False)
    for label, doc, changed, mode, expect in _mutants(name):
        case = tmp_path / label
        case.mkdir()
        scenario = case / "scenario.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        fmt = "jsonl" if mode == "mc" else "csv"
        argv = ["simulate", "--scenario", str(scenario), "--mode", mode,
                "--format", fmt, "--out", str(case / f"out.{fmt}")]
        if mode == "mc":
            argv += ["--shots", "64", "--seed", "5"]
        runs = [("out", argv)]
        if name == "fringe_sweep":
            runs.append(("sweep", ["sweep", "--scenario", str(scenario),
                                   "--from", "0", "--to", "6.283185307179586",
                                   "--steps", "5",
                                   "--out", str(case / "sweep.csv")]))
        for prefix, argv in runs:
            code = main(argv)
            assert code in (0, 2, 3), (label, changed, prefix, code)
            if code == 0:
                for out in case.glob(f"{prefix}.*"):
                    assert not non_finite_numbers(out), (label, changed, out.name)
            if expect is not None:
                assert code == expect, (label, changed, prefix, code)
