"""Spans recorded from outside the program, and the per-layer table.

``install`` replaces each traced function at every module attribute (or
class attribute) that binds it, so calls made through any import path are
seen.  Nothing under ``src/`` is edited; an untraced child never imports
this module.  A span is ``(name, start_ns, end_ns, parent,
job_id, extra)``; ``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

# (module, attribute path) of every traced function, named by where it is
# defined.  Methods are reached through their class.
TRACED = (
    ("scenarios", "load_scenario"),
    ("circuit", "compile_circuit"),
    ("circuit", "validate"),
    ("coherent", "propagate_coherent"),
    ("coherent", "interaction_free_probability"),
    ("coherent", "fringe_sweep"),
    ("coherent", "sample_clicks"),
    ("singlephoton", "propagate_photon"),
    ("singlephoton", "sample_outcomes"),
    ("fock", "FockBasis.build"),
    ("fock", "FockBasis.index_of"),
    ("fock", "FockOracle.run"),
    ("fock", "apply_two_mode_unitary"),
    ("fock", "sample_joint"),
    ("runner", "run"),
    ("runner", "emit"),
    ("runner", "sweep_table"),
    ("cli", "main"),
)


def _map_bytes(compiled) -> int:
    """Bytes of the dense map a compile materialised (0 if it made none)."""
    dense = vars(compiled).get("unrolled_map")
    return int(dense.nbytes) if dense is not None else 0


# Counters taken at a span's boundary, from its bound arguments and result.
EXTRAS = {
    "circuit.compile_circuit": lambda a, r: {"map_bytes": _map_bytes(r)},
    "coherent.sample_clicks": lambda a, r: {
        "draws": int(a["shots"]) * sum(len(p) for p in a["dist"].p_click.values()),
        "events": len(r)},
    "fock.FockBasis.build": lambda a, r: {"dim": int(r.dim)},
    "runner.emit": lambda a, r: {
        "rows": sum(len(t.rows) for t in a["report"].tables.values())},
}


class Tracer:
    """In-memory span store for one child process."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, job_id = self.spans, self._stack, self.job_id
        clock = time.perf_counter_ns
        extra = EXTRAS.get(name)
        signature = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, job_id, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra:
                span[5] = extra(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in ``TRACED`` at each of its bindings."""
    importlib.import_module("proxyifm.cli")
    loaded = [m for n, m in list(sys.modules.items())
              if n == "proxyifm" or n.startswith("proxyifm.")]
    for mod_name, attr in TRACED:
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[f"proxyifm.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))
            continue
        original = getattr(sys.modules[f"proxyifm.{mod_name}"], attr)
        wrapper = tracer.wrap(name, original)
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def wrapper_cost_s() -> float:
    """Seconds one traced call adds, measured on a no-op (median of 5 tries)."""
    def noop():
        return None

    calls = 20_000
    costs = []
    for _ in range(5):
        wrapped = Tracer("calibration").wrap("noop", noop)
        t0 = time.process_time()
        for _ in range(calls):
            noop()
        t1 = time.process_time()
        for _ in range(calls):
            wrapped()
        costs.append(max(0.0, (time.process_time() - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def self_times(spans: list) -> dict[str, float]:
    """Seconds per span name: duration minus the time its children cover."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _job, _extra in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _p, _j, _e) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start - child_ns[i]) / 1e9
    return out


def layer_table(spans: list, emitted_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all of its jobs' spans)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    sums: dict[str, int] = {}
    dim = 0
    for name, _s, _e, _p, _j, extra in spans:
        calls[name] = calls.get(name, 0) + 1
        if extra:
            for key in ("map_bytes", "draws", "events", "rows"):
                if key in extra:
                    sums[key] = sums.get(key, 0) + extra[key]
            dim = max(dim, extra.get("dim", 0))
    names = [f"{m}.{a}" for m, a in TRACED]
    table = {f"{n}.self_s": selfs.get(n, 0.0) for n in names}
    for n in ("scenarios.load_scenario", "circuit.compile_circuit",
              "fock.FockBasis.index_of", "fock.apply_two_mode_unitary"):
        table[f"{n}.calls"] = calls.get(n, 0)
    draws = sums.get("draws", 0)
    table.update({
        "circuit.map_bytes": sums.get("map_bytes", 0),
        "coherent.sample_clicks.draws": draws,
        "coherent.sample_clicks.events": sums.get("events", 0),
        "coherent.sample_clicks.events_per_draw":
            sums.get("events", 0) / draws if draws else 0.0,
        "fock.basis_dim": dim,
        "runner.emit.rows": sums.get("rows", 0),
        "runner.emit.bytes": emitted_bytes,
    })
    return table


def median_table(tables: list[dict]) -> dict[str, float]:
    """Per-metric median over passes; ``median_low`` keeps counts exact."""
    return {k: statistics.median_low(t[k] for t in tables) for k in tables[0]}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("_per_draw"):
        return "ratio"
    return "count"
