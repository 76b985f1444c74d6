"""Output checks against closed forms, run after timing.

They test physics rather than bytes, because Monte-Carlo bytes for a given
seed may change on purpose.  Each check returns a list of problems; an
empty list means the output is correct.  Amplitudes are those of the
README for a train of pulses ``alpha * exp(i theta)``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

EXACT_TOL = 1e-12
SIGMAS = 5.0

# Interior-bin detector amplitudes, in units of alpha * exp(i theta).
INTERIOR = {
    "fig2_blocked": {"D1": 0.5, "D2": 0.5j},
    "fig3_blocked_l": {"D1": -0.75, "D2": 0.25j, "D3": -0.5j / math.sqrt(2)},
}
# Amplitude absorbed per pulse at the blocked obstacle, same units.
ABSORBED = {"fig2_blocked": 1j / math.sqrt(2), "fig3_blocked_l": 0.5j}
# Loss of the no-interaction figure: exp(-factor * |alpha|^2).
NO_INTERACTION = {"fig2_blocked": 0.5, "fig3_blocked_l": 1.0}
# One photon over the blocked two-pulse interferometer.
PHOTON_OUTCOMES = {"D1": 0.25, "D2": 0.25, "obstacle_l": 0.5}


def check(job, outdir: Path) -> list[str]:
    if not any(Path(outdir).glob("out.*")):
        return ["no output file"]
    try:
        return CHECKS[job.check](job.params, Path(outdir))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(got: float, want: float, tol: float = EXACT_TOL) -> bool:
    return abs(got - want) <= tol


def exact_field(p: dict, outdir: Path) -> list[str]:
    problems = []
    n, a2, theta, name = p["n"], p["alpha_squared"], p["theta"], p["template"]
    alpha = math.sqrt(a2) * complex(math.cos(theta), math.sin(theta))
    _, rows = _csv(outdir / "out.csv")
    amps = {(t, int(b)): complex(float(re), float(im)) for t, b, re, im, *_ in rows}
    energy = sum(float(r[4]) for r in rows)
    if not _close(energy, n * a2, 1e-12 * max(1.0, n * a2)):
        problems.append(f"energy {energy!r} != N|alpha|^2 = {n * a2!r}")
    delay = 1 if name == "fig2_blocked" else 2    # interior bins: delay..N-1
    for term, unit in INTERIOR[name].items():
        bad = [b for b in range(delay, n) if not _close(amps[(term, b)], unit * alpha)]
        if bad:
            problems.append(f"{term} interior bins {bad[:3]}... != {unit} alpha")
    bad = [b for b in range(n) if not _close(amps[("obstacle_l", b)],
                                             ABSORBED[name] * alpha)]
    if bad:
        problems.append(f"obstacle_l bins {bad[:3]}... != {ABSORBED[name]} alpha")
    _, cond = _csv(outdir / "out.conditionals.csv")
    got = float(dict(cond)["p_no_interaction"])
    want = math.exp(-NO_INTERACTION[name] * a2)
    if not _close(got, want):
        problems.append(f"p_no_interaction {got!r} != {want!r}")
    return problems


def exact_photon(p: dict, outdir: Path) -> list[str]:
    problems = []
    _, rows = _csv(outdir / "out.csv")
    total = sum(float(r[2]) for r in rows)
    if not _close(total, 1.0):
        problems.append(f"total probability {total!r} != 1")
    _, outcome = _csv(outdir / "out.p_outcome.csv")
    got = {t: float(v) for t, v in outcome}
    for term, want in PHOTON_OUTCOMES.items():
        if not _close(got.get(term, math.nan), want):
            problems.append(f"P({term}) = {got.get(term)!r} != {want}")
    return problems


def sweep(p: dict, outdir: Path) -> list[str]:
    _, rows = _csv(outdir / "out.csv")
    problems = []
    if len(rows) != 32:
        problems.append(f"{len(rows)} sweep rows, expected 32")
    for phi, d1, d2 in rows:
        c = math.cos(float(phi))
        if not (_close(float(d1), (1 + c) / 2, 1e-9)
                and _close(float(d2), (1 - c) / 2, 1e-9)):
            problems.append(f"phase {phi}: ({d1}, {d2}) off the (1 +- cos)/2 fringe")
    return problems


def _events(outdir: Path, fmt: str) -> list[tuple[int, str, int]]:
    if fmt == "jsonl":
        text = (outdir / "out.jsonl").read_text(encoding="utf-8").strip()
        rows = json.loads("[" + text.replace("\n", ",") + "]") if text else []
        return [(r["shot"], r["terminal"], r["bin"]) for r in rows]
    _, rows = _csv(outdir / "out.csv")
    return [(int(s), t, int(b)) for s, t, b in rows]


def fig2_cell_means(n: int, a2: float) -> dict[str, list[float]]:
    """Mean photon number per (terminal, bin) of blocked fig2: N+1 bins."""
    return {"D1": [a2 / 4] * n + [0.0], "D2": [a2 / 4] * n + [0.0],
            "obstacle_l": [a2 / 2] * n + [0.0]}


def _counts_within(counts: dict, expected: dict, var: dict) -> list[str]:
    problems = []
    for term, mu in expected.items():
        got = counts.get(term, 0)
        if abs(got - mu) > SIGMAS * math.sqrt(var[term]) + 1e-9:
            problems.append(f"{term}: {got} events, expected {mu:.1f} "
                            f"+- {SIGMAS:g} sigma ({math.sqrt(var[term]):.1f})")
    extra = set(counts) - set(expected)
    if extra:
        problems.append(f"unknown terminals {sorted(extra)}")
    return problems


def _click_expectation(shots: int, means: dict) -> tuple[dict, dict]:
    expected, var = {}, {}
    for term, ms in means.items():
        ps = [-math.expm1(-m) for m in ms]
        expected[term] = shots * sum(ps)
        var[term] = shots * sum(q * (1 - q) for q in ps)
    return expected, var


def _in_range(events, shots: int, n_bins: int) -> list[str]:
    bad = [e for e in events if not (0 <= e[0] < shots and 0 <= e[2] < n_bins)]
    return [f"{len(bad)} events out of range, first {bad[0]}"] if bad else []


def mc_clicks(p: dict, outdir: Path) -> list[str]:
    events = _events(outdir, p["fmt"])
    shots, n = p["shots"], p["n"]
    problems = _in_range(events, shots, n + 1)
    expected, var = _click_expectation(shots, fig2_cell_means(n, p["alpha_squared"]))
    counts = Counter(t for _, t, _ in events)
    return problems + _counts_within(counts, expected, var)


def mc_photon(p: dict, outdir: Path) -> list[str]:
    events = _events(outdir, p["fmt"])
    shots, n = p["shots"], p["n"]
    problems = _in_range(events, shots, n + 1)
    if [e[0] for e in events] != list(range(shots)):
        problems.append("not exactly one event per shot")
    counts = Counter(t for _, t, _ in events)
    expected = {t: shots * q for t, q in PHOTON_OUTCOMES.items()}
    var = {t: shots * q * (1 - q) for t, q in PHOTON_OUTCOMES.items()}
    return problems + _counts_within(counts, expected, var)


def _outcome(text: str) -> dict[str, list[int]]:
    return {term: [int(c) for c in counts.split(",")]
            for term, counts in (g.split("=") for g in text.split(";"))}


def mc_fock(p: dict, outdir: Path) -> list[str]:
    lines = (outdir / "out.csv").read_text(encoding="utf-8").splitlines()[1:]
    shots, n = p["shots"], p["n"]
    problems = []
    shot_ids = []
    counts: Counter = Counter()
    for line in lines:
        shot, vector = line.split(",", 1)
        shot_ids.append(int(shot))
        for term, cells in _outcome(vector).items():
            if len(cells) != n + 1:
                problems.append(f"{term} has {len(cells)} bins, expected {n + 1}")
                return problems
            counts[term] += sum(1 for c in cells if c > 0)
    if shot_ids != list(range(shots)):
        problems.append("shot indices are not 0..shots-1, one row each")
    expected, var = _click_expectation(shots, fig2_cell_means(n, p["alpha_squared"]))
    return problems + _counts_within(counts, expected, var)


def _poisson_truncation(mean: float, cutoff: int) -> float:
    """E[K | K <= cutoff] / E[K] for K ~ Poisson(mean).

    The oracle keeps only input configurations of at most ``cutoff``
    photons (the dropped weight is its deficit, P(K > cutoff)) and
    renormalises, so every mean photon number shrinks by this factor.
    """
    pmf = [math.exp(-mean) * mean ** k / math.factorial(k) for k in range(cutoff + 1)]
    return sum(k * q for k, q in enumerate(pmf)) / sum(pmf) / mean


def oracle(p: dict, outdir: Path) -> list[str]:
    lines = (outdir / "out.csv").read_text(encoding="utf-8").splitlines()[1:]
    joint = [(_outcome(vector), float(prob))
             for vector, prob in (line.rsplit(",", 1) for line in lines)]
    problems = []
    total = sum(q for _, q in joint)
    if not _close(total, 1.0, 1e-9):
        problems.append(f"total probability {total!r} != 1")
    name = p["template"]
    if name == "hom_pair":
        both = sum(q for o, q in joint if sum(o["D1"]) and sum(o["D2"]))
        if not _close(both, 0.0):
            problems.append(f"D1.D2 coincidence {both!r} != 0")
        return problems
    if name == "fig2_tensor_sum_blocked":
        if any(sum(map(sum, o.values())) != 1 for o, _ in joint):
            problems.append("an outcome does not hold exactly one photon")
        for term, want in PHOTON_OUTCOMES.items():
            got = sum(q for o, q in joint if sum(o[term]))
            if not _close(got, want, 1e-9):
                problems.append(f"P({term}) = {got!r} != {want}")
        return problems
    # Coherent train: mean photon numbers of the bins with closed forms.
    n, a2 = p["n"], p["alpha_squared"]
    shrink = _poisson_truncation(n * a2, p["cutoff"])
    delay = 1 if name == "fig2_blocked" else 2
    cells = [(t, b, abs(u) ** 2) for t, u in INTERIOR[name].items()
             for b in range(delay, n)]
    cells += [("obstacle_l", b, abs(ABSORBED[name]) ** 2) for b in range(n)]
    for term, b, unit in cells:
        got = sum(q * o[term][b] for o, q in joint)
        want = unit * a2 * shrink
        if not _close(got, want, 1e-9):
            problems.append(f"mean n of {term} bin {b}: {got!r} != {want!r}")
    return problems


CHECKS = {
    "exact_field": exact_field,
    "exact_photon": exact_photon,
    "sweep": sweep,
    "mc_clicks": mc_clicks,
    "mc_photon": mc_photon,
    "mc_fock": mc_fock,
    "oracle": oracle,
}
