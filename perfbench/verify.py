"""Output checks computed apart from the tuner, and the quality metrics.

Every check returns a list of human-readable problems; an empty list means
the round passed.  The helpers re-derive what they compare against: Eq. 11
is re-implemented here, constraints are re-expressed from the applications'
documented spaces, Pareto fronts come from a plain pairwise dominance
filter and hypervolumes from a 2-D sweep.  Nothing is compared against a
stored copy of an earlier run's output.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

#: the fixed hypervolume reference point, as a multiple of the default
#: configuration's objective values on each task (Eq. 11 uses its scan range)
HV_REF_FACTOR = 2.0
#: tolerance between the program's Eq. 11 and this module's: a few ulps
EQ11_RTOL = 1e-12


# -- Eq. 11 ----------------------------------------------------------------------
def eq11(t: float, x: float) -> float:
    """y(t, x) = 1 + exp(-(x+1)^(t+1)) cos(2 pi x) sum_i sin(2 pi x (t+2)^i)."""
    s = sum(math.sin(2.0 * math.pi * x * (t + 2.0) ** i) for i in range(1, 6))
    return 1.0 + math.exp(-((x + 1.0) ** (t + 1.0))) * math.cos(2.0 * math.pi * x) * s


def eq11_scan(t: float, n: int = 400_001) -> Tuple[float, float]:
    """(min, max) of Eq. 11 on [0, 1]: a dense grid, then golden-section
    refinement of the minimum around the best grid cells."""
    xs = np.linspace(0.0, 1.0, n)
    s = sum(np.sin(2.0 * np.pi * xs * (t + 2.0) ** i) for i in range(1, 6))
    ys = 1.0 + np.exp(-((xs + 1.0) ** (t + 1.0))) * np.cos(2.0 * np.pi * xs) * s
    lo = float(ys.min())
    h = 1.0 / (n - 1)
    for i in np.argsort(ys)[:8]:
        a, b = max(0.0, xs[i] - h), min(1.0, xs[i] + h)
        lo = min(lo, _golden_min(lambda x: eq11(t, x), a, b))
    return lo, float(ys.max())


def _golden_min(f, a: float, b: float, iters: int = 60) -> float:
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return min(fc, fd, f(a), f(b))


# -- Pareto fronts and hypervolume ---------------------------------------------------
def non_dominated(F: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of ``F`` no other row dominates (minimization).

    Pairwise definition: row j dominates row i when it is no worse in every
    objective and better in one.  Exact duplicates do not dominate each other.
    """
    F = np.asarray(F, dtype=float)
    n = len(F)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and np.all(F[j] <= F[i]) and np.any(F[j] < F[i]):
                keep[i] = False
                break
    return keep


def hypervolume_2d(F: np.ndarray, ref: Sequence[float]) -> float:
    """Area dominated by the points of ``F`` inside the box below ``ref``.

    Sweep: sort the points by the first objective; each point that improves
    the running minimum of the second objective adds the slab between the two
    values, reaching from the point to the reference.
    """
    r0, r1 = float(ref[0]), float(ref[1])
    pts = sorted((float(a), float(b)) for a, b in np.asarray(F, dtype=float) if a < r0 and b < r1)
    area, prev_b = 0.0, r1
    for a, b in pts:
        if b < prev_b:
            area += (r0 - a) * (prev_b - b)
            prev_b = b
    return area


# -- per-workload constraints, re-expressed ---------------------------------------------
def constraint_problems(workload: str, x: Mapping[str, Any], p_max: int) -> List[str]:
    """Violations of the application's documented tuning-space constraints."""
    out = []

    def within(name, lo, hi):
        v = x[name]
        if not lo <= v <= hi:
            out.append(f"{name}={v} outside [{lo}, {hi}]")

    if workload == "pdgeqrf_lockstep":
        within("b", 4, 256)
        within("p", 2, p_max)
        within("p_r", 1, p_max)
        if not x["p_r"] <= x["p"]:
            out.append(f"p_r={x['p_r']} > p={x['p']}")
    elif workload == "superlu_mo_async":
        within("LOOK", 1, 20)
        within("p", 2, p_max)
        within("p_r", 1, p_max)
        within("NSUP", 8, 512)
        within("NREL", 1, 64)
        if not x["p_r"] <= x["p"]:
            out.append(f"p_r={x['p_r']} > p={x['p']}")
    elif workload == "hypre_sparse_async":
        within("p1", 1, p_max)
        within("p2", 1, p_max)
        within("strong_threshold", 0.05, 0.9)
        within("max_row_sum", 0.5, 1.0)
        if not x["p1"] * x["p2"] <= p_max:
            out.append(f"p1*p2={x['p1'] * x['p2']} > {p_max}")
    else:
        within("x", 0.0, 1.0)
    return out


def _key(x: Mapping[str, Any]) -> Tuple:
    return tuple(sorted((k, repr(v)) for k, v in x.items()))


def _same(fresh: Any, y: Sequence[float]) -> bool:
    return np.array_equal(np.atleast_1d(np.asarray(fresh, float)), np.asarray(y, float))


def check_campaign(workload: str, result, tasks, n_samples: int, checker_app,
                   p_max: int, drift: List[Dict[str, Any]]) -> List[str]:
    """Budget, uniqueness, constraints, fresh objective calls, incumbents.

    A record whose value is the fresh call at the round-tripped configuration
    but not at the recorded one is appended to ``drift`` rather than failed:
    that is the recorded-configuration fault named in the README, and it
    shows on some seeds only.  Every run prints the count, the traced run
    reports it as ``eval.recorded_config_drift`` and ``compare.py`` sets the
    counts of two result sets side by side, so a mend shows as zero.
    """
    probs: List[str] = []
    data = result.data
    tuning_space = checker_app.tuning_space()
    for i, task in enumerate(tasks):
        xs, ys = data.X[i], data.Y[i]
        where = f"task {i}"
        if len(xs) != n_samples:
            probs.append(f"{where}: {len(xs)} evaluations, budget {n_samples}")
        if len({_key(x) for x in xs}) != len(xs):
            probs.append(f"{where}: a configuration was evaluated twice")
        for x, y in zip(xs, ys):
            for p in constraint_problems(workload, x, p_max):
                probs.append(f"{where}: infeasible {dict(x)}: {p}")
            if not _same(checker_app.objective(dict(task), dict(x)), y):
                # the program evaluates the configuration after a round trip
                # through the tuning space but records the proposal; where
                # the two differ in the last bits the noise hash differs too
                evaluated = tuning_space.round_trip(x)
                if evaluated != dict(x) and _same(checker_app.objective(dict(task), evaluated), y):
                    drift.append(dict(x))
                else:
                    probs.append(f"{where}: recorded {list(y)} is not a fresh call at {dict(x)}")
            if workload == "analytical_history_service":
                # scalar math and numpy may round the last bit differently
                want = eq11(task["t"], x["x"])
                if abs(want - y[0]) > EQ11_RTOL * max(1.0, abs(want)):
                    probs.append(f"{where}: y={y[0]} != Eq. 11 {want}")
        first = [float(y[0]) for y in ys]
        if first and result.best(i)[1] != min(first):
            probs.append(f"{where}: incumbent {result.best(i)[1]} != record minimum {min(first)}")
    return probs


def check_front(result, task_index: int) -> List[str]:
    """The reported Pareto front equals this module's non-dominated filter."""
    Y = np.vstack(result.data.Y[task_index])
    mine = {tuple(r) for r in Y[non_dominated(Y)]}
    _, F = result.pareto_front(task_index)
    theirs = {tuple(r) for r in np.asarray(F)}
    if mine != theirs:
        return [f"task {task_index}: reported front {sorted(theirs)} != non-dominated {sorted(mine)}"]
    return []


def check_sparse_ran(result) -> List[str]:
    backends = {e.fields.get("backend") for e in result.events.of_kind("model-backend")}
    if "sparse-lcm" not in backends:
        return [f"model-backend events show {sorted(map(str, backends))}, not sparse-lcm"]
    return []


def check_checkpoint(path: str, result) -> List[str]:
    """The last checkpoint loads, through the program's loader and as plain
    JSON, and holds every evaluation of the campaign."""
    from repro.runtime.resilience import RunCheckpoint

    try:
        RunCheckpoint.load(path)
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as e:
        return [f"checkpoint {path} does not load: {e}"]
    probs = []
    for i in range(result.data.n_tasks):
        got = [(_key(x), [float(v) for v in y]) for x, y in zip(raw["X"][i], raw["Y"][i])]
        want = [(_key(x), [float(v) for v in y]) for x, y in zip(result.data.X[i], result.data.Y[i])]
        if got != want:
            probs.append(f"checkpoint task {i}: {len(got)} records differ from the {len(want)} evaluated")
    return probs


# -- archive reconciliation --------------------------------------------------------------
def _payload_key(task: Mapping[str, Any], x: Mapping[str, Any], y: Iterable[float]) -> str:
    return json.dumps(
        {"task": dict(task), "x": dict(x), "y": [float(v) for v in y]},
        sort_keys=True, separators=(",", ":"),
    )


def reconcile(expected: Sequence[Tuple[Mapping, Mapping, Sequence[float]]],
              archived: Sequence[Mapping[str, Any]], source: str) -> List[str]:
    """Every expected (task, x, y) appears in ``archived`` exactly once, and
    nothing else does."""
    want: Dict[str, int] = {}
    for t, x, y in expected:
        k = _payload_key(t, x, y)
        want[k] = want.get(k, 0) + 1
    got: Dict[str, int] = {}
    for rec in archived:
        k = _payload_key(rec["task"], rec["x"], rec["y"])
        got[k] = got.get(k, 0) + 1
    probs = []
    for k, n in want.items():
        if got.get(k, 0) != n:
            probs.append(f"{source}: record {k} archived {got.get(k, 0)} times, appended {n}")
    for k in got:
        if k not in want:
            probs.append(f"{source}: unexpected record {k}")
    return probs


def shard_records(root: str, problem: str) -> List[Dict[str, Any]]:
    """Parse a problem's archive straight from the store's JSONL shard."""
    slug = "".join(c if (c.isascii() and c.isalnum()) or c in "._-" else "%" + format(ord(c), "04x")
                   for c in problem)
    with open(os.path.join(root, slug + ".jsonl"), "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- quality ---------------------------------------------------------------------------
def hv_single(best: float, ideal: float, ref: float) -> float:
    """1-D normalised hypervolume: the share of [ideal, ref] that the best
    value dominates."""
    return max(0.0, ref - best) / (ref - ideal)
