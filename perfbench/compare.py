"""Compare two result sets of the campaign benchmark.

A result set is the JSONL file that ``run.py --record FILE`` appends to,
one line per run.  With one file this prints each workload's end-to-end
medians, quartiles and spread; with two it also gives a verdict per
workload and end-to-end metric against the bound in ``BENCHMARK.json``, then
the per-layer deltas of the traced runs::

    python3 perfbench/compare.py base.jsonl
    python3 perfbench/compare.py base.jsonl change.jsonl

Verdicts, with A the base and B the change:

* ``better`` -- B's median beats A's by more than A's own quartile spread;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's quartile spread is wider than the bound,
  unless every run of B beats every run of A;
* ``no worse`` -- otherwise.

Under each workload's rows come, for each set, the median share of failed
operations and the count of records that met the recorded-configuration
fault (see the README's *Known faults*); a mend of that fault reads 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> Dict[Tuple[str, int], List[Dict[str, Any]]]:
    """Runs grouped by (workload, trace)."""
    out: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.setdefault((rec["workload"], int(rec["trace"])), []).append(rec["result"])
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not beats_all:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(a) or beats_all:
        return "better"
    return "no worse"


def values(runs: List[Dict[str, Any]], name: str) -> List[float]:
    return [float(r["metrics"][name]["value"]) for r in runs if name in r["metrics"]]


def count_of(run: Dict[str, Any], key: str) -> float:
    """Failed operations as a share of those attempted, or the count of
    records that met the recorded-configuration fault."""
    if key == "failed":
        return run["failed"] / run["attempted"]
    return float(run.get(key, 0))


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    sets = [load(p) for p in argv]
    a = sets[0]
    b = sets[1] if len(sets) == 2 else None
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'workload':28s} {'metric':14s} {'A median':>12s} {'A q1..q3':>23s}"
          f" {'A spr':>6s}" + ("" if b is None else
                               f" {'B median':>12s} {'B q1..q3':>23s} {'B spr':>6s}  verdict"))
    for w in workloads:
        for m in bench["end_to_end"]:
            va = values(a.get((w, 0), []), m["name"])
            if not va:
                continue
            q1, med, q3 = quartiles(va)
            row = (f"{w:28s} {m['name']:14s} {med:12.5g} {q1:11.5g}..{q3:<11.5g}"
                   f" {spread(va):6.3f}")
            if b is not None:
                vb = values(b.get((w, 0), []), m["name"])
                if vb:
                    bq1, bmed, bq3 = quartiles(vb)
                    row += (f" {bmed:12.5g} {bq1:11.5g}..{bq3:<11.5g} {spread(vb):6.3f}  "
                            + verdict(va, vb, m["better"], float(m["bound"])))
            print(row)
        for label, key in (("failed share", "failed"), ("config drift", "recorded_config_drift")):
            row = ""
            for side in [a] + ([b] if b is not None else []):
                runs = side.get((w, 0), [])
                if runs:
                    share = [count_of(r, key) for r in runs]
                    row += f" {statistics.median(share):12.5g} (total {sum(share):g} in {len(runs)} runs)"
            if row:
                print(f"{w:28s} {label:14s}{row}")
    if b is None:
        return 0
    print("\nper-layer medians of the traced runs (A -> B)")
    for w in workloads:
        ra, rb = a.get((w, 1), []), b.get((w, 1), [])
        if not ra or not rb:
            continue
        for m in bench["per_layer"]:
            va, vb = values(ra, m["name"]), values(rb, m["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            if ma == 0 and mb == 0:
                continue
            delta = f"{100.0 * (mb - ma) / abs(ma):+7.1f}%" if ma else "    new"
            print(f"{w:28s} {m['name']:26s} {ma:12.5g} -> {mb:12.5g} {delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
