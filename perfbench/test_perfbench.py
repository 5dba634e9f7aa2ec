"""Fast tests of the campaign benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import verify  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


# -- Pareto and hypervolume helpers -------------------------------------------------
def test_non_dominated_matches_hand_front():
    F = np.array([[1.0, 5.0], [2.0, 3.0], [3.0, 4.0], [4.0, 1.0], [2.0, 3.0], [5.0, 5.0]])
    # (3,4) is dominated by (2,3); (5,5) by everything; the duplicate (2,3)
    # rows do not dominate each other
    assert verify.non_dominated(F).tolist() == [True, True, False, True, True, False]


def test_hypervolume_matches_hand_area():
    F = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
    # staircase below (4, 4): 3x1 + 2x1 + 1x1 ... slabs of height 1
    assert verify.hypervolume_2d(F, (4.0, 4.0)) == pytest.approx(3.0 + 2.0 + 1.0)
    # a dominated point and a point outside the box change nothing
    more = np.vstack([F, [[3.0, 3.0], [5.0, 0.5]]])
    assert verify.hypervolume_2d(more, (4.0, 4.0)) == pytest.approx(6.0)
    assert verify.hypervolume_2d(np.array([[0.0, 0.0]]), (2.0, 3.0)) == pytest.approx(6.0)


def test_hv_single_is_share_of_reference_interval():
    assert verify.hv_single(1.0, 0.0, 4.0) == pytest.approx(0.75)
    assert verify.hv_single(5.0, 0.0, 4.0) == 0.0


def test_eq11_scan_bounds_the_program_function():
    from repro.apps.analytical import analytical_function

    lo, hi = verify.eq11_scan(1.5, n=20_001)
    xs = np.linspace(0, 1, 1001)
    ys = analytical_function(1.5, xs)
    assert lo <= ys.min() and hi >= ys.max() - 1e-9
    assert verify.eq11(1.5, 0.3) == pytest.approx(float(analytical_function(1.5, 0.3)), rel=1e-12)


# -- archive reconciliation ----------------------------------------------------------
def _records():
    return [
        ({"t": 0.5}, {"x": 0.25}, [1.5]),
        ({"t": 0.5}, {"x": 0.75}, [0.9]),
        ({"t": 1.0}, {"x": 0.25}, [1.1]),
    ]


def test_reconcile_accepts_exact_archive():
    archived = [{"task": t, "x": x, "y": y, "rid": str(i)} for i, (t, x, y) in enumerate(_records())]
    assert verify.reconcile(_records(), archived, "test") == []


def test_reconcile_catches_duplicate():
    archived = [{"task": t, "x": x, "y": y} for t, x, y in _records()]
    archived.append(dict(archived[1]))
    probs = verify.reconcile(_records(), archived, "test")
    assert len(probs) == 1 and "archived 2 times" in probs[0]


def test_reconcile_catches_dropped_and_changed_records():
    archived = [{"task": t, "x": x, "y": y} for t, x, y in _records()[:2]]
    probs = verify.reconcile(_records(), archived, "test")
    assert len(probs) == 1 and "archived 0 times" in probs[0]
    archived = [{"task": t, "x": x, "y": y} for t, x, y in _records()]
    archived[0]["y"] = [1.25]
    assert len(verify.reconcile(_records(), archived, "test")) == 2


# -- each workload end to end, tiny ----------------------------------------------------
TINY_BUDGET = {
    "pdgeqrf_lockstep": 4,
    "superlu_mo_async": 4,
    "hypre_sparse_async": 6,
    "analytical_history_service": 4,
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_round_passes_its_checks(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.BUDGET, workload, TINY_BUDGET[workload])
    server = client = url = None
    root = str(tmp_path / "archive")
    if workload == "analytical_history_service":
        from repro.service.client import ServiceClient

        server, url = workloads.start_server(root)
        client = ServiceClient(url, pool_size=1)
    try:
        app = workloads.make_app(workload)
        refs = worker.references(workload, app)
        rnd = workloads.prepare(workload, 7, 0, str(tmp_path), False, client)
        assert workloads.execute(rnd, client) > 0
        drift = []
        assert worker.check_round(workload, rnd, app, refs, root, url, drift) == []
        q = worker.round_quality(workload, rnd, refs)
        assert all(b > 0 for b in q["best"])
        assert all(0 <= h <= 1 for h in q["hv"]) and sum(q["hv"]) > 0
    finally:
        if client is not None:
            client.close()
        if server is not None:
            workloads.stop(server)


def test_traced_round_partitions_campaign_time(tmp_path, monkeypatch):
    from layers import SELF_TIME_METRIC, LayerTracer

    monkeypatch.setitem(workloads.BUDGET, "pdgeqrf_lockstep", 4)
    tracer = LayerTracer().install()
    try:
        rnd = workloads.prepare("pdgeqrf_lockstep", 7, 0, str(tmp_path), True)
        tracer.take()
        dur = workloads.execute(rnd)
        taken = tracer.take()
    finally:
        tracer.uninstall()
    m = worker.layer_metrics(taken, dur, worker.telemetry_phases(rnd.results[0]), {})
    assert all(v >= 0 for v in m.values())
    assert m["lcm.fit_calls"] > 0 and m["eval.calls"] == 8 * 4
    assert m["checkpoint.writes"] > 0 and m["space.feasible_points"] > 0
    self_s = sum(m[name] for name in set(SELF_TIME_METRIC.values()))
    assert self_s + m["mla.unattributed_s"] == pytest.approx(dur)


def test_run_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pdgeqrf_lockstep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
