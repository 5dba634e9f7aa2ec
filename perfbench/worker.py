"""One benchmark run of one workload, in its own process.

Started by ``run.py`` with the repository's ``src`` on ``PYTHONPATH`` and
the BLAS thread variables removed from its environment.  It runs whole
rounds of the workload until ``--seconds`` of wall time are used (at least
``MIN_ROUNDS``), checks every round's outputs, and prints one JSON object:
the end-to-end metrics (``--trace 0``) or the per-layer split (``--trace 1``),
with the counts of attempted and failed operations and the environment it
ran in.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import urllib.request
from typing import Any, Dict, List

import numpy as np

import verify
import workloads
from layers import SELF_TIME_METRIC, LayerTracer, per_layer_spec
from workloads import WORKLOADS

#: every run completes at least this many rounds; the end-to-end metrics
#: come from exactly these rounds, so their work depends on the seed alone
MIN_ROUNDS = 4


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop (median of three), kept in the
    environment stamp as a record of the machine's speed at start."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for j in range(100_000):
            s += j * j
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- environment ---------------------------------------------------------------------
def blas_stamp() -> List[Dict[str, Any]]:
    """Every OpenBLAS loaded into this process: library, config, threads."""
    import ctypes

    import scipy.linalg  # noqa: F401 - loads scipy's BLAS next to numpy's

    libs = []
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path not in libs:
                libs.append(path)
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry: Dict[str, Any] = {"library": os.path.basename(path)}
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                entry["threads"] = int(get_threads())
                entry["config"] = get_config().decode("utf-8", "replace").strip()
                break
        out.append(entry)
    return out


def env_stamp() -> Dict[str, Any]:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_stamp(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "calibration_s": calibrate(),
    }


# -- quality references ---------------------------------------------------------------
def references(workload: str, checker_app) -> List[Any]:
    """Fixed per-task hypervolume references, computed from the application
    (never from the tuner): ``(ideal, ref)`` per task."""
    refs = []
    for task in [t for c in workloads.tasks_of(workload) for t in c]:
        if workload == "analytical_history_service":
            refs.append(verify.eq11_scan(task["t"]))
            continue
        y = checker_app.objective(task, checker_app.default_config(task))
        if workload == "superlu_mo_async":
            refs.append((0.0, [verify.HV_REF_FACTOR * float(v) for v in y]))
        else:
            refs.append((0.0, verify.HV_REF_FACTOR * float(y)))
    return refs


def round_quality(workload: str, rnd, refs) -> Dict[str, List[float]]:
    """Per-task best first objective and normalised hypervolume."""
    best, hv = [], []
    refs_of = iter(refs)
    for res in rnd.results:
        for i in range(res.data.n_tasks):
            ideal, ref = next(refs_of)
            Y = np.vstack(res.data.Y[i])
            best.append(float(Y[:, 0].min()))
            if workload == "superlu_mo_async":
                hv.append(verify.hypervolume_2d(Y, ref) / (ref[0] * ref[1]))
            else:
                hv.append(verify.hv_single(best[-1], ideal, ref))
    return {"best": best, "hv": hv}


def check_round(workload: str, rnd, checker_app, refs, server_root, url,
                drift: List[Dict[str, Any]]) -> List[str]:
    p_max = getattr(checker_app, "p_max", 1)
    probs: List[str] = []
    for c, res in zip(rnd.campaigns, rnd.results):
        probs += verify.check_campaign(workload, res, c["tasks"], rnd.n_samples, checker_app,
                                       p_max, drift)
        if workload == "superlu_mo_async":
            for i in range(res.data.n_tasks):
                probs += verify.check_front(res, i)
        if workload == "hypre_sparse_async":
            probs += verify.check_sparse_ran(res)
        if c["checkpoint"] is not None:
            probs += verify.check_checkpoint(c["checkpoint"], res)
    if workload == "analytical_history_service":
        tasks = [t for c in rnd.campaigns for t in c["tasks"]]
        lows = [lo for lo, _ in refs]
        for t, lo, best in zip(tasks, lows, round_quality(workload, rnd, refs)["best"]):
            if best < lo - 1e-9 * max(1.0, abs(lo)):
                probs.append(f"t={t['t']}: incumbent {best} below the dense-scan minimum {lo}")
        expected = [
            (res.data.tasks[i], x, y)
            for res in rnd.results
            for i in range(res.data.n_tasks)
            for x, y in zip(res.data.X[i], res.data.Y[i])
        ]
        from repro.service.client import ServiceClient

        fresh = ServiceClient(url, pool_size=1)
        try:
            probs += verify.reconcile(expected, fresh.records(rnd.problem_name), "fresh client")
        finally:
            fresh.close()
        probs += verify.reconcile(
            expected, verify.shard_records(server_root, rnd.problem_name), "shard file")
        archived: List[Dict[str, Any]] = []
        for answers, c in zip(rnd.queries, rnd.campaigns):
            for task, matches in zip(c["tasks"], answers):
                want = min(workloads.SERVICE_QUERY_K, len(archived))
                if len(matches) != want or any(m["task"] not in archived for m in matches):
                    probs.append(f"query for {task}: {len(matches)} match(es), want {want} "
                                 f"among the archived tasks {archived}")
                if any(len(m["records"]) != rnd.n_samples for m in matches):
                    probs.append(f"query for {task}: a match does not hold its task's budget")
            archived += c["tasks"]
    return probs


# -- server metrics ----------------------------------------------------------------------
def scrape(url: str) -> Dict[str, float]:
    """Sum the server's Prometheus samples by metric name, leaving out the
    scrapes themselves."""
    with urllib.request.urlopen(url + "/metrics", timeout=10) as resp:
        text = resp.read().decode("utf-8")
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or 'endpoint="metrics"' in line:
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        out[name] = out.get(name, 0.0) + float(value)
    return out


def telemetry_phases(result) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for e in result.events.events:
        if e.kind == "span":
            name, dur = e.fields.get("name", ""), float(e.fields.get("dur_s", 0.0))
        elif e.kind == "span-summary":
            name, dur = e.fields.get("name", ""), float(e.fields.get("total_s", 0.0))
        else:
            continue
        if name.startswith("phase."):
            key = f"telemetry.{name[len('phase.'):]}_s"
            out[key] = out.get(key, 0.0) + dur
    return out


def _nearest_rank(values: List[float], q: float) -> float:
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)] if v else 0.0


def layer_metrics(taken: Dict[str, Any], campaign_s: float, result_phases: Dict[str, float],
                  server: Dict[str, float]) -> Dict[str, float]:
    """One traced round's per-layer split; ``server`` holds the round's
    change in the server's metrics."""
    m = {name: 0.0 for name, _ in per_layer_spec()}
    for layer, s in taken["self_s"].items():
        m[SELF_TIME_METRIC[layer]] += s
    for key, n in taken["counts"].items():
        m[key] += n
    req = taken["request_s"]
    m["service.request_p50_ms"] = 1e3 * _nearest_rank(req, 0.5)
    m["service.request_p90_ms"] = 1e3 * _nearest_rank(req, 0.9)
    m["trace.campaign_s"] = campaign_s
    m["mla.unattributed_s"] = campaign_s - sum(taken["self_s"].values())
    m.update({k: v for k, v in result_phases.items() if k in m})
    flushes = server.get("repro_service_commits_total", 0.0)
    m["service.server_requests"] = server.get("repro_http_requests_total", 0.0)
    m["service.flushes"] = flushes
    m["service.records_per_flush"] = (
        server.get("repro_service_committed_records_total", 0.0) / flushes if flushes else 0.0)
    m["service.flush_s"] = server.get("repro_service_flush_seconds_sum", 0.0)
    return m


# -- the run -------------------------------------------------------------------------------
def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(args, tracer, client, url, server_root: str) -> Dict[str, Any]:
    """Run and check whole rounds until the time budget is used."""
    w = args.workload
    checker_app = refs = None
    out: Dict[str, Any] = {"durations": [], "best": [], "hv": [], "problems": [],
                           "drift": [], "traced": [], "attempted": 0, "failed": 0}
    t_begin = time.perf_counter()
    k = 0
    while True:
        rnd = None  # let the last round go before the next is built
        rnd = workloads.prepare(w, args.seed, k, args.work, tracer is not None, client)
        if tracer:
            before = scrape(url) if url else {}
            tracer.take()
        dur = workloads.execute(rnd, client)
        if checker_app is None:
            # the campaign's own peak: nothing of the checks has run yet
            out["peak_rss_mb"] = max_rss_mb()
            checker_app = workloads.make_app(w)
            refs = references(w, checker_app)
        if tracer:
            taken = tracer.take()
            after = scrape(url) if url else {}
            server_delta = {key: after[key] - before.get(key, 0.0) for key in after}
            phases: Dict[str, float] = {}
            for res in rnd.results:
                for key, v in telemetry_phases(res).items():
                    phases[key] = phases.get(key, 0.0) + v
            out["traced"].append(layer_metrics(taken, dur, phases, server_delta))
        out["durations"].append(dur)
        drift: List[Dict[str, Any]] = []
        probs = check_round(w, rnd, checker_app, refs, server_root, url, drift)
        out["problems"] += [f"round {k}: {p}" for p in probs]
        out["drift"] += drift
        if tracer:
            out["traced"][-1]["eval.recorded_config_drift"] = float(len(drift))
        if k < MIN_ROUNDS:
            q = round_quality(w, rnd, refs)
            out["best"] += q["best"]
            out["hv"] += q["hv"]
        for res in rnd.results:
            # one evaluation each, plus one archive append on the service workload
            out["attempted"] += sum(len(xs) for xs in res.data.X) * (2 if client else 1)
            out["failed"] += int(res.stats.get("n_eval_failures", 0))
        k += 1
        elapsed = time.perf_counter() - t_begin
        if k >= MIN_ROUNDS and elapsed * (k + 1) / k > args.seconds:
            return out


def end_to_end(runs: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """``campaign_s`` is the median wall time of the first ``MIN_ROUNDS``
    rounds; ``peak_rss_mb`` the peak resident memory up to the end of the
    first round, before any check ran in this process."""
    return {
        "campaign_s": {"value": statistics.median(runs["durations"][:MIN_ROUNDS]),
                       "unit": "s"},
        "peak_rss_mb": {"value": runs["peak_rss_mb"], "unit": "MB"},
        "best_geomean": {"value": math.exp(statistics.fmean(math.log(b) for b in runs["best"])),
                         "unit": "objective"},
        "pareto_hv": {"value": statistics.fmean(runs["hv"]), "unit": "ratio"},
    }


def per_layer(runs: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per-round means of the traced split (``startup.import_s`` comes from
    the set-up probes)."""
    traced = runs["traced"]
    return {name: {"value": statistics.fmean(r[name] for r in traced), "unit": unit}
            for name, unit in per_layer_spec() if name in traced[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="scratch directory of this run")
    ap.add_argument("--trace-out", default=None, help="write the traced rounds here")
    args = ap.parse_args(argv)
    workloads.exit_on_sigterm()
    stamp = env_stamp()

    server = client = url = tracer = None
    server_root = os.path.join(args.work, "archive")
    try:
        if args.workload == "analytical_history_service":
            from repro.service.client import ServiceClient

            server, url = workloads.start_server(server_root)
            client = ServiceClient(url, pool_size=1)
        if args.trace:
            tracer = LayerTracer().install()
        runs = run_rounds(args, tracer, client, url, server_root)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if client is not None:
            client.close()
        if server is not None:
            workloads.stop(server)
    problems = runs["problems"]
    if tracer is None:
        metrics = end_to_end(runs)
    else:
        metrics = per_layer(runs)
        if tracer.off_thread:
            problems.append(f"{tracer.off_thread} layer call(s) ran off the traced thread")
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "rounds": runs["traced"]}, fh, indent=1, sort_keys=True)
    out = {
        "correct": not problems,
        "attempted": runs["attempted"],
        "failed": runs["failed"],
        "metrics": metrics,
        "rounds": len(runs["durations"]),
        "round_s": runs["durations"],
        "final_rss_mb": max_rss_mb(),
        "problems": problems[:20],
        "recorded_config_drift": len(runs["drift"]),
        "env": stamp,
    }
    print(json.dumps(out, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
