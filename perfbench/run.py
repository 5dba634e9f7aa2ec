"""Campaign benchmark: run one workload, or all four, and print the metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pdgeqrf_lockstep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload prints its metrics, then as the last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``campaign_s``, ``peak_rss_mb``, ``best_geomean``, ``pareto_hv``); with
``--trace 1`` they are the per-layer split of a traced run.  ``--workload
all`` runs every workload both ways and prints one table per workload.
``--record FILE`` appends the result with its environment stamp to a JSONL
file that ``compare.py`` reads.

Every process the benchmark starts gets the repository's ``src`` on
``PYTHONPATH`` and no ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``, so the program's own BLAS default governs.  The exit
code is 0 when every output check passed, 1 when one failed, and 2 when the
run could not start (for instance outside a checkout of the repository).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from workloads import WORKLOADS, exit_on_sigterm, stop

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: timed cold starts per run; ``setup_s`` is their median
SETUP_PROBES = 5
#: wall-clock cap of one run, so a hung child cannot outlive it
RUN_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS + ("PYTHONDONTWRITEBYTECODE", "PYTHONHOME"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    return env


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """SHA-1 over the program's sources, for checkouts without git metadata."""
    h = hashlib.sha1()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _deadline_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time cap")
    return left


def fill_bytecode_cache(env: Dict[str, str], deadline: float) -> None:
    """Compile the program's and the benchmark's sources ahead of the timed
    cold starts (untimed; nearly free once the cache is full)."""
    proc = subprocess.Popen([sys.executable, "-m", "compileall", "-q", SRC, BENCH_DIR],
                            stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL, env=env,
                            cwd=ROOT)
    try:
        proc.wait(timeout=_deadline_left(deadline))
    except subprocess.TimeoutExpired as e:
        raise BenchError("compiling the sources exceeded the time cap") from e
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"compiling the sources failed (exit {proc.returncode})")


def probe(workload: str, work: str, env: Dict[str, str], deadline: float) -> Dict[str, float]:
    """One cold start; returns its wall time to ready and its import time."""
    os.makedirs(work, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "probe.py"), "--workload", workload,
         "--work", work],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, cwd=ROOT, text=True,
    )
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=_deadline_left(deadline))
    finally:
        stop(proc)
    if proc.returncode != 0 or not line.strip():
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return {"setup_s": setup_s, "import_s": float(json.loads(line)["import_s"])}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Run one workload once; returns the result object with its stamp."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources under {SRC}: run from a checkout of the repository")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = child_env()
    stamp: Dict[str, Any] = {
        "git_sha": git_sha(),
        "src_sha1": src_digest(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }
    work_root = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        fill_bytecode_cache(env, deadline)
        probes = [probe(workload, os.path.join(work_root, f"probe{i}"), env, deadline)
                  for i in range(SETUP_PROBES)]
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--work", os.path.join(work_root, "campaign")]
        if trace:
            traces = os.path.join(ROOT, ".perfbench", "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
        os.makedirs(os.path.join(work_root, "campaign"), exist_ok=True)
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        try:
            out, err = proc.communicate(timeout=_deadline_left(deadline))
        except subprocess.TimeoutExpired as e:
            raise BenchError("campaign run exceeded its time cap") from e
        finally:
            stop(proc)
        if proc.returncode != 0 or not out.strip():
            sys.stderr.write(err[-4000:])
            raise BenchError(f"campaign run failed (exit {proc.returncode})")
        res = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    stamp.update(res.pop("env"))
    if trace:
        res["metrics"]["startup.import_s"] = {
            "value": statistics.median(p["import_s"] for p in probes), "unit": "s"}
    else:
        res["metrics"]["setup_s"] = {
            "value": statistics.median(p["setup_s"] for p in probes), "unit": "s"}
    res["setup_probes_s"] = [p["setup_s"] for p in probes]
    res["env"] = stamp
    return res


def print_metrics(workload: str, res: Dict[str, Any]) -> None:
    print(f"== {workload}: {res['rounds']} round(s), attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {res['correct']}")
    # a count of the known recorded-configuration fault (README, Known faults)
    print(f"   recorded_config_drift {res['recorded_config_drift']} record(s)")
    for name in sorted(res["metrics"]):
        m = res["metrics"][name]
        print(f"   {name:28s} {m['value']:14.6g} {m['unit']}")
    for p in res["problems"]:
        print(f"   CHECK FAILED: {p}")
        print(f"perfbench: {workload}: check failed: {p}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None, help="append results to this JSONL file")
    args = ap.parse_args(argv)
    exit_on_sigterm()
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    ok = True
    last: Dict[str, Any] = {}
    for workload, trace in runs:
        try:
            res = run_one(workload, args.seed, args.seconds, trace)
        except BenchError as e:
            print(f"perfbench: {workload}: {e}", file=sys.stderr)
            return 2
        print_metrics(workload + (" (traced)" if trace else ""), res)
        print("env " + json.dumps(res["env"], sort_keys=True))
        if args.record:
            with open(args.record, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": args.seed, "trace": trace,
                                     "result": res}, sort_keys=True) + "\n")
        ok = ok and res["correct"]
        last = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    if args.workload != "all":
        print(json.dumps(last, sort_keys=True))
    if not ok:
        print("perfbench: an output check failed", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
