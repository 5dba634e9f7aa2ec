"""The four campaign workloads and how one round of each is built and run.

A *round* is the unit the benchmark times: one GPTune campaign, or for
``analytical_history_service`` several back-to-back campaigns against one
tuning-history server.  Building a round (apps, problems, options,
schedulers) is untimed; :func:`execute` times only the calls a user waits
for, from the first ``tune`` call until the last one returns.

The workload seed never changes the tasks: each workload tunes a fixed task
set, and the seed picks the tuner seeds of the run's rounds.  Different
tasks would move ``best_geomean`` by orders of magnitude (PDGEQRF runtimes
span 128 to 40000 rows), hiding any change a later program makes.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

WORKLOADS = (
    "pdgeqrf_lockstep",
    "superlu_mo_async",
    "hypre_sparse_async",
    "analytical_history_service",
)

#: per-task evaluation budgets (epsilon_tot)
BUDGET = {
    "pdgeqrf_lockstep": 8,
    "superlu_mo_async": 8,
    "hypre_sparse_async": 10,
    "analytical_history_service": 8,
}

#: the PDGEQRF task draw: eight random (m, n) pairs, fixed once
PDGEQRF_TASK_SEED = 17
PDGEQRF_TASKS = 8
SUPERLU_MATRICES = ("Si2", "SiH4", "SiNa", "Na5")
HYPRE_TASKS = ({"n1": 20, "n2": 30, "n3": 16}, {"n1": 36, "n2": 12, "n3": 28})
HYPRE_INDUCING = 8
HYPRE_REFIT_INTERVAL = 3
#: Eq. 11 task pairs of the back-to-back service campaigns; t <= 2.5 keeps
#: every task's minimum positive, so a geometric mean is defined
SERVICE_CAMPAIGN_TASKS = ((0.5, 1.5), (1.0, 2.0), (0.25, 2.25))
SERVICE_QUERY_K = 2

#: heavy-tailed virtual durations of the async workloads: ~7% of
#: configurations take 50x the base time
TAIL_FRACTION, TAIL_FACTOR = 0.07, 50.0


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit``, so ``finally`` blocks stop the
    processes this one started before it ends."""
    import signal

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def sub_seed(seed: int, k: int) -> int:
    """Tuner seed of round ``k`` of a run started with ``seed``."""
    h = hashlib.blake2b(f"{seed}:{k}".encode(), digest_size=4)
    return int.from_bytes(h.digest(), "little")


def heavy_tail_duration(task: int, cfg: Dict[str, Any]) -> float:
    """Virtual seconds of one evaluation, a pure hash of (task, config)."""
    h = hashlib.blake2b(repr((int(task), sorted(cfg.items()))).encode(), digest_size=8)
    u = int.from_bytes(h.digest(), "little") / 2.0**64
    d = 1.0 + 2.0 * u
    return d * TAIL_FACTOR if u > 1.0 - TAIL_FRACTION else d


# -- applications ----------------------------------------------------------------
def make_app(workload: str):
    """A fresh application instance (fresh simulator caches)."""
    from repro.runtime import cori_haswell

    if workload == "pdgeqrf_lockstep":
        from repro.apps.scalapack import PDGEQRF

        return PDGEQRF(machine=cori_haswell(64), seed=0)
    if workload == "superlu_mo_async":
        from repro.apps.superlu import SuperLUDIST

        return SuperLUDIST(
            machine=cori_haswell(8),
            matrices=list(SUPERLU_MATRICES),
            objectives=("time", "memory"),
            scale=0.04,
            seed=0,
        )
    if workload == "hypre_sparse_async":
        from repro.apps.hypre import HypreApp

        return HypreApp(machine=cori_haswell(1), grid_range=(8, 40), solve_cap=512, seed=0)
    if workload == "analytical_history_service":
        from repro.apps.analytical import AnalyticalApp

        return AnalyticalApp()
    raise ValueError(f"unknown workload {workload!r}")


def tasks_of(workload: str, app=None) -> List[List[Dict[str, Any]]]:
    """Task lists of one round, one list per campaign."""
    if workload == "pdgeqrf_lockstep":
        app = app or make_app(workload)
        return [app.sample_tasks(PDGEQRF_TASKS, seed=PDGEQRF_TASK_SEED)]
    if workload == "superlu_mo_async":
        return [[{"matrix": m} for m in SUPERLU_MATRICES]]
    if workload == "hypre_sparse_async":
        return [[dict(t) for t in HYPRE_TASKS]]
    return [[{"t": t} for t in pair] for pair in SERVICE_CAMPAIGN_TASKS]


def options_of(workload: str, seed: int, telemetry: bool, checkpoint: Optional[str]):
    from repro.core import Options

    if workload == "pdgeqrf_lockstep":
        return Options(
            seed=seed, model_backend="exact-lcm", checkpoint_path=checkpoint,
            telemetry=telemetry,
        )
    if workload == "superlu_mo_async":
        return Options(
            seed=seed, async_eval=True, max_inflight=4, model_backend="exact-lcm",
            n_start=1, lbfgs_maxiter=60, nsga_pop=24, nsga_gens=12, pareto_batch=3,
            telemetry=telemetry,
        )
    if workload == "hypre_sparse_async":
        return Options(
            seed=seed, async_eval=True, max_inflight=2, model_backend="sparse-lcm",
            n_inducing=HYPRE_INDUCING, refit_interval=HYPRE_REFIT_INTERVAL,
            telemetry=telemetry,
        )
    return Options(seed=seed, telemetry=telemetry)


# -- the tuning-history server -------------------------------------------------------
def spawn_server(root: str):
    """Start ``repro serve`` on an ephemeral loopback port; returns the
    process at once (see :func:`server_url`)."""
    import importlib.util

    os.makedirs(root, exist_ok=True)
    # the server runs the sources this process imports repro from; finding
    # them does not import the package, so a set-up probe still times that
    src = os.path.dirname(os.path.dirname(importlib.util.find_spec("repro").origin))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=path)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--root", root, "--port", "0", "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
        env=env, text=True,
    )


def server_url(proc) -> str:
    """The URL a spawned server prints once it listens (blocks until then)."""
    line = proc.stdout.readline()
    if "http://" not in line:
        stop(proc)
        raise RuntimeError(f"tuning-history server did not start: {line!r}")
    return line[line.index("http://"):].split()[0]


def start_server(root: str):
    """Spawn a server and wait until it accepts connections: ``(proc, url)``."""
    proc = spawn_server(root)
    url = server_url(proc)
    wait_accepting(url)
    return proc, url


def wait_accepting(url: str, timeout: float = 30.0) -> None:
    """Block until the server at ``url`` accepts a TCP connection."""
    import socket
    import urllib.parse

    split = urllib.parse.urlsplit(url)
    deadline = time.monotonic() + timeout
    while True:
        try:
            socket.create_connection((split.hostname, split.port), timeout=1.0).close()
            return
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def stop(proc) -> None:
    """Ask a child process to stop (the benchmark's own children stop theirs
    on SIGTERM), make sure it has ended, and close its pipes."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for pipe in (proc.stdout, proc.stderr):
        if pipe is not None:
            pipe.close()


# -- one round ----------------------------------------------------------------------
@dataclass
class Round:
    """Everything one timed round needs, built before the clock starts."""

    n_samples: int
    campaigns: List[Dict[str, Any]] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)
    #: per campaign: nearest-task query answers (service workload only)
    queries: List[Any] = field(default_factory=list)
    problem_name: Optional[str] = None


def build(workload: str) -> Any:
    """Import and construct what a campaign needs: the ready-to-tune state
    a set-up probe times.  Returns the application."""
    app = make_app(workload)
    app.problem()
    tasks_of(workload, app)
    options_of(workload, 0, False, None)
    return app


def prepare(workload: str, seed: int, k: int, work_dir: str, telemetry: bool,
            client=None) -> Round:
    """Build round ``k`` of a run (untimed)."""
    from repro.core import GPTune
    from repro.core.problem import TuningProblem
    from repro.runtime.async_engine import SimScheduler
    from repro.runtime.simclock import SimClock

    s = sub_seed(seed, k)
    rnd = Round(BUDGET[workload])
    checkpoint = None
    if workload == "pdgeqrf_lockstep":
        checkpoint = os.path.join(work_dir, f"round{k}.ck.json")
    if workload == "analytical_history_service":
        # each round archives under its own problem name, so every round
        # reads and writes an archive of the same size
        rnd.problem_name = f"analytical-r{k}"
    for j, tasks in enumerate(tasks_of(workload)):
        app = make_app(workload)
        problem = app.problem()
        if rnd.problem_name is not None:
            problem = TuningProblem(
                task_space=app.task_space(), tuning_space=app.tuning_space(),
                objective=app.objective, name=rnd.problem_name,
            )
        opts = options_of(workload, s + j, telemetry, checkpoint)
        scheduler = None
        if opts.async_eval:
            scheduler = SimScheduler(heavy_tail_duration, clock=SimClock())
        tuner = GPTune(problem, opts, history=client, scheduler=scheduler)
        rnd.campaigns.append(
            {"app": app, "problem": problem, "tasks": tasks, "tuner": tuner,
             "checkpoint": checkpoint}
        )
    return rnd


def execute(rnd: Round, client=None) -> float:
    """Run the round; returns its campaign seconds.

    For the service workload each campaign first asks the archive for the
    nearest archived tasks of each of its tasks; the clock covers those
    queries, the archive read at ``tune`` start and every append.
    """
    total = 0.0
    for c in rnd.campaigns:
        t0 = time.perf_counter()
        if client is not None:
            rnd.queries.append(
                [client.query(rnd.problem_name, t, k=SERVICE_QUERY_K) for t in c["tasks"]]
            )
        rnd.results.append(c["tuner"].tune(c["tasks"], rnd.n_samples))
        total += time.perf_counter() - t0
    return total
