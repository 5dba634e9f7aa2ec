"""Set-up probe: one cold start from interpreter launch to ready-to-tune.

``run.py`` starts this script in a fresh interpreter and times it from the
launch until the ``ready`` line arrives.  The probe imports ``repro.cli``,
builds the workload's application, problem and options, and on the service
workload starts ``repro serve`` at launch and waits until it accepts
connections.  The ``ready`` line also carries the import time alone.  The
probe then stops its server and exits; that shutdown is not timed.
"""

import argparse
import json
import os
import sys
import time

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--work", required=True, help="scratch directory of this probe")
    args = ap.parse_args(argv)
    workloads.exit_on_sigterm()
    server = None
    if args.workload == "analytical_history_service":
        server = workloads.spawn_server(os.path.join(args.work, "archive"))
    try:
        t0 = time.perf_counter()
        import repro.cli  # noqa: F401 - the import a campaign pays

        import_s = time.perf_counter() - t0
        workloads.build(args.workload)
        if server is not None:
            workloads.wait_accepting(workloads.server_url(server))
        print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    finally:
        if server is not None:
            workloads.stop(server)
    return 0


if __name__ == "__main__":
    sys.exit(main())
