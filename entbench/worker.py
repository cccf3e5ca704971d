"""One measuring process: imports entport, runs rounds of a workload, prints a JSON result.

Started by ``run.py``.  A round is one call of ``entport.cli.main`` on the
workload's arguments, timed, followed by the untimed output checks.  One
uncounted pass comes first, so that lazy set-up is done and the verify
workload has its determinism reference.
With ``--trace 1`` the process measures untraced rounds for half the time,
then installs the tracer and measures traced rounds for the other half.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS


#: Run outputs and trace files; nothing is written elsewhere.
RUNS = Path(__file__).resolve().parent / "runs"

#: Fresh interpreters timed after each round of an untraced run, for setup_s.
#: Spread over the run rather than timed in one burst, they sample the same
#: drift in machine speed as the passes do.
SETUP_PROBES_PER_ROUND = 2

SETUP_PROBE = "import entport.cli, time; print(time.monotonic())"


def time_setup() -> float:
    """Seconds from starting a fresh interpreter to entport.cli being imported."""
    start = time.monotonic()
    probe = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True,
                           text=True, check=True, timeout=60)
    return float(probe.stdout) - start


def run_rounds(main, workload, out: str, seconds: float, tracer: Tracer | None,
               setup_probes: int = 0):
    walls, cpus, setups, traces = [], [], [], []
    attempted, failures = 0, []
    deadline = time.monotonic() + seconds
    while True:
        argv = workload.argv(out)
        if tracer:
            tracer.start()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        rc = main(argv)
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        if tracer:
            traces.append(tracer.stop())
        n, failed = workload.check(rc, out)
        attempted += n
        failures += failed
        setups += [time_setup() for _ in range(setup_probes)]
        if time.monotonic() >= deadline:
            return walls, cpus, setups, traces, attempted, failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    from entport import cli

    workload = WORKLOADS[args.workload](args.seed)
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        out = os.path.join(tmp, "output")
        workload.check(cli.main(workload.argv(out)), out)

        phase = args.seconds / 2 if args.trace else args.seconds
        walls, cpus, setups, _, attempted, failures = run_rounds(
            cli.main, workload, out, phase, None, 0 if args.trace else SETUP_PROBES_PER_ROUND)
        result = {
            "setup_s": statistics.median(setups) if setups else None,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "rounds": len(walls),
        }
        if args.trace:
            tracer = Tracer()
            tracer.install()
            # cli.main is looked up again, so that it is the traced wrapper.
            t_walls, _, _, traces, n, failed = run_rounds(cli.main, workload, out, phase, tracer)
            attempted += n
            failures += failed
            result["traced_rounds"] = len(t_walls)
            result["layers"] = layer_metrics(
                traces, workload.items, os.path.getsize(out),
                statistics.median(t_walls) - result["wall_s"])
            with open(RUNS / f"trace-{args.workload}.json", "w") as handle:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, handle)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result.update(
        attempted=attempted,
        failed=len(failures),
        unexpected=[msg for known, msg in failures if not known][:20],
        known=sorted({msg for known, msg in failures if known}),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
