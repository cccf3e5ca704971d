"""entport benchmark: run one workload through ``entport.cli.main`` and print its metrics.

Usage (from the repository root)::

    python3 entbench/run.py --workload sweep|verify|curve --seed N --seconds S --trace 0|1

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics ``setup_s``, ``wall_s``, ``cpu_s`` and ``peak_rss_mib``;
with ``--trace 1`` it holds the per-layer metrics instead and the spans of
the last traced pass are written to ``entbench/runs/trace-<workload>.json``.
Everything a run writes stays under ``entbench/runs/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Every run ends within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "verify", "curve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "entport" / "cli.py").is_file():
        print(f"error: no entport sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    try:
        # On timeout, subprocess.run kills the worker and waits for it to end.
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_LIMIT_S, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}\n{exc.stderr or ''}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.splitlines()[-1])

    for msg in result["known"]:
        print(f"known fault: {msg}", file=sys.stderr)
    for msg in result["unexpected"]:
        print(f"FAILED: {msg}", file=sys.stderr)
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "cpu_s": {"value": result["cpu_s"], "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    print(f"{args.workload} seed={args.seed}: {result['rounds']} timed rounds, "
          f"{result.get('traced_rounds', 0)} traced rounds", file=sys.stderr)
    print(json.dumps({
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
