"""lvset benchmark: one workload, one seed, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload runs in a child process
(worker.py) whose environment fixes PYTHONHASHSEED and sets the OpenMP and
BLAS thread counts to 1. A cold set-up runs from just before such a process
starts until its inputs are built, so it covers interpreter start,
`import lvset` and the input build. setup_s is the median of COLD_SETUPS
cold set-ups: COLD_SETUPS - 1 processes that only set up and exit, then the
workload's own process. The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170
COLD_SETUPS = 5
FIXED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class WorkerError(Exception):
    pass


def run_worker(cmd, deadline: float):
    """Runs one worker process; returns its JSON result and its cold set-up
    time, from just before the process starts until its inputs are built."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env={**os.environ, **FIXED_ENV}, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - start, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"ran past {DEADLINE_S} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["setup_end"] - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lvset" / "__init__.py").is_file():
        print(f"perfbench: no lvset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(COLD_SETUPS - 1):
                result, setup_s = run_worker(cmd + ["--setup-only"], deadline)
                setups.append(setup_s)
        result, setup_s = run_worker(cmd, deadline)
        setups.append(setup_s)
    except WorkerError as err:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
