"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 [--workloads NAME ...]

The spread is the distance between the first and third quartiles of the
per-seed values (statistics.quantiles, n=4), as a share of their median:
the measure BENCHMARK.json's bounds are set against. Runs go one after
another, each a separate run.py process, with run_seconds from
BENCHMARK.json. Raw results are appended to perfbench/out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)

    log = HERE / "out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    status = 0
    for workload in args.workloads:
        values: dict = {}
        shares = set()
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a", encoding="utf-8") as out:
                out.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: failed/attempted {sorted(shares)}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            print(f"  {name:<12} median {median:10.4f}  spread {(q3 - q1) / median:6.3f}"
                  f"  min {min(vals):.4f}  max {max(vals):.4f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
