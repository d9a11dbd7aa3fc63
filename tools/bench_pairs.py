"""Paired parent/change runs of the lvset benchmark, written as one BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seed N --pairs 10 \
        --out BENCH_<pr>.json [--claim WORKLOAD:METRIC] [--traced-seed N] [--note TEXT]

DIR is the root of a checkout; the parent's must be a git checkout, whose
HEAD is recorded as the parent commit. Each side runs `python3
perfbench/run.py` from its own tree, so each measures its own sources, for
every workload of BENCHMARK.json at its run_seconds. In pair i the two sides
run one after the other, the parent first when i is even and the change
first when i is odd; within a pair index the workloads run in the order of
BENCHMARK.json.
For every workload and every end-to-end metric of BENCHMARK.json the file
records each side's median and quartiles, the ratio of the medians, the
pairs in which the change read lower and higher, and whether the change
median is within the metric's bound. Failed and attempted operations are
summed per side. --claim names a metric whose gain the change claims: the
file then says whether the change read better in at least 9 of 10 pairs
and whether the gap between the medians exceeds the parent's quartile
spread. --traced-seed adds one traced run (`--trace 1`) per side and
workload on that seed, and records its per-layer counts and ratios; those
repeat exactly from run to run, unlike the per-layer times, which are left
out. The machine, the Python and numpy versions, the seeds and every single
run are recorded too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


TRACED_SECONDS = 2


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs, {platform.system()} {platform.release()}"


def compare(runs: list, workload: str, metric: dict) -> dict:
    """One metric of one workload: both sides' medians and quartiles, paired
    wins and the bound test. `runs` holds every run of every side."""
    name, lower_is_better = metric["name"], metric["better"] == "lower"
    by_pair = {side: {r["pair"]: r[name] for r in runs
                      if r["side"] == side and r["workload"] == workload}
               for side in SIDES}
    pairs = sorted(set(by_pair["parent"]) & set(by_pair["change"]))
    (p1, pm, p3), (c1, cm, c3) = (quartiles([by_pair[s][i] for i in pairs]) for s in SIDES)
    lower = sum(by_pair["change"][i] < by_pair["parent"][i] for i in pairs)
    higher = sum(by_pair["change"][i] > by_pair["parent"][i] for i in pairs)
    worse = (cm - pm) if lower_is_better else (pm - cm)
    return {
        "parent_median": round(pm, 4), "change_median": round(cm, 4),
        "ratio": round(cm / pm, 3) if pm else None,
        "parent_q1_q3": [round(p1, 4), round(p3, 4)],
        "change_q1_q3": [round(c1, 4), round(c3, 4)],
        "parent_iqr_over_median": round((p3 - p1) / pm, 3) if pm else None,
        "change_lower_in_pairs": lower, "change_higher_in_pairs": higher,
        "bound": metric["bound"],
        "within_bound": worse <= metric["bound"] * pm,
        "spread_exceeds_bound": (p3 - p1) > metric["bound"] * pm,
    }


def claim_verdict(stats: dict, lower_is_better: bool, pairs: int) -> dict:
    won = stats["change_lower_in_pairs" if lower_is_better else "change_higher_in_pairs"]
    gap = stats["parent_median"] - stats["change_median"]
    if not lower_is_better:
        gap = -gap
    iqr = stats["parent_q1_q3"][1] - stats["parent_q1_q3"][0]
    return {"pairs_won": won, "pairs": pairs, "median_gap": round(gap, 4),
            "parent_iqr": round(iqr, 4),
            "holds": won >= 0.9 * pairs and gap > iqr}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--note", default="", help="what the change does")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    parent_commit = subprocess.run(["git", "-C", str(roots["parent"]), "rev-parse", "--short",
                                    "HEAD"], capture_output=True, text=True,
                                   check=True).stdout.strip()

    runs = []
    for pair in range(args.pairs):
        for workload in workloads:
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(roots[side], workload, args.seed, seconds)
                runs.append({"pair": pair, "side": side, "workload": workload,
                             "correct": result["correct"], "failed": result["failed"],
                             "attempted": result["attempted"],
                             **{m: v["value"] for m, v in result["metrics"].items()}})
                print(f"pair {pair} {workload} {side}: verdict_s "
                      f"{result['metrics']['verdict_s']['value']:.4f}", file=sys.stderr)

    traced = {}
    if args.traced_seed is not None:
        for workload in workloads:
            counts = {}
            for side in SIDES:
                result = run_once(roots[side], workload, args.traced_seed, TRACED_SECONDS,
                                  trace=1)
                counts[side] = {m: v["value"] for m, v in result["metrics"].items()
                                if v["unit"] != "s"}
            traced[workload] = {m: {s: counts[s][m] for s in SIDES} for m in counts["parent"]}

    end_to_end = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        doc = {"pairs": args.pairs}
        for key in ("failed", "attempted"):
            doc[f"{key}_ops"] = {s: sum(r[key] for r in mine if r["side"] == s) for s in SIDES}
        doc["correct"] = {s: all(r["correct"] for r in mine if r["side"] == s) for s in SIDES}
        for metric in spec["end_to_end"]:
            doc[metric["name"]] = compare(runs, workload, metric)
        end_to_end[workload] = doc

    claim = "none"
    if args.claim:
        workload, name = args.claim.split(":")
        metric = next(m for m in spec["end_to_end"] if m["name"] == name)
        claim = {"workload": workload, "metric": name,
                 **claim_verdict(end_to_end[workload][name], metric["better"] == "lower",
                                 args.pairs)}

    doc = {
        "change": args.note,
        "parent_commit": parent_commit,
        "machine": machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds} --trace 0",
        "protocol": (f"{args.pairs} pairs per workload on seed {args.seed}. In each pair "
                     "parent and change run one after the other, parent first in even "
                     "pairs and change first in odd ones; each side runs from its own "
                     f"tree; workloads in the order {', '.join(workloads)} within each "
                     "pair index. Quartiles: statistics.quantiles(n=4, method='inclusive')."),
        "seeds": [args.seed],
        "claim": claim,
        "end_to_end": end_to_end,
        "traced": traced and {
            "command": f"python3 perfbench/run.py --workload W --seed {args.traced_seed} "
                       f"--seconds {TRACED_SECONDS} --trace 1",
            "per_repetition": traced},
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
