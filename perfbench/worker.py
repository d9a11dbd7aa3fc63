"""Run one workload in this process: set-up, timed repetitions, checks.

Started by run.py with PYTHONHASHSEED and the BLAS/OpenMP thread counts
fixed. Prints one JSON line; run.py turns it into the benchmark's result.

--setup-only: import lvset, build the inputs, print when that ended and
exit; run.py times such processes as extra cold set-ups.

Untraced (--trace 0): repetitions run until their timed sections add up
to --seconds (at least MIN_REPS of them). Every repetition after the first
rebuilds its inputs, untimed, so no state held by lvset objects carries
over. The first repetition's outputs are checked in full; each later one
must give the same outputs. verdict_s and cpu_s are medians over the
repetitions; peak_rss_mb is read right after the first timed section,
before any check runs.

Traced (--trace 1): untraced repetitions for half of --seconds, then one
repetition, input build included, with every lvset layer wrapped by the
tracer. Prints the per-layer metrics and writes the spans to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
MIN_TRACED_MODE_REPS = 2


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def canonical(summary) -> list:
    return [json.dumps(item, sort_keys=True) for item in summary]


class Repetitions:
    """Times repetitions and checks their outputs against the first one."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.wall: list = []
        self.cpu: list = []
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.peak_rss_mb = None
        self._reference = None  # (canonical summary, failed checks) of rep 1

    def timed(self, inputs):
        gc.collect()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        outputs = self.workload.run(inputs)
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        return outputs, t1 - t0, c1 - c0

    def record(self, inputs, outputs):
        """Checks one repetition's outputs; returns per-operation failures."""
        wl = self.workload
        summary = canonical(wl.summary(inputs, outputs))
        if self._reference is None:
            bad = wl.judge(inputs, outputs, wl.observe(inputs, outputs))
            self._reference = (summary, bad)
        else:
            ref_summary, ref_bad = self._reference
            bad = [set(b) | (set() if s == r else {"differs-from-first"})
                   for s, r, b in zip(summary, ref_summary, ref_bad)]
            if len(summary) != len(ref_summary):
                bad.append({"operation-count"})
        self.attempted += len(bad)
        for i, b in enumerate(bad):
            if b:
                self.failed += 1
                self.wrong = True
                print(f"{wl.name}: operation {i} failed checks {sorted(b)}", file=sys.stderr)
        return bad

    def run(self, inputs, budget_s: float, min_reps: int):
        while len(self.wall) < min_reps or sum(self.wall) < budget_s:
            if self.wall:
                inputs = self.workload.build(self.seed)
            outputs, wall, cpu = self.timed(inputs)
            if self.peak_rss_mb is None:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.wall.append(wall)
            self.cpu.append(cpu)
            self.record(inputs, outputs)
            del outputs


def load_lvset():
    """Imports lvset from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lvset
    if not Path(lvset.__file__).resolve().is_relative_to(src):
        raise ImportError(f"lvset was imported from {lvset.__file__}, not from {src}")
    return lvset


def traced_repetition(workload, seed: int, reps: Repetitions):
    from tracer import Tracer
    tracer = Tracer()
    gc.collect()
    tracer.install()
    try:
        inputs = workload.build(seed)
        t0 = time.perf_counter()
        outputs = workload.run(inputs)
        verdict_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    reps.record(inputs, outputs)
    return tracer, verdict_s


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    load_lvset()
    workload = WORKLOADS[args.workload]()
    inputs = workload.build(args.seed)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    reps = Repetitions(workload, args.seed)
    try:
        if not args.trace:
            reps.run(inputs, args.seconds, MIN_REPS)
            metrics = {
                "verdict_s": {"value": statistics.median(reps.wall), "unit": "s"},
                "cpu_s": {"value": statistics.median(reps.cpu), "unit": "s"},
                "peak_rss_mb": {"value": reps.peak_rss_mb, "unit": "MB"},
            }
        else:
            reps.run(inputs, args.seconds / 2, MIN_TRACED_MODE_REPS)
            tracer, traced_s = traced_repetition(workload, args.seed, reps)
            metrics = tracer.layer_metrics(traced_s - statistics.median(reps.wall))
            tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv")
    except Exception:
        traceback.print_exc()
        return 1
    print(f"{args.workload}: repetitions {[round(w, 4) for w in reps.wall]} s",
          file=sys.stderr)
    print(json.dumps({
        "setup_end": setup_end,
        "correct": not reps.wrong,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "repetitions": len(reps.wall),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
