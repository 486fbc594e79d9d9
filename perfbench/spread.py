"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload kenum-deep --seeds 1-10 [--seconds 30]

For every metric it prints the median of the runs and the distance
between their first and third quartiles (statistics.quantiles, n=4) as a
share of the median; that share is what a metric's bound in
BENCHMARK.json must cover.  It also pools the query times of all runs
and reports the highest percentile that still has at least ten samples
beyond it.  Runs are untraced: only end-to-end metrics have bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("seed %d failed (exit %d):\n%s%s" % (seed, proc.returncode, proc.stdout, proc.stderr))
    return json.loads(lines[-2]), json.loads(lines[-1])


def pooled_tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    for workload in args.workload:
        values = {}
        units = {}
        samples = []
        for seed in args.seeds:
            start = time.monotonic()
            detail, result = run_once(workload, seed, args.seconds)
            wall = time.monotonic() - start
            samples += detail["samples"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(
                "  seed %d, %.1f s, load1 %.2f, spin %.1f ms: %s" % (
                    seed,
                    wall,
                    detail["machine"]["load1"],
                    detail["machine"]["spin_ms"],
                    " ".join("%s=%.4g" % (k, m["value"]) for k, m in result["metrics"].items()),
                ),
                file=sys.stderr,
            )
        print("%s: %d runs, seeds %s" % (workload, len(args.seeds), args.seeds))
        print("  %-40s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "spread"))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            print("  %-40s %12.6g %12.6g %12.6g %8.3f %s" % (name, med, q1, q3, share, units[name]))
        tail = pooled_tail(samples)
        if tail:
            print("  pooled query_s tail: %.6g s at p%.1f of %d query times" % (tail[0], tail[1], len(samples)))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
