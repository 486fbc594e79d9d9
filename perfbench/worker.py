"""Run one workload in this process and print its measurements as JSON.

run.py starts this script in a fresh process for every run, so that
peak RSS and set-up time belong to the workload alone.  The script
prints READY once numsgps is imported and the inputs are built; the
parent times process start to that line as set-up.  Then it runs the
closed loop and prints one JSON object as its last line.

Untraced (--trace 0): queries run back to back, each starting when the
previous one returns, in whole rounds until the timed query wall time
reaches --seconds.  Each output is checked right after its query,
outside the timed region.  Whole rounds keep the mix of queries the same
in every run.

Traced (--trace 1): whole rounds alternate, one untraced and one traced,
until --seconds have passed.  Per-layer figures are per traced round;
trace.overhead is traced round wall time over untraced round wall time.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

TAIL_QUANTILE = 0.9
PROCESS_START_SAMPLES = 3


def nearest_rank(sorted_values, q):
    """The q-quantile by nearest rank: the smallest value with at least a
    q share of the values at or below it."""
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


class Tally:
    """What a run's queries did: durations, outputs and failures."""

    def __init__(self):
        self.durations = []
        self.first_records = []
        self.semigroups = 0
        self.bytes_out = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, query):
        """Run one query, check it outside the timed region; returns its
        duration in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = query.call()
        except Exception as exc:  # a raising query is a failed query
            end = time.perf_counter()
            self.durations.append(end - start)
            self._fail(query, "raised %r" % exc)
            return end - start
        end = time.perf_counter()
        self.durations.append(end - start)
        try:
            problems = query.check(output)
        except Exception as exc:  # malformed output, e.g. a record that is not JSON
            problems = ["check raised %r" % exc]
        if problems:
            self._fail(query, "; ".join(problems))
        self.semigroups += query.semigroups(output)
        if hasattr(query, "bytes_out"):
            self.bytes_out += query.bytes_out(output)
        first = query.first_record_s(output, start, end)
        if first is not None:
            self.first_records.append(first)
        return end - start

    def run_round(self, queries):
        """Run every query once; returns the round's timed wall time."""
        return sum(self.run(q) for q in queries)

    def _fail(self, query, problem):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append("%s: %s" % (query.label, problem))

    def end_to_end(self):
        ordered = sorted(self.durations)
        return {
            "semigroups_per_s": (self.semigroups / sum(self.durations), "1/s"),
            "query_s.p50": (statistics.median(ordered), "s"),
            "query_s.tail": (nearest_rank(ordered, TAIL_QUANTILE), "s"),
            "first_record_s": (statistics.median(self.first_records), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        }


def run_untraced(queries, seconds):
    tally = Tally()
    timed = 0.0
    while timed < seconds or not tally.attempted:
        timed += tally.run_round(queries)
    return tally


def process_start_s():
    """Median wall time of `python -m numsgps.cli info --gens 3,5`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-m", "numsgps.cli", "info", "--gens", "3,5"]
    samples = []
    for _ in range(PROCESS_START_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def layer_metrics(tracer, rounds, untraced_wall, traced_wall, bytes_out):
    """Per-layer metrics, each per traced round, from a finished tracer."""
    totals = tracer.totals()
    counts = tracer.counts()
    out = {}
    for name in spans.SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        out[name + ".calls"] = (calls / rounds, "count")
        out[name + ".self_s"] = (self_s / rounds, "s")
    for name in spans.WAIT_SPAN_NAMES:
        out[name + "_s"] = (totals.get(name, (0, 0.0))[1] / rounds, "s")

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    out["trees.interval_level.yield_ratio"] = (
        ratio("trees.interval_level.members", "trees.interval_level.expanded"),
        "ratio",
    )
    out["trees.prune.kept_ratio"] = (ratio("trees.prune.kept", "trees.prune.tested"), "ratio")
    out["enumeration.roots"] = (counts["enumeration.roots"] / rounds, "count")
    out["util.map_ordered.items"] = (counts["util.map_ordered.items"] / rounds, "count")
    out["cli.bytes_out"] = (bytes_out / rounds, "bytes")
    out["oracle.population"] = (counts["oracle.population"] / rounds, "count")
    out["cli.process_start_s"] = (process_start_s(), "s")
    out["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
    return out


def run_traced(queries, seconds, spans_path=None):
    tally = Tally()
    tracer = spans.Tracer()
    untraced_wall = traced_wall = 0.0
    rounds = 0
    traced_bytes = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        untraced_wall += tally.run_round(queries)
        before = tally.bytes_out
        uninstall = spans.install(tracer)
        try:
            traced_wall += tally.run_round(queries)
        finally:
            uninstall()
        traced_bytes += tally.bytes_out - before
        rounds += 1
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
    return tally, layer_metrics(tracer, rounds, untraced_wall, traced_wall, traced_bytes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="stop after printing READY"
    )
    args = parser.parse_args(argv)

    queries = workloads.build_round(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        spans_path = ROOT / ".perfbench" / ("spans-%s-%d.tsv" % (args.workload, args.seed))
        tally, metrics = run_traced(queries, args.seconds, spans_path)
    else:
        tally = run_untraced(queries, args.seconds)
        metrics = tally.end_to_end()
    print(
        json.dumps(
            {
                "attempted": tally.attempted,
                "failed": tally.failed,
                "problems": tally.problems,
                "samples": tally.durations,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
