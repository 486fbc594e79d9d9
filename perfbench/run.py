"""numsgps benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload kenum-deep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  Each workload runs in a fresh worker
process (perfbench/worker.py).  Set-up time is measured here, from
starting a worker to its READY line, over several workers started before
and after the measuring one; the median is reported.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
nonzero when any output check failed or the run could not be made.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Worker starts per run: the measuring worker plus set-up-only workers,
# half before it and half after, so that set-up is timed across the same
# stretch of the machine's speed as the rest of the run.
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170  # a run must end within 180 s


def spin_ms():
    """Median wall time of a fixed pure-Python loop.  The load average of
    a virtual machine does not show contention on its host; this does."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i % 7
        samples.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(samples)


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "load1": os.getloadavg()[0],
        "spin_ms": spin_ms(),
    }


class RunFailed(Exception):
    pass


def _worker_cmd(workload, seed, seconds, trace, setup_only=False):
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return cmd + ["--setup-only"] if setup_only else cmd


def _start(cmd, deadline):
    """Start a worker; returns (process, seconds until its READY line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise RunFailed("worker did not get ready")
    return proc, ready


def _finish(proc, deadline):
    """Wait for a worker to end; returns its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker ran past the time limit")
    return out


def _setup_only(workload, seed, deadline):
    proc, ready = _start(_worker_cmd(workload, seed, 0, 0, True), deadline)
    _finish(proc, deadline)
    if proc.returncode != 0:
        raise RunFailed("set-up failed with exit code %d" % proc.returncode)
    return ready


def run_workload(workload, seed, seconds, trace):
    """One run: the measuring worker with set-up samples around it.
    Returns the worker's report with setup_s added to the end-to-end
    metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    extra = 0 if trace else SETUP_SAMPLES - 1
    setups = [_setup_only(workload, seed, deadline) for _ in range(extra // 2)]
    proc, ready = _start(_worker_cmd(workload, seed, seconds, trace), deadline)
    setups.append(ready)
    out = _finish(proc, deadline)
    setups += [_setup_only(workload, seed, deadline) for _ in range(extra - extra // 2)]
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed("worker exited with code %d and no report" % proc.returncode)
    report = json.loads(lines[-1])
    if not trace:
        report["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return report


def describe(workload, seed, report, machine):
    print("workload %s  seed %d  machine %s" % (workload, seed, json.dumps(machine)))
    for name, metric in report["metrics"].items():
        print("  %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    samples = report["samples"]
    print(
        "  %-40s %14.6g ratio  (%d failed of %d queries)"
        % ("error_rate", report["failed"] / report["attempted"], report["failed"],
           report["attempted"])
    )
    if "query_s.tail" in report["metrics"]:
        beyond = sum(1 for s in samples if s > report["metrics"]["query_s.tail"]["value"])
        print("  query_s.tail is the p90 of %d query times; %d lie beyond it" % (len(samples), beyond))
    for problem in report["problems"]:
        print("  FAILED %s" % problem)
    print(json.dumps({"workload": workload, "seed": seed, "machine": machine,
                      "samples": samples}))


def main(argv=None):
    if not (ROOT / "src" / "numsgps" / "__init__.py").is_file():
        print("error: no numsgps sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numsgps, so only once the sources are known to exist

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    machine = machine_facts()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, args.trace)
        except RunFailed as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 2
        describe(name, args.seed, report, machine)
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        prefix = name + "." if len(names) > 1 else ""
        for metric, value in report["metrics"].items():
            result["metrics"][prefix + metric] = value
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
