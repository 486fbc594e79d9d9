"""Tests of the benchmark's own accounting: span self time, the stdout
sink, output checks and how a failed check reaches the exit code.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numsgps
import numsgps.enumeration
import numsgps.trees
import pytest

import spans
import worker
import workloads


def scripted_clock():
    """A clock that reads from a per-thread list of times."""
    local = threading.local()

    def clock():
        return local.times.pop(0)

    return local, clock


def totals_by_name(tracer):
    return {name: (calls, round(self_s, 9)) for name, (calls, self_s) in tracer.totals().items()}


def test_self_time_subtracts_nested_children():
    local, clock = scripted_clock()
    local.times = [0.0, 2.0, 3.0, 4.0, 5.0, 10.0]
    tracer = spans.Tracer(clock)

    def outer():
        tracer.call("inner", lambda: tracer.call("leaf", lambda: None))

    tracer.call("outer", outer)
    assert totals_by_name(tracer) == {
        "outer": (1, 7.0),  # [0, 10] minus inner's [2, 5]
        "inner": (1, 2.0),  # [2, 5] minus leaf's [3, 4]
        "leaf": (1, 1.0),
    }


def test_self_time_counts_overlapping_children_from_two_threads_once():
    local, clock = scripted_clock()
    local.times = [0.0, 10.0]
    tracer = spans.Tracer(clock)
    barrier = threading.Barrier(2, timeout=10)

    def child(times):
        barrier.wait()  # both tasks hold a pool thread at once
        local.times = list(times)
        tracer.call("child", lambda: None)

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(tracer.adopt(child), t) for t in ((1.0, 6.0), (3.0, 8.0))]
            for future in futures:
                future.result(timeout=10)

    tracer.call("outer", outer)
    # the children cover [1, 8] together: 7 s, not 5 + 5
    assert totals_by_name(tracer) == {"outer": (1, 3.0), "child": (2, 10.0)}


def test_covered_length_clips_and_merges():
    assert spans.covered_length([(1, 6), (3, 8), (9, 12)], 0, 10) == 8
    assert spans.covered_length([], 0, 10) == 0


def test_sink_times_first_nonempty_write_and_counts_bytes():
    times = iter([5.0, 6.0])
    sink = workloads.Sink(clock=lambda: next(times))
    sink.write("")
    assert sink.first_write_at is None
    sink.write("hé")  # two characters, three bytes in UTF-8
    sink.write("\n")
    assert sink.first_write_at == 5.0
    assert sink.bytes == 4
    assert sink.getvalue() == "hé\n"


def test_cli_first_record_is_measured_from_the_call():
    k, f = 2, 11
    query = workloads.CliCall(
        "text", ["ksemigroups", "--l", str(k), "--frobenius", str(f)], k=k, frobenius=f, expected=11
    )
    output = query.call()
    first = query.first_record_s(output, 0.0, None)
    assert first == output[1].first_write_at > 0
    assert query.check(output) == []
    assert query.bytes_out(output) == len(output[1].getvalue())


def test_info_check_accepts_the_real_record_and_rejects_a_wrong_genus():
    gens = [101, 157, 199, 241]
    query = workloads.CliCall("info", ["info", "--json", "--gens", "101,157,199,241"], gens=gens)
    code, sink = query.call()
    assert query.check((code, sink)) == []
    record = json.loads(sink.getvalue())
    record["genus"] += 1
    bad = workloads.Sink()
    bad.write(json.dumps(record) + "\n")
    assert "g + n != F + 1" in query.check((0, bad))


def test_json_check_rejects_generators_of_another_semigroup():
    k, f = 2, 11
    argv = ["ksemigroups", "--json", "--l", str(k), "--frobenius", str(f)]
    query = workloads.CliCall("json", argv, k=k, frobenius=f, expected=11)
    code, sink = query.call()
    assert query.check((code, sink)) == []
    records = [json.loads(line) for line in sink.getvalue().splitlines()]
    records[0]["min_generators"] = records[1]["min_generators"]
    bad = workloads.Sink()
    bad.write("".join(json.dumps(r) + "\n" for r in records))
    assert "min_generators span another semigroup" in query.check((0, bad))


def test_apery_set_gives_the_frobenius_number():
    assert workloads.frobenius_of([3, 5]) == 7
    assert workloads.frobenius_of([5, 7, 9, 11]) == 13


def drop_one_member(real):
    """An enumerate_k_semigroups that loses one member but keeps its
    counts consistent, so only the pinned count can notice."""

    def broken(request, threads=1):
        result = real(request, threads=threads)
        first = result.groups[0]
        group = numsgps.EnumerationGroup(first.root, first.members[1:], first.count - 1)
        return numsgps.EnumerationResult(True, (group,) + result.groups[1:], result.total - 1)

    return broken


def small_round(monkeypatch):
    """Make every workload one cheap enumeration: K=4, F=15 has 42 members."""
    monkeypatch.setattr(
        workloads, "build_round", lambda workload, seed: [workloads.Enumerate(4, 15, 2, 42)]
    )


def run_worker(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = worker.main(["--workload", "kenum-deep", "--seconds", "0", *argv])
    return code, json.loads(out.getvalue().splitlines()[-1])


def test_dropped_member_counts_in_error_rate_and_fails_the_command(monkeypatch):
    small_round(monkeypatch)
    monkeypatch.setattr(numsgps, "enumerate_k_semigroups", drop_one_member(numsgps.enumerate_k_semigroups))
    code, report = run_worker()
    assert code == 1
    assert report["attempted"] == report["failed"] == 1
    assert "pinned" in report["problems"][0]


def test_every_seed_draws_pinned_inputs():
    for seed in range(20):
        for query in workloads.build_round("kenum-deep", seed):
            assert query.expected == workloads.PINNED_COUNTS[query.k, query.frobenius]


def test_install_traces_every_lookup_name_and_uninstall_restores_them():
    tracer = spans.Tracer()
    level = numsgps.trees.interval_level
    prop = numsgps.NumericalSemigroup.__dict__["minimal_generators"]
    func = prop.func
    uninstall = spans.install(tracer)
    try:
        assert numsgps.enumeration.interval_level is numsgps.trees.interval_level
        assert numsgps.enumeration.interval_level is not level
        result = numsgps.enumerate_k_semigroups(numsgps.EnumerationRequest(4, 15), threads=2)
        s = result.groups[0].members[0]
        s.minimal_generators
        before = tracer.totals()["core.minimal_generators"][0]
        s.minimal_generators  # a cached read is not a computation
        assert tracer.totals()["core.minimal_generators"][0] == before
    finally:
        uninstall()
    assert numsgps.enumeration.interval_level is level
    assert numsgps.NumericalSemigroup.__dict__["minimal_generators"] is prop
    assert isinstance(prop, cached_property)
    assert prop.func is func
    assert isinstance(prop.lock, type(threading.RLock()))
    totals = tracer.totals()
    counts = tracer.counts()
    assert set(totals) <= set(spans.SPAN_NAMES + spans.WAIT_SPAN_NAMES)
    # every computation took the property's lock first
    assert totals["core.minimal_generators.wait"][0] >= totals["core.minimal_generators"][0] > 0
    assert totals["enumeration.enumerate_k_semigroups"][0] == 1
    assert totals["trees.interval_level"][0] == counts["enumeration.roots"] == len(result.groups)
    assert counts["trees.interval_level.members"] == result.total
    assert counts["util.map_ordered.items"] >= len(result.groups)
    assert counts["trees.prune.tested"] >= counts["trees.prune.kept"] == len(result.groups)


def test_tail_is_the_nearest_rank_p90():
    values = sorted(range(1, 21))
    assert worker.nearest_rank(values, 0.9) == 18
    assert worker.nearest_rank([7], 0.9) == 7


@pytest.mark.parametrize("workload", ["kenum-deep", "cli-records"])
def test_the_seed_decides_the_round(workload):
    def labels(seed):
        return [q.label for q in workloads.build_round(workload, seed)]

    assert labels(3) == labels(3)
    assert any(labels(seed) != labels(0) for seed in range(1, 4))


def benchmark_names(section):
    path = worker.ROOT / "BENCHMARK.json"
    return {m["name"] for m in json.loads(path.read_text())[section]}


@pytest.mark.parametrize("trace", [0, 1])
def test_worker_reports_exactly_the_metrics_benchmark_json_lists(monkeypatch, trace):
    small_round(monkeypatch)
    code, report = run_worker("--trace", str(trace))
    assert code == 0 and report["failed"] == 0
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    if trace:
        assert set(metrics) == benchmark_names("per_layer")
        assert metrics["trees.interval_level.calls"] > 0
    else:
        # run.py adds setup_s, measured from outside the worker
        assert set(metrics) | {"setup_s"} == benchmark_names("end_to_end")
        assert all(value > 0 for value in metrics.values())
