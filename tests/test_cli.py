from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import numsgps.cli
import numsgps.trees
from numsgps import all_with_frobenius, classify
from numsgps.cli import main, semigroup_record
from support import SRC_ENV, count_calls, plant_flipped_flag, python, sg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# info


def test_info_text(capsys):
    code, out, err = run(capsys, "info", "--gens", "5,7,9,11")
    assert code == 0
    assert err == ""
    assert "S = <5,7,9,11>" in out
    assert "frobenius: 13" in out
    assert "l: 0" in out
    assert "symmetric: true" in out


def test_info_json(capsys):
    code, out, err = run(capsys, "info", "--gens", "5,7,9,11", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["frobenius"] == 13
    assert record["genus"] == 7
    assert record["l"] == 0
    assert record["multiplicity"] == 5
    assert record["embedding_dimension"] == 4
    assert record["type"] == 1
    assert record["min_generators"] == [5, 7, 9, 11]
    assert record["gaps"] == [1, 2, 3, 4, 6, 8, 13]
    assert record["pseudo_frobenius"] == [13]
    assert record["flags"] == {
        "symmetric": True,
        "pseudo_symmetric": False,
        "irreducible": True,
    }


def test_info_naturals(capsys):
    code, out, err = run(capsys, "info", "--gens", "1", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["frobenius"] == -1
    assert record["gaps"] == []
    assert record["pseudo_frobenius"] == [-1]
    assert record["type"] == 1
    assert record["flags"]["symmetric"] is True
    assert record["flags"]["irreducible"] is True


def test_info_gcd_error_exits_two(capsys):
    code, out, err = run(capsys, "info", "--gens", "2,4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_info_over_the_window_bound_exits_two():
    # 2 * 4001 * 4003 bits is just over core.MAX_CLOSURE_WINDOW
    proc = python("-m", "numsgps.cli", "info", "--gens", "4001,4003", timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: closure window")


@pytest.mark.parametrize(
    "argv",
    [
        ("irreducibles", "--frobenius", "1000000000000000"),
        ("ksemigroups", "--l", "1", "--frobenius", "1000000000000000"),
    ],
)
def test_frobenius_over_the_table_bound_exits_two(argv):
    proc = python("-m", "numsgps.cli", *argv, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: bit table F + 2 = 1000000000000002")


def test_bad_generator_text_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["info", "--gens", "a,b"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["info"])
    assert exc.value.code == 2


def test_record_round_trips_through_generators():
    for s in (sg(5, 7, 9, 11), sg(4, 6, 9), sg(3, 13, 17)):
        record = semigroup_record(s)
        again = semigroup_record(sg(*record["min_generators"]))
        assert again == record


# ----------------------------------------------------------------------
# irreducibles


def test_irreducibles_f11(capsys):
    code, out, err = run(capsys, "irreducibles", "--frobenius", "11")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert lines[0].endswith("<6,7,8,9,10>\t-")


def test_irreducibles_f11_pruned(capsys):
    code, out, err = run(
        capsys, "irreducibles", "--frobenius", "11", "--min-delta", "3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3


def test_irreducibles_f1(capsys):
    code, out, err = run(capsys, "irreducibles", "--frobenius", "1", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 1
    assert records[0]["min_generators"] == [2, 3]


def test_irreducibles_rejects_negative_min_delta(capsys):
    code, out, err = run(
        capsys, "irreducibles", "--frobenius", "3", "--min-delta", "-2"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "-2" in err


def test_irreducibles_rejects_low_frobenius(capsys):
    code, out, err = run(capsys, "irreducibles", "--frobenius", "0")
    assert code == 2
    assert err.startswith("error:")


def test_irreducibles_json_parent_fields(capsys):
    code, out, err = run(capsys, "irreducibles", "--frobenius", "11", "--json")
    records = [json.loads(line) for line in out.strip().split("\n")]
    by_gens = {tuple(r["min_generators"]): r for r in records}
    assert by_gens[(6, 7, 8, 9, 10)]["parent"] is None
    assert by_gens[(4, 6, 9)]["parent"] == [6, 7, 8, 9, 10]
    assert by_gens[(4, 6, 9)]["edge_label"] == 7
    assert by_gens[(2, 13)]["parent"] == [4, 6, 9]
    assert by_gens[(2, 13)]["edge_label"] == 9
    assert by_gens[(3, 7)]["parent"] == [6, 7, 8, 9, 10]


def test_irreducibles_dot(capsys, tmp_path):
    target = tmp_path / "tree.dot"
    code, out, err = run(
        capsys, "irreducibles", "--frobenius", "11", "--dot", str(target)
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph {")
    assert '"4,6,9" -> "6,7,8,9,10" [label="7"];' in text
    assert '"2,13" -> "4,6,9" [label="9"];' in text
    assert text.count("->") == 5


# ----------------------------------------------------------------------
# interval-tree


def test_interval_tree_f13(capsys):
    code, out, err = run(capsys, "interval-tree", "--gens", "5,7,9,11")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 12


def test_interval_tree_level_three(capsys):
    code, out, err = run(
        capsys, "interval-tree", "--gens", "5,7,9,11", "--level", "3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3


def test_interval_tree_level_golden(capsys):
    code, out, err = run(
        capsys, "interval-tree", "--gens", "4,6,9", "--level", "3"
    )
    assert code == 0
    assert out.strip() == "<4,13,14,15>"


def test_interval_tree_rejects_negative_level(capsys):
    code, out, err = run(
        capsys, "interval-tree", "--gens", "5,7,9,11", "--level", "-1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_interval_tree_rejects_reducible(capsys):
    code, out, err = run(capsys, "interval-tree", "--gens", "7,8,9,11,12")
    assert code == 2
    assert err.startswith("error:")


def test_interval_tree_dot(capsys, tmp_path):
    target = tmp_path / "tree.dot"
    code, out, err = run(
        capsys, "interval-tree", "--gens", "5,7,9,11", "--dot", str(target)
    )
    assert code == 0
    text = target.read_text()
    assert text.count("->") == 11
    assert '"5,14,16,17,18" -> "5,12,14,16,18" [label="12"];' in text


def test_interval_tree_level_with_dot_is_usage_error(capsys, tmp_path):
    target = tmp_path / "level.dot"
    argv = ["interval-tree", "--gens", "5,7,9,11", "--level", "2"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--dot", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dot" in captured.err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("irreducibles", "--frobenius", "2"),
        ("interval-tree", "--gens", "5,7,9,11"),
    ],
)
def test_unwritable_dot_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "tree.dot"
    code, out, err = run(capsys, *argv, "--dot", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert str(target) in err
    assert len(err.strip().split("\n")) == 1
    assert not target.exists()


# ----------------------------------------------------------------------
# ksemigroups


def test_ksemigroups_text_grouping(capsys):
    code, out, err = run(capsys, "ksemigroups", "--l", "6", "--frobenius", "11")
    assert code == 0
    lines = out.strip().split("\n")
    headers = [line for line in lines if line.startswith("#")]
    members = [line for line in lines if not line.startswith("#")]
    assert len(members) == 12
    assert "# D(<6,7,8,9,10>) 10" in headers
    assert "# D(<4,6,9>) 1" in headers
    assert "# D(<5,7,8,9>) 1" in headers
    assert "<4,13,14,15>" in members
    assert "<5,12,13,14,16>" in members


def test_ksemigroups_count(capsys):
    code, out, err = run(
        capsys, "ksemigroups", "--l", "6", "--frobenius", "11", "--count"
    )
    assert code == 0
    assert out.strip() == "12"


def test_ksemigroups_count_symmetric(capsys):
    code, out, err = run(
        capsys, "ksemigroups", "--l", "0", "--frobenius", "11", "--count"
    )
    assert code == 0
    assert out.strip() == "6"


def test_ksemigroups_count_json(capsys):
    code, out, err = run(
        capsys, "ksemigroups", "--l", "6", "--frobenius", "11", "--count", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["total"] == 12
    assert {"root": [4, 6, 9], "count": 1} in record["groups"]


def test_ksemigroups_json_records_carry_root(capsys):
    code, out, err = run(
        capsys, "ksemigroups", "--l", "6", "--frobenius", "11", "--json"
    )
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 12
    assert {tuple(r["root"]) for r in records} == {
        (6, 7, 8, 9, 10),
        (4, 6, 9),
        (5, 7, 8, 9),
    }
    for r in records:
        assert r["l"] == 6
        assert r["frobenius"] == 11


def test_ksemigroups_infeasible_parity(capsys):
    code, out, err = run(capsys, "ksemigroups", "--l", "6", "--frobenius", "10")
    assert code == 0
    assert out == ""
    assert "infeasible: K+F even" in err


def test_ksemigroups_infeasible_size(capsys):
    code, out, err = run(capsys, "ksemigroups", "--l", "8", "--frobenius", "7")
    assert code == 0
    assert out == ""
    assert "infeasible: F < K+1" in err


def test_ksemigroups_budget(capsys):
    code, out, err = run(
        capsys,
        "ksemigroups", "--l", "6", "--frobenius", "11", "--max-work", "2",
    )
    assert code == 2
    assert err.startswith("error:")


def test_ksemigroups_budget_stops_a_threshold_zero_walk_quickly():
    # K <= 1 prunes nothing, so the walk computes no theta surplus; level 1
    # of the irreducible tree of F = 100,000 holds about 50,000 nodes
    argv = ("ksemigroups", "--l", "1", "--frobenius", "100000", "--count")
    start = time.perf_counter()
    proc = python("-m", "numsgps.cli", *argv, "--max-work", "10", timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert proc.stderr == b"error: work budget of 10 expanded nodes exhausted\n"


def test_ksemigroups_budget_stops_a_pruned_walk_quickly():
    # K = 2 tests every child of C(F) for surplus; the budget stops those
    # tests at the eleventh kept child, not after all 12,500 of level 1
    argv = ("ksemigroups", "--l", "2", "--frobenius", "25001", "--count")
    start = time.perf_counter()
    proc = python("-m", "numsgps.cli", *argv, "--max-work", "10", timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert proc.stderr == b"error: work budget of 10 expanded nodes exhausted\n"


def test_ksemigroups_count_walks_no_slice():
    # 372,475 members over the roots of F = 41, counted without a walk
    argv = ("ksemigroups", "--l", "20", "--frobenius", "41", "--count")
    start = time.perf_counter()
    proc = python("-m", "numsgps.cli", *argv, timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 0
    assert proc.stdout == b"372475\n"


def test_ksemigroups_negative_budget_is_an_error(capsys):
    code, out, err = run(
        capsys,
        "ksemigroups", "--l", "6", "--frobenius", "11", "--max-work", "-5",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "-5" in err and "exhausted" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # a bad K, W or N is refused even where (K, F) is infeasible
        (("--l", "6", "--frobenius", "10", "--max-work", "-5"),
         "error: max_work must be >= 0, got -5\n"),
        (("--l", "-1", "--frobenius", "4"), "error: k must be >= 0, got -1\n"),
        (("--l", "6", "--frobenius", "10", "--threads", "0"),
         "numsgps ksemigroups: error: argument --threads: "
         "expected an integer N >= 1, got '0'\n"),
    ],
)
def test_ksemigroups_checks_inputs_before_feasibility(capsys, argv, message):
    try:
        code = main(["ksemigroups", *argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith(message)
    assert "infeasible" not in captured.err


def _text_groups(out):
    # (header, member lines) per "# D(...) n" header, in listing order
    groups = []
    for line in out.splitlines():
        if line.startswith("# D("):
            groups.append((line, []))
        else:
            groups[-1][1].append(line)
    return groups


@pytest.mark.parametrize("budget", [0, 3000, 7000, 10762])
def test_ksemigroups_budget_leaves_whole_groups(capsys, budget):
    # K=10 F=31 expands 10,763 nodes; the first of its 63 groups holds
    # 3,003 members
    argv = ("ksemigroups", "--l", "10", "--frobenius", "31")
    full = _text_groups(_capture(capsys, *argv))
    code, out, err = run(capsys, *argv, "--max-work", str(budget))
    assert code == 2
    assert err == "error: work budget of %d expanded nodes exhausted\n" % budget
    printed = _text_groups(out)
    assert printed == full[: len(printed)]
    for header, members in printed:
        assert int(header.rsplit(" ", 1)[1]) == len(members)
    if budget == 3000:
        assert len(printed) == 1 and len(printed[0][1]) == 3003
        assert out.count("\n") == 3004


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_closed_pipe_stops_after_the_first_group(monkeypatch, mode):
    # the first write fails: one slice walk is started, and it expands at
    # most the K/2 nodes on the path to its first member
    walks = count_calls(monkeypatch, numsgps.cli, "iter_interval_level")
    expanded = count_calls(monkeypatch, numsgps.trees, "interval_children")
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["ksemigroups", *mode, "--l", "10", "--frobenius", "31"]) == 141
    assert len(walks) == 1
    assert len(expanded) <= 10 // 2


# ----------------------------------------------------------------------
# verify


def test_verify_clean(capsys):
    code, out, err = run(capsys, "verify", "--max-frobenius", "6")
    assert code == 0
    assert out.startswith("ok:")


def test_verify_reports_a_planted_fault(capsys, monkeypatch):
    plant_flipped_flag(monkeypatch, "ursy", sg(3, 5, 7))
    code, out, err = run(capsys, "verify", "--max-frobenius", "6")
    assert code == 1
    assert err == ""
    assert out.splitlines() == [
        "MISMATCH gens=3,5,7 op=ursy expected=False actual=True"
    ]


def test_verify_bound(capsys):
    code, out, err = run(capsys, "verify", "--max-frobenius", "99")
    assert code == 2
    assert err.startswith("error:")


# ----------------------------------------------------------------------
# the record path


def test_record_flags_match_classify():
    # records read their flags off l alone; classify is the full report
    population = [sg(1)]
    for f in range(1, 17):
        population.extend(all_with_frobenius(f))
    for s in population:
        report = classify(s)
        assert semigroup_record(s)["flags"] == {
            "symmetric": report.symmetric,
            "pseudo_symmetric": report.pseudo_symmetric,
            "irreducible": report.irreducible,
        }


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("info", "--gens", "399,400", "--json"),
            "35c5187df60f6eb086f56ecdef4d5a5e65032fff5ff1efbe432e99c6c9fe751a",
        ),
        (
            ("ksemigroups", "--json", "--l", "6", "--frobenius", "27"),
            "305aba7fde7dc02ed18a7207411f48bf93729aac3df263d510c78ea66d08893f",
        ),
        (
            # 9,510 members under 63 "# D(...)" headers, in listing order
            ("ksemigroups", "--l", "10", "--frobenius", "31"),
            "e5cc233cbab024c5717f4c439db818da16a6b9841c0aeb030037bd79e052e437",
        ),
        (
            ("info", "--gens", "5,7,9,11"),
            "714c2cf552f7f7f82c5fd11553b2d83d4e700db07144964af7275cfca1a4dd19",
        ),
        (
            ("irreducibles", "--frobenius", "17"),
            "2ec5e04513f0d1d522dd91b4545264a5d2ea699eceecee59862d5f6f01fb8342",
        ),
        (
            ("irreducibles", "--frobenius", "21", "--min-delta", "4", "--json"),
            "6ebdd9f646e5dfee0da0d8d2585f4a0fe664dd0506ceead2bf13f3b9d81516f6",
        ),
        (
            ("interval-tree", "--gens", "5,7,9,11"),
            "4847e25730a7843eeca8fe17b26847bcb80a195ff733d58fedd9b5eb16d434ff",
        ),
        (
            ("interval-tree", "--gens", "5,7,9,11", "--json"),
            "d595058af2d5ced753da1783fa7b20de2cec9c778cd43d22241b2e4458a7969e",
        ),
        (
            ("interval-tree", "--gens", "6,7,8,9,10", "--level", "2", "--json"),
            "815dae33bbe1bc87ccbbfce380d6ecfdb97e30fc46793b9a180952420016111a",
        ),
        (
            ("ksemigroups", "--l", "6", "--frobenius", "17", "--count", "--json"),
            "40a58b8953e20949e78af559e70a30f48f4b15f0814169d94415a8b4efc165cd",
        ),
        (
            # 420 nodes, in tree order
            ("irreducibles", "--frobenius", "41"),
            "077d63d1dec7a4ae6ca79dfcd1a83f20082308597ce0aac2949b3c610617d75b",
        ),
        (
            # 576 nodes, height 10
            ("interval-tree", "--gens", "10,13,14,16,17,18,19,21,22"),
            "3cccd7576821b40d4e58fdfc9861b892023a978548fe77f15967d865b875090c",
        ),
    ],
)
def test_record_output_golden(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("irreducibles", "--frobenius", "17"),
            "06d760429530bc769c1b617688f88ae549ed8b1e905eb4c3e0c57e460d12b320",
        ),
        (
            ("interval-tree", "--gens", "5,7,9,11"),
            "d5536ae85536091c1ddd01abf965794daea29589a50d7471c0ff0902be411c66",
        ),
        (
            ("interval-tree", "--gens", "10,13,14,16,17,18,19,21,22"),
            "20f7f3cac091a6bbeb6fa433525b67632378c0d84b7cd92da7b7323c50712f32",
        ),
    ],
)
def test_dot_output_golden(capsys, tmp_path, argv, digest):
    target = tmp_path / "tree.dot"
    code, out, err = run(capsys, *argv, "--dot", str(target))
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_closed_pipe_exits_quietly():
    # about 1,207 records, far more than a pipe buffer holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "numsgps.cli", "ksemigroups", "--json",
         "--l", "6", "--frobenius", "27"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=SRC_ENV,
    )
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="no /dev/full to fail writes"
)


@needs_dev_full
@pytest.mark.parametrize(
    "argv, stdout",
    [
        (("verify", "--max-frobenius", "3"), "/dev/full"),
        (("info", "--gens", "3,5"), "/dev/full"),
        (("ksemigroups", "--json", "--l", "6", "--frobenius", "27"), "/dev/full"),
        (("irreducibles", "--frobenius", "9", "--dot", "/dev/full"), os.devnull),
    ],
)
def test_failed_write_exits_two(argv, stdout):
    with open(stdout, "wb") as out:
        proc = python("-m", "numsgps.cli", *argv, stdout=out, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [
        "error: write failed: No space left on device"
    ]


@needs_dev_full
def test_full_dot_file_in_process_exits_two(capsys):
    # capsys's stdout has no file descriptor to point at devnull
    argv = ("irreducibles", "--frobenius", "9", "--dot", "/dev/full")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: write failed: No space left on device\n"


# ----------------------------------------------------------------------
# determinism across thread counts


def _capture(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_thread_count_below_one_is_usage_error(capsys):
    for argv in (
        ("irreducibles", "--frobenius", "11"),
        ("interval-tree", "--gens", "5,7,9,11"),
        ("ksemigroups", "--l", "6", "--frobenius", "11"),
    ):
        for threads in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--threads", threads])
            assert exc.value.code == 2


def test_thread_count_never_changes_json(capsys):
    pairs = [
        ("irreducibles", "--frobenius", "11", "--json"),
        ("interval-tree", "--gens", "5,7,9,11", "--json"),
        ("ksemigroups", "--l", "6", "--frobenius", "11", "--json"),
    ]
    for argv in pairs:
        lone = _capture(capsys, *argv, "--threads", "1")
        pooled = _capture(capsys, *argv, "--threads", "8")
        assert lone == pooled
