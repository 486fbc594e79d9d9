from __future__ import annotations

import json

import pytest

from numsgps.cli import main, semigroup_record
from support import sg


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


def test_ksemigroups_negative_budget_is_an_error(capsys):
    code, out, err = run(
        capsys,
        "ksemigroups", "--l", "6", "--frobenius", "11", "--max-work", "-5",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "-5" in err and "exhausted" not in err


# ----------------------------------------------------------------------
# verify


def test_verify_clean(capsys):
    code, out, err = run(capsys, "verify", "--max-frobenius", "6")
    assert code == 0
    assert out.startswith("ok:")


def test_verify_bound(capsys):
    code, out, err = run(capsys, "verify", "--max-frobenius", "99")
    assert code == 2
    assert err.startswith("error:")


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
