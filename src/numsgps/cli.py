"""Command line front end.

Subcommands:

    info          print the record of one semigroup given its generators
    irreducibles  list every irreducible semigroup with a given Frobenius
                  number, optionally pruned to a minimum surplus
    interval-tree walk the tree between an irreducible semigroup and the
                  subsemigroup generated by its small halves
    ksemigroups   list or count all semigroups with a given second-kind
                  gap count and Frobenius number, grouped by tree root
    verify        run the brute-force crosscheck up to a Frobenius bound

Output is plain text by default; --json switches every record-producing
command to JSON lines with a fixed field order, byte-identical for a
given input.  --threads N (N >= 1) is accepted for compatibility and
selects nothing: every run is sequential.  --dot additionally writes the
traversed tree as a Graphviz digraph (edges point from child to parent,
labeled with the removed generator).

Exit codes: 0 success (including an empty but well-posed listing),
1 verification mismatch, 2 usage or domain error.
"""

import argparse
import contextlib
import json
import sys

from .classify import classify, pseudo_frobenius
from .core import NumericalSemigroup
from .enumeration import EnumerationRequest, Mode, enumerate_k_semigroups
from .errors import NumericalSemigroupError
from .oracle import ORACLE_MAX_FROBENIUS, crosscheck
from .trees import interval_level, interval_tree, irreducible_tree


def _gens_argument(text: str):
    try:
        gens = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % text
        )
    if not gens:
        raise argparse.ArgumentTypeError("empty generator list")
    return gens


def _threads_argument(text: str):
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError("expected an integer N >= 1, got %r" % text)
    return threads


def semigroup_record(s: NumericalSemigroup) -> dict:
    """The serialization schema used by every record-producing command."""
    profile = s.gap_profile
    pf = pseudo_frobenius(s)
    report = classify(s)
    return {
        "frobenius": s.frobenius,
        "genus": profile.genus,
        "l": profile.l_count,
        "multiplicity": s.multiplicity,
        "embedding_dimension": s.embedding_dimension,
        "type": pf.type_count,
        "min_generators": list(s.minimal_generators),
        "gaps": list(profile.gaps),
        "pseudo_frobenius": list(pf.values),
        "flags": {
            "symmetric": report.symmetric,
            "pseudo_symmetric": report.pseudo_symmetric,
            "irreducible": report.irreducible,
        },
    }


def _json_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def _print_text_record(record: dict):
    gens = ",".join(map(str, record["min_generators"]))
    print("S = <%s>" % gens)
    for key in (
        "frobenius",
        "genus",
        "l",
        "multiplicity",
        "embedding_dimension",
        "type",
    ):
        print("%s: %d" % (key, record[key]))
    print("gaps: %s" % ",".join(map(str, record["gaps"])))
    print("pseudo_frobenius: %s" % ",".join(map(str, record["pseudo_frobenius"])))
    for flag, value in record["flags"].items():
        print("%s: %s" % (flag, "true" if value else "false"))


def _node_id(s: NumericalSemigroup) -> str:
    return ",".join(map(str, s.minimal_generators))


def _open_dot(path):
    # opened before any record prints, so a bad path leaves stdout empty
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValueError("cannot write --dot file %s: %s" % (path, exc.strerror))


def _write_dot(tree, handle):
    lines = ["digraph {", "  rankdir=BT;"]
    for node in tree.nodes:
        lines.append('  "%s";' % _node_id(node.semigroup))
    for parent, child, label in tree.edges():
        lines.append(
            '  "%s" -> "%s" [label="%d"];'
            % (_node_id(child), _node_id(parent), label)
        )
    lines.append("}")
    handle.write("\n".join(lines) + "\n")


def _emit_tree(tree, as_json: bool):
    for node in tree.nodes:
        parent = (
            tree.nodes[node.parent_index].semigroup
            if node.parent_index is not None
            else None
        )
        if as_json:
            record = semigroup_record(node.semigroup)
            record["depth"] = node.depth
            record["edge_label"] = node.edge_label if parent is not None else None
            record["parent"] = (
                list(parent.minimal_generators) if parent is not None else None
            )
            print(_json_line(record))
        else:
            print(
                "%d\t%s\t%s\t%s"
                % (
                    node.depth,
                    str(node.edge_label) if parent is not None else "-",
                    str(node.semigroup),
                    str(parent) if parent is not None else "-",
                )
            )


# ----------------------------------------------------------------------
# subcommand handlers


def cmd_info(args) -> int:
    s = NumericalSemigroup.from_generators(args.gens)
    record = semigroup_record(s)
    if args.json:
        print(_json_line(record))
    else:
        _print_text_record(record)
    return 0


def cmd_irreducibles(args) -> int:
    tree = irreducible_tree(args.frobenius, prune_threshold=args.min_delta)
    with _open_dot(args.dot) as dot:
        _emit_tree(tree, args.json)
        if dot is not None:
            _write_dot(tree, dot)
    return 0


def cmd_interval_tree(args) -> int:
    root = NumericalSemigroup.from_generators(args.gens)
    if args.level is not None:
        for s in interval_level(root, args.level):
            if args.json:
                record = semigroup_record(s)
                record["depth"] = args.level
                record["edge_label"] = None
                record["parent"] = None
                print(_json_line(record))
            else:
                print(str(s))
        return 0
    tree = interval_tree(root)
    with _open_dot(args.dot) as dot:
        _emit_tree(tree, args.json)
        if dot is not None:
            _write_dot(tree, dot)
    return 0


def cmd_ksemigroups(args) -> int:
    request = EnumerationRequest(
        k=args.l,
        frobenius=args.frobenius,
        mode=Mode.COUNT_ONLY if args.count else Mode.FULL,
        max_work=args.max_work,
    )
    result = enumerate_k_semigroups(request, threads=args.threads)
    if not result.feasible:
        if (args.l + args.frobenius) % 2 == 0:
            print("infeasible: K+F even", file=sys.stderr)
        else:
            print("infeasible: F < K+1", file=sys.stderr)
        return 0
    if args.count:
        if args.json:
            print(
                _json_line(
                    {
                        "l": args.l,
                        "frobenius": args.frobenius,
                        "total": result.total,
                        "groups": [
                            {
                                "root": list(g.root.minimal_generators),
                                "count": g.count,
                            }
                            for g in result.groups
                        ],
                    }
                )
            )
        else:
            print(result.total)
        return 0
    for group in result.groups:
        if not args.json:
            print("# D(%s) %d" % (str(group.root), group.count))
        for member in group.members:
            if args.json:
                record = semigroup_record(member)
                record["root"] = list(group.root.minimal_generators)
                print(_json_line(record))
            else:
                print(str(member))
    return 0


def cmd_verify(args) -> int:
    reports = crosscheck(args.max_frobenius)
    if reports:
        for report in reports:
            print(str(report))
        return 1
    print(
        "ok: no mismatches for Frobenius numbers 1..%d" % args.max_frobenius
    )
    return 0


# ----------------------------------------------------------------------
# parser

_THREADS_HELP = "accepted for compatibility (N >= 1); runs are always sequential"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numsgps",
        description="numerical semigroup gap analytics and enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="record of the semigroup the generators span")
    p.add_argument("--gens", type=_gens_argument, required=True, metavar="a,b,c")
    p.add_argument("--json", action="store_true", help="emit one JSON line")
    p.set_defaults(handler=cmd_info)

    p = sub.add_parser(
        "irreducibles",
        help="all irreducible semigroups with the given Frobenius number",
    )
    p.add_argument("--frobenius", type=int, required=True, metavar="F")
    p.add_argument(
        "--min-delta",
        type=int,
        default=None,
        metavar="T",
        help="prune subtrees whose surplus over the small-half closure "
        "falls below T",
    )
    p.add_argument("--dot", metavar="FILE", help="also write a Graphviz digraph")
    p.add_argument("--json", action="store_true", help="emit JSON lines")
    p.add_argument(
        "--threads", type=_threads_argument, default=1, metavar="N", help=_THREADS_HELP
    )
    p.set_defaults(handler=cmd_irreducibles)

    p = sub.add_parser(
        "interval-tree",
        help="tree between an irreducible semigroup and its small-half closure",
    )
    p.add_argument("--gens", type=_gens_argument, required=True, metavar="a,b,c")
    p.add_argument(
        "--level",
        type=int,
        default=None,
        metavar="N",
        help="emit only the depth-N slice instead of the whole tree",
    )
    p.add_argument("--dot", metavar="FILE", help="also write a Graphviz digraph")
    p.add_argument("--json", action="store_true", help="emit JSON lines")
    p.add_argument(
        "--threads", type=_threads_argument, default=1, metavar="N", help=_THREADS_HELP
    )
    p.set_defaults(handler=cmd_interval_tree)

    p = sub.add_parser(
        "ksemigroups",
        help="all semigroups with K second-kind gaps and Frobenius number F",
    )
    p.add_argument("--l", type=int, required=True, metavar="K", dest="l")
    p.add_argument("--frobenius", type=int, required=True, metavar="F")
    p.add_argument("--count", action="store_true", help="print counts only")
    p.add_argument("--json", action="store_true", help="emit JSON lines")
    p.add_argument(
        "--threads", type=_threads_argument, default=1, metavar="N", help=_THREADS_HELP
    )
    p.add_argument(
        "--max-work",
        type=int,
        default=None,
        metavar="W",
        help="abort with an error after W expanded tree nodes",
    )
    p.set_defaults(handler=cmd_ksemigroups)

    p = sub.add_parser(
        "verify", help="crosscheck fast paths against brute recomputation"
    )
    p.add_argument(
        "--max-frobenius",
        type=int,
        required=True,
        metavar="N",
        help="sweep every semigroup with Frobenius number up to N (max %d)"
        % ORACLE_MAX_FROBENIUS,
    )
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (NumericalSemigroupError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
