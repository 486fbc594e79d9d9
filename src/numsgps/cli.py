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

ksemigroups takes each root and the size of its D(I) from count mode,
which walks no slice, prints the group's header at once, and then
streams the members from a depth-first walk of the slice, so
`numsgps ksemigroups ... | head` stops inside the first group, and
--count walks nothing.  --max-work charges each group, before it
prints, the nodes a walk of its slice expands; when the budget runs
out, stdout holds only the whole groups printed before it, followed by
the exit-2 error on stderr.

Exit codes: 0 success (including an empty but well-posed listing),
1 verification mismatch, 2 usage or domain error (an input over a size
bound among them) or a failed write to stdout or the --dot file, 141
(128 + SIGPIPE) when the reader closes stdout early, as in
`numsgps ... | head`.
"""

import argparse
import contextlib
import json
import os
import sys

from .classify import _l_flags, pseudo_frobenius
from .core import NumericalSemigroup, _at_least, _gap_bits, _mirror, _set_bits
from .enumeration import EnumerationRequest, Mode, feasible, iter_k_semigroups
from .errors import NumericalSemigroupError
from .oracle import ORACLE_MAX_FROBENIUS, crosscheck
from .trees import interval_tree, irreducible_tree, iter_interval_level


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
    """The serialization schema used by every record-producing command.

    The gaps, the genus and l are read off one gap mask G, with l the
    number of gaps x whose mirror F - x is a gap too; the flags follow
    from l, as in classify.
    """
    gaps = _gap_bits(s)
    genus = gaps.bit_count()
    l_count = (gaps & _mirror(gaps, s.frobenius)).bit_count()
    symmetric, pseudo_symmetric, irreducible = _l_flags(s, genus, l_count)
    pf = pseudo_frobenius(s)
    return {
        "frobenius": s.frobenius,
        "genus": genus,
        "l": l_count,
        "multiplicity": s.multiplicity,
        "embedding_dimension": s.embedding_dimension,
        "type": pf.type_count,
        "min_generators": list(s.minimal_generators),
        "gaps": _set_bits(gaps),
        "pseudo_frobenius": list(pf.values),
        "flags": {
            "symmetric": symmetric,
            "pseudo_symmetric": pseudo_symmetric,
            "irreducible": irreducible,
        },
    }


def _json_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def _record_line(s: NumericalSemigroup, **extra) -> str:
    """The JSON line of s's record, followed by the extra fields."""
    return _json_line({**semigroup_record(s), **extra})


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


def _print_tree(tree, args) -> int:
    # one line per node, TSV or a JSON record, then the --dot file if asked
    with _open_dot(args.dot) as dot:
        for node in tree.nodes:
            root = node.parent is None
            if args.json:
                line = _record_line(
                    node.semigroup,
                    depth=node.depth,
                    edge_label=None if root else node.edge_label,
                    parent=None if root else list(node.parent.minimal_generators),
                )
            else:
                label, parent = ("-", "-") if root else (node.edge_label, node.parent)
                line = "%d\t%s\t%s\t%s" % (node.depth, label, node.semigroup, parent)
            print(line)
        if dot is not None:
            _write_dot(tree, dot)
    return 0


# ----------------------------------------------------------------------
# subcommand handlers


def cmd_info(args) -> int:
    s = NumericalSemigroup.from_generators(args.gens)
    if args.json:
        print(_record_line(s))
    else:
        _print_text_record(semigroup_record(s))
    return 0


def cmd_irreducibles(args) -> int:
    if args.min_delta is not None:
        _at_least("--min-delta", args.min_delta, 0)
    tree = irreducible_tree(args.frobenius, prune_threshold=args.min_delta)
    return _print_tree(tree, args)


def cmd_interval_tree(args) -> int:
    root = NumericalSemigroup.from_generators(args.gens)
    if args.level is None:
        return _print_tree(interval_tree(root), args)
    _at_least("--level", args.level, 0)
    for s in iter_interval_level(root, args.level):
        if args.json:
            print(_record_line(s, depth=args.level, edge_label=None, parent=None))
        else:
            print(s)
    return 0


def cmd_ksemigroups(args) -> int:
    # roots and D(I) sizes come from count mode, which walks no slice
    request = EnumerationRequest(
        k=args.l,
        frobenius=args.frobenius,
        mode=Mode.COUNT_ONLY,
        max_work=args.max_work,
    )
    groups = iter_k_semigroups(request)  # a bad K or W fails before feasibility
    if not feasible(args.l, args.frobenius):
        even = (args.l + args.frobenius) % 2 == 0
        print("infeasible: %s" % ("K+F even" if even else "F < K+1"), file=sys.stderr)
        return 0
    if args.count:
        groups = list(groups)
        total = sum(g.count for g in groups)
        if args.json:
            counts = [
                {"root": list(g.root.minimal_generators), "count": g.count}
                for g in groups
            ]
            summary = {"l": args.l, "frobenius": args.frobenius, "total": total}
            print(_json_line({**summary, "groups": counts}))
        else:
            print(total)
        return 0
    # each header prints at once, and the members stream from the walk
    for group in groups:
        members = iter_interval_level(group.root, args.l // 2)
        if args.json:
            root = list(group.root.minimal_generators)
            for member in members:
                print(_record_line(member, root=root))
        else:
            print("# D(%s) %d" % (group.root, group.count))
            for member in members:
                print(member)
        sys.stdout.flush()
    return 0


def cmd_verify(args) -> int:
    reports = crosscheck(_at_least("--max-frobenius", args.max_frobenius, 1))
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


def _add_threads(p):
    p.add_argument(
        "--threads",
        type=_threads_argument,
        default=1,
        metavar="N",
        help="accepted for compatibility (N >= 1); runs are always sequential",
    )


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
    _add_threads(p)
    p.set_defaults(handler=cmd_irreducibles)

    p = sub.add_parser(
        "interval-tree",
        help="tree between an irreducible semigroup and its small-half closure",
    )
    p.add_argument("--gens", type=_gens_argument, required=True, metavar="a,b,c")
    g = p.add_mutually_exclusive_group()  # a slice has no digraph to write
    g.add_argument(
        "--level",
        type=int,
        default=None,
        metavar="N",
        help="emit only the depth-N slice instead of the whole tree",
    )
    g.add_argument("--dot", metavar="FILE", help="also write a Graphviz digraph")
    p.add_argument("--json", action="store_true", help="emit JSON lines")
    _add_threads(p)
    p.set_defaults(handler=cmd_interval_tree)

    p = sub.add_parser(
        "ksemigroups",
        help="all semigroups with K second-kind gaps and Frobenius number F",
    )
    p.add_argument("--l", type=int, required=True, metavar="K", dest="l")
    p.add_argument("--frobenius", type=int, required=True, metavar="F")
    p.add_argument("--count", action="store_true", help="print counts only")
    p.add_argument("--json", action="store_true", help="emit JSON lines")
    _add_threads(p)
    p.add_argument(
        "--max-work",
        type=int,
        default=None,
        metavar="W",
        help="stop with an error after W expanded tree nodes; the groups "
        "already printed are whole",
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


def _stdout_to_devnull():
    # the interpreter flushes stdout again on exit; send that to devnull.
    # A stdout without a descriptor (an in-process capture) is left alone.
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return 141
    except OSError as exc:
        # stdout or the --dot file failed mid-write, e.g. a full disk
        print("error: write failed: %s" % (exc.strerror or exc), file=sys.stderr)
        _stdout_to_devnull()
        return 2
    except (NumericalSemigroupError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
