"""The benchmark's workloads: seeded inputs, the calls they make, and the
checks their outputs must pass.

Every workload is a closed loop with one caller over a fixed round of
queries; the seed decides the round.  A query is one call into numsgps:
enumerate_k_semigroups, cli.main, all_with_frobenius or crosscheck.

Seeds vary the inputs but not the amount of work.  Query cost in these
workloads depends far more on (K, F) than on anything else, so each slot
of a round draws from a small set of inputs that cost about the same and
produce members at about the same rate (measured on a 2-CPU x86-64
machine, Python 3.11).  A seed therefore changes which semigroups are
computed without changing what a run measures.  Seed 0, the default,
uses the *_DEFAULT inputs.  Every member count is pinned.

Checks never use numsgps's fast paths: members are checked with
oracle.brute_l, CLI records with the Apery set computed here.
"""

import contextlib
import heapq
import json
import math
import random
import time

import numsgps
import numsgps.cli
import numsgps.oracle

DEFAULT_SEED = 0

# Deep enumeration: most time in interval levels; the only workload that
# sends more than one item through numsgps's thread pool.
DEEP_THREADS = 2
# The cheapest slot varies with the seed; its choices all cost less than
# the other slots, so the median query stays in the (10,31)-(8,35) pair.
DEEP_SLOTS = (
    ((10, 31),),
    ((8, 35),),
    ((9, 34), (8, 33), (11, 32), (9, 36)),
    ((11, 36),),
)
DEEP_DEFAULT = ((10, 31), (8, 35), (9, 34), (11, 36))

# CLI records.  info: generator count -> Frobenius band.  The small
# lists' cost is mostly the membership sieve over [0, 2 * min * max], so
# their min * max is banded too.  The bands keep each slot's cost steady;
# the two-generator slots reach F near 46k.
INFO_SLOTS = (2, 2, 3, 3, 3, 4, 4, 4, 5, 5)
INFO_BANDS = {2: (44000, 46000), 3: (4000, 5000), 4: (1900, 2300), 5: (1300, 1500)}
INFO_SPAN_BAND = (30000, 33000)  # min * max of the lists with 3 to 5 generators
INFO_RANGE = (100, 250)
KSG_SLOTS = (
    ((6, 25), (7, 26)),
    ((4, 25), (5, 26), (4, 27)),
    ((6, 27), (8, 25), (9, 26)),
)
KSG_DEFAULT = ((6, 25), (5, 26), (6, 27))
TEXT_QUERY = (10, 31)

# Oracle sweep: nothing is random.
SWEEP_MAX = 22
CROSSCHECK_MAX = 18

# Member counts of every (K, F) a round can draw, so that a dropped or
# extra member fails the run whatever the seed.  K semigroups with
# Frobenius number F; the default seed's inputs are the first of each group.
PINNED_COUNTS = {
    # kenum-deep
    (10, 31): 9510, (8, 35): 14219, (9, 34): 8858, (11, 36): 22405,
    (8, 33): 8480, (9, 36): 11798, (11, 32): 9115,
    # cli-records, ksemigroups --json
    (6, 25): 860, (5, 26): 399, (6, 27): 1207,
    (7, 26): 835, (4, 25): 424, (4, 27): 535, (8, 25): 1360, (9, 26): 1341,
}
# Numerical semigroups with Frobenius number f = 1..22 (OEIS A124506).
POPULATION = (
    1, 1, 2, 2, 5, 4, 11, 10, 21, 22, 51, 40,
    106, 103, 200, 205, 465, 405, 961, 900, 1828, 1913,
)


# ----------------------------------------------------------------------
# independent semigroup facts from generators


def apery(gens, m):
    """Apery set of <gens> with respect to m, as a list indexed by residue:
    the least member congruent to each residue (shortest paths mod m)."""
    dist = [None] * m
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d != dist[r]:
            continue
        for g in gens:
            nd = d + g
            nr = nd % m
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist


def frobenius_of(gens):
    m = min(gens)
    return max(apery(gens, m)) - m


def gaps_of(gens):
    """(Apery set w.r.t. the least generator, Frobenius number, gap list)."""
    m = min(gens)
    ap = apery(gens, m)
    f = max(ap) - m
    return ap, f, [x for x in range(1, f + 1) if x < ap[x % m]]


def second_kind_count(frobenius, gaps):
    """l(S) from the gap list: gaps x whose mirror F - x is also a gap."""
    gapset = set(gaps)
    return sum(1 for x in gaps if frobenius - x in gapset)


# ----------------------------------------------------------------------
# stdout sink for in-process CLI calls


class Sink:
    """Collects what cli.main prints; counts bytes and notes the first write."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.first_write_at = None
        self.bytes = 0
        self.chunks = []

    def write(self, text):
        if text and self.first_write_at is None:
            self.first_write_at = self.clock()
        self.bytes += len(text.encode())
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass

    def getvalue(self):
        return "".join(self.chunks)


# ----------------------------------------------------------------------
# queries.  call() is timed; check() runs outside the timed region and
# returns a list of problems (empty when the output is right).


def _check_members(members, k, frobenius):
    problems = []
    if len(set(members)) != len(members):
        problems.append("duplicate members")
    for s in members:
        if s.frobenius != frobenius or numsgps.oracle.brute_l(s) != k:
            problems.append("member %s is not K=%d F=%d" % (s, k, frobenius))
            break
    return problems


class Enumerate:
    def __init__(self, k, frobenius, threads, expected):
        self.k, self.frobenius, self.threads = k, frobenius, threads
        self.expected = expected
        self.label = "enumerate K=%d F=%d" % (k, frobenius)

    def call(self):
        request = numsgps.EnumerationRequest(self.k, self.frobenius)
        return numsgps.enumerate_k_semigroups(request, threads=self.threads)

    def semigroups(self, result):
        return result.total

    def first_record_s(self, result, start, end):
        # the call returns its whole answer at once
        return end - start

    def check(self, result):
        members = [m for g in result.groups for m in g.members]
        problems = []
        if any(g.count != len(g.members) for g in result.groups):
            problems.append("group count differs from its members")
        if result.total != len(members):
            problems.append("group counts sum to %d, total %d" % (len(members), result.total))
        if result.total != self.expected:
            problems.append("total %d, pinned %d" % (result.total, self.expected))
        return problems + _check_members(members, self.k, self.frobenius)


class CliCall:
    """One in-process numsgps.cli.main(argv) with stdout in a Sink.

    kind is "info" (one JSON record for gens), "json" (ksemigroups JSON
    lines) or "text" (ksemigroups text listing).
    """

    def __init__(self, kind, argv, gens=None, k=None, frobenius=None, expected=None):
        self.kind, self.argv = kind, argv
        self.gens, self.k, self.frobenius = gens, k, frobenius
        self.expected = expected
        self.label = "numsgps " + " ".join(argv)

    def call(self):
        sink = Sink()
        with contextlib.redirect_stdout(sink):
            code = numsgps.cli.main(self.argv)
        return code, sink

    def semigroups(self, output):
        code, sink = output
        text = sink.getvalue()
        if self.kind == "text":
            return sum(1 for line in text.splitlines() if not line.startswith("#"))
        return text.count("\n")

    def bytes_out(self, output):
        return output[1].bytes

    def first_record_s(self, output, start, end):
        first = output[1].first_write_at
        if self.kind != "text" or first is None:
            return None
        return first - start

    def check(self, output):
        code, sink = output
        if code != 0:
            return ["exit code %d" % code]
        lines = sink.getvalue().splitlines()
        if self.kind == "info":
            return self._check_info(lines)
        if self.kind == "json":
            return self._check_json(lines)
        return self._check_text(lines)

    def _check_info(self, lines):
        if len(lines) != 1:
            return ["%d lines, expected one record" % len(lines)]
        rec = json.loads(lines[0])
        m = min(self.gens)
        ap, f, gaps = gaps_of(self.gens)
        n = sum(1 for x in range(f) if x >= ap[x % m])
        problems = []
        if rec["frobenius"] != f or rec["gaps"] != gaps:
            problems.append("frobenius or gaps differ from the Apery set")
        if rec["genus"] + n != f + 1:
            problems.append("g + n != F + 1")
        if 2 * rec["genus"] != f + 1 + rec["l"]:
            problems.append("2g != F + 1 + l")
        if rec["l"] != second_kind_count(f, gaps):
            problems.append("l differs from the gap list")
        if apery(rec["min_generators"], m) != ap:
            problems.append("min_generators span another semigroup")
        return problems

    def _check_json(self, lines):
        problems = []
        seen = set()
        for line in lines:
            rec = json.loads(line)
            gaps = tuple(rec["gaps"])
            seen.add(gaps)
            f = self.frobenius
            if rec["frobenius"] != f or gaps[-1] != f or rec["l"] != self.k:
                problems.append("record is not K=%d F=%d" % (self.k, f))
            elif second_kind_count(f, gaps) != self.k:
                problems.append("record gaps have l != %d" % self.k)
            elif tuple(gaps_of(rec["min_generators"])[2]) != gaps:
                problems.append("min_generators span another semigroup")
            if problems:
                break
        if len(seen) != len(lines):
            problems.append("duplicate records")
        if len(lines) != self.expected:
            problems.append("%d records, pinned %d" % (len(lines), self.expected))
        return problems

    def _check_text(self, lines):
        problems = []
        headed = 0
        members = []
        for line in lines:
            if line.startswith("# D("):
                headed += int(line.rsplit(" ", 1)[1])
            else:
                members.append(line)
        if headed != len(members):
            problems.append("group counts sum to %d, %d members" % (headed, len(members)))
        if len(set(members)) != len(members):
            problems.append("duplicate members")
        if len(members) != self.expected:
            problems.append("%d members, pinned %d" % (len(members), self.expected))
        for line in members:
            _, f, gaps = gaps_of([int(x) for x in line.strip("<>").split(",")])
            if f != self.frobenius or second_kind_count(f, gaps) != self.k:
                problems.append("member %s is not K=%d F=%d" % (line, self.k, self.frobenius))
                break
        return problems


class AllWithFrobenius:
    def __init__(self, frobenius):
        self.frobenius = frobenius
        self.label = "all_with_frobenius(%d)" % frobenius

    def call(self):
        return numsgps.oracle.all_with_frobenius(self.frobenius)

    def semigroups(self, population):
        return len(population)

    def first_record_s(self, population, start, end):
        return end - start

    def check(self, population):
        problems = []
        expected = POPULATION[self.frobenius - 1]
        if len(population) != expected:
            problems.append("%d semigroups, A124506 says %d" % (len(population), expected))
        if len(set(population)) != len(population):
            problems.append("duplicate semigroups")
        if any(s.frobenius != self.frobenius for s in population):
            problems.append("semigroup with another Frobenius number")
        return problems


class Crosscheck:
    def __init__(self, f_max):
        self.f_max = f_max
        self.label = "crosscheck(%d)" % f_max

    def call(self):
        return numsgps.oracle.crosscheck(self.f_max)

    def semigroups(self, reports):
        # the sweep generates and checks every semigroup with F <= f_max
        return sum(POPULATION[: self.f_max])

    def first_record_s(self, reports, start, end):
        return end - start

    def check(self, reports):
        return ["%d mismatches, first: %s" % (len(reports), reports[0])] if reports else []


# ----------------------------------------------------------------------
# rounds


def _draw_slots(rng, slots):
    return [rng.choice(choices) for choices in slots]


def _draw_gens(rng, count):
    lo, hi = INFO_BANDS[count]
    while True:
        gens = sorted(rng.sample(range(INFO_RANGE[0], INFO_RANGE[1] + 1), count))
        if count > 2 and not INFO_SPAN_BAND[0] <= gens[0] * gens[-1] <= INFO_SPAN_BAND[1]:
            continue
        if math.gcd(*gens) != 1:
            continue
        # Sylvester: F(<a, b>) = ab - a - b; the Apery set costs 30 times more
        f = gens[0] * gens[1] - sum(gens) if count == 2 else frobenius_of(gens)
        if lo <= f <= hi:
            return gens


def _deep_round(rng, seed):
    pairs = list(DEEP_DEFAULT) if seed == DEFAULT_SEED else _draw_slots(rng, DEEP_SLOTS)
    rng.shuffle(pairs)
    return [Enumerate(k, f, DEEP_THREADS, PINNED_COUNTS[k, f]) for k, f in pairs]


def _cli_round(rng, seed):
    queries = []
    for count in INFO_SLOTS:
        gens = _draw_gens(rng, count)
        argv = ["info", "--json", "--gens", ",".join(map(str, gens))]
        queries.append(CliCall("info", argv, gens=gens))
    pairs = KSG_DEFAULT if seed == DEFAULT_SEED else _draw_slots(rng, KSG_SLOTS)
    for k, f in pairs:
        argv = ["ksemigroups", "--json", "--l", str(k), "--frobenius", str(f)]
        queries.append(CliCall("json", argv, k=k, frobenius=f, expected=PINNED_COUNTS[k, f]))
    k, f = TEXT_QUERY
    argv = ["ksemigroups", "--l", str(k), "--frobenius", str(f)]
    queries.append(CliCall("text", argv, k=k, frobenius=f, expected=PINNED_COUNTS[TEXT_QUERY]))
    rng.shuffle(queries)
    return queries


def _oracle_round():
    return [AllWithFrobenius(f) for f in range(1, SWEEP_MAX + 1)] + [Crosscheck(CROSSCHECK_MAX)]


WORKLOADS = ("kenum-deep", "cli-records", "oracle-sweep")


def build_round(workload, seed):
    """The list of queries one round of the workload makes, from the seed."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "kenum-deep":
        return _deep_round(rng, seed)
    if workload == "cli-records":
        return _cli_round(rng, seed)
    if workload == "oracle-sweep":
        return _oracle_round()
    raise ValueError("unknown workload %r" % workload)
