"""Span recording for the traced benchmark run.

A Tracer records one span per call into a wrapped numsgps function: its
name, start, end, parent span and thread.  Spans are kept in per-thread
arrays and written out after the run; self time is folded into per-name
totals as each span closes, so the report never needs a second pass.

Self time is a span's duration minus the union of its children's
intervals.  Children of one span can overlap when numsgps runs them on
its thread pool, so a plain sum would count the overlap twice.

install() puts the wrappers at every name callers look up: each numsgps
module attribute bound to the original function is replaced, so
``numsgps.enumeration.interval_level`` is traced as well as
``numsgps.trees.interval_level``.  For the cached properties
``minimal_generators`` and ``gap_profile`` only the function each one
caches is wrapped, so their counts are computations, not attribute
reads.  Each property keeps its own lock, which Python 3.11's
functools.cached_property holds while it computes, for all instances at
once; the wait to take it is a span of its own, ``<property>.wait``, so
that threads serialised on it show as waiting.
``NumericalSemigroup.contains`` is deliberately left alone: it runs about
a million times per deep enumeration and its cost belongs to its callers.
"""

import collections
import importlib
import itertools
import threading
import time
from array import array

# Span names, one per wrapped function, named <module>.<function>.  The
# private module numsgps._util is reported as "util" because benchmark
# metric names must start with a letter.
SPAN_NAMES = (
    "core.minimal_generators",
    "core.gap_profile",
    "core.from_generators",
    "trees.interval_children",
    "trees.interval_level",
    "trees.irreducible_children",
    "trees.irreducible_tree",
    "trees.theta_surplus",
    "enumeration.enumerate_k_semigroups",
    "util.map_ordered",
    "classify.classify",
    "classify.pseudo_frobenius",
    "cli.main",
    "cli.semigroup_record",
    "oracle.all_with_frobenius",
    "oracle.crosscheck",
)

# Waits for a cached property's lock, reported as <name>_s.
WAIT_SPAN_NAMES = ("core.minimal_generators.wait", "core.gap_profile.wait")

NUMSGPS_MODULES = (
    "numsgps",
    "numsgps._util",
    "numsgps.core",
    "numsgps.trees",
    "numsgps.enumeration",
    "numsgps.classify",
    "numsgps.cli",
    "numsgps.oracle",
)


def covered_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _ThreadState:
    def __init__(self, thread_id):
        self.thread_id = thread_id
        self.stack = []  # (span id, name) of the open spans, innermost last
        self.totals = {}  # name -> [calls, self seconds]
        self.counts = collections.Counter()
        self.ids = array("q")
        self.parents = array("q")
        self.names = []
        self.starts = array("d")
        self.ends = array("d")


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._ids = itertools.count(1)
        self._children = {}  # open span id -> [(start, end)] of closed children
        self.pruned_trees = set()  # span ids of irreducible_tree calls with pruning

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def current(self):
        """(span id, name) of the innermost open span on this thread, or None."""
        stack = self._state().stack
        return stack[-1] if stack else None

    def in_span(self, name):
        """True when a span with this name is open on this thread's stack."""
        return any(n == name for _, n in self._state().stack)

    def count(self, key, amount=1):
        self._state().counts[key] += amount

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        state = self._state()
        stack = state.stack
        parent = stack[-1][0] if stack else 0
        sid = next(self._ids)
        self._children[sid] = []
        stack.append((sid, name))
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            kids = self._children.pop(sid)
            busy = covered_length(kids, start, end) if kids else 0.0
            total = state.totals.get(name)
            if total is None:
                total = state.totals[name] = [0, 0.0]
            total[0] += 1
            total[1] += (end - start) - busy
            if parent:
                self._children[parent].append((start, end))
            state.ids.append(sid)
            state.parents.append(parent)
            state.names.append(name)
            state.starts.append(start)
            state.ends.append(end)

    def adopt(self, fn):
        """Wrap fn so that, run on another thread, its spans nest under the
        span open here.  Used for work handed to numsgps's thread pool."""
        owner = threading.get_ident()
        snapshot = list(self._state().stack)

        def adopted(*args, **kwargs):
            if threading.get_ident() == owner:
                return fn(*args, **kwargs)
            state = self._state()
            saved = state.stack
            state.stack = list(snapshot)
            try:
                return fn(*args, **kwargs)
            finally:
                state.stack = saved

        return adopted

    def totals(self):
        """name -> (calls, self seconds), summed over threads."""
        out = {}
        for state in self._threads:
            for name, (calls, self_s) in state.totals.items():
                prev = out.get(name, (0, 0.0))
                out[name] = (prev[0] + calls, prev[1] + self_s)
        return out

    def counts(self):
        out = collections.Counter()
        for state in self._threads:
            out.update(state.counts)
        return out

    def write_spans(self, path):
        """Write every span as a tab-separated line:
        id, parent (0 at top level), name, thread, start, end."""
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tthread\tstart\tend\n")
            for state in self._threads:
                for i in range(len(state.ids)):
                    handle.write(
                        "%d\t%d\t%s\t%d\t%.9f\t%.9f\n"
                        % (
                            state.ids[i],
                            state.parents[i],
                            state.names[i],
                            state.thread_id,
                            state.starts[i],
                            state.ends[i],
                        )
                    )


class _TimedLock:
    """Stands in for a lock: the same lock, with each acquisition a span."""

    def __init__(self, tracer, name, lock):
        self.tracer, self.name, self.lock = tracer, name, lock

    def __enter__(self):
        return self.tracer.call(self.name, self.lock.acquire)

    def __exit__(self, *exc_info):
        self.lock.release()


def _function_wrappers(tracer):
    """(module, attribute, wrapper factory) for each traced function."""

    def plain(name):
        def factory(orig):
            def wrapper(*args, **kwargs):
                return tracer.call(name, orig, *args, **kwargs)

            return wrapper

        return factory

    def interval_children(orig):
        def wrapper(*args, **kwargs):
            if tracer.in_span("trees.interval_level"):
                tracer.count("trees.interval_level.expanded")
            return tracer.call("trees.interval_children", orig, *args, **kwargs)

        return wrapper

    def interval_level(orig):
        def wrapper(*args, **kwargs):
            level = tracer.call("trees.interval_level", orig, *args, **kwargs)
            tracer.count("trees.interval_level.members", len(level))
            return level

        return wrapper

    def irreducible_tree(orig):
        def run(frobenius, prune_threshold=None, *args, **kwargs):
            if prune_threshold is not None:
                tracer.pruned_trees.add(tracer.current()[0])
            tree = orig(frobenius, prune_threshold, *args, **kwargs)
            if prune_threshold is not None:
                tracer.count("trees.prune.kept", len(tree.nodes))
            return tree

        def wrapper(*args, **kwargs):
            return tracer.call("trees.irreducible_tree", run, *args, **kwargs)

        return wrapper

    def theta_surplus(orig):
        def wrapper(*args, **kwargs):
            parent = tracer.current()
            if parent is not None and parent[0] in tracer.pruned_trees:
                tracer.count("trees.prune.tested")
            return tracer.call("trees.theta_surplus", orig, *args, **kwargs)

        return wrapper

    def enumerate_k(orig):
        def wrapper(*args, **kwargs):
            result = tracer.call(
                "enumeration.enumerate_k_semigroups", orig, *args, **kwargs
            )
            tracer.count("enumeration.roots", len(result.groups))
            return result

        return wrapper

    def map_ordered(orig):
        def run(fn, items, threads=1):
            items = list(items)
            if threads > 1 and len(items) > 1:
                tracer.count("util.map_ordered.items", len(items))
            return orig(tracer.adopt(fn), items, threads)

        def wrapper(fn, items, threads=1):
            return tracer.call("util.map_ordered", run, fn, items, threads)

        return wrapper

    def all_with_frobenius(orig):
        def wrapper(*args, **kwargs):
            population = tracer.call("oracle.all_with_frobenius", orig, *args, **kwargs)
            tracer.count("oracle.population", len(population))
            return population

        return wrapper

    return (
        ("numsgps.trees", "interval_children", interval_children),
        ("numsgps.trees", "interval_level", interval_level),
        ("numsgps.trees", "irreducible_children", plain("trees.irreducible_children")),
        ("numsgps.trees", "irreducible_tree", irreducible_tree),
        ("numsgps.trees", "theta_surplus", theta_surplus),
        ("numsgps.enumeration", "enumerate_k_semigroups", enumerate_k),
        ("numsgps._util", "map_ordered", map_ordered),
        ("numsgps.classify", "classify", plain("classify.classify")),
        ("numsgps.classify", "pseudo_frobenius", plain("classify.pseudo_frobenius")),
        ("numsgps.cli", "main", plain("cli.main")),
        ("numsgps.cli", "semigroup_record", plain("cli.semigroup_record")),
        ("numsgps.oracle", "all_with_frobenius", all_with_frobenius),
        ("numsgps.oracle", "crosscheck", plain("oracle.crosscheck")),
    )


def install(tracer):
    """Trace numsgps's layer boundaries; returns a function that undoes it."""
    modules = [importlib.import_module(name) for name in NUMSGPS_MODULES]
    undo = []
    for module_name, attr, factory in _function_wrappers(tracer):
        orig = getattr(importlib.import_module(module_name), attr)
        wrapper = factory(orig)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                    undo.append((module, key, orig))

    core = importlib.import_module("numsgps.core")
    cls = core.NumericalSemigroup
    for attr in ("minimal_generators", "gap_profile"):
        # Wrap only the computation and the lock: the cached_property and
        # its caching stay as they are, so a cached read makes no span.
        prop = cls.__dict__[attr]
        name = "core." + attr
        func, lock = prop.func, prop.lock
        prop.func = lambda obj, name=name, func=func: tracer.call(name, func, obj)
        prop.lock = _TimedLock(tracer, name + ".wait", lock)
        undo += [(prop, "func", func), (prop, "lock", lock)]

    original = cls.__dict__["from_generators"]
    from_generators = original.__func__

    def traced_from_generators(klass, generators):
        return tracer.call("core.from_generators", from_generators, klass, generators)

    setattr(cls, "from_generators", classmethod(traced_from_generators))
    undo.append((cls, "from_generators", original))

    def uninstall():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return uninstall
