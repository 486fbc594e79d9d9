"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numsgps
import numsgps.enumeration
import numsgps.oracle
from numsgps import NumericalSemigroup

# the environment of a subprocess that imports the numsgps under test
SRC_ENV = {
    **os.environ,
    "PYTHONPATH": str(Path(numsgps.__file__).resolve().parents[1]),
}


def sg(*gens: int) -> NumericalSemigroup:
    return NumericalSemigroup.from_generators(gens)


def gens_of(s: NumericalSemigroup) -> tuple:
    return s.minimal_generators


def python(*args: str, stdout=subprocess.PIPE, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter on args with the package under test importable;
    stderr is captured, and stdout too unless a file is given."""
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=SRC_ENV,
        **kwargs,
    )


def plant_flipped_flag(monkeypatch, flag, target):
    """Make the classify that numsgps.oracle compares against report the
    boolean field flag flipped on the semigroup target, and right elsewhere."""
    real = numsgps.oracle.classify

    def faulty(s):
        report = real(s)
        if s != target:
            return report
        return dataclasses.replace(report, **{flag: not getattr(report, flag)})

    monkeypatch.setattr(numsgps.oracle, "classify", faulty)


def count_calls(monkeypatch, module, name):
    """Record the first argument of every call made to module.name;
    returns the list they are appended to."""
    calls = []
    real = getattr(module, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_interval_levels(monkeypatch):
    """Record the root of every interval level numsgps.enumeration builds;
    returns the list the roots are appended to."""
    return count_calls(monkeypatch, numsgps.enumeration, "interval_level")
