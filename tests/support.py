"""Shared helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numsgps
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


def python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run the interpreter on args with the package under test importable."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=SRC_ENV, **kwargs
    )
