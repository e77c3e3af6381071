"""Paths, the per-workload result, and the round loop shared by the workloads."""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"  # simulate outputs and traces; ignored by git


@dataclass
class Outcome:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    rates: list[float] = field(default_factory=list)  # operations per second, one per timed sample

    def ops_per_s(self) -> float:
        """The median of the sample rates.  Ten runs of 50 s per workload
        spread less across runs by the median (0.07 on `exact`, 0.11 on
        `mc-coarse`) than by the 99th percentile (0.14, 0.18); see
        README.md."""
        return statistics.median(self.rates) if self.rates else 0.0


def rounds(seconds: float):
    """Round indices 0, 1, ... until `seconds` have passed; at least one.

    Every round attempts the same operations, so the failed share of the
    attempted operations does not depend on how many rounds fit."""
    end = time.perf_counter() + seconds
    r = 0
    while True:
        yield r
        r += 1
        if time.perf_counter() >= end:
            return


def attempt(fn, *args):
    """Call fn; an exception is returned, not raised, and counts as a
    failed operation."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        return exc


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
