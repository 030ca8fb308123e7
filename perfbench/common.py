"""Shared run state and helpers of the benchmark."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: cold starts per run, half before the measured passes and half after;
#: setup_s is their median
SETUP_REPEATS = 6

#: times each completed fresh job is resubmitted and served from the store
REPEAT_ROUNDS = 3
#: windows the resubmissions of a run are split into, in the order they
#: ran; repeat_cpu_ms is the lowest window mean
REPEAT_WINDOWS = 6

#: variables that would make a run reuse state or change trace sizes
STRIPPED_ENV = ("REPRO_TRACE_SCALE", "REPRO_TRACE_CACHE_DIR", "REPRO_EXTERNAL_TRACE_DIR")


@dataclass
class RunContext:
    """One invocation of ``run.py``: arguments plus its private directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: float
    run_dir: Path
    run_id: str
    out_dir: Path
    bench_pid: int

    def child_env(self) -> Dict[str, str]:
        """Environment of every process the run starts."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        return env

    def save_spans(self, spans: List[dict]) -> None:
        """Write the traced pass's spans next to the run's other outputs."""
        path = self.out_dir / f"spans-{self.workload}-seed{self.seed}.json"
        path.write_text(json.dumps({"run_id": self.run_id, "spans": spans}))


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile: the smallest value with at least *pct* %
    of the values at or below it (no interpolation across gaps)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def windows(items: Sequence, count: int = REPEAT_WINDOWS) -> List[Sequence]:
    """*items* cut into *count* consecutive slices of equal length (the
    remainder goes to the last); fewer items than *count* give one each."""
    size = max(1, len(items) // count)
    cuts = [index * size for index in range(min(count, len(items)))] + [len(items)]
    return [items[start:stop] for start, stop in zip(cuts, cuts[1:])]


def cold_start(ctx: RunContext, args: Sequence[str]) -> float:
    """CPU seconds ``child.py *args`` spent, in a fresh interpreter, until
    it printed ``ready``."""
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=ctx.child_env(),
        text=True,
    )
    try:
        line = child.stdout.readline().split()
        child.stdout.read()
    finally:
        child.stdout.close()
        code = child.wait(timeout=120)
    if code != 0 or len(line) != 2 or line[0] != "ready":
        raise RuntimeError(f"child {list(args)} failed (exit {code})")
    return float(line[1])
