"""Whole-tree peak memory and CPU time of the processes of a run.

``resource.getrusage(RUSAGE_CHILDREN)`` undercounts pool workers that
are killed rather than reaped, and overcounts a short-lived fork that
inherits the parent's pages.  Instead, :class:`PeakRss` folds in each
process's own ``VmHWM`` from ``/proc``, read before the process exits:
the bench process reads its own, pool workers write theirs after every
batch (see :func:`tracing.install_worker_hook`), and the service load
reads the server's before stopping it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional


def status_kb(pid: int, field: str) -> Optional[int]:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``,
    or ``None`` when the process is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def cpu_s(pid: int) -> Optional[float]:
    """User + system CPU seconds of a live process, every thread counted
    (exited ones too), or ``None`` when the process is gone.

    CPU time leaves out the time the hypervisor gave to other guests
    (steal), which on a shared virtual machine moves wall times by tens
    of percent from one minute to the next."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def workers_cpu_s(directory: Path) -> float:
    """Sum of the ``cpu-<pid>.txt`` readings pool workers wrote: each is
    the worker's CPU seconds so far, rewritten after every batch."""
    return sum(float(path.read_text()) for path in directory.glob("cpu-*.txt"))


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat``: user, nice, system,
    idle, iowait, irq, softirq, steal, ... in clock ticks."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of the machine's CPU time the hypervisor gave to other guests
    between two :func:`cpu_ticks` readings (field 8 is ``steal``)."""
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total else 0.0


def rss_mb() -> float:
    """Current resident set size of this process in MB."""
    return (status_kb(os.getpid(), "VmRSS") or 0) / 1024.0


class PeakRss:
    """Largest ``VmHWM`` recorded for any process of a run."""

    def __init__(self) -> None:
        self.peaks_kb: Dict[int, int] = {}

    def sample(self, pid: Optional[int] = None) -> None:
        """Record the current ``VmHWM`` of *pid* (default: this process)."""
        pid = pid or os.getpid()
        kb = status_kb(pid, "VmHWM")
        if kb is not None:
            self.peaks_kb[pid] = max(kb, self.peaks_kb.get(pid, 0))

    def absorb_files(self, directory: Path) -> None:
        """Record the ``hwm-<pid>.txt`` readings pool workers wrote."""
        for path in directory.glob("hwm-*.txt"):
            pid = int(path.stem.split("-", 1)[1])
            self.peaks_kb[pid] = max(int(path.read_text()), self.peaks_kb.get(pid, 0))

    def peak_mb(self) -> float:
        """The largest high-water mark recorded, in MB."""
        return max(self.peaks_kb.values(), default=0) / 1024.0
