"""Output-correctness checks: report digests, the fig5 chart, and
re-simulation with the reference engine.

A report's digest covers every simulated quantity and leaves out the
provenance (``meta``, ``manifest``: pid, wall time, engine name), so the
fast engine's report and the reference engine's report of one cell have
the same digest exactly when the engines agree.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Mapping

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

#: report fields that record where and how a cell ran, not what it computed
PROVENANCE = ("meta", "manifest")


def simulated(report_dict: Mapping) -> Dict:
    """A report's serialised form without its provenance fields."""
    return {key: value for key, value in report_dict.items() if key not in PROVENANCE}


def digest_dict(report_dict: Mapping) -> str:
    """sha256 of the canonical JSON of a serialised report's simulated part."""
    canonical = json.dumps(simulated(report_dict), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def digest(report) -> str:
    """Digest of a :class:`~repro.metrics.report.SimulationReport`."""
    from repro.harness.checkpoint import report_to_dict

    return digest_dict(report_to_dict(report))


def on_reference(request):
    """The same cell with its config switched to the reference engine."""
    return replace(request, config=replace(request.config, engine="reference"))


def cell_id(request) -> str:
    """Engine-neutral content address of a cell."""
    from repro.harness.checkpoint import cell_key

    return cell_key(on_reference(request))


def load_digests() -> Dict[str, Dict[str, str]]:
    """Expected digests: ``{"<workload>@<scale>": {cell_id: digest}}``."""
    return json.loads(DIGESTS_PATH.read_text())


def digest_failures(
    reports: Mapping, expected: Mapping[str, str]
) -> List[str]:
    """Cell ids whose report digest is missing from or differs from *expected*."""
    bad = [
        cell_id(request)
        for request, report in reports.items()
        if expected.get(cell_id(request)) != digest(report)
    ]
    return sorted(bad)


def chart_matches(rendered: str, committed: Path) -> bool:
    """Whether ``str(ExperimentResult)`` equals the committed result file."""
    return committed.read_text() == rendered + "\n"


def reference_failures(
    requests: Mapping[str, object], served: Mapping[str, str]
) -> List[str]:
    """Keys of *served* (key -> report digest) whose cell, re-simulated
    with the reference engine, gives a different digest."""
    from repro.harness.runner import run_request

    return [
        key
        for key, expected in served.items()
        if digest(run_request(on_reference(requests[key]))) != expected
    ]
