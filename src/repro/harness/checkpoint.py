"""Crash-safe checkpoint journal + failure manifest for run plans.

The resilience layer (DESIGN.md §12) needs two durable artifacts:

* the **journal** — an append-only NDJSON file
  (``<checkpoint-dir>/journal.ndjson``) holding one line per completed
  simulation cell: the cell's identity (the dedup cell key of
  :func:`cell_key` plus the fully resolved corpus trace key) and its
  full :class:`~repro.metrics.report.SimulationReport`.  Appends are
  single ``write()`` calls, flushed and fsynced per line, so a crash
  can at worst tear the final line — and the loader tolerates exactly
  that by skipping lines that do not parse.  ``--resume`` replays the
  journal and recomputes nothing that is already recorded;

* the **failure manifest** — ``FAILURES.json``, written via
  atomic-rename, listing every quarantined cell with its last error
  and traceback so a non-zero sweep exit is diagnosable offline.

Reports round-trip losslessly for every field that participates in
report equality (counts, penalties, per-kind breakdown, frontend
stats).  ``attribution`` snapshots survive too, but JSON stringifies
their integer site keys; like ``meta``/``manifest`` they are excluded
from equality, so a replayed report still compares equal to a freshly
computed one.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, IO, Iterable, List, Optional

from repro.isa.branches import BranchKind
from repro.metrics.report import PenaltyModel, RunMetadata, SimulationReport
from repro.telemetry.manifest import RunManifest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.harness.runner import RunRequest

#: journal / manifest schema stamp
CHECKPOINT_SCHEMA = "repro-checkpoint/v1"

#: journal filename inside the checkpoint directory
JOURNAL_NAME = "journal.ndjson"

#: failure-manifest filename (written next to the journal by default)
FAILURES_NAME = "FAILURES.json"


def payload_digest(payload_text: str) -> str:
    """SHA-256 hex digest of a serialised cell payload.

    The integrity currency shared by the journal's consumers and the
    persistent result store (:mod:`repro.service.store`): payloads are
    checksummed on write and re-verified on read, so silent on-disk
    corruption surfaces as a cache miss instead of a wrong number."""
    return hashlib.sha256(payload_text.encode("utf-8")).hexdigest()


def cell_key(request: "RunRequest") -> str:
    """Stable content hash of one simulation cell.

    Canonical JSON over the full config dataclass plus every request
    knob — the same identity :class:`~repro.harness.runner.RunPlan`
    dedups on, rendered hashable across processes and sessions.

    Memoised for recently seen requests: the store, the journal and
    the service ask for the same cell's key several times.  The memo
    is keyed by the request *and* the types of its fields, because
    equal values of different types (``1`` and ``1.0``) compare equal
    but render different JSON, hence different keys."""
    signature = tuple(map(type, vars(request.config).values())) + tuple(
        map(type, vars(request).values())
    )
    return _cell_key(request, signature)


@functools.lru_cache(maxsize=4096)
def _cell_key(request: "RunRequest", signature: tuple) -> str:
    """The uncached :func:`cell_key` (*signature* only keys the memo)."""
    payload = {
        "config": asdict(request.config),
        "program": request.program,
        "instructions": request.instructions,
        "seed": request.seed,
        "layout": request.layout,
        "warmup": request.warmup,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# report (de)serialisation
# ---------------------------------------------------------------------------


def report_to_dict(report: SimulationReport) -> Dict[str, Any]:
    """JSON-encodable form of *report*, invertible by
    :func:`report_from_dict` for every equality-bearing field."""
    payload: Dict[str, Any] = {
        "label": report.label,
        "program": report.program,
        "n_instructions": report.n_instructions,
        "n_breaks": report.n_breaks,
        "misfetches": report.misfetches,
        "mispredicts": report.mispredicts,
        "icache_accesses": report.icache_accesses,
        "icache_misses": report.icache_misses,
        "penalties": asdict(report.penalties),
    }
    if report.by_kind is not None:
        payload["by_kind"] = {
            str(int(kind)): list(values) for kind, values in report.by_kind.items()
        }
    if report.frontend_stats is not None:
        payload["frontend_stats"] = dict(report.frontend_stats)
    if report.attribution is not None:
        payload["attribution"] = _stringify_keys(report.attribution)
    if report.meta is not None:
        payload["meta"] = asdict(report.meta)
    if report.manifest is not None:
        payload["manifest"] = report.manifest.to_dict()
    return payload


def report_from_dict(payload: Dict[str, Any]) -> SimulationReport:
    """Rebuild the :class:`SimulationReport` a journal line recorded."""
    by_kind = payload.get("by_kind")
    meta = payload.get("meta")
    manifest = payload.get("manifest")
    return SimulationReport(
        label=payload["label"],
        program=payload["program"],
        n_instructions=payload["n_instructions"],
        n_breaks=payload["n_breaks"],
        misfetches=payload["misfetches"],
        mispredicts=payload["mispredicts"],
        icache_accesses=payload["icache_accesses"],
        icache_misses=payload["icache_misses"],
        penalties=PenaltyModel(**payload["penalties"]),
        by_kind=(
            None
            if by_kind is None
            else {
                BranchKind(int(kind)): tuple(values)
                for kind, values in by_kind.items()
            }
        ),
        frontend_stats=payload.get("frontend_stats"),
        attribution=payload.get("attribution"),
        meta=None if meta is None else RunMetadata(**meta),
        manifest=None if manifest is None else _manifest_from_dict(manifest),
    )


def _manifest_from_dict(payload: Dict[str, Any]) -> RunManifest:
    fields = dict(payload)
    fields["trace_key"] = tuple(fields.get("trace_key", ()))
    fields.setdefault("extra", None)
    return RunManifest(**fields)


def _stringify_keys(value: Any) -> Any:
    """Recursively coerce dict keys to strings (JSON requires it)."""
    if isinstance(value, dict):
        return {str(key): _stringify_keys(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify_keys(inner) for inner in value]
    return value


# ---------------------------------------------------------------------------
# the journal
# ---------------------------------------------------------------------------


class CheckpointJournal:
    """Append-only NDJSON journal of completed simulation cells."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, JOURNAL_NAME)
        self._handle: Optional[IO[str]] = None

    # -- writing -------------------------------------------------------

    def append(self, request: "RunRequest", report: SimulationReport) -> None:
        """Durably record one completed cell (flush + fsync per line)."""
        entry = {
            "schema": CHECKPOINT_SCHEMA,
            "cell": cell_key(request),
            "trace_key": list(request.resolved_trace_key()),
            "config": request.config.describe(),
            "program": request.program,
            "instructions": request.instructions,
            "seed": request.seed,
            "layout": request.layout,
            "warmup": request.warmup,
            "report": report_to_dict(report),
        }
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the append handle (safe to call repeatedly)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -------------------------------------------------------

    def load(self) -> Dict[str, Dict[str, Any]]:
        """Parse the journal into ``{cell_key: entry}`` (last write
        wins).  Torn tails and foreign lines are skipped, not fatal."""
        entries: Dict[str, Dict[str, Any]] = {}
        if not os.path.exists(self.path):
            return entries
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from a crash mid-append
                if entry.get("schema") != CHECKPOINT_SCHEMA:
                    continue
                if "cell" in entry and "report" in entry:
                    entries[entry["cell"]] = entry
        return entries

    def replay(
        self, requests: Iterable["RunRequest"]
    ) -> Dict["RunRequest", SimulationReport]:
        """Reports for every request the journal already has.

        A journal entry only replays when both the cell key *and* the
        fully resolved trace key match — so a changed
        ``REPRO_TRACE_SCALE`` (which silently rescales every trace)
        invalidates stale entries instead of resurrecting them."""
        entries = self.load()
        replayed: Dict["RunRequest", SimulationReport] = {}
        for request in requests:
            entry = entries.get(cell_key(request))
            if entry is None:
                continue
            if entry.get("trace_key") != list(request.resolved_trace_key()):
                continue
            replayed[request] = report_from_dict(entry["report"])
        return replayed

    def compact(self) -> int:
        """Rewrite the journal via atomic rename, dropping torn tails
        and superseded duplicates; returns the surviving entry count."""
        entries = self.load()
        self.close()
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            for key in sorted(entries):
                handle.write(json.dumps(entries[key], sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        return len(entries)


# ---------------------------------------------------------------------------
# the failure manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: its identity and its last recorded error."""

    request: "RunRequest"
    error_type: str
    message: str
    traceback: str
    attempts: int
    #: ``deterministic`` (same exception twice) or ``exhausted``
    #: (transient failures past ``max_retries``)
    kind: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-encodable manifest entry for this failure."""
        return {
            "cell": cell_key(self.request),
            "config": self.request.config.label(),
            "program": self.request.program,
            "instructions": self.request.instructions,
            "seed": self.request.seed,
            "layout": self.request.layout,
            "kind": self.kind,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "error": self.message,
            "traceback": self.traceback,
        }


def failures_payload(failures: Iterable[CellFailure]) -> Dict[str, Any]:
    """The ``FAILURES.json`` document for *failures*."""
    quarantined: List[Dict[str, Any]] = [
        failure.to_dict() for failure in failures
    ]
    return {
        "schema": CHECKPOINT_SCHEMA,
        "quarantined": quarantined,
        "count": len(quarantined),
    }


def write_failure_manifest(path: str, failures: Iterable[CellFailure]) -> str:
    """Atomically (tmp + rename) write ``FAILURES.json`` to *path*."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(failures_payload(failures), handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path
