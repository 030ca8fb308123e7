"""service-mixed: a ``serve`` subprocess driven by a closed loop of clients.

Two client threads each send their next job only after the previous one
returned its result.  Each job holds four cells at 100k instructions,
drawn by seed from {btb, nls-table} x 8 table sizes x 5 cache sizes x
3 cache associativities x the six paper programs, on the fast engine.
Every other job of a client resubmits one of its own earlier jobs, so
store reads run beside fresh computes and store writes.  After the
last closed-loop pass of a run, a repeat phase resubmits every completed
fresh job of that pass, one at a time, :data:`REPEAT_ROUNDS` times.

The end-to-end figures are CPU seconds of the ``serve`` process, read
from ``/proc``: under the closed loop (``cpu_s``), and per resubmitted
job in the best window of the repeat phase (``repeat_cpu_ms``).  The
host-time job figures below are reported by traced runs.

A job's latency runs from the start of its ``POST /api/v1/jobs`` to the
end of its ``GET .../result``; the client also reads the ``/events``
NDJSON stream (whose ``t_s`` stamps give queue wait and run time) and
``GET .../manifest``.  A refused (non-202) submission, a job that does
not complete, a quarantined cell, or a resubmission whose reports
differ from its first submission's counts as a failed job.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import checks
from common import (
    HERE,
    REPEAT_ROUNDS,
    ROOT,
    SETUP_REPEATS,
    RunContext,
    percentile,
    windows,
)
from procs import PeakRss, cpu_s
from tracing import layer_metrics, read_spans

CLIENTS = 2
JOBS_PER_CLIENT = 100
CELLS_PER_JOB = 4
INSTRUCTIONS = 100_000
FRONTENDS = ("btb", "nls-table")
ENTRIES = (32, 64, 128, 256, 512, 1024, 2048, 4096)
CACHE_KB = (4, 8, 16, 32, 64)
CACHE_ASSOC = (1, 2, 4)
PROGRAMS = ("doduc", "espresso", "gcc", "li", "cfront", "groff")
#: computed cells re-simulated with the reference engine after the run
REFERENCE_SAMPLE = 4


@dataclass
class Job:
    """One scheduled submission of a client."""

    spec: Dict[str, Any]
    #: index (in the client's schedule) of the job this one resubmits
    repeat_of: Optional[int] = None


@dataclass
class Outcome:
    """What the client observed for one job."""

    job: Job
    failed: bool = False
    reason: str = ""
    latency_s: float = 0.0
    submit_s: float = 0.0
    result_s: float = 0.0
    queue_wait_s: Optional[float] = None
    run_s: Optional[float] = None
    #: cell key -> (source, digest of the simulated report)
    cells: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def schedules(seed: int, clients: int, jobs: int) -> List[List[Job]]:
    """Each client's job list: a fresh job at even positions and, at odd
    positions, a resubmission of one of the client's earlier fresh jobs.

    Fresh cells are distinct points of the configuration space, dealt
    round-robin over the (program, frontend) strata in a seeded order,
    so every seed computes the same number of cells with the same mix of
    programs and front-ends."""
    rng = random.Random(f"service-mixed:{seed}")
    strata: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for frontend, entries, cache_kb, assoc, program in itertools.product(
        FRONTENDS, ENTRIES, CACHE_KB, CACHE_ASSOC, PROGRAMS
    ):
        cell = {
            "config": {
                "frontend": frontend,
                "entries": entries,
                "cache_kb": cache_kb,
                "cache_assoc": assoc,
            },
            "program": program,
            "instructions": INSTRUCTIONS,
        }
        strata.setdefault((program, frontend), []).append(cell)
    for cells in strata.values():
        rng.shuffle(cells)
    order = sorted(strata)
    rng.shuffle(order)
    dealt: List[Dict[str, Any]] = []
    while strata[order[0]]:
        dealt.extend(strata[key].pop() for key in order)
    deal = iter(dealt)

    plans: List[List[Job]] = [[] for _ in range(clients)]
    for index in range(jobs):
        for client, plan in enumerate(plans):
            if index % 2:
                first = rng.choice(range(0, index, 2))
                plan.append(Job(plan[first].spec, repeat_of=first))
                continue
            cells = [next(deal) for _ in range(CELLS_PER_JOB)]
            name = f"mixed-{client}-{index}"
            plan.append(Job({"cells": cells, "name": name, "engine": "fast"}))
    return plans


class Client:
    """Minimal HTTP/1.1 client for the service API (one connection per call)."""

    def __init__(self, base_url: str) -> None:
        parts = urlsplit(base_url)
        self.host, self.port = parts.hostname, parts.port

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def call(self, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
        conn = self._connect()
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, json.loads(data) if data else None
        finally:
            conn.close()

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        conn = self._connect()
        try:
            conn.request("GET", f"/api/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            return [json.loads(line) for line in response if line.strip()]
        finally:
            conn.close()

    def run_job(self, job: Job) -> Outcome:
        """Submit, stream events, fetch result and manifest."""
        outcome = Outcome(job)
        started = time.perf_counter()
        status, body = self.call("POST", "/api/v1/jobs", job.spec)
        outcome.submit_s = time.perf_counter() - started
        if status != 202:
            outcome.failed, outcome.reason = True, f"submit answered {status}"
            return outcome
        job_id = body["job_id"]
        stamps = {event["event"]: event["t_s"] for event in self.events(job_id)}
        asked = time.perf_counter()
        status, result = self.call("GET", f"/api/v1/jobs/{job_id}/result")
        outcome.result_s = time.perf_counter() - asked
        outcome.latency_s = time.perf_counter() - started
        manifest_status, _ = self.call("GET", f"/api/v1/jobs/{job_id}/manifest")
        if "job-completed" not in stamps or status != 200 or manifest_status != 200:
            outcome.failed = True
            outcome.reason = f"job ended without a result ({status})"
            return outcome
        if "job-started" in stamps and "job-queued" in stamps:
            outcome.queue_wait_s = stamps["job-started"] - stamps["job-queued"]
            outcome.run_s = stamps["job-completed"] - stamps["job-started"]
        for cell in result["cells"]:
            report = cell["report"]
            if cell["source"] not in ("computed", "store") or report is None:
                outcome.failed, outcome.reason = True, f"cell {cell['source']}"
            outcome.cells[cell["cell"]] = (
                cell["source"],
                "" if report is None else checks.digest_dict(report),
            )
        return outcome


def run_clients(
    base_url: str, schedules: List[List[Job]]
) -> Tuple[List[List[Outcome]], float]:
    """Closed loop: one thread per schedule; returns outcomes and wall time."""
    client = Client(base_url)

    def loop(plan: List[Job]) -> List[Outcome]:
        outcomes: List[Outcome] = []
        for job in plan:
            outcome = client.run_job(job)
            if job.repeat_of is not None:
                _check_repeat(outcome, outcomes[job.repeat_of])
            outcomes.append(outcome)
        return outcomes

    started = time.perf_counter()
    with ThreadPoolExecutor(len(schedules)) as pool:
        futures = [pool.submit(loop, plan) for plan in schedules]
        results = [future.result() for future in futures]
    return results, time.perf_counter() - started


def _check_repeat(outcome: Outcome, first: Outcome) -> None:
    """A resubmission must read only the store and match its first submission."""
    if outcome.failed or first.failed:
        return
    if any(source != "store" for source, _ in outcome.cells.values()):
        outcome.failed, outcome.reason = True, "resubmission recomputed cells"
    elif {key: d for key, (_, d) in outcome.cells.items()} != {
        key: d for key, (_, d) in first.cells.items()
    }:
        outcome.failed = True
        outcome.reason = "resubmission differs from first submission"


class Server:
    """A ``serve`` subprocess on an ephemeral port with a private store."""

    def __init__(
        self, ctx: RunContext, name: str, span_dir: Optional[Path] = None
    ) -> None:
        store = ctx.run_dir / f"{name}.sqlite"
        args = ["--store", str(store), "--port", "0"]
        if span_dir is None:
            command = [sys.executable, "-m", "repro.harness", "serve", *args]
        else:
            child = [str(HERE / "child.py"), "serve", str(span_dir), ctx.run_id]
            command = [sys.executable, *child, *args]
        self._log = open(ctx.run_dir / f"{name}.log", "w")
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=ctx.child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            self.url = self._await_url()
            self._await_ready()
        except BaseException:
            self.stop(None)
            raise
        #: CPU seconds from spawn to the first 200 on ``/readyz``
        self.setup_s = self.cpu_s()

    def cpu_s(self) -> float:
        """CPU seconds the server has used so far."""
        used = cpu_s(self.process.pid)
        if used is None:
            raise RuntimeError(f"serve exited (code {self.process.poll()})")
        return used

    def _await_url(self) -> str:
        for line in self.process.stdout:
            if line.startswith("serving on "):
                return line.split()[-1]
        raise RuntimeError(f"serve exited before binding (exit {self.process.wait()})")

    def _await_ready(self, timeout: float = 60.0) -> None:
        client = Client(self.url)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if client.call("GET", "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("serve never answered 200 on /readyz")

    def stop(self, rss: Optional[PeakRss]) -> None:
        """Record the server's high-water RSS, then drain it with SIGTERM."""
        if rss is not None:
            rss.sample(self.process.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self._log.close()


def _jobs_per_client(scale: float) -> int:
    return max(4, round(JOBS_PER_CLIENT * min(1.0, scale)))


@dataclass
class Pass:
    """One server's life under the closed loop."""

    outcomes: List[Outcome]
    wall_s: float
    #: CPU seconds of the server under the closed loop
    cpu_s: float


def _load(ctx: RunContext, server: Server) -> Pass:
    plans = schedules(ctx.seed, CLIENTS, _jobs_per_client(ctx.scale))
    started = server.cpu_s()
    results, wall = run_clients(server.url, plans)
    outcomes = [outcome for outcomes in results for outcome in outcomes]
    return Pass(outcomes, wall, server.cpu_s() - started)


def repeat_phase(server: Server, firsts: List[Outcome]) -> Tuple[List[Outcome], float]:
    """Resubmit each job of *firsts* :data:`REPEAT_ROUNDS` times, one at a
    time; each must be served from the store and match its first
    submission.  Returns the outcomes and the server's CPU seconds per
    job in the best of the phase's windows."""
    client = Client(server.url)
    jobs = [
        (index, first)
        for _ in range(REPEAT_ROUNDS)
        for index, first in enumerate(firsts)
    ]
    outcomes, costs = [], []
    for window in windows(jobs):
        started = server.cpu_s()
        for index, first in window:
            outcome = client.run_job(Job(first.job.spec, repeat_of=index))
            _check_repeat(outcome, first)
            outcomes.append(outcome)
        costs.append((server.cpu_s() - started) / len(window))
    return outcomes, min(costs)


def _cell_requests(outcomes: List[Outcome]) -> Dict[str, Any]:
    """Cell key -> fast-engine RunRequest of every cell the jobs asked for."""
    from dataclasses import replace

    from repro.harness.checkpoint import cell_key
    from repro.service.protocol import request_from_dict

    requests = {}
    for outcome in outcomes:
        for wire in outcome.job.spec["cells"]:
            request = request_from_dict(wire)
            request = replace(request, config=replace(request.config, engine="fast"))
            requests[cell_key(request)] = request
    return requests


def _reference_failures(ctx: RunContext, outcomes: List[Outcome]) -> int:
    """Re-simulate a seeded sample of computed cells with the reference engine."""
    served = {
        key: digest
        for outcome in outcomes
        for key, (source, digest) in outcome.cells.items()
        if source == "computed"
    }
    count = min(REFERENCE_SAMPLE, len(served))
    keys = random.Random(ctx.seed).sample(sorted(served), count)
    sample = {key: served[key] for key in keys}
    wrong = checks.reference_failures(_cell_requests(outcomes), sample)
    for key in wrong:
        print(f"cell {key}: differs from the reference engine", file=sys.stderr)
    return len(wrong)


def _minstr(outcomes: List[Outcome]) -> float:
    """Simulated instructions (millions) of the unique cells computed."""
    requests = _cell_requests(outcomes)
    computed = {
        key
        for outcome in outcomes
        for key, (source, _) in outcome.cells.items()
        if source == "computed"
    }
    return sum(requests[key].resolved_trace_key()[1] for key in computed) / 1e6


def run(ctx: RunContext) -> Dict[str, Any]:
    """Run the workload; returns the result fields for :mod:`run`."""
    return _traced(ctx) if ctx.trace else _measured(ctx)


def _cold_starts(ctx: RunContext, count: int, name: str) -> List[float]:
    """CPU seconds of ``serve`` from spawn to the first 200 on ``/readyz``,
    for *count* servers."""
    setups = []
    for index in range(count):
        server = Server(ctx, f"{name}-{index}")
        setups.append(server.setup_s)
        server.stop(None)
    return setups


def _failures(ctx: RunContext, outcomes: List[Outcome]) -> int:
    """Failed jobs among *outcomes*, plus computed cells the reference
    engine disagrees with."""
    failed = 0
    for outcome in outcomes:
        if outcome.failed:
            failed += 1
            print(f"{outcome.job.spec['name']}: {outcome.reason}", file=sys.stderr)
    return failed + _reference_failures(ctx, outcomes)


def _latencies(outcomes: List[Outcome], wall: float) -> Dict[str, float]:
    """Host-time figures of one closed-loop pass of *wall* seconds."""
    ok = [outcome for outcome in outcomes if not outcome.failed]
    fresh = [
        o.latency_s
        for o in ok
        if o.job.repeat_of is None
        and any(source == "computed" for source, _ in o.cells.values())
    ]
    # a failed job counts as missing any latency limit: it is ranked as
    # slow as the whole pass, which no job can exceed
    latencies = [wall if o.failed else o.latency_s for o in outcomes]
    return {
        "service.jobs_per_s": len(ok) / wall,
        "service.job_fresh_p50_s": percentile(fresh, 50),
        "service.job_repeat_p50_s": percentile(
            [o.latency_s for o in ok if o.job.repeat_of is not None], 50
        ),
        "service.job_p95_s": percentile(latencies, 95),
    }


def _measured(ctx: RunContext) -> Dict[str, Any]:
    rss = PeakRss()
    # cold starts on both sides of the passes (each pass adds its own),
    # so a slow spell of the host does not set them all
    setups = _cold_starts(ctx, SETUP_REPEATS // 2, "setup-before")
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        server = Server(ctx, f"store-{len(passes)}")
        setups.append(server.setup_s)
        try:
            passes.append(_load(ctx, server))
            last = time.perf_counter() - started >= ctx.seconds
            if last:
                # the last pass's server, its store full, serves the
                # repeat phase
                firsts = [
                    o
                    for o in passes[-1].outcomes
                    if o.job.repeat_of is None and not o.failed
                ]
                repeats, repeat_cpu = repeat_phase(server, firsts)
        finally:
            server.stop(rss)
        if last:
            break
    rss.sample()
    setups += _cold_starts(ctx, SETUP_REPEATS // 2, "setup-after")

    outcomes = [outcome for one in passes for outcome in one.outcomes] + repeats
    # totals over passes: the run's figure covers its whole measured time
    cpu = sum(one.cpu_s for one in passes)
    return {
        "attempted": len(outcomes),
        "failed": _failures(ctx, outcomes),
        "metrics": {
            "setup_s": statistics.median(setups),
            "cpu_s": cpu / len(passes),
            "sim_minstr_per_cpu_s": sum(_minstr(one.outcomes) for one in passes) / cpu,
            "peak_rss_mb": rss.peak_mb(),
            "repeat_cpu_ms": 1e3 * repeat_cpu,
        },
    }


def _traced(ctx: RunContext) -> Dict[str, Any]:
    """An untraced pass, then a pass against a traced server; the traced
    pass's cell reports must equal the untraced pass's.  The host-time
    job figures come from the untraced pass."""
    server = Server(ctx, "untraced")
    try:
        untraced = _load(ctx, server)
    finally:
        server.stop(None)
    span_dir = ctx.run_dir / "spans"
    span_dir.mkdir()
    server = Server(ctx, "traced", span_dir)
    try:
        traced = _load(ctx, server)
    finally:
        server.stop(None)
    spans = read_spans(span_dir)
    ctx.save_spans(spans)

    expected = {key: d for o in untraced.outcomes for key, (_, d) in o.cells.items()}
    failed = _failures(ctx, untraced.outcomes + traced.outcomes)
    failed += sum(
        any(expected.get(key) != d for key, (_, d) in o.cells.items())
        for o in traced.outcomes
    )
    ok = [o for o in traced.outcomes if not o.failed]
    stamped = [o for o in ok if o.queue_wait_s is not None]
    sources = [source for o in ok for source, _ in o.cells.values()]
    metrics = layer_metrics(spans, ctx.bench_pid)
    metrics.update(_latencies(untraced.outcomes, untraced.wall_s))
    metrics.update(
        {
            "service.submit_s": percentile([o.submit_s for o in ok], 50),
            "service.queue_wait_s": percentile([o.queue_wait_s for o in stamped], 50),
            "service.run_s": percentile([o.run_s for o in stamped], 50),
            "service.result_s": percentile([o.result_s for o in ok], 50),
            "store.hit_ratio": sources.count("store") / len(sources),
            "store.cells_computed": float(sources.count("computed")),
            "trace.untraced_wall_s": untraced.wall_s,
            "trace.traced_wall_s": traced.wall_s,
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
        }
    )
    attempted = len(untraced.outcomes) + len(traced.outcomes)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}
