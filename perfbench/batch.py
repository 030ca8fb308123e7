"""Batch workloads: one registered experiment run the way the CLI runs it.

``fig5-paper`` is ``fig5`` at the paper's trace lengths on the serial
backend; ``server-replay`` (not in ``BENCHMARK.json``, for manual runs)
is ``replay`` over the two server profiles on the process backend with
two workers.  Every cell uses the fast engine.

Every seed simulates the programs' calibrated traces: a trace seed picks
a different synthetic program, whose footprint changes the amount of
work, so runs of different seeds would not be comparable.  Each run
checks every cell's report against digests recorded once with the
reference engine, and ``fig5``'s chart against the committed
``results/fig5.txt``.

Times are CPU seconds of the bench process (which runs the plan) and
its pool workers.  As each cell completes it is written to a result
store and resubmitted (three times) as a one-cell plan against that
store, the way a user re-running it with ``--store`` is served;
``repeat_cpu_ms`` is the mean CPU time of those ``RunPlan.execute``
calls in the best of :data:`common.REPEAT_WINDOWS` windows, and the
resubmissions are left out of the pass's own clocks.  ``setup_s`` is
the CPU time of a fresh interpreter importing the program and building
the plan.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import checks
from common import REPEAT_ROUNDS, ROOT, SETUP_REPEATS, RunContext, cold_start, windows
from procs import PeakRss, workers_cpu_s
from tracing import (
    Patches,
    Tracer,
    install,
    install_worker_hook,
    layer_metrics,
    read_spans,
)


@dataclass(frozen=True)
class BatchWorkload:
    experiment: str
    backend: str
    jobs: Optional[int]
    #: committed rendering the chart must equal (at full scale)
    committed: Optional[str] = None


WORKLOADS = {
    "fig5-paper": BatchWorkload("fig5", "serial", None, committed="results/fig5.txt"),
    "server-replay": BatchWorkload("replay", "process", 2),
}

#: per-layer metrics of the service and store, which batch runs bypass
SERVICE_LAYER_METRICS = (
    "service.jobs_per_s",
    "service.job_fresh_p50_s",
    "service.job_repeat_p50_s",
    "service.job_p95_s",
    "service.submit_s",
    "service.queue_wait_s",
    "service.run_s",
    "service.result_s",
    "store.hit_ratio",
    "store.cells_computed",
)


def build_plan(workload: BatchWorkload):
    """The experiment's plan with every cell on the fast engine."""
    from repro.harness.experiments import SPECS
    from repro.harness.spec import with_engine

    return with_engine([SPECS[workload.experiment].plan()], "fast")[0]


@dataclass
class Pass:
    """One execution of the workload's plan."""

    reports: Dict[Any, Any]
    rendered: str
    wall_s: float
    #: CPU seconds of the bench process and its pool workers
    cpu_s: float
    #: (cell, CPU seconds of its resubmission, report it was served)
    repeats: List[Tuple[Any, float, Any]]


def _execute(
    workload: BatchWorkload, plan, run_dir, tracer: Optional[Tracer], store=None
) -> Pass:
    """Timed phase: execute → rendered result, from a cold trace corpus.

    With a result *store*, every completed cell is persisted and then
    resubmitted :data:`REPEAT_ROUNDS` times as a one-cell plan served
    from the store, the way a user re-running it with ``--store`` is
    served; each resubmission's CPU time is recorded and their time is
    left out of the pass's own clocks."""
    from repro.harness.runner import RunPlan
    from repro.workloads.corpus import clear_cache

    clear_cache()
    repeats: List[Tuple[Any, float, Any]] = []
    paused_wall = paused_cpu = 0.0

    def observer(event, request, payload):
        nonlocal paused_wall, paused_cpu
        if store is None or event != "completed":
            return
        wall, cpu = time.perf_counter(), time.process_time()
        store.put(request, payload)
        for _ in range(REPEAT_ROUNDS):
            submitted = time.process_time()
            served = RunPlan([request]).execute(store=store).get(request)
            repeats.append((request, time.process_time() - submitted, served))
        paused_wall += time.perf_counter() - wall
        paused_cpu += time.process_time() - cpu

    workers_cpu = workers_cpu_s(run_dir)
    started, started_cpu = time.perf_counter(), time.process_time()
    reports = RunPlan(plan.cells).execute(
        backend=workload.backend, jobs=workload.jobs, observer=observer
    )
    if tracer is None:
        rendered = str(plan.finish(reports))
    else:
        with tracer.span("experiments.finish"):
            rendered = str(plan.finish(reports))
    wall = time.perf_counter() - started - paused_wall
    cpu = time.process_time() - started_cpu - paused_cpu
    cpu += workers_cpu_s(run_dir) - workers_cpu
    return Pass(reports, rendered, wall, cpu, repeats)


def _cold_starts(ctx: RunContext, count: int) -> List[float]:
    """CPU seconds of fresh interpreters importing the program and
    building the plan."""
    return [cold_start(ctx, ["plan", ctx.workload]) for _ in range(count)]


def _repeat_failures(one: Pass) -> int:
    """Resubmissions that are missing (the runner swallows observer
    errors) or were not served the cell's report unchanged."""
    return (REPEAT_ROUNDS * len(one.reports) - len(one.repeats)) + sum(
        served is None or checks.digest(served) != checks.digest(one.reports[request])
        for request, _, served in one.repeats
    )


def _check(ctx: RunContext, workload: BatchWorkload, reports, rendered):
    """(outputs checked, outputs wrong): every cell, plus the chart."""
    attempted = len(reports)
    expected = checks.load_digests().get(f"{ctx.workload}@{ctx.scale:g}", {})
    failed = len(checks.digest_failures(reports, expected))
    if workload.committed is not None and ctx.scale == 1.0:
        attempted += 1
        failed += not checks.chart_matches(rendered, ROOT / workload.committed)
    return attempted, failed


def run(ctx: RunContext) -> Dict[str, Any]:
    """Run the workload; returns the result fields for :mod:`run`."""
    workload = WORKLOADS[ctx.workload]
    return _traced(ctx, workload) if ctx.trace else _measured(ctx, workload)


def _measured(ctx: RunContext, workload: BatchWorkload) -> Dict[str, Any]:
    from repro.service.store import ResultStore

    # cold starts on both sides of the passes, so a slow spell of the
    # host does not set them all
    setups = _cold_starts(ctx, SETUP_REPEATS // 2)
    plan = build_plan(workload)
    passes: List[Pass] = []
    patches = Patches()
    install_worker_hook(patches, ctx.run_dir, None)
    try:
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < ctx.seconds:
            store = ResultStore(str(ctx.run_dir / f"store-{len(passes)}.sqlite"))
            try:
                passes.append(_execute(workload, plan, ctx.run_dir, None, store))
            finally:
                store.close()
    finally:
        patches.undo()
    rss = PeakRss()
    rss.sample()
    rss.absorb_files(ctx.run_dir)
    setups += _cold_starts(ctx, SETUP_REPEATS - len(setups))

    last = passes[-1]
    attempted, failed = _check(ctx, workload, last.reports, last.rendered)
    for other in passes[:-1]:
        failed += sum(
            checks.digest(other.reports[request]) != checks.digest(report)
            for request, report in last.reports.items()
        )
    failed += sum(_repeat_failures(one) for one in passes)

    # totals over passes: the run's figure covers its whole measured time
    cpu = sum(one.cpu_s for one in passes)
    minstr = sum(request.resolved_trace_key()[1] for request in last.reports) / 1e6
    repeats = [cpu_s for one in passes for _, cpu_s, _ in one.repeats]
    best = min(sum(window) / len(window) for window in windows(repeats))
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setups),
            "cpu_s": cpu / len(passes),
            "sim_minstr_per_cpu_s": minstr * len(passes) / cpu,
            "peak_rss_mb": rss.peak_mb(),
            "repeat_cpu_ms": 1e3 * best,
        },
    }


def _traced(ctx: RunContext, workload: BatchWorkload) -> Dict[str, Any]:
    """An untraced pass, then a traced pass whose reports must equal it."""
    plan = build_plan(workload)
    untraced = _execute(workload, plan, ctx.run_dir, None)

    span_dir = ctx.run_dir / "spans"
    span_dir.mkdir()
    tracer = Tracer(ctx.run_id, span_dir)
    patches = Patches()
    install(patches, tracer)
    install_worker_hook(patches, ctx.run_dir, tracer)
    try:
        plan = build_plan(workload)
        traced = _execute(workload, plan, ctx.run_dir, tracer)
    finally:
        patches.undo()
    tracer.flush()
    spans = read_spans(span_dir)
    ctx.save_spans(spans)

    failed = sum(
        checks.digest(traced.reports[request]) != checks.digest(report)
        for request, report in untraced.reports.items()
    )
    metrics = layer_metrics(spans, ctx.bench_pid)
    metrics.update(dict.fromkeys(SERVICE_LAYER_METRICS, 0.0))
    metrics.update(
        {
            "trace.untraced_wall_s": untraced.wall_s,
            "trace.traced_wall_s": traced.wall_s,
            "trace.overhead_s": traced.wall_s - untraced.wall_s,
        }
    )
    return {"attempted": len(untraced.reports), "failed": failed, "metrics": metrics}
