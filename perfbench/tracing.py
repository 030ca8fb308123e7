"""Outside-in tracing: spans around the calls into each repro layer.

Nothing in ``src/`` is edited.  :func:`install` rebinds the public entry
points of each layer to thin wrappers that record a span (name, start,
end, parent, run id) in an in-memory :class:`Tracer`, and
:func:`layer_metrics` turns the spans into the per-layer metrics.

=================  =====================================================
layer              entry points wrapped
=================  =====================================================
``workloads``      ``corpus.generate_trace``, ``Trace.packed``
``fast_engine``    ``TraceReplayContext(trace)`` and ``.prepare``, the
                   sort families ``.icache`` / ``.gshare`` /
                   ``.frontend_replay``, ``FastEngine.run``
``runner``         ``RunPlan.execute``; the pool's per-batch worker task
``experiments``    ``ExperimentSpec.plan`` (``finish`` is timed by the
                   caller, which invokes it directly)
=================  =====================================================

Pool workers are forked from the traced process, so they inherit the
wrappers; each worker writes its spans and its ``VmHWM`` to the run
directory after every batch, before the batch result reaches the parent.
The service's layer is timed from the client side (see
:mod:`service_load`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from procs import rss_mb, status_kb

#: span name -> per-layer time metric its self time adds to
SELF_TIME_METRICS = {
    "workloads.generate": "workloads.generate_s",
    "workloads.pack": "workloads.pack_s",
    "fast_engine.context": "fast_engine.prepare_s",
    "fast_engine.prepare": "fast_engine.prepare_s",
    "fast_engine.icache": "fast_engine.icache_s",
    "fast_engine.gshare": "fast_engine.gshare_s",
    "fast_engine.frontend": "fast_engine.frontend_s",
    "fast_engine.run": "fast_engine.report_s",
    "experiments.plan": "experiments.plan_s",
    "experiments.finish": "experiments.finish_s",
}


class Tracer:
    """In-memory span recorder for one process (reset in forked children)."""

    def __init__(self, run_id: str, out_dir: Path) -> None:
        self.run_id = run_id
        self.out_dir = out_dir
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record one span; the yielded dict takes attributes set inside."""
        stack = self._stack()
        span_id = f"{self.pid}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "run_id": self.run_id,
                "pid": self.pid,
                "attrs": attrs,
            }
            with self._lock:
                self.spans.append(record)

    def flush(self) -> None:
        """Append this process's spans to ``spans-<pid>.jsonl`` and forget them."""
        with self._lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record) + "\n")


def read_spans(directory: Path) -> List[Dict[str, Any]]:
    """Every span flushed to *directory* by any process."""
    spans: List[Dict[str, Any]] = []
    for path in sorted(directory.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


class Patches:
    """Attribute rebinding with an exact undo."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def rebind_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Point every loaded ``repro`` module's reference to *original*
        (``from x import f`` copies included) at *wrapper*."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def install_worker_hook(
    patches: Patches, run_dir: Path, tracer: Optional[Tracer]
) -> None:
    """Wrap the pool's per-batch worker task so each worker reports its
    ``VmHWM``, its CPU seconds (and, when traced, its spans) after every
    batch.

    The wrapper keeps the task's module and qualified name, so the pool
    pickles it by reference and forked workers resolve it to this
    wrapper."""
    from repro.harness import runner

    original = runner._run_batch_outcomes

    @functools.wraps(original)
    def batch_task(batch, cell_timeout=None):
        if tracer is None:
            outcome = original(batch, cell_timeout)
        else:
            with tracer.span("runner.batch", cells=len(batch)):
                outcome = original(batch, cell_timeout)
            tracer.flush()
        pid = os.getpid()
        (run_dir / f"hwm-{pid}.txt").write_text(str(status_kb(pid, "VmHWM")))
        (run_dir / f"cpu-{pid}.txt").write_text(repr(time.process_time()))
        return outcome

    patches.set(runner, "_run_batch_outcomes", batch_task)


def install(patches: Patches, tracer: Tracer) -> None:
    """Wrap every layer entry point listed in the module docstring."""
    from repro.fetch import fast_engine
    from repro.harness import runner, spec
    from repro.workloads import corpus, trace as trace_module

    os.register_at_fork(after_in_child=tracer._reset)

    original_generate = corpus.generate_trace

    @functools.wraps(original_generate)
    def generate_trace(name, instructions=None, seed=None, layout="natural"):
        key = corpus.trace_key(
            name, instructions=instructions, seed=seed, layout=layout
        )
        miss = key not in corpus._CACHE
        with tracer.span("workloads.generate", program=name, miss=miss) as attrs:
            trace = original_generate(
                name, instructions=instructions, seed=seed, layout=layout
            )
            if miss:
                attrs["instructions"] = trace.n_instructions
        attrs["rss_mb"] = rss_mb()
        return trace

    patches.rebind_everywhere(original_generate, generate_trace)

    Trace = trace_module.Trace
    original_packed = Trace.packed

    @functools.wraps(original_packed)
    def packed(self):
        with tracer.span("workloads.pack", fresh=self._packed is None) as attrs:
            columns = original_packed(self)
        attrs["rss_mb"] = rss_mb()
        return columns

    patches.set(Trace, "packed", packed)

    Context = fast_engine.TraceReplayContext
    original_init = Context.__init__

    @functools.wraps(original_init)
    def context_init(self, trace):
        with tracer.span(
            "fast_engine.context", trace=[trace.name, trace.n_events]
        ):
            original_init(self, trace)

    patches.set(Context, "__init__", context_init)

    def timed_method(owner, attr, span_name):
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                return original(*args, **kwargs)

        patches.set(owner, attr, wrapper)

    timed_method(Context, "prepare", "fast_engine.prepare")
    timed_method(Context, "icache", "fast_engine.icache")
    timed_method(Context, "gshare", "fast_engine.gshare")
    timed_method(Context, "frontend_replay", "fast_engine.frontend")
    timed_method(spec.ExperimentSpec, "plan", "experiments.plan")

    original_run = fast_engine.FastEngine.run

    @functools.wraps(original_run)
    def engine_run(self, *args, **kwargs):
        with tracer.span("fast_engine.run") as attrs:
            report = original_run(self, *args, **kwargs)
        attrs["rss_mb"] = rss_mb()
        return report

    patches.set(fast_engine.FastEngine, "run", engine_run)

    original_execute = runner.RunPlan.execute

    @functools.wraps(original_execute)
    def execute(self, backend="serial", jobs=None, *args, **kwargs):
        workers = 1
        if backend == "process":
            workers = jobs if jobs and jobs > 0 else os.cpu_count() or 1
        with tracer.span(
            "runner.execute", backend=backend, workers=workers, cells=self.unique
        ):
            return original_execute(self, backend, jobs, *args, **kwargs)

    patches.set(runner.RunPlan, "execute", execute)


def _self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent in own:
            own[parent] -= span["end"] - span["start"]
    return own


def layer_metrics(spans: List[Dict[str, Any]], bench_pid: int) -> Dict[str, float]:
    """Per-layer metrics of the ``workloads``, ``fast_engine``, ``runner``
    and ``experiments`` layers (zero where a layer did no work)."""
    own = _self_times(spans)
    metrics: Dict[str, float] = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    for span in spans:
        metric = SELF_TIME_METRICS.get(span["name"])
        if metric is not None:
            metrics[metric] += own[span["id"]]

    generated = [
        span
        for span in spans
        if span["name"] == "workloads.generate" and span["attrs"].get("miss")
    ]
    instructions = sum(span["attrs"].get("instructions", 0) for span in generated)
    generate_time = sum(span["end"] - span["start"] for span in generated)
    metrics["workloads.generate_minstr_per_s"] = (
        instructions / 1e6 / generate_time if generate_time else 0.0
    )

    def peak_rss(*names: str) -> float:
        return max(
            (
                span["attrs"].get("rss_mb", 0.0)
                for span in spans
                if span["name"] in names
            ),
            default=0.0,
        )

    metrics["workloads.rss_after_mb"] = peak_rss(
        "workloads.generate", "workloads.pack"
    )
    metrics["fast_engine.rss_after_mb"] = peak_rss("fast_engine.run")

    contexts = [span for span in spans if span["name"] == "fast_engine.context"]
    traces = {tuple(span["attrs"]["trace"]) for span in contexts}
    metrics["fast_engine.contexts"] = float(len(contexts))
    metrics["fast_engine.contexts_per_trace"] = (
        len(contexts) / len(traces) if traces else 0.0
    )

    # pool efficiency: layer work done for the plan (worker batch spans,
    # or in-process spans directly under an execute) over the capacity
    # the execute offered (workers x its wall time)
    executes = [span for span in spans if span["name"] == "runner.execute"]
    capacity = sum(
        span["attrs"]["workers"] * (span["end"] - span["start"]) for span in executes
    )
    execute_ids = {span["id"] for span in executes}
    busy = 0.0
    for span in spans:
        in_worker = span["pid"] != bench_pid and span["name"] == "runner.batch"
        if in_worker or span["parent"] in execute_ids:
            busy += span["end"] - span["start"]
    metrics["runner.execute_s"] = sum(
        span["end"] - span["start"] for span in executes
    )
    metrics["runner.pool_efficiency"] = busy / capacity if capacity else 0.0
    return metrics
