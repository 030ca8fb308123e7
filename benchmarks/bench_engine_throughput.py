"""Raw simulator throughput: events/second of the fetch engine.

This is the one benchmark where wall-clock time is the result itself:
it tracks the cost of the hot simulation loop across front-ends — and,
for configurations inside the vectorised engine's supported matrix,
the fast engine's speedup over the reference loop.

Run as a script to regenerate ``docs/PERFORMANCE.md`` from a fresh
standardised engine benchmark (the same measurement ``python -m
repro.harness bench`` writes to ``BENCH_engine.json``)::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
"""

import pathlib
import sys

import pytest

from repro.harness.config import ArchitectureConfig
from repro.workloads.corpus import generate_trace

TRACE_INSTRUCTIONS = 150_000

ENGINE_PARAMS = [
    ("btb", "reference", {"entries": 128}),
    ("btb", "fast", {"entries": 128}),
    ("nls-table", "reference", {"entries": 1024}),
    ("nls-table", "fast", {"entries": 1024}),
    ("steely-sager", "fast", {"entries": 1024}),
    ("nls-cache", "reference", {}),
    ("nls-cache", "fast", {}),
    ("nls-cache", "fast", {"nls_cache_policy": "lru"}),
    ("johnson", "reference", {}),
    ("johnson", "fast", {}),
    ("coupled-btb", "fast", {"entries": 256}),
    ("btb", "fast", {"entries": 128, "btb_assoc": 4}),
    ("nls-table", "fast", {"entries": 1024, "cache_assoc": 4}),
]


@pytest.mark.parametrize("frontend,engine,kwargs", ENGINE_PARAMS)
def test_engine_throughput(benchmark, frontend, engine, kwargs):
    trace = generate_trace("gcc", instructions=TRACE_INSTRUCTIONS)
    config = ArchitectureConfig(
        frontend=frontend, cache_kb=16, engine=engine, **kwargs
    )

    def run():
        return config.build().run(trace)

    report = benchmark(run)
    assert report.n_breaks > 0


#: heading of the hand-maintained ``docs/PERFORMANCE.md`` section that
#: :func:`main` carries over when it regenerates the file
PAPER_SCALE_HEADING = "## Paper scale"


def render_performance_md(payload, sweep_payload=None) -> str:
    """Render the ``docs/PERFORMANCE.md`` speedup table from a
    ``bench_engine`` payload (schema ``repro-bench/v1``); with a
    ``bench_sweep`` payload, append the batched end-to-end numbers."""
    manifest = payload.get("manifest", {})
    extra = manifest.get("extra") or {}
    results = payload["results"]
    lines = [
        "# Engine performance: fast (vectorised) vs reference",
        "",
        "Single-cell throughput of the standardised engine benchmark",
        "(`python -m repro.harness bench`, program "
        f"`{extra.get('program', 'gcc')}`, "
        f"{extra.get('instructions', 0):,} instructions, best of 3).",
        "The fast engine replays the same trace through the array",
        "kernels of `repro.predictors.kernels` and produces a",
        "byte-identical `SimulationReport` (asserted by",
        "`tests/test_fast_engine.py`); `speedup` is the wall-time",
        "ratio against the reference per-branch Python loop.",
        "",
        "| configuration | reference | fast | speedup |",
        "|---|---:|---:|---:|",
    ]
    for label in sorted(results):
        if not label.endswith("-fast"):
            continue
        reference = results.get(label[: -len("-fast")])
        fast = results[label]
        if reference is None:
            continue
        lines.append(
            f"| {label[: -len('-fast')]} "
            f"| {reference['events_per_s']:,.0f} ev/s "
            f"| {fast['events_per_s']:,.0f} ev/s "
            f"| {fast['speedup_vs_reference']:.1f}x |"
        )
    lines += [
        "",
        "The fast engine's matrix is closed over every paper",
        "configuration — all eight front-ends, set-associative caches",
        "under every replacement policy, flush intervals. Only",
        "non-gshare direction predictors and wrong-path modelling fall",
        "back to the reference engine, with the reason stamped in the",
        "run manifest — see `repro.fetch.capability` for the engine",
        "classes and `docs/ARCHITECTURE.md` for the supported-matrix",
        "table and the batched-sweep dispatch seam.",
        "",
    ]
    if sweep_payload is not None:
        sweep_extra = sweep_payload.get("manifest", {}).get("extra") or {}
        sweep_results = sweep_payload["results"]
        classes = sweep_extra.get("engine_classes", {})
        lines += [
            "## Batched sweep (end to end)",
            "",
            "The standard multi-figure sweep "
            f"({sweep_extra.get('cells_unique', 0)} unique cells, figures "
            f"{', '.join(sweep_extra.get('figures', []))}) executed through",
            "the harness, which groups cells by trace and engine class and",
            "replays each group through one shared `TraceReplayContext`:",
            "",
            "| plan | wall | cells/s | speedup |",
            "|---|---:|---:|---:|",
        ]
        for label in ("reference", "fast_serial", "fast_process"):
            metrics = sweep_results.get(label)
            if metrics is None:
                continue
            speedup = metrics.get("speedup_vs_reference")
            lines.append(
                f"| {label} | {metrics['wall_s']:.2f} s "
                f"| {metrics['cells_per_s']:,.0f} "
                f"| {f'{speedup:.1f}x' if speedup else '—'} |"
            )
        lines += [
            "",
            "Dispatch breakdown: "
            f"{classes.get('fast_batched', 0)} fast-batched, "
            f"{classes.get('fast_single', 0)} fast-single, "
            f"{classes.get('fallback', 0)} fallback cells "
            "(the bench gate fails on any fallback).",
            "",
        ]
    lines += [
        "Throughput numbers are machine-dependent; regenerate with",
        "`PYTHONPATH=src python benchmarks/bench_engine_throughput.py`.",
        f"Recorded on: `{manifest.get('platform', 'unknown')}`, "
        f"python `{manifest.get('python', 'unknown')}`.",
        "",
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    """Regenerate ``docs/PERFORMANCE.md`` (and print the table)."""
    from repro.telemetry.bench import SWEEP_BENCH_FILE, bench_engine, load_bench

    argv = list(sys.argv[1:] if argv is None else argv)
    smoke = "--smoke" in argv
    payload = bench_engine(
        instructions=15_000 if smoke else TRACE_INSTRUCTIONS,
        repeats=1 if smoke else 3,
    )
    sweep_path = pathlib.Path(__file__).resolve().parent.parent / SWEEP_BENCH_FILE
    sweep_payload = load_bench(str(sweep_path)) if sweep_path.exists() else None
    text = render_performance_md(payload, sweep_payload)
    out = pathlib.Path(__file__).resolve().parent.parent / "docs" / "PERFORMANCE.md"
    # the paper-scale section is measured with perfbench, not here:
    # keep it across regenerations
    old = out.read_text(encoding="utf-8") if out.exists() else ""
    _, heading, kept = old.partition(PAPER_SCALE_HEADING)
    if heading:
        text += "\n" + heading + kept
    out.write_text(text, encoding="utf-8")
    print(text)
    print(f"[written -> {out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
