"""Paper-scale, layered benchmark of the NLS/BTB front-end simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig5-paper --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``fig5-paper``    -- ``fig5`` at paper trace lengths, serial backend,
  each completed cell resubmitted from a result store;
* ``service-mixed`` -- a ``serve`` subprocess under a closed loop of
  two clients submitting 200 four-cell jobs a pass, half of them repeats;
* ``server-replay`` -- ``replay`` over the server profiles, 2-worker
  pool (manual runs only: not one of ``BENCHMARK.json``'s workloads).

With ``--trace 0`` the last stdout line reports every end-to-end metric;
with ``--trace 1`` an untraced pass is followed by a traced pass and the
line reports every per-layer metric plus the tracing overhead.  Every
run checks the program's outputs; ``failed``/``attempted`` is the
workload's error rate.  Passes repeat until ``--seconds`` have elapsed
(at least one), and times are taken over all of them.

Each run is cold and hermetic: ``REPRO_TRACE_SCALE``,
``REPRO_TRACE_CACHE_DIR`` and ``REPRO_EXTERNAL_TRACE_DIR`` are removed
from the environment, and stores, spans and temporary files go to a
fresh directory under ``.perfbench/runs`` that is deleted at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig5-paper", "server-replay", "service-mixed")
#: prefixes of the environment variables a run records
RECORDED_ENV = ("REPRO_", "PYTHON", "OMP_", "OPENBLAS_", "MKL_")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply every trace length (self-tests only; checks that "
        "need paper scale are skipped below 1)",
    )
    return parser.parse_args(argv)


def declared_metrics(trace: bool):
    """(name, unit) of every metric the run must report, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from common import STRIPPED_ENV, RunContext
    from procs import cpu_ticks, steal_share

    stripped = sorted(
        name for name in STRIPPED_ENV if os.environ.pop(name, None) is not None
    )
    if args.scale != 1.0:
        os.environ["REPRO_TRACE_SCALE"] = repr(args.scale)
    out_dir = ROOT / ".perfbench"
    (out_dir / "runs").mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir / "runs"))
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = None
    ctx = RunContext(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
        run_dir=run_dir,
        run_id=uuid.uuid4().hex[:12],
        out_dir=out_dir,
        bench_pid=os.getpid(),
    )
    import numpy

    print(
        json.dumps(
            {
                "run": {
                    "run_id": ctx.run_id,
                    "workload": ctx.workload,
                    "seed": ctx.seed,
                    "seconds": ctx.seconds,
                    "trace": ctx.trace,
                    "scale": ctx.scale,
                    "cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "platform": platform.platform(),
                    "env_stripped": stripped,
                    "env": {
                        key: value
                        for key, value in os.environ.items()
                        if key.startswith(RECORDED_ENV)
                    },
                }
            }
        ),
        flush=True,
    )
    if ctx.workload == "service-mixed":
        import service_load as workload
    else:
        import batch as workload
    ticks = cpu_ticks()
    try:
        result = workload.run(ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    # CPU time the hypervisor gave to other guests: the main source of
    # run-to-run spread on a shared virtual machine
    print(json.dumps({"host": {"cpu_steal_share": steal_share(ticks, cpu_ticks())}}))

    declared = declared_metrics(ctx.trace)
    metrics = result["metrics"]
    names = [name for name, _ in declared]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(
            f"metric set mismatch: missing {sorted(set(names) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(names))}"
        )
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in declared
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
