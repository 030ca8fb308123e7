"""Record the expected per-cell report digests of the batch workloads.

The digests are computed once with the reference engine, the
executable specification, and written to ``perfbench/digests.json`` under
``<workload>@<scale>``.  Re-run only when the program's intended output
changes::

    PYTHONPATH=src python3 perfbench/record_digests.py --workload fig5-paper
    PYTHONPATH=src python3 perfbench/record_digests.py \
        --workload server-replay --scale 0.01
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import batch
import checks
from common import STRIPPED_ENV


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(batch.WORKLOADS))
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    if args.scale != 1.0:
        os.environ["REPRO_TRACE_SCALE"] = repr(args.scale)

    from repro.harness.runner import RunPlan

    plan = batch.build_plan(batch.WORKLOADS[args.workload])
    cells = [checks.on_reference(cell) for cell in plan.cells]
    reports = RunPlan(cells).execute(backend="process", jobs=2)
    recorded = {
        checks.cell_id(cell): checks.digest(report) for cell, report in reports.items()
    }

    digests = checks.load_digests() if checks.DIGESTS_PATH.exists() else {}
    digests[f"{args.workload}@{args.scale:g}"] = dict(sorted(recorded.items()))
    text = json.dumps(dict(sorted(digests.items())), indent=1)
    checks.DIGESTS_PATH.write_text(text + "\n")
    print(f"{len(recorded)} digests for {args.workload}@{args.scale:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
