"""Processes the benchmark starts.

``child.py plan <workload>``
    Cold start of a batch workload: import the program, build the
    workload's plan and print ``ready`` and the CPU seconds it took.

``child.py serve <span-dir> <run-id> <serve args...>``
    The service with every layer entry point traced (see
    :mod:`tracing`); its spans are written to *span-dir* when ``serve``
    returns after its ``SIGTERM`` drain.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main(argv) -> int:
    mode = argv[0]
    if mode == "plan":
        import batch

        batch.build_plan(batch.WORKLOADS[argv[1]])
        print(f"ready {time.process_time()!r}", flush=True)
        return 0
    if mode == "serve":
        from repro.harness import cli
        from repro.service import api, scheduler  # noqa: F401  (bind before tracing)
        from tracing import Patches, Tracer, install

        tracer = Tracer(argv[2], Path(argv[1]))
        install(Patches(), tracer)
        try:
            return cli.main(["serve", *argv[3:]])
        finally:
            tracer.flush()
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
