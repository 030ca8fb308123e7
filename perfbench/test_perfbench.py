"""Benchmark self-tests at tiny scale (trace lengths x0.01).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import batch
import checks
import service_load
from common import ROOT, RunContext
from run import WORKLOADS, declared_metrics

TINY = 0.01


def _run(workload: str, trace: int, seed: int = 0) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "0",
            "--trace", str(trace),
            "--scale", str(TINY),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == dict(declared_metrics(bool(trace)))
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


def _context(tmp_path, workload: str, seed: int = 0) -> RunContext:
    return RunContext(
        workload=workload,
        seed=seed,
        seconds=0,
        trace=False,
        scale=TINY,
        run_dir=tmp_path,
        run_id=uuid.uuid4().hex[:12],
        out_dir=tmp_path,
        bench_pid=0,
    )


def test_corrupted_expected_digest_drives_error_rate_above_zero(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SCALE", str(TINY))
    digests = checks.load_digests()
    key = f"fig5-paper@{TINY:g}"
    cell = sorted(digests[key])[0]
    digests[key][cell] = "0" * 64
    monkeypatch.setattr(checks, "load_digests", lambda: digests)
    result = batch.run(_context(tmp_path, "fig5-paper"))
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0


def test_reference_check_catches_a_wrong_report(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_SCALE", str(TINY))
    from repro.harness.runner import run_request

    plan = batch.build_plan(batch.WORKLOADS["fig5-paper"])
    first, second = plan.cells[0], plan.cells[-1]
    requests = {"first": first, "second": second}
    right = checks.digest(run_request(first))
    served = {"first": right, "second": right}
    assert checks.reference_failures(requests, served) == ["second"]


class _StubService(BaseHTTPRequestHandler):
    """Answers POST with ``status``; jobs end with ``terminal`` events."""

    status = 429
    terminal = "job-failed"

    def log_message(self, *args):
        pass

    def _reply(self, status: int, body: bytes, content_type="application/json"):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.status != 202:
            self._reply(self.status, b'{"error": "refused"}')
            return
        self._reply(202, b'{"job_id": "job-1"}')

    def do_GET(self):
        if self.path.endswith("/events"):
            events = [
                {"event": "job-queued", "t_s": 1.0},
                {"event": "job-started", "t_s": 1.5},
                {"event": self.terminal, "t_s": 2.0},
            ]
            body = "".join(json.dumps(event) + "\n" for event in events).encode()
            self._reply(200, body, "application/x-ndjson")
            return
        self._reply(409, b'{"error": "job failed"}')


@pytest.fixture
def stub_service():
    def start(status: int, terminal: str = "job-failed"):
        fields = {"status": status, "terminal": terminal}
        handler = type("Handler", (_StubService,), fields)
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}"

    started = []
    yield start
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _jobs(count: int):
    return service_load.schedules(seed=1, clients=1, jobs=count)


def test_refused_job_counts_as_failed(stub_service):
    url = stub_service(429)
    [outcomes], _ = service_load.run_clients(url, _jobs(3))
    assert [outcome.failed for outcome in outcomes] == [True] * 3
    assert "429" in outcomes[0].reason


def test_failed_job_counts_as_failed(stub_service):
    url = stub_service(202, terminal="job-failed")
    [outcomes], _ = service_load.run_clients(url, _jobs(2))
    assert all(outcome.failed for outcome in outcomes)


def test_resubmission_that_differs_counts_as_failed():
    first = service_load.Outcome(service_load.Job({}), cells={"a": ("computed", "x")})
    same = service_load.Outcome(service_load.Job({}, 0), cells={"a": ("store", "x")})
    differs = service_load.Outcome(service_load.Job({}, 0), cells={"a": ("store", "y")})
    recomputed = service_load.Outcome(
        service_load.Job({}, 0), cells={"a": ("computed", "x")}
    )
    for outcome in (same, differs, recomputed):
        service_load._check_repeat(outcome, first)
    assert (same.failed, differs.failed, recomputed.failed) == (False, True, True)


def test_schedules_are_seeded_balanced_and_half_resubmissions():
    plans = service_load.schedules(seed=5, clients=2, jobs=100)
    assert plans == service_load.schedules(seed=5, clients=2, jobs=100)
    assert plans != service_load.schedules(seed=6, clients=2, jobs=100)
    jobs = [job for plan in plans for job in plan]
    assert sum(job.repeat_of is not None for job in jobs) == 100
    for plan in plans:
        firsts = [plan[job.repeat_of] for job in plan if job.repeat_of is not None]
        assert all(first.repeat_of is None for first in firsts)
    cells = [
        json.dumps(cell, sort_keys=True)
        for job in jobs
        if job.repeat_of is None
        for cell in job.spec["cells"]
    ]
    assert len(cells) == len(set(cells)) == 400
    programs = [json.loads(cell)["program"] for cell in cells]
    counts = [programs.count(program) for program in service_load.PROGRAMS]
    assert max(counts) - min(counts) <= 2


def test_run_refuses_without_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig5-paper", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_layer_map_names_only_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())["layers"]
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    assert {name for layer in layers.values() for name in layer["metrics"]} == per_layer
    for layer in layers.values():
        for effect in ("moves", "barely", "never"):
            for names in layer.get(effect, {}).values():
                assert set(names) <= end_to_end | per_layer


def test_windows_cut_in_order_with_the_remainder_last():
    from common import windows

    assert windows(list(range(10)), 3) == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
    assert windows([1, 2], 6) == [[1], [2]]
