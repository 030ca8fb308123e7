"""Resilient run-plan execution (DESIGN.md §12).

Covers the checkpoint journal (append / replay / torn tails /
``--resume``), the retry taxonomy (transient vs deterministic
failures, backoff, per-cell deadlines), pool supervision (killed
workers, rebuilds), quarantine + ``FAILURES.json``, the deterministic
fault-injection harness in :mod:`repro.testing.faults`, the corpus's
checksum-validated on-disk trace cache, and the CLI's resilience
flags and argument validation.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.harness.checkpoint import (
    FAILURES_NAME,
    CheckpointJournal,
    cell_key,
    failures_payload,
    report_from_dict,
    report_to_dict,
)
from repro.harness.cli import main as cli_main
from repro.harness.config import ArchitectureConfig
from repro.harness.export import write_failures
from repro.harness.runner import (
    CellExecutionError,
    CellTimeoutError,
    ExecutionPolicy,
    RunPlan,
    RunRequest,
    _cell_error,
    quarantined_report,
)
from repro.telemetry.core import Registry, use
from repro.testing import faults as faults_module
from repro.testing.faults import (
    FAULTS_ENV_VAR,
    FaultInjectedError,
    FaultPlan,
    FaultSpec,
    load_plan,
    plan_summary,
    write_plan,
)
from repro.workloads.corpus import (
    CACHE_DIR_ENV_VAR,
    clear_cache,
    generate_trace,
    trace_key,
)

#: trace length for the resilience tests — tiny, retries multiply runs
TINY = 2_000

LABEL_BTB = "btb-32e-1w @ 8K/1w"


def _request(program: str = "li", frontend: str = "btb") -> RunRequest:
    return RunRequest(
        config=ArchitectureConfig(frontend=frontend, entries=32, cache_kb=8),
        program=program,
        instructions=TINY,
    )


def _plan_path(tmp_path, specs) -> str:
    return write_plan(str(tmp_path / "faults.json"), specs)


@pytest.fixture(autouse=True)
def _clean_corpus():
    clear_cache()
    yield
    clear_cache()


# ---------------------------------------------------------------------------
# the fault-injection harness itself
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_plan_round_trips_through_json(self, tmp_path):
        specs = (
            FaultSpec(action="raise", program="li", times=2),
            FaultSpec(action="hang", config="btb-*", hang_s=1.5),
        )
        path = _plan_path(tmp_path, specs)
        plan = load_plan(path)
        assert plan.specs == specs
        assert os.path.isdir(plan.spool)

    def test_budget_claims_are_exclusive_and_durable(self, tmp_path):
        plan = load_plan(
            _plan_path(tmp_path, [FaultSpec(action="raise", times=2)])
        )
        assert plan.claim(0) is True
        assert plan.fired(0) == 1
        assert plan.claim(0) is True
        assert plan.claim(0) is False  # budget of 2 is spent
        assert plan.fired(0) == 2
        # a second loader (another process, conceptually) sees the
        # same spool state — claims survive the claimant dying
        again = load_plan(plan.path)
        assert again.claim(0) is False
        assert plan_summary(again)[0]["fired"] == 2

    def test_fire_respects_site_and_patterns(self, tmp_path, monkeypatch):
        path = _plan_path(
            tmp_path,
            [FaultSpec(action="raise", program="li", config="btb-*", times=5)],
        )
        monkeypatch.setenv(FAULTS_ENV_VAR, path)
        # wrong site / program / config: no-ops, no budget spent
        faults_module.fire("trace-file", program="li", config="btb-32e")
        faults_module.fire("cell", program="gcc", config="btb-32e")
        faults_module.fire("cell", program="li", config="nls-64e")
        assert load_plan(path).fired(0) == 0
        with pytest.raises(FaultInjectedError):
            faults_module.fire("cell", program="li", config="btb-32e")
        assert load_plan(path).fired(0) == 1

    def test_unarmed_fire_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        faults_module.fire("cell", program="li", config="anything")

    def test_corrupt_file_is_deterministic(self, tmp_path):
        victim = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 16
        victim.write_bytes(payload)
        faults_module.corrupt_file(str(victim), seed=7)
        first = victim.read_bytes()
        victim.write_bytes(payload)
        faults_module.corrupt_file(str(victim), seed=7)
        assert victim.read_bytes() == first
        assert first != payload

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(action="explode")
        with pytest.raises(ValueError):
            FaultSpec(action="raise", site="nowhere")
        with pytest.raises(ValueError):
            FaultSpec(action="raise", times=0)


# ---------------------------------------------------------------------------
# retry taxonomy (serial backend, which shares the supervisor with process)
# ---------------------------------------------------------------------------


class TestRetries:
    def test_flaky_cell_recovers_byte_identically(self, tmp_path, monkeypatch):
        request = _request()
        clean = RunPlan([request]).execute()[request]
        clear_cache()
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(tmp_path, [FaultSpec(action="raise", times=1)]),
        )
        registry = Registry(enabled=True)
        plan = RunPlan([request])
        with use(registry):
            reports = plan.execute(
                policy=ExecutionPolicy(max_retries=2, backoff_base_s=0.001)
            )
        assert not plan.failures
        assert reports[request] == clean
        assert registry.counter("runner.retries").value == 1

    def test_deterministic_failure_quarantines_on_repeat(
        self, tmp_path, monkeypatch
    ):
        # budget of 5 with a stable message: the second identical
        # failure marks the cell deterministic — long before the
        # max_retries=5 budget is exhausted
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(tmp_path, [FaultSpec(action="raise", times=5)]),
        )
        request = _request()
        registry = Registry(enabled=True)
        plan = RunPlan([request])
        with use(registry):
            reports = plan.execute(
                policy=ExecutionPolicy(max_retries=5, backoff_base_s=0.001)
            )
        assert reports == {}
        failure = plan.failures[request]
        assert failure.kind == "deterministic"
        assert failure.attempts == 2
        assert failure.error_type == "FaultInjectedError"
        assert registry.counter("runner.quarantined").value == 1

    def test_exhausted_retries_quarantine(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(tmp_path, [FaultSpec(action="raise", times=1)]),
        )
        request = _request()
        plan = RunPlan([request])
        plan.execute(policy=ExecutionPolicy(max_retries=0))
        failure = plan.failures[request]
        assert failure.kind == "exhausted"
        assert failure.attempts == 1

    def test_hung_cell_trips_deadline_then_recovers(
        self, tmp_path, monkeypatch
    ):
        request = _request()
        clean = RunPlan([request]).execute()[request]
        clear_cache()
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(
                tmp_path, [FaultSpec(action="hang", times=1, hang_s=30.0)]
            ),
        )
        registry = Registry(enabled=True)
        plan = RunPlan([request])
        with use(registry):
            reports = plan.execute(
                policy=ExecutionPolicy(
                    max_retries=2, cell_timeout=0.2, backoff_base_s=0.001
                )
            )
        assert not plan.failures
        assert reports[request] == clean
        assert registry.counter("runner.cell_timeouts").value == 1
        assert registry.counter("runner.retries").value == 1

    def test_quarantine_does_not_abort_the_sweep(self, tmp_path, monkeypatch):
        poisoned = _request(program="li")
        healthy = _request(program="espresso")
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(
                tmp_path,
                [FaultSpec(action="raise", program="li", times=4)],
            ),
        )
        plan = RunPlan([poisoned, healthy])
        reports = plan.execute(
            policy=ExecutionPolicy(max_retries=1, backoff_base_s=0.001)
        )
        assert poisoned in plan.failures
        assert healthy in reports and healthy not in plan.failures

    def test_backoff_is_deterministic_and_bounded(self):
        policy = ExecutionPolicy(backoff_base_s=0.05, backoff_cap_s=0.4)
        delays = [policy.backoff_delay("abc", n) for n in (1, 2, 3, 10)]
        assert delays == [policy.backoff_delay("abc", n) for n in (1, 2, 3, 10)]
        assert all(d <= 0.4 * 1.25 for d in delays)
        assert delays[0] < delays[1] < delays[2]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ExecutionPolicy(cell_timeout=0.0)
        with pytest.raises(ValueError):
            ExecutionPolicy(resume=True)


# ---------------------------------------------------------------------------
# process backend: killed workers, pool rebuilds
# ---------------------------------------------------------------------------


class TestPoolSupervision:
    def test_killed_worker_is_retried_byte_identically(
        self, tmp_path, monkeypatch
    ):
        requests = [_request("li"), _request("espresso")]
        clean = RunPlan(requests).execute()
        clear_cache()
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(
                tmp_path,
                [FaultSpec(action="kill", program="li", times=1)],
            ),
        )
        registry = Registry(enabled=True)
        plan = RunPlan(requests)
        with use(registry):
            reports = plan.execute(
                backend="process",
                jobs=2,
                policy=ExecutionPolicy(max_retries=3, backoff_base_s=0.001),
            )
        assert not plan.failures
        assert {k: reports[k] for k in requests} == clean
        assert registry.counter("runner.pool_rebuilds").value >= 1
        assert registry.counter("runner.retries").value >= 1

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_process_strict_mode_still_names_the_cell(self, backend):
        # strict (no policy) fails the same way on both backends
        bad = RunRequest(
            config=ArchitectureConfig(frontend="btb", entries=32, cache_kb=8),
            program="li",
            instructions=TINY,
            warmup=1.5,  # engine rejects warmup outside [0, 1)
        )
        plan = RunPlan([bad])
        with pytest.raises(CellExecutionError) as excinfo:
            plan.execute(backend=backend, jobs=2)
        assert "program='li'" in str(excinfo.value)
        assert excinfo.value.error_type == "ValueError"

    def test_process_quarantine_matches_serial(self, tmp_path, monkeypatch):
        # identical resilience semantics across backends: the same
        # deterministic fault quarantines the same cell either way
        request = _request()
        for backend, spool in (("serial", "a"), ("process", "b")):
            clear_cache()
            monkeypatch.setenv(
                FAULTS_ENV_VAR,
                write_plan(
                    str(tmp_path / f"faults-{spool}.json"),
                    [FaultSpec(action="raise", times=4)],
                ),
            )
            plan = RunPlan([request])
            plan.execute(
                backend=backend,
                jobs=2,
                policy=ExecutionPolicy(max_retries=3, backoff_base_s=0.001),
            )
            failure = plan.failures[request]
            assert failure.kind == "deterministic"
            assert failure.error_type == "FaultInjectedError"


# ---------------------------------------------------------------------------
# checkpoint journal + resume
# ---------------------------------------------------------------------------


class TestCheckpoint:
    def test_report_round_trips_through_json(self):
        request = _request()
        report = RunPlan([request]).execute()[request]
        clone = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert clone == report
        assert clone.by_kind == report.by_kind
        assert clone.meta.config_label == report.meta.config_label
        assert clone.manifest.trace_key == report.manifest.trace_key

    def test_journal_replays_completed_cells(self, tmp_path):
        request = _request()
        report = RunPlan([request]).execute()[request]
        journal = CheckpointJournal(str(tmp_path))
        journal.append(request, report)
        journal.close()
        replayed = CheckpointJournal(str(tmp_path)).replay([request])
        assert replayed[request] == report

    def test_journal_tolerates_torn_tail(self, tmp_path):
        request = _request()
        report = RunPlan([request]).execute()[request]
        journal = CheckpointJournal(str(tmp_path))
        journal.append(request, report)
        journal.close()
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro-checkpoint/v1", "cell": "tor')
        fresh = CheckpointJournal(str(tmp_path))
        assert fresh.replay([request])[request] == report
        # compaction drops the torn tail via atomic rewrite
        assert fresh.compact() == 1
        lines = open(journal.path, encoding="utf-8").read().splitlines()
        assert len(lines) == 1

    def test_trace_scale_change_invalidates_entries(
        self, tmp_path, monkeypatch
    ):
        request = _request()
        report = RunPlan([request]).execute()[request]
        journal = CheckpointJournal(str(tmp_path))
        journal.append(request, report)
        journal.close()
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.5")
        assert CheckpointJournal(str(tmp_path)).replay([request]) == {}

    def test_resume_recomputes_nothing(self, tmp_path):
        requests = [_request("li"), _request("espresso")]
        directory = str(tmp_path / "ckpt")
        first = RunPlan(requests)
        reports = first.execute(policy=ExecutionPolicy(checkpoint_dir=directory))
        registry = Registry(enabled=True)
        second = RunPlan(requests)
        with use(registry):
            resumed = second.execute(
                policy=ExecutionPolicy(checkpoint_dir=directory, resume=True)
            )
        assert resumed == reports
        # the acceptance criterion, via telemetry: zero cells executed
        assert registry.counter("runner.cells").value == 0
        assert registry.counter("runner.resumed_cells").value == len(requests)

    def test_resume_runs_only_the_missing_cells(self, tmp_path):
        done, missing = _request("li"), _request("espresso")
        directory = str(tmp_path / "ckpt")
        RunPlan([done]).execute(
            policy=ExecutionPolicy(checkpoint_dir=directory)
        )
        registry = Registry(enabled=True)
        plan = RunPlan([done, missing])
        with use(registry):
            reports = plan.execute(
                policy=ExecutionPolicy(checkpoint_dir=directory, resume=True)
            )
        assert set(reports) == {done, missing}
        assert registry.counter("runner.cells").value == 1
        assert registry.counter("runner.resumed_cells").value == 1
        # the journal now holds both cells for the next resume
        journal = CheckpointJournal(directory)
        assert set(journal.replay([done, missing])) == {done, missing}


# ---------------------------------------------------------------------------
# failure manifest + error pickling + placeholders
# ---------------------------------------------------------------------------


class TestFailureArtifacts:
    def _failures(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(tmp_path, [FaultSpec(action="raise", times=4)]),
        )
        plan = RunPlan([_request()])
        plan.execute(policy=ExecutionPolicy(max_retries=3, backoff_base_s=0.001))
        return plan.failures

    def test_failures_json_names_the_cell(self, tmp_path, monkeypatch):
        failures = self._failures(tmp_path, monkeypatch)
        out = str(tmp_path / "artifacts")
        path = write_failures(out, failures.values())
        assert os.path.basename(path) == FAILURES_NAME
        payload = json.load(open(path, encoding="utf-8"))
        assert payload["count"] == 1
        (entry,) = payload["quarantined"]
        assert entry["program"] == "li"
        assert entry["config"] == LABEL_BTB
        assert entry["kind"] == "deterministic"
        assert entry["error_type"] == "FaultInjectedError"
        assert "FaultInjectedError" in entry["traceback"]
        assert entry["cell"] == cell_key(next(iter(failures)))

    def test_failures_payload_is_json_clean(self, tmp_path, monkeypatch):
        failures = self._failures(tmp_path, monkeypatch)
        json.dumps(failures_payload(failures.values()))

    def test_cell_execution_error_pickles_with_context(self):
        request = _request()
        try:
            raise ValueError("teeth")
        except ValueError as exc:
            error = _cell_error(request, exc)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, CellExecutionError)
        assert str(clone) == str(error)
        assert clone.cell == LABEL_BTB
        assert clone.program == "li"
        assert clone.error_type == "ValueError"
        assert "teeth" in clone.traceback_text
        assert "ValueError" in clone.traceback_text

    def test_quarantined_placeholder_is_rendered_safely(self):
        request = _request()
        report = quarantined_report(request)
        assert report.meta.backend == "quarantined"
        assert report.bep == 0.0
        assert report.cpi == 0.0
        assert report.pct_misfetched == 0.0
        assert report.label == LABEL_BTB


# ---------------------------------------------------------------------------
# corpus: checksum-validated on-disk trace cache
# ---------------------------------------------------------------------------


class TestTraceFileCache:
    def _report(self):
        request = _request()
        return RunPlan([request]).execute()[request]

    def test_store_and_reload(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        registry = Registry(enabled=True)
        with use(registry):
            trace = generate_trace("li", instructions=TINY)
            clear_cache()  # drop the in-memory tier; disk must serve it
            again = generate_trace("li", instructions=TINY)
        assert registry.counter("corpus.trace_file_stores").value == 1
        assert registry.counter("corpus.trace_file_hits").value == 1
        assert again.n_instructions == trace.n_instructions
        assert list(again.starts) == list(trace.starts)

    def _cached_path(self, tmp_path):
        (path,) = [
            os.path.join(tmp_path, name)
            for name in os.listdir(tmp_path)
            if name.endswith(".npz")
        ]
        return path

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_corruption_is_detected_and_regenerated(
        self, tmp_path, monkeypatch, damage
    ):
        clean = self._report()
        clear_cache()
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        registry = Registry(enabled=True)
        with use(registry):
            generate_trace("li", instructions=TINY)
            path = self._cached_path(tmp_path)
            if damage == "flip":
                faults_module.corrupt_file(path, seed=3)
            else:
                with open(path, "r+b") as handle:
                    handle.truncate(os.path.getsize(path) // 3)
            clear_cache()
            generate_trace("li", instructions=TINY)
            assert registry.counter("corpus.trace_file_corrupt").value == 1
            assert registry.counter("corpus.trace_file_evictions").value == 1
            # the regenerated trace was re-stored with a fresh checksum
            assert registry.counter("corpus.trace_file_stores").value == 2
        clear_cache()
        monkeypatch.delenv(CACHE_DIR_ENV_VAR)
        assert self._report() == clean

    def test_corrupt_fault_site_hits_the_cache_path(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "cache"))
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(
                tmp_path,
                [FaultSpec(action="corrupt", site="trace-file", times=1)],
            ),
        )
        registry = Registry(enabled=True)
        with use(registry):
            generate_trace("li", instructions=TINY)
            clear_cache()
            generate_trace("li", instructions=TINY)  # fault corrupts here
        assert registry.counter("corpus.trace_file_corrupt").value == 1
        assert registry.counter("corpus.trace_file_stores").value == 2

    def test_missing_checksum_sidecar_counts_as_corrupt(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        registry = Registry(enabled=True)
        with use(registry):
            generate_trace("li", instructions=TINY)
            os.remove(self._cached_path(tmp_path) + ".sha256")
            clear_cache()
            generate_trace("li", instructions=TINY)
        assert registry.counter("corpus.trace_file_corrupt").value == 1

    def test_disk_tier_off_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        registry = Registry(enabled=True)
        with use(registry):
            generate_trace("li", instructions=TINY)
        assert registry.counter("corpus.trace_file_stores").value == 0
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# CLI: validation, resilience flags, quarantine exit
# ---------------------------------------------------------------------------


class TestCLI:
    def test_unknown_experiment_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["not-an-experiment"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "table1" in err  # the valid names are listed

    @pytest.mark.parametrize("bad", ["-2", "two", "1.5"])
    def test_bad_jobs_is_a_clean_error(self, capsys, bad):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["fig3", "--jobs", bad])
        assert excinfo.value.code == 2
        assert "worker count" in capsys.readouterr().err

    def test_excess_jobs_warn_and_clamp(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            assert cli_main(["fig3", "--jobs", "64"]) == 0
        assert "jobs=2" in capsys.readouterr().out

    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["fig3", "--resume"])
        assert excinfo.value.code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_missing_faults_file_is_a_clean_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["fig3", "--faults", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 2
        assert "not found" in capsys.readouterr().err

    def test_quarantine_exits_nonzero_with_manifest(self, capsys, tmp_path):
        checkpoint = tmp_path / "ckpt"
        plan = _plan_path(
            tmp_path,
            [FaultSpec(action="raise", program="li", times=2)],
        )
        status = cli_main(
            [
                "johnson",
                "--programs",
                "li",
                "--instructions",
                str(TINY),
                "--max-retries",
                "2",
                "--checkpoint-dir",
                str(checkpoint),
                "--faults",
                plan,
            ]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "QUARANTINED 1 cell" in out
        payload = json.load(open(checkpoint / FAILURES_NAME, encoding="utf-8"))
        assert payload["count"] == 1
        assert payload["quarantined"][0]["program"] == "li"
        assert payload["quarantined"][0]["kind"] == "deterministic"
        # the healthy cells were journalled for --resume
        assert (checkpoint / "journal.ndjson").exists()
        assert os.environ.get(FAULTS_ENV_VAR) is None  # disarmed on exit

    def test_resume_flag_recomputes_nothing(self, capsys, tmp_path):
        checkpoint = tmp_path / "ckpt"
        argv = [
            "johnson",
            "--programs",
            "li",
            "--instructions",
            str(TINY),
            "--checkpoint-dir",
            str(checkpoint),
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        clear_cache()
        assert cli_main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        body = lambda text: [  # noqa: E731 - tiny local helper
            line
            for line in text.splitlines()
            if line and not line.startswith("[")
        ]
        assert body(first) == body(second)
