"""Differential tests: the vectorised fast engine vs the reference loop.

The fast engine's contract is *byte-identical reports*: for every
configuration in its supported matrix, ``engine="fast"`` must produce
exactly the :class:`~repro.metrics.report.SimulationReport` the
reference per-branch loop produces — counters, per-kind breakdowns,
front-end mismatch histograms, attribution snapshots and telemetry
included.  Configurations outside the matrix must fall back to the
reference engine with the reason stamped for the run manifest.
"""

import json
import random

import numpy as np
from dataclasses import replace

import pytest

from repro.fetch.capability import (
    EngineClass,
    FallbackReason,
    engine_class,
    fallback_reason,
)
from repro.fetch.engine import FetchEngine
from repro.fetch.fast_engine import (
    FastEngine,
    TraceReplayContext,
    _assoc_cache_walk,
    unsupported_reason,
)
from repro.harness.config import ArchitectureConfig
from repro.harness.export import _jsonable
from repro.harness.runner import RunPlan, RunRequest, run_request
from repro.harness.spec import ExperimentPlan, ExperimentResult, with_engine
from repro.predictors import kernels
from repro.telemetry.core import Registry, use
from repro.workloads.corpus import generate_trace

#: one representative configuration per supported front-end family —
#: the matrix is closed over every paper configuration, including the
#: associative cache + NLS-cache/Johnson/coupled-BTB combinations
SUPPORTED = [
    ("nls-table", {"entries": 1024}),
    ("nls-table", {"entries": 512, "cache_assoc": 4}),
    ("btb", {"entries": 128}),
    ("btb", {"entries": 128, "btb_assoc": 4}),
    ("steely-sager", {"entries": 512}),
    ("nls-cache", {}),
    ("nls-cache", {"nls_cache_policy": "lru"}),
    ("nls-cache", {"cache_assoc": 2, "cache_kb": 4}),
    ("johnson", {}),
    ("johnson", {"cache_assoc": 2, "cache_kb": 4}),
    ("coupled-btb", {"entries": 256}),
    ("coupled-btb", {"entries": 128, "btb_assoc": 4}),
    ("oracle", {}),
    ("fall-through", {}),
]

INSTRUCTIONS = 40_000


def run_both(config, program="li", instructions=INSTRUCTIONS, warmup=0.0):
    """Run *config* through both engines on the same trace."""
    trace = generate_trace(program, instructions=instructions)
    reference = (
        replace(config, engine="reference")
        .build()
        .run(trace, label=config.label(), warmup_fraction=warmup)
    )
    engine = replace(config, engine="fast").build()
    assert isinstance(engine, FastEngine), "config unexpectedly unsupported"
    fast = engine.run(trace, label=config.label(), warmup_fraction=warmup)
    return reference, fast


def as_json(report) -> str:
    return json.dumps(_jsonable(report), sort_keys=True)


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("frontend,kwargs", SUPPORTED)
    def test_reports_identical(self, frontend, kwargs):
        config = ArchitectureConfig(frontend=frontend, **kwargs)
        reference, fast = run_both(config, warmup=0.3)
        assert reference == fast
        assert reference.frontend_stats == fast.frontend_stats
        assert as_json(reference) == as_json(fast)

    @pytest.mark.parametrize("frontend,kwargs", SUPPORTED)
    def test_reports_identical_with_flushes(self, frontend, kwargs):
        config = ArchitectureConfig(
            frontend=frontend, flush_interval=7_777, **kwargs
        )
        reference, fast = run_both(config)
        assert reference == fast
        assert as_json(reference) == as_json(fast)

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random"])
    def test_four_way_cache_under_each_policy(self, replacement):
        config = ArchitectureConfig(
            frontend="nls-table",
            cache_kb=8,
            cache_assoc=4,
            cache_replacement=replacement,
            flush_interval=7_777,
        )
        reference, fast = run_both(config, warmup=0.3)
        assert as_json(reference) == as_json(fast)

    def test_second_program(self):
        config = ArchitectureConfig(frontend="nls-table")
        reference, fast = run_both(config, program="espresso", warmup=0.3)
        assert as_json(reference) == as_json(fast)

    def test_small_cache_pressure(self):
        config = ArchitectureConfig(frontend="nls-table", cache_kb=1)
        reference, fast = run_both(config)
        assert as_json(reference) == as_json(fast)

    def test_btb_allocate_all(self):
        config = ArchitectureConfig(
            frontend="btb", entries=128, btb_allocate="all"
        )
        reference, fast = run_both(config)
        assert as_json(reference) == as_json(fast)

    def test_attribution_snapshots_identical(self):
        # attribution is compare=False on the report, so check explicitly
        config = ArchitectureConfig(
            frontend="nls-table", attribution=True, attribution_sample=8
        )
        reference, fast = run_both(config, warmup=0.3)
        assert reference == fast
        assert reference.attribution == fast.attribution

    def test_telemetry_counters_identical(self):
        trace = generate_trace("li", instructions=INSTRUCTIONS)
        totals = {}
        for engine_name in ("reference", "fast"):
            config = ArchitectureConfig(frontend="nls-table", engine=engine_name)
            registry = Registry(enabled=True)
            with use(registry):
                config.build().run(trace, label=config.label())
            totals[engine_name] = sorted(
                (event["name"], event["value"])
                for event in registry.events()
                if event.get("event") == "counter"
                and event["name"].startswith("engine.")
            )
        assert totals["reference"] == totals["fast"]


class TestSupportedMatrix:
    def test_supported_configs_have_no_reason(self):
        for frontend, kwargs in SUPPORTED:
            config = ArchitectureConfig(frontend=frontend, **kwargs)
            assert unsupported_reason(config) is None, frontend

    @pytest.mark.parametrize(
        "override",
        [
            {"direction": "bimodal"},
            {"model_wrong_path": True},
        ],
    )
    def test_unsupported_configs_name_a_reason(self, override):
        config = ArchitectureConfig(**override)
        assert unsupported_reason(config)

    def test_fallback_builds_reference_engine(self):
        config = ArchitectureConfig(direction="bimodal", engine="fast")
        engine = config.build()
        assert isinstance(engine, FetchEngine)
        assert engine.engine_name == "reference"
        assert engine.engine_fallback == "unsupported-direction-predictor"

    def test_fast_engine_rejects_unsupported_config(self):
        with pytest.raises(ValueError):
            FastEngine(ArchitectureConfig(model_wrong_path=True))


class TestCapability:
    def test_fallback_reason_values_are_pinned(self):
        # the manifest's engine_fallback field is machine-readable:
        # these strings are a stable contract with downstream tooling
        assert (
            FallbackReason.DIRECTION_PREDICTOR.value
            == "unsupported-direction-predictor"
        )
        assert FallbackReason.WRONG_PATH.value == "wrong-path-modelling"
        assert {r.value for r in FallbackReason} == {
            "unsupported-direction-predictor",
            "wrong-path-modelling",
        }

    def test_engine_class_values_are_pinned(self):
        assert EngineClass.FAST_BATCHED.value == "fast-batched"
        assert EngineClass.FAST_SINGLE.value == "fast-single"
        assert EngineClass.REFERENCE.value == "reference"

    @pytest.mark.parametrize(
        "override,expected",
        [
            ({"frontend": "nls-table"}, EngineClass.FAST_BATCHED),
            ({"frontend": "btb"}, EngineClass.FAST_BATCHED),
            ({"frontend": "btb", "btb_assoc": 4}, EngineClass.FAST_SINGLE),
            ({"frontend": "coupled-btb"}, EngineClass.FAST_SINGLE),
            (
                {"frontend": "nls-cache", "nls_cache_policy": "lru"},
                EngineClass.FAST_SINGLE,
            ),
            ({"frontend": "nls-cache"}, EngineClass.FAST_BATCHED),
            ({"frontend": "johnson"}, EngineClass.FAST_BATCHED),
            ({"direction": "bimodal"}, EngineClass.REFERENCE),
            ({"model_wrong_path": True}, EngineClass.REFERENCE),
        ],
    )
    def test_engine_class_classification(self, override, expected):
        assert engine_class(ArchitectureConfig(**override)) is expected

    def test_fallback_reason_none_for_supported(self):
        for frontend, kwargs in SUPPORTED:
            config = ArchitectureConfig(frontend=frontend, **kwargs)
            assert fallback_reason(config) is None

    def test_fast_engine_exposes_engine_class(self):
        engine = FastEngine(ArchitectureConfig(frontend="nls-table"))
        assert engine.engine_class is EngineClass.FAST_BATCHED
        engine = FastEngine(ArchitectureConfig(frontend="coupled-btb"))
        assert engine.engine_class is EngineClass.FAST_SINGLE


class TestHarnessWiring:
    def test_config_validates_engine(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(engine="bogus")

    def test_describe_includes_non_default_engine(self):
        assert ArchitectureConfig(engine="fast").describe()["engine"] == "fast"
        assert "engine" not in ArchitectureConfig().describe()

    def test_manifest_stamps_engine(self):
        request = RunRequest(
            config=ArchitectureConfig(frontend="nls-table", engine="fast"),
            program="li",
            instructions=20_000,
        )
        report = run_request(request)
        assert report.manifest.extra["engine"] == "fast"
        assert report.manifest.extra["engine_class"] == "fast-batched"
        assert "engine_fallback" not in report.manifest.extra

    def test_manifest_stamps_fallback(self):
        request = RunRequest(
            config=ArchitectureConfig(direction="bimodal", engine="fast"),
            program="li",
            instructions=20_000,
        )
        report = run_request(request)
        assert report.manifest.extra["engine"] == "reference"
        assert (
            report.manifest.extra["engine_fallback"]
            == "unsupported-direction-predictor"
        )

    def test_manifest_stamps_reference_default(self):
        request = RunRequest(
            config=ArchitectureConfig(frontend="nls-table"),
            program="li",
            instructions=20_000,
        )
        report = run_request(request)
        assert report.manifest.extra["engine"] == "reference"

    def test_with_engine_rewrites_cells_and_aliases_reports(self):
        cells = tuple(
            RunRequest(
                config=ArchitectureConfig(frontend="nls-table"),
                program=program,
                instructions=20_000,
            )
            for program in ("li", "espresso")
        )

        def finish(reports):
            # renderers index by the ORIGINAL reference-engine cells
            return ExperimentResult(
                name="t",
                title="t",
                text="",
                data={"breaks": [reports[cell].n_breaks for cell in cells]},
            )

        (plan,) = with_engine(
            [ExperimentPlan(name="t", cells=cells, finish=finish)], "fast"
        )
        assert all(cell.config.engine == "fast" for cell in plan.cells)
        result = plan.run()
        assert all(n > 0 for n in result.data["breaks"])

    def test_with_engine_reference_is_identity(self):
        plan = ExperimentPlan(name="t", cells=(), finish=lambda reports: None)
        assert with_engine([plan], "reference") == [plan]


def _sample_config(rng: random.Random) -> ArchitectureConfig:
    """Draw one random configuration from the fast engine's closed matrix."""
    frontend = rng.choice(
        [
            "nls-table",
            "nls-cache",
            "btb",
            "coupled-btb",
            "steely-sager",
            "johnson",
            "oracle",
            "fall-through",
        ]
    )
    line_bytes = rng.choice([16, 32, 64])
    kwargs = dict(
        frontend=frontend,
        cache_kb=rng.choice([1, 2, 4, 16]),
        # Steely-Sager line successors require a direct-mapped cache
        cache_assoc=1 if frontend == "steely-sager" else rng.choice([1, 2, 4]),
        line_bytes=line_bytes,
        cache_replacement=rng.choice(["lru", "fifo", "random"]),
        pht_entries=rng.choice([1024, 4096]),
        ras_entries=rng.choice([8, 32]),
        flush_interval=rng.choice([None, 7_777]),
        attribution=rng.random() < 0.5,
    )
    if frontend in ("nls-table", "steely-sager", "btb", "coupled-btb"):
        kwargs["entries"] = rng.choice([64, 256, 1024])
    if frontend in ("btb", "coupled-btb"):
        kwargs["btb_assoc"] = rng.choice([1, 2, 4])
    if frontend == "btb":
        kwargs["btb_allocate"] = rng.choice(["taken-only", "all"])
    if frontend in ("nls-cache", "johnson"):
        # per-line predictor counts must divide the instructions per line
        per_line = line_bytes // 4
        kwargs["predictors_per_line"] = rng.choice(
            [pl for pl in (1, 2, 4, 8) if pl <= per_line]
        )
    if frontend == "nls-cache":
        kwargs["nls_cache_policy"] = rng.choice(["partition", "lru"])
    return ArchitectureConfig(**kwargs)


class TestDifferentialFuzz:
    """Seeded fuzz across the closed matrix (satellite of the batched
    sweep work): random configurations must export byte-identical JSON
    from both engines, including attribution profiles and telemetry
    counter totals."""

    CASES = 12

    def test_random_configs_are_byte_identical(self):
        rng = random.Random(20260808)
        traces = {
            program: generate_trace(program, instructions=20_000)
            for program in ("li", "doduc")
        }
        for case in range(self.CASES):
            config = _sample_config(rng)
            program = rng.choice(sorted(traces))
            trace = traces[program]
            warmup = rng.choice([0.0, 0.3])
            exports = {}
            telemetry = {}
            for engine_name in ("reference", "fast"):
                cell = replace(config, engine=engine_name)
                registry = Registry(enabled=True)
                with use(registry):
                    report = cell.build().run(
                        trace, label=config.label(), warmup_fraction=warmup
                    )
                exports[engine_name] = as_json(report)
                telemetry[engine_name] = sorted(
                    (event["name"], event["value"])
                    for event in registry.events()
                    if event.get("event") == "counter"
                    and event["name"].startswith("engine.")
                )
                if config.attribution:
                    exports[engine_name] += json.dumps(
                        _jsonable(report.attribution), sort_keys=True
                    )
            detail = f"case {case}: {config.describe()} on {program}"
            assert exports["reference"] == exports["fast"], detail
            assert telemetry["reference"] == telemetry["fast"], detail


class TestBatchedContext:
    """The shared-context batched path must be invisible in the output:
    attaching a prepared :class:`TraceReplayContext` changes throughput,
    never reports."""

    BATCH = [
        ArchitectureConfig(frontend="nls-table", entries=256),
        ArchitectureConfig(frontend="nls-table", entries=1024),
        ArchitectureConfig(frontend="steely-sager", entries=512),
        ArchitectureConfig(frontend="btb", entries=128),
        ArchitectureConfig(frontend="btb", entries=512, btb_allocate="all"),
        ArchitectureConfig(frontend="nls-cache", predictors_per_line=4),
        ArchitectureConfig(frontend="johnson", predictors_per_line=2),
        ArchitectureConfig(frontend="nls-table", pht_entries=1024),
        ArchitectureConfig(frontend="oracle"),
    ]

    def test_shared_context_matches_solo_runs(self):
        trace = generate_trace("li", instructions=20_000)
        solo = {}
        for index, config in enumerate(self.BATCH):
            engine = replace(config, engine="fast").build()
            solo[index] = as_json(
                engine.run(trace, label=config.label(), warmup_fraction=0.2)
            )
        context = TraceReplayContext(trace)
        context.prepare(self.BATCH)
        for index, config in enumerate(self.BATCH):
            engine = replace(config, engine="fast").build()
            engine.attach_context(context)
            batched = as_json(
                engine.run(trace, label=config.label(), warmup_fraction=0.2)
            )
            assert batched == solo[index], config.label()
        # every stacked sort prepared for the batch was consumed
        assert not context._orders

    def test_mismatched_context_is_ignored(self):
        config = ArchitectureConfig(frontend="nls-table")
        trace = generate_trace("li", instructions=20_000)
        other = generate_trace("doduc", instructions=20_000)
        engine = replace(config, engine="fast").build()
        engine.attach_context(TraceReplayContext(other))
        report = engine.run(trace, label=config.label())
        baseline = replace(config, engine="fast").build().run(
            trace, label=config.label()
        )
        assert as_json(report) == as_json(baseline)

    def test_run_plan_serial_matches_unbatched_requests(self):
        # the serial backend groups by (trace, signature) and shares a
        # context; reports must equal per-cell run_request results
        cells = tuple(
            RunRequest(
                config=replace(config, engine="fast"),
                program="li",
                instructions=20_000,
            )
            for config in self.BATCH[:4]
        )
        plan = RunPlan(cells)
        results = plan.execute(backend="serial")

        def stable(report) -> str:
            payload = _jsonable(report)
            # manifest and run metadata carry wall time / pid, which
            # legitimately vary per run
            payload.pop("manifest", None)
            payload.pop("meta", None)
            return json.dumps(payload, sort_keys=True)

        for cell in cells:
            direct = run_request(cell)
            assert stable(results[cell]) == stable(direct)
            assert results[cell].manifest.extra["engine_class"] in (
                "fast-batched",
                "fast-single",
            )


@pytest.fixture(scope="module")
def long_trace():
    return generate_trace("gcc", instructions=200_000)


class TestFilteredCacheWalk:
    """The associative I-cache replay walks only the accesses that are
    not MRU repeats; its columns must equal a walk over every access."""

    @pytest.mark.parametrize("interval", [None, 7_777])
    @pytest.mark.parametrize("assoc", [2, 4, 8])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random"])
    def test_matches_unfiltered_walk(
        self, long_trace, replacement, assoc, interval
    ):
        geometry = ArchitectureConfig(cache_kb=4, cache_assoc=assoc).geometry
        context = TraceReplayContext(long_trace)
        cache = context.icache(geometry, replacement, interval)
        accesses = context.lines(geometry.line_bytes)
        epoch, flush_events = context.flush(interval)
        n_sets = geometry.n_sets
        access_set = (accesses.access_addr >> geometry.offset_bits) & (
            n_sets - 1
        )
        access_tag = accesses.access_addr >> (
            geometry.offset_bits + geometry.set_index_bits
        )
        hit, way = _assoc_cache_walk(
            access_set,
            access_tag,
            n_sets,
            assoc,
            replacement,
            [int(accesses.first_access[f]) for f in flush_events],
        )
        set_key = epoch[accesses.row_ids] * n_sets + access_set
        frame_key = set_key * assoc + way
        assert np.array_equal(cache.hit, hit)
        assert np.array_equal(cache.way, way)
        assert np.array_equal(cache.frame_key, frame_key)
        assert np.array_equal(
            cache.gen, kernels.segmented_counts(frame_key, ~hit)
        )
        # the filter has work to skip, and flushes land mid-trace
        previous = kernels.previous_same_key(set_key)
        repeats = (previous >= 0) & (access_tag[previous] == access_tag)
        assert 0 < np.count_nonzero(repeats) < len(repeats)
        assert (len(flush_events) > 0) == (interval is not None)
        assert np.count_nonzero(~hit) > n_sets * assoc


class TestPackedTrace:
    def test_packed_is_memoised_and_invalidated(self):
        trace = generate_trace("li", instructions=10_000)
        packed = trace.packed()
        assert trace.packed() is packed
        assert packed["starts"].tolist() == trace.starts

    def test_save_load_roundtrip_preserves_packed(self, tmp_path):
        trace = generate_trace("li", instructions=10_000)
        path = str(tmp_path / "trace.npz")
        trace.save(path)
        loaded = type(trace).load(path)
        assert loaded.starts == trace.starts
        assert loaded.kinds == trace.kinds
        assert loaded._packed is not None
        assert loaded.packed()["targets"].tolist() == trace.targets
