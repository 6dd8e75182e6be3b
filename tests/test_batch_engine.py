"""Batched multi-cell engine: bit-identity, sweep integration, fallback.

The batched engine (repro.mem.batch) decodes a trace once and replays
every eligible policy against one shared plan; these tests hold it to
the same standard as the single-run fast path — bit-identical canonical
JSON against the reference — and cover the sweep-engine integration the
per-cell machinery must preserve: cache hits/misses, ineligible-cell
fallback, trace-dedup submission, and resilience (a poisoned batched
cell must not take the rest of the matrix down).
"""

import json
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from conftest import inject_cell_faults, make_trace
from repro.core.config import small_test_machine
from repro.core.simulator import build_hierarchy, simulate
from repro.errors import ConfigurationError, SimulationError
from repro.harness.engine import (
    SweepEngine,
    _install_worker_traces,
    _simulate_cell_by_name,
    _simulate_group,
)
from repro.mem.batch import BatchSimulator, simulate_batched
from repro.mem.fastpath import fastpath_eligible
from repro.resilience import RetryPolicy
from repro.telemetry import TelemetryConfig
from repro.trace import synthetic
from repro.trace.record import AccessKind


def canonical(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def canon_matrix(outcome) -> dict:
    return {
        (workload, policy): canonical(result)
        for workload, row in outcome.matrix.results.items()
        for policy, result in row.items()
    }


POLICIES = ["lru", "ship", "drrip"]


@pytest.fixture(scope="module")
def machine():
    return small_test_machine()


@pytest.fixture(scope="module")
def traces():
    return {
        "zipf": synthetic.zipf_reuse(2_500, num_blocks=400, seed=3),
        "stream": synthetic.strided(2_500, stride=64, elements=120),
    }


@pytest.fixture(scope="module")
def reference_baseline(machine, traces):
    """The reference engine's canonical results (telemetry off).

    A default (``fast``) sweep now batches too, so the baseline the
    batched sweeps are held to is the per-cell reference engine."""
    return canon_matrix(
        SweepEngine().run(traces, POLICIES, config=machine, engine="reference")
    )


class TestSimulateBatched:
    def test_bit_identical_to_single_run(self, machine, traces):
        trace = traces["zipf"]
        batched = simulate_batched(trace, POLICIES, config=machine)
        for policy in POLICIES:
            single = simulate(trace, config=machine, llc_policy=policy)
            assert canonical(batched[policy]) == canonical(single), policy

    def test_telemetry_armed_bit_identical(self, machine, traces):
        trace = traces["stream"]
        tele = TelemetryConfig(interval_instructions=600)
        batched = simulate_batched(
            trace, ["lru", "ship"], config=machine, telemetry=tele
        )
        for policy in ("lru", "ship"):
            single = simulate(
                trace, config=machine, llc_policy=policy, telemetry=tele
            )
            assert canonical(batched[policy]) == canonical(single), policy

    def test_ineligible_trace_falls_back(self, machine):
        # WRITEBACK records are outside the modeled kinds; the batched
        # wrapper must route the cell through simulate() instead.
        trace = make_trace([0, 64, 128, 192], kinds=int(AccessKind.WRITEBACK))
        assert not fastpath_eligible(build_hierarchy(machine, "lru"), trace)
        batched = simulate_batched(trace, ["lru"], config=machine)
        single = simulate(trace, config=machine, llc_policy="lru")
        assert canonical(batched["lru"]) == canonical(single)

    def test_eligibility_mirrors_fastpath_guards(self, machine, traces):
        from repro.mem.prefetcher import NextLinePrefetcher
        from repro.policies.registry import make_policy

        zipf = traces["zipf"]
        assert fastpath_eligible(build_hierarchy(machine, "hawkeye"), zipf)
        with_pf = build_hierarchy(
            machine, "lru", l2_prefetcher=NextLinePrefetcher()
        )
        assert not fastpath_eligible(with_pf, zipf)
        inclusive = build_hierarchy(machine, "lru", inclusive=True)
        assert not fastpath_eligible(inclusive, zipf)
        swapped = build_hierarchy(machine, "lru")
        swapped.l1d.policy = make_policy("fifo")
        assert not fastpath_eligible(swapped, zipf)


class TestBatchedSweepBitIdentity:
    def test_serial_batched_equals_fast(self, machine, traces, reference_baseline):
        outcome = SweepEngine().run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert canon_matrix(outcome) == reference_baseline
        assert outcome.stats.simulated == len(traces) * len(POLICIES)

    def test_parallel_batched_equals_fast(self, machine, traces, reference_baseline):
        outcome = SweepEngine(jobs=2).run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert canon_matrix(outcome) == reference_baseline

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_telemetry_armed_batched_equals_fast(self, machine, traces, jobs):
        tele = TelemetryConfig(interval_instructions=600)
        fast = canon_matrix(
            SweepEngine().run(traces, POLICIES, config=machine, telemetry=tele,
                              engine="reference")
        )
        batched = canon_matrix(
            SweepEngine(jobs=jobs).run(
                traces, POLICIES, config=machine, telemetry=tele,
                engine="batched",
            )
        )
        assert batched == fast

    def test_resilient_batched_equals_fast(self, machine, traces, reference_baseline):
        outcome = SweepEngine(jobs=2).run(
            traces, POLICIES, config=machine, engine="batched",
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01,
                              backoff_max=0.05),
        )
        assert canon_matrix(outcome) == reference_baseline
        assert not outcome.failure_report.cells  # nothing was absorbed

    def test_invalid_engine_rejected(self, machine, traces):
        with pytest.raises(ConfigurationError, match="sweep engine"):
            SweepEngine().run(traces, ["lru"], config=machine, engine="warp")


class TestCacheInteraction:
    def test_batched_populates_the_shared_cache(
        self, tmp_path, machine, traces, reference_baseline
    ):
        # Engine choice is not part of the cell key: a batched sweep's
        # entries must serve a later per-cell sweep verbatim.
        cells = len(traces) * len(POLICIES)
        first = SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert first.stats.simulated == cells and first.stats.hits == 0
        second = SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, POLICIES, config=machine, engine="reference"
        )
        assert second.stats.hits == cells and second.stats.simulated == 0
        assert canon_matrix(second) == reference_baseline

    def test_cached_cells_never_reach_the_batch_path(
        self, tmp_path, machine, traces, monkeypatch
    ):
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(traces, POLICIES, config=machine, engine="batched")

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("batched path ran despite a full cache")

        monkeypatch.setattr(BatchSimulator, "__init__", boom)
        outcome = SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert outcome.stats.hits == len(traces) * len(POLICIES)

    def test_partial_cache_batches_only_the_pending_cells(
        self, tmp_path, machine, traces, reference_baseline
    ):
        warm = SweepEngine(cache_dir=tmp_path, jobs=1)
        warm.run({"zipf": traces["zipf"]}, POLICIES, config=machine)
        outcome = SweepEngine(cache_dir=tmp_path, jobs=1).run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert outcome.stats.hits == len(POLICIES)
        assert outcome.stats.simulated == len(POLICIES)
        assert canon_matrix(outcome) == reference_baseline


def doubled_l1d(machine):
    l1d = machine.l1d
    return replace(machine, l1d=replace(l1d, size_bytes=2 * l1d.size_bytes))


def slower_llc(machine):
    llc = machine.llc
    return replace(machine, llc=replace(llc, hit_latency=llc.hit_latency + 10))


class TestPlanGeometryGuard:
    """run_cell refuses a hierarchy unlike the machine its plan baked in."""

    @pytest.mark.parametrize("variant", [doubled_l1d, slower_llc])
    def test_mismatched_hierarchy_rejected(self, machine, traces, variant):
        sim = BatchSimulator(traces["zipf"], machine)
        hierarchy = build_hierarchy(variant(machine), "lru")
        tags_before = list(hierarchy.l1d._tags)
        with pytest.raises(ConfigurationError, match="does not match the plan"):
            sim.run_cell("lru", hierarchy)
        # Refused before anything was published into it.
        assert hierarchy.l1d._tags == tags_before

    def test_hierarchy_from_plan_config_runs(self, machine, traces):
        trace = traces["zipf"]
        sim = BatchSimulator(trace, machine)
        result = sim.run_cell("ship", build_hierarchy(machine, "ship"))
        reference = simulate(
            trace, config=machine, llc_policy="ship", engine="reference"
        )
        assert canonical(result) == canonical(reference)


class TestIneligibleFallback:
    def test_writeback_trace_completes_per_cell(self, machine, traces):
        mixed = dict(traces)
        mixed["wb"] = make_trace(
            [i * 64 for i in range(64)], kinds=int(AccessKind.WRITEBACK),
            name="wb",
        )
        batched = canon_matrix(
            SweepEngine().run(mixed, POLICIES, config=machine, engine="batched")
        )
        fast = canon_matrix(
            SweepEngine().run(mixed, POLICIES, config=machine,
                              engine="reference")
        )
        assert batched == fast
        assert {w for w, _ in batched} == {"zipf", "stream", "wb"}

    def test_plan_failure_falls_back_per_cell(
        self, machine, traces, reference_baseline, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("plan construction exploded")

        monkeypatch.setattr(BatchSimulator, "__init__", boom)
        outcome = SweepEngine().run(
            traces, POLICIES, config=machine, engine="batched"
        )
        assert canon_matrix(outcome) == reference_baseline

    def test_group_worker_reports_incomplete_cells(self, machine, traces):
        original = BatchSimulator.run_cell

        def flaky(self, policy, hierarchy):
            if policy == "ship":
                raise RuntimeError("cell exploded mid-batch")
            return original(self, policy, hierarchy)

        BatchSimulator.run_cell = flaky
        try:
            _, outcomes = _simulate_group(
                "zipf", POLICIES, traces["zipf"], machine, 0.2
            )
        finally:
            BatchSimulator.run_cell = original
        by_policy = {policy: completed for policy, completed, _ in outcomes}
        assert by_policy == {"lru": True, "ship": False, "drrip": True}


def recording_pool(monkeypatch) -> dict:
    """Record the engine's pool initializer arguments and submissions."""
    import repro.harness.engine as engine_module

    captured = {"initargs": [], "submits": []}

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            captured["initargs"].append(kwargs.get("initargs"))
            super().__init__(*args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            captured["submits"].append((fn.__name__, args))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(engine_module, "ProcessPoolExecutor", RecordingPool)
    return captured


class TestDefaultSweepPath:
    """A default sweep runs its pending cells in per-trace batch units,
    and whatever a unit leaves unfinished falls back to the per-cell
    phase."""

    def test_one_ineligible_cell_is_one_fallback(self, machine, traces):
        mixed = {
            "zipf": traces["zipf"],
            "wb": make_trace([i * 64 for i in range(64)],
                             kinds=int(AccessKind.WRITEBACK), name="wb"),
        }
        outcome = SweepEngine().run(mixed, ["lru"], config=machine)
        assert outcome.stats.fallbacks == 1
        assert outcome.stats.simulated == 2
        assert canon_matrix(outcome) == canon_matrix(
            SweepEngine().run(mixed, ["lru"], config=machine,
                              engine="reference")
        )

    def test_per_cell_sweeps_skip_the_batched_pass(
        self, machine, traces, monkeypatch
    ):
        def no_plan(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a per-cell sweep built a batch plan")

        monkeypatch.setattr(BatchSimulator, "__init__", no_plan)
        for options in ({"engine": "reference"}, {"sanitize": True}):
            outcome = SweepEngine().run(
                traces, ["lru"], config=machine, **options)
            assert outcome.stats.fallbacks == 0
            assert outcome.stats.simulated == len(traces)

    @pytest.mark.parametrize(
        "names, jobs, cpus, expected",
        [
            # 2 jobs // 1 trace = 2 units, policies dealt round-robin.
            (("zipf",), 2, 4, [("zipf", ["lru", "drrip"]), ("zipf", ["ship"])]),
            # 3 jobs // 2 traces = 1: splitting both traces would queue a
            # second plan pass behind the first on one of three workers.
            (("zipf", "stream"), 3, 4, [("stream", POLICIES), ("zipf", POLICIES)]),
            # min(4 jobs, 2 CPUs) // 1 trace = 2: four units would run
            # four plan passes on two CPUs.
            (("zipf",), 4, 2, [("zipf", ["lru", "drrip"]), ("zipf", ["ship"])]),
        ],
        ids=["one-trace-2-jobs", "two-traces-3-jobs", "one-trace-4-jobs-2-cpus"],
    )
    def test_units_split_only_onto_spare_workers(
        self, machine, traces, reference_baseline, monkeypatch,
        names, jobs, cpus, expected,
    ):
        import repro.harness.engine as engine_module

        monkeypatch.setattr(engine_module, "usable_cpus", lambda: cpus)
        captured = recording_pool(monkeypatch)
        subset = {name: traces[name] for name in names}
        outcome = SweepEngine(jobs=jobs).run(subset, POLICIES, config=machine)
        units = [
            (args[0], args[1]) for name, args in captured["submits"]
            if name == "_simulate_group_by_name"
        ]
        assert sorted(units) == expected
        assert outcome.stats.fallbacks == 0
        assert canon_matrix(outcome) == {
            cell: payload for cell, payload in reference_baseline.items()
            if cell[0] in names
        }

    def test_hanging_cell_times_out_its_unit_then_its_cell(
        self, machine, traces, reference_baseline, monkeypatch
    ):
        """The unit's watchdog (one ``cell_timeout`` per policy) ends the
        hung unit; the per-cell phase classifies the hung cell and the
        rest of its trace completes bit-identically."""

        def hang(workload, policy):
            if (workload, policy) == ("zipf", "ship"):
                time.sleep(60)

        inject_cell_faults(monkeypatch, traces, hang)
        outcome = SweepEngine(jobs=1).run(
            traces, POLICIES, config=machine, isolate_failures=True,
            retry=RetryPolicy(max_attempts=1, cell_timeout=1.0),
        )
        assert set(outcome.errors) == {("zipf", "ship")}
        error = outcome.errors[("zipf", "ship")]
        assert error.error_type == "CellTimeoutError"
        assert error.classification == "transient"
        (attempt,) = outcome.failure_report.cells[("zipf", "ship")].attempts
        assert attempt.error_type == "CellTimeoutError"
        assert outcome.stats.fallbacks == len(POLICIES)
        assert canon_matrix(outcome) == {
            cell: payload for cell, payload in reference_baseline.items()
            if cell != ("zipf", "ship")
        }

    def test_unit_over_its_memory_budget_falls_back(
        self, machine, traces, reference_baseline, monkeypatch
    ):
        """A unit whose RSS breaches the budget hands its cells to the
        per-cell phase, which completes them under the same budget."""
        from repro.resilience import durability

        bloated = threading.Event()
        real_rss = durability.current_rss_bytes
        monkeypatch.setattr(
            durability, "current_rss_bytes",
            lambda: 2**60 if bloated.is_set() else real_rss(),
        )
        real_plan = BatchSimulator.__init__

        def bloating_plan(self, *args, **kwargs):
            bloated.set()
            try:
                # Short sleeps, so the watchdog's interrupt of the main
                # thread lands between them.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    time.sleep(0.01)
            finally:
                bloated.clear()
            real_plan(self, *args, **kwargs)  # pragma: no cover

        monkeypatch.setattr(BatchSimulator, "__init__", bloating_plan)
        outcome = SweepEngine(jobs=1).run(
            {"zipf": traces["zipf"]}, POLICIES, config=machine,
            isolate_failures=True, memory_budget_mb=2.0**30,
        )
        assert not outcome.errors
        assert outcome.stats.fallbacks == len(POLICIES)
        assert outcome.stats.simulated == len(POLICIES)
        assert canon_matrix(outcome) == {
            cell: payload for cell, payload in reference_baseline.items()
            if cell[0] == "zipf"
        }


class TestResilienceIntegration:
    def test_poisoned_batched_cell_rest_recovers(
        self, machine, traces, reference_baseline, monkeypatch
    ):
        """One cell fails in the batch AND per-cell with MemoryError: it
        must be isolated as poison while every other cell — including the
        other policies of the same trace — completes bit-identically."""
        import repro.harness.engine as engine_module

        original_run_cell = BatchSimulator.run_cell

        def poisoned_run_cell(self, policy, hierarchy):
            if policy == "ship" and self.trace.name == traces["zipf"].name:
                raise MemoryError("poisoned cell")
            return original_run_cell(self, policy, hierarchy)

        original_cell = engine_module._simulate_cell

        def poisoned_cell(workload, policy, trace, *args, **kwargs):
            if workload == "zipf" and policy == "ship":
                raise MemoryError("poisoned cell")
            return original_cell(workload, policy, trace, *args, **kwargs)

        monkeypatch.setattr(BatchSimulator, "run_cell", poisoned_run_cell)
        monkeypatch.setattr(engine_module, "_simulate_cell", poisoned_cell)

        outcome = SweepEngine().run(
            traces, POLICIES, config=machine, engine="batched",
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01,
                              backoff_max=0.05),
            isolate_failures=True,
        )
        assert set(outcome.errors) == {("zipf", "ship")}
        assert outcome.errors[("zipf", "ship")].classification == "poison"
        survived = canon_matrix(outcome)
        expected = {
            cell: payload for cell, payload in reference_baseline.items()
            if cell != ("zipf", "ship")
        }
        assert survived == expected
        report = outcome.failure_report
        assert len(report.poisoned) == 1


class TestTraceDedup:
    """The standalone fix: traces cross the pool boundary once per
    worker (via the initializer registry), never per submitted cell."""

    def test_parallel_submits_names_not_traces(
        self, machine, traces, monkeypatch
    ):
        """Pinned to the per-cell phase (``engine="reference"``); the
        twin below checks the batch units of a default sweep."""
        from repro.trace.trace import Trace

        captured = recording_pool(monkeypatch)
        SweepEngine(jobs=2).run(
            traces, POLICIES, config=machine, engine="reference"
        )
        assert len(captured["submits"]) == len(traces) * len(POLICIES)
        for name, args in captured["submits"]:
            assert name == "_simulate_cell_by_name"
            assert not any(isinstance(a, Trace) for a in args)
        (initargs,) = captured["initargs"]
        (registry,) = initargs
        assert set(registry) == set(traces)

    def test_batched_groups_submit_names_not_traces(
        self, machine, traces, monkeypatch
    ):
        from repro.trace.trace import Trace

        captured = recording_pool(monkeypatch)
        SweepEngine(jobs=2).run(traces, POLICIES, config=machine)
        group_submits = [
            (name, args) for name, args in captured["submits"]
            if name == "_simulate_group_by_name"
        ]
        assert len(group_submits) == len(traces)
        for _, args in group_submits:
            assert not any(isinstance(a, Trace) for a in args)

    def test_worker_registry_resolves_and_rejects(self, machine, traces):
        _install_worker_traces(dict(traces))
        try:
            workload, policy, result = _simulate_cell_by_name(
                "zipf", "lru", machine, 0.2, False
            )
            assert (workload, policy) == ("zipf", "lru")
            direct = simulate(traces["zipf"], config=machine, llc_policy="lru")
            assert canonical(result) == canonical(direct)
            with pytest.raises(SimulationError, match="no registered trace"):
                _simulate_cell_by_name("missing", "lru", machine, 0.2, False)
        finally:
            _install_worker_traces({})


class TestEquivalenceHarness:
    def test_verify_fastpath_batched_engine(self, machine):
        from repro.harness.equivalence import verify_fastpath

        traces = {"zipf": synthetic.zipf_reuse(2_000, num_blocks=300, seed=5)}
        report = verify_fastpath(
            config=machine, policies=["lru", "ship"], traces=traces,
            engine="batched",
        )
        assert report.passed
        assert report.fast_coverage == len(report.cases) == 4

    def test_invalid_candidate_engine_rejected(self, machine):
        from repro.harness.equivalence import verify_fastpath

        with pytest.raises(ValueError, match="candidate engine"):
            verify_fastpath(config=machine, engine="warp")
