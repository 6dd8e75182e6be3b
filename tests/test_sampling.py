"""Representative-interval sampling: spec, clustering, plan, execution.

Sampling's contract is threefold — the spec round-trips losslessly (it
lives inside sweep cell keys), interval selection and recombination are
bit-identical across repeated runs and across serial/parallel sweeps,
and the simulate() facade refuses the combinations the executor cannot
honour. These tests pin all three on synthetic traces and the small
test machine so the whole module stays in tier-1 time.
"""

import json

import numpy as np
import pytest

from conftest import make_trace
from repro.core.config import small_test_machine
from repro.core.simulator import build_hierarchy, simulate
from repro.errors import ConfigurationError
from repro.harness.engine import SweepEngine, cell_key
from repro.harness.equivalence import ifetch_mix
from repro.policies.registry import PAPER_POLICIES
from repro.sampling import (
    SYNTHESIS_STRATEGIES,
    SamplingPlan,
    SamplingSpec,
    build_plan,
    kmeans,
    recombine,
    simulate_sampled,
    synthesize_warm_state,
)
from repro.telemetry import TelemetryConfig
from repro.trace import synthetic
from repro.trace.record import AccessKind
from repro.trace.trace import Trace


def canonical(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def machine():
    return small_test_machine()


@pytest.fixture(scope="module")
def engine_traces(machine):
    """Traces for the fast-vs-reference matrix on the small machine.

    ``ifetch`` mixes IFETCHes and stores in. ``crowded`` maps 160
    distinct blocks onto four sets of every level — more blocks per set
    than the L2 and LLC have ways — so warm-state synthesis overflows
    sets and takes its eviction path.
    """
    rng = np.random.default_rng(17)
    n = 3_000
    llc = build_hierarchy(machine, "lru").llc
    blocks = (np.arange(40)[:, None] * llc.num_sets + np.arange(4)).ravel()
    picks = np.where(
        rng.random(n) < 0.5,
        rng.integers(0, 24, n),  # a hot subset that hits now and then
        rng.integers(0, len(blocks), n),
    )
    kinds = rng.choice(
        [AccessKind.LOAD, AccessKind.STORE, AccessKind.IFETCH], n, p=[0.6, 0.25, 0.15]
    )
    crowded = Trace.from_arrays(
        (blocks[picks] << llc.block_bits).astype(np.uint64),
        (0x400000 + 4 * rng.integers(0, 16, n)).astype(np.uint64),
        kinds.astype(np.uint8),
        rng.integers(1, 8, n).astype(np.uint32),
        name="crowded-sets",
    )
    return {"ifetch": ifetch_mix(n), "crowded": crowded}


@pytest.fixture(scope="module")
def phase_trace():
    """Two distinct phases: a tight loop, then a streaming scan."""
    loop = synthetic.zipf_reuse(4_000, num_blocks=64, seed=1)
    stream = synthetic.strided(4_000, stride=64, elements=2_000)
    addrs = np.concatenate([loop.addrs, stream.addrs + (1 << 30)])
    pcs = np.concatenate([loop.pcs, stream.pcs + (1 << 20)])
    kinds = np.concatenate([loop.kinds, stream.kinds])
    gaps = np.concatenate([loop.gaps, stream.gaps])
    return Trace.from_arrays(addrs, pcs, kinds, gaps, name="two-phase")


class TestSamplingSpec:
    def test_json_roundtrip(self):
        spec = SamplingSpec(intervals=3, window_size=500, warm_windows=2, seed=7)
        assert SamplingSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_from_json_rejects_wrong_schema(self):
        doc = SamplingSpec().to_json_dict()
        doc["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema_version"):
            SamplingSpec.from_json_dict(doc)

    def test_from_string_default(self):
        assert SamplingSpec.from_string("default") == SamplingSpec()
        assert SamplingSpec.from_string("") == SamplingSpec()

    def test_from_string_pairs(self):
        spec = SamplingSpec.from_string("k=6,window=1000,warm=0,seed=3")
        assert spec == SamplingSpec(
            intervals=6, window_size=1_000, warm_windows=0, seed=3
        )

    def test_from_string_rejects_unknown_key(self):
        with pytest.raises(ConfigurationError, match="bad sampling spec"):
            SamplingSpec.from_string("clusters=4")

    def test_from_string_rejects_non_integer(self):
        with pytest.raises(ConfigurationError, match="not an integer"):
            SamplingSpec.from_string("k=four")

    def test_from_string_synthesis_and_replay(self):
        spec = SamplingSpec.from_string("synthesis=replay,replay=2")
        assert spec == SamplingSpec(warm_synthesis="replay", replay_windows=2)
        assert SamplingSpec.from_string(
            "synthesis=checkpoint"
        ) == SamplingSpec(warm_synthesis="checkpoint")

    def test_from_string_rejects_unknown_synthesis(self):
        with pytest.raises(ConfigurationError, match="warm_synthesis"):
            SamplingSpec.from_string("synthesis=psychic")

    def test_json_roundtrip_carries_synthesis(self):
        spec = SamplingSpec(warm_synthesis="replay", replay_windows=3)
        assert SamplingSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_describe_names_the_strategy(self):
        assert "synthesis=recency" in SamplingSpec().describe()
        assert "replay(2w)" in SamplingSpec(
            warm_synthesis="replay", replay_windows=2
        ).describe()

    def test_effective_window_budgets_replay_windows(self):
        base = SamplingSpec()
        replay = SamplingSpec(warm_synthesis="replay", replay_windows=4)
        n = 1_000_000
        # Replay windows cost a functional pass each, so the auto window
        # shrinks to keep total touched work within the same budget.
        assert replay.effective_window(n) < base.effective_window(n)
        per_interval = replay.warm_windows + 1 + replay.replay_windows
        window = replay.effective_window(n)
        assert replay.intervals * per_interval * window <= n // replay.target_reduction

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"intervals": 0},
            {"window_size": -1},
            {"warm_windows": -1},
            {"target_reduction": 1},
            {"warm_synthesis": "psychic"},
            {"replay_windows": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SamplingSpec(**kwargs)

    def test_effective_window_explicit_wins(self):
        assert SamplingSpec(window_size=777).effective_window(1_000_000) == 777

    def test_effective_window_auto_meets_reduction(self):
        spec = SamplingSpec(intervals=4, warm_windows=1, target_reduction=12)
        n = 1_000_000
        window = spec.effective_window(n)
        # k * (warm + 1) windows simulated must cost <= n / reduction.
        assert spec.intervals * (spec.warm_windows + 1) * window <= n // 12

    def test_effective_window_floor(self):
        assert SamplingSpec().effective_window(100) == 250


class TestKMeans:
    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(40, 5))
        a = kmeans(vectors, 4, seed=9)
        b = kmeans(vectors, 4, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centers, b.centers)

    def test_k_clamped_to_vector_count(self):
        vectors = np.random.default_rng(1).normal(size=(3, 4))
        assert kmeans(vectors, 10, seed=0).k == 3

    def test_separates_obvious_clusters(self):
        near = np.zeros((10, 2))
        far = np.full((10, 2), 100.0)
        result = kmeans(np.vstack([near, far]), 2, seed=0)
        assert len(set(result.assignments[:10])) == 1
        assert len(set(result.assignments[10:])) == 1
        assert result.assignments[0] != result.assignments[10]

    def test_duplicate_vectors_do_not_crash(self):
        vectors = np.ones((8, 3))
        result = kmeans(vectors, 4, seed=2)
        assert result.assignments.shape == (8,)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 4)), 2, seed=0)


class TestBuildPlan:
    def test_deterministic(self, phase_trace):
        spec = SamplingSpec(intervals=3, window_size=500)
        a = build_plan(phase_trace, spec)
        b = build_plan(phase_trace, spec)
        assert a == b

    def test_weights_cover_every_window(self, phase_trace):
        plan = build_plan(phase_trace, SamplingSpec(intervals=3, window_size=500))
        assert plan.total_weight == plan.num_windows

    def test_intervals_in_trace_order(self, phase_trace):
        plan = build_plan(phase_trace, SamplingSpec(intervals=4, window_size=500))
        starts = [interval.start for interval in plan.intervals]
        assert starts == sorted(starts)

    def test_warm_start_precedes_and_clamps(self, phase_trace):
        plan = build_plan(
            phase_trace, SamplingSpec(intervals=4, window_size=500, warm_windows=2)
        )
        for interval in plan.intervals:
            assert 0 <= interval.warm_start <= interval.start
            assert interval.start - interval.warm_start <= 2 * plan.window_size

    def test_seed_changes_selection_key(self, phase_trace):
        # Different seeds may or may not pick different intervals, but
        # the plan must carry the seed so cache keys distinguish them.
        a = build_plan(phase_trace, SamplingSpec(seed=0, window_size=500))
        b = build_plan(phase_trace, SamplingSpec(seed=1, window_size=500))
        assert a.spec != b.spec

    def test_empty_trace_rejected(self):
        from repro.trace.record import TRACE_DTYPE

        empty = Trace(np.empty(0, dtype=TRACE_DTYPE))
        with pytest.raises(ConfigurationError, match="empty trace"):
            build_plan(empty, SamplingSpec())

    def test_bad_warmup_fraction_rejected(self, phase_trace):
        with pytest.raises(ConfigurationError, match="warmup_fraction"):
            build_plan(phase_trace, SamplingSpec(), warmup_fraction=1.0)

    def test_json_dict_reports_reduction(self, phase_trace):
        plan = build_plan(phase_trace, SamplingSpec(intervals=2, window_size=400))
        doc = plan.to_json_dict()
        assert doc["trace_accesses"] == len(phase_trace)
        assert doc["reduction"] == round(plan.reduction, 3)
        assert len(doc["intervals"]) == len(plan.intervals)


class TestWarmStateSynthesis:
    def test_prefix_blocks_land_in_cache(self, machine):
        trace = synthetic.zipf_reuse(2_000, num_blocks=50, seed=4)
        hierarchy = build_hierarchy(machine, "lru")
        fills = synthesize_warm_state(hierarchy, trace, 1_000)
        assert fills > 0
        # The most recently touched block of the prefix must be resident.
        blocks = trace.block_addrs(hierarchy.block_bits)[:1_000]
        assert hierarchy.llc.contains(int(blocks[-1]))

    def test_zero_boundary_is_noop(self, machine):
        trace = synthetic.zipf_reuse(500, num_blocks=20, seed=4)
        hierarchy = build_hierarchy(machine, "lru")
        assert synthesize_warm_state(hierarchy, trace, 0) == 0

    def test_statistics_untouched(self, machine):
        trace = synthetic.zipf_reuse(2_000, num_blocks=50, seed=4)
        hierarchy = build_hierarchy(machine, "lru")
        synthesize_warm_state(hierarchy, trace, 1_000)
        assert hierarchy.llc.stats.demand_accesses == 0
        assert hierarchy.llc.stats.demand_hits == 0


class TestSimulateSampled:
    def test_bit_identical_repeated_runs(self, machine, phase_trace):
        spec = SamplingSpec(intervals=3, window_size=500)
        a = simulate_sampled(phase_trace, config=machine, sampling=spec)
        b = simulate_sampled(phase_trace, config=machine, sampling=spec)
        assert canonical(a) == canonical(b)

    def test_info_carries_plan(self, machine, phase_trace):
        result = simulate_sampled(
            phase_trace, config=machine, sampling=SamplingSpec(window_size=500)
        )
        plan_doc = result.info["sampling_plan"]
        assert plan_doc["workload"] == phase_trace.name
        assert plan_doc["reduction"] > 1.0

    def test_tracks_full_run_mpki(self, machine, phase_trace):
        full = simulate(phase_trace, config=machine, llc_policy="lru")
        sampled = simulate_sampled(
            phase_trace,
            config=machine,
            llc_policy="lru",
            sampling=SamplingSpec(intervals=4, window_size=500),
        )
        # Tiny synthetic trace, so just a sanity band — the real budget
        # is enforced against BENCH_sampling.json by the CI gate.
        assert sampled.llc_mpki == pytest.approx(full.llc_mpki, rel=0.5)

    def test_facade_dispatches(self, machine, phase_trace):
        spec = SamplingSpec(intervals=2, window_size=500)
        via_facade = simulate(phase_trace, config=machine, sampling=spec)
        direct = simulate_sampled(phase_trace, config=machine, sampling=spec)
        assert canonical(via_facade) == canonical(direct)

    def test_facade_rejects_telemetry(self, machine, phase_trace):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            simulate(
                phase_trace,
                config=machine,
                sampling=SamplingSpec(),
                telemetry=TelemetryConfig(interval_instructions=600),
            )

    def test_facade_rejects_sanitize(self, machine, phase_trace):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            simulate(
                phase_trace, config=machine, sampling=SamplingSpec(), sanitize=True
            )

    def test_facade_rejects_prebuilt_hierarchy(self, machine, phase_trace):
        hierarchy = build_hierarchy(machine, "lru")
        with pytest.raises(ConfigurationError, match="hierarchy"):
            simulate(
                phase_trace,
                config=machine,
                sampling=SamplingSpec(),
                hierarchy=hierarchy,
            )

    def test_rejects_unknown_engine(self, machine, phase_trace):
        with pytest.raises(ConfigurationError, match="engine"):
            simulate_sampled(
                phase_trace, config=machine, sampling=SamplingSpec(), engine="warp"
            )

    @pytest.mark.parametrize("trace_name", ("ifetch", "crowded"))
    @pytest.mark.parametrize("policy", ("lru", *PAPER_POLICIES))
    @pytest.mark.parametrize("synthesis", SYNTHESIS_STRATEGIES)
    def test_reference_engine_agrees(
        self, machine, engine_traces, synthesis, policy, trace_name
    ):
        """The fast path (one machine per cell, flat-array synthesis, fast
        functional passes) reproduces the reference oracle bit for bit."""
        trace = engine_traces[trace_name]
        spec = SamplingSpec(intervals=2, window_size=400, warm_synthesis=synthesis)
        fast = simulate_sampled(
            trace, config=machine, llc_policy=policy, sampling=spec, engine="fast"
        )
        ref = simulate_sampled(
            trace, config=machine, llc_policy=policy, sampling=spec,
            engine="reference",
        )
        assert canonical(fast) == canonical(ref)

    @pytest.mark.parametrize("trace_name", ("ifetch", "crowded"))
    @pytest.mark.parametrize("synthesis", SYNTHESIS_STRATEGIES)
    def test_reference_engine_agrees_without_warm_windows(
        self, machine, engine_traces, synthesis, trace_name
    ):
        """Without a simulated warm-up, any DRAM state a functional pass
        leaves behind reaches the measured interval directly."""
        trace = engine_traces[trace_name]
        spec = SamplingSpec(
            intervals=2, window_size=400, warm_windows=0, warm_synthesis=synthesis
        )
        fast, ref = (
            simulate_sampled(
                trace, config=machine, llc_policy="ship", sampling=spec,
                engine=engine,
            )
            for engine in ("fast", "reference")
        )
        assert canonical(fast) == canonical(ref)


class TestRecombine:
    def test_single_interval_weight_is_identity_on_ratios(self, machine):
        trace = synthetic.zipf_reuse(1_500, num_blocks=60, seed=8)
        spec = SamplingSpec(intervals=1, window_size=400, warm_windows=0)
        result = simulate_sampled(trace, config=machine, sampling=spec)
        assert result.llc_mpki >= 0.0
        assert result.info["sampling_plan"]["spec"]["intervals"] == 1

    def test_rejects_empty_measurements(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="no measured intervals"):
            recombine([], "two-phase", "lru")


class TestSweepIntegration:
    @pytest.fixture(scope="class")
    def traces(self):
        return {
            "zipf": synthetic.zipf_reuse(3_000, num_blocks=300, seed=3),
            "stream": synthetic.strided(3_000, stride=64, elements=150),
        }

    def test_cell_key_distinguishes_sampling(self, machine, traces):
        trace = traces["zipf"]
        base = cell_key(trace, "lru", machine, 0.1)
        sampled = cell_key(trace, "lru", machine, 0.1, sampling=SamplingSpec())
        reseeded = cell_key(
            trace, "lru", machine, 0.1, sampling=SamplingSpec(seed=1)
        )
        resynthesized = cell_key(
            trace,
            "lru",
            machine,
            0.1,
            sampling=SamplingSpec(warm_synthesis="replay"),
        )
        assert len({base, sampled, reseeded, resynthesized}) == 4

    def test_serial_parallel_bit_identical(self, machine, traces):
        spec = SamplingSpec(intervals=2, window_size=400)
        serial = SweepEngine().run(
            traces, ["lru", "srrip"], config=machine, sampling=spec
        )
        parallel = SweepEngine(jobs=2).run(
            traces, ["lru", "srrip"], config=machine, sampling=spec
        )
        for workload, row in serial.matrix.results.items():
            for policy, result in row.items():
                assert canonical(result) == canonical(
                    parallel.matrix.results[workload][policy]
                ), (workload, policy)

    def test_sampled_cells_cache_separately(self, machine, traces, tmp_path):
        spec = SamplingSpec(intervals=2, window_size=400)
        engine = SweepEngine(cache_dir=tmp_path, jobs=1)
        engine.run(traces, ["lru"], config=machine)
        outcome = engine.run(traces, ["lru"], config=machine, sampling=spec)
        # Full-run entries must not satisfy sampled cells.
        assert outcome.stats.hits == 0
        rerun = engine.run(traces, ["lru"], config=machine, sampling=spec)
        assert rerun.stats.hits == len(traces)

    def test_sampling_with_telemetry_rejected(self, machine, traces):
        with pytest.raises(ConfigurationError, match="cannot be combined"):
            SweepEngine().run(
                traces,
                ["lru"],
                config=machine,
                sampling=SamplingSpec(),
                telemetry=TelemetryConfig(interval_instructions=600),
            )

    def test_sampling_with_sanitize_rejected(self, machine, traces):
        with pytest.raises(ConfigurationError, match="cannot be combined"):
            SweepEngine().run(
                traces,
                ["lru"],
                config=machine,
                sampling=SamplingSpec(),
                sanitize=True,
            )

    def test_batched_engine_falls_back(self, machine, traces):
        spec = SamplingSpec(intervals=2, window_size=400)
        batched = SweepEngine().run(
            traces, ["lru"], config=machine, engine="batched", sampling=spec
        )
        plain = SweepEngine().run(
            traces, ["lru"], config=machine, sampling=spec
        )
        for workload in traces:
            assert canonical(batched.matrix.results[workload]["lru"]) == canonical(
                plain.matrix.results[workload]["lru"]
            )
