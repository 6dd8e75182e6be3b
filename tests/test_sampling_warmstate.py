"""Warm-state protocol, synthesis strategies, and sampling guard rails.

The checkpoint protocol's contract is bit-identity: a policy's
``checkpoint_tables`` snapshot restored into a fresh instance must
reproduce the exact same snapshot, and the executor's boundary
checkpoints must match what an uninterrupted functional pass holds at
the same boundary. These tests pin that contract per policy, the
eviction-training guard's exception safety, the degenerate-input
behaviour of recombination, and the structured errors for traces too
short to sample.
"""

import json
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.config import small_test_machine
from repro.core.cpu import CoreModel
from repro.core.results import snapshot_result
from repro.core.simulator import build_hierarchy, simulate
from repro.errors import ConfigurationError
from repro.policies.basic import LRUPolicy
from repro.policies.registry import (
    PAPER_POLICIES,
    WARM_STATE_EXCLUDED,
    available_policies,
    make_policy,
)
from repro.sampling import (
    PREFERRED_SYNTHESIS,
    SYNTHESIS_STRATEGIES,
    VALIDATED_POLICIES,
    SamplingSpec,
    build_plan,
    compute_boundary_checkpoints,
    recombine,
    simulate_sampled,
    synthesize_from_checkpoint,
)
from repro.sampling.executor import _fill_blocks, _functional_replay, _refill_llc
from repro.trace import synthetic
from repro.trace.record import AccessKind
from repro.trace.trace import Trace

#: Registered policies implementing the warm-state checkpoint protocol.
PROTOCOL_POLICIES = tuple(
    name for name in available_policies()
    if build_hierarchy(small_test_machine(), name).llc.policy.checkpoint_tables()
    is not None
)


def canonical(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def machine():
    return small_test_machine()


@pytest.fixture(scope="module")
def phase_trace():
    """Two distinct phases so plans select multiple intervals."""
    loop = synthetic.zipf_reuse(4_000, num_blocks=64, seed=11)
    stream = synthetic.strided(4_000, stride=64, elements=2_000)
    addrs = np.concatenate([loop.addrs, stream.addrs + (1 << 30)])
    pcs = np.concatenate([loop.pcs, stream.pcs + (1 << 20)])
    kinds = np.concatenate([loop.kinds, stream.kinds])
    gaps = np.concatenate([loop.gaps, stream.gaps])
    return Trace.from_arrays(addrs, pcs, kinds, gaps, name="warm-two-phase")


class TestWarmStateProtocol:
    def test_every_registered_policy_implements_or_is_excluded(self, machine):
        for name in available_policies():
            policy = build_hierarchy(machine, name).llc.policy
            cls = type(policy).__name__
            if cls in WARM_STATE_EXCLUDED:
                assert policy.checkpoint_tables() is None, name
                with pytest.raises(NotImplementedError):
                    policy.restore_tables({})
            else:
                assert policy.checkpoint_tables() is not None, name

    def test_no_stale_exclusions(self):
        registered = {type(make_policy(n)).__name__ for n in available_policies()}
        assert set(WARM_STATE_EXCLUDED) <= registered

    @pytest.mark.parametrize("policy_name", PROTOCOL_POLICIES)
    def test_checkpoint_roundtrip_bit_identical(
        self, machine, phase_trace, policy_name
    ):
        trained = build_hierarchy(machine, policy_name)
        _functional_replay(trained, phase_trace, 0, 3_000)
        tables = trained.llc.policy.checkpoint_tables()
        assert tables is not None
        fresh = build_hierarchy(machine, policy_name)
        fresh.llc.policy.restore_tables(tables)
        assert fresh.llc.policy.checkpoint_tables() == tables

    @pytest.mark.parametrize("policy_name", PROTOCOL_POLICIES)
    def test_checkpoint_is_a_snapshot_not_an_alias(
        self, machine, phase_trace, policy_name
    ):
        hierarchy = build_hierarchy(machine, policy_name)
        _functional_replay(hierarchy, phase_trace, 0, 2_000)
        tables = hierarchy.llc.policy.checkpoint_tables()
        frozen = json.dumps(tables, sort_keys=True)
        _functional_replay(hierarchy, phase_trace, 2_000, 5_000)
        assert json.dumps(tables, sort_keys=True) == frozen

    @pytest.mark.parametrize("policy_name", ("ship", "hawkeye", "mpppb"))
    def test_restore_rejects_malformed_checkpoint(self, machine, policy_name):
        hierarchy = build_hierarchy(machine, policy_name)
        tables = hierarchy.llc.policy.checkpoint_tables()
        bad = dict(tables)
        for key, value in bad.items():
            if isinstance(value, list):
                bad[key] = value[:1]
                break
        with pytest.raises((ValueError, KeyError)):
            hierarchy.llc.policy.restore_tables(bad)


class TestEvictionTrainingGuard:
    class _ExplodingCache:
        """Cache stand-in whose second fill raises mid-rebuild."""

        def __init__(self, policy):
            self.policy = policy
            self.calls = 0

        def fill(self, block, pc, kind):
            self.calls += 1
            if self.calls == 2:
                raise RuntimeError("injected fill failure")

    def test_on_eviction_restored_after_failing_fill(self, machine):
        hierarchy = build_hierarchy(machine, "ship")
        policy = hierarchy.llc.policy
        original = policy.on_eviction
        cache = self._ExplodingCache(policy)
        blocks = np.arange(4, dtype=np.uint64)
        pcs = np.arange(4, dtype=np.uint64)
        kinds = np.zeros(4, dtype=np.uint8)
        with pytest.raises(RuntimeError, match="injected fill failure"):
            _fill_blocks(cache, blocks, pcs, kinds)
        # The guard must restore the real training hook even when the
        # rebuild dies half-way — otherwise every later eviction in the
        # measured run trains nothing, silently.
        assert policy.on_eviction == original
        assert getattr(policy.on_eviction, "__name__", "") != "<lambda>"

        # The fast path's LLC refill writes invalid ways directly and
        # calls Cache.fill only once a set is full: overflow set 0 so the
        # failing fill is reached there as well.
        llc = hierarchy.llc

        def failing_fill(block, pc, kind):
            raise RuntimeError("injected fill failure")

        llc.fill = failing_fill
        set_zero = np.arange(llc.num_ways + 1, dtype=np.uint64) * llc.num_sets
        with pytest.raises(RuntimeError, match="injected fill failure"):
            _refill_llc(
                llc, set_zero, set_zero, np.zeros(len(set_zero), dtype=np.uint8)
            )
        assert policy.on_eviction == original
        assert getattr(policy.on_eviction, "__name__", "") != "<lambda>"

    def test_on_eviction_restored_after_clean_rebuild(self, machine, phase_trace):
        hierarchy = build_hierarchy(machine, "ship")
        policy = hierarchy.llc.policy
        original = policy.on_eviction
        from repro.sampling import synthesize_warm_state

        synthesize_warm_state(hierarchy, phase_trace, 2_000)
        assert policy.on_eviction == original


class TestLLCRefill:
    @pytest.mark.parametrize("policy_name", ("lru", *PAPER_POLICIES))
    def test_refill_matches_reset_and_fill(self, machine, phase_trace, policy_name):
        """The fast path's direct LLC refill leaves the cache and its policy
        exactly as ``reset_content`` + ``_fill_blocks`` would."""
        hierarchies = [build_hierarchy(machine, policy_name) for _ in range(2)]
        for hierarchy in hierarchies:  # trained tables and lines to replace
            _functional_replay(hierarchy, phase_trace, 0, 3_000)
        reference, fast = (hierarchy.llc for hierarchy in hierarchies)
        rng = np.random.default_rng(29)
        # 300 distinct blocks: 160 crowd four sets (40 blocks for 8 ways,
        # so those sets overflow), 140 spread at random.
        crowded = np.arange(40)[:, None] * reference.num_sets + np.arange(4)
        spread = rng.choice(np.arange(10_000, 20_000), 140, replace=False)
        blocks = np.concatenate([crowded.ravel(), spread]).astype(np.uint64)
        rng.shuffle(blocks)
        pcs = (0x400000 + 4 * rng.integers(0, 32, len(blocks))).astype(np.uint64)
        kinds = rng.choice(
            [AccessKind.LOAD, AccessKind.STORE, AccessKind.IFETCH], len(blocks)
        ).astype(np.uint8)

        reference.reset_content()
        expected_fills = _fill_blocks(reference, blocks, pcs, kinds)
        assert _refill_llc(fast, blocks, pcs, kinds) == expected_fills
        assert reference.stats.evictions > 0  # the overflow path ran
        assert fast._tags == reference._tags
        assert fast._dirty == reference._dirty
        assert fast.stats == reference.stats
        assert (
            fast.policy.checkpoint_tables() == reference.policy.checkpoint_tables()
        )
        assert fast.policy.snapshot_state() == reference.policy.snapshot_state()


class TestRecombineDegenerate:
    def _zero_measurement(self, machine):
        """A measurement with zero instructions, cycles and DRAM traffic."""
        hierarchy = build_hierarchy(machine, "lru")
        core = CoreModel(machine.core)
        return snapshot_result("degenerate", "lru", hierarchy, core.drain())

    def test_zero_denominators_yield_zero_not_nan(self, machine):
        result = recombine([(self._zero_measurement(machine), 3)], "d", "lru")
        assert result.ipc == 0.0
        assert result.llc_mpki == 0.0
        assert result.dram_row_hit_rate == 0.0
        assert result.mean_load_latency == 0.0

    def test_zero_weight_measurements_do_not_divide_by_zero(self, machine):
        trace = synthetic.zipf_reuse(1_200, num_blocks=40, seed=5)
        full = simulate(trace, config=machine, llc_policy="lru")
        result = recombine([(full, 0)], trace.name, "lru")
        assert result.dram_row_hit_rate == 0.0
        assert result.mean_load_latency == 0.0
        assert result.instructions == 0

    def test_mixed_zero_and_live_intervals(self, machine):
        trace = synthetic.zipf_reuse(1_200, num_blocks=40, seed=5)
        full = simulate(trace, config=machine, llc_policy="lru")
        mixed = recombine(
            [(self._zero_measurement(machine), 2), (full, 3)], trace.name, "lru"
        )
        assert mixed.instructions == 3 * full.instructions
        assert mixed.ipc > 0.0


class TestShortTraceGuards:
    def test_trace_shorter_than_one_window_is_structured_error(self):
        short = synthetic.zipf_reuse(300, num_blocks=16, seed=2)
        with pytest.raises(ConfigurationError) as excinfo:
            build_plan(short, SamplingSpec(window_size=500))
        message = str(excinfo.value)
        assert short.name in message
        assert "500" in message
        assert "too short" in message

    def test_warm_windows_consuming_the_whole_trace_is_an_error(self):
        trace = synthetic.zipf_reuse(1_000, num_blocks=32, seed=3)
        with pytest.raises(ConfigurationError, match="run it unsampled"):
            build_plan(
                trace,
                SamplingSpec(intervals=2, window_size=500, warm_windows=1),
            )

    def test_simulate_sampled_propagates_the_guard(self, machine):
        short = synthetic.zipf_reuse(300, num_blocks=16, seed=2)
        with pytest.raises(ConfigurationError, match="too short"):
            simulate_sampled(
                short, config=machine, sampling=SamplingSpec(window_size=500)
            )


class TestSynthesisStrategies:
    def test_replay_is_deterministic_and_reported(self, machine, phase_trace):
        spec = SamplingSpec(intervals=3, window_size=500, warm_synthesis="replay")
        a = simulate_sampled(
            phase_trace, config=machine, llc_policy="ship", sampling=spec
        )
        b = simulate_sampled(
            phase_trace, config=machine, llc_policy="ship", sampling=spec
        )
        assert canonical(a) == canonical(b)
        assert a.info["sampling_replay_accesses"] > 0
        assert a.info["sampling_checkpoint_restores"] == 0

    def test_replay_start_precedes_warm_start(self, phase_trace):
        spec = SamplingSpec(
            intervals=3, window_size=500, warm_synthesis="replay", replay_windows=2
        )
        plan = build_plan(phase_trace, spec)
        for interval in plan.intervals:
            assert 0 <= interval.replay_start <= interval.warm_start
            assert interval.warm_start - interval.replay_start <= 2 * plan.window_size
        assert plan.functional_accesses > 0

    def test_checkpoint_requires_the_protocol(self, machine, phase_trace):
        """An unregistered table-less policy cannot run under checkpoint."""

        class BarePolicy(LRUPolicy):
            name = "bare-custom"

        spec = SamplingSpec(
            intervals=2, window_size=500, warm_synthesis="checkpoint"
        )
        with pytest.raises(ConfigurationError, match="warm-state"):
            simulate_sampled(
                phase_trace, config=machine, llc_policy=BarePolicy(),
                sampling=spec,
            )

    def test_checkpoint_degrades_to_recency_for_excluded_policies(
        self, machine, phase_trace
    ):
        """WARM_STATE_EXCLUDED policies (the CLI's forced LRU baseline)
        run under "checkpoint" as recency cells instead of refusing the
        whole sweep — bit-identical to an explicit recency run."""
        checkpoint = simulate_sampled(
            phase_trace, config=machine, llc_policy="lru",
            sampling=SamplingSpec(
                intervals=2, window_size=500, warm_synthesis="checkpoint"
            ),
        )
        recency = simulate_sampled(
            phase_trace, config=machine, llc_policy="lru",
            sampling=SamplingSpec(
                intervals=2, window_size=500, warm_synthesis="recency"
            ),
        )
        assert checkpoint.info["sampling_synthesis_effective"] == "recency"
        assert checkpoint.info["sampling_checkpoint_restores"] == 0
        assert checkpoint.llc_mpki == recency.llc_mpki
        assert checkpoint.ipc == recency.ipc
        # The requested spec still rides the result (distinct cache key).
        assert checkpoint.info["sampling"]["warm_synthesis"] == "checkpoint"

    def test_checkpoint_pass_rejects_unknown_engine(self, machine, phase_trace):
        with pytest.raises(ConfigurationError, match="engine"):
            compute_boundary_checkpoints(
                phase_trace, machine, "ship", (1_000,), engine="warp"
            )

    def test_checkpoint_deterministic(self, machine, phase_trace):
        spec = SamplingSpec(
            intervals=3, window_size=500, warm_synthesis="checkpoint"
        )
        a = simulate_sampled(
            phase_trace, config=machine, llc_policy="ship", sampling=spec
        )
        b = simulate_sampled(
            phase_trace, config=machine, llc_policy="ship", sampling=spec
        )
        assert canonical(a) == canonical(b)
        assert a.info["sampling_checkpoint_restores"] == len(
            a.info["sampling_plan"]["intervals"]
        )

    @pytest.mark.parametrize("policy_name", PROTOCOL_POLICIES)
    def test_boundary_checkpoint_matches_uninterrupted_pass(
        self, machine, phase_trace, policy_name
    ):
        boundaries = (0, 1_500, 4_000, 1_500, len(phase_trace))
        checkpoints = compute_boundary_checkpoints(
            phase_trace, machine, policy_name, boundaries
        )
        assert sorted(checkpoints) == sorted(set(boundaries))
        # An uninterrupted reference pass over the same prefix must land
        # on bit-identical tables and resident sets at every boundary.
        reference = build_hierarchy(machine, policy_name)
        position = 0
        for boundary in sorted(set(boundaries)):
            _functional_replay(reference, phase_trace, position, boundary)
            position = boundary
            checkpoint = checkpoints[boundary]
            assert (
                reference.llc.policy.checkpoint_tables() == checkpoint["tables"]
            ), boundary
            for name, cache in reference.caches.items():
                expected = np.sort(
                    np.asarray(cache.resident_blocks(), dtype=np.uint64)
                )
                assert np.array_equal(checkpoint["resident"][name], expected), (
                    boundary, name,
                )

    @pytest.mark.parametrize("policy_name", ("ship", "hawkeye"))
    def test_synthesize_from_checkpoint_reproduces_state(
        self, machine, phase_trace, policy_name
    ):
        boundary = 3_000
        checkpoints = compute_boundary_checkpoints(
            phase_trace, machine, policy_name, (boundary,)
        )
        target = build_hierarchy(machine, policy_name)
        fills = synthesize_from_checkpoint(
            target, phase_trace, boundary, checkpoints[boundary]
        )
        assert fills > 0
        assert (
            target.llc.policy.checkpoint_tables()
            == checkpoints[boundary]["tables"]
        )
        for name, cache in target.caches.items():
            resident = np.sort(np.asarray(cache.resident_blocks(), dtype=np.uint64))
            assert np.array_equal(
                resident, checkpoints[boundary]["resident"][name]
            ), name


class TestValidatedPolicies:
    def test_validated_policies_have_a_committed_strategy(self):
        for policy in VALIDATED_POLICIES:
            assert policy in PREFERRED_SYNTHESIS, policy
            assert PREFERRED_SYNTHESIS[policy] in SYNTHESIS_STRATEGIES

    def test_ship_is_validated(self):
        assert "ship" in VALIDATED_POLICIES

    @pytest.mark.parametrize("policy_name", VALIDATED_POLICIES)
    def test_sampled_tracks_full_under_committed_strategy(
        self, machine, phase_trace, policy_name
    ):
        spec = SamplingSpec(
            intervals=4,
            window_size=500,
            warm_synthesis=PREFERRED_SYNTHESIS[policy_name],
        )
        full = simulate(phase_trace, config=machine, llc_policy=policy_name)
        sampled = simulate_sampled(
            phase_trace, config=machine, llc_policy=policy_name, sampling=spec
        )
        # Tiny synthetic trace: a sanity band only — the committed error
        # budget is enforced against BENCH_sampling.json by the CI gate.
        assert sampled.llc_mpki == pytest.approx(full.llc_mpki, rel=0.5)


class TestCrossProcessDeterminism:
    SCRIPT = textwrap.dedent(
        """
        import json
        import numpy as np
        from repro.core.config import small_test_machine
        from repro.sampling import SamplingSpec, simulate_sampled
        from repro.trace import synthetic
        from repro.trace.trace import Trace

        loop = synthetic.zipf_reuse(3_000, num_blocks=64, seed=11)
        stream = synthetic.strided(3_000, stride=64, elements=1_500)
        trace = Trace.from_arrays(
            np.concatenate([loop.addrs, stream.addrs + (1 << 30)]),
            np.concatenate([loop.pcs, stream.pcs + (1 << 20)]),
            np.concatenate([loop.kinds, stream.kinds]),
            np.concatenate([loop.gaps, stream.gaps]),
            name="xproc",
        )
        spec = SamplingSpec(
            intervals=2, window_size=500, warm_synthesis="{synthesis}"
        )
        result = simulate_sampled(
            trace,
            config=small_test_machine(),
            llc_policy="ship",
            sampling=spec,
        )
        print(json.dumps(result.to_json_dict(), sort_keys=True))
        """
    )

    @pytest.mark.parametrize("synthesis", ("replay", "checkpoint"))
    def test_bit_identical_across_processes(self, synthesis):
        script = self.SCRIPT.format(synthesis=synthesis)
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].strip()
