"""Tests for the runtime invariant sanitizer (repro.lint.sanitize).

Two directions: broken policies must trip :class:`SanitizerError` with a
message naming the violated invariant, and correct runs — up to full
``run_matrix`` sweeps over synthetic GAP traces — must complete with zero
violations while actually executing checks.
"""

import pytest

from repro.core.config import small_test_machine
from repro.core.simulator import build_hierarchy, simulate
from repro.gap.suite import GapWorkloadSpec, build_graph, run_kernel
from repro.harness.runner import run_matrix
from repro.lint.sanitize import (
    AttachedSanitizers,
    HierarchySanitizer,
    InvariantSanitizer,
    SanitizerError,
    attach_sanitizers,
)
from repro.mem.cache import Cache
from repro.policies.base import BYPASS, PolicyAccess, ReplacementPolicy
from repro.policies.basic import LRUPolicy
from repro.trace.record import AccessKind
from repro.trace import synthetic

LOAD = AccessKind.LOAD
STORE = AccessKind.STORE


def sanitized_cache(policy=None, ways=4) -> Cache:
    cache = Cache("T", ways * 64, ways, policy or LRUPolicy())
    cache.attach_sanitizer(InvariantSanitizer())
    return cache


def fill_set(cache: Cache, count: int) -> None:
    for block in range(count):
        cache.fill(block, 0x400, LOAD)


class OutOfRangeVictim(LRUPolicy):
    name = "out-of-range"

    def find_victim(self, set_index, access, tags):
        return self.num_ways  # one past the end


class NoneVictim(LRUPolicy):
    name = "none-victim"

    def find_victim(self, set_index, access, tags):
        return None


class UndeclaredBypass(LRUPolicy):
    name = "undeclared-bypass"

    def find_victim(self, set_index, access, tags):
        return BYPASS  # without supports_bypass = True


class TestVictimChecks:
    def test_out_of_range_way_raises(self):
        cache = sanitized_cache(OutOfRangeVictim())
        with pytest.raises(SanitizerError, match="expected 0 <= way"):
            fill_set(cache, cache.num_ways + 1)

    def test_none_victim_raises(self):
        cache = sanitized_cache(NoneVictim())
        with pytest.raises(SanitizerError, match="find_victim returned way None"):
            fill_set(cache, cache.num_ways + 1)

    def test_undeclared_bypass_raises(self):
        cache = sanitized_cache(UndeclaredBypass())
        with pytest.raises(SanitizerError, match="supports_bypass"):
            fill_set(cache, cache.num_ways + 1)

    def test_declared_bypass_is_legal(self):
        class DeclaredBypass(UndeclaredBypass):
            name = "declared-bypass"
            supports_bypass = True

        cache = sanitized_cache(DeclaredBypass())
        fill_set(cache, cache.num_ways + 1)
        assert cache.stats.bypasses == 1


class TestEvictionPairing:
    def test_legal_evictions_are_counted(self):
        cache = sanitized_cache(LRUPolicy())
        fill_set(cache, cache.num_ways + 3)
        assert cache._sanitizer.evictions_verified == 3

    def test_swallowed_notification_raises(self):
        class Swallower(LRUPolicy):
            name = "swallower"

            def on_eviction(self, set_index, way, victim_block):
                pass  # defined, but the sanitizer wrapper replaces it...

        cache = sanitized_cache(Swallower())
        # ...so simulate the bug at the cache layer: drop the call.
        cache.policy.on_eviction = lambda *args: None
        with pytest.raises(SanitizerError, match="on_eviction never fired"):
            fill_set(cache, cache.num_ways + 1)

    def test_spurious_notification_raises(self):
        cache = sanitized_cache(LRUPolicy())
        fill_set(cache, cache.num_ways)
        with pytest.raises(SanitizerError, match="no eviction in progress"):
            cache.policy.on_eviction(0, 0, 0)

    def test_mismatched_notification_raises(self):
        sanitizer = InvariantSanitizer()
        cache = Cache("T", 4 * 64, 4, LRUPolicy())
        cache.attach_sanitizer(sanitizer)
        sanitizer.expect_eviction(0, 1, 0x10)
        with pytest.raises(SanitizerError, match="but the cache evicted"):
            cache.policy.on_eviction(0, 2, 0x10)

    def test_double_bind_rejected(self):
        cache = sanitized_cache(LRUPolicy())
        with pytest.raises(SanitizerError, match="already bound"):
            cache._sanitizer.bind(cache)


class TestSetChecks:
    def test_duplicate_tags_raise(self):
        cache = sanitized_cache(LRUPolicy())
        cache.fill(0, 0x400, LOAD)
        cache._tags[1] = 0  # corrupt: block 0 now in two ways of set 0
        with pytest.raises(SanitizerError, match="duplicate tag"):
            cache.access(0, 0x400, LOAD)

    def test_dirty_invalid_way_raises(self):
        cache = sanitized_cache(LRUPolicy())
        cache.fill(0, 0x400, STORE)
        cache._tags[0] = -1  # corrupt: dirty data with no tag
        with pytest.raises(SanitizerError, match="dirty but invalid"):
            cache._sanitizer.check_set(0)

    def test_geometry_violation_raises(self):
        cache = sanitized_cache(LRUPolicy())
        cache.fill(0, 0x400, LOAD)
        row = cache._tags[: cache.num_ways] + [99]  # set wider than its geometry
        with pytest.raises(SanitizerError, match="geometry says"):
            cache._sanitizer.check_row(0, row, cache._dirty[: cache.num_ways])


class TestHierarchySanitizer:
    def test_inclusion_violation_detected(self):
        hierarchy = build_hierarchy(
            small_test_machine(), "lru", inclusive=True
        )
        sanitizers = attach_sanitizers(hierarchy)
        hierarchy.l1d.fill(0x123, 0x400, LOAD)  # resident above, not in LLC
        with pytest.raises(SanitizerError, match="resident in L1D but not in"):
            sanitizers.hierarchy.check_inclusion(hierarchy)

    def test_inclusive_run_sweeps_cleanly(self):
        hierarchy = build_hierarchy(
            small_test_machine(), "lru", inclusive=True
        )
        trace = synthetic.zipf_reuse(4000, num_blocks=400, seed=11)
        result = simulate(trace, hierarchy=hierarchy, sanitize=True)
        sweeps = hierarchy._sanitizer.sweeps
        assert sweeps == len(trace) // HierarchySanitizer.SWEEP_INTERVAL
        assert result.info["sanitizer_checks"] > 0

    def test_nine_mode_skips_sweeps(self):
        hierarchy = build_hierarchy(small_test_machine(), "lru")
        trace = synthetic.strided(3000, stride=64, elements=200)
        simulate(trace, hierarchy=hierarchy, sanitize=True)
        assert hierarchy._sanitizer.sweeps == 0


class TestCleanRuns:
    def test_simulate_reports_check_counters(self):
        trace = synthetic.zipf_reuse(3000, num_blocks=300, seed=5)
        result = simulate(
            trace, config=small_test_machine(), llc_policy="ship",
            sanitize=True,
        )
        assert result.info["sanitizer_checks"] > 1000
        assert result.info["sanitizer_evictions_verified"] > 0

    def test_unsanitized_simulate_has_no_counters(self):
        trace = synthetic.strided(2000, stride=64, elements=100)
        result = simulate(trace, config=small_test_machine(), llc_policy="lru")
        assert "sanitizer_checks" not in result.info

    def test_broken_policy_caught_through_simulate(self):
        # More blocks than the 32 KB test LLC holds, so the LLC must evict.
        trace = synthetic.strided(3000, stride=64, elements=1500)
        with pytest.raises(SanitizerError):
            simulate(
                trace, config=small_test_machine(),
                llc_policy=OutOfRangeVictim(), sanitize=True,
            )

    def test_attached_sanitizers_aggregate_all_levels(self):
        hierarchy = build_hierarchy(small_test_machine(), "srrip")
        sanitizers = attach_sanitizers(hierarchy)
        assert isinstance(sanitizers, AttachedSanitizers)
        assert set(sanitizers.caches) == {"L1I", "L1D", "L2C", "LLC"}
        trace = synthetic.pointer_chase(2000, num_nodes=300, seed=9)
        simulate(trace, hierarchy=hierarchy, sanitize=False)
        assert sanitizers.total_checks > 0


class TestAcceptanceGapMatrix:
    """ISSUE acceptance: a sanitized run_matrix over synthetic GAP traces
    completes with zero invariant violations for every paper policy."""

    def test_gap_sweep_with_sanitize_is_violation_free(self):
        traces = {}
        for kernel in ("bfs", "pr"):
            spec = GapWorkloadSpec(
                kernel=kernel, graph_name="kron", scale=10, degree=8
            )
            graph = build_graph(spec)
            traces[spec.name] = run_kernel(
                kernel, graph, trace_name=spec.name, max_accesses=4000
            ).trace
        policies = ["lru", "srrip", "ship", "hawkeye", "mpppb"]
        matrix = run_matrix(
            traces, policies, config=small_test_machine(), sanitize=True
        )  # any violation raises SanitizerError
        for workload in matrix.workloads:
            for policy in policies:
                assert matrix.get(workload, policy).info["sanitizer_checks"] > 0
