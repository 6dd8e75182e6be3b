"""Differential equivalence: the fast engine vs the reference engine.

The fast path (repro.mem.fastpath) re-implements the L1/L2/core hot loop
with flattened state; every test here holds it to the only acceptable
standard — *bit-identical* SimulationResult JSON against the reference
four-call chain, across policies, trace families, telemetry modes and
warm-up fractions. Fallback behaviour (configurations the fast path does
not model) and post-run state parity are covered as well.
"""

import json

import pytest

from conftest import make_trace
from repro.core.config import small_test_machine
from repro.core.simulator import build_hierarchy, simulate
from repro.errors import ConfigurationError
from repro.harness.equivalence import (
    EquivalenceReport,
    ifetch_mix,
    verify_fastpath,
)
from repro.mem.fastpath import FastMachine, fastpath_eligible
from repro.mem.prefetcher import NextLinePrefetcher
from repro.policies.registry import available_policies
from repro.telemetry import TelemetryConfig
from repro.trace import synthetic
from repro.trace.record import AccessKind


def canonical(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def assert_engines_match(trace, **kwargs):
    fast = simulate(trace, engine="fast", **kwargs)
    ref = simulate(trace, engine="reference", **kwargs)
    assert canonical(fast) == canonical(ref)
    return fast


@pytest.fixture(scope="module")
def zipf():
    return synthetic.zipf_reuse(8_000, num_blocks=1024, seed=11)


class TestAllPolicies:
    @pytest.mark.parametrize("policy", available_policies())
    def test_bit_identical_per_policy(self, small_machine, zipf, policy):
        assert_engines_match(zipf, config=small_machine, llc_policy=policy)


class TestTraceFamilies:
    def test_gap_trace(self, small_machine):
        from repro.gap.suite import gap_suite

        (trace,) = gap_suite(
            scale=10, degree=8, kernels=("bfs",), max_accesses=6_000
        ).values()
        for policy in ("lru", "ship"):
            assert_engines_match(trace, config=small_machine, llc_policy=policy)

    def test_spec_trace(self, small_machine):
        from repro.spec.suite import build_spec_workload

        trace = build_spec_workload("spec06", "mcf", num_accesses=6_000)
        for policy in ("lru", "hawkeye"):
            assert_engines_match(trace, config=small_machine, llc_policy=policy)

    def test_ifetch_heavy_trace(self, small_machine):
        trace = ifetch_mix(6_000, seed=5)
        assert int(trace.kinds.max()) == int(AccessKind.IFETCH)
        result = assert_engines_match(trace, config=small_machine, llc_policy="lru")
        # The L1I path really ran: fetches hit a separate cache.
        assert result.levels["L1I"].demand_accesses > 0

    def test_store_heavy_trace(self, small_machine):
        # Stores drive the dirty/writeback cascade on every level.
        trace = synthetic.zipf_reuse(6_000, num_blocks=2048, seed=9)
        kinds = trace.kinds.copy()
        kinds[::2] = AccessKind.STORE
        from repro.trace.trace import Trace

        stores = Trace.from_arrays(
            trace.addrs.copy(), trace.pcs.copy(), kinds, trace.gaps.copy(),
            name="synthetic.store_heavy",
        )
        assert_engines_match(stores, config=small_machine, llc_policy="srrip")


class TestTelemetryAndWarmup:
    @pytest.mark.parametrize("policy", ["lru", "ship", "drrip"])
    def test_telemetry_armed_bit_identical(self, small_machine, zipf, policy):
        assert_engines_match(
            zipf,
            config=small_machine,
            llc_policy=policy,
            telemetry=TelemetryConfig(interval_instructions=3_000),
        )

    @pytest.mark.parametrize("warmup", [0.0, 0.5, 0.9])
    def test_warmup_fractions(self, small_machine, zipf, warmup):
        assert_engines_match(
            zipf, config=small_machine, llc_policy="lru", warmup_fraction=warmup
        )

    def test_telemetry_long_gap_boundary_jump(self, small_machine):
        # One gap spanning several intervals must close/realign exactly
        # as the reference per-record check does.
        trace = make_trace(
            [i * 64 for i in range(200)],
            gaps=[1] * 100 + [50_000] + [1] * 99,
        )
        assert_engines_match(
            trace,
            config=small_machine,
            llc_policy="lru",
            telemetry=TelemetryConfig(interval_instructions=4_000),
        )


class TestFallback:
    def test_prefetcher_falls_back(self, small_machine, zipf):
        h = build_hierarchy(small_machine, "lru", l2_prefetcher=NextLinePrefetcher())
        assert not fastpath_eligible(h, zipf)
        # engine="fast" must still work (silently using the reference loop).
        assert_engines_match(
            zipf, config=small_machine, l2_prefetcher=NextLinePrefetcher()
        )

    def test_inclusive_falls_back(self, small_machine, zipf):
        h = build_hierarchy(small_machine, "lru", inclusive=True)
        assert not fastpath_eligible(h, zipf)

    def test_sanitize_falls_back(self, small_machine, zipf):
        assert_engines_match(zipf, config=small_machine, llc_policy="lru",
                             sanitize=True)

    def test_writeback_kind_falls_back(self, small_machine):
        trace = make_trace([0, 64, 128], kinds=int(AccessKind.WRITEBACK))
        h = build_hierarchy(small_machine, "lru")
        assert not fastpath_eligible(h, trace)
        assert_engines_match(trace, config=small_machine, llc_policy="lru")

    def test_non_lru_upper_level_falls_back(self, small_machine, zipf):
        from repro.policies.registry import make_policy

        h = build_hierarchy(small_machine, "lru")
        h.l1d.policy = make_policy("fifo")
        assert not fastpath_eligible(h, zipf)

    def test_plain_machine_is_eligible(self, small_machine, zipf):
        h = build_hierarchy(small_machine, "hawkeye")
        assert fastpath_eligible(h, zipf)


class TestStateCheckin:
    def test_post_run_cache_state_identical(self, small_machine, zipf):
        """After a run, tags/dirty/LRU-order must match the reference."""
        hf = build_hierarchy(small_machine, "ship")
        hr = build_hierarchy(small_machine, "ship")
        simulate(zipf, config=small_machine, hierarchy=hf, engine="fast")
        simulate(zipf, config=small_machine, hierarchy=hr, engine="reference")
        for name in ("L1I", "L1D", "L2C", "LLC"):
            cf, cr = hf.caches[name], hr.caches[name]
            assert cf._tags == cr._tags, name
            assert cf._dirty == cr._dirty, name
        # LRU stamp *values* differ (shared clock), but the recency order
        # inside every set — all that LRU behaviour depends on — matches.
        for name in ("L1I", "L1D", "L2C"):
            ways = hf.caches[name].num_ways
            sf = hf.caches[name].policy._stamp
            sr = hr.caches[name].policy._stamp
            for base in range(0, len(sf), ways):
                row_f = sf[base:base + ways]
                row_r = sr[base:base + ways]
                order_f = sorted(range(ways), key=row_f.__getitem__)
                order_r = sorted(range(ways), key=row_r.__getitem__)
                assert order_f == order_r, name

    def test_rerun_on_checked_in_state_stays_identical(self, small_machine, zipf):
        """A second simulate() on the same hierarchy stays bit-identical —
        checkin must leave a machine the next run can trust."""
        hf = build_hierarchy(small_machine, "lru")
        hr = build_hierarchy(small_machine, "lru")
        for h, engine in ((hf, "fast"), (hr, "reference")):
            simulate(zipf, config=small_machine, hierarchy=h, engine=engine)
        second_fast = simulate(
            zipf, config=small_machine, hierarchy=hf, engine="fast"
        )
        second_ref = simulate(
            zipf, config=small_machine, hierarchy=hr, engine="reference"
        )
        assert canonical(second_fast) == canonical(second_ref)

    def test_checkout_of_warmed_hierarchy(self, small_machine, zipf):
        """FastMachine must faithfully check out non-empty cache state."""
        h = build_hierarchy(small_machine, "lru")
        simulate(zipf, config=small_machine, hierarchy=h, engine="reference")
        fast = FastMachine(h)
        for lvl, cache in ((fast.l1d, h.l1d), (fast.l2, h.l2)):
            ways = cache.num_ways
            assert lvl.tags == cache._tags
            assert lvl.index == {
                t: i for i, t in enumerate(lvl.tags) if t != -1
            }
            assert lvl.occupancy == [
                sum(1 for t in cache._tags[base:base + ways] if t != -1)
                for base in range(0, len(cache._tags), ways)
            ]


class TestEngineParameter:
    def test_invalid_engine_rejected(self, small_machine, zipf):
        with pytest.raises(ConfigurationError, match="engine"):
            simulate(zipf, config=small_machine, engine="warp")

    def test_engine_not_recorded_in_info(self, small_machine, zipf):
        result = simulate(zipf, config=small_machine, engine="fast")
        assert "engine" not in result.info


class TestHarness:
    def test_verify_fastpath_passes(self, small_machine):
        traces = {"zipf": synthetic.zipf_reuse(3_000, num_blocks=512, seed=3)}
        report = verify_fastpath(
            config=small_machine, policies=["lru", "ship"], traces=traces
        )
        assert isinstance(report, EquivalenceReport)
        assert report.passed
        assert report.fast_coverage == len(report.cases) == 4
        assert "PASS" in report.render()

    def test_report_render_names_mismatched_fields(self):
        from repro.harness.equivalence import EquivalenceCase

        report = EquivalenceReport(cases=[
            EquivalenceCase(
                workload="w", policy="p", telemetry=False, warmup_fraction=0.2,
                fast_used=True, matched=False, mismatched_fields=("core", "dram"),
            )
        ])
        assert not report.passed
        rendered = report.render()
        assert "FAIL" in rendered and "core" in rendered and "dram" in rendered
