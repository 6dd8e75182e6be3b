"""Behavioural tests for Hawkeye."""

from repro.mem.cache import Cache
from repro.policies.base import PolicyAccess
from repro.policies.basic import LRUPolicy
from repro.policies.hawkeye import (
    COUNTER_MAX,
    FRIENDLY_THRESHOLD,
    HAWKEYE_RRPV_MAX,
    HawkeyePolicy,
    predictor_index,
)
from repro.trace.record import AccessKind

LOAD = AccessKind.LOAD
WB = AccessKind.WRITEBACK


def make_policy(sets=8, ways=4) -> HawkeyePolicy:
    p = HawkeyePolicy()
    p.initialize(sets, ways)
    return p


class TestPredictor:
    def test_starts_weakly_friendly(self):
        p = make_policy()
        assert p._predict_friendly(0x1234)

    def test_train_and_detrain_saturate(self):
        p = make_policy()
        idx = predictor_index(0x40)
        for _ in range(20):
            p._train(0x40, opt_hit=True)
        assert p._counters[idx] == COUNTER_MAX
        for _ in range(20):
            p._train(0x40, opt_hit=False)
        assert p._counters[idx] == 0
        assert not p._predict_friendly(0x40)

    def test_threshold(self):
        p = make_policy()
        idx = predictor_index(0x40)
        p._counters[idx] = FRIENDLY_THRESHOLD - 1
        assert not p._predict_friendly(0x40)
        p._counters[idx] = FRIENDLY_THRESHOLD
        assert p._predict_friendly(0x40)


class TestInsertion:
    def test_averse_pc_inserts_distant(self):
        p = make_policy()
        p._counters[predictor_index(0x40)] = 0
        p.on_fill(0, 0, PolicyAccess(1, 0x40, LOAD))
        assert p._rrpv[0] == HAWKEYE_RRPV_MAX  # set 0: the flat index is the way
        assert p.stat_averse_fills == 1

    def test_friendly_pc_inserts_zero_and_ages_others(self):
        p = make_policy(ways=3)
        p._rrpv[0:3] = [2, 3, HAWKEYE_RRPV_MAX]
        p.on_fill(0, 0, PolicyAccess(1, 0x40, LOAD))
        assert p._rrpv[0] == 0
        assert p._rrpv[1] == 4  # aged
        assert p._rrpv[2] == HAWKEYE_RRPV_MAX  # averse lines stay at max
        assert p._rrpv[3] == HAWKEYE_RRPV_MAX  # set 1 is untouched

    def test_writeback_inserts_averse(self):
        p = make_policy()
        p.on_fill(0, 0, PolicyAccess(1, 0, WB))
        assert p._rrpv[0] == HAWKEYE_RRPV_MAX


class TestVictim:
    def test_prefers_averse_line(self):
        p = make_policy(ways=3)
        p._rrpv[0:3] = [0, HAWKEYE_RRPV_MAX, 2]
        assert p.find_victim(0, PolicyAccess(9, 0, LOAD), [1, 2, 3]) == 1

    def test_evicting_friendly_line_detrains_its_pc(self):
        p = make_policy(ways=2)
        pc = 0x80
        idx = predictor_index(pc)
        p._counters[idx] = COUNTER_MAX
        p.on_fill(0, 0, PolicyAccess(1, pc, LOAD))
        p.on_fill(0, 1, PolicyAccess(2, pc, LOAD))
        before = p._counters[idx]
        p.find_victim(0, PolicyAccess(3, 0x99, LOAD), [1, 2])
        assert p._counters[idx] == before - 1


class TestSampling:
    def test_reused_block_trains_positive(self):
        p = make_policy(sets=8, ways=4)
        sampled = p._sampler.sampled_sets[0]
        pc = 0x40
        idx = predictor_index(pc)
        p._counters[idx] = 3
        p.on_fill(sampled, 0, PolicyAccess(1, pc, LOAD))
        p.on_hit(sampled, 0, PolicyAccess(1, 0x41, LOAD))  # reuse trains pc
        assert p._counters[idx] == 4

    def test_writebacks_do_not_train(self):
        p = make_policy()
        sampled = p._sampler.sampled_sets[0]
        before = list(p._counters)
        p.on_fill(sampled, 0, PolicyAccess(1, 0, WB))
        p.on_fill(sampled, 1, PolicyAccess(1, 0, WB))
        assert p._counters == before

    def test_optgen_hit_rate_exposed(self):
        p = make_policy()
        sampled = p._sampler.sampled_sets[0]
        p.on_fill(sampled, 0, PolicyAccess(1, 0x40, LOAD))
        p.on_hit(sampled, 0, PolicyAccess(1, 0x40, LOAD))
        assert 0.0 <= p.optgen_hit_rate <= 1.0


class TestEndToEnd:
    def test_learns_scan_vs_resident(self):
        """With distinct PCs, Hawkeye must learn to evict scan fills."""
        ways = 4
        cache = Cache("T", 8 * ways * 64, ways, HawkeyePolicy())
        resident_pc, scan_pc = 0x100, 0x200
        resident = [s for s in range(8)]  # one hot block per set
        scan_block = 10_000
        hits_late = 0
        rounds = 400
        for r in range(rounds):
            for b in resident:
                result = cache.access(b, resident_pc, LOAD)
                if not result.hit:
                    cache.fill(b, resident_pc, LOAD)
                elif r > rounds // 2:
                    hits_late += 1
            for _ in range(ways):
                if not cache.access(scan_block, scan_pc, LOAD).hit:
                    cache.fill(scan_block, scan_pc, LOAD)
                scan_block += 8  # stay in-set-aligned across sets
        assert hits_late >= 0.9 * len(resident) * (rounds // 2 - 1)

    def test_beats_lru_on_pc_separable_workload(self):
        def run(policy_factory):
            ways = 4
            cache = Cache("T", 8 * ways * 64, ways, policy_factory())
            hits = 0
            scan_block = 10_000
            for _ in range(300):
                for b in range(8):
                    if cache.access(b, 0x100, LOAD).hit:
                        hits += 1
                    else:
                        cache.fill(b, 0x100, LOAD)
                for _ in range(ways + 1):
                    if not cache.access(scan_block, 0x200, LOAD).hit:
                        cache.fill(scan_block, 0x200, LOAD)
                    scan_block += 8
            return hits

        assert run(HawkeyePolicy) > run(LRUPolicy)
