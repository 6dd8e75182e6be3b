"""Behavioural tests for MPPPB (multiperspective perceptron with bypass)."""

from repro.mem.cache import Cache
from repro.policies.base import BYPASS, PolicyAccess
from repro.policies.mpppb import (
    SAMPLE_STRIDE,
    TABLE_SIZE,
    THETA_BYPASS,
    THETA_DEAD,
    MPPPBPolicy,
)
from repro.trace.record import AccessKind

LOAD = AccessKind.LOAD
WB = AccessKind.WRITEBACK


def make_policy(sets=16, ways=4) -> MPPPBPolicy:
    p = MPPPBPolicy()
    p.initialize(sets, ways)
    return p


class TestFeatures:
    def test_feature_indices_in_range(self):
        p = make_policy()
        p._pc_history.extend([0x1, 0x22, 0x333])
        for f in p._features(PolicyAccess(12345, 0xABCDEF, LOAD)):
            assert 0 <= f < TABLE_SIZE

    def test_feature_count_matches_tables(self):
        p = make_policy()
        features = p._features(PolicyAccess(1, 2, LOAD))
        assert len(features) == len(p._weights)


class TestTraining:
    def test_dead_training_raises_sum(self):
        p = make_policy()
        features = p._features(PolicyAccess(1, 0x40, LOAD))
        p._train(features, dead=True)
        assert p._sum(features) > 0

    def test_live_training_lowers_sum(self):
        p = make_policy()
        features = p._features(PolicyAccess(1, 0x40, LOAD))
        p._train(features, dead=False)
        assert p._sum(features) < 0

    def test_margin_stops_updates(self):
        p = make_policy()
        features = p._features(PolicyAccess(1, 0x40, LOAD))
        for _ in range(500):
            p._train(features, dead=True)
        total = p._sum(features)
        p._train(features, dead=True)
        assert p._sum(features) == total

    def test_hit_on_sampled_set_trains_live(self):
        p = make_policy()
        sampled_set = 0  # set 0 is always sampled (0 % SAMPLE_STRIDE == 0)
        assert sampled_set % SAMPLE_STRIDE == 0
        access = PolicyAccess(1, 0x40, LOAD)
        p.on_fill(sampled_set, 0, access)
        features = p._line_features[sampled_set * p.num_ways]  # way 0
        assert features is not None
        p.on_hit(sampled_set, 0, access)
        assert p._sum(features) < 0  # trained toward live

    def test_dead_eviction_on_sampled_set_trains_dead(self):
        p = make_policy()
        access = PolicyAccess(1, 0x40, LOAD)
        p.on_fill(0, 0, access)
        features = p._line_features[0]  # set 0, way 0
        p.on_eviction(0, 0, 1)
        assert p._sum(features) > 0

    def test_unsampled_set_does_not_train(self):
        p = make_policy()
        unsampled = 1
        assert unsampled % SAMPLE_STRIDE != 0
        access = PolicyAccess(1, 0x40, LOAD)
        p.on_fill(unsampled, 0, access)
        p.on_eviction(unsampled, 0, 1)
        assert all(w == 0 for table in p._weights for w in table)


class TestBypass:
    def test_dead_on_arrival_bypasses(self):
        p = make_policy()
        access = PolicyAccess(1, 0x40, LOAD)
        features = p._features(access)
        while p._sum(features) < THETA_BYPASS:
            p._train(features, dead=True)
        assert p.find_victim(0, access, [5, 6, 7, 8]) == BYPASS
        assert p.stat_bypasses == 1

    def test_writebacks_never_bypass(self):
        p = make_policy()
        wb = PolicyAccess(1, 0, WB)
        for table in p._weights:
            for i in range(TABLE_SIZE):
                table[i] = 31  # everything looks dead
        assert p.find_victim(0, wb, [5, 6, 7, 8]) != BYPASS

    def test_bypass_rate_property(self):
        p = make_policy()
        assert p.bypass_rate == 0.0
        p.stat_fills = 3
        p.stat_bypasses = 1
        assert p.bypass_rate == 0.25


class TestVictimSelection:
    def test_prefers_predicted_dead_line(self):
        p = make_policy()
        access = PolicyAccess(99, 0x40, LOAD)
        p.on_fill(0, 0, access)
        p.on_fill(0, 1, access)
        p._line_dead[1] = True  # set 0, way 1
        victim = p.find_victim(0, PolicyAccess(100, 0x50, LOAD), [1, 2, 3, 4])
        assert victim == 1

    def test_falls_back_to_lru(self):
        p = make_policy()
        for way in range(4):
            p.on_fill(0, way, PolicyAccess(way + 1, 0x40, LOAD))
        p.on_hit(0, 0, PolicyAccess(1, 0x40, LOAD))  # refresh way 0
        victim = p.find_victim(0, PolicyAccess(9, 0x50, LOAD), [1, 2, 3, 4])
        assert victim == 1  # oldest un-refreshed fill


class TestEndToEnd:
    def test_learns_to_bypass_scan(self):
        ways = 4
        cache = Cache("T", 16 * ways * 64, ways, MPPPBPolicy())
        policy = cache.policy
        scan_block = 100_000
        hits = 0
        for _ in range(600):
            for b in range(16):
                if cache.access(b, 0x100, LOAD).hit:
                    hits += 1
                else:
                    cache.fill(b, 0x100, LOAD)
            if not cache.access(scan_block, 0x900, LOAD).hit:
                cache.fill(scan_block, 0x900, LOAD)
            scan_block += 16
        assert policy.stat_bypasses > 0  # the scan PC trained to bypass
        assert hits > 0.8 * 16 * 599
