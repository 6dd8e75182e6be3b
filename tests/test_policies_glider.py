"""Behavioural tests for Glider (ISVM over PC history)."""

from repro.mem.cache import Cache
from repro.policies.base import PolicyAccess
from repro.policies.glider import (
    ISVM_WEIGHTS,
    PCHR_LENGTH,
    THRESHOLD_AVERSE,
    THRESHOLD_CONFIDENT,
    WEIGHT_MAX,
    WEIGHT_MIN,
    GliderPolicy,
    isvm_index,
    weight_index,
)
from repro.policies.hawkeye import HAWKEYE_RRPV_MAX
from repro.trace.record import AccessKind

LOAD = AccessKind.LOAD
WB = AccessKind.WRITEBACK


def make_policy(sets=8, ways=4) -> GliderPolicy:
    p = GliderPolicy()
    p.initialize(sets, ways)
    return p


class TestHashing:
    def test_isvm_index_in_range(self):
        assert 0 <= isvm_index(0xFFFFFFFF) < 2048

    def test_weight_index_in_range(self):
        for pc in range(0, 4096, 8):
            assert 0 <= weight_index(pc) < ISVM_WEIGHTS


class TestFeatures:
    def test_pchr_is_bounded(self):
        p = make_policy()
        for i in range(20):
            p._push_history(i)
        assert len(p._pchr) == PCHR_LENGTH

    def test_features_use_history(self):
        p = make_policy()
        for _pc in [0x10, 0x20]:
            p._push_history(_pc)
        table, slots = p._features(0x40)
        assert table == isvm_index(0x40)
        assert set(slots) == {weight_index(0x10), weight_index(0x20)}


class TestTraining:
    def test_positive_training_raises_sum(self):
        p = make_policy()
        for _pc in [0x10, 0x20, 0x30]:
            p._push_history(_pc)
        features = p._features(0x40)
        before = p._sum(features)
        p._train(features, opt_hit=True)
        assert p._sum(features) > before

    def test_negative_training_lowers_sum(self):
        p = make_policy()
        for _pc in [0x10, 0x20]:
            p._push_history(_pc)
        features = p._features(0x40)
        p._train(features, opt_hit=False)
        assert p._sum(features) < 0

    def test_weights_saturate(self):
        p = make_policy()
        p._push_history(0x10)
        features = p._features(0x40)
        for _ in range(200):
            p._train(features, opt_hit=False)
        table, slots = features
        for s in slots:
            assert WEIGHT_MIN <= p._isvms[table][s] <= WEIGHT_MAX

    def test_margin_stops_training(self):
        """Once the sum passes the margin, positive updates stop."""
        p = make_policy()
        for _pc in [0x10, 0x20, 0x30, 0x40, 0x50]:
            p._push_history(_pc)
        features = p._features(0x60)
        for _ in range(500):
            p._train(features, opt_hit=True)
        total = p._sum(features)
        p._train(features, opt_hit=True)
        assert p._sum(features) == total  # no further movement


class TestInsertion:
    def test_negative_sum_inserts_averse(self):
        p = make_policy()
        p._push_history(0x10)
        features = p._features(0x40)
        for _ in range(10):
            p._train(features, opt_hit=False)
        p.on_fill(2, 0, PolicyAccess(1, 0x40, LOAD))
        assert p._rrpv[2 * p.num_ways] == HAWKEYE_RRPV_MAX  # set 2, way 0
        assert p.stat_averse_fills == 1

    def test_confident_sum_inserts_zero(self):
        p = make_policy()
        p._push_history(0x10)
        features = p._features(0x40)
        table, slots = features
        weights = p._isvms[table] = list(p._isvms[table])  # untrained: shared
        for s in slots:
            weights[s] = WEIGHT_MAX
        if p._sum(features) >= THRESHOLD_CONFIDENT:
            p.on_fill(2, 0, PolicyAccess(1, 0x40, LOAD))
            assert p._rrpv[2 * p.num_ways] == 0

    def test_low_confidence_friendly_inserts_aged(self):
        p = make_policy()
        p._push_history(0x10)
        # weights are all zero -> sum 0 -> friendly but not confident
        assert THRESHOLD_AVERSE <= 0 < THRESHOLD_CONFIDENT
        p.on_fill(2, 0, PolicyAccess(1, 0x40, LOAD))
        assert p._rrpv[2 * p.num_ways] == 2

    def test_writeback_inserts_averse(self):
        p = make_policy()
        p.on_fill(0, 0, PolicyAccess(1, 0, WB))
        assert p._rrpv[0] == HAWKEYE_RRPV_MAX


class TestEndToEnd:
    def test_learns_history_separable_workload(self):
        """Resident blocks (one PC context) vs scans (another context)."""
        ways = 4
        cache = Cache("T", 8 * ways * 64, ways, GliderPolicy())
        hits_late = 0
        scan_block = 10_000
        rounds = 500
        for r in range(rounds):
            for b in range(8):
                if cache.access(b, 0x100 + (b % 4) * 4, LOAD).hit:
                    if r > rounds // 2:
                        hits_late += 1
                else:
                    cache.fill(b, 0x100 + (b % 4) * 4, LOAD)
            for _ in range(ways):
                if not cache.access(scan_block, 0x900, LOAD).hit:
                    cache.fill(scan_block, 0x900, LOAD)
                scan_block += 8
        # The resident set must be mostly retained once trained.
        assert hits_late >= 0.6 * 8 * (rounds // 2 - 1)
