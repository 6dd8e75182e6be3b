"""Behavioural tests for the RRIP family (SRRIP, BRRIP, DRRIP)."""

import pytest

from repro.mem.cache import Cache
from repro.policies.base import PolicyAccess
from repro.policies.rrip import (
    BRRIP_LONG_PERIOD,
    RRPV_MAX,
    BRRIPPolicy,
    DRRIPPolicy,
    SRRIPPolicy,
)
from repro.policies.basic import LRUPolicy
from repro.trace.record import AccessKind

LOAD = AccessKind.LOAD


def one_set_cache(policy, ways=4) -> Cache:
    return Cache("T", ways * 64, ways, policy)


def touch(cache, block) -> bool:
    result = cache.access(block, 0, LOAD)
    if not result.hit:
        cache.fill(block, 0, LOAD)
    return result.hit


class TestSRRIPMechanics:
    def test_insertion_rrpv_is_long(self):
        p = SRRIPPolicy()
        p.initialize(1, 4)
        p.on_fill(0, 0, PolicyAccess(1, 0, LOAD))
        assert p._rrpv[0] == RRPV_MAX - 1  # one set: the flat index is the way

    def test_hit_promotes_to_zero(self):
        p = SRRIPPolicy()
        p.initialize(1, 4)
        p.on_fill(0, 0, PolicyAccess(1, 0, LOAD))
        p.on_hit(0, 0, PolicyAccess(1, 0, LOAD))
        assert p._rrpv[0] == 0

    def test_victim_is_distant_line(self):
        p = SRRIPPolicy()
        p.initialize(1, 2)
        p._rrpv[0:2] = [RRPV_MAX, 0]
        assert p.find_victim(0, PolicyAccess(9, 0, LOAD), [1, 2]) == 0

    def test_aging_when_no_distant_line(self):
        p = SRRIPPolicy()
        p.initialize(1, 2)
        p._rrpv[0:2] = [1, 2]
        victim = p.find_victim(0, PolicyAccess(9, 0, LOAD), [1, 2])
        assert victim == 1  # aged until way 1 reached RRPV_MAX
        assert p._rrpv[0:2] == [2, RRPV_MAX]


class TestScanResistance:
    def test_srrip_protects_working_set_from_scan(self):
        """Resident set + one-shot scan: SRRIP must out-hit LRU."""
        ways = 8
        resident = list(range(4))
        scan = list(range(100, 140))
        pattern = []
        for i in range(40):
            pattern.extend(resident)
            pattern.append(scan[i])
        lru = one_set_cache(LRUPolicy(), ways=ways)
        srrip = one_set_cache(SRRIPPolicy(), ways=ways)
        lru_hits = sum(touch(lru, b) for b in pattern)
        srrip_hits = sum(touch(srrip, b) for b in pattern)
        assert srrip_hits >= lru_hits


class TestBRRIP:
    def test_mostly_distant_insertion(self):
        p = BRRIPPolicy()
        p.initialize(1, 4)
        inserted = []
        for i in range(BRRIP_LONG_PERIOD * 2):
            p.on_fill(0, i % 4, PolicyAccess(i, 0, LOAD))
            inserted.append(p._rrpv[i % 4])
        distant = sum(1 for r in inserted if r == RRPV_MAX)
        assert distant == len(inserted) - 2  # one long insert per period

    def test_beats_lru_on_thrash(self):
        """Cyclic set slightly above capacity: BRRIP keeps a resident subset."""
        pattern = list(range(12)) * 30
        lru = one_set_cache(LRUPolicy(), ways=8)
        brrip = one_set_cache(BRRIPPolicy(), ways=8)
        lru_hits = sum(touch(lru, b) for b in pattern)
        brrip_hits = sum(touch(brrip, b) for b in pattern)
        assert lru_hits == 0
        assert brrip_hits > 50


class TestDRRIP:
    def test_leader_sets_exist_for_large_caches(self):
        p = DRRIPPolicy()
        p.initialize(1024, 16)
        roles = set(p._leader)
        assert 1 in roles and -1 in roles and 0 in roles
        assert sum(1 for r in p._leader if r == 1) == 32
        assert sum(1 for r in p._leader if r == -1) == 32

    def test_leader_sets_modulo_fallback_small_cache(self):
        p = DRRIPPolicy()
        p.initialize(64, 4)
        assert p._leader[0] == 1
        assert p._leader[1] == -1

    def test_psel_saturates(self):
        # A demand fill is a demand miss: in a leader set it moves PSEL.
        p = DRRIPPolicy()
        p.initialize(1024, 16)
        load = PolicyAccess(0, 0x40, LOAD)
        srrip_leader = p._leader.index(1)
        for _ in range(2000):
            p.on_fill(srrip_leader, 0, load)
        assert p._psel == p._psel_max
        brrip_leader = p._leader.index(-1)
        for _ in range(3000):
            p.on_fill(brrip_leader, 0, load)
        assert p._psel == 0

    def test_writeback_and_prefetch_fills_leave_psel_alone(self):
        p = DRRIPPolicy()
        p.initialize(1024, 16)
        start = p._psel
        for kind in (AccessKind.WRITEBACK, AccessKind.PREFETCH):
            for role in (1, -1):
                p.on_fill(p._leader.index(role), 0, PolicyAccess(0, 0, kind))
        assert p._psel == start

    def test_followers_adopt_winning_component(self):
        p = DRRIPPolicy()
        p.initialize(1024, 16)
        follower = p._leader.index(0)
        # Force PSEL low -> SRRIP wins -> followers insert RRPV_MAX-1.
        p._psel = 0
        assert p._insertion_rrpv(follower, PolicyAccess(0, 0, LOAD)) == RRPV_MAX - 1
        # Force PSEL high -> BRRIP wins -> distant insertions dominate.
        p._psel = p._psel_max
        values = [
            p._insertion_rrpv(follower, PolicyAccess(0, 0, LOAD)) for _ in range(16)
        ]
        assert values.count(RRPV_MAX) >= 14

    def test_set_duelling_learns_brrip_on_thrash(self):
        """Multi-set cyclic thrash: DRRIP followers must adopt BRRIP.

        A single-set cache cannot duel (the set is a permanent leader), so
        this uses 64 sets with a cyclic working set of 12 blocks per set
        against 8 ways — SRRIP gets almost nothing, BRRIP retains a
        subset, and DRRIP must end up much closer to BRRIP than to SRRIP.
        """
        num_sets, ways, blocks_per_set = 64, 8, 12
        pattern = [
            s + num_sets * k
            for _ in range(6)
            for k in range(blocks_per_set)
            for s in range(num_sets)
        ]
        results = {}
        for name, policy in (
            ("srrip", SRRIPPolicy()),
            ("brrip", BRRIPPolicy()),
            ("drrip", DRRIPPolicy()),
        ):
            c = Cache("T", num_sets * ways * 64, ways, policy)
            results[name] = sum(touch(c, b) for b in pattern)
        assert results["brrip"] > results["srrip"]
        midpoint = (results["srrip"] + results["brrip"]) / 2
        assert results["drrip"] > midpoint
