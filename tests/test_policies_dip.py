"""Behavioural tests for the insertion-policy family (LIP/BIP/DIP)."""

from repro.mem.cache import Cache
from repro.policies.base import PolicyAccess
from repro.policies.basic import LRUPolicy
from repro.policies.dip import BIP_EPSILON_PERIOD, BIPPolicy, DIPPolicy, LIPPolicy
from repro.trace.record import AccessKind

LOAD = AccessKind.LOAD


def one_set_cache(policy, ways=4) -> Cache:
    return Cache("T", ways * 64, ways, policy)


def touch(cache, block) -> bool:
    result = cache.access(block, 0, LOAD)
    if not result.hit:
        cache.fill(block, 0, LOAD)
    return result.hit


class TestLIP:
    def test_new_block_is_next_victim(self):
        c = one_set_cache(LIPPolicy(), ways=2)
        touch(c, 0)
        touch(c, 1)
        touch(c, 2)  # inserted at LRU -> 2 must be evicted next
        touch(c, 3)
        assert not c.contains(2)
        assert c.contains(3)

    def test_hit_promotes_to_mru(self):
        c = one_set_cache(LIPPolicy(), ways=2)
        touch(c, 0)
        touch(c, 1)
        touch(c, 1)  # promote 1; 0 now LRU... but 1 was inserted at LRU
        touch(c, 2)  # 2 inserted at LRU
        touch(c, 3)  # evicts 2 (at LRU), keeps 1
        assert c.contains(1)

    def test_protects_resident_set_from_scan(self):
        """LIP must beat LRU when a scan runs over a resident set."""
        pattern = []
        scan_block = 100
        for _ in range(80):
            pattern.extend([0, 1, 2])
            # A scan burst longer than the spare capacity: LRU evicts the
            # resident set, LIP sacrifices only the LRU slot.
            for _ in range(5):
                pattern.append(scan_block)
                scan_block += 1
        lip = one_set_cache(LIPPolicy(), ways=4)
        lru = one_set_cache(LRUPolicy(), ways=4)
        lip_hits = sum(touch(lip, b) for b in pattern)
        lru_hits = sum(touch(lru, b) for b in pattern)
        assert lip_hits > lru_hits


class TestBIP:
    def test_epsilon_mru_insertions(self):
        p = BIPPolicy()
        p.initialize(1, 4)
        mru_count = 0
        for i in range(2 * BIP_EPSILON_PERIOD):
            p.on_fill(0, i % 4, PolicyAccess(i, 0, LOAD))
            if p._stamp[i % 4] == p._clock and p._clock > 0:
                mru_count += 1
        assert mru_count == 2  # exactly one per epsilon period

    def test_retains_subset_of_thrash(self):
        pattern = list(range(10)) * 40
        bip = one_set_cache(BIPPolicy(), ways=8)
        lru = one_set_cache(LRUPolicy(), ways=8)
        bip_hits = sum(touch(bip, b) for b in pattern)
        lru_hits = sum(touch(lru, b) for b in pattern)
        assert lru_hits == 0
        assert bip_hits > 50


class TestDIP:
    def test_leader_roles_assigned(self):
        p = DIPPolicy()
        p.initialize(1024, 16)
        assert sum(1 for r in p._leader if r == 1) == 32
        assert sum(1 for r in p._leader if r == -1) == 32

    def test_psel_moves_with_leader_misses(self):
        p = DIPPolicy()
        p.initialize(64, 4)
        lru_leader = p._leader.index(1)
        start = p._psel
        p.record_demand_miss(lru_leader)
        assert p._psel == start + 1
        bip_leader = p._leader.index(-1)
        p.record_demand_miss(bip_leader)
        p.record_demand_miss(bip_leader)
        assert p._psel == start - 1

    def test_followers_track_winner_on_thrash(self):
        """Multi-set thrash: DIP must land near BIP, far above LRU."""
        num_sets, ways = 64, 8
        pattern = [
            s + num_sets * k
            for _ in range(6)
            for k in range(12)
            for s in range(num_sets)
        ]
        results = {}
        for name, policy in (("lru", LRUPolicy()), ("bip", BIPPolicy()), ("dip", DIPPolicy())):
            c = Cache("T", num_sets * ways * 64, ways, policy)
            results[name] = sum(touch(c, b) for b in pattern)
        assert results["bip"] > results["lru"]
        assert results["dip"] > (results["lru"] + results["bip"]) / 2

    def test_registry_exposure(self):
        from repro.policies import available_policies, make_policy

        for name in ("lip", "bip", "dip"):
            assert name in available_policies()
            assert make_policy(name).name == name
