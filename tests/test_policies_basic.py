"""Behavioural tests for the classic policies (LRU/MRU/FIFO/NRU/PLRU/Random)."""

import pytest

from repro.errors import ConfigurationError
from repro.mem.cache import Cache
from repro.policies.base import PolicyAccess
from repro.policies.basic import (
    FIFOPolicy,
    LRUPolicy,
    MRUPolicy,
    NRUPolicy,
    RandomPolicy,
    TreePLRUPolicy,
)
from repro.trace.record import AccessKind

LOAD = AccessKind.LOAD


def one_set_cache(policy, ways=4) -> Cache:
    """A single-set cache so victim choice is fully observable."""
    return Cache("T", ways * 64, ways, policy)


def touch(cache: Cache, block: int) -> bool:
    result = cache.access(block, 0, LOAD)
    if not result.hit:
        cache.fill(block, 0, LOAD)
    return result.hit


class TestLRU:
    def test_evicts_least_recently_used(self):
        c = one_set_cache(LRUPolicy(), ways=2)
        touch(c, 0)
        touch(c, 1)
        touch(c, 0)  # 1 is now LRU
        touch(c, 2)
        assert c.contains(0)
        assert not c.contains(1)

    def test_hit_refreshes_recency(self):
        c = one_set_cache(LRUPolicy(), ways=3)
        for b in (0, 1, 2):
            touch(c, b)
        touch(c, 0)  # refresh 0; LRU is now 1
        touch(c, 3)
        assert not c.contains(1)
        assert c.contains(0)

    def test_stack_property_small(self):
        """LRU hit count never decreases when capacity grows (inclusion)."""
        pattern = [0, 1, 2, 0, 3, 1, 2, 4, 0, 1, 2, 3, 4, 0]
        hits_by_ways = []
        for ways in (1, 2, 3, 4, 5):
            c = one_set_cache(LRUPolicy(), ways=ways)
            hits = sum(touch(c, b) for b in pattern)
            hits_by_ways.append(hits)
        assert hits_by_ways == sorted(hits_by_ways)


class TestMRU:
    def test_evicts_most_recent(self):
        c = one_set_cache(MRUPolicy(), ways=2)
        touch(c, 0)
        touch(c, 1)  # MRU = 1
        touch(c, 2)
        assert c.contains(0)
        assert not c.contains(1)

    def test_beats_lru_on_cyclic_thrash(self):
        """On a cycle of ways+1 blocks, MRU keeps most of the set; LRU gets 0 hits."""
        pattern = [0, 1, 2, 3, 4] * 20
        lru = one_set_cache(LRUPolicy(), ways=4)
        mru = one_set_cache(MRUPolicy(), ways=4)
        lru_hits = sum(touch(lru, b) for b in pattern)
        mru_hits = sum(touch(mru, b) for b in pattern)
        assert lru_hits == 0
        assert mru_hits > lru_hits


class TestFIFO:
    def test_hits_do_not_refresh(self):
        c = one_set_cache(FIFOPolicy(), ways=2)
        touch(c, 0)
        touch(c, 1)
        touch(c, 0)  # hit; FIFO order still 0 first
        touch(c, 2)
        assert not c.contains(0)
        assert c.contains(1)


class TestNRU:
    def test_victim_is_first_unreferenced(self):
        c = one_set_cache(NRUPolicy(), ways=2)
        touch(c, 0)
        touch(c, 1)
        # Both referenced: fill of 2 clears all bits then evicts way 0.
        touch(c, 2)
        assert not c.contains(0)

    def test_second_chance(self):
        c = one_set_cache(NRUPolicy(), ways=2)
        touch(c, 0)
        touch(c, 1)
        touch(c, 2)  # evicts 0, set bits cleared; 2's bit set
        touch(c, 3)  # way with clear bit is 1's slot
        assert c.contains(2)
        assert not c.contains(1)


class TestTreePLRU:
    def test_requires_power_of_two_ways(self):
        with pytest.raises(ConfigurationError, match="power-of-two"):
            Cache("T", 3 * 64, 3, TreePLRUPolicy())

    def test_victim_follows_tree_bits(self):
        c = one_set_cache(TreePLRUPolicy(), ways=4)
        for b in (0, 1, 2, 3):
            touch(c, b)
        # After touching 0..3 in order, the PLRU victim must not be the
        # most recently touched block (3).
        touch(c, 4)
        assert c.contains(3)

    def test_approximates_lru_hit_rate(self):
        """On a zipf-ish pattern PLRU should hit within 25% of true LRU."""
        import numpy as np

        rng = np.random.default_rng(1)
        pattern = rng.zipf(1.5, size=2000) % 12
        lru = one_set_cache(LRUPolicy(), ways=8)
        plru = one_set_cache(TreePLRUPolicy(), ways=8)
        lru_hits = sum(touch(lru, int(b)) for b in pattern)
        plru_hits = sum(touch(plru, int(b)) for b in pattern)
        assert plru_hits >= 0.75 * lru_hits


class TestRandom:
    def test_deterministic_given_seed(self):
        a = one_set_cache(RandomPolicy(seed=1), ways=4)
        b = one_set_cache(RandomPolicy(seed=1), ways=4)
        pattern = list(range(8)) * 5
        hits_a = sum(touch(a, blk) for blk in pattern)
        hits_b = sum(touch(b, blk) for blk in pattern)
        assert hits_a == hits_b

    def test_victims_in_range(self):
        policy = RandomPolicy(seed=2)
        policy.initialize(4, 4)
        access = PolicyAccess(0, 0, LOAD)
        for _ in range(100):
            assert 0 <= policy.find_victim(0, access, [0, 1, 2, 3]) < 4
