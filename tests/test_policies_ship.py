"""Behavioural tests for SHiP (signature-based hit prediction)."""

from repro.mem.cache import Cache
from repro.policies.base import PolicyAccess
from repro.policies.basic import LRUPolicy
from repro.policies.rrip import RRPV_MAX
from repro.policies.ship import SHCT_MAX, SHiPPolicy, pc_signature
from repro.trace.record import AccessKind

LOAD = AccessKind.LOAD
WB = AccessKind.WRITEBACK


def one_set_cache(policy, ways=4) -> Cache:
    return Cache("T", ways * 64, ways, policy)


def touch(cache, block, pc=0) -> bool:
    result = cache.access(block, pc, LOAD)
    if not result.hit:
        cache.fill(block, pc, LOAD)
    return result.hit


class TestSignature:
    def test_signature_is_14_bits(self):
        assert 0 <= pc_signature(0xFFFFFFFFFFFF) < (1 << 14)

    def test_signature_is_deterministic(self):
        assert pc_signature(0x1234) == pc_signature(0x1234)

    def test_different_pcs_usually_differ(self):
        signatures = {pc_signature(pc) for pc in range(0, 4096 * 4, 4)}
        assert len(signatures) > 1000


class TestTraining:
    def test_hit_increments_signature_counter(self):
        p = SHiPPolicy()
        p.initialize(1, 4)
        sig = pc_signature(0x400)
        start = p._shct[sig]
        p.on_fill(0, 0, PolicyAccess(1, 0x400, LOAD))
        p.on_hit(0, 0, PolicyAccess(1, 0x400, LOAD))
        assert p._shct[sig] == min(start + 1, SHCT_MAX)

    def test_only_first_reuse_trains(self):
        p = SHiPPolicy()
        p.initialize(1, 4)
        sig = pc_signature(0x400)
        p._shct[sig] = 0
        p.on_fill(0, 0, PolicyAccess(1, 0x400, LOAD))
        p.on_hit(0, 0, PolicyAccess(1, 0x400, LOAD))
        p.on_hit(0, 0, PolicyAccess(1, 0x400, LOAD))
        assert p._shct[sig] == 1  # second hit must not train again

    def test_dead_eviction_decrements(self):
        p = SHiPPolicy()
        p.initialize(1, 4)
        sig = pc_signature(0x400)
        start = p._shct[sig]
        p.on_fill(0, 0, PolicyAccess(1, 0x400, LOAD))
        p.on_eviction(0, 0, 1)  # never reused
        assert p._shct[sig] == max(start - 1, 0)

    def test_reused_eviction_does_not_decrement(self):
        p = SHiPPolicy()
        p.initialize(1, 4)
        sig = pc_signature(0x400)
        p.on_fill(0, 0, PolicyAccess(1, 0x400, LOAD))
        p.on_hit(0, 0, PolicyAccess(1, 0x400, LOAD))
        counter = p._shct[sig]
        p.on_eviction(0, 0, 1)
        assert p._shct[sig] == counter


class TestInsertion:
    def test_dead_signature_inserts_distant(self):
        p = SHiPPolicy()
        p.initialize(1, 4)
        sig = pc_signature(0x400)
        p._shct[sig] = 0
        p.on_fill(0, 0, PolicyAccess(1, 0x400, LOAD))
        assert p._rrpv[0] == RRPV_MAX

    def test_live_signature_inserts_long(self):
        p = SHiPPolicy()
        p.initialize(1, 4)
        sig = pc_signature(0x400)
        p._shct[sig] = SHCT_MAX
        p.on_fill(0, 0, PolicyAccess(1, 0x400, LOAD))
        assert p._rrpv[0] == RRPV_MAX - 1

    def test_writeback_hit_neither_promotes_nor_trains(self):
        """Regression for the pc-table-hygiene lint finding.

        A writeback touch of a resident line carries pc == 0 and must be
        invisible to the predictor (ChampSim reference): the line keeps
        its RRPV and the filler's signature counter keeps its value.
        """
        p = SHiPPolicy()
        p.initialize(1, 4)
        sig = pc_signature(0x400)
        p._shct[sig] = 1
        p.on_fill(0, 0, PolicyAccess(1, 0x400, LOAD))
        rrpv_before = p._rrpv[0]
        p.on_hit(0, 0, PolicyAccess(1, 0, WB))
        assert p._rrpv[0] == rrpv_before  # no promotion to 0
        assert p._shct[sig] == 1  # no SHCT training
        # The line still counts as never-reused: a dead eviction detrains.
        p.on_eviction(0, 0, 1)
        assert p._shct[sig] == 0

    def test_writeback_inserts_distant_and_untracked(self):
        p = SHiPPolicy()
        p.initialize(1, 4)
        p.on_fill(0, 0, PolicyAccess(1, 0, WB))
        assert p._rrpv[0] == RRPV_MAX
        # Evicting a writeback line must not train any signature.
        before = list(p._shct)
        p.on_eviction(0, 0, 1)
        assert p._shct == before


class TestEndToEnd:
    def test_learns_to_deprioritize_scan_pc(self):
        """Scan PC trains to dead; working-set PCs keep their lines."""
        ways = 8
        ws_pcs = [0x100, 0x104, 0x108, 0x10C]
        scan_pc = 0x999
        c = one_set_cache(SHiPPolicy(), ways=ways)
        scan_block = 1000
        hits_late = 0
        for round_ in range(200):
            for i, pc in enumerate(ws_pcs):
                hit = touch(c, i, pc)
                if round_ > 100:
                    hits_late += hit
            touch(c, scan_block, scan_pc)
            scan_block += 1
        # After training, the working set must be nearly always resident.
        assert hits_late >= 0.95 * 4 * 99

    def test_outperforms_srrip_on_mixed_pc_workload(self):
        from repro.policies.rrip import SRRIPPolicy

        ways = 8
        ws_pcs = [0x100, 0x104]
        scan_pc = 0x999

        def run(policy):
            c = one_set_cache(policy, ways=ways)
            hits = 0
            scan_block = 1000
            for _ in range(300):
                for i, pc in enumerate(ws_pcs):
                    hits += touch(c, i, pc)
                # burst of scans that would push the set out under SRRIP
                for _ in range(6):
                    touch(c, scan_block, scan_pc)
                    scan_block += 1
            return hits

        assert run(SHiPPolicy()) >= run(SRRIPPolicy())
