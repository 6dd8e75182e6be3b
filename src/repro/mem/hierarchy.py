"""Three-level cache hierarchy with a DRAM backend.

Models the ChampSim/Cascade-Lake organization the paper simulates:
split 32 KB L1I/L1D, a 1 MB private L2, a 1.375 MB LLC slice, DDR4 main
memory. By default the hierarchy is non-inclusive ("NINE", as Cascade
Lake's actually is): levels fill independently, evictions do not
back-invalidate, and dirty victims are written back to the next level
(write-allocate on writeback miss, as in ChampSim). An ``inclusive``
mode is available for sensitivity studies: LLC evictions then
back-invalidate upper-level copies, flushing dirty data to memory.

The LLC's replacement policy is the experiment variable; L1s and L2 run
LRU, as in the paper's setup. An optional L2 prefetcher can be attached
for sensitivity studies (the headline experiments run without one).

:meth:`CacheHierarchy.access` returns the demand latency in core cycles
and the level that served the access, so the core model can account for
overlap and the harness can report where accesses were served.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..trace.record import AccessKind
from .cache import Cache
from .dram import DRAM
from .prefetcher import Prefetcher

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Mapping

    from ..lint.sanitize import HierarchySanitizer
    from ..telemetry.collector import CacheTap


class ServiceLevel(enum.IntEnum):
    """The hierarchy level that ultimately served a demand access."""

    L1 = 0
    L2 = 1
    LLC = 2
    DRAM = 3


@dataclass
class HierarchyStats:
    """Cross-level counters the per-cache stats cannot express."""

    #: Demand accesses that missed the L1D *and* were served by DRAM —
    #: numerator of the paper's 78.6 % statistic.
    l1d_misses_to_dram: int = 0
    #: All demand accesses that missed the L1D.
    l1d_misses: int = 0
    #: Inclusive mode: LLC evictions that snooped the upper levels.
    back_invalidations: int = 0
    #: Demand accesses served per level.
    served_by: dict[int, int] = field(
        default_factory=lambda: dict.fromkeys(ServiceLevel, 0)
    )

    @property
    def l1d_miss_dram_fraction(self) -> float:
        """Fraction of L1D misses that required a DRAM access."""
        if self.l1d_misses == 0:
            return 0.0
        return self.l1d_misses_to_dram / self.l1d_misses


class CacheHierarchy:
    """L1I + L1D -> L2 -> LLC -> DRAM, with writeback propagation."""

    def __init__(
        self,
        l1i: Cache,
        l1d: Cache,
        l2: Cache,
        llc: Cache,
        dram: DRAM,
        l2_prefetcher: Prefetcher | None = None,
        inclusive: bool = False,
    ) -> None:
        self.l1i = l1i
        self.l1d = l1d
        self.l2 = l2
        self.llc = llc
        self.dram = dram
        self.l2_prefetcher = l2_prefetcher
        self.inclusive = inclusive
        self.stats = HierarchyStats()
        self.block_bits = l1d.block_bits
        self._sanitizer: HierarchySanitizer | None = None

    def attach_sanitizer(self, sanitizer: HierarchySanitizer) -> None:
        """Arm opt-in cross-level invariant checks (inclusion sweeps)."""
        self._sanitizer = sanitizer

    def attach_telemetry(self, taps: Mapping[str, CacheTap | None]) -> None:
        """Attach (or, with ``None`` values, detach) telemetry taps by level name."""
        caches = self.caches
        for name, tap in taps.items():
            caches[name].attach_telemetry(tap)

    @property
    def caches(self) -> dict[str, Cache]:
        """The four cache levels keyed by their names."""
        return {c.name: c for c in (self.l1i, self.l1d, self.l2, self.llc)}

    # -- writeback path ----------------------------------------------------------

    def _writeback_to_l2(self, block: int, cycle: int) -> None:  # hot
        result = self.l2.access(block, 0, AccessKind.WRITEBACK)
        if result.hit:
            return
        fill = self.l2.fill(block, 0, AccessKind.WRITEBACK)
        if fill.victim_dirty and fill.victim_block is not None:
            self._writeback_to_llc(fill.victim_block, cycle)

    def _writeback_to_llc(self, block: int, cycle: int) -> None:  # hot
        result = self.llc.access(block, 0, AccessKind.WRITEBACK)
        if result.hit:
            return
        fill = self.llc.fill(block, 0, AccessKind.WRITEBACK)
        if fill.bypassed or (fill.victim_dirty and fill.victim_block is not None):
            # A bypassed writeback goes straight to memory; a dirty victim
            # is written back. Either way DRAM sees one write.
            victim = block if fill.bypassed else fill.victim_block
            self.dram.write(victim << self.block_bits, cycle)

    def _fill_l1(self, l1: Cache, block: int, pc: int, kind: int, cycle: int) -> None:  # hot
        fill = l1.fill(block, pc, kind)
        if fill.victim_dirty and fill.victim_block is not None:
            self._writeback_to_l2(fill.victim_block, cycle)

    def _fill_l2(self, block: int, pc: int, kind: int, cycle: int) -> None:  # hot
        fill = self.l2.fill(block, pc, kind)
        if fill.victim_dirty and fill.victim_block is not None:
            self._writeback_to_llc(fill.victim_block, cycle)

    def _back_invalidate(self, block: int, cycle: int) -> bool:
        """Inclusive mode: an LLC eviction removes upper-level copies.

        A dirty upper-level copy holds the freshest data; its contents go
        straight to memory, as a real inclusive hierarchy's back-snoop
        would force. Returns whether such a flush happened, so the LLC
        fill path never issues a second (stale) writeback for the same
        block.
        """
        dirty = False
        for cache in (self.l1i, self.l1d, self.l2):
            way = cache.lookup(block)
            if way >= 0:
                flat = cache.set_index(block) * cache.num_ways + way
                dirty = dirty or cache._dirty[flat] == 1
                cache.invalidate(block)
        if dirty:
            self.dram.write(block << self.block_bits, cycle)
        self.stats.back_invalidations += 1
        return dirty

    def _fill_llc(self, block: int, pc: int, kind: int, cycle: int) -> None:  # hot
        fill = self.llc.fill(block, pc, kind)
        victim = fill.victim_block
        if victim is None:
            return
        upper_dirty = False
        if self.inclusive:
            upper_dirty = self._back_invalidate(victim, cycle)
        # One DRAM write per evicted block: the back-snoop flush carries
        # the freshest (upper-level) data, so a dirty LLC victim only
        # writes back when no upper copy already did.
        if fill.victim_dirty and not upper_dirty:
            self.dram.write(victim << self.block_bits, cycle)

    # -- prefetching -------------------------------------------------------------

    def _run_l2_prefetcher(self, block: int, pc: int, hit: bool, cycle: int) -> None:
        assert self.l2_prefetcher is not None
        for pf_block in self.l2_prefetcher.observe(block, pc, hit):
            # Probe through access() so the L2's prefetch_accesses /
            # prefetch_hits counters both move and the hit rate means
            # something; a prefetch that is already resident is a hit
            # (and refreshes its recency), not an untracked no-op.
            if self.l2.access(pf_block, pc, AccessKind.PREFETCH).hit:
                continue
            probe = self.llc.access(pf_block, pc, AccessKind.PREFETCH)
            if not probe.hit:
                self.dram.read(pf_block << self.block_bits, cycle)
                self._fill_llc(pf_block, pc, AccessKind.PREFETCH, cycle)
            self._fill_l2(pf_block, pc, AccessKind.PREFETCH, cycle)

    # -- the demand path -----------------------------------------------------------

    def access(self, addr: int, pc: int, kind: int, cycle: int) -> tuple[int, ServiceLevel]:  # hot
        """One demand access; returns (latency in cycles, serving level)."""
        if self._sanitizer is not None:
            self._sanitizer.on_access(self)
        block = addr >> self.block_bits
        l1 = self.l1i if kind == AccessKind.IFETCH else self.l1d
        is_data = l1 is self.l1d

        if l1.access(block, pc, kind).hit:
            self.stats.served_by[ServiceLevel.L1] += 1
            return l1.hit_latency, ServiceLevel.L1
        if is_data:
            self.stats.l1d_misses += 1

        latency = l1.hit_latency
        l2_result = self.l2.access(block, pc, kind)
        if self.l2_prefetcher is not None:
            self._run_l2_prefetcher(block, pc, l2_result.hit, cycle)
        if l2_result.hit:
            latency += self.l2.hit_latency
            self._fill_l1(l1, block, pc, kind, cycle)
            self.stats.served_by[ServiceLevel.L2] += 1
            return latency, ServiceLevel.L2

        latency += self.l2.hit_latency
        if self.llc.access(block, pc, kind).hit:
            latency += self.llc.hit_latency
            self._fill_l2(block, pc, kind, cycle)
            self._fill_l1(l1, block, pc, kind, cycle)
            self.stats.served_by[ServiceLevel.LLC] += 1
            return latency, ServiceLevel.LLC

        latency += self.llc.hit_latency
        latency += self.dram.read(block << self.block_bits, cycle + latency)
        if is_data:
            self.stats.l1d_misses_to_dram += 1
        self._fill_llc(block, pc, kind, cycle)
        self._fill_l2(block, pc, kind, cycle)
        self._fill_l1(l1, block, pc, kind, cycle)
        self.stats.served_by[ServiceLevel.DRAM] += 1
        return latency, ServiceLevel.DRAM
