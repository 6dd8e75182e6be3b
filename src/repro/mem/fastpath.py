"""Optimized single-run execution path (``engine="fast"``).

The reference hot loop walks four virtual layers per record
(``hierarchy.access`` → ``cache.access``/``fill`` → policy hook dispatch
→ ``core.step``), allocating a :class:`~repro.policies.base.PolicyAccess`
per probe. For the paper's machine the L1I/L1D/L2 levels always run LRU,
so none of that generality is needed above the LLC. :class:`FastMachine`
checks those three levels out of their :class:`~repro.mem.cache.Cache`
objects into flat arrays, runs a composed per-record driver, and checks
the state back in afterwards — the LLC (the experiment variable) and the
DRAM model stay the real objects, so arbitrary replacement policies,
telemetry taps and bank timing behave exactly as in the reference engine.

Representation per fast level, indexed by ``set * num_ways + way``:

* ``tags``: flat list of block addresses (-1 = invalid way);
* ``dirty``: a ``bytearray`` of 0/1 flags;
* ``stamps``: flat list of LRU timestamps;
* ``index``: a ``{block: flat_index}`` dict over resident blocks — the
  O(1) membership probe that replaces the reference way scan (measured
  ~4x faster than ``list.index`` over an 8-way set, and it does not
  degrade for the 16-way L2).

Bit-identity with the reference engine rests on three invariants:

1. **Victim selection.** Reference LRU picks the first way with the
   strictly smallest stamp; stamps come from a per-policy monotonic
   clock. Victim choice depends only on the *relative order* of stamps
   within one set, and any strictly increasing stamp source preserves
   the touch order, so the fast path may use one machine-wide clock for
   all three levels. On checkout the clock starts at the maximum of the
   three policies' clocks, so new stamps always exceed checked-out ones.
2. **Call order at the LLC.** ``_miss`` replays the reference sequence
   exactly (LLC probe → DRAM read → LLC fill → L2 fill → L1 fill, with
   writeback cascades at the same points), so the LLC policy and the
   telemetry tap observe an identical access stream.
3. **Float arithmetic order.** The inlined core model performs the same
   ``gap / dispatch_width`` additions and stall ``max`` updates in the
   same sequence as :meth:`~repro.core.cpu.CoreModel.step`, so cycle
   counts match to the last bit.

Eligibility is conservative: any feature the fast path does not model
(prefetching, inclusive mode, sanitizers, upper-level telemetry taps,
non-LRU upper levels, prefetch/writeback records in the trace) falls
back to the reference engine — see :func:`fastpath_eligible`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..policies.basic import LRUPolicy
from .hierarchy import ServiceLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.cpu import CoreModel
    from ..telemetry.collector import TelemetryCollector
    from ..trace.trace import Trace
    from .cache import Cache
    from .hierarchy import CacheHierarchy


class _FastLevel:
    """Flattened checkout of one always-LRU :class:`Cache` level."""

    __slots__ = (
        "cache", "policy", "num_ways", "set_mask", "hit_latency",
        "tags", "dirty", "stamps", "index", "occupancy",
        "demand_accesses", "demand_hits", "writeback_accesses",
        "writeback_hits", "evictions", "dirty_evictions", "per_kind_misses",
    )

    def __init__(self, cache: Cache) -> None:
        policy = cache.policy
        if type(policy) is not LRUPolicy:
            raise TypeError(
                f"{cache.name}: fast path requires exact LRU, got {policy.name}"
            )
        self.cache = cache
        self.policy = policy
        self.num_ways = cache.num_ways
        self.set_mask = cache._set_mask
        self.hit_latency = cache.hit_latency
        self.tags: list[int] = [t for row in cache._tags for t in row]
        self.dirty = bytearray(
            1 if d else 0 for row in cache._dirty for d in row
        )
        self.stamps: list[int] = [s for row in policy._stamp for s in row]
        self.index: dict[int, int] = {
            tag: i for i, tag in enumerate(self.tags) if tag != -1
        }
        # Valid lines per set: lets _fill take the full-set (victim) path
        # on an int compare instead of a raised ValueError, which is the
        # steady state once the cache is warm.
        self.occupancy: list[int] = [
            sum(1 for t in row if t != -1) for row in cache._tags
        ]
        stats = cache.stats
        self.demand_accesses = stats.demand_accesses
        self.demand_hits = stats.demand_hits
        self.writeback_accesses = stats.writeback_accesses
        self.writeback_hits = stats.writeback_hits
        self.evictions = stats.evictions
        self.dirty_evictions = stats.dirty_evictions
        self.per_kind_misses: dict[int, int] = dict(stats.per_kind_misses)

    def clear(self) -> None:
        """Drop every resident line (the flat ``Cache.reset_content``).

        Stamps stay as they are: a way's stamp is read only while the
        way is valid, and the fill that makes it valid rewrites it.
        """
        self.tags[:] = [-1] * len(self.tags)
        self.dirty[:] = bytes(len(self.dirty))
        self.index.clear()
        self.occupancy[:] = [0] * len(self.occupancy)

    def resident_blocks(self) -> list[int]:
        """All valid resident block addresses, in no particular order."""
        return list(self.index)

    def reset_counters(self) -> None:
        """Mirror of the driver's warm-up statistics reset."""
        self.demand_accesses = 0
        self.demand_hits = 0
        self.writeback_accesses = 0
        self.writeback_hits = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.per_kind_misses = {}

    def publish(self) -> None:
        """Fold the flat counters back into the live ``cache.stats``."""
        stats = self.cache.stats
        stats.demand_accesses = self.demand_accesses
        stats.demand_hits = self.demand_hits
        stats.writeback_accesses = self.writeback_accesses
        stats.writeback_hits = self.writeback_hits
        stats.evictions = self.evictions
        stats.dirty_evictions = self.dirty_evictions
        stats.per_kind_misses = dict(self.per_kind_misses)

    def restore_state(self, clock: int) -> None:
        """Fold tags/dirty/stamps back into the Cache and its policy."""
        cache = self.cache
        ways = self.num_ways
        sets = cache.num_sets
        cache._tags = [
            self.tags[s * ways:(s + 1) * ways] for s in range(sets)
        ]
        cache._dirty = [
            [b != 0 for b in self.dirty[s * ways:(s + 1) * ways]]
            for s in range(sets)
        ]
        self.policy._stamp = [
            self.stamps[s * ways:(s + 1) * ways] for s in range(sets)
        ]
        self.policy._clock = clock


class FastMachine:
    """The composed per-record driver over checked-out L1/L2 levels.

    Construct it once per :func:`~repro.core.simulator.simulate` call
    (the constructor checks the upper levels out of the hierarchy), call
    :meth:`run` / :meth:`run_with_telemetry` for the warm-up and measured
    windows, and :meth:`checkin` at the end to fold all state back so
    result snapshotting and later reference-engine use see an identical
    machine.
    """

    __slots__ = (
        "hierarchy", "llc", "dram", "block_bits", "l1i", "l1d", "l2",
        "clock", "l1d_misses", "l1d_misses_to_dram",
        "served_l1", "served_l2", "served_llc", "served_dram",
    )

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        self.hierarchy = hierarchy
        self.llc = hierarchy.llc
        self.dram = hierarchy.dram
        self.block_bits = hierarchy.block_bits
        self.l1i = _FastLevel(hierarchy.l1i)
        self.l1d = _FastLevel(hierarchy.l1d)
        self.l2 = _FastLevel(hierarchy.l2)
        self.clock = max(
            self.l1i.policy._clock, self.l1d.policy._clock, self.l2.policy._clock
        )
        stats = hierarchy.stats
        self.l1d_misses = stats.l1d_misses
        self.l1d_misses_to_dram = stats.l1d_misses_to_dram
        served = stats.served_by
        self.served_l1 = served[ServiceLevel.L1]
        self.served_l2 = served[ServiceLevel.L2]
        self.served_llc = served[ServiceLevel.LLC]
        self.served_dram = served[ServiceLevel.DRAM]

    # -- state folding --------------------------------------------------------

    def reset_counters(self) -> None:
        """Mirror the warm-up statistics reset on the checked-out state."""
        self.l1i.reset_counters()
        self.l1d.reset_counters()
        self.l2.reset_counters()
        self.l1d_misses = 0
        self.l1d_misses_to_dram = 0
        self.served_l1 = 0
        self.served_l2 = 0
        self.served_llc = 0
        self.served_dram = 0

    def publish(self) -> None:
        """Fold all counters into the live stats objects (cheap, idempotent)."""
        self.l1i.publish()
        self.l1d.publish()
        self.l2.publish()
        stats = self.hierarchy.stats
        stats.l1d_misses = self.l1d_misses
        stats.l1d_misses_to_dram = self.l1d_misses_to_dram
        served = stats.served_by
        served[ServiceLevel.L1] = self.served_l1
        served[ServiceLevel.L2] = self.served_l2
        served[ServiceLevel.LLC] = self.served_llc
        served[ServiceLevel.DRAM] = self.served_dram

    def checkin(self) -> None:
        """Fold counters *and* tag/dirty/LRU state back into the hierarchy."""
        self.publish()
        self.l1i.restore_state(self.clock)
        self.l1d.restore_state(self.clock)
        self.l2.restore_state(self.clock)

    # -- fill / writeback cascade ---------------------------------------------

    def _fill(self, lvl: _FastLevel, block: int, kind: int) -> int:
        """Insert ``block``; returns the dirty victim block, or -1 if none.

        A clean victim needs no downstream action, so callers only ever
        look at dirty ones — returning a single int avoids a tuple
        allocation per fill. -1 is unambiguous: it marks invalid ways, so
        no resident block ever equals it.
        """
        ways = lvl.num_ways
        set_index = block & lvl.set_mask
        base = set_index * ways
        tags = lvl.tags
        occupancy = lvl.occupancy
        victim = -1
        victim_dirty = 0
        if occupancy[set_index] < ways:
            idx = tags.index(-1, base, base + ways)
            occupancy[set_index] += 1
        else:
            # Full set: the way with the smallest stamp. Stamps are unique
            # (each is a fresh clock value), so index-of-min equals the
            # reference first-strict-minimum scan of LRUPolicy.find_victim.
            end = base + ways
            stamps = lvl.stamps
            idx = stamps.index(min(stamps[base:end]), base, end)
            victim = tags[idx]
            victim_dirty = lvl.dirty[idx]
            lvl.evictions += 1
            if victim_dirty:
                lvl.dirty_evictions += 1
            del lvl.index[victim]
        tags[idx] = block
        lvl.index[block] = idx
        lvl.dirty[idx] = 1 if kind == 1 or kind == 4 else 0  # STORE/WRITEBACK
        clock = self.clock + 1
        self.clock = clock
        lvl.stamps[idx] = clock
        return victim if victim_dirty else -1

    def _writeback_to_llc(self, block: int, cycle: int) -> None:
        llc = self.llc
        if llc.access(block, 0, 4).hit:  # AccessKind.WRITEBACK
            return
        fill = llc.fill(block, 0, 4)
        if fill.bypassed or (fill.victim_dirty and fill.victim_block is not None):
            victim = block if fill.bypassed else fill.victim_block
            assert victim is not None
            self.dram.write(victim << self.block_bits, cycle)

    def _writeback_to_l2(self, block: int, cycle: int) -> None:
        l2 = self.l2
        l2.writeback_accesses += 1
        idx = l2.index.get(block)
        if idx is not None:
            l2.writeback_hits += 1
            clock = self.clock + 1
            self.clock = clock
            l2.stamps[idx] = clock
            l2.dirty[idx] = 1
            return
        pkm = l2.per_kind_misses
        pkm[4] = pkm.get(4, 0) + 1
        wb = self._fill(l2, block, 4)
        if wb >= 0:
            self._writeback_to_llc(wb, cycle)

    def _fill_llc(self, block: int, pc: int, kind: int, cycle: int) -> None:
        fill = self.llc.fill(block, pc, kind)
        victim = fill.victim_block
        if victim is not None and fill.victim_dirty:
            self.dram.write(victim << self.block_bits, cycle)

    # -- the miss path --------------------------------------------------------

    def _miss(
        self, l1: _FastLevel, block: int, pc: int, kind: int, cycle: int, is_data: bool
    ) -> int:
        """L1 demand miss: probe L2 → LLC → DRAM, filling on the way back.

        Replays the reference ``CacheHierarchy.access`` miss path — same
        probe order, same fill/writeback cascade, same DRAM issue cycle.
        """
        latency = l1.hit_latency
        fill = self._fill
        l2 = self.l2
        l2.demand_accesses += 1
        idx = l2.index.get(block)
        if idx is not None:
            l2.demand_hits += 1
            clock = self.clock + 1
            self.clock = clock
            l2.stamps[idx] = clock
            if kind == 1:
                l2.dirty[idx] = 1
            latency += l2.hit_latency
            wb = fill(l1, block, kind)
            if wb >= 0:
                self._writeback_to_l2(wb, cycle)
            self.served_l2 += 1
            return latency
        pkm = l2.per_kind_misses
        pkm[kind] = pkm.get(kind, 0) + 1

        latency += l2.hit_latency
        if self.llc.access(block, pc, kind).hit:
            latency += self.llc.hit_latency
            self.served_llc += 1
        else:
            latency += self.llc.hit_latency
            latency += self.dram.read(block << self.block_bits, cycle + latency)
            if is_data:
                self.l1d_misses_to_dram += 1
            self._fill_llc(block, pc, kind, cycle)
            self.served_dram += 1

        wb = fill(l2, block, kind)
        if wb >= 0:
            self._writeback_to_llc(wb, cycle)
        wb = fill(l1, block, kind)
        if wb >= 0:
            self._writeback_to_l2(wb, cycle)
        return latency

    # -- the composed hot loop ------------------------------------------------

    def run(self, core: CoreModel, trace: Trace, start: int, stop: int) -> None:
        """Stream records [start, stop) through the machine.

        Replaces the reference ``_run_accesses`` four-call chain with one
        loop over hoisted locals; the core model is inlined (same float
        operation order as :meth:`CoreModel.step`). All shared state is
        folded back into the core and the live stats objects on exit, so
        callers may interleave ``run`` calls with state inspection.
        """
        addrs = trace.addrs[start:stop].tolist()
        pcs = trace.pcs[start:stop].tolist()
        kinds = trace.kinds[start:stop].tolist()
        gaps = trace.gaps[start:stop].tolist()

        cfg = core.config
        width = cfg.dispatch_width
        rob = cfg.rob_size
        mshrs = cfg.max_outstanding_misses
        inflight = core._inflight
        popleft = inflight.popleft
        append = inflight.append
        cstats = core.stats
        cycle = core._cycle
        instr = core._instr
        rob_stall = cstats.rob_stall_cycles
        mshr_stall = cstats.mshr_stall_cycles
        loads = cstats.load_accesses
        load_lat = cstats.total_load_latency

        l1d = self.l1d
        l1i = self.l1i
        d_get = l1d.index.get
        i_get = l1i.index.get
        d_stamps = l1d.stamps
        i_stamps = l1i.stamps
        d_dirty = l1d.dirty
        d_lat = l1d.hit_latency
        i_lat = l1i.hit_latency
        d_pkm = l1d.per_kind_misses
        i_pkm = l1i.per_kind_misses
        d_acc = l1d.demand_accesses
        d_hits = l1d.demand_hits
        i_acc = l1i.demand_accesses
        i_hits = l1i.demand_hits
        served_l1 = self.served_l1
        l1d_misses = self.l1d_misses
        clock = self.clock
        bbits = self.block_bits
        miss = self._miss

        for addr, pc, kind, gap in zip(addrs, pcs, kinds, gaps):
            block = addr >> bbits
            if kind <= 1:  # LOAD / STORE → L1D
                d_acc += 1
                idx = d_get(block)
                if idx is not None:
                    d_hits += 1
                    clock += 1
                    d_stamps[idx] = clock
                    if kind == 1:
                        d_dirty[idx] = 1
                    served_l1 += 1
                    latency = d_lat
                else:
                    d_pkm[kind] = d_pkm.get(kind, 0) + 1
                    l1d_misses += 1
                    self.clock = clock
                    latency = miss(l1d, block, pc, kind, int(cycle), True)
                    clock = self.clock
            else:  # IFETCH (eligibility guarantees kind == 2) → L1I
                i_acc += 1
                idx = i_get(block)
                if idx is not None:
                    i_hits += 1
                    clock += 1
                    i_stamps[idx] = clock
                    served_l1 += 1
                    latency = i_lat
                else:
                    i_pkm[2] = i_pkm.get(2, 0) + 1
                    self.clock = clock
                    latency = miss(l1i, block, pc, 2, int(cycle), False)
                    clock = self.clock

            # Inlined CoreModel.step — identical arithmetic order.
            instr += gap
            cycle += gap / width
            horizon = instr - rob
            while inflight and inflight[0][0] < horizon:
                done = popleft()[1]
                if done > cycle:
                    rob_stall += done - cycle
                    cycle = done
            if kind != 1:  # LOAD or IFETCH occupy the window; stores do not
                if len(inflight) >= mshrs:
                    done = popleft()[1]
                    if done > cycle:
                        mshr_stall += done - cycle
                        cycle = done
                loads += 1
                load_lat += latency
                append((instr, cycle + latency))

        self.clock = clock
        l1d.demand_accesses = d_acc
        l1d.demand_hits = d_hits
        l1i.demand_accesses = i_acc
        l1i.demand_hits = i_hits
        self.served_l1 = served_l1
        self.l1d_misses = l1d_misses
        core._cycle = cycle
        core._instr = instr
        cstats.rob_stall_cycles = rob_stall
        cstats.mshr_stall_cycles = mshr_stall
        cstats.load_accesses = loads
        cstats.total_load_latency = load_lat
        self.publish()

    def run_with_telemetry(
        self,
        core: CoreModel,
        trace: Trace,
        start: int,
        stop: int,
        collector: TelemetryCollector,
    ) -> None:
        """Telemetry-armed variant: chunked between interval boundaries.

        The reference loop compares ``core.instructions`` to the next
        boundary after *every* record; instruction counts are just the
        prefix sums of the gap stream, so the first record to cross a
        boundary can be found with a binary search instead. Each chunk
        runs at full speed and ends exactly one record past a boundary
        crossing — the same close/realign sequence the per-record check
        produces, including multi-interval jumps from one long gap.
        ``run`` publishes counters and syncs the core before returning,
        so ``collector.on_boundary`` observes exactly what it would have
        mid-loop in the reference engine.
        """
        boundary = collector.begin(core)
        n = stop - start
        if n <= 0:
            return
        cum = np.cumsum(trace.gaps[start:stop], dtype=np.int64)
        base = core._instr
        pos = 0
        while pos < n:
            crossing = int(np.searchsorted(cum, boundary - base, side="left"))
            chunk_end = crossing + 1 if crossing < n else n
            self.run(core, trace, start + pos, start + chunk_end)
            pos = chunk_end
            if core._instr >= boundary:
                boundary = collector.on_boundary(core)


def fastpath_eligible(hierarchy: CacheHierarchy, trace: Trace) -> bool:
    """Whether the fast engine models this machine/trace combination.

    Conservative by design: anything outside the fast path's model —
    prefetching, inclusive mode, attached sanitizers, telemetry taps on
    upper levels, non-LRU upper-level policies, or trace records beyond
    LOAD/STORE/IFETCH — selects the reference engine instead. The LLC
    policy is never constrained (the LLC stays a real :class:`Cache`).
    """
    if hierarchy.l2_prefetcher is not None or hierarchy.inclusive:
        return False
    if hierarchy._sanitizer is not None or hierarchy.llc._sanitizer is not None:
        return False
    for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        if type(cache.policy) is not LRUPolicy:
            return False
        if cache._sanitizer is not None or cache._telemetry is not None:
            return False
    if len(trace) and int(trace.kinds.max()) > 2:  # beyond IFETCH
        return False
    return True
