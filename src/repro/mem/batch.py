"""Batched multi-cell execution path (``engine="batched"``).

A sweep matrix runs the *same trace* under many LLC policies. The
reference and fast engines simulate each (trace, policy) cell from
scratch, so everything above the LLC — the L1I/L1D/L2 levels, which
always run exact LRU and are probed before any LLC interaction — is
recomputed once per policy even though the LLC never feeds back into it:

* an LLC probe or fill never touches the upper levels (non-inclusive
  hierarchy, the only mode the fast engines model), and
* memory latency only reaches the core model, never upper-level state.

So the upper levels' entire evolution, the sequence of events that
escape to the LLC (demand probes and L2-victim writebacks), and the base
(pre-DRAM) latency of every record are functions of the trace and the
machine config alone. The same is true of the core model's *pop
schedule*: which record retires how many ROB entries and whether a load
waits on an MSHR slot depend only on instruction positions and queue
occupancy — integers derived from the gap stream — never on latencies.
Only the *stall values* (completion cycle vs front-end cycle) differ per
policy.

:class:`BatchPlan` therefore runs :class:`~repro.mem.fastpath.FastMachine`
over the trace once per (trace, config, warmup) combination, on a
scratch hierarchy whose LLC is an event log (:class:`_LLCEventLog`):
the machine's own miss, fill and writeback cascade emits the LLC-visible
events in reference order. Only the core-schedule scan is plan code. The
plan bakes out, per record:

* ``gap / dispatch_width`` (the float the core adds every record),
* the base latency (L1 hit, +L2 on L1 miss, +LLC on L2 miss),
* an opcode packing the LLC event count, the ROB pop count, the MSHR
  pop flag and the load flag,

plus flat arrays of the LLC-visible events. :meth:`BatchPlan.replay`
then drives one cell: the LLC's flat tag/dirty arrays and DRAM bank
timing with the generic cache/memory bookkeeping inlined around calls to
the cell policy's own ``on_hit``/``find_victim``/``on_eviction``/
``on_fill`` methods (the per-cell variable is the policy, so the code
the reference and fast engines run is the code the replay runs, on the
live cache state; no engine keeps a copy of any policy), plus a ring
buffer of load-completion cycles that replays
:meth:`~repro.core.cpu.CoreModel.step`'s float arithmetic in the
identical order. Everything the upper levels contribute to the result
— level statistics, ``l1d_misses``, served-by counts, final
tag/dirty/LRU state — is computed once in the plan and published into
every cell.

Two further plan-time reductions keep the per-cell replay close to the
irreducible LLC/DRAM work:

* When ``dispatch_width`` is a power of two (every shipped config),
  every core float is an exact multiple of ``1/width`` far below 2**53,
  so ``cycle`` arithmetic is *exact* and therefore associative: runs of
  records that neither pop, load, nor carry LLC events fold into a
  single front-end advance bit-identically (:func:`_fold_records`).
* The hot dispatch handles the three event-free record shapes
  (load+MSHR-pop, load into a free slot, store) without touching the
  event machinery at all.

Bit-identity with the reference engine rests on the invariants above
plus the ones inherited from :mod:`repro.mem.fastpath` (victim-selection
order under a shared monotonic clock, LLC call order, float operation
order); ``repro verify-fastpath --engine batched`` proves it per policy.

Eligibility is the fast engine's own predicate,
:func:`~repro.mem.fastpath.fastpath_eligible`: prefetching, inclusive
mode, sanitizers, upper-level taps, non-LRU upper levels or trace
records beyond IFETCH all fall back to the per-cell engines. An LLC
telemetry tap is allowed: the replay calls its ``on_access`` and
``on_eviction`` where :class:`~repro.mem.cache.Cache` would.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from ..core.config import cascade_lake
from ..core.cpu import CoreModel, CoreStats
from ..core.results import SimulationResult, snapshot_result
from ..core.simulator import (
    DEFAULT_WARMUP_FRACTION,
    _reset_statistics,
    build_hierarchy,
    simulate,
)
from ..errors import ConfigurationError
from ..policies.base import BYPASS, PolicyAccess
from .cache import AccessResult
from .fastpath import FastMachine, fastpath_eligible
from .hierarchy import ServiceLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Iterable, Sequence

    from ..core.config import CoreConfig, MachineConfig
    from ..policies.base import ReplacementPolicy
    from ..telemetry.collector import TelemetryCollector, TelemetryConfig
    from ..trace.trace import Trace
    from .cache import Cache
    from .hierarchy import CacheHierarchy

#: The access kinds the plan derives its per-event flags from.
_KIND_STORE = 1
_KIND_IFETCH = 2
_KIND_WRITEBACK = 4

#: Opcode layout: bit 0 = load/ifetch (occupies the window), bit 1 =
#: MSHR pop, bits 2..19 = ROB pop count, bits 20+ = LLC event count.
_OP_LOAD = 1
_OP_MSHR = 2
_ROB_SHIFT = 2
_ROB_MASK = (1 << 18) - 1
_EV_SHIFT = 20

#: Gap folding requires every intermediate ``cycle`` value to be exactly
#: representable (an integer multiple of 1/width below 2**53) so float
#: addition stays associative; 2**50 leaves width ≤ 8 of headroom.
_EXACT_CYCLE_BOUND = 1 << 50


#: What the plan's LLC answers to every probe.
_PLAN_HIT = AccessResult(hit=True)


class _LLCEventLog:
    """The plan machine's LLC: logs every probe and answers each a hit.

    Swapped into the plan's :class:`FastMachine` in place of the real
    LLC, the same kind of swap sampling makes with its silent DRAM. The
    machine's miss path probes the LLC once per demand that leaves the
    L2 and once per L2 victim writeback, in reference order, so the log
    is exactly the event stream every cell replays against its own LLC.
    A hit keeps the machine from filling the LLC or reading DRAM, which
    is per-cell work, and adds the LLC hit latency that the replay's hit
    and miss paths both charge. The log holds plain ints: an object per
    probe would keep the garbage collector scanning a growing heap for
    the whole pass.
    """

    __slots__ = ("hit_latency", "blocks", "pcs", "kinds")

    def __init__(self, hit_latency: int) -> None:
        self.hit_latency = hit_latency
        self.blocks: list[int] = []
        self.pcs: list[int] = []
        self.kinds: list[int] = []

    def access(self, block: int, pc: int, kind: int) -> AccessResult:
        self.blocks.append(block)
        self.pcs.append(pc)
        self.kinds.append(kind)
        return _PLAN_HIT


def _scan(
    machine: FastMachine,
    log: _LLCEventLog,
    trace: Trace,
    start: int,
    stop: int,
    core_cfg: CoreConfig,
    gws: list[float],
    lats: list[int],
    codes: list[int],
    prefixes: list[tuple[int, int, int, int, int, int]] | None,
) -> tuple[int, int, int, int]:
    """Stream records [start, stop): upper levels + core schedule.

    The L1 probe is :meth:`FastMachine.run`'s; an L1 miss goes through
    the machine's own ``_miss``, whose LLC probes land in ``log`` (the
    machine's LLC). Appends one (gap/width, base latency, opcode)
    triple per record and returns ``(loads, base load latency,
    instructions, loads still in flight)`` for the phase. The core
    schedule — how many ROB entries retire at each record and whether a
    load waits on an MSHR slot — is pure integer arithmetic on
    instruction positions, so it is identical for every cell.
    """
    addrs = trace.addrs[start:stop].tolist()
    pcs = trace.pcs[start:stop].tolist()
    kinds = trace.kinds[start:stop].tolist()
    gaps = trace.gaps[start:stop].tolist()

    width = core_cfg.dispatch_width
    rob = core_cfg.rob_size
    mshrs = core_cfg.max_outstanding_misses
    posq: deque[int] = deque()
    pos_pop = posq.popleft
    pos_push = posq.append
    instr = 0
    loads = 0
    load_lat = 0

    l1d = machine.l1d
    l1i = machine.l1i
    l2 = machine.l2
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
    served_l1 = machine.served_l1
    l1d_misses = machine.l1d_misses
    clock = machine.clock
    bbits = machine.block_bits
    miss = machine._miss
    logged = log.blocks
    n_ev = len(logged)

    gw_append = gws.append
    lat_append = lats.append
    code_append = codes.append
    px_append = prefixes.append if prefixes is not None else None

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
                ne = 0
            else:
                d_pkm[kind] = d_pkm.get(kind, 0) + 1
                l1d_misses += 1
                machine.clock = clock
                latency = miss(l1d, block, pc, kind, 0, True)
                clock = machine.clock
                new_ev = len(logged)
                ne = new_ev - n_ev
                n_ev = new_ev
        else:  # IFETCH (eligibility guarantees kind == 2) → L1I
            i_acc += 1
            idx = i_get(block)
            if idx is not None:
                i_hits += 1
                clock += 1
                i_stamps[idx] = clock
                served_l1 += 1
                latency = i_lat
                ne = 0
            else:
                i_pkm[2] = i_pkm.get(2, 0) + 1
                machine.clock = clock
                latency = miss(l1i, block, pc, 2, 0, False)
                clock = machine.clock
                new_ev = len(logged)
                ne = new_ev - n_ev
                n_ev = new_ev

        # Core schedule: positions only; completion cycles are
        # per-cell. Same pop conditions as CoreModel.step.
        instr += gap
        horizon = instr - rob
        nrob = 0
        while posq and posq[0] < horizon:
            pos_pop()
            nrob += 1
        if kind != 1:  # LOAD or IFETCH occupy the window
            if len(posq) >= mshrs:
                pos_pop()
                op = (ne << _EV_SHIFT) | (nrob << _ROB_SHIFT) | _OP_MSHR | _OP_LOAD
            else:
                op = (ne << _EV_SHIFT) | (nrob << _ROB_SHIFT) | _OP_LOAD
            loads += 1
            load_lat += latency
            pos_push(instr)
        else:
            op = (ne << _EV_SHIFT) | (nrob << _ROB_SHIFT)
        code_append(op)
        gw_append(gap / width)
        lat_append(latency)
        if px_append is not None:
            px_append(
                (d_acc, d_hits, i_acc, i_hits, l2.demand_accesses, l2.demand_hits)
            )

    machine.clock = clock
    l1d.demand_accesses = d_acc
    l1d.demand_hits = d_hits
    l1i.demand_accesses = i_acc
    l1i.demand_hits = i_hits
    machine.served_l1 = served_l1
    machine.l1d_misses = l1d_misses
    return loads, load_lat, instr, len(posq)


def _baked_geometry(hierarchy: CacheHierarchy) -> tuple[tuple[int, ...], ...]:
    """Every hierarchy parameter a plan bakes into its records and events.

    The upper levels decide the event stream and the base latencies;
    each event carries its LLC set and DRAM row and bank, and each base
    latency the LLC hit latency.
    """
    llc = hierarchy.llc
    dram = hierarchy.dram
    return (
        *(
            (cache.num_sets, cache.num_ways, cache.hit_latency, cache.block_bits)
            for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
        ),
        (llc.num_sets, llc.hit_latency),
        (dram.config.row_bytes, len(dram._banks)),
    )


class _CellState:
    """Per-cell mutable replay state: core clock, in-flight ring, LLC index."""

    __slots__ = (
        "cycle", "ring", "rh", "rt", "rob_stall", "mshr_stall",
        "load_lat_extra", "served_llc", "served_dram", "l1d_misses_to_dram",
        "resident", "free_ways",
    )

    def __init__(self, ring_size: int, llc: Cache) -> None:
        # Completion cycles of in-flight loads, FIFO. Occupancy is
        # bounded by the MSHR count (the schedule pops before every
        # append at capacity), so a fixed ring with head/tail cursors
        # replaces the reference deque of (position, completion) tuples.
        self.ring = [0.0] * ring_size
        self.restart()
        # The replay works on the LLC's own flat arrays (line = set_index
        # * ways + way). Two derived structures make its probes O(1): a
        # block → way dict (a block lives in exactly one set, so keys
        # are unique) replaces the way scans, and per-set free-way counts
        # turn the fill path's invalid-way search — a guaranteed full
        # miss scan once the sets fill up — into one integer test. Free
        # ways only disappear: evictions replace in place. They stay
        # valid while only the replay changes the LLC, so a cell builds
        # them once, and an empty LLC (every fresh cell) needs no scan.
        ways = llc.num_ways
        tags = llc._tags
        if tags.count(-1) == len(tags):
            self.free_ways = [ways] * llc.num_sets
            self.resident: dict[int, int] = {}
        else:
            self.free_ways = [ways - n for n in llc.set_occupancies()]
            self.resident = {tag: i % ways for i, tag in enumerate(tags) if tag != -1}

    def restart(self) -> None:
        """Start a core window: cycle 0, nothing in flight, zero counters."""
        self.cycle = 0.0
        self.rh = 0
        self.rt = 0
        self.rob_stall = 0.0
        self.mshr_stall = 0.0
        self.load_lat_extra = 0
        self.served_llc = 0
        self.served_dram = 0
        self.l1d_misses_to_dram = 0


def _fold_records(
    gws: list[float], lats: list[int], codes: list[int], lo: int, hi: int
) -> list[tuple[float, int, int]]:
    """Merge runs of pure front-end records into their successor.

    A code-0 record (store, no pops, no LLC events) only advances
    ``cycle`` by its ``gap/width``. With exact (power-of-two-width)
    arithmetic those adds are associative, so a run of them merges into
    the next record's advance whenever that record reads ``cycle`` only
    *after* its own add — any event-free record qualifies. A record
    carrying LLC events reads ``int(cycle)`` *before* its add, so the
    pending run is flushed as one standalone code-0 record instead.
    Event order and every per-cell float value are preserved
    bit-for-bit. Reads the parallel column slices directly so the plan
    never has to materialize a full zipped record list just to fold it.
    """
    out: list[tuple[float, int, int]] = []
    pending = 0.0
    have = False
    for gw, lat, code in zip(gws[lo:hi], lats[lo:hi], codes[lo:hi]):
        if code == 0:
            pending += gw
            have = True
            continue
        if have:
            if code >> _EV_SHIFT:
                out.append((pending, 0, 0))
                out.append((gw, lat, code))
            else:
                out.append((pending + gw, lat, code))
            pending = 0.0
            have = False
        else:
            out.append((gw, lat, code))
    if have:
        out.append((pending, 0, 0))
    return out


class BatchPlan:
    """Policy-independent precomputation shared by every cell of a trace.

    Building the plan costs roughly one fast-engine pass; each
    :meth:`replay` afterwards costs only the inlined core arithmetic
    plus the LLC/DRAM events, so a P-policy matrix approaches the cost
    of the matrix's irreducible LLC work as P grows.
    """

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        warmup_fraction: float,
        collect_prefixes: bool,
    ) -> None:
        self.trace = trace
        self.config = config
        self.warmup_fraction = warmup_fraction
        n = len(trace)
        self.n = n
        self.warmup_end = int(n * warmup_fraction)

        core_cfg = config.core
        if core_cfg.max_outstanding_misses > _ROB_MASK:
            raise ConfigurationError(
                "batch engine supports at most "
                f"{_ROB_MASK} outstanding misses, got "
                f"{core_cfg.max_outstanding_misses}"
            )
        scratch = build_hierarchy(config, "lru")
        if not fastpath_eligible(scratch, trace):
            raise ConfigurationError(
                f"{trace.name}: trace/config combination is not batch-eligible"
            )
        machine = FastMachine(scratch)
        log = _LLCEventLog(scratch.llc.hit_latency)
        machine.llc = log  # type: ignore[assignment]
        self.block_bits = machine.block_bits
        self.geometry = _baked_geometry(scratch)

        gws: list[float] = []
        lats: list[int] = []
        codes: list[int] = []
        _, _, _, w_alive = _scan(
            machine, log, trace, 0, self.warmup_end, core_cfg,
            gws, lats, codes, None,
        )
        machine.reset_counters()
        prefixes: list[tuple[int, int, int, int, int, int]] | None = (
            [] if collect_prefixes else None
        )
        m_loads, m_load_lat, m_instr, m_alive = _scan(
            machine, log, trace, self.warmup_end, n, core_cfg,
            gws, lats, codes, prefixes,
        )

        self.warmup_alive = w_alive
        self.measured_alive = m_alive
        self.measured_loads = m_loads
        self.measured_load_lat = m_load_lat
        self.measured_instructions = m_instr
        # The full zipped record list and per-record event offsets exist
        # only to let the chunked telemetry replay slice at interval
        # boundaries; without a collector they are never read, and
        # skipping them saves a multi-million-tuple allocation per plan.
        self.recs: list[tuple[float, int, int]] | None = None
        self.ev_offsets: list[int] | None = None
        if collect_prefixes:
            self.recs = list(zip(gws, lats, codes))
            self.ev_offsets = list(
                accumulate((c >> _EV_SHIFT for c in codes), initial=0)
            )
            self.measured_ec = self.ev_offsets[self.warmup_end]
        else:
            self.measured_ec = sum(
                c >> _EV_SHIFT for c in codes[: self.warmup_end]
            )
        # Events carry every policy-independent derivation precomputed
        # once and shared by all cells: whether the probe is a demand
        # (everything but an L2 victim writeback), the LLC set index, the
        # DRAM row/bank a demand miss would read, whether it is an L1D
        # miss (LOAD/STORE, not IFETCH), and the PolicyAccess the
        # hooks receive (an immutable NamedTuple, so one instance can
        # serve every replay). run_cell() guards that each hierarchy
        # matches this geometry.
        blocks = np.array(log.blocks, dtype=np.int64)
        kinds = np.array(log.kinds, dtype=np.int64)
        rows = (blocks << self.block_bits) // scratch.dram.config.row_bytes
        self.events: list[tuple] = list(
            zip(
                (kinds != _KIND_WRITEBACK).tolist(),
                log.blocks,
                (blocks & scratch.llc._set_mask).tolist(),
                rows.tolist(),
                (rows % len(scratch.dram._banks)).tolist(),
                (kinds < _KIND_IFETCH).tolist(),
                (kinds == _KIND_STORE).tolist(),
                log.kinds,
                map(PolicyAccess, log.blocks, log.pcs, log.kinds),
            )
        )

        # Folded per-phase record lists for whole-phase replays, used
        # when the cycle arithmetic is provably exact (power-of-two
        # width, magnitudes far below 2**53: bounded by instructions
        # plus a generous per-record latency allowance). Chunked
        # telemetry replay keeps indexing the unfolded list — fold
        # boundaries and interval boundaries would otherwise disagree.
        width = core_cfg.dispatch_width
        cycle_bound = (int(trace.gaps.sum()) + n * 4096) if n else 0
        if width & (width - 1) == 0 and cycle_bound < _EXACT_CYCLE_BOUND:
            self.warmup_recs = _fold_records(gws, lats, codes, 0, self.warmup_end)
            self.measured_recs = _fold_records(gws, lats, codes, self.warmup_end, n)
        else:
            if self.recs is None:
                self.recs = list(zip(gws, lats, codes))
            self.warmup_recs = self.recs[: self.warmup_end]
            self.measured_recs = self.recs[self.warmup_end:]

        self.levels = (machine.l1i, machine.l1d, machine.l2)
        self.final_clock = machine.clock
        self.measured_l1d_misses = machine.l1d_misses
        self.measured_served_l1 = machine.served_l1
        self.measured_served_l2 = machine.served_l2
        self.prefixes = prefixes
        self.measured_cum: np.ndarray | None = (
            np.cumsum(trace.gaps[self.warmup_end:n], dtype=np.int64)
            if collect_prefixes
            else None
        )
        self.ring_size = max(1, core_cfg.max_outstanding_misses)

    # -- per-cell replay -------------------------------------------------------

    def replay(
        self,
        cell: _CellState,
        hierarchy: CacheHierarchy,
        recs: list[tuple[float, int, int]],
        ec: int,
    ) -> None:
        """Drive one cell's LLC/DRAM/core over a precomputed record list.

        ``ec`` indexes the first LLC event the records consume. The hot
        loop dispatches on the precomputed opcode: the three event-free
        shapes (load+MSHR-pop, load with a free slot, store) are
        inlined; everything else — ROB retirements, LLC events — takes
        the general path. The LLC's generic bookkeeping (probe order,
        statistics, dirty bits, victim mechanics) and the DRAM bank
        timing are inlined around the LLC policy's own hooks, bound once
        per call, operating on the live tag/dirty rows. Counters
        accumulate in locals and flush into the model objects on exit;
        the policy's state stays on the policy throughout. An LLC
        telemetry tap, when attached, is called where
        :meth:`~repro.mem.cache.Cache.access` and ``fill`` would call
        it. Float operations (``cycle += gap/width``, stall bumps to a
        completion cycle) execute in exactly the reference order, so
        cycle counts match to the last bit.
        """
        llc = hierarchy.llc
        dram = hierarchy.dram
        bbits = self.block_bits
        events = self.events

        # LLC checkout: the cache's own flat arrays plus the cell's
        # block → way dict and free-way counts (see _CellState);
        # find_victim gets the same set snapshot Cache.fill would hand it.
        llc_tags = llc._tags
        llc_dirty = llc._dirty
        ways = llc.num_ways
        resident = cell.resident
        resident_get = resident.get
        free_ways = cell.free_ways
        tap = llc._telemetry
        policy = llc.policy
        on_hit = policy.on_hit
        on_fill = policy.on_fill
        on_eviction = policy.on_eviction
        find_victim = policy.find_victim
        s_dacc = s_dhits = s_wbacc = s_wbhits = 0
        s_evict = s_devict = s_bypass = 0
        s_pkm = [0, 0, 0, 0, 0]

        # DRAM checkout: banks flatten to two parallel lists, stats to
        # locals; written back on exit so chunked calls and the rebase
        # at the warm-up boundary observe the state the model holds.
        dram_cfg = dram.config
        row_bytes = dram_cfg.row_bytes
        lat_rowhit = dram_cfg.row_hit_latency
        lat_rowclosed = dram_cfg.row_closed_latency
        lat_rowconf = dram_cfg.row_conflict_latency
        banks = dram._banks
        nbanks = len(banks)
        bank_row = [b.open_row for b in banks]
        bank_next = [b.next_free for b in banks]
        s_reads = s_writes = s_rowhit = s_rowconf = s_rowclosed = s_rdlat = 0

        ring = cell.ring
        ring_n = len(ring)
        rh = cell.rh
        rt = cell.rt
        cycle = cell.cycle
        rob_stall = cell.rob_stall
        mshr_stall = cell.mshr_stall
        lat_extra = cell.load_lat_extra
        served_llc = cell.served_llc
        served_dram = cell.served_dram
        l1d_md = cell.l1d_misses_to_dram

        for gw, lat, code in recs:
            if code == 3:
                # Load, one MSHR pop, no ROB pops, no LLC events — the
                # steady state once the window is full.
                cycle += gw
                done = ring[rh]
                rh += 1
                if rh == ring_n:
                    rh = 0
                if done > cycle:
                    mshr_stall += done - cycle
                    cycle = done
                ring[rt] = cycle + lat
                rt += 1
                if rt == ring_n:
                    rt = 0
            elif code == 1:
                # Load into a free MSHR slot, nothing retires.
                cycle += gw
                ring[rt] = cycle + lat
                rt += 1
                if rt == ring_n:
                    rt = 0
            elif code == 0:
                # Store (write-buffered): only the front end advances.
                cycle += gw
            else:
                ne = code >> _EV_SHIFT
                if ne:
                    # LLC-visible events issue against the pre-step cycle,
                    # exactly as FastMachine passes int(cycle) to _miss.
                    icycle = int(cycle)
                    base = lat
                    stop_ec = ec + ne
                    while ec < stop_ec:
                        (demand, blk, set_index, row, b,
                         isdata, is_store, kind, acc) = events[ec]
                        ec += 1
                        way = resident_get(blk)
                        if tap is not None:
                            tap.on_access(blk, kind, way is not None)
                        if demand:
                            if way is not None:
                                # Cache.access hit: count, notify, dirty.
                                s_dacc += 1
                                s_dhits += 1
                                on_hit(set_index, way, acc)
                                if is_store:
                                    llc_dirty[set_index * ways + way] = 1
                                served_llc += 1
                            else:
                                first = set_index * ways
                                s_dacc += 1
                                s_pkm[kind] += 1
                                # dram.read at the post-probe latency;
                                # row/bank precomputed in the plan.
                                arrival = icycle + lat
                                nf = bank_next[b]
                                begin = nf if nf > arrival else arrival
                                orow = bank_row[b]
                                if orow == row:
                                    s_rowhit += 1
                                    svc = lat_rowhit
                                elif orow == -1:
                                    s_rowclosed += 1
                                    svc = lat_rowclosed
                                else:
                                    s_rowconf += 1
                                    svc = lat_rowconf
                                bank_row[b] = row
                                bank_next[b] = begin + svc
                                dlat = begin - arrival + svc
                                s_reads += 1
                                s_rdlat += dlat
                                lat += dlat
                                if isdata:
                                    l1d_md += 1
                                # Cache.fill, then the dirty victim's
                                # writeback — the reference call order.
                                if free_ways[set_index]:
                                    free_ways[set_index] -= 1
                                    line = llc_tags.index(-1, first)
                                    way = line - first
                                    llc_tags[line] = blk
                                    resident[blk] = way
                                    llc_dirty[line] = is_store
                                    on_fill(set_index, way, acc)
                                else:
                                    way = find_victim(
                                        set_index, acc, llc_tags[first:first + ways]
                                    )
                                    if way == BYPASS:
                                        s_bypass += 1
                                    else:
                                        line = first + way
                                        victim = llc_tags[line]
                                        vdirty = llc_dirty[line]
                                        s_evict += 1
                                        if vdirty:
                                            s_devict += 1
                                        if tap is not None:
                                            tap.on_eviction(set_index)
                                        on_eviction(set_index, way, victim)
                                        llc_tags[line] = blk
                                        del resident[victim]
                                        resident[blk] = way
                                        llc_dirty[line] = is_store
                                        on_fill(set_index, way, acc)
                                        if vdirty:
                                            row = (victim << bbits) // row_bytes
                                            b = row % nbanks
                                            nf = bank_next[b]
                                            begin = nf if nf > icycle else icycle
                                            orow = bank_row[b]
                                            if orow == row:
                                                s_rowhit += 1
                                                svc = lat_rowhit
                                            elif orow == -1:
                                                s_rowclosed += 1
                                                svc = lat_rowclosed
                                            else:
                                                s_rowconf += 1
                                                svc = lat_rowconf
                                            bank_row[b] = row
                                            bank_next[b] = begin + svc
                                            s_writes += 1
                                served_dram += 1
                        elif way is not None:
                            # Writeback hit: refresh and mark dirty.
                            s_wbacc += 1
                            s_wbhits += 1
                            on_hit(set_index, way, acc)
                            llc_dirty[set_index * ways + way] = 1
                        else:
                            first = set_index * ways
                            s_wbacc += 1
                            s_pkm[4] += 1
                            victim = -1
                            if free_ways[set_index]:
                                free_ways[set_index] -= 1
                                line = llc_tags.index(-1, first)
                                way = line - first
                                llc_tags[line] = blk
                                resident[blk] = way
                                llc_dirty[line] = 1
                                on_fill(set_index, way, acc)
                            else:
                                way = find_victim(
                                    set_index, acc, llc_tags[first:first + ways]
                                )
                                if way == BYPASS:
                                    s_bypass += 1
                                    victim = blk  # bypassed WB goes to DRAM
                                else:
                                    line = first + way
                                    cand = llc_tags[line]
                                    vdirty = llc_dirty[line]
                                    s_evict += 1
                                    if vdirty:
                                        s_devict += 1
                                        victim = cand
                                    if tap is not None:
                                        tap.on_eviction(set_index)
                                    on_eviction(set_index, way, cand)
                                    llc_tags[line] = blk
                                    del resident[cand]
                                    resident[blk] = way
                                    llc_dirty[line] = 1
                                    on_fill(set_index, way, acc)
                            if victim >= 0:
                                row = (victim << bbits) // row_bytes
                                b = row % nbanks
                                nf = bank_next[b]
                                begin = nf if nf > icycle else icycle
                                orow = bank_row[b]
                                if orow == row:
                                    s_rowhit += 1
                                    svc = lat_rowhit
                                elif orow == -1:
                                    s_rowclosed += 1
                                    svc = lat_rowclosed
                                else:
                                    s_rowconf += 1
                                    svc = lat_rowconf
                                bank_row[b] = row
                                bank_next[b] = begin + svc
                                s_writes += 1
                    if code & 1:
                        lat_extra += lat - base
                cycle += gw
                nrob = (code >> _ROB_SHIFT) & _ROB_MASK
                while nrob:
                    done = ring[rh]
                    rh += 1
                    if rh == ring_n:
                        rh = 0
                    if done > cycle:
                        rob_stall += done - cycle
                        cycle = done
                    nrob -= 1
                if code & 2:
                    done = ring[rh]
                    rh += 1
                    if rh == ring_n:
                        rh = 0
                    if done > cycle:
                        mshr_stall += done - cycle
                        cycle = done
                if code & 1:
                    ring[rt] = cycle + lat
                    rt += 1
                    if rt == ring_n:
                        rt = 0

        cell.cycle = cycle
        cell.rh = rh
        cell.rt = rt
        cell.rob_stall = rob_stall
        cell.mshr_stall = mshr_stall
        cell.load_lat_extra = lat_extra
        cell.served_llc = served_llc
        cell.served_dram = served_dram
        cell.l1d_misses_to_dram = l1d_md

        stats = llc.stats
        stats.demand_accesses += s_dacc
        stats.demand_hits += s_dhits
        stats.writeback_accesses += s_wbacc
        stats.writeback_hits += s_wbhits
        stats.evictions += s_evict
        stats.dirty_evictions += s_devict
        stats.bypasses += s_bypass
        pkm = stats.per_kind_misses
        for kind, count in enumerate(s_pkm):
            if count:
                pkm[kind] = pkm.get(kind, 0) + count
        for b in range(nbanks):
            bank = banks[b]
            bank.open_row = bank_row[b]
            bank.next_free = bank_next[b]
        dstats = dram.stats
        dstats.reads += s_reads
        dstats.writes += s_writes
        dstats.row_hits += s_rowhit
        dstats.row_conflicts += s_rowconf
        dstats.row_closed += s_rowclosed
        dstats.total_read_latency += s_rdlat

    def drain(self, cell: _CellState, alive: int) -> float:
        """Replay :meth:`CoreModel.drain`: wait for ``alive`` loads."""
        cycle = cell.cycle
        ring = cell.ring
        ring_n = len(ring)
        rh = cell.rh
        for _ in range(alive):
            done = ring[rh]
            rh += 1
            if rh == ring_n:
                rh = 0
            if done > cycle:
                cycle = done
        return cycle


class BatchSimulator:
    """Shared-plan multi-cell driver for one trace.

    Build once per (trace, config, warmup, telemetry) combination, then
    call :meth:`run_cell` once per LLC policy. Each cell's result is
    bit-identical to ``simulate(trace, ..., engine="reference")``.
    """

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig | None = None,
        warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
        telemetry: TelemetryConfig | None = None,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        if config is None:
            config = cascade_lake()
        self.trace = trace
        self.config = config
        self.warmup_fraction = warmup_fraction
        self.telemetry = telemetry
        self.plan = BatchPlan(trace, config, warmup_fraction, telemetry is not None)

    def run_cell(
        self,
        llc_policy: ReplacementPolicy | str,
        hierarchy: CacheHierarchy | None = None,
    ) -> SimulationResult:
        """Simulate one (trace, policy) cell against the shared plan."""
        plan = self.plan
        trace = self.trace
        config = self.config
        if hierarchy is None:
            hierarchy = build_hierarchy(config, llc_policy)
        if not fastpath_eligible(hierarchy, trace):
            raise ConfigurationError(
                f"{trace.name}/{hierarchy.llc.policy.name}: cell is not "
                "batch-eligible; use simulate() instead"
            )
        if _baked_geometry(hierarchy) != plan.geometry:
            # The plan baked its config's upper levels, latencies and
            # LLC/DRAM geometry into every record and event; a hierarchy
            # built from a different config would replay silently wrong.
            raise ConfigurationError(
                f"{trace.name}/{hierarchy.llc.policy.name}: hierarchy "
                "geometry does not match the plan's machine config"
            )
        policy_name = hierarchy.llc.policy.name

        # Warm-up: the LLC and DRAM evolve per policy; statistics are
        # then discarded at the boundary exactly as the driver does.
        cell = _CellState(plan.ring_size, hierarchy.llc)
        plan.replay(cell, hierarchy, plan.warmup_recs, 0)
        _reset_statistics(hierarchy, int(plan.drain(cell, plan.warmup_alive)))

        cell.restart()
        collector: TelemetryCollector | None = None
        core: CoreModel | None = None
        if self.telemetry is not None:
            from ..telemetry.collector import TelemetryCollector

            collector = TelemetryCollector(self.telemetry, hierarchy)
            collector.attach()
            core = CoreModel(config.core)
            self._replay_with_telemetry(cell, hierarchy, core, collector)
        else:
            plan.replay(cell, hierarchy, plan.measured_recs, plan.measured_ec)

        cycles = plan.drain(cell, plan.measured_alive)
        core_stats = CoreStats(
            instructions=plan.measured_instructions,
            cycles=cycles,
            load_accesses=plan.measured_loads,
            total_load_latency=plan.measured_load_lat + cell.load_lat_extra,
            rob_stall_cycles=cell.rob_stall,
            mshr_stall_cycles=cell.mshr_stall,
        )
        # Publish shared upper-level outcomes and per-cell counters
        # before the collector closes its final interval — it reads the
        # same live stats objects the reference driver maintains.
        self._publish(hierarchy, cell)
        if collector is not None and core is not None:
            core._instr = plan.measured_instructions
            core._cycle = cycles
            collector.finalize(core)

        info = {
            "warmup_accesses": plan.warmup_end,
            "measured_accesses": plan.n - plan.warmup_end,
            **trace.info,
        }
        if collector is not None:
            info["telemetry"] = collector.profile(
                trace.name, policy_name
            ).to_json_dict()
        return snapshot_result(
            workload=trace.name,
            policy=policy_name,
            hierarchy=hierarchy,
            core_stats=core_stats,
            info=info,
        )

    def _publish(self, hierarchy: CacheHierarchy, cell: _CellState) -> None:
        plan = self.plan
        clock = plan.final_clock
        for lvl, cache in zip(
            plan.levels, (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
        ):
            lvl.publish_into(cache, clock)
        stats = hierarchy.stats
        stats.l1d_misses = plan.measured_l1d_misses
        stats.l1d_misses_to_dram = cell.l1d_misses_to_dram
        served = stats.served_by
        served[ServiceLevel.L1] = plan.measured_served_l1
        served[ServiceLevel.L2] = plan.measured_served_l2
        served[ServiceLevel.LLC] = cell.served_llc
        served[ServiceLevel.DRAM] = cell.served_dram

    def _replay_with_telemetry(
        self,
        cell: _CellState,
        hierarchy: CacheHierarchy,
        core: CoreModel,
        collector: TelemetryCollector,
    ) -> None:
        """Chunked replay mirroring ``FastMachine.run_with_telemetry``.

        Same searchsorted chunking over the measured gap prefix sums, so
        interval boundaries land on identical records; the upper levels'
        demand counters at each boundary come from the plan's prefix
        snapshots (the only upper-level values the collector reads).
        Chunks index the unfolded record list — fold boundaries and
        interval boundaries would otherwise disagree.
        """
        plan = self.plan
        boundary = collector.begin(core)
        start = plan.warmup_end
        n = plan.n - start
        if n <= 0:
            return
        cum = plan.measured_cum
        prefixes = plan.prefixes
        recs = plan.recs
        ev_offsets = plan.ev_offsets
        assert cum is not None and prefixes is not None
        assert recs is not None and ev_offsets is not None
        l1i_stats = hierarchy.l1i.stats
        l1d_stats = hierarchy.l1d.stats
        l2_stats = hierarchy.l2.stats
        pos = 0
        while pos < n:
            crossing = int(np.searchsorted(cum, boundary, side="left"))
            chunk_end = crossing + 1 if crossing < n else n
            plan.replay(
                cell,
                hierarchy,
                recs[start + pos:start + chunk_end],
                ev_offsets[start + pos],
            )
            pos = chunk_end
            instr = int(cum[pos - 1])
            core._instr = instr
            core._cycle = cell.cycle
            if instr >= boundary:
                d_acc, d_hits, i_acc, i_hits, l2_acc, l2_hits = prefixes[pos - 1]
                l1d_stats.demand_accesses = d_acc
                l1d_stats.demand_hits = d_hits
                l1i_stats.demand_accesses = i_acc
                l1i_stats.demand_hits = i_hits
                l2_stats.demand_accesses = l2_acc
                l2_stats.demand_hits = l2_hits
                boundary = collector.on_boundary(core)


def simulate_batched(
    trace: Trace,
    policies: Sequence[ReplacementPolicy | str] | Iterable[ReplacementPolicy | str],
    config: MachineConfig | None = None,
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    telemetry: TelemetryConfig | None = None,
) -> dict[str, SimulationResult]:
    """Run every policy over ``trace`` through one shared plan.

    The conservative contract of the engine flag: cells whose (policy,
    config, trace) combination is not batch-eligible fall back to
    :func:`~repro.core.simulator.simulate` (which itself falls back from
    fast to reference as needed), so callers always get a full result
    dict — batching is purely an optimization.
    """
    if config is None:
        config = cascade_lake()
    sim: BatchSimulator | None = None
    results: dict[str, SimulationResult] = {}
    for policy in policies:
        hierarchy = build_hierarchy(config, policy)
        name = hierarchy.llc.policy.name
        if fastpath_eligible(hierarchy, trace):
            if sim is None:
                sim = BatchSimulator(trace, config, warmup_fraction, telemetry)
            results[name] = sim.run_cell(policy, hierarchy)
        else:
            results[name] = simulate(
                trace,
                config=config,
                llc_policy=policy,
                warmup_fraction=warmup_fraction,
                telemetry=telemetry,
            )
    return results

