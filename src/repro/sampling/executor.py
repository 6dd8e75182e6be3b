"""Sampled simulation: execute a plan and recombine the estimate.

The executor runs each representative interval of a
:class:`~repro.sampling.plan.SamplingPlan` in trace order:

1. **Warm-state synthesis** — per-level cache content at the interval's
   warm-up boundary is reconstructed from the trace's access recency (a
   memory-timestamp-record pass: the most recently touched blocks, up
   to each level's capacity, injected oldest-first through the normal
   fill path). Without this, every interval starts from cold caches and
   the sampled MPKI overshoots the full run by an order of magnitude at
   smoke scale. The spec's ``warm_synthesis`` strategy decides how
   policy *predictor* state is rebuilt on top of the content:

   * ``"recency"`` — content only; global tables start cold.
   * ``"replay"`` — after the content rebuild, a bounded suffix of the
     skipped region (``spec.replay_windows`` windows) streams through
     the real access path with DRAM timing stubbed out, driving each
     policy's training hooks without timing simulation.
   * ``"checkpoint"`` — a single functional pass over the trace prefix
     captures, at every interval boundary, the policy's global tables
     (:meth:`~repro.policies.base.ReplacementPolicy.checkpoint_tables`)
     *and* each level's resident block set. Warm state is then rebuilt
     by filling exactly those blocks (in last-touch order) with the
     restored tables — the content a full run would actually hold, not
     a recency approximation. Because policy hooks never see cycle
     counts, the functional pass reproduces a timed full run's tables
     and content bit-exactly.
2. **Simulated warm-up** — ``spec.warm_windows`` windows of real
   simulation settle DRAM row buffers/bank queues, MSHR-equivalent
   timing state and policy recency before measurement, then
   ``_reset_statistics`` discards the warm statistics and rebases the
   DRAM bank clocks to the measured core's origin — the same boundary
   correction a full run applies after its warm-up phase, generalized
   to every interval boundary.
3. **Measurement** — the interval runs and is snapshotted into a
   per-interval :class:`~repro.core.results.SimulationResult`.

Each cell runs on one engine end to end. On the fast engine (when
:func:`~repro.mem.fastpath.fastpath_eligible`) a single
:class:`~repro.mem.fastpath.FastMachine` serves every interval:
synthesis writes the upper levels straight into its flat arrays, the
functional passes run through its hot loop, and it is checked back into
the hierarchy once, after the last interval. ``engine="reference"`` and
ineligible machines keep the reference access path throughout — the
oracle the fast path is tested against.

Per-interval results recombine into one full-run estimate by weighting
every counter with its interval's cluster population (SimPoint's
weighted sum). Policy *global* state (e.g. SHiP's signature counters)
deliberately carries across intervals in trace order; per-line metadata
is rebuilt by the synthesis fills.

Known limitation, documented in docs/sampling.md: recency-based
synthesis reconstructs LRU-like *content*, so policies whose
steady-state content diverges from recency order see residual content
error even when their predictor tables are synthesized exactly; the
committed error budget is validated per (policy, strategy) pair in
:mod:`repro.sampling.validate`.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np

from ..core.config import CoreConfig, MachineConfig, cascade_lake
from ..core.cpu import CoreModel
from ..core.results import LevelStats, SimulationResult, snapshot_result
from ..core.simulator import (
    DEFAULT_WARMUP_FRACTION,
    _reset_statistics,
    _run_accesses,
    build_hierarchy,
)
from ..errors import ConfigurationError, SimulationError
from ..mem.cache import Cache
from ..mem.fastpath import FastMachine, fastpath_eligible
from ..mem.hierarchy import CacheHierarchy, ServiceLevel
from ..policies.base import PolicyAccess, ReplacementPolicy
from ..policies.registry import WARM_STATE_EXCLUDED, make_policy
from ..trace.record import AccessKind
from ..trace.trace import Trace
from .plan import SamplingPlan, build_plan
from .spec import SamplingSpec

#: Fill kinds that leave the line dirty, as :meth:`Cache.fill` decides.
_DIRTY_KINDS = (AccessKind.STORE, AccessKind.WRITEBACK)


def _prefix_last_touch(
    trace: Trace, boundary: int, block_bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct block's last access in ``[0, boundary)``.

    Returns ``(blocks, pcs, kinds)`` sorted oldest-last-touch first, so
    filling them in order reproduces the prefix's recency order.
    """
    blocks = trace.block_addrs(block_bits)[:boundary]
    kinds = trace.kinds[:boundary]
    pcs = trace.pcs[:boundary]
    # np.unique(reversed prefix) gives each block's *first* index in the
    # reversed view = its *last* access in the prefix.
    uniq, first_rev = np.unique(blocks[::-1], return_index=True)
    last_index = boundary - 1 - first_rev
    order = np.argsort(last_index, kind="stable")  # oldest last-touch first
    ordered_last = last_index[order]
    return uniq[order], pcs[ordered_last], kinds[ordered_last]


@contextmanager
def _untrained_evictions(policy: ReplacementPolicy) -> Iterator[None]:
    """Disable the policy's eviction training for the duration.

    Set-conflict evictions during a content rebuild are artifacts of the
    rebuild, not observed program behaviour. The real hook comes back
    even when a fill raises half-way.
    """
    saved_on_eviction = policy.on_eviction
    policy.on_eviction = (  # type: ignore[method-assign]
        lambda set_index, way, victim_block: None
    )
    try:
        yield
    finally:
        policy.on_eviction = saved_on_eviction  # type: ignore[method-assign]


def _fill_blocks(
    cache, blocks: np.ndarray, pcs: np.ndarray, kinds: np.ndarray
) -> int:
    """Inject blocks through the normal fill path, training suppressed."""
    fill = cache.fill
    fills = 0
    with _untrained_evictions(cache.policy):
        for block, pc, kind in zip(blocks.tolist(), pcs.tolist(), kinds.tolist()):
            fill(block, pc, int(kind))
            fills += 1
    return fills


def _refill_llc(
    cache: Cache, blocks: np.ndarray, pcs: np.ndarray, kinds: np.ndarray
) -> int:
    """``reset_content`` + :func:`_fill_blocks`, without the way scan.

    After the reset every set fills its ways in order, so a fill lands
    in its set's next invalid way until the set is full. That way is
    written directly — tag, dirty bit and ``policy.on_fill``, exactly
    what :meth:`Cache.fill` does for an invalid way. Only a fill into a
    full set goes through :meth:`Cache.fill` (victim choice, bypass,
    eviction counters), with eviction training suppressed.
    """
    cache.reset_content()
    tags = cache._tags
    dirty = cache._dirty
    set_mask = cache._set_mask
    ways = cache.num_ways
    filled = [0] * cache.num_sets
    on_fill = cache.policy.on_fill
    with _untrained_evictions(cache.policy):
        for block, pc, kind in zip(blocks.tolist(), pcs.tolist(), kinds.tolist()):
            set_index = block & set_mask
            way = filled[set_index]
            if way < ways:
                filled[set_index] = way + 1
                tags[set_index][way] = block
                dirty[set_index][way] = kind in _DIRTY_KINDS
                on_fill(set_index, way, PolicyAccess(block, pc, kind))
            else:
                cache.fill(block, pc, kind)
    return len(blocks)


def _refill(
    cache: Cache,
    blocks: np.ndarray,
    pcs: np.ndarray,
    kinds: np.ndarray,
    machine: FastMachine | None,
) -> int:
    """Replace ``cache``'s content with ``blocks``, filled in order.

    Without ``machine`` this is the reference rebuild: ``reset_content``
    and :meth:`Cache.fill` per block. With the cell's
    :class:`FastMachine`, an upper level is rebuilt in the machine's
    flat arrays through its own insert routine (an LRU level needs no
    eviction training to suppress) and the LLC through
    :func:`_refill_llc`. Returns the number of fills.
    """
    if machine is None:
        cache.reset_content()
        return _fill_blocks(cache, blocks, pcs, kinds)
    for level in (machine.l1i, machine.l1d, machine.l2):
        if level.cache is cache:
            level.clear()
            fill = machine._fill
            for block, kind in zip(blocks.tolist(), kinds.tolist()):
                fill(level, block, kind)
            return len(blocks)
    return _refill_llc(cache, blocks, pcs, kinds)


def synthesize_warm_state(
    hierarchy: CacheHierarchy,
    trace: Trace,
    boundary: int,
    machine: FastMachine | None = None,
) -> int:
    """Rebuild per-level cache content from trace recency before ``boundary``.

    For every level, the most recently last-touched blocks of the trace
    prefix ``[0, boundary)`` — capped at the level's capacity — are
    injected oldest-first through the fill path, so per-line policy
    metadata (RRPV, signatures, recency stacks) is initialized by the
    policy itself. Instruction blocks go to the L1I, data blocks to the
    L1D, and both to L2/LLC, mirroring the hierarchy's routing. Policy
    eviction *training* is suppressed for the duration (set-conflict
    evictions during injection are artifacts of the rebuild, not
    observed program behaviour). ``machine`` — the cell's checked-out
    :class:`FastMachine` — selects the fast rebuild (see
    :func:`_refill`). Returns the number of fills performed.
    """
    ordered_blocks, ordered_pcs, ordered_kinds = _prefix_last_touch(
        trace, max(boundary, 0), hierarchy.block_bits
    )
    instruction = ordered_kinds == AccessKind.IFETCH
    fills = 0
    for cache, mask in (
        (hierarchy.l1i, instruction),
        (hierarchy.l1d, ~instruction),
        (hierarchy.l2, None),
        (hierarchy.llc, None),
    ):
        if mask is None:
            level_blocks, level_pcs, level_kinds = (
                ordered_blocks, ordered_pcs, ordered_kinds,
            )
        else:
            level_blocks = ordered_blocks[mask]
            level_pcs = ordered_pcs[mask]
            level_kinds = ordered_kinds[mask]
        capacity = cache.num_sets * cache.num_ways
        if len(level_blocks) > capacity:
            level_blocks = level_blocks[-capacity:]
            level_pcs = level_pcs[-capacity:]
            level_kinds = level_kinds[-capacity:]
        fills += _refill(cache, level_blocks, level_pcs, level_kinds, machine)
    return fills


class _SilentDRAM:
    """Timing-free DRAM stand-in for functional (untimed) passes.

    Swapped in for the real DRAM while a training-only pass streams
    accesses: the real DRAM model would record those requests in its
    bank ``next_free`` clocks and poison the timing of every later
    *timed* segment. Reads complete instantly, writes vanish; neither
    touches statistics.
    """

    def read(self, addr: int, cycle: int) -> int:
        return 0

    def write(self, addr: int, cycle: int) -> None:
        return None


def _functional_replay(
    hierarchy: CacheHierarchy,
    trace: Trace,
    start: int,
    stop: int,
    machine: FastMachine | None = None,
) -> int:
    """Stream ``[start, stop)`` through the hierarchy without timing.

    The real access path runs — hits, misses, fills, evictions, every
    policy training hook — but DRAM timing is stubbed out (see
    :class:`_SilentDRAM`) and no measured core advances, so the pass
    costs a policy pass and nothing else. Policy hooks never observe
    cycle counts, so the global tables this pass trains are
    bit-identical to the ones a timed run over the same records would
    produce. With ``machine`` the records run through its hot loop
    (driving a throwaway core); without it, through
    ``hierarchy.access`` at cycle 0. Statistics polluted by the pass are
    discarded by the caller's ``_reset_statistics``. Returns the number
    of records replayed.
    """
    if start >= stop:
        return 0
    if machine is not None:
        saved = machine.dram
        machine.dram = _SilentDRAM()  # type: ignore[assignment]
        try:
            machine.run(CoreModel(CoreConfig()), trace, start, stop)
        finally:
            machine.dram = saved
        return stop - start
    addrs = trace.addrs[start:stop].tolist()
    pcs = trace.pcs[start:stop].tolist()
    kinds = trace.kinds[start:stop].tolist()
    saved_dram = hierarchy.dram
    hierarchy.dram = _SilentDRAM()  # type: ignore[assignment]
    try:
        access = hierarchy.access
        for addr, pc, kind in zip(addrs, pcs, kinds):
            access(addr, pc, kind, 0)
    finally:
        hierarchy.dram = saved_dram
    return stop - start


def compute_boundary_checkpoints(
    trace: Trace,
    config: MachineConfig,
    policy_name: str,
    boundaries: tuple[int, ...],
    engine: str = "fast",
) -> dict[int, dict[str, object]]:
    """Capture warm-state checkpoints at each trace boundary.

    One functional pass (no timing, see :func:`_functional_replay`) over
    ``[0, max(boundaries))`` on a fresh hierarchy, pausing at every
    boundary to capture the LLC policy's global tables
    (:meth:`~repro.policies.base.ReplacementPolicy.checkpoint_tables`)
    and the resident block set of every level. The policy is constructed
    from the registry by name so the pass can never alias the measuring
    hierarchy's policy instance. ``engine="fast"`` runs the pass on a
    :class:`FastMachine` when the trace is eligible;
    ``engine="reference"`` always uses ``hierarchy.access``.
    """
    if engine not in ("fast", "reference"):
        raise ConfigurationError(
            f'checkpoint engine must be "fast" or "reference", got {engine!r}'
        )
    hierarchy = build_hierarchy(config, make_policy(policy_name))
    policy = hierarchy.llc.policy
    if policy.checkpoint_tables() is None:
        raise ConfigurationError(
            f"policy {policy_name!r} does not implement the warm-state "
            'checkpoint protocol; use warm_synthesis="recency" or "replay"'
        )
    resident_blocks = {
        name: cache.resident_blocks for name, cache in hierarchy.caches.items()
    }
    machine: FastMachine | None = None
    if engine == "fast" and fastpath_eligible(hierarchy, trace):
        machine = FastMachine(hierarchy)
        # The checked-out upper levels live in the machine's flat arrays.
        for level in (machine.l1i, machine.l1d, machine.l2):
            resident_blocks[level.cache.name] = level.resident_blocks
    checkpoints: dict[int, dict[str, object]] = {}
    position = 0
    for boundary in sorted(set(boundaries)):
        _functional_replay(hierarchy, trace, position, boundary, machine)
        position = max(position, boundary)
        tables = policy.checkpoint_tables()
        assert tables is not None
        checkpoints[boundary] = {
            "tables": tables,
            "resident": {
                name: np.sort(np.asarray(blocks(), dtype=np.uint64))
                for name, blocks in resident_blocks.items()
            },
        }
    return checkpoints


def synthesize_from_checkpoint(
    hierarchy: CacheHierarchy,
    trace: Trace,
    boundary: int,
    checkpoint: dict[str, object],
    machine: FastMachine | None = None,
) -> int:
    """Rebuild warm state from a boundary checkpoint.

    Restores the policy's global tables, then fills each level with
    exactly the blocks the checkpointing pass held resident at
    ``boundary`` (in last-touch order, so recency-managed levels come
    back in the right order), and restores the tables once more to erase
    the training noise those fills injected. Content and tables then
    match a full run's state at ``boundary`` bit-for-bit; only per-line
    predictor metadata is approximated, via the fill path with the
    trained tables in place. ``machine`` selects the fast rebuild (see
    :func:`_refill`). Returns the number of fills performed.
    """
    policy = hierarchy.llc.policy
    tables = checkpoint["tables"]
    policy.restore_tables(tables)  # type: ignore[arg-type]
    resident: dict[str, np.ndarray] = checkpoint["resident"]  # type: ignore[assignment]
    ordered_blocks, ordered_pcs, ordered_kinds = _prefix_last_touch(
        trace, max(boundary, 0), hierarchy.block_bits
    )
    fills = 0
    for name, cache in hierarchy.caches.items():
        mask = np.isin(ordered_blocks, resident[name], assume_unique=True)
        fills += _refill(
            cache, ordered_blocks[mask], ordered_pcs[mask], ordered_kinds[mask],
            machine,
        )
    policy.restore_tables(tables)  # type: ignore[arg-type]
    return fills


def _weighted_ratio(pairs: list[tuple[float, float]]) -> float:
    """Weighted mean of (value, weight) pairs; 0.0 on zero total weight."""
    total_weight = sum(weight for _, weight in pairs)
    if total_weight <= 0:
        return 0.0
    return sum(value * weight for value, weight in pairs) / total_weight


def recombine(
    measurements: list[tuple[SimulationResult, int]],
    workload: str,
    policy: str,
    info: dict | None = None,
) -> SimulationResult:
    """Weighted recombination of per-interval results into one estimate.

    Every additive counter (instructions, cycles, per-level cache
    counters, DRAM traffic, service-level attribution) is the weighted
    sum over intervals; ratio metrics are weighted by their natural
    denominators — the DRAM row-hit rate by each interval's DRAM
    traffic, the mean load latency by each interval's instruction count
    (a per-interval proxy for its load count).
    """
    if not measurements:
        raise SimulationError(
            f"sampling produced no measured intervals for {workload!r}"
        )
    level_names = list(measurements[0][0].levels)
    levels: dict[str, LevelStats] = {}
    for name in level_names:
        levels[name] = LevelStats(
            name=name,
            demand_accesses=sum(
                m.levels[name].demand_accesses * w for m, w in measurements
            ),
            demand_hits=sum(m.levels[name].demand_hits * w for m, w in measurements),
            writeback_accesses=sum(
                m.levels[name].writeback_accesses * w for m, w in measurements
            ),
            prefetch_accesses=sum(
                m.levels[name].prefetch_accesses * w for m, w in measurements
            ),
            prefetch_hits=sum(
                m.levels[name].prefetch_hits * w for m, w in measurements
            ),
            evictions=sum(m.levels[name].evictions * w for m, w in measurements),
            dirty_evictions=sum(
                m.levels[name].dirty_evictions * w for m, w in measurements
            ),
            bypasses=sum(m.levels[name].bypasses * w for m, w in measurements),
        )
    served_by: dict[ServiceLevel, int] = {}
    for measurement, weight in measurements:
        for level, count in measurement.served_by.items():
            served_by[level] = served_by.get(level, 0) + count * weight
    return SimulationResult(
        workload=workload,
        policy=policy,
        instructions=sum(m.instructions * w for m, w in measurements),
        cycles=float(sum(m.cycles * w for m, w in measurements)),
        levels=levels,
        served_by=served_by,
        l1d_misses=sum(m.l1d_misses * w for m, w in measurements),
        l1d_misses_to_dram=sum(
            m.l1d_misses_to_dram * w for m, w in measurements
        ),
        dram_reads=sum(m.dram_reads * w for m, w in measurements),
        dram_writes=sum(m.dram_writes * w for m, w in measurements),
        dram_row_hit_rate=_weighted_ratio(
            [
                (m.dram_row_hit_rate, float(w * (m.dram_reads + m.dram_writes)))
                for m, w in measurements
            ]
        ),
        mean_load_latency=_weighted_ratio(
            [(m.mean_load_latency, float(w * m.instructions)) for m, w in measurements]
        ),
        rob_stall_cycles=float(
            sum(m.rob_stall_cycles * w for m, w in measurements)
        ),
        info=dict(info or {}),
    )


def simulate_sampled(
    trace: Trace,
    config: MachineConfig | None = None,
    llc_policy: ReplacementPolicy | str = "lru",
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    sampling: SamplingSpec | None = None,
    engine: str = "fast",
    plan: SamplingPlan | None = None,
) -> SimulationResult:
    """Run ``trace`` under representative-interval sampling.

    Drop-in sampled counterpart of :func:`repro.core.simulator.simulate`
    for the plain (no telemetry, no sanitizer, no prefetcher) cell: the
    returned :class:`SimulationResult` estimates what the full run would
    measure, with the sampling spec and executed plan recorded in
    ``result.info``. Deterministic for a fixed ``(trace, spec)``:
    repeated calls return bit-identical results.
    """
    if sampling is None:
        sampling = SamplingSpec()
    if engine not in ("fast", "reference"):
        raise ConfigurationError(
            f'sampled engine must be "fast" or "reference", got {engine!r}'
        )
    if config is None:
        config = cascade_lake()
    if plan is None:
        plan = build_plan(trace, sampling, warmup_fraction)
    hierarchy = build_hierarchy(config, llc_policy)
    policy_name = hierarchy.llc.policy.name
    use_fast = engine == "fast" and fastpath_eligible(hierarchy, trace)

    strategy = sampling.warm_synthesis
    checkpoints: dict[int, dict[str, object]] | None = None
    if strategy == "checkpoint" and hierarchy.llc.policy.checkpoint_tables() is None:
        # The registry's WARM_STATE_EXCLUDED names the policies whose
        # only cross-line state the recency synthesis already rebuilds,
        # so a mixed sweep under "checkpoint" (e.g. the CLI's forced LRU
        # baseline) degrades those cells rather than refusing the sweep.
        if type(hierarchy.llc.policy).__name__ not in WARM_STATE_EXCLUDED:
            raise ConfigurationError(
                f"policy {policy_name!r} does not implement the warm-state "
                'checkpoint protocol; use warm_synthesis="recency" or "replay"'
            )
        strategy = "recency"
    if strategy == "checkpoint":
        boundaries = tuple(i.warm_start for i in plan.intervals)
        if use_fast:
            checkpoints = compute_boundary_checkpoints(
                trace, config, policy_name, boundaries
            )
        else:
            checkpoints = compute_boundary_checkpoints(
                trace, config, policy_name, boundaries, engine="reference"
            )

    # One machine serves every interval; it is checked in after the last.
    machine = FastMachine(hierarchy) if use_fast else None

    def run(core: CoreModel, start: int, stop: int) -> None:
        if machine is not None:
            machine.run(core, trace, start, stop)
        else:
            _run_accesses(hierarchy, core, trace, start, stop)

    def reset_statistics(core: CoreModel) -> None:
        _reset_statistics(hierarchy, int(core.cycle))
        if machine is not None:
            machine.reset_counters()

    measurements: list[tuple[SimulationResult, int]] = []
    synthesis_fills = 0
    replay_accesses = 0
    checkpoint_restores = 0
    for interval in plan.intervals:
        if checkpoints is not None:
            synthesis_fills += synthesize_from_checkpoint(
                hierarchy, trace, interval.warm_start,
                checkpoints[interval.warm_start], machine=machine,
            )
            checkpoint_restores += 1
        else:
            synthesis_fills += synthesize_warm_state(
                hierarchy, trace, interval.replay_start, machine=machine
            )
            if strategy == "replay":
                replay_accesses += _functional_replay(
                    hierarchy, trace, interval.replay_start, interval.warm_start,
                    machine,
                )
        warm_core = CoreModel(config.core)
        if interval.warm_start < interval.start:
            run(warm_core, interval.warm_start, interval.start)
            warm_core.drain()
        reset_statistics(warm_core)
        core = CoreModel(config.core)
        run(core, interval.start, interval.stop)
        core_stats = core.drain()
        measurements.append(
            (
                snapshot_result(trace.name, policy_name, hierarchy, core_stats),
                interval.weight,
            )
        )
        reset_statistics(core)
    if machine is not None:
        machine.checkin()

    info = {
        "sampling": sampling.to_json_dict(),
        "sampling_synthesis_effective": strategy,
        "sampling_plan": plan.to_json_dict(),
        "sampling_synthesis_fills": synthesis_fills,
        "sampling_replay_accesses": replay_accesses,
        "sampling_checkpoint_restores": checkpoint_restores,
        "warmup_accesses": int(len(trace) * warmup_fraction),
        "measured_accesses": sum(i.measured_accesses for i in plan.intervals),
        **trace.info,
    }
    return recombine(measurements, trace.name, policy_name, info)
