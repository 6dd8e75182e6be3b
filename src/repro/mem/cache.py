"""Set-associative cache model with pluggable replacement.

One :class:`Cache` models one level: flat tag and dirty arrays indexed
``set * num_ways + way``, write-back + write-allocate semantics, and a
:class:`~repro.policies.base.ReplacementPolicy` consulted through the
ChampSim-style hooks. The cache itself is hierarchy-agnostic — miss
handling, fills from below and writebacks to the next level are
orchestrated by :class:`repro.mem.hierarchy.CacheHierarchy`.

Addresses are handled at block granularity throughout (the *block
address* is the byte address shifted right by ``block_bits``).

The flat layout is the one both optimized engines run on:
:mod:`repro.mem.fastpath` and :mod:`repro.mem.batch` alias these arrays
(and :class:`~repro.policies.basic.LRUPolicy`'s stamps, laid out the same
way) instead of copying them, so setting up a cell costs time per cache
level, not per cache line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..policies.base import BYPASS, PolicyAccess, ReplacementPolicy
from ..trace.record import AccessKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..lint.sanitize import InvariantSanitizer
    from ..telemetry.collector import CacheTap

_DEMAND_KINDS = (AccessKind.LOAD, AccessKind.STORE, AccessKind.IFETCH)


@dataclass
class CacheStats:
    """Per-cache access counters, split by access class.

    *Demand* accesses are loads, stores and instruction fetches — the
    accesses MPKI is computed from. Writebacks and prefetches are counted
    separately so they never distort miss ratios.
    """

    demand_accesses: int = 0
    demand_hits: int = 0
    writeback_accesses: int = 0
    writeback_hits: int = 0
    prefetch_accesses: int = 0
    prefetch_hits: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    bypasses: int = 0
    per_kind_misses: dict[int, int] = field(default_factory=dict)

    @property
    def demand_misses(self) -> int:
        """Demand accesses that missed."""
        return self.demand_accesses - self.demand_hits

    @property
    def demand_hit_rate(self) -> float:
        """Hit rate over demand accesses only."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_hits / self.demand_accesses

    @property
    def demand_miss_rate(self) -> float:
        """Miss rate over demand accesses only."""
        return 1.0 - self.demand_hit_rate if self.demand_accesses else 0.0

    def mpki(self, instructions: int) -> float:
        """Demand misses per kilo-instruction."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.demand_misses / instructions


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access.

    ``victim_block``/``victim_dirty`` describe a block evicted to make
    room (None if the fill used an invalid way, hit, or was bypassed).
    """

    hit: bool
    bypassed: bool = False
    victim_block: int | None = None
    victim_dirty: bool = False


class Cache:
    """One cache level.

    Parameters
    ----------
    name:
        Level name used in reports ("L1D", "L2C", "LLC", ...).
    size_bytes / num_ways / block_bits:
        Geometry; ``size_bytes`` must equal
        ``num_sets * num_ways * block_size`` for a power-of-two set count.
    policy:
        A fresh (unattached) replacement policy instance.
    hit_latency:
        Cycles charged for a hit at this level.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        num_ways: int,
        policy: ReplacementPolicy,
        hit_latency: int = 1,
        block_bits: int = 6,
    ) -> None:
        block_size = 1 << block_bits
        if size_bytes <= 0 or num_ways <= 0:
            raise ConfigurationError(
                f"{name}: size and ways must be positive, got {size_bytes}/{num_ways}"
            )
        if size_bytes % (block_size * num_ways):
            raise ConfigurationError(
                f"{name}: size {size_bytes} is not a multiple of "
                f"block_size*ways = {block_size * num_ways}"
            )
        num_sets = size_bytes // (block_size * num_ways)
        if num_sets & (num_sets - 1):
            raise ConfigurationError(
                f"{name}: set count {num_sets} must be a power of two "
                f"(size={size_bytes}, ways={num_ways}, block={block_size})"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.block_bits = block_bits
        self.hit_latency = hit_latency
        self._set_mask = num_sets - 1
        # Flat tag/dirty arrays indexed set * num_ways + way; -1 marks an
        # invalid way, dirty holds 0/1.
        self._tags: list[int] = [-1] * (num_sets * num_ways)
        self._dirty = bytearray(num_sets * num_ways)
        self.policy = policy
        policy.initialize(num_sets, num_ways)
        self.stats = CacheStats()
        # Optional runtime invariant checks (repro.lint.sanitize); the
        # default hot path pays exactly one `is None` test per operation.
        self._sanitizer: InvariantSanitizer | None = None
        # Optional telemetry tap (repro.telemetry); same cost model as
        # the sanitizer — one `is None` test per operation when off.
        self._telemetry: CacheTap | None = None

    def attach_sanitizer(self, sanitizer: InvariantSanitizer) -> None:
        """Arm opt-in invariant checking on every subsequent operation."""
        self._sanitizer = sanitizer
        sanitizer.bind(self)

    def attach_telemetry(self, tap: CacheTap | None) -> None:
        """Arm (or, with ``None``, disarm) the telemetry tap."""
        self._telemetry = tap

    # -- inspection -----------------------------------------------------------

    def set_index(self, block: int) -> int:
        """The set a block address maps to."""
        return block & self._set_mask

    def contains(self, block: int) -> bool:
        """Whether the block is currently resident."""
        base = (block & self._set_mask) * self.num_ways
        return block in self._tags[base:base + self.num_ways]

    def resident_blocks(self) -> list[int]:
        """All valid resident block addresses (test/debug helper)."""
        return [t for t in self._tags if t != -1]

    @property
    def occupancy(self) -> int:
        """Number of valid lines."""
        return len(self._tags) - self._tags.count(-1)

    def set_occupancies(self) -> list[int]:
        """Valid-line count per set, in set order (telemetry/debug)."""
        tags = self._tags
        ways = self.num_ways
        return [
            ways - tags[base:base + ways].count(-1)
            for base in range(0, len(tags), ways)
        ]

    # -- the access path ----------------------------------------------------------

    def _count(self, kind: int, hit: bool) -> None:
        stats = self.stats
        if kind == AccessKind.WRITEBACK:
            stats.writeback_accesses += 1
            if hit:
                stats.writeback_hits += 1
        elif kind == AccessKind.PREFETCH:
            stats.prefetch_accesses += 1
            if hit:
                stats.prefetch_hits += 1
        else:
            stats.demand_accesses += 1
            if hit:
                stats.demand_hits += 1
        if not hit:
            stats.per_kind_misses[kind] = stats.per_kind_misses.get(kind, 0) + 1

    def lookup(self, block: int) -> int:  # hot
        """Way index of the block in its set, or -1 if absent (no stats)."""
        ways = self.num_ways
        base = (block & self._set_mask) * ways
        tags = self._tags
        if block in tags[base:base + ways]:
            return tags.index(block, base) - base
        return -1

    def access(self, block: int, pc: int, kind: int) -> AccessResult:  # hot
        """Probe the cache; on a hit, update policy and dirty state.

        Misses are *not* filled here — the hierarchy fetches the block
        from below and then calls :meth:`fill`. Returns whether it hit.
        """
        set_index = block & self._set_mask
        ways = self.num_ways
        base = set_index * ways
        tags = self._tags
        hit = block in tags[base:base + ways]
        self._count(kind, hit)
        if self._telemetry is not None:
            self._telemetry.on_access(block, kind, hit)
        if hit:
            idx = tags.index(block, base)
            self.policy.on_hit(set_index, idx - base, PolicyAccess(block, pc, kind))
            if kind == AccessKind.STORE or kind == AccessKind.WRITEBACK:
                self._dirty[idx] = 1
            if self._sanitizer is not None:
                self._sanitizer.check_set(set_index)
            return AccessResult(hit=True)
        return AccessResult(hit=False)

    def fill(self, block: int, pc: int, kind: int) -> AccessResult:  # hot
        """Insert a block fetched from the next level (or a writeback).

        Picks an invalid way if one exists, otherwise asks the policy for
        a victim (which may answer :data:`~repro.policies.base.BYPASS`).
        Returns the evicted block, if any, so the hierarchy can propagate
        dirty data downward.
        """
        set_index = block & self._set_mask
        base = set_index * self.num_ways
        tags = self._tags
        row = tags[base:base + self.num_ways]
        access = PolicyAccess(block, pc, kind)
        sanitizer = self._sanitizer
        victim_block: int | None = None
        victim_dirty = False
        if -1 in row:
            way = row.index(-1)
        else:
            way = self.policy.find_victim(set_index, access, row)
            if sanitizer is not None:
                sanitizer.check_victim(set_index, way, row)
            if way == BYPASS:
                self.stats.bypasses += 1
                return AccessResult(hit=False, bypassed=True)
            victim_block = row[way]
            victim_dirty = self._dirty[base + way] == 1
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
            if self._telemetry is not None:
                self._telemetry.on_eviction(set_index)
            if sanitizer is not None:
                sanitizer.expect_eviction(set_index, way, victim_block)
            self.policy.on_eviction(set_index, way, victim_block)
            if sanitizer is not None:
                sanitizer.assert_notified(set_index)
        tags[base + way] = block
        self._dirty[base + way] = kind in (AccessKind.STORE, AccessKind.WRITEBACK)
        self.policy.on_fill(set_index, way, access)
        if sanitizer is not None:
            sanitizer.check_set(set_index)
        return AccessResult(
            hit=False, victim_block=victim_block, victim_dirty=victim_dirty
        )

    def reset_content(self) -> None:
        """Drop every resident line, keeping policy and statistics state.

        Used by the sampling executor (:mod:`repro.sampling`) before it
        re-synthesizes warm content at an interval boundary: the tag and
        dirty arrays are cleared so subsequent :meth:`fill` calls land in
        invalid ways, while the policy object (and any global predictor
        state it carries) survives untouched. Both arrays are cleared in
        place, so engines aliasing them see the reset.
        """
        self._tags[:] = [-1] * len(self._tags)
        self._dirty[:] = bytes(len(self._dirty))

    def invalidate(self, block: int) -> bool:
        """Drop a block if resident (returns whether it was)."""
        set_index = block & self._set_mask
        way = self.lookup(block)
        if way < 0:
            return False
        idx = set_index * self.num_ways + way
        self._tags[idx] = -1
        self._dirty[idx] = 0
        if self._sanitizer is not None:
            self._sanitizer.check_set(set_index)
        return True

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, {self.size_bytes // 1024} KiB, "
            f"{self.num_sets}x{self.num_ways}, policy={self.policy.name})"
        )
