"""Re-Reference Interval Prediction policies (Jaleel et al., ISCA 2010).

SRRIP, BRRIP and the set-duelling hybrid DRRIP. Each cache line carries an
M-bit re-reference prediction value (RRPV); 0 means "re-referenced soon",
``2^M - 1`` means "re-referenced in the distant future". Victims are lines
with the maximum RRPV; if none exists, all RRPVs in the set are aged until
one does.

Constants follow the paper and the ChampSim reference implementation:
2-bit RRPVs, hit-priority (HP) promotion, BRRIP long-interval insertion
with probability 1/32, DRRIP with 10-bit PSEL and 32 leader sets per
component selected by the standard complement-select scheme.
"""

from __future__ import annotations

import functools

from ..trace.record import AccessKind
from .base import PolicyAccess, ReplacementPolicy

_KIND_PREFETCH = int(AccessKind.PREFETCH)
_KIND_WRITEBACK = int(AccessKind.WRITEBACK)

#: Width of the re-reference prediction value in bits.
RRPV_BITS = 2
#: Maximum ("distant future") RRPV.
RRPV_MAX = (1 << RRPV_BITS) - 1
#: BRRIP inserts with long re-reference interval once every N fills.
BRRIP_LONG_PERIOD = 32


@functools.cache
def leader_roles(num_sets: int, leader_bits: int) -> tuple[int, ...]:
    """Each set's set-duelling role: +1, -1 or 0 (follower).

    +1 marks a leader of the first component (SRRIP for DRRIP, LRU
    insertion for DIP), -1 a leader of the second. Complement-select:
    with ``k = leader_bits``, a set leads the first component when its
    low-order k bits equal its next k bits, and the second when they
    equal the bitwise complement of those bits. Caches with fewer than
    2k index bits fall back to a modulo scheme (sets 0 and 1 of every
    32). The roles depend only on the geometry, so every policy of one
    set count shares one immutable tuple.
    """
    index_bits = max(1, (num_sets - 1).bit_length())
    if index_bits < 2 * leader_bits:
        return tuple(
            1 if s % 32 == 0 else -1 if s % 32 == 1 else 0 for s in range(num_sets)
        )
    mask = (1 << leader_bits) - 1
    roles = []
    for s in range(num_sets):
        low = s & mask
        high = (s >> leader_bits) & mask
        roles.append(1 if low == high else -1 if low == (~high & mask) else 0)
    return tuple(roles)


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP with hit-priority promotion.

    Fills insert at ``RRPV_MAX - 1`` ("long"), hits promote to 0
    ("near-immediate"). This single change over LRU makes one-shot scans
    evictable before the resident working set — the scan-resistance that
    gives RRIP its wins on scan-heavy workloads.
    """

    name = "srrip"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        # One RRPV per line, indexed set_index * num_ways + way.
        self._rrpv = [RRPV_MAX] * (num_sets * num_ways)

    # hot
    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        # The first distant line. Without one, age the whole set until
        # its oldest line is distant, and evict that line.
        rrpv = self._rrpv
        base = set_index * self.num_ways
        end = base + self.num_ways
        try:
            return rrpv.index(RRPV_MAX, base, end) - base
        except ValueError:
            pass
        oldest = max(rrpv[base:end])
        while oldest < RRPV_MAX:
            for line in range(base, end):
                rrpv[line] += 1
            oldest += 1
        return rrpv.index(RRPV_MAX, base, end) - base

    # hot
    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._rrpv[set_index * self.num_ways + way] = 0

    # hot
    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._rrpv[set_index * self.num_ways + way] = RRPV_MAX - 1

    def checkpoint_tables(self) -> dict[str, object]:
        # SRRIP's only state is per-line RRPVs, which the sampling
        # executor rebuilds through the fill path: protocol implemented,
        # nothing global to carry.
        return {}

    def restore_tables(self, tables: dict[str, object]) -> None:
        pass

    def snapshot_state(self) -> dict[str, object]:
        rrpv = self._rrpv
        return {"rrpv_histogram": [rrpv.count(value) for value in range(RRPV_MAX + 1)]}


class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: inserts at distant RRPV, rarely at long.

    Most fills get ``RRPV_MAX`` so a thrashing working set keeps only a
    trickle of lines resident — the bimodal-insertion idea of BIP applied
    to RRPVs.
    """

    name = "brrip"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._fill_count = 0

    # hot
    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._fill_count += 1
        if self._fill_count % BRRIP_LONG_PERIOD == 0:
            self._rrpv[set_index * self.num_ways + way] = RRPV_MAX - 1
        else:
            self._rrpv[set_index * self.num_ways + way] = RRPV_MAX

    def checkpoint_tables(self) -> dict[str, object]:
        tables = super().checkpoint_tables()
        tables["fill_count"] = self._fill_count
        return tables

    def restore_tables(self, tables: dict[str, object]) -> None:
        super().restore_tables(tables)
        self._fill_count = int(tables["fill_count"])  # type: ignore[arg-type]

    def snapshot_state(self) -> dict[str, object]:
        state = super().snapshot_state()
        state["fill_count"] = self._fill_count
        return state


class DRRIPPolicy(SRRIPPolicy):
    """Dynamic RRIP: set-duelling between SRRIP and BRRIP insertion.

    A small number of leader sets is statically dedicated to each
    component; misses in SRRIP leaders increment a saturating PSEL
    counter, misses in BRRIP leaders decrement it, and follower sets adopt
    whichever component's leaders are missing less. Leader selection uses
    the complement-select scheme from the original paper.
    """

    name = "drrip"

    PSEL_BITS = 10
    NUM_LEADER_BITS = 5  # 32 leader sets per component

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._psel_max = (1 << self.PSEL_BITS) - 1
        self._psel = self._psel_max // 2
        self._fill_count = 0
        self._leader = leader_roles(num_sets, self.NUM_LEADER_BITS)

    def _insertion_rrpv(self, set_index: int, access: PolicyAccess) -> int:
        role = self._leader[set_index]
        # SRRIP leaders, and followers while PSEL says SRRIP leaders
        # miss less, insert long; the rest insert like BRRIP.
        if role > 0 or (role == 0 and self._psel < (self._psel_max + 1) // 2):
            return RRPV_MAX - 1
        self._fill_count += 1
        if self._fill_count % BRRIP_LONG_PERIOD == 0:
            return RRPV_MAX - 1
        return RRPV_MAX

    # hot
    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        # A demand fill is a demand miss: in a leader set it moves PSEL,
        # before the insertion decision reads it.
        kind = access.kind
        if kind != _KIND_WRITEBACK and kind != _KIND_PREFETCH:
            role = self._leader[set_index]
            if role > 0:
                if self._psel < self._psel_max:
                    self._psel += 1
            elif role < 0 and self._psel > 0:
                self._psel -= 1
        self._rrpv[set_index * self.num_ways + way] = self._insertion_rrpv(set_index, access)

    def checkpoint_tables(self) -> dict[str, object]:
        tables = super().checkpoint_tables()
        tables["psel"] = self._psel
        tables["fill_count"] = self._fill_count
        return tables

    def restore_tables(self, tables: dict[str, object]) -> None:
        super().restore_tables(tables)
        self._psel = int(tables["psel"])  # type: ignore[arg-type]
        self._fill_count = int(tables["fill_count"])  # type: ignore[arg-type]

    def snapshot_state(self) -> dict[str, object]:
        state = super().snapshot_state()
        state["psel"] = self._psel
        state["psel_max"] = self._psel_max
        state["fill_count"] = self._fill_count
        # Below midpoint: followers insert like SRRIP (its leaders miss less).
        state["winning_component"] = (
            "srrip" if self._psel < (self._psel_max + 1) // 2 else "brrip"
        )
        return state

