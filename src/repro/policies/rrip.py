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
        self._rrpv = [[RRPV_MAX] * num_ways for _ in range(num_sets)]

    # hot
    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        # Age the whole set until some line is distant; evict the first.
        rrpv = self._rrpv[set_index]
        while RRPV_MAX not in rrpv:
            for way in range(self.num_ways):
                rrpv[way] += 1
        return rrpv.index(RRPV_MAX)

    # hot
    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._rrpv[set_index][way] = 0

    # hot
    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._rrpv[set_index][way] = RRPV_MAX - 1

    def checkpoint_tables(self) -> dict[str, object]:
        # SRRIP's only state is per-line RRPVs, which the sampling
        # executor rebuilds through the fill path: protocol implemented,
        # nothing global to carry.
        return {}

    def restore_tables(self, tables: dict[str, object]) -> None:
        pass

    def snapshot_state(self) -> dict[str, object]:
        hist = [0] * (RRPV_MAX + 1)
        for row in self._rrpv:
            for value in row:
                hist[value] += 1
        return {"rrpv_histogram": hist}


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
            self._rrpv[set_index][way] = RRPV_MAX - 1
        else:
            self._rrpv[set_index][way] = RRPV_MAX

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
        self._leader = [self._classify_set(s, num_sets) for s in range(num_sets)]

    def _classify_set(self, set_index: int, num_sets: int) -> int:
        """Return +1 for SRRIP leaders, -1 for BRRIP leaders, 0 for followers.

        Complement-select: with ``k = NUM_LEADER_BITS``, a set leads SRRIP
        when its low-order k bits equal its next k bits, and leads BRRIP
        when they equal the bitwise complement of those bits. For caches
        with fewer than 2k index bits, fall back to a modulo scheme.
        """
        index_bits = max(1, (num_sets - 1).bit_length())
        k = self.NUM_LEADER_BITS
        if index_bits < 2 * k:
            if set_index % 32 == 0:
                return 1
            if set_index % 32 == 1:
                return -1
            return 0
        low = set_index & ((1 << k) - 1)
        high = (set_index >> k) & ((1 << k) - 1)
        if low == high:
            return 1
        if low == (~high & ((1 << k) - 1)):
            return -1
        return 0

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
        self._rrpv[set_index][way] = self._insertion_rrpv(set_index, access)

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
