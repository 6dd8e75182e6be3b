"""Insertion-policy family: LIP, BIP and DIP (Qureshi et al., ISCA 2007).

The direct ancestors of the RRIP family, included as reference baselines:

* **LIP** — LRU Insertion Policy: new blocks insert at the *LRU*
  position instead of MRU, so a non-reused block is the next victim.
* **BIP** — Bimodal Insertion Policy: LIP, but once every
  ``BIP_EPSILON_PERIOD`` fills the block inserts at MRU, letting a slow
  trickle of a thrashing working set become resident.
* **DIP** — Dynamic Insertion Policy: set-duelling between classic LRU
  insertion and BIP with a saturating PSEL counter, exactly the
  mechanism DRRIP later applied to RRPVs.

All three preserve LRU's *promotion* (hits move to MRU) and differ only
in insertion, which is the historically important observation: insertion
position, not eviction choice, is where thrash-resistance comes from.
"""

from __future__ import annotations

from .base import PolicyAccess, ReplacementPolicy
from .rrip import leader_roles

#: BIP inserts at MRU once every this many fills.
BIP_EPSILON_PERIOD = 32


class LIPPolicy(ReplacementPolicy):
    """LRU Insertion Policy: insert at LRU, promote to MRU on hit."""

    name = "lip"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        # One stamp per line, indexed set_index * num_ways + way.
        self._stamp = [0] * (num_sets * num_ways)
        self._clock = 0

    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        # The first way holding the set's smallest stamp.
        base = set_index * self.num_ways
        end = base + self.num_ways
        stamps = self._stamp
        return stamps.index(min(stamps[base:end]), base, end) - base

    def _mru_stamp(self) -> int:
        self._clock += 1
        return self._clock

    def _lru_stamp(self, set_index: int) -> int:
        # One tick older than the current LRU line, i.e. next victim.
        base = set_index * self.num_ways
        return min(self._stamp[base:base + self.num_ways]) - 1

    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._stamp[set_index * self.num_ways + way] = self._mru_stamp()

    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        self._stamp[set_index * self.num_ways + way] = self._insertion_stamp(
            set_index, access
        )

    def _insertion_stamp(self, set_index: int, access: PolicyAccess) -> int:
        return self._lru_stamp(set_index)

    def snapshot_state(self) -> dict[str, object]:
        oldest = min(self._stamp)
        return {"clock": self._clock, "oldest_stamp_age": self._clock - oldest}


class BIPPolicy(LIPPolicy):
    """Bimodal Insertion Policy: LIP with an epsilon of MRU insertions."""

    name = "bip"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._fill_count = 0

    def _insertion_stamp(self, set_index: int, access: PolicyAccess) -> int:
        self._fill_count += 1
        if self._fill_count % BIP_EPSILON_PERIOD == 0:
            return self._mru_stamp()
        return self._lru_stamp(set_index)

    def snapshot_state(self) -> dict[str, object]:
        state = super().snapshot_state()
        state["fill_count"] = self._fill_count
        return state


class DIPPolicy(BIPPolicy):
    """Dynamic Insertion Policy: set-duelling between LRU and BIP.

    Leader selection is DRRIP's complement-select scheme
    (:func:`~repro.policies.rrip.leader_roles`, with the same modulo
    fallback for small caches); misses in LRU leader sets
    increment PSEL, misses in BIP leaders decrement it, and followers
    insert like whichever component's leaders miss less.
    """

    name = "dip"

    PSEL_BITS = 10
    NUM_LEADER_BITS = 5

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._psel_max = (1 << self.PSEL_BITS) - 1
        self._psel = self._psel_max // 2
        self._leader = leader_roles(num_sets, self.NUM_LEADER_BITS)

    def record_demand_miss(self, set_index: int) -> None:
        """PSEL update for a demand miss in a leader set.

        No cache calls this: :meth:`on_fill` does, for every demand
        fill (a demand miss), before the insertion decision reads PSEL.
        """
        role = self._leader[set_index]
        if role > 0 and self._psel < self._psel_max:
            self._psel += 1
        elif role < 0 and self._psel > 0:
            self._psel -= 1

    def _insertion_stamp(self, set_index: int, access: PolicyAccess) -> int:
        role = self._leader[set_index]
        if role > 0:
            return self._mru_stamp()  # LRU-insertion leader
        if role < 0:
            return super()._insertion_stamp(set_index, access)  # BIP leader
        if self._psel < (self._psel_max + 1) // 2:
            return self._mru_stamp()
        return super()._insertion_stamp(set_index, access)

    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        if not access.is_writeback and not access.is_prefetch:
            self.record_demand_miss(set_index)
        super().on_fill(set_index, way, access)

    def checkpoint_tables(self) -> dict[str, object]:
        # DIP implements the protocol directly (LIP/BIP stay excluded:
        # their only global state is the relabeling-invariant stamp
        # clock). The duel counter is the learned state worth carrying;
        # clock and fill phase ride along for exactness.
        return {
            "psel": self._psel,
            "fill_count": self._fill_count,
            "clock": self._clock,
        }

    def restore_tables(self, tables: dict[str, object]) -> None:
        self._psel = int(tables["psel"])  # type: ignore[arg-type]
        self._fill_count = int(tables["fill_count"])  # type: ignore[arg-type]
        # Never rewind: stamps handed out earlier must stay in the past.
        self._clock = max(self._clock, int(tables["clock"]))  # type: ignore[arg-type]

    def snapshot_state(self) -> dict[str, object]:
        state = super().snapshot_state()  # clock/stamp staleness + fill count
        state["psel"] = self._psel
        state["psel_max"] = self._psel_max
        # Below midpoint: followers insert at MRU (LRU leaders miss less).
        state["winning_component"] = (
            "lru" if self._psel < (self._psel_max + 1) // 2 else "bip"
        )
        return state
