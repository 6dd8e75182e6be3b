"""SHiP: Signature-based Hit Predictor (Wu et al., MICRO 2011).

SHiP extends SRRIP with a Signature History Counter Table (SHCT) indexed
by a hashed PC signature. Each cache line remembers the signature that
filled it and an *outcome* bit recording whether it was ever re-referenced.
On eviction of a never-reused line the signature's counter is decremented;
on a hit it is incremented. Fills whose signature counter is zero insert
at distant RRPV (the line is predicted dead on arrival), everything else
inserts at long RRPV like SRRIP.

Constants follow the SHiP-mem configuration evaluated in the paper and
ChampSim's ``ship`` replacement: 14-bit signatures (16K-entry SHCT) and
2-bit saturating counters.
"""

from __future__ import annotations

from ..trace.record import AccessKind
from .base import PolicyAccess, ReplacementPolicy
from .rrip import RRPV_MAX

_KIND_WRITEBACK = int(AccessKind.WRITEBACK)

SIGNATURE_BITS = 14
SHCT_SIZE = 1 << SIGNATURE_BITS
SHCT_MAX = 3  # 2-bit saturating counters


def pc_signature(pc: int) -> int:
    """Hash a PC into a 14-bit SHCT signature (fold-and-mask)."""
    return (pc ^ (pc >> SIGNATURE_BITS) ^ (pc >> (2 * SIGNATURE_BITS))) & (
        SHCT_SIZE - 1
    )


class SHiPPolicy(ReplacementPolicy):
    """SRRIP base policy plus the SHCT-driven insertion predictor."""

    name = "ship"

    def initialize(self, num_sets: int, num_ways: int) -> None:
        super().initialize(num_sets, num_ways)
        self._rrpv = [[RRPV_MAX] * num_ways for _ in range(num_sets)]
        self._line_sig = [[0] * num_ways for _ in range(num_sets)]
        self._line_reused = [[False] * num_ways for _ in range(num_sets)]
        self._line_valid = [[False] * num_ways for _ in range(num_sets)]
        self._shct = [SHCT_MAX // 2 + 1] * SHCT_SIZE  # weakly reusable start

    # hot
    def find_victim(self, set_index: int, access: PolicyAccess, tags: list[int]) -> int:
        # SRRIP's victim search: age the set until some line is distant.
        rrpv = self._rrpv[set_index]
        while RRPV_MAX not in rrpv:
            for way in range(self.num_ways):
                rrpv[way] += 1
        return rrpv.index(RRPV_MAX)

    # hot
    def on_hit(self, set_index: int, way: int, access: PolicyAccess) -> None:
        if access.kind == _KIND_WRITEBACK:
            # Writeback touches carry no PC and are invisible to the
            # predictor in the ChampSim reference: neither promote the
            # line nor train the SHCT on them.
            return
        self._rrpv[set_index][way] = 0
        if self._line_valid[set_index][way] and not self._line_reused[set_index][way]:
            self._line_reused[set_index][way] = True
            sig = self._line_sig[set_index][way]
            if self._shct[sig] < SHCT_MAX:
                self._shct[sig] += 1

    # hot
    def on_eviction(self, set_index: int, way: int, victim_block: int) -> None:
        if self._line_valid[set_index][way] and not self._line_reused[set_index][way]:
            sig = self._line_sig[set_index][way]
            if self._shct[sig] > 0:
                self._shct[sig] -= 1
        self._line_valid[set_index][way] = False

    # hot
    def on_fill(self, set_index: int, way: int, access: PolicyAccess) -> None:
        sig = pc_signature(access.pc)
        self._line_sig[set_index][way] = sig
        self._line_reused[set_index][way] = False
        self._line_valid[set_index][way] = True
        if access.kind == _KIND_WRITEBACK:
            # Writebacks carry no PC; insert at distant RRPV, as in the
            # ChampSim reference, so they cannot pollute the SHCT.
            self._rrpv[set_index][way] = RRPV_MAX
            self._line_valid[set_index][way] = False
            return
        if self._shct[sig] == 0:
            self._rrpv[set_index][way] = RRPV_MAX
        else:
            self._rrpv[set_index][way] = RRPV_MAX - 1

    def checkpoint_tables(self) -> dict[str, object]:
        return {"shct": list(self._shct)}

    def restore_tables(self, tables: dict[str, object]) -> None:
        shct = tables["shct"]
        if len(shct) != SHCT_SIZE:  # type: ignore[arg-type]
            raise ValueError(
                f"SHCT checkpoint has {len(shct)} entries, expected {SHCT_SIZE}"  # type: ignore[arg-type]
            )
        self._shct[:] = shct  # type: ignore[assignment]

    def snapshot_state(self) -> dict[str, object]:
        shct_hist = [0] * (SHCT_MAX + 1)
        for counter in self._shct:
            shct_hist[counter] += 1
        rrpv_hist = [0] * (RRPV_MAX + 1)
        for row in self._rrpv:
            for value in row:
                rrpv_hist[value] += 1
        tracked = sum(sum(row) for row in self._line_valid)
        reused = sum(
            1
            for vrow, rrow in zip(self._line_valid, self._line_reused)
            for valid, hit in zip(vrow, rrow)
            if valid and hit
        )
        return {
            "shct_histogram": shct_hist,
            # Signatures predicted dead-on-arrival (counter saturated at 0).
            "shct_dead_fraction": shct_hist[0] / SHCT_SIZE,
            "rrpv_histogram": rrpv_hist,
            "tracked_lines": tracked,
            "tracked_reused_lines": reused,
        }
